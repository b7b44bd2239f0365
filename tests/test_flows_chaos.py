"""Chaos-side tests for the flows subsystem: the soft-state invariant
monitor, crashed-gateway silence with a DRR discipline attached, the flows
MIB subtree, and the three-way FIFO/VC/DRR race campaign."""

from repro import Internet
from repro.apps.traffic import CbrSource, UdpSink
from repro.chaos import BlackoutDeliveryMonitor, FaultCampaign, GatewayCrash
from repro.chaos.flows import FlowStateMonitor, gates, run_flows_campaign
from repro.flows.flowspec import FlowSpec
from repro.flows.gateway import FlowGateway, ReservationSender, accept_reservations
from repro.ip.packet import PROTO_UDP
from repro.netmgmt.mib import build_mib


def bottleneck_net():
    """The shared two-senders-one-slow-egress preset (seed 13)."""
    net = Internet(seed=13)
    h1, h2, sink_host = net.host("H1"), net.host("H2"), net.host("SINK")
    g = net.gateway("G")
    net.connect(h1, g, bandwidth_bps=10e6, delay=0.001)
    net.connect(h2, g, bandwidth_bps=10e6, delay=0.001)
    out = net.connect(g, sink_host, bandwidth_bps=200_000, delay=0.005)
    net.start_routing()
    net.converge(settle=8.0)
    egress = out.ends[0] if out.ends[0].node is g.node else out.ends[1]
    fgw = FlowGateway(g.node, egress)
    return net, h1, h2, sink_host, fgw


def _reserved_voiceish_flow(net, h1, sink_host, *, lifetime=5.0,
                            refresh_interval=1.0):
    accept_reservations(sink_host)
    spec = FlowSpec(h1.address, sink_host.address, PROTO_UDP,
                    dst_port=9001, weight=4, lifetime=lifetime)
    sender = ReservationSender(h1, spec, refresh_interval=refresh_interval)
    return spec, sender


# ----------------------------------------------------------------------
# Crashed-means-silent, with the scheduler in the data path
# ----------------------------------------------------------------------
def test_crashed_gateway_silent_under_campaign():
    """Regression: the serve loop used to keep draining a crashed
    gateway's queues onto the wire.  The blackout monitor's transmit
    check must stay green with a saturated scheduler attached."""
    net, h1, h2, sink_host, fgw = bottleneck_net()
    UdpSink(sink_host, 9000)
    CbrSource(h1, sink_host.address, 9000, size=500, rate=100.0,
              duration=12.0)
    now = net.sim.now
    campaign = FaultCampaign(net, [GatewayCrash("G", now + 2.0, 2.0)],
                             monitors=[BlackoutDeliveryMonitor()],
                             name="crash-silent")
    report = campaign.run(until=now + 12.0)
    assert report.ok, [v.detail for m in campaign.monitors
                       for v in m.violations]
    assert fgw.state_losses == 1
    assert fgw.packets_flushed_on_crash > 0
    assert fgw.scheduler.queued_packets >= 0


# ----------------------------------------------------------------------
# FlowStateMonitor
# ----------------------------------------------------------------------
def test_flow_state_monitor_records_reinstall():
    net, h1, h2, sink_host, fgw = bottleneck_net()
    _reserved_voiceish_flow(net, h1, sink_host)
    now = net.sim.now
    monitor = FlowStateMonitor(refresh_interval=1.0)
    campaign = FaultCampaign(net, [GatewayCrash("G", now + 3.0, 2.0)],
                             monitors=[monitor], name="reinstall")
    report = campaign.run(until=now + 12.0)
    assert report.ok
    assert len(monitor.reinstalls) == 1
    record = monitor.reinstalls[0]
    assert record["gateway"] == "G"
    assert 0.0 <= record["delay"] <= 1.0 + monitor.grace


def test_flow_state_monitor_violates_when_refresh_stops():
    """If the endpoint stops refreshing, the reborn gateway never relearns
    the reservation — the monitor must call that out."""
    net, h1, h2, sink_host, fgw = bottleneck_net()
    spec, sender = _reserved_voiceish_flow(net, h1, sink_host)
    now = net.sim.now
    net.sim.schedule(3.0, sender.stop)    # silence right at the crash
    monitor = FlowStateMonitor(refresh_interval=1.0)
    campaign = FaultCampaign(net, [GatewayCrash("G", now + 3.0, 2.0)],
                             monitors=[monitor], name="lost-forever")
    report = campaign.run(until=now + 12.0)
    assert not report.ok
    assert monitor.reinstalls == []
    assert any("not re-installed" in v.detail for v in monitor.violations)


# ----------------------------------------------------------------------
# Management plane surface
# ----------------------------------------------------------------------
def test_mib_exposes_flows_subtree():
    net, h1, h2, sink_host, fgw = bottleneck_net()
    _reserved_voiceish_flow(net, h1, sink_host)
    net.sim.run(until=net.sim.now + 3)
    tree = build_mib(fgw.node)
    assert "flows.state_losses" in tree
    assert tree.get("flows.gateways") == 1
    assert tree.get("flows.installed") == 1
    assert tree.get("flows.refreshes_seen") >= 2
    assert tree.get("flows.state_losses") == 0
    # Providers read live: a crash is visible through the same tree.
    fgw.node.crash()
    assert tree.get("flows.state_losses") == 1
    assert tree.get("flows.installed") == 0
    assert tree.get("flows.queued") == 0


def test_mib_has_no_flows_subtree_without_gateway():
    net, h1, h2, sink_host, fgw = bottleneck_net()
    tree = build_mib(h1.node)             # a plain host
    assert "flows.state_losses" not in tree


# ----------------------------------------------------------------------
# The three-way race campaign
# ----------------------------------------------------------------------
def test_flows_race_campaign_smoke_and_determinism():
    report = run_flows_campaign(7)
    assert report.ok
    assert report.all_reconverged
    # The crux — hard state dies with the switch, soft state re-installs,
    # DRR protects voice, the station sees crash and lost reservation —
    # is the campaign's own gate list.
    assert gates(report, "full") == []
    assert list(report.legs) == ["fifo", "drr"]
    card = report.scorecard
    soft = card["drr"]["soft_state"]
    assert len(soft["reinstalls"]) == 1
    assert soft["reinstalls"][0]["delay"] <= soft["refresh_interval_s"] + 0.75
    # Margins the gates do not insist on: a wide voice-isolation gap at
    # saturation, and not one false alarm.
    assert (card["drr"]["usable_saturation_pct"]
            > card["fifo"]["usable_saturation_pct"] + 20)
    assert report.legs["drr"].counters["netmgmt"]["false_alarms"] == 0
    # Same seed, same bytes — even within one process.
    assert run_flows_campaign(7).to_json() == report.to_json()
