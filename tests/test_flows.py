"""Tests for flows + soft state (the paper's next-generation sketch)."""

import pytest

from repro import Internet
from repro.apps.traffic import CbrSource, UdpSink
from repro.flows.flowspec import PROTO_RSVP, FlowSpec, flow_key_of
from repro.flows.gateway import FlowGateway, ReservationSender, accept_reservations
from repro.flows.scheduler import DrrScheduler
from repro.ip.address import Address, Prefix
from repro.ip.node import Node
from repro.ip.packet import Datagram, IP_HEADER_LEN, PROTO_UDP
from repro.netlayer.link import Interface, PointToPointLink
from repro.obs.core import Observability
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# FlowSpec
# ----------------------------------------------------------------------
def test_flowspec_pack_round_trip():
    spec = FlowSpec(Address("10.0.0.1"), Address("10.0.0.2"), PROTO_UDP,
                    dst_port=5004, weight=4, lifetime=9.0)
    parsed = FlowSpec.unpack(spec.pack())
    assert parsed == spec


def test_flowspec_matches_by_addresses_and_port():
    spec = FlowSpec(Address("10.0.0.1"), Address("10.0.0.2"), PROTO_UDP,
                    dst_port=5004)
    # UDP payload with dst port 5004 at bytes 2..4.
    payload = (1234).to_bytes(2, "big") + (5004).to_bytes(2, "big") + b"\x00" * 8
    d = Datagram(src=Address("10.0.0.1"), dst=Address("10.0.0.2"),
                 protocol=PROTO_UDP, payload=payload)
    assert spec.matches(d)
    other = d.copy(src=Address("10.0.0.9"))
    assert not spec.matches(other)
    wrong_port = d.copy(payload=(1234).to_bytes(2, "big") + (80).to_bytes(2, "big"))
    assert not spec.matches(wrong_port)


def test_flowspec_any_port():
    spec = FlowSpec(Address("10.0.0.1"), Address("10.0.0.2"), PROTO_UDP,
                    dst_port=0)
    d = Datagram(src=Address("10.0.0.1"), dst=Address("10.0.0.2"),
                 protocol=PROTO_UDP, payload=b"\x00" * 8)
    assert spec.matches(d)


def test_flow_key_of():
    d = Datagram(src=Address("10.0.0.1"), dst=Address("10.0.0.2"),
                 protocol=PROTO_UDP, payload=b"")
    assert flow_key_of(d) == (int(d.src), int(d.dst), PROTO_UDP)


# ----------------------------------------------------------------------
# Scheduler (driven through a real bottleneck)
# ----------------------------------------------------------------------
def bottleneck_net(mode, **fgw_kwargs):
    """Two senders share one slow gateway egress: its own 32-deep
    drop-tail queue (``"fifo"``, no flow gateway) or a flow gateway's DRR
    (``"drr"``)."""
    net = Internet(seed=13)
    h1, h2, sink_host = net.host("H1"), net.host("H2"), net.host("SINK")
    g = net.gateway("G")
    net.connect(h1, g, bandwidth_bps=10e6, delay=0.001)
    net.connect(h2, g, bandwidth_bps=10e6, delay=0.001)
    out = net.connect(g, sink_host, bandwidth_bps=200_000, delay=0.005,
                      queue_limit=32)
    net.start_routing()
    net.converge(settle=8.0)
    if mode == "fifo":
        return net, h1, h2, sink_host, None
    # Attach the scheduler to the gateway's egress toward the sink.
    egress = out.ends[0] if out.ends[0].node is g.node else out.ends[1]
    fgw = FlowGateway(g.node, egress, **fgw_kwargs)
    return net, h1, h2, sink_host, fgw


@pytest.mark.parametrize("mode", ["fifo", "drr"])
def test_scheduler_passes_traffic(mode):
    net, h1, h2, sink_host, fgw = bottleneck_net(mode)
    sink = UdpSink(sink_host, 9000)
    CbrSource(h1, sink_host.address, 9000, size=200, rate=20.0, duration=5.0)
    net.sim.run(until=net.sim.now + 10)
    assert sink.packets > 90


def test_drr_isolates_flows_fifo_does_not():
    """An aggressive flow starves a polite one under FIFO but not DRR."""
    results = {}
    for mode in ("fifo", "drr"):
        net, h1, h2, sink_host, fgw = bottleneck_net(mode)
        polite = UdpSink(sink_host, 9001)
        greedy = UdpSink(sink_host, 9002)
        # Polite: 20 kb/s.  Greedy: ~4x the bottleneck.
        CbrSource(h1, sink_host.address, 9001, size=125, rate=20.0,
                  duration=10.0)
        CbrSource(h2, sink_host.address, 9002, size=1000, rate=100.0,
                  duration=10.0)
        net.sim.run(until=net.sim.now + 15)
        results[mode] = polite.packets
    assert results["drr"] > results["fifo"]
    assert results["drr"] >= 150  # nearly all of the polite flow's ~200


def test_reserved_flow_gets_weighted_share():
    net, h1, h2, sink_host, fgw = bottleneck_net("drr")
    favored = UdpSink(sink_host, 9001)
    other = UdpSink(sink_host, 9002)
    spec = FlowSpec(h1.address, sink_host.address, PROTO_UDP,
                    dst_port=9001, weight=8, lifetime=60.0)
    fgw.scheduler.install_spec(spec)
    fgw._expiry[spec.key] = net.sim.now + spec.lifetime
    # Both flows oversubscribe the bottleneck equally.
    CbrSource(h1, sink_host.address, 9001, size=500, rate=100.0, duration=10.0)
    CbrSource(h2, sink_host.address, 9002, size=500, rate=100.0, duration=10.0)
    net.sim.run(until=net.sim.now + 15)
    assert favored.packets > 1.5 * other.packets


# ----------------------------------------------------------------------
# Soft state end to end
# ----------------------------------------------------------------------
def test_refresh_installs_state_along_path():
    net, h1, h2, sink_host, fgw = bottleneck_net("drr")
    accept_reservations(sink_host)
    spec = FlowSpec(h1.address, sink_host.address, PROTO_UDP,
                    dst_port=9001, weight=4, lifetime=5.0)
    ReservationSender(h1, spec, refresh_interval=1.0)
    net.sim.run(until=net.sim.now + 3)
    assert fgw.installed_flows == 1
    assert fgw.refreshes_seen >= 2


def test_state_expires_without_refresh():
    net, h1, h2, sink_host, fgw = bottleneck_net("drr")
    accept_reservations(sink_host)
    spec = FlowSpec(h1.address, sink_host.address, PROTO_UDP,
                    dst_port=9001, weight=4, lifetime=2.0)
    sender = ReservationSender(h1, spec, refresh_interval=0.5)
    net.sim.run(until=net.sim.now + 2)
    assert fgw.installed_flows == 1
    sender.stop()
    net.sim.run(until=net.sim.now + 5)
    assert fgw.installed_flows == 0
    assert fgw.specs_expired >= 1


def test_soft_state_survives_gateway_crash():
    """The closing claim of the paper: losing flow state is not critical —
    the next refresh rebuilds it."""
    net, h1, h2, sink_host, fgw = bottleneck_net("drr")
    accept_reservations(sink_host)
    spec = FlowSpec(h1.address, sink_host.address, PROTO_UDP,
                    dst_port=9001, weight=4, lifetime=5.0)
    ReservationSender(h1, spec, refresh_interval=1.0)
    net.sim.run(until=net.sim.now + 3)
    assert fgw.installed_flows == 1
    gw_node = fgw.node
    gw_node.crash()
    assert fgw.installed_flows == 0       # state gone with the crash
    gw_node.restore()
    net.sim.run(until=net.sim.now + 12)   # routing + refresh recover
    assert fgw.installed_flows == 1       # soft state rebuilt itself
    assert fgw.state_losses == 1


def test_soft_state_expires_exactly_at_lifetime():
    """A single unrefreshed install lives ``lifetime`` seconds — present
    strictly before the deadline, swept within one sweep interval after."""
    net, h1, h2, sink_host, fgw = bottleneck_net("drr", sweep_interval=0.05)
    accept_reservations(sink_host)
    spec = FlowSpec(h1.address, sink_host.address, PROTO_UDP,
                    dst_port=9001, weight=4, lifetime=2.0)
    h1.node.send(spec.dst, PROTO_RSVP, spec.pack())   # one refresh, no more
    net.sim.run(until=net.sim.now + 0.5)
    assert fgw.installed_flows == 1
    deadline = fgw._expiry[spec.key]
    net.sim.run(until=deadline - 0.06)                # > one sweep before
    assert fgw.installed_flows == 1
    net.sim.run(until=deadline + 0.11)                # ~two sweeps after
    assert fgw.installed_flows == 0
    assert fgw.specs_expired == 1
    assert fgw.scheduler.installed_specs == []


def test_sender_survives_two_consecutive_refresh_losses():
    """The ``lifetime / 3`` discipline in the sender's docstring: with
    refreshes every lifetime/3, two consecutive losses must not let the
    reservation expire."""
    net = Internet(seed=13)
    h1, sink_host = net.host("H1"), net.host("SINK")
    g = net.gateway("G")
    access = net.connect(h1, g, bandwidth_bps=10e6, delay=0.001)
    out = net.connect(g, sink_host, bandwidth_bps=200_000, delay=0.005)
    net.start_routing()
    net.converge(settle=8.0)
    egress = out.ends[0] if out.ends[0].node is g.node else out.ends[1]
    fgw = FlowGateway(g.node, egress)
    accept_reservations(sink_host)
    spec = FlowSpec(h1.address, sink_host.address, PROTO_UDP,
                    dst_port=9001, weight=4, lifetime=6.0)
    sender = ReservationSender(h1, spec)              # default: lifetime / 3
    t0 = net.sim.now
    # Refreshes go out at t0, t0+2, t0+4, t0+6, ...  Kill the access link
    # across the middle two.
    net.sim.schedule(1.9, lambda: net.fail_link(access))
    net.sim.schedule(4.1, lambda: net.restore_link(access))
    net.sim.run(until=t0 + 5.9)
    assert fgw.installed_flows == 1                   # not yet expired
    net.sim.run(until=t0 + 7.5)                       # t0+6 refresh landed
    assert fgw.installed_flows == 1
    assert fgw.specs_expired == 0                     # never lapsed
    assert sender.refreshes_sent >= 4


def test_drr_shares_converge_to_weight_ratio():
    """DRR delivers throughput proportional to installed weights; FIFO
    gives the same two flows a ~1:1 split regardless."""
    ratios = {}
    for mode in ("drr", "fifo"):
        net, h1, h2, sink_host, fgw = bottleneck_net(mode)
        heavy = UdpSink(sink_host, 9001)
        light = UdpSink(sink_host, 9002)
        for host, port, weight in ((h1, 9001, 3), (h2, 9002, 1)):
            spec = FlowSpec(host.address, sink_host.address, PROTO_UDP,
                            dst_port=port, weight=weight, lifetime=120.0)
            if fgw is not None:
                fgw.scheduler.install_spec(spec)
                fgw._expiry[spec.key] = net.sim.now + spec.lifetime
        # Both flows offer ~2x the bottleneck with equal packet sizes, so
        # delivered-packet counts mirror the byte service ratio.  The
        # rates differ slightly: identical periods would phase-lock the
        # deterministic arrivals and bias FIFO's tail-drop.
        CbrSource(h1, sink_host.address, 9001, size=500, rate=100.0,
                  duration=20.0)
        CbrSource(h2, sink_host.address, 9002, size=500, rate=103.0,
                  duration=20.0)
        net.sim.run(until=net.sim.now + 25)
        ratios[mode] = heavy.packets / max(1, light.packets)
    assert 2.4 <= ratios["drr"] <= 3.6       # converges to the 3:1 weights
    assert 0.75 <= ratios["fifo"] <= 1.3     # FIFO cannot differentiate


# ----------------------------------------------------------------------
# Bug regressions: crash flush, queue merge, link flap
# ----------------------------------------------------------------------
def test_crash_flushes_scheduler_and_stays_silent():
    """A crashed gateway's queues die with it: no queued packet may reach
    the wire after the crash, and the link's pending release finds
    nothing."""
    net, h1, h2, sink_host, fgw = bottleneck_net("drr")
    sink = UdpSink(sink_host, 9000)
    CbrSource(h1, sink_host.address, 9000, size=500, rate=100.0,
              duration=10.0)
    net.sim.run(until=net.sim.now + 2)      # 2x oversubscribed: queue fills
    queued = fgw.scheduler.queued_packets
    assert queued > 0
    fgw.node.crash()
    assert fgw.scheduler.queued_packets == 0
    assert fgw.packets_flushed_on_crash == queued
    assert fgw.scheduler.stats.flushed == queued
    sent_before = sum(i.stats.packets_sent for i in fgw.node.interfaces)
    delivered_before = sink.packets
    net.sim.run(until=net.sim.now + 1.5)
    assert sum(i.stats.packets_sent
               for i in fgw.node.interfaces) == sent_before
    # Packets already serialized onto the link before the crash may still
    # arrive (they were counted in sent_before); nothing beyond that.
    assert sink.packets - delivered_before <= 8


def test_sweeper_restarts_after_crash():
    """Soft state installed after a crash/restore cycle must still expire:
    the expiry sweeper is part of the gateway's volatile state and has to
    come back with the node."""
    net, h1, h2, sink_host, fgw = bottleneck_net("drr")
    accept_reservations(sink_host)
    spec = FlowSpec(h1.address, sink_host.address, PROTO_UDP,
                    dst_port=9001, weight=4, lifetime=2.0)
    sender = ReservationSender(h1, spec, refresh_interval=0.5)
    net.sim.run(until=net.sim.now + 2)
    fgw.node.crash()
    net.sim.run(until=net.sim.now + 1)
    fgw.node.restore()
    net.sim.run(until=net.sim.now + 3)
    assert fgw.installed_flows == 1         # refresh re-installed it
    sender.stop()
    net.sim.run(until=net.sim.now + 5)
    assert fgw.installed_flows == 0         # reborn sweeper expired it
    assert fgw.specs_expired >= 1


def _udp_datagram(seq, port=5004, size=200, src="10.0.0.1"):
    payload = (1234).to_bytes(2, "big") + port.to_bytes(2, "big")
    payload += seq.to_bytes(4, "big")
    payload += b"\x00" * (size - len(payload))
    return Datagram(src=Address(src), dst=Address("10.0.0.2"),
                    protocol=PROTO_UDP, payload=payload)


def _seq_of(datagram):
    return int.from_bytes(datagram.payload[4:8], "big")


def drr_link():
    """A -- B over a 100 kb/s link, DRR on A's transmitter; returns the
    scheduler, the link, and the sequence numbers B receives, in order."""
    sim = Simulator()
    prefix = Prefix.parse("10.0.0.0/24")
    a, b = Node("A", sim), Node("B", sim)
    ia = a.add_interface(Interface("a0", prefix.host(254), prefix))
    ib = b.add_interface(Interface("b0", prefix.host(2), prefix))
    link = PointToPointLink(sim, ia, ib, bandwidth_bps=100_000.0,
                            delay=0.001)
    got = []
    b.register_protocol(PROTO_UDP, lambda n, d, i: got.append(_seq_of(d)))
    return DrrScheduler(ia), link, got


def test_install_spec_merges_implicit_queue_without_reorder():
    """Packets queued before the reservation arrives must be served ahead
    of packets queued after it — one flow, one queue.  The regression:
    install left the backlog under ``flow_key_of()`` while new arrivals
    classified to the spec key, and DRR interleaved the two."""
    sched, link, got = drr_link()
    for seq in range(6):
        link.ends[0].output(_udp_datagram(seq))
    # seq 0 went straight onto the serializer; 1..5 sit in the implicit
    # flow_key_of queue.
    spec = FlowSpec(Address("10.0.0.1"), Address("10.0.0.2"), PROTO_UDP,
                    dst_port=5004, weight=4, lifetime=60.0)
    sched.install_spec(spec)
    assert sched.stats.migrated == 5
    for seq in range(6, 12):
        link.ends[0].output(_udp_datagram(seq))
    sched.sim.run(until=10.0)
    assert got == list(range(12))


def test_remove_spec_migrates_backlog_back():
    """Expiry while packets are queued under the spec key: the backlog
    moves to the implicit key future packets will classify to, and the
    flow keeps arriving in order."""
    sched, link, got = drr_link()
    spec = FlowSpec(Address("10.0.0.1"), Address("10.0.0.2"), PROTO_UDP,
                    dst_port=5004, weight=4, lifetime=60.0)
    sched.install_spec(spec)
    for seq in range(6):
        link.ends[0].output(_udp_datagram(seq))
    sched.remove_spec(spec.key)
    assert sched.stats.migrated == 5
    for seq in range(6, 12):
        link.ends[0].output(_udp_datagram(seq))
    sched.sim.run(until=10.0)
    assert got == list(range(12))


def test_link_flap_flushes_held_frames_like_drop_tail():
    """Lowering a link kills what its transmitter holds, whatever the
    discipline.  The drift this pins: a scheduler in front of the link
    never heard of the flap, kept serving one frame per frame time into
    the down medium (each counted as sent by the scheduler, then dropped
    by the link), and whatever it still held when the link came back
    survived the flap that killed every drop-tail frame."""
    sched, link, got = drr_link()
    ia = link.ends[0]
    obs = Observability()
    obs.attach_node(ia.node)
    for seq in range(10):
        ia.output(_udp_datagram(seq))
    sched.sim.run(until=0.03)
    held, on_wire = sched.queued_packets, link._channels[ia].queued
    assert held > 0 and on_wire > 0
    dequeued = sched.stats.dequeued
    link.set_up(False)
    assert sched.queued_packets == 0
    assert sched.stats.flushed == held
    assert ia.stats.packets_dropped_down == held + on_wire
    assert obs.registry.counter_total(
        "ip_drops", node="A", reason="drop-link-down") == held
    sched.sim.run(until=1.0)
    link.set_up(True)
    sched.sim.run(until=2.0)
    assert sched.stats.dequeued == dequeued
    assert ia.stats.packets_sent == dequeued
    assert len(got) == dequeued - on_wire
    assert sched.stats.enqueued == dequeued + sched.stats.flushed


def test_after_a_crash_the_next_release_waits_for_the_serializer():
    """A crash flushes what the discipline holds, round and all; the frame
    already on the wire keeps the serializer.  A node back up inside that
    frame time has its next frame released when the serializer frees, not
    at once into a busy link, and its flows take turns in the order they
    came back, not the order they had before the crash."""
    sched, link, got = drr_link()
    ia = link.ends[0]
    for seq, src in enumerate(["10.0.0.1", "10.0.0.1", "10.0.0.3",
                               "10.0.0.4"]):
        ia.output(_udp_datagram(seq, src=src))
    assert sched.flush() == 3
    ia.output(_udp_datagram(4, src="10.0.0.4"))
    ia.output(_udp_datagram(5, src="10.0.0.1"))
    assert sched.stats.dequeued == 1 and sched.queued_packets == 2
    frees = (200 + IP_HEADER_LEN + link.FRAME_OVERHEAD) * 8 / 100_000.0
    sched.sim.run(until=frees * 0.99)
    assert sched.stats.dequeued == 1
    sched.sim.run(until=frees)
    assert sched.stats.dequeued == 2
    sched.sim.run(until=1.0)
    assert got == [0, 4, 5]
