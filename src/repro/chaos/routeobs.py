"""The control-plane observability campaign: watching routing itself.

Two legs, one seed, one report:

* ``ring``    — the 512-node 8-AS ring (or the small determinism shape).
  A probe mesh traceroutes spoke-LAN hosts to hub-LAN hosts three ASes
  east while a management station scrapes the hubs' new ``routing.*``
  churn MIB subtree; faults (an inter-AS link flap, a four-AS partition,
  a hub crash) must surface as ``path-blackhole`` / ``route-churn`` /
  ``agent-unreachable`` alarms with finite MTTD and zero false raises.
  The ring's exterior routes are *static* (one origination direction,
  no alternates), so an inter-AS fault here blackholes — the mesh's
  job is to see the blackhole signature, not a reroute.
* ``diamond`` — a five-hop redundant diamond (H1-G1-{G2,G3}-G4-H2)
  under plain unscoped DV, where flapping the baseline path's first
  link *does* produce a genuine reroute: the mesh must raise
  ``path-change`` with the alternate hop list, and the churn alarm must
  fire from the scraped counters alone.

Both legs differential-check every completed traceroute against
:func:`~repro.obs.routing.forwarding_path` — the data plane measured
against the control plane's belief — and both slice the
:class:`~repro.obs.routing.ConvergenceTracer` ribbon per fault, so
"reconvergence" arrives as an attributed timeline (first triggered
update, install waves, settle time) rather than a single number.

Determinism: the mesh draws its schedule jitter from the dedicated
``obs.probemesh`` stream, the campaign's reconvergence prober draws no
randomness at all, and every export is canonicalizable — same seed ⇒
byte-identical report (and adding the mesh to an existing campaign must
not move any other leg's bytes; see ``tests/test_routeobs.py``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..harness.scaletopo import SMALL_RING, RingNet, ScaleConfig
from ..harness.tables import Table
from ..harness.topology import Internet
from ..netmgmt.alarms import AgentUnreachableRule, RateRule
from ..netmgmt.campaign import ManagementPlane, format_mttd
from ..obs.routing import (
    ConvergenceTracer,
    PathProbeResponder,
    ProbeMesh,
    attach_route_ledger,
    forwarding_path,
)
from .campaign import FaultCampaign
from .faults import GatewayCrash, LinkFlap, Partition
from .report import CampaignReport, RaceReport

__all__ = ["run_routeobs_campaign", "gates", "verdict",
           "MESH_INTERVAL", "WARMUP", "RUN_UNTIL"]

#: Shared timeline (seconds of simulation).
WARMUP = 8.0            # IGP converged; mesh baselines form 8-13 s
MESH_INTERVAL = 2.5     # per-pair walk cadence (> the 1 s ICMP limiter)
RING_FLAP_AT = 16.0     # inter-AS link flap, 6 s dwell
RING_PARTITION_AT = 30.0  # west half vs east half, 6 s
RING_CRASH_AT = 40.0    # one hub, 5 s dwell
RUN_UNTIL = 62.0
DIAMOND_FLAP_AT = 16.0  # baseline-path link, 10 s dwell
DIAMOND_UNTIL = 45.0

#: Route-churn alarm: ledger events/s over this rate in an 8 s window
#: is a topology-change signature (steady-state DV installs nothing).
CHURN_RATE_BOUND = 0.25


# ----------------------------------------------------------------------
# Shared leg plumbing
# ----------------------------------------------------------------------
def _instrument(net, gateway_names) -> tuple[dict, ConvergenceTracer]:
    """Churn ledgers on every gateway + a wired convergence tracer.

    Must run *before* the :class:`ManagementPlane` is constructed — the
    plane builds every MIB at that moment, and the ``routing.*`` subtree
    only exists on nodes that already carry a ledger.
    """
    ledgers = {name: attach_route_ledger(net.gateways[name].node)
               for name in sorted(gateway_names)}
    tracer = ConvergenceTracer().wire(
        ledgers.values(),
        [net.routing[name] for name in sorted(net.routing)])
    return ledgers, tracer


def _ledger_summary(ledgers: dict) -> dict:
    totals: dict = {}
    flappers = []
    for name, ledger in sorted(ledgers.items()):
        counters = ledger.counters()
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
        if counters["churn_flaps"]:
            flappers.append((name, counters["churn_flaps"]))
    flappers.sort(key=lambda item: (-item[1], item[0]))
    return {
        "gateways": len(ledgers),
        "totals": totals,
        "top_flapping": [{"node": n, "flaps": f} for n, f in flappers[:5]],
    }


def _convergence_per_fault(tracer: ConvergenceTracer, faults) -> list[dict]:
    """Slice the causal ribbon by each fault's disruption window."""
    out = []
    for fault in faults:
        if fault.applied_at is None:
            continue
        end = fault.reconverged_at
        if end is None:
            end = (fault.cleared_at if fault.cleared_at is not None
                   else fault.applied_at) + 10.0
        record = {"kind": fault.kind, "detail": fault.describe(),
                  "window": [fault.applied_at, end]}
        record.update(tracer.attribute(fault.applied_at, end))
        record["timeline"] = tracer.window(fault.applied_at, end, limit=30)
        out.append(record)
    return out


def _snapshot_mesh(mesh: ProbeMesh) -> dict:
    """Pre-fault steady-state snapshot: every pair must have baselined
    and every completed walk must have agreed with the graph."""
    return {
        "time": mesh.sim.now,
        "pairs": len(mesh.pairs),
        "pairs_with_baseline": sum(1 for p in mesh.pairs
                                   if p.baseline is not None),
        "completed": sum(p.completed for p in mesh.pairs),
        "agreements": sum(p.agreements for p in mesh.pairs),
        "disagreements": sum(p.disagreements for p in mesh.pairs),
    }


def _leg_summary(report: CampaignReport, mesh: ProbeMesh,
                 steady: dict, goodput: Optional[int]) -> dict:
    counters = mesh.counters()
    netmgmt = report.counters.get("netmgmt", {})
    mesh_bytes = counters["mesh_bytes"]
    return {
        "pairs": counters["pairs"],
        "rounds": counters["rounds"],
        "steady": steady,
        "path_changes": counters["path_changes"],
        "blackholes": counters["blackholes"],
        "disagreements": counters["disagreements"],
        "faults": len(report.faults),
        "detected_faults": netmgmt.get("detected_faults", 0),
        "false_alarms": netmgmt.get("false_alarms", 0),
        "mttd_mean": netmgmt.get("mttd_mean"),
        "mttd_max": netmgmt.get("mttd_max"),
        "mesh_bytes": mesh_bytes,
        "goodput_bytes": goodput,
        "mesh_overhead": (mesh_bytes / goodput if goodput else None),
    }


# ----------------------------------------------------------------------
# Leg 1: the static-exterior ring (blackhole signatures)
# ----------------------------------------------------------------------
def _run_ring_leg(seed: int, size: str) -> tuple[CampaignReport, dict]:
    cfg = ScaleConfig(seed=seed)
    if size == "small":
        cfg = replace(cfg, **SMALL_RING)
    net = RingNet(cfg)
    n = cfg.n_as

    ledgers, tracer = _instrument(net, net.gateways)

    # Probe responders on every hub LAN's first host (the mesh targets
    # live *inside* the /16 aggregates; interior p2p addresses do not).
    for j in range(n):
        PathProbeResponder(net.hosts[f"A{j}G0H0"])

    # Management station on AS0's hub LAN (a host the mesh does not
    # use); scrape set scoped to hubs + first spokes, internet-style.
    # Targets are pinned to their LAN addresses — the only ones the
    # /16 aggregates make routable from another AS.
    station = f"A0G0H{cfg.hosts_per_lan - 1}"
    targets = {}
    for i in range(n):
        hub = net.gateways[f"A{i}G0"].node
        spoke = net.gateways[f"A{i}G1"].node
        targets[f"A{i}G0"] = hub.interface_by_name(f"A{i}G0.lan0").address
        targets[f"A{i}G1"] = spoke.interface_by_name(f"A{i}G1.lan1").address
    plane = ManagementPlane(
        net, station=station, targets=targets,
        rules=[AgentUnreachableRule(threshold=2, hold_down=3.0),
               RateRule("route-churn", "routing.churn_events", ">",
                        CHURN_RATE_BOUND, window=8.0, hold_down=4.0)])

    # The mesh: spoke-LAN observers probing hub-LAN hosts three ASes
    # east — every walk crosses the static exterior seam.
    reach = min(3, n - 1)
    pairs = []
    for i in range(n):
        j = (i + reach) % n
        pairs.append((net.hosts[f"A{i}G1H1"], cfg.lan_host_address(j, 0, 0),
                      f"A{i}G1H1->A{j}G0H0"))
    mesh = ProbeMesh(net, pairs, rng=net.streams.stream("obs.probemesh"),
                     bus=plane.bus, interval=MESH_INTERVAL, start_at=WARMUP)

    faults = [
        LinkFlap(net.inter_links[0], RING_FLAP_AT, 6.0),
        Partition([name for i in range(n // 2)
                   for name in net.as_members(i)],
                  RING_PARTITION_AT, 6.0),
        # Crash the *antipode* hub (offset n/2): with the tie-east ring
        # policy it is the one AS no other scrape target's forward or
        # reply path transits, so the blackhole it causes is exactly its
        # own graph-severed star.  Crashing any transit hub instead
        # blackholes ASes the topology graph still shows as connected —
        # the static-exterior survivability gap DESIGN.md §16 discusses
        # — and the matcher scores graph truth, so those raises would
        # count (correctly, and unfixably here) as false alarms.
        GatewayCrash(f"A{n // 2}G0", RING_CRASH_AT, 5.0),
    ]
    campaign = FaultCampaign(
        net, faults, monitors=[],
        targets=[cfg.lan_host_address(j, 0, 0) for j in range(n)],
        name=f"routeobs-ring[seed={seed}]")

    # Converge the IGP before the station starts scraping — a collector
    # racing initial convergence reports unreachable agents that are
    # merely not-yet-routable, which would be false alarms by our own
    # scoring.  An operator enrolls a network, not a booting one.
    net.sim.run(until=WARMUP)
    steady: dict = {}
    net.sim.call_at(RING_FLAP_AT - 0.5,
                    lambda: steady.update(_snapshot_mesh(mesh)),
                    label="routeobs:steady")
    plane.start()
    mesh.start()
    report = campaign.run(until=RUN_UNTIL)
    plane.stop()

    goodput = sum(sink.bytes for sink in net.sinks.values())
    report.counters["netmgmt"] = plane.counters(campaign.faults)
    report.counters["mesh"] = mesh.to_dict()
    report.counters["convergence"] = _convergence_per_fault(
        tracer, campaign.faults)
    report.counters["ledgers"] = _ledger_summary(ledgers)
    report.counters["goodput_bytes"] = goodput
    return report, _leg_summary(report, mesh, steady, goodput)


# ----------------------------------------------------------------------
# Leg 2: the redundant diamond (genuine reroute)
# ----------------------------------------------------------------------
def build_diamond(seed: int) -> Internet:
    """H1-G1-{G2 top, G3 bottom}-G4-H2 under unscoped DV: the smallest
    topology where a link fault has a live alternate to fail over to."""
    net = Internet(seed=seed)
    h1, h2 = net.host("H1"), net.host("H2")
    g1, g2, g3, g4 = (net.gateway(f"G{k}") for k in range(1, 5))
    net.connect(h1, g1)       # links[0]
    net.connect(g1, g2)       # links[1]  (top arm)
    net.connect(g1, g3)       # links[2]  (bottom arm)
    net.connect(g2, g4)       # links[3]
    net.connect(g3, g4)       # links[4]
    net.connect(g4, h2)       # links[5]
    net.start_routing(period=1.0)
    return net


def _run_diamond_leg(seed: int) -> tuple[CampaignReport, dict]:
    net = build_diamond(seed)
    ledgers, tracer = _instrument(net, net.gateways)

    h1, h2 = net.hosts["H1"], net.hosts["H2"]
    PathProbeResponder(h1)
    PathProbeResponder(h2)
    plane = ManagementPlane(
        net, station="H1", targets=[f"G{k}" for k in range(1, 5)],
        rules=[AgentUnreachableRule(threshold=2, hold_down=3.0),
               RateRule("route-churn", "routing.churn_events", ">",
                        CHURN_RATE_BOUND, window=8.0, hold_down=4.0)])
    mesh = ProbeMesh(net, [(h1, h2.node.address, "H1->H2"),
                           (h2, h1.node.address, "H2->H1")],
                     rng=net.streams.stream("obs.probemesh"),
                     bus=plane.bus, interval=MESH_INTERVAL, start_at=WARMUP)

    # Converge, then flap whichever arm the baseline actually rides —
    # DV breaks the G2/G3 tie by advert arrival order, which is seeded.
    net.sim.run(until=WARMUP - 1.0)
    baseline = forwarding_path(net.address_owners(), h1.node,
                               h2.node.address) or []
    flap_link = net.links[1] if "G2" in baseline else net.links[2]
    campaign = FaultCampaign(
        net, [LinkFlap(flap_link, DIAMOND_FLAP_AT, 10.0)], monitors=[],
        name=f"routeobs-diamond[seed={seed}]")

    steady: dict = {}
    net.sim.call_at(DIAMOND_FLAP_AT - 0.5,
                    lambda: steady.update(_snapshot_mesh(mesh)),
                    label="routeobs:steady")
    plane.start()
    mesh.start()
    report = campaign.run(until=DIAMOND_UNTIL)
    plane.stop()

    report.counters["netmgmt"] = plane.counters(campaign.faults)
    report.counters["mesh"] = mesh.to_dict()
    report.counters["convergence"] = _convergence_per_fault(
        tracer, campaign.faults)
    report.counters["ledgers"] = _ledger_summary(ledgers)
    report.counters["steady_path"] = list(baseline)
    return report, _leg_summary(report, mesh, steady, None)


# ----------------------------------------------------------------------
# The combined report
# ----------------------------------------------------------------------
def leg_table(report: RaceReport) -> Table:
    table = Table(
        f"route observability '{report.name}': what the mesh saw",
        ["leg", "pairs", "walks", "blackholes", "path changes",
         "steady agree/disagree", "detected", "false", "MTTD mean/max"],
        note="steady = pre-fault differential check of traceroute "
             "vs graph-computed forwarding path")
    for name, s in report.scorecard.items():
        steady = s["steady"]
        table.add(
            name, s["pairs"], s["rounds"],
            s["blackholes"], s["path_changes"],
            f"{steady.get('agreements', 0)}/"
            f"{steady.get('disagreements', 0)}",
            f"{s['detected_faults']}/{s['faults']}",
            s["false_alarms"],
            f"{format_mttd(s['mttd_mean'])}/{format_mttd(s['mttd_max'])}",
        )
    return table


def mttd_table(report: RaceReport) -> Table:
    table = Table(
        "path-change detection per fault (E15)",
        ["leg", "fault", "applied", "MTTD", "alerts",
         "reconverged", "triggers", "installs"],
        note="MTTD from the station's alert bus; convergence columns "
             "from the causal ribbon over the fault window")
    for name, leg in report.legs.items():
        per_fault = leg.counters.get("netmgmt", {}).get("per_fault", [])
        ribbon = {r["detail"]: r
                  for r in leg.counters.get("convergence", [])}
        for record in per_fault:
            conv = ribbon.get(record["detail"], {})
            recon = "-"
            for fault in leg.faults:
                if (fault.describe() == record["detail"]
                        and fault.reconvergence_time is not None):
                    recon = f"{fault.reconvergence_time:.2f}s"
            table.add(name, record["kind"],
                      f"{record['applied_at']:.0f}s",
                      format_mttd(record["mttd"]),
                      record["alerts_matched"], recon,
                      conv.get("triggered_updates", 0),
                      conv.get("installs", 0))
    return table


def tables(report: RaceReport) -> list[Table]:
    return [leg_table(report), mttd_table(report)]


def run_routeobs_campaign(seed: int, *, size: str = "full") -> RaceReport:
    """Both legs under one seed: blackhole signatures on the static
    ring, a genuine reroute on the redundant diamond."""
    legs: dict = {}
    scorecard: dict = {}
    legs["ring"], scorecard["ring"] = _run_ring_leg(seed, size)
    legs["diamond"], scorecard["diamond"] = _run_diamond_leg(seed)
    return RaceReport(f"routeobs[seed={seed}]", legs, scorecard, tables)


def gates(report: RaceReport, size: str) -> list[str]:
    """The detection verdicts beyond ok/reconverged.

    1. Steady state: every probe pair baselined before the first fault
       and every completed traceroute agreed with the graph-computed
       forwarding path (zero differential disagreements).
    2. Every fault on both legs detected with finite MTTD, zero false
       alarms at this seed.
    3. The ring leg observed the blackhole signature (static exterior:
       inter-AS faults cannot reroute) and the diamond leg observed a
       genuine ``path-change`` reroute.
    4. Mesh overhead on the ring leg stayed under 5% of goodput.
    """
    card = report.scorecard
    failures = []
    for leg, s in card.items():
        steady = s["steady"]
        if steady.get("pairs_with_baseline") != steady.get("pairs"):
            failures.append(f"{leg}: only {steady.get('pairs_with_baseline')}"
                            f"/{steady.get('pairs')} probe pairs baselined "
                            f"before the first fault")
        if steady.get("disagreements", 1) != 0:
            failures.append(f"{leg}: {steady.get('disagreements')} steady-"
                            f"state traceroute-vs-graph disagreements "
                            f"(need 0)")
        if not steady.get("agreements"):
            failures.append(f"{leg}: no steady-state differential checks "
                            f"completed")
        if s["detected_faults"] != s["faults"]:
            failures.append(f"{leg}: only {s['detected_faults']}/"
                            f"{s['faults']} faults detected")
        if s["mttd_max"] is None:
            failures.append(f"{leg}: no finite MTTD")
        if s["false_alarms"]:
            failures.append(f"{leg}: {s['false_alarms']} false alarm(s)")
    if card["ring"]["blackholes"] < 1:
        failures.append("ring: no path-blackhole observed (the static-"
                        "exterior signature)")
    if card["diamond"]["path_changes"] < 1:
        failures.append("diamond: no path-change observed (the reroute "
                        "never happened)")
    overhead = card["ring"]["mesh_overhead"]
    if overhead is None or overhead > 0.05:
        failures.append(f"ring: probe-mesh overhead {overhead} of goodput "
                        f"(need <= 5%)")
    return failures


def verdict(report: RaceReport) -> str:
    ring, diamond = report.scorecard["ring"], report.scorecard["diamond"]
    return (f"{ring['faults'] + diamond['faults']} faults all detected "
            f"(MTTD ring {format_mttd(ring['mttd_mean'])} / diamond "
            f"{format_mttd(diamond['mttd_mean'])}, zero false alarms), "
            f"{ring['steady']['agreements']}+"
            f"{diamond['steady']['agreements']} steady path checks agreed, "
            f"{ring['blackholes']} blackhole walks + "
            f"{diamond['path_changes']} reroute walks observed, mesh "
            f"overhead {100 * ring['mesh_overhead']:.1f}% of goodput")
