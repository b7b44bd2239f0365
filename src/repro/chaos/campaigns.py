"""The campaign registry: every experiment behind one four-part contract.

A campaign is

* ``run(seed, size) -> report`` — one :class:`~repro.chaos.report.CampaignReport`
  (a single leg) or one :class:`~repro.chaos.report.RaceReport` (named legs
  plus a scorecard);
* ``gates(report, size) -> list[str]`` — the campaign's own failures, empty
  when it passes.  The two standing gates (zero invariant violations, every
  cleared fault reconverged) are not repeated per campaign:
  :func:`run_and_gate` applies them to all;
* ``verdict(report) -> str`` — the one ``OK:`` line of a passing run;
* ``out`` — the default report file name;

plus the ``sizes`` it accepts.  The four parts live beside the campaign's
own code (``flows.py``, ``collapse.py``, ``routeobs.py``, ``restart.py``,
``adversary/campaign.py``; the three AS-chain campaigns are small enough to
live here) and :data:`CAMPAIGNS` lists them, so ``python -m repro.chaos``
and CI drive all eight the same way and a ninth is one more entry.

Legs are deliberately *not* wrapped in a scenario record: what they share
is :class:`~repro.chaos.campaign.FaultCampaign`, which already is the
kernel.  ``observed``'s report carries one ``spans_export(path)`` callable:
its hop spans belong next to the report (``obs-spans.jsonl``), not inside.
"""

from __future__ import annotations

import pathlib
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..adversary import campaign as adversary
from ..harness.presets import build_as_chain
from ..netmgmt.campaign import ManagementPlane, format_mttd
from ..sim.trace import Tracer
from . import collapse, flows, restart, routeobs
from .random_chaos import RandomChaos
from .report import CampaignReport, RaceReport

__all__ = ["Campaign", "CAMPAIGNS", "DEFAULT_CAMPAIGN", "SIZES",
           "run_and_gate", "build_default_net"]

Report = Union[CampaignReport, RaceReport]

SIZES = ("full", "small")
DEFAULT_CAMPAIGN = "random"

#: Fault budgets of the AS-chain campaigns (what CI has always passed).
CHAOS_BUDGET = 6
MANAGED_BUDGET = 4

#: The well-known sink port ``managed``'s background traffic lands on.
TRAFFIC_PORT = 4000

#: Fault kinds ``managed`` insists on detecting: long-dwell crashes and
#: partitions are unambiguously detectable, so missing one is a bug.
GATED_KINDS = frozenset({"gateway-crash", "host-restart", "partition"})


@dataclass(frozen=True)
class Campaign:
    run: Callable[[int, str], Report]
    gates: Callable[[Report, str], list[str]]
    verdict: Callable[[Report], str]
    out: str
    sizes: tuple[str, ...] = ("full",)


# ----------------------------------------------------------------------
# The three campaigns on the AS-chain preset
# ----------------------------------------------------------------------
def build_default_net(seed: int):
    """The two-tier AS-chain preset (3 ASes), converged and traced."""
    topo = build_as_chain(3, seed=seed)
    # Swap in a real tracer so violations carry post-failure excerpts.
    if len(topo.net.tracer) == 0 and not topo.net.tracer.enabled:
        topo.net.tracer = Tracer(capacity=50_000)
    return topo.net


def _no_gates(report: Report, size: str) -> list[str]:
    return []


def _smoke_campaign(net, name: str):
    chaos = RandomChaos(net, budget=CHAOS_BUDGET, rate=0.25,
                        start=net.sim.now + 2.0)
    return chaos.campaign(name=name)


def run_random(seed: int, size: str) -> CampaignReport:
    """Seeded random faults under the full invariant-monitor suite."""
    return _smoke_campaign(build_default_net(seed),
                           f"smoke[seed={seed}]").run()


def random_verdict(report: CampaignReport) -> str:
    return (f"{len(report.faults)} faults, zero invariant violations, "
            f"worst recovery {report.reconvergence_summary().maximum:.3f}s")


def run_observed(seed: int, size: str) -> CampaignReport:
    """``random`` with the observability layer installed: violations carry
    packet journeys, the report embeds the metrics snapshot, and every
    retained hop span is exported next to the report."""
    net = build_default_net(seed)
    obs = net.observe()
    report = _smoke_campaign(net, f"obs[seed={seed}]").run()
    report.spans_export = obs.spans.export_jsonl

    if obs.profiler is not None:
        print(obs.profiler.table().render())
        print()
    print(obs.registry.table(limit=20).render())
    print()
    # Control-plane attribution: node.send() counts every labeled origin
    # (routing updates, path probes) that used to ride unattributed.
    control = sorted((labels["kind"], count) for labels, count
                     in obs.registry.counters("control_plane_origins"))
    if control:
        print("== control-plane traffic (labeled originations) ==")
        for kind, count in control:
            print(f"  {kind:<14} {count}")
        print()
    ids = obs.spans.trace_ids()
    if ids:
        longest = max(ids, key=lambda tid: len(obs.journey(tid)))
        lines = obs.journey_lines(longest)
        print(f"== sample journey: trace {longest} ({len(lines)} spans) ==")
        for line in lines:
            print(f"  {line}")
        print()
    health = obs.spans.counters()
    print(f"{health['spans_recorded']} spans over "
          f"{obs.trace_ids_allocated} traces "
          f"({health['traces_held']} retained, "
          f"{health['traces_evicted']} evicted)")
    return report


def observed_verdict(report: CampaignReport) -> str:
    return (f"{len(report.faults)} faults explained, "
            f"zero invariant violations")


def _start_traffic(net) -> None:
    """Each host streams small datagrams to the next host around the
    ring — the data traffic management competes with (and measures)."""
    interval, payload = 0.2, bytes(256)
    names = sorted(net.hosts)
    for name in names:
        net.hosts[name].udp.bind(TRAFFIC_PORT, lambda *_args: None)
    for index, name in enumerate(names):
        peer = names[(index + 1) % len(names)]
        sock = net.hosts[name].udp.bind(0)
        dst = net.hosts[peer].node.address

        def tick(sock=sock, dst=dst, name=name):
            if not sock.closed and sock._stack.node.up:
                sock.sendto(payload, dst, TRAFFIC_PORT)
            net.sim.schedule(interval, tick, label=f"traffic.{name}")

        net.sim.schedule(interval, tick, label=f"traffic.{name}")


def run_managed(seed: int, size: str) -> CampaignReport:
    """A managed internet under seeded chaos: agents on every node, a
    station on ``H1`` scraping them in-band over background traffic.
    The report embeds the per-fault MTTD accounting and the station's
    final state; the operator console is printed."""
    net = build_default_net(seed)
    net.observe()
    plane = ManagementPlane(net, station="H1", interval=1.0, timeout=0.5,
                            unreachable_after=2)
    _start_traffic(net)
    plane.start()
    # Long-dwell faults: every crash/partition outlives the detection
    # threshold (2 scrapes), so an undetected one is an alarm-path bug.
    chaos = RandomChaos(net, budget=MANAGED_BUDGET, rate=0.15,
                        start=net.sim.now + 3.0, dwell=(4.0, 8.0))
    campaign = chaos.campaign(name=f"netmgmt[seed={seed}]")
    report = campaign.run()
    mgmt = plane.counters(campaign.faults)
    report.counters["netmgmt"] = mgmt
    report.counters["station"] = plane.snapshot()

    print(plane.render())
    print()
    for record in mgmt["per_fault"]:
        shown = ("not detected" if not record["detected"]
                 else f"MTTD {record['mttd']:.3f}s")
        print(f"  {record['kind']:14s} {record['detail']:42s} {shown}")
    print(f"  false alarms: {mgmt['false_alarms']}")
    return report


def managed_gates(report: CampaignReport, size: str) -> list[str]:
    return [f"{r['kind']} ({r['detail']}) never raised a correct alarm"
            for r in report.counters["netmgmt"]["per_fault"]
            if r["kind"] in GATED_KINDS and not r["detected"]]


def managed_verdict(report: CampaignReport) -> str:
    mgmt = report.counters["netmgmt"]
    return (f"{mgmt['detected_faults']}/{len(report.faults)} fault(s) "
            f"detected, mean MTTD {format_mttd(mgmt['mttd_mean'])}, "
            f"{mgmt['false_alarms']} false alarm(s)")


# ----------------------------------------------------------------------
# The registry and its one driver
# ----------------------------------------------------------------------
CAMPAIGNS: dict[str, Campaign] = {
    "random": Campaign(run_random, _no_gates, random_verdict,
                       "chaos-report.json"),
    # trace=True: violations carry post-failure trace excerpts.
    "restart": Campaign(
        lambda seed, size: restart.run_restart_campaign(seed, trace=True),
        restart.gates, restart.verdict, "restart-report.json"),
    "observed": Campaign(run_observed, _no_gates, observed_verdict,
                         "obs-report.json"),
    "managed": Campaign(run_managed, managed_gates, managed_verdict,
                        "netmgmt-snapshot.json"),
    "flows": Campaign(
        lambda seed, size: flows.run_flows_campaign(seed),
        flows.gates, flows.verdict, "flows-report.json"),
    "adversary": Campaign(
        lambda seed, size: adversary.run_adversary_campaign(seed),
        adversary.gates, adversary.verdict, "adversary-report.json"),
    "collapse": Campaign(
        lambda seed, size: collapse.run_collapse_campaign(seed, size=size),
        collapse.gates, collapse.verdict, "collapse-report.json", SIZES),
    "routeobs": Campaign(
        lambda seed, size: routeobs.run_routeobs_campaign(seed, size=size),
        routeobs.gates, routeobs.verdict, "routeobs-report.json", SIZES),
}


def run_and_gate(name: str, seed: int, size: str,
                 out: Optional[str] = None) -> int:
    """Run one campaign, print and write its report, apply the standing
    gates and then the campaign's own; returns the process exit code."""
    campaign = CAMPAIGNS[name]
    report = campaign.run(seed, size)
    report.print()
    path = pathlib.Path(report.write(out or campaign.out))
    print(f"\nreport written to {path}")
    spans_export = getattr(report, "spans_export", None)
    if spans_export is not None:
        spans = spans_export(path.with_name("obs-spans.jsonl"))
        print(f"hop spans written to {spans}")

    failures = []
    if not report.ok:
        failures.append(f"{report.violation_count} invariant violation(s)")
    if not report.all_reconverged:
        failures.append("at least one fault never reconverged")
    failures.extend(campaign.gates(report, size))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"OK: {campaign.verdict(report)}")
    return 0
