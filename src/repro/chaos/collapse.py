"""The congestion-collapse campaign: 1986 replayed, defenses raced.

One seed, four legs on the identical 512-node 8-AS ecology
(:mod:`repro.ecology`), all measured over the same storm window:

* ``baseline`` — every AS conforming, drop-tail FIFO bottlenecks: what
  the internet delivers when all hosts behave.  The control every other
  leg is normalized against.
* ``fifo``     — the mixed ecology (broken + aggressive ASes turn on at
  the fault) against 1988's defenseless FIFO: the collapse.
* ``red``      — same ecology, RED early-drop/ECN-marking on the
  bottleneck queues.
* ``red_drr``  — same ecology, per-flow DRR fairness with per-flow RED:
  the paper's "flows" outlook applied as a defense.

The misbehaving populations are a chaos *fault* (``misbehaving-hosts``),
so the campaign engine's timeline and the management plane's MTTD
accounting apply unchanged; on the ``fifo`` leg a management station
watches the hubs' ``collapse.duplicate_bytes`` MIB subtree and must
detect the storm from harm-attribution counters alone.

Everything is measured inside a fixed window wholly within the fault:
goodput from sink byte deltas (only new in-order bytes count),
bottleneck utilization from link byte deltas — so "the wire was ≥95%
busy while goodput fell below 40%" is a statement about the same
twenty seconds.  Same seed ⇒ byte-identical report.
"""

from __future__ import annotations

from ..accounting import HarmAccountant  # noqa: F401  (re-export context)
from ..ecology import EcologyConfig, EcologyNet, MisbehavingHosts, build_ecology
from ..harness.scaletopo import SMALL_RING
from ..harness.tables import Table
from ..netmgmt.alarms import RateRule
from ..netmgmt.campaign import ManagementPlane
from .campaign import FaultCampaign
from .monitors import ReconvergenceMonitor, TtlExhaustionMonitor
from .report import RaceReport

__all__ = ["run_collapse_campaign", "gates", "verdict",
           "TRAFFIC_START", "STORM_AT", "STORM_DURATION", "MEASURE_WINDOW"]

#: The shared timeline (seconds of simulation).
TRAFFIC_START = 12.0          # after IGP convergence
STORM_AT = 16.0               # misbehaving populations come online
STORM_DURATION = 30.0         # storm clears at 46 s
MEASURE_WINDOW = (24.0, 44.0)  # wholly inside the storm
RUN_UNTIL = 60.0

#: FIFO-leg alarm: duplicate transit bytes/s on any hub above this rate
#: is a collapse signature (conforming loss recovery stays well under).
DUPLICATE_RATE_BOUND = 8_000.0


def _round(value: float, digits: int = 6) -> float:
    return round(float(value), digits)


class _Window:
    """Byte-counter snapshots at the measurement window's edges."""

    def __init__(self, net: EcologyNet, start: float, end: float):
        self.net = net
        self.start = start
        self.end = end
        self.at_start: dict = {}
        self.at_end: dict = {}
        net.sim.call_at(start, self._begin, label="collapse:window")
        net.sim.call_at(end, self._end, label="collapse:window")

    def _snapshot(self) -> dict:
        net = self.net
        return {
            "sink_bytes": {key: sink.bytes_received
                           for key, sink in net.sinks.items()},
            "link_bytes": {i: iface.stats.bytes_sent
                           + iface.stats.link_header_bytes
                           for i, (iface, _link) in net.bottlenecks.items()},
            "voice_sent": {i: r.meter.sent_count
                           for i, r in net.voice_receivers.items()},
            "voice_on_time": {i: r.meter.on_time_count
                              for i, r in net.voice_receivers.items()},
        }

    def _begin(self) -> None:
        self.at_start = self._snapshot()

    def _end(self) -> None:
        self.at_end = self._snapshot()

    def delta(self, table: str, key) -> int:
        return (self.at_end[table][key] - self.at_start[table][key])


def _measure(net: EcologyNet, window: _Window) -> dict:
    """The leg's scorecard: goodput, utilization, harm, voice, quench."""
    cfg = net.config
    dt = window.end - window.start

    def flow_goodput(i: int, g: int) -> float:
        sink_key = ((i + cfg.cross_reach) % cfg.n_as, g)
        return window.delta("sink_bytes", sink_key) * 8.0 / dt

    conforming = net.conforming_flow_keys()
    misbehaving = net.misbehaving_flow_keys()
    conf_bps = [flow_goodput(i, g) for i, g in conforming]
    mis_bps = [flow_goodput(i, g) for i, g in misbehaving]
    per_as: dict[str, float] = {}
    for i in range(cfg.n_as):
        per_as[str(i)] = _round(sum(
            flow_goodput(i, g) for g in range(1, cfg.flows_per_as + 1)))

    busy = {i: window.delta("link_bytes", i) * 8.0
            / (cfg.bottleneck_bandwidth * dt)
            for i in sorted(net.bottlenecks)}

    voice_sent = sum(window.delta("voice_sent", i)
                     for i in net.voice_receivers)
    voice_on_time = sum(window.delta("voice_on_time", i)
                        for i in net.voice_receivers)

    # Harm attribution (cumulative — the storm dominates the run).
    per_entity: dict[str, dict] = {}
    for i in sorted(net.harm):
        for entity, counts in net.harm[i].to_dict().items():
            agg = per_entity.setdefault(entity, {
                "forwarded_packets": 0, "forwarded_bytes": 0,
                "duplicate_bytes": 0, "open_loop_bytes": 0})
            for key, value in counts.items():
                agg[key] += value
    mis_prefixes = {f"10.{i}.0.0/16" for i in cfg.misbehaving_ases}
    dup_total = sum(e["duplicate_bytes"] for e in per_entity.values())
    dup_mis = sum(e["duplicate_bytes"] for entity, e in per_entity.items()
                  if entity in mis_prefixes)

    entry = {
        "defense": cfg.defense,
        "mixed": bool(cfg.misbehaving_ases),
        "window": [window.start, window.end],
        "flows": {"conforming": len(conforming),
                  "misbehaving": len(misbehaving)},
        "goodput_bps": {
            "aggregate": _round(sum(conf_bps) + sum(mis_bps)),
            "conforming": _round(sum(conf_bps)),
            "misbehaving": _round(sum(mis_bps)),
            "conforming_per_flow_mean": _round(
                sum(conf_bps) / len(conf_bps)) if conf_bps else 0.0,
            "per_as": per_as,
        },
        "bottleneck_busy": {
            "mean": _round(sum(busy.values()) / len(busy)),
            "min": _round(min(busy.values())),
            "per_link": {str(i): _round(u) for i, u in busy.items()},
        },
        "voice": {
            "frames_sent": voice_sent,
            "frames_on_time": voice_on_time,
            "on_time_pct": _round(100.0 * voice_on_time / voice_sent)
            if voice_sent else 0.0,
        },
        "harm": {
            "per_entity": {k: dict(sorted(v.items()))
                           for k, v in sorted(per_entity.items())},
            "duplicate_bytes_total": dup_total,
            "duplicate_bytes_misbehaving": dup_mis,
            "misbehaving_duplicate_fraction": _round(
                dup_mis / dup_total) if dup_total else 0.0,
        },
        "quench": {
            "sent": sum(q.quenches_sent for q in net.quenchers.values()),
            "drops_seen": sum(q.drops_seen for q in net.quenchers.values()),
            "suppressed": sum(
                net.internets[i].gateways[f"A{i}G0"].node.quench_suppressed
                for i in sorted(net.internets)),
        },
        "accounting": {
            "flow_records_exported": sum(
                a.records_exported for a in net.flow_accountants.values()),
            "flow_ledger_bytes": sum(
                a.ledger.total_bytes() for a in net.flow_accountants.values()),
            "open_records_after_finalize": sum(
                a.state_entries for a in net.flow_accountants.values()),
        },
    }
    if net.red_states:
        red: dict = {}
        for state in net.red_states.values():
            for key, value in state.counters().items():
                red[key] = red.get(key, 0) + value
        entry["red"] = red
    if net.schedulers:
        red = {}
        sched_drops = 0
        for sched in net.schedulers.values():
            sched_drops += sched.stats.dropped
            for key, value in sched.red_counters().items():
                red[key] = red.get(key, 0) + value
        entry["red"] = red
        entry["scheduler_drops"] = sched_drops
    return entry


def _leg_config(seed: int, defense: str, *, mixed: bool,
                size: str = "full") -> EcologyConfig:
    kwargs: dict = {}
    if size == "small":
        # The determinism-test scale: same shape, minutes cheaper.
        kwargs = dict(SMALL_RING, flows_per_as=2, voice=True)
    return EcologyConfig(
        seed=seed, defense=defense,
        broken_ases=(1, 5) if mixed and size == "full" else
        ((1,) if mixed else ()),
        aggressive_ases=(3, 7) if mixed and size == "full" else
        ((3,) if mixed else ()),
        **kwargs)


def _run_leg(seed: int, defense: str, *, mixed: bool, managed: bool,
             size: str = "full") -> tuple:
    cfg = _leg_config(seed, defense, mixed=mixed, size=size)
    net = build_ecology(cfg)
    faults = [MisbehavingHosts(STORM_AT, STORM_DURATION)] if mixed else []
    # Probe the hubs' *LAN* addresses: they sit inside the 10.i/16
    # aggregates every AS redistributes, unlike the interior p2p pool
    # (10.100+i...) a hub's primary address lives in.
    hub_targets = [net.internets[i].gateways[f"A{i}G0"].node
                   .interface_by_name(f"A{i}G0.lan0").address
                   for i in sorted(net.internets)]
    campaign = FaultCampaign(
        net, faults,
        monitors=[TtlExhaustionMonitor(), ReconvergenceMonitor()],
        targets=hub_targets,
        name=f"collapse-{'mixed' if mixed else 'baseline'}-{defense}")
    plane = None
    if managed:
        # The station sits on AS 0's hub LAN (its scrape of A0G0 never
        # crosses a bottleneck — detection must survive the collapse).
        station = f"A0G0H{cfg.hosts_per_lan - 1}"
        plane = ManagementPlane(
            net, station=station,
            targets=[f"A{i}G0" for i in sorted(net.internets)],
            rules=[RateRule("congestion-collapse",
                            "collapse.duplicate_bytes", ">",
                            DUPLICATE_RATE_BOUND,
                            window=8.0, hold_down=4.0)])
        plane.start()
    window = _Window(net, *MEASURE_WINDOW)
    report = campaign.run(until=RUN_UNTIL)
    if plane is not None:
        plane.stop()
        report.counters["netmgmt"] = plane.counters(campaign.faults)
    net.finalize_accounting()
    entry = _measure(net, window)
    report.counters["collapse"] = entry
    return report, entry


def race_table(report: RaceReport) -> Table:
    card = report.scorecard
    baseline = card["baseline"]["goodput_bps"]["aggregate"]
    table = Table(
        f"collapse race '{report.name}': defenses under the mixed ecology",
        ["leg", "goodput (kb/s)", "vs baseline", "conforming/flow",
         "busy", "voice on-time", "dup bytes (misbehaving share)"],
        note=f"measurement window {MEASURE_WINDOW[0]:.0f}-"
             f"{MEASURE_WINDOW[1]:.0f} s; storm "
             f"{STORM_AT:.0f}-{STORM_AT + STORM_DURATION:.0f} s",
    )
    for name, entry in card.items():
        goodput = entry["goodput_bps"]["aggregate"]
        harm = entry["harm"]
        table.add(
            name,
            f"{goodput / 1000:.1f}",
            f"{100.0 * goodput / baseline:.1f}%" if baseline else "-",
            f"{entry['goodput_bps']['conforming_per_flow_mean'] / 1000:.1f} kb/s",
            f"{100.0 * entry['bottleneck_busy']['mean']:.1f}%",
            f"{entry['voice']['on_time_pct']:.1f}%",
            f"{harm['duplicate_bytes_total'] // 1000} kB "
            f"({100.0 * harm['misbehaving_duplicate_fraction']:.0f}%)",
        )
    return table


def tables(report: RaceReport) -> list[Table]:
    return [race_table(report)]


def run_collapse_campaign(seed: int, *, size: str = "full") -> RaceReport:
    """Race FIFO vs RED vs RED+DRR under one seeded storm."""
    legs: dict = {}
    scorecard: dict = {}
    for name, defense, mixed in (("baseline", "fifo", False),
                                 ("fifo", "fifo", True),
                                 ("red", "red", True),
                                 ("red_drr", "red_drr", True)):
        # Only the defenseless leg carries the management station: the
        # detection claim is about seeing the collapse, not the cure.
        legs[name], scorecard[name] = _run_leg(
            seed, defense, mixed=mixed, managed=(name == "fifo"), size=size)
    return RaceReport(f"collapse[seed={seed}]", legs, scorecard, tables)


def _ratios(report: RaceReport) -> tuple[float, float]:
    """(mixed-FIFO aggregate goodput, RED+DRR conforming per-flow
    goodput), each over the all-conforming baseline."""
    card = report.scorecard
    base = card["baseline"]["goodput_bps"]
    fifo = card["fifo"]["goodput_bps"]["aggregate"]
    drr = card["red_drr"]["goodput_bps"]["conforming_per_flow_mean"]
    return (fifo / base["aggregate"] if base["aggregate"] else 1.0,
            drr / base["conforming_per_flow_mean"]
            if base["conforming_per_flow_mean"] else 0.0)


def _detections(report: RaceReport) -> list[dict]:
    netmgmt = report.legs["fifo"].counters.get("netmgmt", {})
    return [f for f in netmgmt.get("per_fault", [])
            if f.get("kind") == "misbehaving-hosts" and f.get("detected")]


def gates(report: RaceReport, size: str) -> list[str]:
    """The defense verdicts beyond ok/reconverged.

    1. At ``full`` size only (the 4-AS shape races the same machinery
       but is not deep enough to collapse): the mixed ecology on FIFO
       *collapses* — aggregate goodput under 40% of the all-conforming
       baseline while **every** bottleneck stays ≥95% busy (RFC 896's
       signature: a busy wire doing no work).
    2. RED+DRR restores conforming hosts to ≥90% of their baseline
       per-flow goodput.
    3. The harm ledger attributes the majority of duplicate transit
       bytes to the misbehaving ASes.
    4. The management plane detects the storm from the ``collapse`` MIB
       subtree.
    """
    fifo = report.scorecard["fifo"]
    goodput_ratio, fair = _ratios(report)
    failures = []
    if size == "full":
        if goodput_ratio >= 0.40:
            failures.append(f"no collapse: mixed-FIFO goodput is "
                            f"{100 * goodput_ratio:.1f}% of baseline "
                            f"(need < 40%)")
        busy = fifo["bottleneck_busy"]["min"]
        if busy < 0.95:
            failures.append(f"least-busy bottleneck only {100 * busy:.1f}% "
                            f"busy on the FIFO leg (need >= 95% for the "
                            f"collapse claim)")
    if fair < 0.90:
        failures.append(f"RED+DRR restored conforming flows to only "
                        f"{100 * fair:.1f}% of baseline (need >= 90%)")
    dup_frac = fifo["harm"]["misbehaving_duplicate_fraction"]
    if dup_frac <= 0.5:
        failures.append(f"harm ledger attributes only "
                        f"{100 * dup_frac:.1f}% of duplicate bytes to the "
                        f"misbehaving ASes (need a majority)")
    if not _detections(report):
        failures.append("management plane never detected the collapse "
                        "(no misbehaving-hosts alarm matched)")
    return failures


def verdict(report: RaceReport) -> str:
    fifo = report.scorecard["fifo"]
    goodput_ratio, fair = _ratios(report)
    # Claim a collapse only when the depth thresholds gates() checks at
    # full size actually hold; the small shape usually stays shallow.
    deep = goodput_ratio < 0.40 and fifo["bottleneck_busy"]["min"] >= 0.95
    headline = "collapse reproduced" if deep else "shallow race, no collapse"
    return (f"{headline} (goodput {100 * goodput_ratio:.1f}% of "
            f"baseline at {100 * fifo['bottleneck_busy']['mean']:.1f}% busy), "
            f"RED+DRR fair share {100 * fair:.1f}%, misbehaving ASes own "
            f"{100 * fifo['harm']['misbehaving_duplicate_fraction']:.0f}% of "
            f"duplicate bytes, MTTD {_detections(report)[0]['mttd']:.1f}s")
