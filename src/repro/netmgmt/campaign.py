"""Wire the management plane into a topology and a chaos campaign.

:class:`ManagementPlane` is the one-call assembly: agents on every node,
a collector + TSDB + alarm engine on a chosen station host, and the
post-run accounting a chaos campaign needs — per-fault **MTTD** (mean
time to detect: fault injection to first *correct* alarm) and
**false-alarm** counts.  Everything it computes is sim-deterministic, so
folding its counters into a :class:`~repro.chaos.report.CampaignReport`
preserves the same-seed ⇒ byte-identical guarantee.

What counts as a *correct* alarm is per fault kind:

* ``gateway-crash`` / ``host-restart`` — an unreachable alarm naming
  exactly the crashed node;
* ``partition`` — an unreachable alarm naming any node on the far side
  of the cut from the station (the near side stays scrape-able, and an
  alarm about it would be a false alarm);
* ``link-flap`` — any unreachable alarm during the window (whether a
  flap severs anyone depends on redundancy; a flap on a redundant link
  that detects nothing is correct silence, not a miss).

Every *raise* that matches no fault's window-and-matcher is a false
alarm — the quantity an operator tunes hold-downs to minimize without
giving up detection latency.
"""

from __future__ import annotations

from typing import Optional, Union

from ..harness.tables import Table
from ..metrics.export import stats_dict
from ..metrics.stats import Summary
from .agent import MgmtAgent, install_agents
from .alarms import AgentUnreachableRule, AlarmEngine, AlertBus, Rule
from .collector import Collector

__all__ = ["ManagementPlane", "format_mttd"]


def format_mttd(value: Optional[float]) -> str:
    """An MTTD for humans: ``-`` when nothing was detected."""
    return f"{value:.2f}s" if value is not None else "-"


class ManagementPlane:
    """Agents everywhere, one collector, one alarm engine, one report.

    Parameters
    ----------
    net:
        A built :class:`~repro.harness.topology.Internet`.
    station:
        Host name (or Host) the monitoring station runs on.  The station
        scrapes every *other* node in-band — its own vantage point is
        exactly as partial as the network lets it be.
    interval, timeout:
        Scrape cadence and per-request timeout.
    unreachable_after:
        Consecutive failed scrapes before ``agent-unreachable`` raises.
    hold_down:
        Seconds a condition must stay healthy before its alarm clears
        (default: three scrape intervals).
    rules:
        Replaces the default rule set (``AgentUnreachableRule``) when
        given; use :meth:`add_rule` to extend instead.
    targets:
        Node names to scrape (default: every node except the station).
        Internet-scale topologies scope this to the transit hubs — a
        512-node full scrape would cost more management traffic than
        the bottlenecks it is watching.  A ``{name: Address}`` dict
        additionally pins the address each request goes to: on
        aggregate-routed topologies a multi-homed gateway's first
        interface is often an interior point-to-point address no
        exterior route covers, and an operator would enroll the box by
        its routable (LAN) address.
    """

    def __init__(self, net, *, station: Union[str, object],
                 interval: float = 1.0, timeout: float = 0.5,
                 unreachable_after: int = 2,
                 hold_down: Optional[float] = None,
                 community: str = "public",
                 max_response_bytes: int = 1024,
                 rules: Optional[list[Rule]] = None,
                 targets: Union[list[str], dict, None] = None):
        self.net = net
        self.sim = net.sim
        if isinstance(station, str):
            station = net.hosts[station]
        self.station = station
        self.station_name = station.node.name
        hold = hold_down if hold_down is not None else 3.0 * interval
        #: Agents on every node (station included: it manages itself too,
        #: even though it is not in its own scrape set).
        self.agents: dict[str, MgmtAgent] = install_agents(
            net, community=community, max_response_bytes=max_response_bytes)
        nodes = net.nodes()
        pinned = dict(targets) if isinstance(targets, dict) else {}
        if targets is not None:
            missing = [name for name in targets if name not in nodes]
            if missing:
                raise ValueError(f"unknown scrape targets: {missing}")
            target_names = sorted(set(targets) - {self.station_name})
        else:
            target_names = [name for name in sorted(nodes)
                            if name != self.station_name]
        # Requests go to the pinned address when given (first in the
        # list); replies are accepted from any of the node's addresses.
        targets = {
            name: ([pinned[name]] + [a for a in nodes[name].addresses
                                     if a != pinned[name]]
                   if name in pinned else nodes[name].addresses)
            for name in target_names}
        self.bus = AlertBus()
        self.collector = Collector(
            station, targets, interval=interval, timeout=timeout,
            community=community,
            rng=net.streams.stream("netmgmt.collector"),
            on_scrape=self._scrape_finished)
        self.tsdb = self.collector.tsdb
        default_rules = [AgentUnreachableRule(threshold=unreachable_after,
                                              hold_down=hold)]
        self.engine = AlarmEngine(self.collector, self.bus,
                                  rules=rules if rules is not None
                                  else default_rules)

    def _scrape_finished(self, target: str, now: float, ok: bool) -> None:
        self.engine.on_scrape(target, now, ok)

    def add_rule(self, rule: Rule) -> "ManagementPlane":
        self.engine.add_rule(rule)
        return self

    def start(self) -> "ManagementPlane":
        self.collector.start()
        return self

    def stop(self) -> None:
        self.collector.stop()

    # ------------------------------------------------------------------
    # MTTD accounting
    # ------------------------------------------------------------------
    def _severed_from_station(self, *, without_links=(),
                              without_nodes=()) -> set:
        """Node names unreachable from the station on the topology graph
        with the given links/nodes removed — the ground truth an alarm
        about a fault must agree with.  (A cut isolates not just the far
        gateways but every host behind them; a crashed transit gateway
        severs everything that routed through it.)"""
        removed_links = {id(link) for link in without_links}
        removed_nodes = set(without_nodes)
        adjacency: dict[str, set] = {name: set() for name in self.net.nodes()}
        for link in self.net.links:
            if id(link) in removed_links:
                continue
            a, b = self.net.link_endpoints(link)
            if a in removed_nodes or b in removed_nodes:
                continue
            adjacency[a].add(b)
            adjacency[b].add(a)
        for bus in self.net.lans.values():
            members = [iface.node.name
                       for iface in bus._interfaces.values()
                       if iface.node is not None
                       and iface.node.name not in removed_nodes]
            for a in members:
                adjacency[a].update(m for m in members if m != a)
        seen = {self.station_name}
        frontier = [self.station_name]
        while frontier:
            here = frontier.pop()
            for neighbor in adjacency.get(here, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return set(self.net.nodes()) - seen - removed_nodes | (
            removed_nodes - {self.station_name})

    def expected_targets(self, fault) -> Optional[set]:
        """Node names a correct alarm for ``fault`` would name, or None
        when any target is acceptable."""
        if fault.kind in ("gateway-crash", "host-restart"):
            severed = self._severed_from_station(without_nodes={fault.name})
            return severed - {self.station_name}
        if fault.kind == "partition":
            cut = getattr(fault, "_cut", None)
            if cut:
                severed = self._severed_from_station(without_links=cut)
            else:   # not applied yet: fall back to the declared group
                group = set(fault.group)
                everyone = set(self.net.nodes())
                severed = (everyone - group if self.station_name in group
                           else group)
            return severed - {self.station_name}
        if fault.kind == "link-flap":
            link = getattr(fault, "_resolved", None)
            if link is not None:
                severed = self._severed_from_station(without_links=[link])
                if severed:
                    return severed - {self.station_name}
            return None     # redundant link (or unresolved): any target
        if fault.kind == "byzantine-gateway":
            victims = set(getattr(fault, "victims", ()) or ())
            return (victims - {self.station_name}) or None
        return None

    def _matches(self, fault, alert) -> bool:
        if alert.state != "raise":
            return False
        if alert.rule == "flow-state-lost":
            # Soft-state loss is the management-plane signature of a
            # gateway crash: the flows MIB's state_losses counter jumps
            # when the reborn gateway is scraped again.  A raise naming
            # the crashed gateway is a correct detection, not noise.
            return (getattr(fault, "kind", "") == "gateway-crash"
                    and alert.target == getattr(fault, "name", None))
        if alert.rule == "congestion-collapse":
            # A duplicate-byte surge in a transit hub's collapse MIB is
            # the RFC-896 signature.  The storm congests every hub the
            # waste transits, so any hub raising while a
            # misbehaving-hosts fault is in force is a correct
            # detection, not noise.
            return getattr(fault, "kind", "") == "misbehaving-hosts"
        if getattr(fault, "kind", "") == "byzantine-gateway":
            # A lying gateway betrays itself through the *victims'* golden
            # signals.  Any byzantine-signature rule naming a victim during
            # the window is a correct detection, and so is an unreachable
            # alarm — a transit gateway corrupting or delaying scrape
            # traffic makes the far side unscrapeable, which is a symptom
            # of the lie, not noise.  Cross-behavior signatures (a replay
            # burst also ticking retransmit counters, say) count too.
            if not (alert.rule.startswith("byz-")
                    or alert.rule in ("agent-unreachable",
                                      "ping-unreachable")):
                return False
            expected = self.expected_targets(fault)
            return expected is None or alert.target in expected
        if alert.rule in ("path-change", "path-blackhole", "route-churn"):
            # Path observations (probe-mesh deviations, churn-rate bursts
            # in the routing MIB) are topology-change signatures: any
            # raise while a link/node fault is rewriting the forwarding
            # graph is a correct detection.  No target check — a flapped
            # link reroutes (or blackholes) *transit* pairs and churns
            # tables well beyond the graph-severed set.
            return getattr(fault, "kind", "") in (
                "link-flap", "partition", "gateway-crash")
        if alert.rule not in ("agent-unreachable", "ping-unreachable"):
            return False
        expected = self.expected_targets(fault)
        return expected is None or alert.target in expected

    def detection_records(self, faults, *, grace: float = 5.0
                          ) -> tuple[list[dict], list]:
        """Per-fault detection outcomes plus the unmatched (false) raises.

        A raise counts for a fault when it lands in ``[applied_at,
        cleared_at + grace]`` *and* names an expected target — ``grace``
        covers detections that complete just after a short fault clears
        (the scrapes that died were lost *during* the window).
        """
        raises = self.bus.raises()
        matched: set[int] = set()
        records: list[dict] = []
        for fault in faults:
            if fault.applied_at is None:
                continue
            end = (fault.cleared_at if fault.cleared_at is not None
                   else float("inf"))
            end += grace
            first, count = None, 0
            for index, alert in enumerate(raises):
                if (fault.applied_at <= alert.time <= end
                        and self._matches(fault, alert)):
                    matched.add(index)
                    count += 1
                    if first is None or alert.time < first:
                        first = alert.time
            records.append({
                "kind": fault.kind,
                "detail": fault.describe(),
                "applied_at": fault.applied_at,
                "cleared_at": fault.cleared_at,
                "detected": first is not None,
                "detected_at": first,
                "mttd": (first - fault.applied_at
                         if first is not None else None),
                "alerts_matched": count,
            })
        false_alarms = [alert for index, alert in enumerate(raises)
                        if index not in matched]
        return records, false_alarms

    def counters(self, faults=None, *, grace: float = 5.0) -> dict:
        """The canonicalizable accounting block a campaign report embeds
        under ``counters["netmgmt"]`` (sim-deterministic throughout)."""
        out = {
            "station": self.station_name,
            "collector": stats_dict(self.collector.stats),
            "tsdb": self.tsdb.counters(),
            "alarms": self.engine.counters(),
            "targets": self.collector.target_health(),
        }
        if faults is not None:
            records, false_alarms = self.detection_records(faults,
                                                           grace=grace)
            mttds = [r["mttd"] for r in records if r["mttd"] is not None]
            summary = Summary.of(mttds)
            out["per_fault"] = records
            out["false_alarms"] = len(false_alarms)
            out["detected_faults"] = sum(1 for r in records if r["detected"])
            # No detection has no MTTD: None, not Summary.of([])'s 0.0,
            # which would read as "detected instantly".
            out["mttd_mean"] = summary.mean if mttds else None
            out["mttd_max"] = summary.maximum if mttds else None
        return out

    def snapshot(self) -> dict:
        """Full station state for the CI artifact: target health, the
        alert transition log, counters, and every series' latest point."""
        now = self.sim.now
        return {
            "time": now,
            "station": self.station_name,
            "targets": self.collector.target_health(now),
            "alerts": self.bus.export(),
            "counters": self.counters(),
            "latest": self.tsdb.snapshot_latest(now),
        }

    # ------------------------------------------------------------------
    # Operator console tables
    # ------------------------------------------------------------------
    def node_health_table(self) -> Table:
        table = Table(
            f"node health (station {self.station_name})",
            ["node", "state", "seq", "ok", "lost", "age (s)", "alarms"])
        now = self.sim.now
        health = self.collector.target_health(now)
        active = {}
        for alert in self.bus.active():
            active[alert.target] = active.get(alert.target, 0) + 1
        for name, entry in health.items():
            state = "UP" if entry["up"] else (
                "?" if entry["seq"] == 0 else "DOWN")
            age = "-" if entry["age"] is None else f"{entry['age']:.2f}"
            table.add(name, state, entry["seq"], entry["scrapes_ok"],
                      entry["scrapes_bad"], age, active.get(name, 0))
        return table

    def link_utilization_table(self, *, window: float = 10.0) -> Table:
        """Per-interface send rate vs configured bandwidth, from the
        scraped ``if.*`` counters (stale interfaces render ``stale``)."""
        table = Table(
            "link utilization (scraped, last %.0fs)" % window,
            ["node", "iface", "tx bytes/s", "bandwidth", "util %"])
        now = self.sim.now
        for name in sorted(self.collector.targets):
            prefix = f"{name}.if."
            ifaces = sorted({series[len(prefix):].rsplit(".", 1)[0]
                             for series in self.tsdb.names(prefix)})
            for iface in ifaces:
                tx_series = f"{prefix}{iface}.bytes_sent"
                rate = self.tsdb.rate(tx_series, now, window)
                bandwidth = self.tsdb.latest(f"{prefix}{iface}.bandwidth_bps")
                if rate is None or self.tsdb.stale(tx_series, now):
                    table.add(name, iface, "stale", bandwidth or "-", "-")
                    continue
                if bandwidth:
                    util = 100.0 * (rate * 8.0) / bandwidth
                    table.add(name, iface, rate, bandwidth, f"{util:.2f}")
                else:
                    table.add(name, iface, rate, "-", "-")
        return table

    def top_talkers_table(self, *, window: float = 10.0,
                          limit: int = 10) -> Table:
        """Nodes ranked by origination byte rate (what they *say*), with
        forwarding rate alongside (what they carry for others)."""
        table = Table(
            "top talkers (scraped, last %.0fs)" % window,
            ["node", "originated bytes/s", "forwarded bytes/s"])
        now = self.sim.now
        rows = []
        for name in sorted(self.collector.targets):
            originated = self.tsdb.rate(f"{name}.ip.bytes_originated",
                                        now, window)
            forwarded = self.tsdb.rate(f"{name}.ip.bytes_forwarded",
                                       now, window)
            if originated is None and forwarded is None:
                continue
            rows.append((originated or 0.0, forwarded or 0.0, name))
        rows.sort(key=lambda r: (-r[0], -r[1], r[2]))
        for originated, forwarded, name in rows[:limit]:
            table.add(name, originated, forwarded)
        return table

    def alert_table(self) -> Table:
        table = Table("alert log (raise/clear transitions)",
                      ["time", "state", "severity", "key", "message"])
        for alert in self.bus.log:
            table.add(f"{alert.time:.3f}", alert.state.upper(),
                      alert.severity, alert.key, alert.message)
        return table

    def render(self) -> str:
        return "\n\n".join([
            self.node_health_table().render(),
            self.link_utilization_table().render(),
            self.top_talkers_table().render(),
            self.alert_table().render(),
        ])
