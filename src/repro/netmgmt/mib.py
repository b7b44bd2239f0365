"""The read-only OID tree a management agent exposes.

A :class:`MibTree` maps dotted OID names to *providers* — zero-arg
callables evaluated at request time, so every answer reflects the live
counters (nothing is cached or fabricated; a partitioned agent simply
stops answering, and its collector-side series go stale).

:func:`build_mib` assembles the standard tree for one node from the
observation surfaces the stack already exposes — ``NodeStats``, interface
``LinkStats``, :meth:`~repro.ip.forwarding.RouteTable.counters`, the
UDP/TCP stacks — and, when a PR-4 :class:`~repro.obs.registry.MetricsRegistry`
is attached, mirrors that node's labeled counters under ``metrics.*``.
The groups, pre-SNMP flavored::

    sys.*          uptime, name, role, up
    if.<name>.*    per-interface counters, up flag, bandwidth
    ip.*           forwarding / drop / fragmentation counters
    route.*        table size, generation (churn), cache health
    tcp.*          connection table aggregates (retransmits, RTO stats)
    udp.*          datagram service counters incl. mgmt drop accounting

OIDs are ordered lexicographically; GETNEXT/BULK walk that order, which
is what makes a full remote walk possible without knowing the tree.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Optional

from ..ip.node import Node
from ..metrics.export import stats_dict

__all__ = ["MibTree", "build_mib"]

Provider = Callable[[], Any]


class MibTree:
    """A sorted, read-only OID -> provider mapping with GETNEXT order."""

    def __init__(self):
        self._providers: dict[str, Provider] = {}
        self._sorted: list[str] = []
        self._dirty = False

    # ------------------------------------------------------------------
    def add(self, oid: str, provider: Provider) -> None:
        """Register one OID.  ``provider`` is called per request."""
        if oid not in self._providers:
            self._dirty = True
        self._providers[oid] = provider

    def add_scalar(self, oid: str, value: Any) -> None:
        self.add(oid, lambda value=value: value)

    def add_stats(self, prefix: str, stats_obj: Any) -> None:
        """Enroll every scalar of a stats object (``stats_dict`` keys are
        snapshot once to name the OIDs; values are read live)."""
        for key in stats_dict(stats_obj):
            self.add(f"{prefix}.{key}",
                     lambda stats_obj=stats_obj, key=key:
                     getattr(stats_obj, key, None))

    def add_dict_provider(self, prefix: str, fn: Callable[[], dict],
                          keys: list[str]) -> None:
        """Enroll named keys of a dict-returning provider (one call per
        request per OID; cheap for the counter dicts used here)."""
        for key in keys:
            self.add(f"{prefix}.{key}",
                     lambda fn=fn, key=key: fn().get(key))

    # ------------------------------------------------------------------
    def _order(self) -> list[str]:
        if self._dirty:
            self._sorted = sorted(self._providers)
            self._dirty = False
        return self._sorted

    def oids(self) -> list[str]:
        return list(self._order())

    def __len__(self) -> int:
        return len(self._providers)

    def __contains__(self, oid: str) -> bool:
        return oid in self._providers

    # ------------------------------------------------------------------
    # The three read operations the protocol exposes
    # ------------------------------------------------------------------
    def get(self, oid: str):
        """Value for an exact OID, or None-marker via KeyError."""
        provider = self._providers.get(oid)
        if provider is None:
            raise KeyError(oid)
        return _scalarize(provider())

    def next_oid(self, oid: str) -> Optional[str]:
        """Lexicographic successor of ``oid`` ("" = first), or None."""
        order = self._order()
        index = bisect.bisect_right(order, oid)
        return order[index] if index < len(order) else None

    def walk_from(self, oid: str, count: int) -> list[tuple[str, Any]]:
        """Up to ``count`` (oid, value) pairs strictly after ``oid``."""
        order = self._order()
        index = bisect.bisect_right(order, oid)
        out = []
        for name in order[index:index + max(0, count)]:
            out.append((name, _scalarize(self._providers[name]())))
        return out


def _scalarize(value: Any):
    """Wire-type coercion: the protocol carries int/float/str/None."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float, str)) or value is None:
        return value
    return str(value)


def build_mib(node: Node, *, udp=None, tcp=None) -> MibTree:
    """The standard management tree for one node (host or gateway)."""
    tree = MibTree()
    sim = node.sim

    # -- sys group ------------------------------------------------------
    tree.add_scalar("sys.name", node.name)
    tree.add_scalar("sys.role", "gateway" if node.is_gateway else "host")
    tree.add("sys.up", lambda: int(node.up))
    tree.add("sys.uptime", lambda: sim.now - node.boot_time)
    tree.add("sys.interfaces", lambda: len(node.interfaces))

    # -- ip group (NodeStats, live) -------------------------------------
    tree.add_stats("ip", node.stats)

    # -- route group ----------------------------------------------------
    tree.add_dict_provider("route", lambda: node.routes.counters(),
                           ["routes", "generation", "cache_hits",
                            "cache_misses"])

    # -- routing observability group ------------------------------------
    # Present only on nodes with a churn ledger attached (the routeobs
    # campaign instruments gateways); the station's route-churn rate rule
    # reads these remotely, so route-flap detection is measured off the
    # management band like every other alarm.
    ledger = getattr(node, "route_ledger", None)
    if ledger is not None:
        tree.add_dict_provider(
            "routing", lambda ledger=ledger: ledger.counters(),
            ["churn_events", "churn_installs", "churn_withdrawals",
             "churn_replacements", "churn_metric_changes",
             "churn_refreshes", "churn_flaps", "churn_evicted"])

    # -- interface group ------------------------------------------------
    # Interfaces present at build time; agents are installed after the
    # topology is wired, which is also when an operator would enroll the
    # box.  (A later interface would need the agent rebuilt — true of
    # 1988 agents too.)
    for iface in node.interfaces:
        prefix = f"if.{iface.name}"
        tree.add(f"{prefix}.up", lambda iface=iface: int(iface.up))
        tree.add(f"{prefix}.bandwidth_bps",
                 lambda iface=iface: float(getattr(iface.medium,
                                                   "bandwidth_bps", 0.0)))
        tree.add_stats(prefix, iface.stats)

    # -- transport groups ----------------------------------------------
    if udp is not None:
        for key in ("bad_segments", "checksum_failures",
                    "mgmt_bad_community", "mgmt_malformed"):
            tree.add(f"udp.{key}",
                     lambda udp=udp, key=key: getattr(udp, key, 0))
    if tcp is not None:
        tree.add("tcp.conns", lambda tcp=tcp: len(tcp.connections))
        tree.add("tcp.conns_synchronized",
                 lambda tcp=tcp: sum(1 for c in tcp.connections
                                     if c.state.is_synchronized))
        for key in ("isns_issued", "refused_syns", "resets_sent",
                    "bad_segments", "quiet_time_drops",
                    "isn_quiet_violations"):
            tree.add(f"tcp.{key}",
                     lambda tcp=tcp, key=key: getattr(tcp, key, 0))

        def _conn_totals(tcp=tcp):
            totals = {"retransmit_timeouts": 0, "segments_retransmitted": 0,
                      "bytes_retransmitted": 0, "fast_retransmits": 0,
                      "keepalives_sent": 0, "rto_max": 0.0}
            for conn in tcp.connections:
                s = conn.stats
                totals["retransmit_timeouts"] += s.retransmit_timeouts
                totals["segments_retransmitted"] += s.segments_retransmitted
                totals["bytes_retransmitted"] += s.bytes_retransmitted
                totals["fast_retransmits"] += getattr(s, "fast_retransmits", 0)
                totals["keepalives_sent"] += getattr(s, "keepalives_sent", 0)
                try:
                    totals["rto_max"] = max(totals["rto_max"],
                                            conn.rto.timeout())
                except Exception:
                    pass
            return totals

        tree.add_dict_provider("tcp.agg", _conn_totals,
                               ["retransmit_timeouts",
                                "segments_retransmitted",
                                "bytes_retransmitted", "fast_retransmits",
                                "keepalives_sent", "rto_max"])

    # -- flows group (soft-state scheduler plane, when attached) --------
    # Live provider summing over node.flow_gateways, so a counter read
    # tracks crashes/restores of the soft-state plane without a rebuild.
    if node.flow_gateways:
        def _flow_totals(node=node):
            totals = {"gateways": len(node.flow_gateways)}
            for fg in node.flow_gateways:
                for key, value in fg.counters().items():
                    totals[key] = totals.get(key, 0) + value
            return totals

        tree.add_dict_provider(
            "flows", _flow_totals,
            ["gateways", "installed", "reserved", "refreshes_seen",
             "specs_expired", "state_losses", "packets_flushed_on_crash",
             "enqueued", "dequeued", "dropped", "flushed", "migrated",
             "bytes_sent", "queued"])

    # -- collapse group (harm attribution, when a HarmAccountant rides) -
    # Same live-provider pattern as flows: the collapse campaign attaches
    # HarmAccountants to transit hubs, and the management station reads
    # duplicate/open-loop byte counts remotely — MTTD for a congestion
    # collapse is measured off this subtree, not off simulator internals.
    harm = getattr(node, "harm_accountants", None)
    if harm:
        def _harm_totals(node=node):
            totals: dict = {}
            for acct in node.harm_accountants:
                for key, value in acct.counters().items():
                    totals[key] = totals.get(key, 0) + value
            return totals

        tree.add_dict_provider(
            "collapse", _harm_totals,
            ["forwarded_packets", "forwarded_bytes", "duplicate_bytes",
             "open_loop_bytes", "tracked_flows"])

    # -- metrics mirror (PR-4 registry: this node's drop ledger) --------
    # The registry's per-node labeled drop counters are the accountability
    # ledger of *why* packets die here; mirror their fleet-queryable total
    # so an operator sees it without out-of-band access.  (Individual
    # reasons stay visible via the registry / obs CLI; the agent exposes
    # the aggregate plus the raw ip.* counters.)
    obs = getattr(node, "obs", None)
    if obs is not None:
        def _drops_total(obs=obs, name=node.name):
            return obs.registry.counter_total("ip_drops", node=name)

        tree.add("metrics.ip_drops_total", _drops_total)

    return tree
