"""Distance-vector interior routing (RIP-flavoured).

This is the IGP of experiment E1/E4: hop-count metrics, periodic full
updates broadcast on every attached network, split horizon with poisoned
reverse, triggered updates and route expiry.  A route not refreshed within
``route_timeout`` is poisoned (advertised at infinity); a poisoned entry takes
any finite offer at once — there is no hold-down — and is garbage-collected
after ``gc_timeout``.  When a gateway or link dies, neighbours time the routes
out and the vectors reconverge — the network "relearns" the derivable state,
which is why datagram conversations survive failures that would kill a
virtual circuit.

An advert is six bytes on the wire (:data:`~repro.routing.base.ADVERT`) and
the protocol works in that form: the table is keyed by the advert's five
key bytes, receiving is one loop over ``(key, metric)`` pairs and sending
appends each entry's key and metric.  A ``Prefix`` is built only when a new
destination is learned.

The protocol runs over UDP port 520 so its overhead crosses the same links
as user data (and is counted by :class:`~repro.routing.base.RoutingStats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..ip.address import Address, AddressError, Prefix
from ..ip.forwarding import Route
from ..ip.node import Node
from ..netlayer.link import Interface
from ..sim.process import PeriodicProcess
from ..udp.udp import UdpStack
from .base import (ADVERT, INFINITY_METRIC, RoutingStats, iter_adverts,
                   key_prefix, wire_key)

__all__ = ["DistanceVectorRouting", "DV_PORT"]

DV_PORT = 520


@dataclass(slots=True)
class _DvEntry:
    """Internal protocol state for one destination prefix."""

    key: bytes                      # wire_key(prefix): table key and advert bytes
    prefix: Prefix
    metric: int
    next_hop: Optional[Address]     # None for connected networks
    interface: Interface
    last_heard: float
    connected: bool = False
    poisoned_at: Optional[float] = None  # set when metric hit infinity
    #: Seed metric this router originates the prefix at (0 for genuinely
    #: connected networks, the redistribution metric for EGP-seam
    #: aggregates injected via :meth:`DistanceVectorRouting.originate`).
    origin_metric: int = 0


class DistanceVectorRouting:
    """One router's distance-vector process.

    Parameters mirror RIP's classic timers, scaled down by default so that
    simulated convergence happens in seconds rather than minutes (the ratio
    between timers — the thing that matters for correctness — is preserved).
    """

    def __init__(
        self,
        node: Node,
        udp: UdpStack,
        *,
        period: float = 5.0,
        route_timeout: Optional[float] = None,
        gc_timeout: Optional[float] = None,
        triggered_updates: bool = True,
        poison_reverse: bool = True,
        jitter_fn=None,
        interfaces: Optional[list[Interface]] = None,
    ):
        """``interfaces`` restricts the protocol to those attachments —
        the "passive interface" scoping an administration uses to keep its
        IGP from leaking across an AS boundary (goal 4)."""
        self.node = node
        self.udp = udp
        self.sim = node.sim
        self.period = period
        self.route_timeout = route_timeout if route_timeout is not None else 3 * period
        self.gc_timeout = gc_timeout if gc_timeout is not None else 2 * period
        self.triggered_updates = triggered_updates
        self.poison_reverse = poison_reverse
        self._scope = interfaces  # None = every interface
        self.stats = RoutingStats()
        #: Keyed by wire key; insertion order is the order on the wire.
        self._entries: dict[bytes, _DvEntry] = {}
        #: Aggregates this router redistributes into the IGP (the EGP
        #: seam); survives crash/restore like static configuration does.
        self._originated: list[tuple[Prefix, int, Optional[Interface]]] = []
        self._socket = udp.bind(DV_PORT, self._update_received)
        self._periodic = PeriodicProcess(self.sim, period, self._on_tick,
                                         jitter_fn=jitter_fn, label="dv:tick")
        self._running = False
        #: Optional callback ``(node_name, reason, sim_time)`` fired just
        #: before a *triggered* (event-driven) update goes out — the
        #: convergence tracer's causal anchor between a topology change and
        #: the update wave it launched.  Periodic ticks don't fire it.
        self.update_listener = None
        node.on_crash.append(self._on_node_crash)
        node.on_restore.append(self._on_node_restore)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def active_interfaces(self) -> Sequence[Interface]:
        """Interfaces this process speaks on (all, unless scoped): the live
        list, not a copy."""
        return self._scope if self._scope is not None else self.node.interfaces

    def start(self) -> None:
        """Load connected networks and begin advertising."""
        self._running = True
        for iface in self.active_interfaces():
            # A connected network is originated at metric 0.
            self._add_origination(iface.prefix, 0, iface)
        for prefix, metric, iface in self._originated:
            self._add_origination(prefix, metric, iface)
        self._periodic.start(initial_delay=0.0)

    def originate(self, prefix: Prefix, *, metric: int = 1,
                  interface: Optional[Interface] = None) -> None:
        """Redistribute an externally learned aggregate into this IGP.

        This is the IGP/EGP seam (goal 4): a border gateway that reaches
        ``prefix`` through its exterior peering advertises it interior-wide
        as if directly attached, seeded at ``metric``.  The entry never
        times out (this router *is* its origin) and is not installed in the
        border's own forwarding table — its exterior (static/EGP) route
        already covers the prefix.  ``interface`` anchors liveness: when it
        goes down the aggregate is poisoned, exactly like a connected
        network; default is the node's first interface.  Like static
        configuration, originations survive crash/restore.
        """
        self._originated.append((prefix, metric, interface))
        if self._running:
            self._add_origination(prefix, metric, interface)

    def _add_origination(self, prefix: Prefix, metric: int,
                         interface: Optional[Interface]) -> None:
        iface = interface if interface is not None else self.node.interfaces[0]
        key = wire_key(prefix)
        self._entries[key] = _DvEntry(
            key=key, prefix=prefix, metric=metric, next_hop=None,
            interface=iface, last_heard=self.sim.now, connected=True,
            origin_metric=metric)

    def stop(self) -> None:
        self._running = False
        self._periodic.stop()

    def _on_node_crash(self) -> None:
        """The router died: all protocol state is volatile and gone."""
        self.stop()
        self._entries.clear()

    def _on_node_restore(self) -> None:
        """Reboot: start from scratch with only connected networks."""
        self.start()

    # ------------------------------------------------------------------
    # Periodic behaviour
    # ------------------------------------------------------------------
    def _on_tick(self) -> None:
        if not self._running or not self.node.up:
            return
        self._expire_routes()
        self._broadcast_full_update()

    def _expire_routes(self) -> None:
        now = self.sim.now
        changed = False
        for entry in list(self._entries.values()):
            if entry.connected:
                # Connected routes track interface liveness directly.
                if not entry.interface.up and entry.metric < INFINITY_METRIC:
                    entry.metric = INFINITY_METRIC
                    entry.poisoned_at = now
                    self._uninstall(entry.prefix)
                    changed = True
                elif entry.interface.up and entry.metric >= INFINITY_METRIC:
                    entry.metric = entry.origin_metric
                    entry.poisoned_at = None
                    if entry.origin_metric == 0:
                        # Genuinely connected; originated aggregates
                        # (origin_metric >= 1) are advertised, never
                        # installed over the border's exterior route.
                        self._install(entry)
                    changed = True
                continue
            if entry.metric >= INFINITY_METRIC:
                if entry.poisoned_at is not None and now - entry.poisoned_at > self.gc_timeout:
                    del self._entries[entry.key]
                continue
            if now - entry.last_heard > self.route_timeout:
                entry.metric = INFINITY_METRIC
                entry.poisoned_at = now
                self._uninstall(entry.prefix)
                self.stats.routes_expired += 1
                changed = True
        if changed and self.triggered_updates:
            self.stats.triggered_updates += 1
            if self.update_listener is not None:
                self.update_listener(self.node.name, "expiry", self.sim.now)
            self._broadcast_full_update()

    def _broadcast_full_update(self) -> None:
        for iface in self.active_interfaces():
            if not iface.up:
                continue
            payload = self._vector_for(iface)
            if not payload:
                continue
            self.stats.updates_sent += 1
            self.stats.bytes_sent += len(payload)
            self._socket.sendto(payload, iface.broadcast_address, DV_PORT,
                                ttl=1, trace_label="dv-update")

    def _vector_for(self, iface: Interface) -> bytes:
        """Build the vector for one interface in wire form, applying split
        horizon: each entry's key and its metric byte."""
        out = bytearray()
        poison_reverse = self.poison_reverse
        for entry in self._entries.values():
            metric = entry.metric
            if entry.interface is iface and not entry.connected:
                if not poison_reverse:
                    continue  # plain split horizon: stay silent
                # Poisoned reverse: advertise back as unreachable.
                metric = INFINITY_METRIC
            elif metric > INFINITY_METRIC:
                metric = INFINITY_METRIC
            out += entry.key
            out.append(metric)
        return bytes(out)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _update_received(self, payload: bytes, src: Address, src_port: int) -> None:
        if not self._running or not self.node.up:
            return
        if self.node.owns_address(src):
            return  # our own broadcast echoed back
        iface = self._iface_for_neighbor(src)
        if iface is None:
            return
        self.stats.updates_received += 1
        # Bellman-Ford relaxation over the adverts as they arrive: wire key
        # and metric.  Nearly every advert changes nothing (a connected
        # prefix, the current next hop repeating itself, a no-better offer),
        # so those outcomes cost a dict lookup and integer compares.
        entries = self._entries
        neighbor = src._value
        now = self.sim.now
        changed = False
        for key, advertised in iter_adverts(payload):
            metric = (advertised + 1 if advertised < INFINITY_METRIC
                      else INFINITY_METRIC)
            entry = entries.get(key)
            if entry is None:
                if metric >= INFINITY_METRIC:
                    continue
                try:
                    # Bytes off the wire are validated here, where they would
                    # enter the table; an invalid key matches no entry above.
                    prefix = key_prefix(key)
                except AddressError:
                    continue
                entry = entries[key] = _DvEntry(
                    key=key, prefix=prefix, metric=metric, next_hop=src,
                    interface=iface, last_heard=now)
            elif entry.connected:
                continue
            elif entry.next_hop._value == neighbor:
                entry.last_heard = now
                if metric == entry.metric:
                    continue
                entry.metric = metric
                if metric >= INFINITY_METRIC:
                    # Metrics are clamped to infinity, so a changed metric
                    # that is infinite means the route was reachable.
                    entry.poisoned_at = now
                    self._uninstall(entry.prefix)
                    changed = True
                    continue
                entry.poisoned_at = None
            elif metric < entry.metric:
                entry.metric = metric
                entry.next_hop = src
                entry.interface = iface
                entry.last_heard = now
                entry.poisoned_at = None
            else:
                continue
            self._install(entry)
            changed = True
        if changed and self.triggered_updates:
            self.stats.triggered_updates += 1
            if self.update_listener is not None:
                self.update_listener(self.node.name, "update", self.sim.now)
            self._broadcast_full_update()

    def _iface_for_neighbor(self, src: Address) -> Optional[Interface]:
        for iface in self.active_interfaces():
            if iface.prefix.contains(src):
                return iface
        return None

    # ------------------------------------------------------------------
    # Forwarding-table maintenance
    # ------------------------------------------------------------------
    def _install(self, entry: _DvEntry) -> None:
        self.node.routes.install(Route(
            prefix=entry.prefix, interface=entry.interface,
            next_hop=entry.next_hop, metric=entry.metric, source="dv",
            learned_from=entry.next_hop))

    def _uninstall(self, prefix: Prefix) -> None:
        route = self.node.routes.get(prefix)
        if route is not None and route.source == "dv":
            self.node.routes.withdraw(prefix)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def table_size(self) -> int:
        """Reachable destinations currently known (E4's state metric)."""
        return sum(1 for e in self._entries.values()
                   if e.metric < INFINITY_METRIC)

    @property
    def vector_bytes(self) -> int:
        """Bytes of a full vector: every entry held, six bytes each."""
        return len(self._entries) * ADVERT.size

    def metric_to(self, prefix: Prefix) -> int:
        entry = self._entries.get(wire_key(prefix))
        return entry.metric if entry is not None else INFINITY_METRIC

    def converged_on(self, prefixes: list[Prefix]) -> bool:
        """True when every given prefix is currently reachable."""
        return all(self.metric_to(p) < INFINITY_METRIC for p in prefixes)
