"""Forwarding table with longest-prefix match.

Gateways in the architecture keep *routing* state — which is derivable and
rebuildable — but no per-conversation state.  The forwarding table is that
routing state: a mapping from destination prefixes to (next hop, interface),
resolved by longest-prefix match.  Routing protocols
(:mod:`repro.routing`) install and withdraw entries; the node's forwarding
engine only reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Union

from .address import Address, Prefix

if TYPE_CHECKING:  # pragma: no cover
    from ..netlayer.link import Interface

__all__ = ["Route", "RouteTable", "NoRouteError"]


class NoRouteError(Exception):
    """Raised on lookup when no prefix covers the destination."""

    def __init__(self, destination: Address):
        super().__init__(f"no route to {destination}")
        self.destination = destination


@dataclass(frozen=True)
class Route:
    """One forwarding entry.

    ``next_hop`` of None means the destination is directly on the attached
    network (deliver on-link).  ``metric`` and ``source`` are bookkeeping for
    the routing protocols; the forwarding engine ignores them.

    The last three fields are *provenance*: who taught us this route
    (``learned_from`` — the advertising neighbor, None for local
    configuration), and when it entered this table (``installed_at`` in
    simulation seconds, ``install_generation`` as the table's mutation
    counter).  ``installed_at``/``install_generation`` are stamped by
    :meth:`RouteTable.install`, not by the caller — a Route is born
    unprovenanced and acquires its history on installation.
    """

    prefix: Prefix
    interface: "Interface"
    next_hop: Optional[Address] = None
    metric: int = 0
    source: str = "static"
    learned_from: Optional[Address] = None
    installed_at: float = 0.0
    install_generation: int = 0

    def __str__(self) -> str:
        via = f"via {self.next_hop}" if self.next_hop is not None else "direct"
        return f"{self.prefix} {via} dev {self.interface.name} metric {self.metric} [{self.source}]"

    def provenance(self) -> str:
        """One-line origin story for operator tooling."""
        taught = (f"from {self.learned_from}" if self.learned_from is not None
                  else "local")
        return (f"{self.prefix} [{self.source}] {taught} "
                f"at {self.installed_at:.3f}s gen {self.install_generation}")


class RouteTable:
    """Longest-prefix-match forwarding table with a destination cache.

    Routes are bucketed by prefix length; a full lookup scans from /32 down
    and returns on the first hit (:meth:`lookup_uncached` — simple and
    obviously correct).  Because the fast path pays this scan per *packet*
    while routing protocols mutate the table per *event*, :meth:`lookup`
    front-ends the scan with a generation-stamped destination cache:

    * a hit is a single dict probe on the destination's integer value;
    * every mutation (:meth:`install` / :meth:`withdraw` /
      :meth:`withdraw_by_source`) bumps the table generation, so entries
      stamped with an older generation are treated as misses and re-resolved
      — the cache can never return a withdrawn or shadowed route.

    The sorted prefix-length list is likewise precomputed on mutation
    instead of being rebuilt with ``sorted()`` per packet.
    """

    #: Cache entries dropped wholesale when the cache grows past this bound;
    #: prevents unbounded memory under address-scanning traffic.
    CACHE_MAX = 8192

    def __init__(self, clock=None):
        self._by_length: dict[int, dict[Prefix, Route]] = {}
        self._lengths: tuple[int, ...] = ()  # descending, rebuilt on mutation
        self._generation = 0
        self._cache: dict[int, tuple[int, Route]] = {}  # int(dst) -> (gen, Route)
        self.cache_hits = 0
        self.cache_misses = 0
        #: Zero-arg callable returning the current sim time; provenance
        #: stamps read it on install.  None keeps stamps at 0.0 (tables
        #: built outside a simulation).
        self._clock = clock
        #: Optional churn ledger (duck-typed: needs route_installed /
        #: route_replaced / route_withdrawn).  The ledger class lives in
        #: :mod:`repro.obs.routing`; keeping this a plain attribute avoids
        #: an ip -> obs import cycle.
        self.ledger = None

    @property
    def generation(self) -> int:
        """Mutation counter; bumps on install/withdraw (cache stamp)."""
        return self._generation

    def _mutated(self) -> None:
        self._generation += 1
        self._lengths = tuple(sorted(self._by_length, reverse=True))
        if self._cache:
            self._cache.clear()

    def now(self) -> float:
        """Current provenance clock reading (0.0 with no clock attached)."""
        return self._clock() if self._clock is not None else 0.0

    def install(self, route: Route) -> None:
        """Insert or replace the route for ``route.prefix``.

        Stamps the entry's provenance (install time + generation) and, when
        a churn ledger is attached, records whether this was a fresh
        install, a replacement (next hop changed) or a metric change.
        """
        bucket = self._by_length.setdefault(route.prefix.length, {})
        prior = bucket.get(route.prefix)
        # Route is frozen so callers can't retroactively edit provenance;
        # the table itself stamps through the freeze at the install moment.
        object.__setattr__(route, "installed_at", self.now())
        object.__setattr__(route, "install_generation", self._generation + 1)
        bucket[route.prefix] = route
        self._mutated()
        if self.ledger is not None:
            if prior is None:
                self.ledger.route_installed(route)
            else:
                self.ledger.route_replaced(route, prior)

    def withdraw(self, prefix: Prefix) -> bool:
        """Remove the route for ``prefix``; returns True if one existed."""
        bucket = self._by_length.get(prefix.length)
        if bucket and prefix in bucket:
            route = bucket.pop(prefix)
            if not bucket:
                del self._by_length[prefix.length]
            self._mutated()
            if self.ledger is not None:
                self.ledger.route_withdrawn(route, self.now())
            return True
        return False

    def withdraw_by_source(self, source: str) -> int:
        """Remove every route installed by ``source``; returns the count."""
        removed: list[Route] = []
        for length in list(self._by_length):
            bucket = self._by_length[length]
            for prefix in [p for p, r in bucket.items() if r.source == source]:
                removed.append(bucket.pop(prefix))
            if not bucket:
                del self._by_length[length]
        if removed:
            self._mutated()
            if self.ledger is not None:
                when = self.now()
                for route in removed:
                    self.ledger.route_withdrawn(route, when)
        return len(removed)

    def lookup(self, destination: Union[str, Address]) -> Route:
        """Longest-prefix match; raises :class:`NoRouteError` on miss.

        Cached: repeat lookups for the same destination are O(1) dict hits
        until the table next mutates.  Every call counts once in
        ``cache_hits`` or ``cache_misses``; the datagram path resolves a
        destination once per node (DESIGN §7), so their sum also counts
        the datagrams this node routed.
        """
        if type(destination) is not Address:
            destination = Address(destination)
        key = destination._value
        entry = self._cache.get(key)
        if entry is not None and entry[0] == self._generation:
            self.cache_hits += 1
            return entry[1]
        self.cache_misses += 1
        route = self.lookup_uncached(destination)
        if len(self._cache) >= self.CACHE_MAX:
            self._cache.clear()
        self._cache[key] = (self._generation, route)
        return route

    def lookup_uncached(self, destination: Union[str, Address]) -> Route:
        """The reference longest-prefix scan (no destination cache)."""
        dst = destination if type(destination) is Address else Address(destination)
        for length in self._lengths:
            probe = Prefix.of(dst, length)
            route = self._by_length[length].get(probe)
            if route is not None:
                return route
        raise NoRouteError(dst)

    def get(self, prefix: Prefix) -> Optional[Route]:
        """Exact-match fetch of the route for ``prefix``."""
        return self._by_length.get(prefix.length, {}).get(prefix)

    def routes(self) -> Iterable[Route]:
        """All installed routes, most-specific first."""
        for length in self._lengths:
            yield from self._by_length[length].values()

    def __len__(self) -> int:
        return sum(len(b) for b in self._by_length.values())

    def counters(self) -> dict:
        """Scalar health counters for the observability registry.

        Churn counters appear only when a ledger is attached, so existing
        registry/MIB export shapes are untouched on unledgered nodes.
        """
        out = {
            "routes": len(self),
            "generation": self._generation,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }
        if self.ledger is not None:
            out.update(self.ledger.counters())
        return out

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._by_length.get(prefix.length, {})
