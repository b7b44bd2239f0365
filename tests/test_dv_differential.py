"""Differential test at the distance-vector protocol boundary.

The protocol works in wire form (DESIGN §7, "The per-advert budget"); the
object-level protocol it replaced is kept here, verbatim, as the oracle:
``unpack_adverts`` → ``_consider`` per advert, ``_adverts_for`` →
``pack_adverts``, and ``_expire_routes`` over a table keyed by ``Prefix``.
Random tables (grown by random updates from random neighbours, expiry runs
and link flaps) × random payloads (valid adverts, metrics and length bytes
0-255, host bits set, trailing bytes, empty) must leave both with the same
entries in the same order, the same installed routes through the same
sequence of table mutations, the same changed/unchanged answer, and the same
bytes on the wire with and without poisoned reverse.
"""

import struct
from dataclasses import dataclass
from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.ip.address import Address, Prefix
from repro.ip.forwarding import Route, RouteTable
from repro.ip.node import Node
from repro.netlayer.link import Interface, PointToPointLink
from repro.routing.base import (INFINITY_METRIC, RouteAdvert, pack_adverts,
                                unpack_adverts, wire_key)
from repro.routing.distance_vector import DV_PORT, DistanceVectorRouting
from repro.sim.engine import Simulator
from repro.udp.udp import UdpStack

ROUTE_TIMEOUT, GC_TIMEOUT = 6.0, 4.0
SUBNETS = [Prefix.parse(f"10.9.{i}.0/29") for i in range(3)]
AGGREGATE = Prefix.parse("172.16.0.0/16")       # originated at metric 2
#: Two neighbours on every subnet, the router's own address (an echo, to be
#: ignored) and a stranger on no attached subnet (to be ignored).
NEIGHBOURS = [subnet.host(h) for subnet in SUBNETS for h in (2, 3)] \
    + [SUBNETS[0].host(1), Address("192.0.2.9")]
#: Prefixes valid adverts draw from: few enough to collide with the table.
POOL = SUBNETS + [AGGREGATE] + [Prefix.parse(text) for text in (
    "0.0.0.0/0", "10.0.0.0/8", "10.9.0.0/16", "10.9.4.0/24", "10.9.5.0/24",
    "192.168.7.0/24", "192.168.7.128/25", "203.0.113.77/32")]


# ----------------------------------------------------------------------
# The oracle: the object-level protocol, verbatim from the parent commit
# ----------------------------------------------------------------------
_ENTRY_FMT = "!4sBB"
_ENTRY_LEN = struct.calcsize(_ENTRY_FMT)


def oracle_pack_adverts(adverts) -> bytes:
    out = bytearray()
    for advert in adverts:
        out.extend(struct.pack(_ENTRY_FMT, advert.prefix.network.to_bytes(),
                               advert.prefix.length,
                               min(advert.metric, INFINITY_METRIC)))
    return bytes(out)


def oracle_unpack_adverts(data: bytes) -> list:
    adverts = []
    for i in range(0, len(data) - _ENTRY_LEN + 1, _ENTRY_LEN):
        network, length, metric = struct.unpack(_ENTRY_FMT,
                                                data[i : i + _ENTRY_LEN])
        try:
            prefix = Prefix(Address.from_bytes(network), length)
        except Exception:
            continue
        adverts.append(RouteAdvert(prefix, metric))
    return adverts


@dataclass
class _OracleEntry:
    prefix: Prefix
    metric: int
    next_hop: Optional[Address]
    interface: Interface
    last_heard: float
    connected: bool = False
    poisoned_at: Optional[float] = None
    origin_metric: int = 0


class ObjectLevelDv:
    """The relaxation, expiry and vector of the parent's
    ``DistanceVectorRouting``, over its own ``RouteTable``; method bodies
    are the parent's, with ``self.sim.now`` passed in as ``now``."""

    def __init__(self, sim, interfaces, poison_reverse):
        self.routes = RouteTable(clock=lambda: sim.now)
        self.poison_reverse = poison_reverse
        self.route_timeout, self.gc_timeout = ROUTE_TIMEOUT, GC_TIMEOUT
        self._entries = {}
        for iface in interfaces:
            self.routes.install(Route(prefix=iface.prefix, interface=iface,
                                      metric=0, source="connected"))
            self._entries[iface.prefix] = _OracleEntry(
                prefix=iface.prefix, metric=0, next_hop=None,
                interface=iface, last_heard=sim.now, connected=True)

    def originate(self, prefix, metric, iface, now):
        self._entries[prefix] = _OracleEntry(
            prefix=prefix, metric=metric, next_hop=None, interface=iface,
            last_heard=now, connected=True, origin_metric=metric)

    def update_received(self, payload, src, iface, now) -> bool:
        changed = False
        for advert in oracle_unpack_adverts(payload):
            if self._consider(advert, src, iface, now):
                changed = True
        return changed

    def _consider(self, advert, neighbor, iface, now) -> bool:
        metric = min(advert.metric + 1, INFINITY_METRIC)
        entry = self._entries.get(advert.prefix)
        if entry is None:
            if metric >= INFINITY_METRIC:
                return False
            entry = _OracleEntry(prefix=advert.prefix, metric=metric,
                                 next_hop=neighbor, interface=iface,
                                 last_heard=now)
            self._entries[advert.prefix] = entry
            self._install(entry)
            return True
        if entry.connected:
            return False
        from_current = entry.next_hop == neighbor
        if from_current:
            entry.last_heard = now
            if metric != entry.metric:
                was_reachable = entry.metric < INFINITY_METRIC
                entry.metric = metric
                if metric >= INFINITY_METRIC:
                    entry.poisoned_at = now
                    if was_reachable:
                        self._uninstall(entry.prefix)
                        return True
                    return False
                entry.poisoned_at = None
                self._install(entry)
                return True
            return False
        if metric < entry.metric:
            entry.metric = metric
            entry.next_hop = neighbor
            entry.interface = iface
            entry.last_heard = now
            entry.poisoned_at = None
            self._install(entry)
            return True
        return False

    def expire_routes(self, now) -> bool:
        changed = False
        for prefix, entry in list(self._entries.items()):
            if entry.connected:
                if not entry.interface.up and entry.metric < INFINITY_METRIC:
                    entry.metric = INFINITY_METRIC
                    entry.poisoned_at = now
                    self._uninstall(prefix)
                    changed = True
                elif entry.interface.up and entry.metric >= INFINITY_METRIC:
                    entry.metric = entry.origin_metric
                    entry.poisoned_at = None
                    if entry.origin_metric == 0:
                        self._install(entry)
                    changed = True
                continue
            if entry.metric >= INFINITY_METRIC:
                if entry.poisoned_at is not None and now - entry.poisoned_at > self.gc_timeout:
                    del self._entries[prefix]
                continue
            if now - entry.last_heard > self.route_timeout:
                entry.metric = INFINITY_METRIC
                entry.poisoned_at = now
                self._uninstall(prefix)
                changed = True
        return changed

    def adverts_for(self, iface) -> list:
        adverts = []
        for entry in self._entries.values():
            if entry.interface is iface and not entry.connected:
                if self.poison_reverse:
                    adverts.append(RouteAdvert(entry.prefix, INFINITY_METRIC))
                continue
            adverts.append(RouteAdvert(entry.prefix, min(entry.metric, INFINITY_METRIC)))
        return adverts

    def _install(self, entry) -> None:
        self.routes.install(Route(
            prefix=entry.prefix, interface=entry.interface,
            next_hop=entry.next_hop, metric=entry.metric, source="dv",
            learned_from=entry.next_hop))

    def _uninstall(self, prefix) -> None:
        route = self.routes.get(prefix)
        if route is not None and route.source == "dv":
            self.routes.withdraw(prefix)


# ----------------------------------------------------------------------
# The rig: one live router and the oracle beside it, on one clock
# ----------------------------------------------------------------------
class Rig:
    def __init__(self, poison_reverse):
        self.sim = sim = Simulator()
        node = Node("R", sim, is_gateway=True)
        self.links = []
        for index, subnet in enumerate(SUBNETS):
            iface = node.add_interface(
                Interface(f"r{index}", subnet.host(1), subnet))
            stub = Node(f"N{index}", sim).add_interface(
                Interface(f"n{index}", subnet.host(2), subnet))
            self.links.append(PointToPointLink(sim, iface, stub,
                                               bandwidth_bps=1e6, delay=0.001))
        self.interfaces = node.interfaces
        # The periodic tick fires once, at t=0; expiry is a step below.
        self.proc = DistanceVectorRouting(
            node, UdpStack(node), period=1e9, route_timeout=ROUTE_TIMEOUT,
            gc_timeout=GC_TIMEOUT, poison_reverse=poison_reverse)
        self.proc.start()
        self.oracle = ObjectLevelDv(sim, self.interfaces, poison_reverse)
        self.generation_0 = node.routes.generation - self.oracle.routes.generation
        self.proc.originate(AGGREGATE, metric=2, interface=self.interfaces[0])
        self.oracle.originate(AGGREGATE, 2, self.interfaces[0], sim.now)
        sim.run(until=0.001)

    def iface_for(self, src):
        if self.proc.node.owns_address(src):
            return None
        return next((i for i in self.interfaces if i.prefix.contains(src)), None)

    def apply(self, step) -> None:
        """One step on both sides; they must agree on whether it changed
        anything (the live side says so by flooding a triggered update)."""
        sim, proc, oracle = self.sim, self.proc, self.oracle
        floods = proc.stats.triggered_updates
        kind, *args = step
        changed = False
        if kind == "update":
            src, payload = args
            proc._update_received(payload, src, DV_PORT)
            iface = self.iface_for(src)
            if iface is not None:
                changed = oracle.update_received(payload, src, iface, sim.now)
        elif kind == "expire":
            proc._expire_routes()
            changed = oracle.expire_routes(sim.now)
        elif kind == "wait":
            sim.run(until=sim.now + args[0])
        else:
            index, up = args
            self.links[index].set_up(up)
        assert proc.stats.triggered_updates - floods == changed

    def check(self) -> None:
        proc, oracle = self.proc, self.oracle
        assert [key for key in proc._entries] \
            == [wire_key(prefix) for prefix in oracle._entries]
        assert [(e.key, e.prefix, e.metric, e.next_hop, e.interface,
                 e.last_heard, e.connected, e.poisoned_at, e.origin_metric)
                for e in proc._entries.values()] \
            == [(wire_key(e.prefix), e.prefix, e.metric, e.next_hop,
                 e.interface, e.last_heard, e.connected, e.poisoned_at,
                 e.origin_metric) for e in oracle._entries.values()]
        assert self.table(proc.node.routes, self.generation_0) \
            == self.table(oracle.routes, 0)
        for poison_reverse in (True, False):
            proc.poison_reverse = oracle.poison_reverse = poison_reverse
            for iface in self.interfaces:
                assert proc._vector_for(iface) \
                    == pack_adverts(oracle.adverts_for(iface))

    @staticmethod
    def table(routes, generation_0):
        return (routes.generation - generation_0,
                [(r.prefix, r.interface, r.next_hop, r.metric, r.source,
                  r.learned_from, r.installed_at,
                  r.install_generation - generation_0)
                 for r in routes.routes()
                 if r.source == "dv"])


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
#: Mostly finite metrics (or the table never grows), all 256 now and then.
_metrics = st.one_of(st.integers(0, 17), st.integers(0, 255))
_adverts = st.one_of(
    st.tuples(st.sampled_from(POOL).map(wire_key),
              _metrics.map(lambda metric: bytes((metric,)))).map(b"".join),
    st.binary(min_size=6, max_size=6))      # any length byte, host bits set
_payloads = st.tuples(st.lists(_adverts, max_size=10).map(b"".join),
                      st.binary(max_size=5)).map(b"".join)
_steps = st.one_of(
    st.tuples(st.just("update"), st.sampled_from(NEIGHBOURS), _payloads),
    st.tuples(st.just("update"), st.sampled_from(NEIGHBOURS), _payloads),
    st.tuples(st.just("expire")),
    st.tuples(st.just("wait"), st.sampled_from([0.5, 2.0, 4.5, 7.0])),
    st.tuples(st.just("link"), st.integers(0, 2), st.booleans()))


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.lists(_steps, max_size=25))
def test_wire_form_protocol_matches_the_object_level_oracle(poison_reverse, steps):
    rig = Rig(poison_reverse)
    rig.check()
    for step in steps:
        rig.apply(step)
        rig.check()


def test_the_oracle_sees_every_branch():
    """A fixed walk through learn, refresh, worsen, poison, better offer
    from another neighbour, expiry, garbage collection and a connected
    flap — so the random search above starts from known coverage."""
    rig = Rig(poison_reverse=True)
    n0, n0b, n1 = NEIGHBOURS[0], NEIGHBOURS[1], NEIGHBOURS[2]
    far, key = POOL[-1], wire_key(POOL[-1])

    def advert(metric, key=key):
        return key + bytes((metric,))

    walk = [
        ("update", n0, advert(3)),                      # learn
        ("update", n0, advert(3)),                      # refresh
        ("update", n0, advert(5) + b"\x01\x02"),        # current hop worsens
        ("update", n1, advert(5)),                      # no better: ignored
        ("update", n1, advert(1)),                      # better: switch
        ("update", n0b, advert(200)),                   # clamped to infinity
        ("update", n1, advert(16)),                     # poisoned
        ("update", n1, advert(16)),                     # still poisoned
        ("update", n1, advert(7)),                      # current hop recovers
        ("update", n1, advert(15)),                     # poisoned again
        ("update", n0, advert(2)),                      # finite offer taken at once
        ("update", n0, b"\x0a\x09\x04\x01\x18\x01"),    # host bits set: skipped
        ("update", n0, b"\x0a\x09\x04\x00\x21\x01"),    # length 33: skipped
        ("update", NEIGHBOURS[-1], advert(1)),          # stranger: ignored
        ("update", NEIGHBOURS[-2], advert(1)),          # own echo: ignored
        ("wait", 7.0), ("expire",),                     # times out
        ("wait", 4.5), ("expire",),                     # garbage-collected
        ("link", 0, False), ("expire",),                # connected + aggregate poisoned
        ("link", 0, True), ("expire",),                 # and restored
    ]
    metrics = []
    for step in walk:
        rig.apply(step)
        rig.check()
        metrics.append(rig.proc.metric_to(far))
    assert metrics == [4, 4, 6, 6, 2, 2, 16, 16, 8, 16, 3, 3, 3, 3, 3,
                       3, 16, 16, 16, 16, 16, 16, 16]
    assert wire_key(far) not in rig.proc._entries


@given(st.lists(st.tuples(st.sampled_from(POOL), _metrics), max_size=12),
       st.binary(max_size=80))
def test_the_public_view_matches_the_old_codec(adverts, data):
    adverts = [RouteAdvert(prefix, metric) for prefix, metric in adverts]
    assert pack_adverts(adverts) == oracle_pack_adverts(adverts)
    assert unpack_adverts(data) == oracle_unpack_adverts(data)
    assert unpack_adverts(pack_adverts(adverts) + data[:5]) \
        == oracle_unpack_adverts(oracle_pack_adverts(adverts) + data[:5])
