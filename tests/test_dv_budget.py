"""The per-advert budget (DESIGN §7) as a noise-free gate.

A distance-vector advert is six bytes on the wire and costs that from the
UDP payload to the relaxation and back: receiving one that changes nothing
(99.85 % of them on ``dv_grid_churn``) builds no ``Address``, ``Prefix`` or
``RouteAdvert``; a newly learned destination builds exactly one ``Prefix``;
sending appends bytes, it packs nothing.  Like ``test_hop_budget.py`` this
gates counts, never wall time: on a fixed scenario they repeat exactly,
whatever the hash seed.  The traffic of the scenario is pinned beside the
budget, so a budget bought by sending less fails too.
"""

import cProfile
import pathlib
import pstats
import re
import struct
import sys
from collections import Counter

from repro.harness.topology import Internet
from repro.ip.address import Address, Prefix
from repro.routing import distance_vector
from repro.routing.base import ADVERT, RouteAdvert
from repro.routing.distance_vector import DistanceVectorRouting

SIDE = 3                    # 9 gateways, 12 links
PERIOD = 2.0
CONVERGE_S, STEADY_S, FLAP_S = 20.0, 10.0, 20.0
SMALL, LARGE = 1, 8         # originated prefixes per gateway: 21 and 84 entries


def grid(extra_prefixes):
    """SIDE × SIDE DV gateways joined by T1 links, no hosts; every gateway
    also originates ``extra_prefixes`` aggregates, so a converged table holds
    12 + 9 × ``extra_prefixes`` entries.  Started; nothing has run yet."""
    net = Internet(seed=7)
    at = {(r, c): net.gateway(f"G{r}x{c}")
          for r in range(SIDE) for c in range(SIDE)}
    for (r, c), gateway in at.items():
        for peer in ((r, c + 1), (r + 1, c)):
            if peer in at:
                net.connect(gateway, at[peer], bandwidth_bps=1_544_000.0,
                            delay=0.002)
    net.start_routing(protocol="dv", period=PERIOD)
    for index, proc in enumerate(net.routing.values()):
        for extra in range(extra_prefixes):
            proc.originate(Prefix.parse(f"172.{16 + index}.{extra}.0/24"))
    return net


def flap(net):
    """The fixed flap: the centre gateway's first link fails for 7 s
    (long enough for its routes to expire), then the run sees it heal."""
    link, sim = net.links[5], net.sim
    sim.call_at(sim.now + 1.0, lambda: net.fail_link(link))
    sim.call_at(sim.now + 8.0, lambda: net.restore_link(link))
    net.converge(settle=FLAP_S)


def tables(net):
    return {name: list(gw.node.routes.routes())
            for name, gw in net.gateways.items()}


def traffic(net):
    stats = [proc.stats for proc in net.routing.values()]
    return (sum(s.updates_sent for s in stats),
            sum(s.bytes_sent for s in stats),
            sum(s.triggered_updates for s in stats))


class Counts:
    """What the protocol built, counted from outside: constructor calls made
    while an update is being received, ``RouteAdvert``s built anywhere, and
    ``struct.pack`` calls made from ``repro.routing``."""

    def __init__(self, monkeypatch):
        self.adverts_received = 0
        self.while_receiving = Counter()
        self.route_adverts = 0
        self.routing_packs = 0
        self._receiving = False
        received = DistanceVectorRouting._update_received
        address_init, prefix_check = Address.__init__, Prefix.__post_init__
        advert_init, pack = RouteAdvert.__init__, struct.pack

        def counted_received(proc, payload, src, src_port):
            self.adverts_received += len(payload) // ADVERT.size
            self._receiving = True
            try:
                received(proc, payload, src, src_port)
            finally:
                self._receiving = False

        def counted_address(address, value):
            self.while_receiving["Address"] += self._receiving
            address_init(address, value)

        def counted_prefix(prefix):
            self.while_receiving["Prefix"] += self._receiving
            prefix_check(prefix)

        def counted_advert(advert, prefix, metric):
            self.route_adverts += 1
            advert_init(advert, prefix, metric)

        def counted_pack(*args):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            self.routing_packs += caller.startswith("repro.routing")
            return pack(*args)

        monkeypatch.setattr(DistanceVectorRouting, "_update_received",
                            counted_received)
        monkeypatch.setattr(Address, "__init__", counted_address)
        monkeypatch.setattr(Prefix, "__post_init__", counted_prefix)
        monkeypatch.setattr(RouteAdvert, "__init__", counted_advert)
        monkeypatch.setattr(struct, "pack", counted_pack)


# ----------------------------------------------------------------------
# Objects per advert
# ----------------------------------------------------------------------
def test_an_advert_that_changes_nothing_builds_nothing(monkeypatch):
    counts = Counts(monkeypatch)
    net = grid(LARGE)
    net.converge(settle=CONVERGE_S)
    converged = tables(net)
    counts.adverts_received = 0
    counts.while_receiving.clear()
    net.converge(settle=STEADY_S)
    assert counts.adverts_received == 10_332     # 123 updates × 84 adverts
    assert tables(net) == converged
    assert +counts.while_receiving == Counter()
    assert counts.route_adverts == 0


def test_a_newly_learned_entry_builds_one_prefix(monkeypatch):
    counts = Counts(monkeypatch)
    net = grid(LARGE)
    for proc in net.routing.values():
        # Periodic updates only, so that receiving never sends (a triggered
        # flood builds one broadcast Address per update from inside the
        # receive callback).
        proc.triggered_updates = False
    net.converge(settle=CONVERGE_S)              # cold start: all is new
    learned = sum(proc.vector_bytes // ADVERT.size
                  - len(proc.node.interfaces) - LARGE
                  for proc in net.routing.values())
    assert learned == 9 * 84 - 24 - 9 * LARGE
    # One Prefix, and the one Address inside it, per entry created; none
    # for the thousands of adverts that only refreshed or improved one.
    assert counts.while_receiving == {"Prefix": learned, "Address": learned}
    assert counts.adverts_received > 10 * learned


def test_sending_packs_nothing_and_builds_no_adverts(monkeypatch):
    counts = Counts(monkeypatch)
    net = grid(SMALL)
    net.converge(settle=CONVERGE_S)
    flap(net)
    assert traffic(net)[0] > 500
    assert counts.routing_packs == 0
    assert counts.route_adverts == 0


# ----------------------------------------------------------------------
# Calls per advert
# ----------------------------------------------------------------------
def measured(extra_prefixes, monkeypatch):
    """Converge, then profile a steady stretch and the flap.  Returns the
    Python calls inside ``repro/routing/`` and ``repro/ip/address.py``
    (both directions: the sender's work is in the count), the adverts
    received, and the traffic of the profiled phase."""
    with monkeypatch.context() as patch:
        counts = Counts(patch)
        net = grid(extra_prefixes)
        net.converge(settle=CONVERGE_S)
        counts.adverts_received = 0
        before = traffic(net)
        profile = cProfile.Profile()
        profile.enable()
        net.converge(settle=STEADY_S)
        flap(net)
        profile.disable()
    calls = sum(
        ncalls for (filename, _, _), (_, ncalls, *_)
        in pstats.Stats(profile).stats.items()
        if "/repro/routing/" in filename or filename.endswith("/repro/ip/address.py"))
    sent = tuple(after - b for after, b in zip(traffic(net), before))
    return calls, counts.adverts_received, sent


def test_python_calls_per_advert_under_ceiling(monkeypatch):
    """Measured in wire form: 10,087 calls / 38,528 adverts = 0.262 (the
    relaxation and the vector are loops, so what is left is per update);
    the object-level protocol spent 390,807 = 10.14 on the same traffic.
    The ceiling sits 10 % above: one added call per advert is 4.8× over it.
    The traffic is pinned with it — the same updates, bytes and triggered
    floods the object-level protocol sent."""
    calls, adverts, sent = measured(LARGE, monkeypatch)
    assert sent == (459, 231_168, 37)
    assert adverts == 38_528
    assert calls / adverts <= 0.288, f"{calls} calls / {adverts} adverts"


def test_a_table_four_times_as_large_costs_at_most_four_times(monkeypatch):
    small_calls, small_adverts, small_sent = measured(SMALL, monkeypatch)
    large_calls, large_adverts, large_sent = measured(LARGE, monkeypatch)
    # The same updates carrying (a little over) four times the adverts.
    assert large_sent[0] == small_sent[0]
    assert large_adverts >= 4 * small_adverts
    assert large_calls <= 4.1 * small_calls, (small_calls, large_calls)


# ----------------------------------------------------------------------
# The object path stays out of the protocol
# ----------------------------------------------------------------------
def test_protocol_module_does_not_import_the_object_view():
    """``RouteAdvert`` / ``pack_adverts`` / ``unpack_adverts`` are the
    public view over the one wire struct; the protocol must not grow a
    second, object-level path beside the wire-form one."""
    source = pathlib.Path(distance_vector.__file__).read_text()
    assert not re.search(r"\b(RouteAdvert|pack_adverts|unpack_adverts)\b", source)
