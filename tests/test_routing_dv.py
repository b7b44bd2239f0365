"""Behavioural tests for distance-vector routing."""

import pytest

from repro.harness.topology import Internet
from repro.ip.address import Address, Prefix
from repro.ip.node import Node
from repro.ip.packet import PROTO_UDP
from repro.netlayer.link import Interface, PointToPointLink
from repro.routing.base import INFINITY_METRIC, RouteAdvert, pack_adverts, unpack_adverts
from repro.routing.distance_vector import DistanceVectorRouting
from repro.sim.engine import Simulator
from repro.udp.udp import UdpStack


def build_chain(sim, count=4, period=1.0):
    """G1 - G2 - ... - Gn, each pair joined by a /30; DV everywhere."""
    gateways, procs, links = [], [], []
    for i in range(count):
        g = Node(f"G{i+1}", sim, is_gateway=True)
        gateways.append(g)
    base = int(Address("10.50.0.0"))
    for i in range(count - 1):
        prefix = Prefix(Address(base), 30)
        base += 4
        ia = gateways[i].add_interface(
            Interface(f"g{i}a", prefix.host(1), prefix))
        ib = gateways[i + 1].add_interface(
            Interface(f"g{i}b", prefix.host(2), prefix))
        links.append(PointToPointLink(sim, ia, ib, bandwidth_bps=1e6,
                                      delay=0.002))
    for g in gateways:
        dv = DistanceVectorRouting(g, UdpStack(g), period=period)
        dv.start()
        procs.append(dv)
    return gateways, procs, links


def test_convergence_on_chain(sim):
    gateways, procs, links = build_chain(sim, count=4)
    sim.run(until=10)
    # G1 must know the far-end /30 at hop distance 2 (via two updates).
    far_prefix = gateways[3].interfaces[-1].prefix
    assert procs[0].metric_to(far_prefix) < INFINITY_METRIC
    route = gateways[0].routes.lookup(far_prefix.host(2))
    assert route.source == "dv"


def test_metrics_count_hops(sim):
    gateways, procs, links = build_chain(sim, count=4)
    sim.run(until=10)
    far_prefix = gateways[3].interfaces[-1].prefix
    near_prefix = gateways[1].interfaces[0].prefix
    assert procs[0].metric_to(far_prefix) > procs[0].metric_to(near_prefix)


def test_forwarding_works_after_convergence(sim):
    gateways, procs, links = build_chain(sim, count=4)
    sim.run(until=10)
    got = []
    # NOTE: this handler replaces the UDP stack's (DV chatter included),
    # so filter to our payload.
    gateways[3].register_protocol(
        PROTO_UDP,
        lambda n, d, i: got.append(d) if d.payload == b"across the chain" else None)
    target = gateways[3].interfaces[-1].address
    gateways[0].send(target, PROTO_UDP, b"across the chain")
    sim.run(until=12)
    assert len(got) == 1


def test_link_failure_times_out_routes(sim):
    gateways, procs, links = build_chain(sim, count=3, period=1.0)
    sim.run(until=8)
    far = gateways[2].interfaces[-1].prefix
    assert procs[0].metric_to(far) < INFINITY_METRIC
    links[1].set_up(False)  # cut G2-G3
    sim.run(until=25)
    assert procs[0].metric_to(far) >= INFINITY_METRIC


def test_alternate_path_found_after_failure(sim):
    # Triangle: G1-G2, G2-G3, G1-G3.  The G2-G3 /30 is one hop from G1 by
    # either edge; cut whichever edge the route currently uses and expect
    # the other to take over.
    gateways, procs, links = build_chain(sim, count=3, period=1.0)
    prefix = Prefix.parse("10.60.0.0/30")
    ia = gateways[0].add_interface(Interface("x1", prefix.host(1), prefix))
    ib = gateways[2].add_interface(Interface("x2", prefix.host(2), prefix))
    closing = PointToPointLink(sim, ia, ib, bandwidth_bps=1e6, delay=0.002)
    sim.run(until=10)
    mid_prefix = gateways[1].interfaces[1].prefix
    before = gateways[0].routes.lookup(mid_prefix.host(1))
    if before.interface.name == "x1":
        closing.set_up(False)
    else:
        links[0].set_up(False)
    sim.run(until=50)
    after = gateways[0].routes.lookup(mid_prefix.host(1))
    assert after.interface.name != before.interface.name
    assert procs[0].metric_to(mid_prefix) < INFINITY_METRIC


def test_restored_link_reconverges(sim):
    gateways, procs, links = build_chain(sim, count=3, period=1.0)
    sim.run(until=8)
    links[1].set_up(False)
    sim.run(until=25)
    links[1].set_up(True)
    sim.run(until=40)
    far = gateways[2].interfaces[-1].prefix
    assert procs[0].metric_to(far) < INFINITY_METRIC


def test_crash_clears_and_relearns(sim):
    gateways, procs, links = build_chain(sim, count=3, period=1.0)
    sim.run(until=8)
    gateways[1].crash()
    assert procs[1].table_size == 0
    gateways[1].restore()
    sim.run(until=25)
    far = gateways[2].interfaces[-1].prefix
    assert procs[0].metric_to(far) < INFINITY_METRIC


def test_split_horizon_limits_count_to_infinity(sim):
    """After a cut, the poisoned route must not bounce between neighbours
    (metric slowly climbing) — poison reverse suppresses the loop."""
    gateways, procs, links = build_chain(sim, count=3, period=0.5)
    sim.run(until=6)
    far = gateways[2].interfaces[-1].prefix
    links[1].set_up(False)
    sim.run(until=10)
    # Within a few periods the route must be gone, not counting upward.
    assert procs[0].metric_to(far) >= INFINITY_METRIC or \
        procs[0].metric_to(far) <= 3


def test_stats_accumulate(sim):
    gateways, procs, links = build_chain(sim, count=3)
    sim.run(until=10)
    assert procs[0].stats.updates_sent > 0
    assert procs[0].stats.updates_received > 0
    assert procs[0].stats.bytes_sent > 0


@pytest.mark.parametrize("stray_restores", [0, 1, 2])
def test_stray_restore_does_not_multiply_updates(stray_restores):
    """``Node.restore()`` on a node that is not down (two overlapping
    crash faults revert twice) re-runs ``start()``; the periodic chain is
    restarted, never doubled."""
    net = Internet(seed=7)
    a = net.gateway("A")
    net.connect(a, net.gateway("B"))
    net.start_routing(protocol="dv", period=2.0)
    net.converge(settle=10.0)
    for _ in range(stray_restores):
        a.node.restore()
    stats = net.routing["A"].stats
    before = stats.updates_sent
    net.sim.run(until=net.sim.now + 20.0)
    assert stats.updates_sent - before == 11


def test_advert_wire_round_trip():
    adverts = [RouteAdvert(Prefix.parse("10.1.0.0/16"), 3),
               RouteAdvert(Prefix.parse("0.0.0.0/0"), 1),
               RouteAdvert(Prefix.parse("192.168.3.0/24"), INFINITY_METRIC)]
    assert unpack_adverts(pack_adverts(adverts)) == adverts


def test_advert_metric_clamped_to_infinity():
    packed = pack_adverts([RouteAdvert(Prefix.parse("10.0.0.0/8"), 99)])
    assert unpack_adverts(packed)[0].metric == INFINITY_METRIC


def test_garbage_advert_bytes_ignored():
    assert unpack_adverts(b"\x01\x02\x03") == []
