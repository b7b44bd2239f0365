"""The per-hop budget (DESIGN §7) as a noise-free gate.

A forwarded datagram gets one route resolution, one length computation, one
datagram allocation, one event push and integer address compares.  Wall time
cannot be gated on a shared runner; lookups and Python calls can, because on
a fixed scenario they repeat exactly.  The behaviour tests below pin what the
single-resolution transit path could silently lose: the no-route branch, the
redirect advice, the link-down drop and the MTU boundary.
"""

import cProfile
import pstats

from repro.flows import scheduler
from repro.flows.scheduler import DrrScheduler
from repro.ip import icmp
from repro.ip.address import Address, Prefix
from repro.ip.node import Node
from repro.ip.packet import Datagram, IP_HEADER_LEN, PROTO_UDP
from repro.netlayer.lan import LanBus
from repro.netlayer.link import Interface, PointToPointLink
from repro.routing.static import add_default_route, add_static_route
from repro.sim.engine import Simulator
from repro.sim.shard import ConduitPort, ShardBuild, ShardHarness
from repro.udp.udp import UDP_HEADER_LEN, UdpStack
from test_ip_redirect import two_gateway_lan  # noqa: F401  (fixture)

DATAGRAMS = 200
SINK = Address("10.0.3.2")


def line(*, core_mtu=1500):
    """H1 — G1 — G2 — H2: static routes, lossless, nothing else talking."""
    sim = Simulator()
    h1, h2 = Node("H1", sim), Node("H2", sim)
    g1, g2 = Node("G1", sim, is_gateway=True), Node("G2", sim, is_gateway=True)
    links = []
    for index, (a, b, mtu) in enumerate(
            [(h1, g1, 1500), (g1, g2, core_mtu), (g2, h2, 1500)], start=1):
        prefix = Prefix.parse(f"10.0.{index}.0/24")
        ia = a.add_interface(Interface(f"{a.name}.{index}", prefix.host(1), prefix))
        ib = b.add_interface(Interface(f"{b.name}.{index}", prefix.host(2), prefix))
        links.append(PointToPointLink(sim, ia, ib, bandwidth_bps=10_000_000,
                                      delay=0.001, mtu=mtu))
    add_default_route(h1, "10.0.1.2")
    add_default_route(h2, "10.0.3.1")
    add_static_route(g1, "10.0.3.0/24", "10.0.2.2")
    add_static_route(g2, "10.0.1.0/24", "10.0.2.1")
    return sim, h1, g1, g2, h2, links


def lookups(node):
    return node.routes.cache_hits + node.routes.cache_misses


def udp_pair(h1, h2):
    """A sending socket on H1 and the list H2's port 7000 collects into."""
    got = []
    UdpStack(h2).bind(7000, lambda payload, src, port: got.append(payload))
    return UdpStack(h1).bind(0), got


def send_burst(sim, h1, h2):
    """DATAGRAMS UDP datagrams H1 → H2, one per millisecond; returns the sink."""
    sock, got = udp_pair(h1, h2)
    for i in range(DATAGRAMS):
        sim.post(0.001 * i, lambda: sock.sendto(b"x" * 256, SINK, 7000))
    return got


# ----------------------------------------------------------------------
# The budget
# ----------------------------------------------------------------------
def test_one_route_resolution_per_datagram_per_node():
    sim, h1, g1, g2, h2, _ = line()
    got = send_burst(sim, h1, h2)
    before = [lookups(n) for n in (h1, g1, g2)]
    sim.run(until=1.0)
    assert len(got) == DATAGRAMS
    assert g1.stats.forwarded == g2.stats.forwarded == DATAGRAMS
    # Origin: sendto resolves once for source address *and* output route.
    # Transit: redirect advice and output share the hop's one resolution.
    assert [lookups(n) - b for n, b in zip((h1, g1, g2), before)] \
        == [DATAGRAMS] * 3


def test_python_calls_per_hop_under_ceiling():
    """cProfile count of Python-level calls into ``repro.ip`` and
    ``repro.netlayer`` per hop (a forward or a delivery; origination and
    delivery work is in the count).  Measured: 8,030 calls / 600 hops =
    13.38, since ``_output`` hands the medium the datagram itself and a
    lossless arrival consults no loss model (11,230 = 18.72 before that,
    the same before and after the four link traversals became one;
    21,844 = 36.41 before the diet); the ceiling sits 10 % above.  The
    count repeats exactly, so this cannot flake — it fails only when
    someone adds per-packet calls."""
    sim, h1, g1, g2, h2, _ = line()
    got = send_burst(sim, h1, h2)
    profile = cProfile.Profile()
    profile.enable()
    sim.run(until=1.0)
    profile.disable()
    assert len(got) == DATAGRAMS
    hops = sum(n.stats.forwarded + n.stats.delivered for n in (h1, g1, g2, h2))
    assert hops == 3 * DATAGRAMS
    calls = sum(
        ncalls for (filename, _, _), (_, ncalls, *_)
        in pstats.Stats(profile).stats.items()
        if "/repro/ip/" in filename or "/repro/netlayer/" in filename)
    assert calls / hops <= 14.72, f"{calls} calls / {hops} hops"


# ----------------------------------------------------------------------
# The traversal budget: one link crossing, by medium
# ----------------------------------------------------------------------
def pair_on(attach, sends=DATAGRAMS):
    """A and B, one interface each, joined by whatever ``attach`` builds;
    ``sends`` datagrams A → B posted one per millisecond."""
    sim = Simulator()
    prefix = Prefix.parse("10.0.1.0/24")
    a, b = Node("A", sim), Node("B", sim)
    ia = a.add_interface(Interface("a0", prefix.host(1), prefix))
    ib = b.add_interface(Interface("b0", prefix.host(2), prefix))
    attach(sim, prefix, ia, ib)
    b.register_protocol(PROTO_UDP, lambda node, datagram, iface: None)
    for i in range(sends):
        sim.post(0.001 * i, lambda: ia.output(Datagram(
            src=ia.address, dst=ib.address, protocol=PROTO_UDP,
            payload=b"x" * 256)))
    return sim, ia, ib


def link_layer_calls(run) -> int:
    """Python calls into ``repro.netlayer`` and ``repro.sim.shard`` made
    while ``run()`` executes."""
    profile = cProfile.Profile()
    profile.enable()
    run()
    profile.disable()
    return sum(
        ncalls for (filename, _, _), (_, ncalls, *_)
        in pstats.Stats(profile).stats.items()
        if "/repro/netlayer/" in filename or "/repro/sim/shard" in filename)


def test_p2p_traversal_is_six_calls():
    """``output``, ``transmit``, ``_serialize``, then ``_arrive``,
    ``_land``, ``deliver``: 6.  It was 7 while a lossless wire still
    asked ``NoLoss.lose`` for its answer; 7 too at the parent of the
    one-traversal refactor (where ``other_end`` stood in ``_land``'s
    place) and of the DRR fold (where ``_obs_of`` stood in
    ``_serialize``'s)."""
    sim, ia, ib = pair_on(lambda sim, prefix, ia, ib: PointToPointLink(
        sim, ia, ib, bandwidth_bps=10_000_000, delay=0.001, mtu=1500))
    calls = link_layer_calls(lambda: sim.run(until=1.0))
    assert ib.stats.packets_delivered == DATAGRAMS
    assert calls == 6 * DATAGRAMS


def test_lan_traversal_is_six_calls():
    """As p2p; ``_land`` looks the receiver up itself (by the address's
    integer, no ``__int__`` call), where the pre-merge ``_arrive`` called
    ``resolve``: 7 then, 7 with ``lose``, 6 now."""
    def attach(sim, prefix, ia, ib):
        bus = LanBus(sim, prefix)
        bus.attach(ia)
        bus.attach(ib)
    sim, ia, ib = pair_on(attach)
    calls = link_layer_calls(lambda: sim.run(until=1.0))
    assert ib.stats.packets_delivered == DATAGRAMS
    assert calls == 6 * DATAGRAMS


def drr_bursts(bursts):
    """A → B at 10 Mb/s with DRR as A's discipline; every millisecond a
    burst of three 284-byte frames, one per flow, which drains before the
    next: the first goes straight onto the serializer, the other two wait
    for a release."""
    sim = Simulator()
    prefix = Prefix.parse("10.0.1.0/24")
    a, b = Node("A", sim), Node("B", sim)
    ia = a.add_interface(Interface("a0", prefix.host(1), prefix))
    ib = b.add_interface(Interface("b0", prefix.host(2), prefix))
    PointToPointLink(sim, ia, ib, bandwidth_bps=10_000_000, delay=0.001,
                     mtu=1500)
    DrrScheduler(ia)
    b.register_protocol(PROTO_UDP, lambda node, datagram, iface: None)

    def burst():
        for host in (10, 11, 12):
            ia.output(Datagram(src=prefix.host(host), dst=ib.address,
                               protocol=PROTO_UDP, payload=b"x" * 256))
    for i in range(bursts):
        sim.post(0.001 * i, burst)
    return sim, ib


def test_drr_traversal_is_eleven_calls_per_frame(monkeypatch):
    """``output``, ``transmit``, ``enqueue``, ``_classify``,
    ``flow_key_of``, ``_release``, ``dequeue``, ``_serialize``, then
    ``_arrive``, ``_land``, ``deliver``: 11 per frame, plus once per burst
    the release that finds nothing held (``_release``, ``dequeue``).  It
    was 12 while a lossless wire asked ``NoLoss.lose``.  The scheduler in
    front of the link took 14 per frame
    (its serve lambda, ``_serve_next``, ``_select``, ``transmit_now``,
    ``_obs_of``) + 2 per burst, and built a cancellable ``EventHandle``
    per frame; the discipline builds nothing per frame, and one flow
    queue per flow, ever."""
    flow_queues = []

    class CountedFlowQueue(scheduler._FlowQueue):
        def __init__(self, key, **kwargs):
            super().__init__(key, **kwargs)
            flow_queues.append(key)
    monkeypatch.setattr(scheduler, "_FlowQueue", CountedFlowQueue)
    calls = {}
    for bursts in (DATAGRAMS, 4 * DATAGRAMS):
        del flow_queues[:]
        sim, ib = drr_bursts(bursts)
        profile = cProfile.Profile()
        profile.enable()
        sim.run(until=1.0 + 0.001 * bursts)
        profile.disable()
        assert ib.stats.packets_delivered == 3 * bursts
        stats = pstats.Stats(profile).stats.items()
        calls[bursts] = sum(
            ncalls for (filename, _, _), (_, ncalls, *_) in stats
            if "/repro/netlayer/" in filename or "/repro/flows/" in filename)
        assert calls[bursts] == 11 * 3 * bursts + 2 * bursts
        assert sum(ncalls for (filename, _, name), (_, ncalls, *_) in stats
                   if filename.endswith("/repro/sim/engine.py")
                   and name == "__init__") == 0          # no EventHandle
        assert len(flow_queues) == 3
    assert calls[4 * DATAGRAMS] <= 4.1 * calls[DATAGRAMS]


#: The RFC-791 codec: none of it may run for an in-process crossing.
CODEC = {("/repro/ip/packet.py", "to_bytes"),
         ("/repro/ip/packet.py", "from_bytes"),
         ("/repro/ip/checksum.py", "internet_checksum"),
         ("/repro/ip/checksum.py", "verify_checksum")}


def test_conduit_crossing_is_seven_calls():
    """Egress ``output``, ``transmit``, ``_serialize``, ``_in_flight`` (the
    outbox record), then the slot release ``_arrive``, ``_land``; ingress
    ``deliver``, which the far shard posts bound to the datagram itself:
    7.  It was 8 while the lossless conduit asked ``NoLoss.lose``, and 10
    before that, two more on the ingress parse (``_Ingress()`` and its
    call) and the codec run twice per crossing — a pack with its header
    checksum, then an unpack with its verify.  One window each side adds
    ``deliver`` + ``run_window`` twice."""
    class Net:
        pass
    calls = {}
    for sends in (DATAGRAMS, 4 * DATAGRAMS):
        outbox = []
        sim, ia, ib = pair_on(lambda sim, prefix, ia, ib: ConduitPort(
            sim, ia, dst_shard=1, dst_port="b", outbox=outbox,
            bandwidth_bps=10_000_000, delay=0.001, mtu=1500), sends)
        egress_net, ingress_net = Net(), Net()
        egress_net.sim, ingress_net.sim = sim, Simulator()
        ib.node.sim = ingress_net.sim
        egress = ShardHarness(0, 2, lambda shard, n: ShardBuild(
            net=egress_net, outbox=outbox))
        ingress = ShardHarness(1, 2, lambda shard, n: ShardBuild(
            net=ingress_net, ports={"b": ib}))
        profile = cProfile.Profile()
        profile.enable()
        egress.deliver([])
        ingress.deliver(egress.run_window(5.0))   # records pass straight on
        ingress.run_window(5.0)
        profile.disable()
        assert ib.stats.packets_delivered == sends
        stats = pstats.Stats(profile).stats.items()
        calls[sends] = sum(
            ncalls for (filename, _, _), (_, ncalls, *_) in stats
            if "/repro/netlayer/" in filename or "/repro/sim/shard" in filename)
        assert calls[sends] == 7 * sends + 4
        assert sum(ncalls for (filename, _, name), (_, ncalls, *_) in stats
                   if any(filename.endswith(module) and name == function
                          for module, function in CODEC)) == 0
    assert calls[4 * DATAGRAMS] <= 4.1 * calls[DATAGRAMS]


# ----------------------------------------------------------------------
# Behaviour the single resolution must not lose
# ----------------------------------------------------------------------
def test_transit_no_route_drops_once_and_advises_once():
    sim, h1, g1, g2, h2, _ = line()
    errors = []
    h1.add_icmp_error_listener(lambda n, m, d: errors.append(m))
    h1.send("203.0.113.5", PROTO_UDP, b"nowhere")
    sim.run(until=1.0)
    assert g1.stats.dropped_no_route == 1
    assert g1.stats.forwarded == 0 and g1.stats.bytes_forwarded == 0
    assert [(m.type, m.code) for m in errors] \
        == [(icmp.DEST_UNREACHABLE, icmp.UNREACH_NET)]


def test_no_redirects_means_no_advice_and_still_one_lookup(two_gateway_lan):
    sim, h, g1, g2, f, bus = two_gateway_lan
    g1.send_redirects = False
    f.register_protocol(PROTO_UDP, lambda n, d, i: None)
    before = lookups(g1)
    h.send("10.0.8.2", PROTO_UDP, b"dog-leg")
    sim.run(until=1.0)
    assert g1.stats.forwarded == 1
    assert g1.stats.icmp_sent == 0
    assert lookups(g1) - before == 1


def test_link_lowered_after_the_lookup_still_drops():
    # Inspectors run between the hop's route resolution and _output, so
    # this is "the link went down while the gateway held a resolved route".
    sim, h1, g1, g2, h2, links = line()
    g1.forward_inspectors.append(lambda datagram: links[1].set_up(False))
    h1.send("10.0.3.2", PROTO_UDP, b"too late")
    sim.run(until=1.0)
    assert g1.stats.dropped_down == 1
    assert g1.stats.forwarded == 0
    assert g2.stats.forwarded == 0


def test_fragmentation_boundary_is_exact():
    core_mtu = 596
    fits = b"f" * (core_mtu - IP_HEADER_LEN - UDP_HEADER_LEN)
    for payload, pieces in [(fits, 0), (fits + b"!", 2)]:
        sim, h1, g1, g2, h2, _ = line(core_mtu=core_mtu)
        sock, got = udp_pair(h1, h2)
        sock.sendto(payload, SINK, 7000)
        sim.run(until=1.0)
        assert got == [payload]
        assert g1.stats.fragments_created == pieces
        assert g1.stats.forwarded == 1


def test_address_equality_branches_keep_their_answers():
    a = Address("10.0.0.1")
    assert a == Address("10.0.0.1") and a != Address("10.0.0.2")
    assert a == "10.0.0.1" and a != "10.0.0.2"
    assert a == 167772161 and a != 167772162
    assert a != object() and a != "not an address"
    assert a.__eq__(object()) is NotImplemented
