"""Unit tests for link substrates: p2p, LAN, satellite, radio, X.25."""

import random

import pytest

from repro import Internet
from repro.ip.address import Address, Prefix
from repro.ip.node import Node
from repro.ip.packet import Datagram, PROTO_UDP
from repro.netlayer.lan import LanBus
from repro.netlayer.link import Interface, PointToPointLink
from repro.netlayer.loss import BernoulliLoss
from repro.netlayer.radio import PacketRadioLink
from repro.netlayer.satellite import SatelliteLink
from repro.netlayer.serial import arpanet_trunk, slow_serial_line, t1_line
from repro.netlayer.x25 import X25Subnet
from repro.sim.engine import Simulator


def wire_pair(sim, link_cls=PointToPointLink, **kwargs):
    a, b = Node("A", sim), Node("B", sim)
    ia = a.add_interface(Interface("a0", Address("10.0.1.1"),
                                   Prefix.parse("10.0.1.0/24")))
    ib = b.add_interface(Interface("b0", Address("10.0.1.2"),
                                   Prefix.parse("10.0.1.0/24")))
    link = link_cls(sim, ia, ib, **kwargs)
    return a, b, ia, ib, link


def dgram(payload=b"x" * 100):
    return Datagram(src=Address("10.0.1.1"), dst=Address("10.0.1.2"),
                    protocol=PROTO_UDP, payload=payload)


def test_p2p_delivers(sim):
    a, b, ia, ib, link = wire_pair(sim, bandwidth_bps=1e6, delay=0.01)
    got = []
    b.register_protocol(PROTO_UDP, lambda n, d, i: got.append(d))
    a.send("10.0.1.2", PROTO_UDP, b"hello")
    sim.run(until=1)
    assert len(got) == 1


def test_p2p_latency_includes_serialization_and_propagation(sim):
    a, b, ia, ib, link = wire_pair(sim, bandwidth_bps=8000, delay=0.1)
    arrivals = []
    b.register_protocol(PROTO_UDP, lambda n, d, i: arrivals.append(sim.now))
    a.send("10.0.1.2", PROTO_UDP, b"x" * 80)  # 100B + 8B framing = 108ms @ 8kb/s
    sim.run(until=1)
    assert arrivals
    assert arrivals[0] == pytest.approx(0.108 + 0.1, abs=1e-6)


def test_p2p_serialization_queues_back_to_back(sim):
    a, b, ia, ib, link = wire_pair(sim, bandwidth_bps=8000, delay=0.0)
    arrivals = []
    b.register_protocol(PROTO_UDP, lambda n, d, i: arrivals.append(sim.now))
    for _ in range(3):
        a.send("10.0.1.2", PROTO_UDP, b"x" * 80)
    sim.run(until=2)
    assert len(arrivals) == 3
    gaps = [arrivals[i + 1] - arrivals[i] for i in range(2)]
    assert all(g == pytest.approx(0.108, abs=1e-6) for g in gaps)


def test_p2p_queue_limit_drops(sim):
    a, b, ia, ib, link = wire_pair(sim, bandwidth_bps=8000, delay=0.0,
                                   queue_limit=2)
    for _ in range(5):
        a.send("10.0.1.2", PROTO_UDP, b"x" * 80)
    assert ia.stats.packets_dropped_queue == 3


def test_p2p_down_drops(sim):
    a, b, ia, ib, link = wire_pair(sim)
    link.set_up(False)
    assert not ia.up
    # The node checks interface liveness before handing off...
    a.send("10.0.1.2", PROTO_UDP, b"x")
    assert a.stats.dropped_down == 1
    # ...and the medium itself also refuses if bypassed directly.
    ia.output(dgram())
    sim.run(until=1)
    assert ia.stats.packets_dropped_down == 1


def test_p2p_in_flight_lost_when_link_dies(sim):
    a, b, ia, ib, link = wire_pair(sim, bandwidth_bps=1e6, delay=0.5)
    got = []
    b.register_protocol(PROTO_UDP, lambda n, d, i: got.append(d))
    a.send("10.0.1.2", PROTO_UDP, b"x")
    sim.schedule(0.1, lambda: link.set_up(False))
    sim.run(until=2)
    assert got == []
    # Everything un-arrived when the link went down is flushed then and
    # accounted as an administrative drop (not a wire loss).
    assert ia.stats.packets_dropped_down == 1
    assert ia.stats.packets_lost == 0


def test_p2p_flap_does_not_resurrect_in_flight_packets(sim):
    """Down→up before the scheduled arrival must NOT deliver the packet.

    Regression: set_up(False) used to zero the queue counter but leave the
    in-flight _arrive event scheduled; if the link came back up before the
    arrival time the 'flushed' packet was delivered anyway.
    """
    a, b, ia, ib, link = wire_pair(sim, bandwidth_bps=1e6, delay=0.5)
    got = []
    b.register_protocol(PROTO_UDP, lambda n, d, i: got.append(d))
    a.send("10.0.1.2", PROTO_UDP, b"x")
    # Arrival is at ~0.5008s; flap down at 0.1 and back up at 0.2.
    sim.schedule(0.1, lambda: link.set_up(False))
    sim.schedule(0.2, lambda: link.set_up(True))
    sim.run(until=2)
    assert got == [], "flushed packet was resurrected by the flap"
    assert ia.stats.packets_dropped_down == 1
    # A packet sent after the flap cleared goes through normally.
    a.send("10.0.1.2", PROTO_UDP, b"y")
    sim.run(until=4)
    assert len(got) == 1
    assert got[0].payload == b"y"


def test_lan_flap_does_not_resurrect_in_flight_frames(sim):
    prefix = Prefix.parse("10.0.2.0/24")
    a, b = Node("A", sim), Node("B", sim)
    ia = a.add_interface(Interface("a0", prefix.host(1), prefix))
    ib = b.add_interface(Interface("b0", prefix.host(2), prefix))
    bus = LanBus(sim, prefix, delay=0.5)
    bus.attach(ia)
    bus.attach(ib)
    got = []
    b.register_protocol(PROTO_UDP, lambda n, d, i: got.append(d))
    a.send(str(prefix.host(2)), PROTO_UDP, b"x")
    sim.schedule(0.1, lambda: bus.set_up(False))
    sim.schedule(0.2, lambda: bus.set_up(True))
    sim.run(until=2)
    assert got == []
    assert ia.stats.packets_dropped_down == 1


def test_p2p_loss_model_applied(sim):
    a, b, ia, ib, link = wire_pair(sim, loss=BernoulliLoss(1.0),
                                   rng=random.Random(1))
    got = []
    b.register_protocol(PROTO_UDP, lambda n, d, i: got.append(d))
    a.send("10.0.1.2", PROTO_UDP, b"x")
    sim.run(until=1)
    assert got == []
    assert ia.stats.packets_lost == 1


def test_p2p_rejects_sub_minimum_mtu(sim):
    with pytest.raises(ValueError):
        wire_pair(sim, mtu=50)


def test_interface_stats_count_bytes(sim):
    a, b, ia, ib, link = wire_pair(sim)
    a.send("10.0.1.2", PROTO_UDP, b"x" * 100)
    sim.run(until=1)
    assert ia.stats.packets_sent == 1
    assert ia.stats.bytes_sent == 120  # 100 payload + 20 header
    assert ia.stats.link_header_bytes == link.FRAME_OVERHEAD


# ----------------------------------------------------------------------
# LAN
# ----------------------------------------------------------------------
def lan_with_nodes(sim, count=3):
    prefix = Prefix.parse("10.0.9.0/24")
    bus = LanBus(sim, prefix)
    nodes = []
    for i in range(1, count + 1):
        node = Node(f"N{i}", sim)
        iface = Interface(f"n{i}", prefix.host(i), prefix)
        node.add_interface(iface)
        bus.attach(iface)
        nodes.append(node)
    return bus, nodes


def test_lan_unicast(sim):
    bus, nodes = lan_with_nodes(sim)
    got = []
    nodes[1].register_protocol(PROTO_UDP, lambda n, d, i: got.append(d))
    nodes[0].send("10.0.9.2", PROTO_UDP, b"hi")
    sim.run(until=1)
    assert len(got) == 1


def test_lan_broadcast_reaches_all_but_sender(sim):
    bus, nodes = lan_with_nodes(sim, count=4)
    counts = [0, 0, 0, 0]
    for idx, node in enumerate(nodes):
        node.register_protocol(
            PROTO_UDP, lambda n, d, i, idx=idx: counts.__setitem__(idx, counts[idx] + 1))
    nodes[0].send("10.0.9.255", PROTO_UDP, b"all", ttl=1)
    sim.run(until=1)
    assert counts == [0, 1, 1, 1]


def test_lan_directed_broadcast_payload_intact_at_every_member():
    # A LAN hands the *same* datagram object to every member: each one
    # must see the whole payload, whatever the others did with it.
    net = Internet(seed=3)
    g = net.gateway("G")
    hosts = [net.host(f"H{i}") for i in range(3)]
    lan = net.lan("lan0", [g] + hosts)
    net.start_routing()
    net.converge(settle=5.0)
    got = []
    for h in hosts:
        h.node.register_protocol(
            200, lambda node, d, iface: got.append((node.name, d.payload)))
    assert g.node.send(lan.prefix.broadcast, 200, b"to-everyone", ttl=1)
    net.sim.run(until=net.sim.now + 1.0)
    assert sorted(got) == [(f"H{i}", b"to-everyone") for i in range(3)]


def test_lan_unknown_address_dropped(sim):
    bus, nodes = lan_with_nodes(sim)
    iface = nodes[0].interfaces[0]
    nodes[0].send("10.0.9.77", PROTO_UDP, b"hi")
    sim.run(until=1)
    assert iface.stats.packets_lost == 1


def test_lan_duplicate_address_rejected(sim):
    bus, nodes = lan_with_nodes(sim)
    dup = Interface("dup", Address("10.0.9.1"), Prefix.parse("10.0.9.0/24"))
    with pytest.raises(ValueError):
        bus.attach(dup)


def test_lan_wrong_prefix_rejected(sim):
    bus, nodes = lan_with_nodes(sim)
    foreign = Interface("f", Address("10.1.0.1"), Prefix.parse("10.1.0.0/24"))
    with pytest.raises(ValueError):
        bus.attach(foreign)


def test_lan_detach(sim):
    bus, nodes = lan_with_nodes(sim)
    bus.detach(nodes[1].interfaces[0])
    assert bus.resolve(Address("10.0.9.2")) is None


# ----------------------------------------------------------------------
# Specialty media
# ----------------------------------------------------------------------
def test_satellite_has_long_delay(sim):
    a, b, ia, ib, link = wire_pair(sim, link_cls=SatelliteLink)
    arrivals = []
    b.register_protocol(PROTO_UDP, lambda n, d, i: arrivals.append(sim.now))
    a.send("10.0.1.2", PROTO_UDP, b"x" * 10)
    sim.run(until=2)
    assert arrivals and arrivals[0] > 0.27


def test_radio_reorders(sim):
    a, b, ia, ib, link = wire_pair(
        sim, link_cls=PacketRadioLink, rng=random.Random(4),
        loss=BernoulliLoss(0.0), reorder_spread=0.2, bandwidth_bps=1e7,
        queue_limit=64)
    seqs = []
    b.register_protocol(PROTO_UDP,
                        lambda n, d, i: seqs.append(int.from_bytes(d.payload[:2], "big")))
    for i in range(40):
        a.send("10.0.1.2", PROTO_UDP, i.to_bytes(2, "big") + b"\x00" * 30)
    sim.run(until=5)
    assert len(seqs) == 40
    assert seqs != sorted(seqs)  # reordering occurred


def test_radio_default_loss_is_bursty(sim):
    a, b, ia, ib, link = wire_pair(sim, link_cls=PacketRadioLink,
                                   rng=random.Random(11))
    got = []
    b.register_protocol(PROTO_UDP, lambda n, d, i: got.append(d))
    for i in range(300):
        a.send("10.0.1.2", PROTO_UDP, b"\x00" * 32)
    sim.run(until=60)
    assert 0 < len(got) < 300  # some loss, not total


def test_x25_never_loses_and_preserves_order(sim):
    a, b, ia, ib, link = wire_pair(sim, link_cls=X25Subnet,
                                   rng=random.Random(5),
                                   internal_retx_prob=0.3)
    seqs = []
    b.register_protocol(PROTO_UDP,
                        lambda n, d, i: seqs.append(int.from_bytes(d.payload[:2], "big")))
    for i in range(50):
        a.send("10.0.1.2", PROTO_UDP, i.to_bytes(2, "big") + b"\x00" * 30)
    sim.run(until=60)
    assert seqs == list(range(50))


def test_x25_internal_retransmission_adds_delay(sim):
    # With retx probability 1 capped by the geometric draw, delay spikes.
    a1, b1, _, _, _ = wire_pair(sim, link_cls=X25Subnet,
                                rng=random.Random(5), internal_retx_prob=0.0)
    t_clean = []
    b1.register_protocol(PROTO_UDP, lambda n, d, i: t_clean.append(sim.now))
    a1.send("10.0.1.2", PROTO_UDP, b"x" * 10)
    sim.run(until=5)

    sim2 = Simulator()
    a2, b2, _, _, _ = wire_pair(sim2, link_cls=X25Subnet,
                                rng=random.Random(5), internal_retx_prob=0.9)
    t_retx = []
    b2.register_protocol(PROTO_UDP, lambda n, d, i: t_retx.append(sim2.now))
    a2.send("10.0.1.2", PROTO_UDP, b"x" * 10)
    sim2.run(until=60)
    assert t_retx[0] > t_clean[0]


def test_serial_presets_have_expected_character(sim):
    a, b, ia, ib, trunk = wire_pair(sim, link_cls=lambda s, x, y, **kw:
                                    arpanet_trunk(s, x, y, **kw))
    assert trunk.bandwidth_bps == 56_000.0
    assert trunk.mtu == 1006

    sim2 = Simulator()
    a2, b2, i2, j2, t1 = wire_pair(sim2, link_cls=lambda s, x, y, **kw:
                                   t1_line(s, x, y, **kw))
    assert t1.bandwidth_bps > 1e6

    sim3 = Simulator()
    a3, b3, i3, j3, slow = wire_pair(sim3, link_cls=lambda s, x, y, **kw:
                                     slow_serial_line(s, x, y, **kw))
    assert slow.mtu == 296


# ----------------------------------------------------------------------
# One traversal: what the four copies disagreed about
# ----------------------------------------------------------------------
def red_burst(sim, link_cls, **kwargs):
    """40 back-to-back sends through RED(min_th=2, max_th=6) in front of
    a slow line; returns each send's fate and the RED counters."""
    from repro.netlayer.red import RedParams, RedState

    a, b, ia, ib, link = wire_pair(sim, link_cls=link_cls, bandwidth_bps=8000,
                                   delay=0.0, **kwargs)
    red = RedState(RedParams(min_th=2.0, max_th=6.0, max_p=0.5, weight=1.0),
                   random.Random(3))
    link.enable_red(ia, red)
    fates = []
    for _ in range(40):
        dropped = ia.stats.packets_dropped_queue
        ia.output(dgram())
        fates.append(ia.stats.packets_dropped_queue > dropped)
    return fates, red.counters()


def test_x25_honours_red_like_a_p2p_link():
    # Was: X25Subnet.enable_red() was accepted and ignored (0 drops where
    # the same RedState on a p2p link dropped most of the burst).
    on_p2p = red_burst(Simulator(), PointToPointLink)
    on_x25 = red_burst(Simulator(), X25Subnet, internal_retx_prob=0.0)
    assert on_x25 == on_p2p
    assert sum(on_x25[0]) > 20 and on_x25[1]["arrivals"] == 40


def test_lan_down_drop_is_a_named_journey_drop(sim):
    # Was: a transmit onto a lowered LanBus bumped packets_dropped_down
    # and told nobody; p2p and X.25 recorded "drop-link-down".
    from repro.obs.core import Observability

    bus, nodes = lan_with_nodes(sim)
    obs = nodes[0].obs = Observability(profile=False)
    iface = nodes[0].interfaces[0]
    bus.set_up(False)
    datagram = dgram()
    datagram.trace_id = 7
    iface.output(datagram, Address("10.0.9.2"))
    assert iface.stats.packets_dropped_down == 1
    assert [(s.node, s.kind, s.verdict, s.detail) for s in obs.journey(7)] \
        == [("N1", "drop", "drop-link-down", bus.name)]


def test_lan_red_covers_the_shared_channel(sim):
    # The bus has one transmitter, so RED enabled through any member
    # judges every member's frames (one channel record, shared).
    from repro.netlayer.red import RedParams, RedState

    bus, nodes = lan_with_nodes(sim)
    red = RedState(RedParams(min_th=1.0, max_th=2.0, weight=1.0),
                   random.Random(0))
    bus.enable_red(nodes[0].interfaces[0], red)
    for node in nodes:
        for _ in range(3):
            node.interfaces[0].output(dgram(), Address("10.0.9.1"))
    assert red.arrivals == 9
    assert sum(n.interfaces[0].stats.packets_dropped_queue
               for n in nodes) == red.forced_dropped == 7
    with pytest.raises(ValueError):
        bus.enable_red(Interface("x", Address("10.0.9.9"),
                                 Prefix.parse("10.0.9.0/24")), red)
