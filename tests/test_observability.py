"""Tests driven through the tracer and other observability surfaces."""

import random

import pytest

from repro.flows.scheduler import DrrScheduler
from repro.ip.address import Address, Prefix
from repro.ip.node import Node
from repro.ip.packet import Datagram, PROTO_UDP
from repro.netlayer.link import Interface, PointToPointLink
from repro.netlayer.loss import BernoulliLoss
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.tcp.stack import TcpStack


def traced_pair(sim, tracer, *, loss=None, seed=0):
    a = Node("A", sim, tracer=tracer)
    b = Node("B", sim, tracer=tracer)
    ia = a.add_interface(Interface("a0", Address("10.0.1.1"),
                                   Prefix.parse("10.0.1.0/24")))
    ib = b.add_interface(Interface("b0", Address("10.0.1.2"),
                                   Prefix.parse("10.0.1.0/24")))
    PointToPointLink(sim, ia, ib, bandwidth_bps=1e6, delay=0.005,
                     loss=loss, rng=random.Random(seed))
    return a, b


def test_tcp_lifecycle_appears_in_trace(sim):
    tracer = Tracer()
    a, b = traced_pair(sim, tracer)
    sa, sb = TcpStack(a), TcpStack(b)
    sb.listen(80, lambda c: setattr(c, "on_close", c.close))
    conn = sa.connect("10.0.1.2", 80)

    def finish():
        conn.send(b"bye")
        conn.close()

    conn.on_established = finish
    sim.run(until=60)
    assert tracer.count(component="tcp", node="A", event="syn-sent") == 1
    assert tracer.count(component="tcp", node="B", event="syn-received") == 1
    assert tracer.count(component="tcp", event="established") == 2
    assert tracer.count(component="tcp", node="A", event="fin-sent") == 1
    assert tracer.count(component="tcp", node="B", event="fin-received") == 1


def test_syn_retransmissions_counted_in_trace(sim):
    tracer = Tracer()
    loss = BernoulliLoss(1.0)
    a, b = traced_pair(sim, tracer, loss=loss)
    sa, sb = TcpStack(a), TcpStack(b)
    sb.listen(80, lambda c: None)
    conn = sa.connect("10.0.1.2", 80)
    # Heal after ~two retransmission intervals (3 s initial RTO).
    sim.schedule(8.0, lambda: setattr(loss, "rate", 0.0))
    sim.run(until=60)
    from repro.tcp.state import TcpState
    assert conn.state is TcpState.ESTABLISHED
    # SYN went out at t=0, ~3 s, ~9 s (backoff x2): >= 2 retransmissions.
    assert conn.stats.segments_retransmitted >= 2


def test_fragmentation_traced(sim):
    tracer = Tracer()
    a, b = traced_pair(sim, tracer)
    # Shrink the path MTU below the payload.
    a.interfaces[0].medium.mtu = 200
    b.register_protocol(PROTO_UDP, lambda n, d, i: None)
    a.send("10.0.1.2", PROTO_UDP, b"z" * 500)
    sim.run(until=1)
    assert tracer.count(component="ip", node="A", event="frag") == 1


def test_node_crash_traced(sim):
    tracer = Tracer()
    a, b = traced_pair(sim, tracer)
    a.crash()
    a.restore()
    assert tracer.count(component="node", node="A", event="crash") == 1
    assert tracer.count(component="node", node="A", event="restore") == 1


# ----------------------------------------------------------------------
# Scheduler ordering details
# ----------------------------------------------------------------------
def p2p_pair(sim):
    a = Node("A", sim)
    b = Node("B", sim)
    ia = a.add_interface(Interface("a0", Address("10.0.1.1"),
                                   Prefix.parse("10.0.1.0/24")))
    ib = b.add_interface(Interface("b0", Address("10.0.1.2"),
                                   Prefix.parse("10.0.1.0/24")))
    PointToPointLink(sim, ia, ib, bandwidth_bps=10e6, delay=0.001)
    return a, b, ia


def test_drop_tail_preserves_arrival_order(sim):
    """The 1988 gateway is the link's own drop-tail queue: two "flows"
    interleaved in a burst must not be reordered across flows."""
    a, b, ia = p2p_pair(sim)
    got = []
    b.register_protocol(PROTO_UDP,
                        lambda n, d, i: got.append(d.payload[:1]))
    for i in range(10):
        a.send("10.0.1.2", PROTO_UDP,
               (b"A" if i % 2 == 0 else b"B") + bytes([i]))
    sim.run(until=5)
    assert got == [b"A", b"B"] * 5


def test_drr_flow_stats_expose_service(sim):
    a, b, ia = p2p_pair(sim)
    sched = DrrScheduler(ia)
    got = []
    b.register_protocol(PROTO_UDP, lambda n, d, i: got.append(d.payload[0]))
    for i in range(5):
        a.send("10.0.1.2", PROTO_UDP, bytes([i]) + b"x" * 99)
    sim.run(until=2)
    stats = sched.flow_stats()
    assert sum(packets for packets, drops in stats.values()) == 5
    assert sched.stats.dequeued == 5
    assert sched.queued_packets == 0
    assert got == list(range(5))      # released in order at the far end


# ----------------------------------------------------------------------
# StreamSocket under reset
# ----------------------------------------------------------------------
def test_stream_socket_reports_peer_reset(simple_internet):
    net, h1, h2, core = simple_internet
    server_socks = []
    h2.listen(4000, server_socks.append)
    sock = h1.connect(h2.address, 4000)
    closed = []
    sock.on_closed = lambda: closed.append(net.sim.now)
    net.sim.run(until=net.sim.now + 2)
    server_socks[0].abort()           # peer slams the door
    net.sim.run(until=net.sim.now + 5)
    assert closed
    from repro.tcp.state import TcpState
    assert sock.conn.state is TcpState.CLOSED
