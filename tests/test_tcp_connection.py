"""Behavioural tests for the TCP connection state machine."""

import random

import pytest

from repro.ip.address import Address, Prefix
from repro.ip.node import Node
from repro.netlayer.link import Interface, PointToPointLink
from repro.netlayer.loss import BernoulliLoss
from repro.sim.engine import Simulator
from repro.tcp.connection import TcpConfig
from repro.tcp.stack import TcpStack
from repro.tcp.state import TcpState


def tcp_pair(sim, *, loss=None, seed=0, bandwidth=1e6, delay=0.005,
             mtu=1500, client_config=None, server_config=None):
    """Two directly connected hosts with TCP stacks."""
    a, b = Node("A", sim), Node("B", sim)
    ia = a.add_interface(Interface("a0", Address("10.0.1.1"),
                                   Prefix.parse("10.0.1.0/24")))
    ib = b.add_interface(Interface("b0", Address("10.0.1.2"),
                                   Prefix.parse("10.0.1.0/24")))
    link = PointToPointLink(sim, ia, ib, bandwidth_bps=bandwidth, delay=delay,
                            mtu=mtu, loss=loss, rng=random.Random(seed),
                            queue_limit=256)
    return (TcpStack(a, client_config), TcpStack(b, server_config),
            a, b, link)


def accept_collect(stack, port):
    """Listen and collect (connections, received bytes)."""
    conns, data = [], bytearray()

    def on_conn(c):
        conns.append(c)
        c.on_receive = data.extend

    stack.listen(port, on_conn)
    return conns, data


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------
def test_three_way_handshake(sim):
    ca, cb, *_ = tcp_pair(sim)
    conns, _ = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    assert conn.state is TcpState.SYN_SENT
    sim.run(until=1)
    assert conn.state is TcpState.ESTABLISHED
    assert conns[0].state is TcpState.ESTABLISHED


def test_established_callback_fires_once(sim):
    ca, cb, *_ = tcp_pair(sim)
    accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    events = []
    conn.on_established = lambda: events.append(sim.now)
    sim.run(until=2)
    assert len(events) == 1


def test_mss_negotiated_to_minimum(sim):
    ca, cb, *_ = tcp_pair(
        sim,
        client_config=TcpConfig(mss=1460),
        server_config=TcpConfig(mss=512),
    )
    conns, _ = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    sim.run(until=1)
    assert conn.snd_mss == 512
    assert conns[0].snd_mss == 512


def test_syn_retransmitted_under_loss(sim):
    # 100% loss initially; heal the link after 2 seconds.
    loss = BernoulliLoss(1.0)
    ca, cb, a, b, link = tcp_pair(sim, loss=loss)
    accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    sim.schedule(2.0, lambda: setattr(loss, "rate", 0.0))
    sim.run(until=30)
    assert conn.state is TcpState.ESTABLISHED
    assert conn.stats.segments_retransmitted >= 1


def test_connect_to_refusing_port_gets_reset(sim):
    ca, cb, *_ = tcp_pair(sim)  # nobody listens on 81
    conn = ca.connect("10.0.1.2", 81)
    resets = []
    conn.on_reset = lambda: resets.append(1)
    sim.run(until=2)
    assert conn.state is TcpState.CLOSED
    assert resets == [1]


def test_syn_exhaustion_gives_up(sim):
    ca, cb, a, b, link = tcp_pair(sim, loss=BernoulliLoss(1.0),
                                  client_config=TcpConfig(syn_retries=2))
    conn = ca.connect("10.0.1.2", 80)
    closed = []
    conn.on_close = lambda: closed.append(sim.now)
    sim.run(until=120)
    assert conn.state is TcpState.CLOSED
    assert closed


def test_simultaneous_open(sim):
    ca, cb, *_ = tcp_pair(sim)
    c1 = ca.connect("10.0.1.2", 7001, local_port=7000)
    c2 = cb.connect("10.0.1.1", 7000, local_port=7001)
    sim.run(until=5)
    assert c1.state is TcpState.ESTABLISHED
    assert c2.state is TcpState.ESTABLISHED


# ----------------------------------------------------------------------
# Data transfer
# ----------------------------------------------------------------------
def test_small_transfer(sim):
    ca, cb, *_ = tcp_pair(sim)
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    conn.on_established = lambda: conn.send(b"hello, world")
    sim.run(until=2)
    assert bytes(data) == b"hello, world"


def test_large_transfer_intact(sim):
    ca, cb, *_ = tcp_pair(sim)
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    payload = bytes(range(256)) * 128  # 32 KiB fits the send buffer
    conn.on_established = lambda: conn.send(payload)
    sim.run(until=30)
    assert bytes(data) == payload


def test_transfer_survives_loss(sim):
    ca, cb, *_ = tcp_pair(sim, loss=BernoulliLoss(0.1), seed=3)
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    payload = bytes(range(256)) * 64
    conn.on_established = lambda: conn.send(payload)
    sim.run(until=120)
    assert bytes(data) == payload
    assert conn.stats.segments_retransmitted > 0


def test_mss_respected_on_wire(sim):
    ca, cb, a, b, link = tcp_pair(sim, client_config=TcpConfig(mss=200))
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    conn.on_established = lambda: conn.send(b"z" * 1000)
    sim.run(until=5)
    assert bytes(data) == b"z" * 1000
    # No IP fragmentation should have occurred (segments fit the MTU).
    assert a.stats.fragments_created == 0


def test_bidirectional_data(sim):
    ca, cb, *_ = tcp_pair(sim)
    server_rx = bytearray()

    def on_conn(c):
        def rx(d):
            server_rx.extend(d)
            c.send(d.upper())
        c.on_receive = rx

    cb.listen(80, on_conn)
    client_rx = bytearray()
    conn = ca.connect("10.0.1.2", 80)
    conn.on_receive = client_rx.extend
    conn.on_established = lambda: conn.send(b"abc")
    sim.run(until=5)
    assert bytes(server_rx) == b"abc"
    assert bytes(client_rx) == b"ABC"


def test_nagle_coalesces_small_writes(sim):
    ca, cb, *_ = tcp_pair(sim, client_config=TcpConfig(nagle=True))
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)

    def burst():
        for _ in range(20):
            conn.send(b"k")

    conn.on_established = burst
    sim.run(until=5)
    assert bytes(data) == b"k" * 20
    # With Nagle, far fewer data segments than writes.
    data_segments = conn.stats.segments_sent
    assert data_segments < 20


def test_no_nagle_sends_every_write(sim):
    ca, cb, *_ = tcp_pair(sim, client_config=TcpConfig(nagle=False,
                                                       congestion_control=False))
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    sent_before = [0]

    def burst():
        sent_before[0] = conn.stats.segments_sent
        for _ in range(10):
            conn.send(b"k")

    conn.on_established = burst
    sim.run(until=5)
    assert bytes(data) == b"k" * 10
    assert conn.stats.segments_sent - sent_before[0] >= 10


def test_push_flag_set_on_write_boundary(sim, ):
    ca, cb, a, b, link = tcp_pair(sim)
    seen_psh = []
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    conn.on_established = lambda: conn.send(b"hello", push=True)
    sim.run(until=2)
    # Verify via the tracer-free route: receiver got the data promptly.
    assert bytes(data) == b"hello"


# ----------------------------------------------------------------------
# Flow control
# ----------------------------------------------------------------------
def test_zero_window_stalls_then_probe_resumes(sim):
    ca, cb, *_ = tcp_pair(
        sim,
        client_config=TcpConfig(window_probe_interval=0.5),
        server_config=TcpConfig(recv_buffer=2048),
    )
    conns = []
    cb.listen(80, conns.append)  # server never reads: window will close
    conn = ca.connect("10.0.1.2", 80)
    payload = b"q" * 8000
    conn.on_established = lambda: conn.send(payload)
    sim.run(until=10)
    server = conns[0]
    # The (SWS-clamped) advertised window has closed.
    assert server._advertised_window() == 0
    assert conn.snd_wnd == 0
    # Now the application starts draining; probes discover each opening.
    def drain():
        server.read()
        if server.rcv.bytes_received < 8000:
            sim.schedule(0.5, drain)

    drain()
    sim.run(until=120)
    assert server.rcv.bytes_received >= 8000
    assert conn.stats.zero_window_probes >= 1


def test_receiver_window_bounds_inflight(sim):
    ca, cb, *_ = tcp_pair(sim, server_config=TcpConfig(recv_buffer=1000))
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    conn.on_established = lambda: conn.send(b"r" * 50_000)
    sim.run(until=60)
    assert bytes(data) == b"r" * 50_000
    assert conn.flight_size <= 65535


# ----------------------------------------------------------------------
# Retransmission machinery
# ----------------------------------------------------------------------
def test_fast_retransmit_triggers_on_dupacks(sim):
    ca, cb, a, b, link = tcp_pair(sim, loss=BernoulliLoss(0.05), seed=11)
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    payload = bytes(range(256)) * 128
    conn.on_established = lambda: conn.send(payload)
    sim.run(until=120)
    assert bytes(data) == payload
    assert conn.stats.fast_retransmits >= 1


def test_no_fast_retransmit_when_disabled(sim):
    cfg = TcpConfig(fast_retransmit=False)
    ca, cb, *_ = tcp_pair(sim, loss=BernoulliLoss(0.05), seed=11,
                          client_config=cfg)
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    payload = bytes(range(256)) * 64
    conn.on_established = lambda: conn.send(payload)
    sim.run(until=240)
    assert bytes(data) == payload
    assert conn.stats.fast_retransmits == 0


def test_repacketization_coalesces_on_retransmit(sim):
    """Byte sequencing's payoff (§9): after many tiny writes are lost, the
    retransmission re-slices them into one MSS-sized segment."""
    loss = BernoulliLoss(1.0)
    cfg = TcpConfig(nagle=False, repacketize=True, congestion_control=False)
    ca, cb, a, b, link = tcp_pair(sim, loss=loss, client_config=cfg)
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    sim.schedule(0.0, lambda: setattr(loss, "rate", 0.0))
    sim.run(until=1)
    assert conn.state is TcpState.ESTABLISHED
    # Now lose everything, emit 10 tiny writes, then heal and watch one
    # coalesced retransmission carry them all.
    loss.rate = 1.0
    for _ in range(10):
        conn.send(b"x")
    sim.schedule(1.0, lambda: setattr(loss, "rate", 0.0))
    sim.run(until=60)
    assert bytes(data) == b"x" * 10
    # The recovery retransmission(s) must have coalesced several writes.
    assert conn.stats.bytes_retransmitted >= 10
    assert conn.stats.segments_retransmitted < 10


def test_no_repacketization_resends_original_boundaries(sim):
    loss = BernoulliLoss(0.0)
    cfg = TcpConfig(nagle=False, repacketize=False, congestion_control=False)
    ca, cb, a, b, link = tcp_pair(sim, loss=loss, client_config=cfg)
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    sim.run(until=1)
    loss.rate = 1.0
    for _ in range(5):
        conn.send(b"y")
    sim.schedule(5.0, lambda: setattr(loss, "rate", 0.0))
    sim.run(until=120)
    assert bytes(data) == b"y" * 5
    # Each original tiny segment had to be resent on its own boundary:
    assert conn.stats.segments_retransmitted >= 5


def test_no_repacketization_boundary_records_are_dropped_as_acked(sim):
    """E9's policy under loss: go-back-N resends reuse the recorded
    boundaries, and a record lives only until its segment is acked."""
    cfg = TcpConfig(repacketize=False)
    ca, cb, *_ = tcp_pair(sim, loss=BernoulliLoss(0.03), seed=5,
                          client_config=cfg)
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    payload = bytes(range(256)) * 200
    conn.on_established = lambda: conn.send(payload)
    most = 0
    while len(data) < len(payload) and sim.now < 600:
        sim.run(until=sim.now + 0.05)
        most = max(most, len(conn._sent_boundaries))
    assert bytes(data) == payload
    assert conn.stats.segments_retransmitted > 0
    assert 0 < most <= len(payload) // conn.snd_mss + 1
    sim.run(until=sim.now + 5)
    assert not conn._sent_boundaries


def test_retransmit_exhaustion_closes_connection(sim):
    loss = BernoulliLoss(0.0)
    cfg = TcpConfig(max_retransmits=3)
    ca, cb, a, b, link = tcp_pair(sim, loss=loss, client_config=cfg)
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    conn.on_established = lambda: None
    sim.run(until=1)
    loss.rate = 1.0
    conn.send(b"doomed")
    sim.run(until=600)
    assert conn.state is TcpState.CLOSED


def test_rtt_measured(sim):
    ca, cb, *_ = tcp_pair(sim, delay=0.05)
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    conn.on_established = lambda: conn.send(b"m" * 100)
    sim.run(until=5)
    assert conn.rto.srtt is not None
    assert conn.rto.srtt >= 0.1  # at least 2x the one-way delay


# ----------------------------------------------------------------------
# Close / teardown
# ----------------------------------------------------------------------
def test_orderly_close_both_sides(sim):
    ca, cb, *_ = tcp_pair(sim, client_config=TcpConfig(msl=0.5),
                          server_config=TcpConfig(msl=0.5))
    conns = []

    def on_conn(c):
        conns.append(c)
        c.on_receive = lambda d: None
        c.on_close = c.close  # close when the peer closes

    cb.listen(80, on_conn)
    conn = ca.connect("10.0.1.2", 80)

    def send_and_close():
        conn.send(b"bye")
        conn.close()

    conn.on_established = send_and_close
    sim.run(until=60)
    assert conn.state is TcpState.CLOSED
    assert conns[0].state is TcpState.CLOSED


def test_fin_waits_for_buffered_data(sim):
    ca, cb, *_ = tcp_pair(sim, bandwidth=64_000)
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)

    def send_then_close():
        conn.send(b"D" * 20_000)
        conn.close()

    conn.on_established = send_then_close
    sim.run(until=60)
    assert bytes(data) == b"D" * 20_000  # nothing truncated by close


def test_half_close_peer_can_still_send(sim):
    ca, cb, *_ = tcp_pair(sim)
    server_conns = []

    def on_conn(c):
        server_conns.append(c)
        c.on_receive = lambda d: None

    cb.listen(80, on_conn)
    client_rx = bytearray()
    conn = ca.connect("10.0.1.2", 80)
    conn.on_receive = client_rx.extend
    conn.on_established = conn.close  # client finishes immediately
    sim.run(until=2)
    server = server_conns[0]
    assert server.state is TcpState.CLOSE_WAIT
    server.send(b"still talking")   # data flows the other way
    sim.run(until=5)
    assert bytes(client_rx) == b"still talking"


def test_time_wait_then_closed(sim):
    cfg = TcpConfig(msl=1.0)
    ca, cb, *_ = tcp_pair(sim, client_config=cfg)
    conns = []

    def on_conn(c):
        conns.append(c)
        c.on_close = c.close

    cb.listen(80, on_conn)
    conn = ca.connect("10.0.1.2", 80)
    conn.on_established = conn.close
    sim.run(until=1.5)
    assert conn.state in (TcpState.TIME_WAIT, TcpState.CLOSED)
    sim.run(until=10)
    assert conn.state is TcpState.CLOSED


def test_abort_sends_rst(sim):
    ca, cb, *_ = tcp_pair(sim)
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    sim.run(until=1)
    reset_seen = []
    conns[0].on_reset = lambda: reset_seen.append(1)
    conn.abort()
    sim.run(until=2)
    assert conn.state is TcpState.CLOSED
    assert conns[0].state is TcpState.CLOSED
    assert reset_seen == [1]


def test_send_after_close_raises(sim):
    ca, cb, *_ = tcp_pair(sim)
    accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    sim.run(until=1)
    conn.close()
    with pytest.raises(ConnectionError):
        conn.send(b"late")


def test_congestion_window_collapses_on_timeout(sim):
    loss = BernoulliLoss(0.0)
    ca, cb, *_ = tcp_pair(sim, loss=loss)
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    conn.on_established = lambda: conn.send(b"c" * 30_000)
    sim.run(until=3)
    grown = conn.cwnd
    assert grown > conn.snd_mss
    loss.rate = 1.0
    conn.send(b"c" * 1000)
    sim.run(until=30)
    loss.rate = 0.0
    assert conn.cwnd <= 2 * conn.snd_mss


def test_retransmitted_synack_does_not_reset_established_connection(sim):
    """Regression (found by hypothesis): when the client's handshake ACK is
    lost, the server retransmits its SYN-ACK into the client's ESTABLISHED
    state.  That wholly-old segment must be answered with a plain ACK —
    under a too-loose acceptability check its SYN bit trips the
    'SYN while synchronized' reset and aborts a healthy connection."""
    loss = BernoulliLoss(0.0)
    ca, cb, a, b, link = tcp_pair(sim, loss=loss)
    conns, data = accept_collect(cb, 80)
    conn = ca.connect("10.0.1.2", 80)
    sim.run(until=1)
    assert conn.state is TcpState.ESTABLISHED
    server = conns[0]
    # Forge the server's SYN-ACK retransmission arriving late.
    from repro.tcp.segment import FLAG_ACK, FLAG_SYN, TcpSegment
    stale = TcpSegment(
        src_port=80, dst_port=conn.local_port, seq=server.iss,
        ack=conn.snd_nxt, flags=FLAG_SYN | FLAG_ACK,
        window=server.config.recv_buffer, mss_option=server.config.mss)
    conn.segment_arrived(stale)
    assert conn.state is TcpState.ESTABLISHED  # shrugged off, not aborted
    # And the stream still works afterwards.
    conn.send(b"still alive")
    sim.run(until=3)
    assert bytes(data) == b"still alive"


# ----------------------------------------------------------------------
# The MSS floor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("option", [0, 1])
def test_tiny_peer_mss_option_is_clamped_and_the_transfer_completes(
        sim, monkeypatch, option):
    """A SYN whose MSS option is below the floor: the receiver of that SYN
    sends segments of at least ``MIN_MSS``.  Before the floor an option of
    0 cut 0-byte segments forever and froze the simulation, so the floor
    is asserted before any data is written: a regression fails here, it
    does not hang."""
    from dataclasses import replace

    from repro.tcp.connection import MIN_MSS
    ca, cb, *_ = tcp_pair(sim)
    conns, _ = accept_collect(cb, 80)
    transmit = TcpStack.transmit

    def tiny_syn_mss(stack, conn, seg):
        if stack is ca and seg.syn:
            seg = replace(seg, mss_option=option)
        transmit(stack, conn, seg)

    monkeypatch.setattr(TcpStack, "transmit", tiny_syn_mss)
    conn = ca.connect("10.0.1.2", 80)
    received = bytearray()
    conn.on_receive = received.extend
    sim.run(until=1)
    server = conns[0]
    assert server.state is TcpState.ESTABLISHED
    assert server.snd_mss == MIN_MSS
    server.send(bytes(range(250)) * 4)
    sim.run(until=3)
    assert bytes(received) == bytes(range(250)) * 4


def test_config_mss_below_the_floor_is_refused():
    from repro.tcp.connection import MIN_MSS
    for mss in (0, 1, MIN_MSS - 1):
        with pytest.raises(ValueError, match="below the floor"):
            TcpConfig(mss=mss)
    assert TcpConfig(mss=MIN_MSS).mss == MIN_MSS
