"""Wire-trace pins: every TCP segment both hosts emit, byte for byte.

Each case runs a small seeded scenario over H1 — G — H2 and records
``(time, src, dst, wire bytes)`` for every TCP segment either host hands
to IP.  The sha256 of that trace is pinned: a change to the codec, the
send path, the timers or the receive path that alters a single byte or a
single instant of any segment fails here, in whichever corner it
happened.  The matrix covers loss, reordering, delayed ACKs on and off,
Nagle, ECN with RED marks, urgent data, a zero window held open by the
persist timer, no repacketization, keepalive against a rebooted peer, and
resets.  The traces repeat exactly, whatever the hash seed.
"""

import hashlib
import random

import pytest

from repro.ip.node import Node
from repro.ip.packet import PROTO_TCP
from repro.netlayer.link import PointToPointLink
from repro.netlayer.loss import BernoulliLoss
from repro.netlayer.radio import PacketRadioLink
from repro.netlayer.red import RedParams, RedState
from repro.sim.engine import Simulator
from repro.sockets.api import Gateway, Host
from repro.tcp.connection import TcpConfig
from repro.tcp.segment import FLAG_RST, TcpSegment

PORT = 4000


class Line:
    """H1 — G — H2 with static routes; ``trace`` collects every TCP
    segment the two hosts send, as they send it."""

    def __init__(self, monkeypatch, *, seed=1, h1=None, h2=None, loss=None,
                 radio=False, red=False, bandwidth2=2_000_000.0):
        self.sim = sim = Simulator()
        self.h1 = Host("H1", sim, tcp_config=h1)
        self.g = Gateway("G", sim)
        self.h2 = Host("H2", sim, tcp_config=h2)
        PointToPointLink(sim, self.h1.attach("eth0", "10.0.1.1", "10.0.1.0/24"),
                         self.g.attach("g0", "10.0.1.2", "10.0.1.0/24"),
                         bandwidth_bps=2_000_000.0, delay=0.002, mtu=1500,
                         queue_limit=64, loss=loss, rng=random.Random(seed))
        g1 = self.g.attach("g1", "10.0.2.1", "10.0.2.0/24")
        h2_if = self.h2.attach("eth0", "10.0.2.2", "10.0.2.0/24")
        if radio:
            PacketRadioLink(sim, g1, h2_if, bandwidth_bps=bandwidth2,
                            delay=0.004, mtu=1500, queue_limit=64,
                            loss=BernoulliLoss(0.02), reorder_spread=0.01,
                            rng=random.Random(seed + 1))
        else:
            link = PointToPointLink(sim, g1, h2_if, bandwidth_bps=bandwidth2,
                                    delay=0.004, mtu=1500, queue_limit=64,
                                    rng=random.Random(seed + 1))
            if red:
                link.enable_red(g1, RedState(
                    RedParams(min_th=2.0, max_th=12.0, max_p=0.3),
                    random.Random(seed + 2)))
        self.h1.default_route("10.0.1.2")
        self.h2.default_route("10.0.2.1")
        self.trace = []
        send = Node.send

        def recorded(node, dst, protocol, payload, **kwargs):
            if protocol == PROTO_TCP:
                self.trace.append((sim.now, str(kwargs.get("src")), str(dst),
                                   bytes(payload)))
            return send(node, dst, protocol, payload, **kwargs)

        monkeypatch.setattr(Node, "send", recorded)

    def digest(self) -> str:
        h = hashlib.sha256()
        for at, src, dst, wire in self.trace:
            h.update(f"{at!r} {src} {dst} {wire.hex()}\n".encode())
        return h.hexdigest()


def data(n, salt=0):
    return bytes((i * 7 + salt) % 251 for i in range(n))


def bulk(line, size, *, writes=1):
    """H1 writes ``size`` bytes to H2 through a stream socket, in
    ``writes`` pieces 10 ms apart, and closes; returns the payload, the
    bytes H2 received and H1's connection."""
    received = bytearray()
    line.h2.listen(PORT, lambda s: setattr(s, "on_data", received.extend))
    sock = line.h1.connect("10.0.2.2", PORT)
    payload = data(size)
    step = size // writes

    def write(i):
        sock.write(payload[i * step:(i + 1) * step if i < writes - 1 else size])
        if i == writes - 1:
            sock.close()

    for i in range(writes):
        line.sim.schedule(0.05 + 0.01 * i, lambda i=i: write(i))
    return payload, received, sock.conn


# ----------------------------------------------------------------------
def case_loss(line):
    payload, received, _ = bulk(line, 40_000)
    line.sim.run(until=60.0)
    assert bytes(received) == payload


def case_jitter(line):
    payload, received, _ = bulk(line, 30_000, writes=6)
    line.sim.run(until=60.0)
    assert bytes(received) == payload


def case_delack(line):
    payload, received, _ = bulk(line, 20_000, writes=20)
    line.sim.run(until=30.0)
    assert bytes(received) == payload


def case_nagle(line):
    payload, received, _ = bulk(line, 3_000, writes=150)
    line.sim.run(until=30.0)
    assert bytes(received) == payload


def case_ecn_red(line):
    payload, received, conn = bulk(line, 80_000)
    line.sim.run(until=60.0)
    assert bytes(received) == payload
    assert conn.stats.ecn_responses > 0


def case_urgent(line):
    received, marks = bytearray(), []

    def on_conn(c):
        c.on_receive = received.extend
        c.on_urgent = marks.append

    line.h2.tcp.listen(PORT, on_conn)
    conn = line.h1.tcp.connect("10.0.2.2", PORT)
    line.sim.schedule(0.05, lambda: conn.send(data(5_000)))
    line.sim.schedule(0.06, lambda: conn.send(b"\xff\xf4", urgent=True))
    line.sim.schedule(0.07, lambda: conn.send(data(5_000, 3)))
    line.sim.schedule(0.5, conn.close)
    line.sim.run(until=20.0)
    assert len(received) == 10_002 and marks


def case_zero_window(line):
    """The receiver never reads until late: the window closes, the sender
    probes on its persist timer, and reads reopen it."""
    conns = []
    line.h2.tcp.listen(PORT, conns.append,
                       config=TcpConfig(recv_buffer=4096))
    conn = line.h1.tcp.connect("10.0.2.2", PORT)
    payload = data(12_000)
    line.sim.schedule(0.05, lambda: conn.send(payload))
    got = bytearray()

    def drain():
        got.extend(conns[0].read())

    for at in (12.0, 24.0, 36.0, 48.0):
        line.sim.schedule(at, drain)
    line.sim.run(until=60.0)
    assert bytes(got) == payload
    assert conn.stats.zero_window_probes > 0


def case_no_repacketize(line):
    payload, received, conn = bulk(line, 12_000, writes=40)
    line.sim.run(until=90.0)
    assert bytes(received) == payload
    assert conn.stats.segments_retransmitted > 0


def case_keepalive(line):
    """An idle connection probes a live peer, then a rebooted one, which
    answers RST."""
    conns = []
    line.h2.tcp.listen(PORT, conns.append)
    conn = line.h1.tcp.connect("10.0.2.2", PORT)
    line.sim.schedule(0.05, lambda: conn.send(b"hello"))
    line.sim.schedule(8.0, line.h2.node.crash)
    line.sim.schedule(8.5, line.h2.node.restore)
    line.sim.run(until=30.0)
    assert conn.stats.keepalives_answered > 0
    assert conn.close_reason == "reset"


def case_rst(line):
    """A SYN to a closed port is refused; an established connection is
    aborted; an off-window forged RST draws a challenge ACK."""
    refused = line.h1.tcp.connect("10.0.2.2", PORT + 1)
    conns = []
    line.h2.tcp.listen(PORT, conns.append)
    conn = line.h1.tcp.connect("10.0.2.2", PORT)
    line.sim.schedule(0.05, lambda: conn.send(data(2_000)))

    def forge():
        seq = (conns[0].rcv.rcv_next + 100_000) % (1 << 32)
        line.h1.tcp.transmit(conn, TcpSegment(
            src_port=conn.local_port, dst_port=conn.remote_port, seq=seq,
            flags=FLAG_RST))

    line.sim.schedule(0.5, forge)
    line.sim.schedule(1.0, conn.abort)
    line.sim.run(until=5.0)
    assert refused.close_reason == "refused"
    assert conns[0].stats.rst_out_of_window == 1
    assert conns[0].close_reason == "reset"


CASES = {
    "loss": (case_loss, dict(loss=BernoulliLoss(0.04), seed=3)),
    "jitter": (case_jitter, dict(radio=True, seed=5)),
    "delack_on": (case_delack, dict(h2=TcpConfig(delayed_ack=True))),
    "delack_off": (case_delack, dict(h2=TcpConfig(delayed_ack=False))),
    "nagle": (case_nagle, dict(h1=TcpConfig(nagle=True))),
    "no_nagle": (case_nagle, dict(h1=TcpConfig(nagle=False))),
    "ecn_red": (case_ecn_red, dict(h1=TcpConfig(ecn=True),
                                   h2=TcpConfig(ecn=True), red=True,
                                   bandwidth2=300_000.0)),
    "small_send_buffer": (case_jitter,
                          dict(h1=TcpConfig(send_buffer=1_500), seed=2)),
    "urgent": (case_urgent, dict()),
    "zero_window": (case_zero_window, dict()),
    "no_repacketize": (case_no_repacketize,
                       dict(h1=TcpConfig(repacketize=False, nagle=False,
                                         rto="fixed",
                                         rto_kwargs={"value": 0.5}),
                            loss=BernoulliLoss(0.08), seed=9)),
    "keepalive": (case_keepalive,
                  dict(h1=TcpConfig(keepalive_idle=2.0,
                                    keepalive_interval=1.0),
                       h2=TcpConfig(quiet_time=1.0))),
    "rst": (case_rst, dict()),
}

#: Computed before the per-segment diet; every change since must keep
#: them.
PINNED = {
    "delack_off": "3e982ddfe0359f8788389476b06e37200d846ed0d95dc3b455aeac8b733f7c16",
    "delack_on": "ddd392b685c497235d6961d979e31b4501010bd5773f248008d670c86ce418f5",
    "ecn_red": "816b244250f3d8993df8281ac915a28b490b368c6454299189d7b01c780fd986",
    "jitter": "57371a4d16330ec083460bf1dd226d04676dbf3f2add1b873b0bdc966ac66484",
    "keepalive": "8b5fd1c50b382d7dbfd257e950f7687cdee5251b092f649ea3a0b8c6b2dfa334",
    "loss": "bf3708da7df60f7c298dbfeee1e1ca24b0d7afdfd38c92f5c7ba2cd32ddc0ec4",
    "nagle": "a196edc458247cf851e0b4d9700a57b3c063c16920acd19aef39863e3827adb4",
    "no_nagle": "571d6ec90e2ea74535819163b92252868347b7516cf94afda17fd50d08cba5fb",
    "no_repacketize": "9dcb2ad874281d2b3178875d2e999814c8ef198ba93f2a213ee88d03cee16483",
    "rst": "f1ef660bbd567b4bc83ce19565d67094904ede276684e1f446453cd4186d2852",
    "small_send_buffer": "a675c746fe48908bf739c5a8b0a1c4216c4944445ca341ec82446d637c3dc0ec",
    "urgent": "321e0d7a43a2aad8be370374d028e6838c3e24a55fe0edfbc4805effbcc2fa62",
    "zero_window": "42349f38d20377aa4556201766ab493d8a58c080033a7540a9655ae36708dbed",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_wire_trace_is_pinned(monkeypatch, name):
    case, options = CASES[name]
    line = Line(monkeypatch, **options)
    case(line)
    assert len(line.trace) > 10
    assert line.digest() == PINNED[name]
