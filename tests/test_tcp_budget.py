"""The per-segment budget (DESIGN §7) as a noise-free gate.

Between the application and IP a TCP segment costs O(that segment): the
socket hands the transport each byte once, an advancing ACK re-arms one
timer, each end sums the segment once, no ``Address`` method runs per
segment, and neither the calls nor the bytes copied grow with the backlog
behind the segment.  Like ``test_hop_budget.py`` this gates counts, never
wall time: on a fixed lossless scenario they repeat exactly, whatever the
hash seed.
"""

import cProfile
import pstats

from repro.netlayer.link import PointToPointLink
from repro.sim.engine import Simulator
from repro.ip.checksum import ones_complement_sum
from repro.sim.process import Timer
from repro.sockets.api import Gateway, Host
from repro.tcp import segment
from repro.tcp.buffers import SendBuffer
from repro.tcp.connection import TcpConnection
from repro.tcp.stack import TcpStack

SMALL = 1600 * 256         # both sizes are several send buffers deep
LARGE = 4 * SMALL


def line():
    """H1 — G — H2: static routes, lossless, queues deeper than a window."""
    sim = Simulator()
    h1, g, h2 = Host("H1", sim), Gateway("G", sim), Host("H2", sim)
    for third, host in ((1, h1), (2, h2)):
        net = f"10.0.{third}.0/24"
        PointToPointLink(sim, host.attach("eth0", f"10.0.{third}.1", net),
                         g.attach(f"to-{host.name}", f"10.0.{third}.2", net),
                         bandwidth_bps=10_000_000, delay=0.001, mtu=1500,
                         queue_limit=512)
        host.default_route(f"10.0.{third}.2")
    return sim, h1, h2


class Counts:
    """What one transfer cost, counted from outside through public names."""

    def __init__(self, monkeypatch):
        self.handed = []            # len(data) of every TcpConnection.send
        self.advancing_acks = 0     # SendBuffer.ack_to calls that freed bytes
        self.timer_starts = 0
        self.schedules = 0
        send, ack_to = TcpConnection.send, SendBuffer.ack_to
        start, schedule = Timer.start, Simulator.schedule

        def counted_send(conn, data, **kwargs):
            self.handed.append(len(data))
            return send(conn, data, **kwargs)

        def counted_ack_to(buf, seq):
            freed = ack_to(buf, seq)
            self.advancing_acks += freed > 0
            return freed

        def counted_start(timer, delay):
            self.timer_starts += 1
            start(timer, delay)

        def counted_schedule(sim, *args, **kwargs):
            self.schedules += 1
            return schedule(sim, *args, **kwargs)

        monkeypatch.setattr(TcpConnection, "send", counted_send)
        monkeypatch.setattr(SendBuffer, "ack_to", counted_ack_to)
        monkeypatch.setattr(Timer, "start", counted_start)
        monkeypatch.setattr(Simulator, "schedule", counted_schedule)


def start_transfer(size):
    """Write ``size`` bytes H1 → H2 and close; nothing has run yet."""
    sim, h1, h2 = line()
    received = bytearray()
    h2.listen(4000, lambda s: setattr(s, "on_data", received.extend))
    sock = h1.connect(h2.address, 4000)
    sock.write(bytes(range(256)) * (size // 256))
    sock.close()
    return sim, sock, received


def run(size, *, profile=None):
    sim, sock, received = start_transfer(size)
    if profile is not None:
        profile.enable()
    sim.run(until=60.0)
    if profile is not None:
        profile.disable()
    assert len(received) == size
    assert sock.conn.stats.segments_retransmitted == 0
    return sock


def tcp_calls(profile):
    """Python-level calls into ``repro.tcp`` and ``repro.sockets``."""
    return sum(
        ncalls for (filename, _, _), (_, ncalls, *_)
        in pstats.Stats(profile).stats.items()
        if "/repro/tcp/" in filename or "/repro/sockets/" in filename)


def address_calls(profile):
    """Calls into ``repro.ip.address`` (``Address`` and ``Prefix``)."""
    return sum(
        ncalls for (filename, _, _), (_, ncalls, *_)
        in pstats.Stats(profile).stats.items()
        if filename.endswith("/repro/ip/address.py"))


# ----------------------------------------------------------------------
def test_each_application_byte_is_handed_to_the_transport_once(monkeypatch):
    counts = Counts(monkeypatch)
    sock = run(LARGE)
    assert sum(counts.handed) == LARGE == sock.bytes_written
    assert max(counts.handed) <= sock.conn.send_buffer.capacity


def test_one_timer_start_per_advancing_ack(monkeypatch):
    """The RTO is cancelled and re-armed once per ACK that advances SND.UNA
    — 'one live timer re-armed lazily' was examined and rejected (DESIGN
    §7), so one ``Timer.start`` = one ``Simulator.schedule`` per such ACK is
    a decision; this pins it.  Measured in mid-transfer, where the only
    timer that runs at either end is the sender's RTO."""
    counts = Counts(monkeypatch)
    sim, sock, received = start_transfer(LARGE)
    marks = []
    for at in (0.3, 0.6):
        sim.run(until=at)
        marks.append((counts.advancing_acks, counts.timer_starts,
                      counts.schedules))
    (acks0, starts0, sched0), (acks1, starts1, sched1) = marks
    assert 0 < len(received) < LARGE
    assert acks1 - acks0 > 300
    assert starts1 - starts0 == sched1 - sched0 == acks1 - acks0


def test_python_calls_per_segment_under_ceiling():
    """cProfile count of Python-level calls into ``repro.tcp`` and
    ``repro.sockets`` per segment the sender emits; both ends' work (the
    receiver's ACK, the sender's processing of it) is in the count.
    Measured after the codec and host-path diet (one ``struct`` call and
    one checksum pass per segment at each end, no call whose only answer
    is "nothing to do"): 167,281 calls / 3,060 segments = 54.7.  It was
    227,963 = 74.5 before that, and 808,304 = 264.2 before the first
    diet, which also copied 1,467 bytes per byte sent.  The ceiling sits
    10 % above.  The count repeats exactly, so this fails only when
    someone adds per-segment calls."""
    profile = cProfile.Profile()
    sock = run(LARGE, profile=profile)
    segments = sock.conn.stats.segments_sent
    calls = tcp_calls(profile)
    assert calls / segments <= 60.1, f"{calls} calls / {segments} segments"


def test_each_segment_is_summed_once_at_each_end(monkeypatch):
    """Every checksum is still computed and verified, and only once: the
    sender sums a segment when it packs it, the receiver when it parses
    it, so on a lossless path the sums are exactly twice the segments
    both ends sent."""
    sums, sent = [], []
    transmit = TcpStack.transmit

    def counted_sum(data):
        sums.append(len(data))
        return ones_complement_sum(data)

    def counted_transmit(stack, conn, seg):
        sent.append(seg)
        transmit(stack, conn, seg)

    monkeypatch.setattr(segment, "ones_complement_sum", counted_sum)
    monkeypatch.setattr(TcpStack, "transmit", counted_transmit)
    run(SMALL)
    assert len(sent) > 1000
    assert len(sums) == 2 * len(sent)


def test_four_times_the_transfer_costs_four_times_the_work(monkeypatch):
    """The gate that keeps any O(backlog) term from returning: with the
    whole unsent file re-copied on every ACK, 4x the bytes cost 16x.  And
    the row that keeps ``Address`` off the per-segment path: the few
    ``Address`` calls a transfer makes (first route lookups, the close)
    are the same for 4x the segments, i.e. zero per segment."""
    counts = Counts(monkeypatch)
    cost = {}
    for size in (SMALL, LARGE):
        del counts.handed[:]
        profile = cProfile.Profile()
        run(size, profile=profile)
        cost[size] = (tcp_calls(profile), sum(counts.handed),
                      address_calls(profile))
    (calls_s, bytes_s, addr_s), (calls_l, bytes_l, addr_l) = \
        cost[SMALL], cost[LARGE]
    assert calls_l <= 4.1 * calls_s, f"{calls_l} vs {calls_s} calls"
    assert bytes_l <= 4.1 * bytes_s, f"{bytes_l} vs {bytes_s} bytes"
    assert addr_l == addr_s, f"{addr_l} vs {addr_s} Address calls"
