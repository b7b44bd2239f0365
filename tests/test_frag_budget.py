"""The per-fragment budget (DESIGN §7) as a noise-free gate.

A datagram that crosses a smaller-MTU network is cut once at the gateway
and rejoined once at the host: fragmentation builds each piece straight
from the source datagram's fields and reassembly builds the whole from
its first piece's, so neither copies a datagram; each reassembly arms one
timer and cancels it on completion; each UDP end sums the datagram once.
Like ``test_hop_budget.py`` this gates counts, never wall time: on a
fixed lossless scenario they repeat exactly, whatever the hash seed.

Calls are counted by code object (``Profile.getstats()``), not by the
``pstats`` ``(file, line, name)`` rows: every dataclass- or
namedtuple-generated method shares a row like ``('<string>', 2,
'__init__')``, so a row count depends on which code object the profiler
listed last.
"""

import cProfile

from repro.ip import fragmentation, node
from repro.ip.packet import Datagram
from repro.sim.engine import EventHandle, Simulator
from repro.udp import udp
from repro.udp.udp import UdpHeader, UdpStack
from test_hop_budget import SINK, line

#: UDP payloads that fragment at the 596 B core MTU: 2 and 3 pieces.
SIZES = (1100, 1400)
DATAGRAMS = 100


def scenario(datagrams=DATAGRAMS):
    """H1 → H2 across a 596 B core, ``datagrams`` UDP datagrams of the
    ``SIZES`` in turn, one per 2 ms; returns the network and the sink."""
    sim, h1, g1, g2, h2, _ = line(core_mtu=596)
    got = []
    UdpStack(h2).bind(7000, lambda payload, src, port: got.append(payload))
    sock = UdpStack(h1).bind(0)
    for i in range(datagrams):
        payload = b"\x5a" * SIZES[i % len(SIZES)]
        sim.post(0.002 * i, lambda p=payload: sock.sendto(p, SINK, 7000))
    return sim, (h1, g1, g2, h2), got


def finish(sim, nodes, got, datagrams=DATAGRAMS):
    sim.run(until=5.0)
    h1, g1, g2, h2 = nodes
    assert len(got) == datagrams
    assert g1.stats.fragments_created == datagrams * 5 // 2
    assert h2.reassembler.stats.datagrams_reassembled == datagrams
    assert h2.reassembler.in_progress == 0
    return g1.stats.fragments_created


#: Generated constructors have no file of their own; they are counted by
#: their code objects.
_GENERATED = {Datagram.__init__.__code__, UdpHeader.__new__.__code__}


def repro_calls(profile) -> int:
    """Python-level calls into ``repro`` code, by code object."""
    return sum(
        entry.callcount for entry in profile.getstats()
        if not isinstance(entry.code, str)
        and ("/repro/" in entry.code.co_filename or entry.code in _GENERATED))


def profiled(datagrams=DATAGRAMS):
    sim, nodes, got = scenario(datagrams)
    profile = cProfile.Profile()
    profile.enable()
    fragments = finish(sim, nodes, got, datagrams)
    profile.disable()
    return repro_calls(profile), fragments


# ----------------------------------------------------------------------
def test_no_datagram_copy_in_fragmentation_or_reassembly(monkeypatch):
    """The transit hop's one ``copy()`` is the only one: cutting and
    rejoining build their datagrams directly."""
    copies, inside = [0], []
    copy = Datagram.copy

    def counted_copy(datagram, **changes):
        copies[0] += 1
        return copy(datagram, **changes)

    def watched(fn):
        def call(*args):
            before = copies[0]
            result = fn(*args)
            inside.append(copies[0] - before)
            return result
        return call

    monkeypatch.setattr(Datagram, "copy", counted_copy)
    monkeypatch.setattr(node, "fragment", watched(fragmentation.fragment))
    monkeypatch.setattr(fragmentation.Reassembler, "accept",
                        watched(fragmentation.Reassembler.accept))
    sim, nodes, got = scenario()
    fragments = finish(sim, nodes, got)
    h1, g1, g2, h2 = nodes
    assert len(inside) == DATAGRAMS + fragments   # every cut and every piece
    assert set(inside) == {0}
    assert copies[0] == g1.stats.forwarded + g2.stats.forwarded \
        == DATAGRAMS + fragments


def test_one_timer_armed_and_cancelled_per_reassembled_datagram(monkeypatch):
    armed, cancels = [], []
    schedule, cancel = Simulator.schedule, EventHandle.cancel

    def counted_schedule(sim, delay, action, **kwargs):
        handle = schedule(sim, delay, action, **kwargs)
        if kwargs.get("label") == "ip:reassembly-timeout":
            armed.append(handle)
        return handle

    def counted_cancel(handle):
        cancels.append(handle)
        return cancel(handle)

    monkeypatch.setattr(Simulator, "schedule", counted_schedule)
    monkeypatch.setattr(EventHandle, "cancel", counted_cancel)
    sim, nodes, got = scenario()
    finish(sim, nodes, got)
    assert len(armed) == DATAGRAMS
    assert cancels == armed
    assert nodes[3].reassembler.stats.reassembly_timeouts == 0


def test_one_sum_per_udp_datagram_per_end(monkeypatch):
    """Every UDP checksum is computed and verified, once: one pass when
    the sender packs the datagram, one when the receiver parses it."""
    sums = []
    ones_complement_sum = udp.ones_complement_sum

    def counted_sum(data):
        sums.append(len(data))
        return ones_complement_sum(data)

    monkeypatch.setattr(udp, "ones_complement_sum", counted_sum)
    sim, nodes, got = scenario()
    finish(sim, nodes, got)
    # Pseudo-header (12 B) + header (8 B) + payload, at each end.
    expected = [20 + SIZES[i % len(SIZES)] for i in range(DATAGRAMS)]
    assert sorted(sums) == sorted(expected * 2)


def test_python_calls_per_fragment_under_ceiling():
    """Python-level calls into ``repro`` per fragment created; the whole
    journey (UDP send, three links, two forwards, the cut, reassembly,
    UDP delivery) is in the count.  Measured after the fragmentation and
    UDP codec diet: 8,684 calls / 250 fragments = 34.7 (10,034 = 40.1
    before it, when each piece was a ``copy(**changes)``, reassembly
    joined through a ``bytearray`` and a ``copy``, and each UDP end made
    two checksum calls).  The ceiling sits 10 % above.  The count
    repeats exactly, so this fails only when someone adds per-fragment
    calls."""
    calls, fragments = profiled()
    assert calls / fragments <= 38.2, f"{calls} calls / {fragments} fragments"


def test_four_times_the_work_costs_four_times_the_calls():
    """No term grows faster than the datagrams: 4x the datagrams (and
    fragments) cost at most 4.1x the calls."""
    small, fragments_small = profiled(DATAGRAMS)
    large, fragments_large = profiled(4 * DATAGRAMS)
    assert fragments_large == 4 * fragments_small
    assert large <= 4.1 * small, f"{large} vs {small} calls"
