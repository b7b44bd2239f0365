"""Fragmentation and reassembly against the original code, as an oracle.

``fragment`` builds each piece once from the source datagram's fields, and
``Reassembler.accept`` joins a completed datagram's pieces in one pass.
The functions below are the code they replaced, kept verbatim: on every
input the two must cut the same pieces (``trace_id`` included) or raise
the same :class:`FragmentationError`, and, fed the same arrivals at the
same simulated times, complete the same datagrams at the same instants,
keep the same counters and expire the same buffers at the same times —
also across a crash that swaps in a fresh reassembler while the old one's
timers are still pending.

The one input on which they differ by design is an empty piece that is
not the last: the oracle's walk cannot advance past it and spins forever.
The draws below never make one; ``test_empty_piece_is_a_gap_not_a_spin``
pins what the new walk does instead.
"""

import random
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ip.address import Address
from repro.ip.fragmentation import (
    FragmentationError,
    Reassembler,
    ReassemblyStats,
    fragment,
)
from repro.ip.packet import Datagram, IP_HEADER_LEN, PROTO_UDP
from repro.sim.engine import EventHandle, Simulator

_FRAG_UNIT = 8


# ----------------------------------------------------------------------
# The oracle: the original fragment() and Reassembler, verbatim.
# ----------------------------------------------------------------------
def oracle_fragment(datagram: Datagram, mtu: int) -> list[Datagram]:
    if datagram.total_length <= mtu:
        return [datagram]
    if datagram.dont_fragment:
        raise FragmentationError(
            f"datagram of {datagram.total_length} B needs fragmentation "
            f"for mtu {mtu} but DF is set"
        )
    max_payload = mtu - IP_HEADER_LEN
    if max_payload < _FRAG_UNIT:
        raise FragmentationError(f"mtu {mtu} cannot carry any payload")
    # All fragments except the last must carry a multiple of 8 bytes.
    chunk = (max_payload // _FRAG_UNIT) * _FRAG_UNIT
    payload = datagram.payload
    fragments: list[Datagram] = []
    offset_units = datagram.fragment_offset
    pos = 0
    while pos < len(payload):
        piece = payload[pos : pos + chunk]
        last_piece = pos + len(piece) >= len(payload)
        fragments.append(
            datagram.copy(
                payload=piece,
                fragment_offset=offset_units + pos // _FRAG_UNIT,
                more_fragments=datagram.more_fragments or not last_piece,
            )
        )
        pos += len(piece)
    return fragments


@dataclass
class _OracleBuffer:
    pieces: dict[int, bytes] = field(default_factory=dict)  # offset_units -> data
    total_units: Optional[int] = None  # set once the last fragment arrives
    first_arrival: float = 0.0
    template: Optional[Datagram] = None
    timer: Optional[EventHandle] = None  # reassembly-timeout event


class OracleReassembler:
    def __init__(self, sim: Simulator, timeout: float = 15.0,
                 on_timeout: Optional[Callable[[Datagram], None]] = None,
                 owner=None):
        self.sim = sim
        self.timeout = timeout
        self.on_timeout = on_timeout
        self.owner = owner
        self.stats = ReassemblyStats()
        self._buffers: dict[tuple, _OracleBuffer] = {}

    def _key(self, d: Datagram) -> tuple:
        return (d.src._value, d.dst._value, d.protocol, d.ident)

    def accept(self, datagram: Datagram) -> Optional[Datagram]:
        if not datagram.is_fragment:
            return datagram
        self.stats.fragments_received += 1
        key = self._key(datagram)
        buf = self._buffers.get(key)
        if buf is None:
            buf = _OracleBuffer(first_arrival=self.sim.now)
            self._buffers[key] = buf
            buf.timer = self.sim.schedule(
                self.timeout, lambda: self._expire(key), label="ip:reassembly-timeout"
            )
        if datagram.fragment_offset in buf.pieces:
            self.stats.duplicate_fragments += 1
            return None
        buf.pieces[datagram.fragment_offset] = datagram.payload
        if datagram.fragment_offset == 0:
            buf.template = datagram
        if not datagram.more_fragments:
            buf.total_units = (
                datagram.fragment_offset + (len(datagram.payload) + _FRAG_UNIT - 1) // _FRAG_UNIT
            )
        return self._try_complete(key, buf)

    def _try_complete(self, key: tuple, buf: _OracleBuffer) -> Optional[Datagram]:
        if buf.total_units is None or buf.template is None:
            return None
        # Walk contiguously from offset 0 to the end.
        assembled = bytearray()
        units = 0
        while units < buf.total_units:
            piece = buf.pieces.get(units)
            if piece is None:
                return None
            assembled.extend(piece)
            units += (len(piece) + _FRAG_UNIT - 1) // _FRAG_UNIT
        del self._buffers[key]
        if buf.timer is not None:
            buf.timer.cancel()
        self.stats.datagrams_reassembled += 1
        return buf.template.copy(
            payload=bytes(assembled), more_fragments=False, fragment_offset=0
        )

    def _expire(self, key: tuple) -> None:
        buf = self._buffers.pop(key, None)
        if buf is None:
            return
        if buf.timer is not None:
            buf.timer.cancel()  # no-op for the firing timer; tidy either way
        self.stats.reassembly_timeouts += 1
        if self.on_timeout is not None and buf.template is not None:
            self.on_timeout(buf.template)

    @property
    def in_progress(self) -> int:
        return len(self._buffers)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
SRC, DST = Address("10.0.1.1"), Address("10.0.3.2")


def body(size: int, seed: int) -> bytes:
    return random.Random(seed).randbytes(size)


@st.composite
def datagrams(draw, max_size=9000):
    size = draw(st.integers(0, max_size))
    return Datagram(
        src=SRC, dst=draw(st.sampled_from([DST, Address("10.0.4.2")])),
        protocol=draw(st.sampled_from([PROTO_UDP, 6])),
        payload=body(size, draw(st.integers(0, 3))),
        ttl=draw(st.integers(1, 255)), ident=draw(st.integers(0, 3)),
        dont_fragment=draw(st.booleans()) and draw(st.booleans()),
        more_fragments=draw(st.booleans()) and draw(st.booleans()),
        fragment_offset=draw(st.sampled_from([0, 0, 0, 1, 37, 1000])),
        tos=draw(st.sampled_from([0, 2])),
        trace_id=draw(st.integers(0, 5)))


mtus = st.integers(68, 1500)


def cut(fn, datagram, mtu):
    """``fn(datagram, mtu)``, or the error it raised, as a comparable value."""
    try:
        return fn(datagram, mtu)
    except FragmentationError as exc:
        return ("FragmentationError", str(exc))


# ----------------------------------------------------------------------
# fragment()
# ----------------------------------------------------------------------
@settings(max_examples=400, deadline=None)
@given(datagrams(), mtus, mtus)
def test_pieces_equal_the_oracle_and_refragment_alike(datagram, mtu, mtu2):
    expected = cut(oracle_fragment, datagram, mtu)
    got = cut(fragment, datagram, mtu)
    assert got == expected
    if isinstance(expected, tuple):
        return
    if expected == [datagram]:
        assert got[0] is datagram
    # A piece cut again on a smaller network: DF and MF are inherited, and
    # the offsets stay those of the original datagram.
    for piece in expected:
        assert cut(fragment, piece, mtu2) == cut(oracle_fragment, piece, mtu2)


@pytest.mark.parametrize("mtu", [-1, 0, 20, 27, 28, 29, 68])
def test_tiny_mtus_equal_the_oracle(mtu):
    for size in (0, 1, 7, 8, 9, 100):
        for df in (False, True):
            datagram = Datagram(SRC, DST, PROTO_UDP, bytes(size),
                                dont_fragment=df, trace_id=3)
            assert cut(fragment, datagram, mtu) == cut(
                oracle_fragment, datagram, mtu)


# ----------------------------------------------------------------------
# Reassembly
# ----------------------------------------------------------------------
@st.composite
def crafted_pieces(draw):
    """A piece no gateway would cut: any offset, any length — but never
    an empty piece that is not the last (see the module docstring)."""
    more = draw(st.booleans())
    size = draw(st.integers(1 if more else 0, 64))
    return Datagram(SRC, DST, PROTO_UDP, body(size, draw(st.integers(0, 9))),
                    ident=draw(st.integers(0, 3)), more_fragments=more,
                    fragment_offset=draw(st.integers(0, 40)),
                    trace_id=draw(st.integers(0, 5)))


@st.composite
def arrivals(draw):
    """``[(time, datagram)]``: whole datagrams cut (and maybe cut again)
    at drawn MTUs, some cut twice at different MTUs so their pieces
    overlap, shuffled, duplicated, thinned, mixed with crafted pieces and
    unfragmented datagrams, at times that may straddle the timeout."""
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        # Not DF, and not an empty fragment: that would pass through
        # whole as an empty piece that is not the last.
        datagram = draw(datagrams(max_size=3000).filter(
            lambda d: not d.dont_fragment and (d.payload or not d.is_fragment)))
        for _ in range(draw(st.integers(1, 2))):
            cuts = fragment(datagram, draw(mtus))
            if draw(st.booleans()):
                mtu2 = draw(mtus)
                cuts = [small for piece in cuts
                        for small in fragment(piece, mtu2)]
            pieces += cuts
    pieces += draw(st.lists(crafted_pieces(), max_size=6))
    pieces = draw(st.permutations(pieces))
    dropped = draw(st.sets(st.integers(0, len(pieces) - 1), max_size=2))
    pieces = [p for i, p in enumerate(pieces) if i not in dropped]
    if pieces and draw(st.booleans()):
        pieces += draw(st.lists(st.sampled_from(pieces), max_size=4))
    times = draw(st.lists(st.sampled_from([0.0, 0.001, 0.5, 2.0, 4.99,
                                           5.0, 5.01, 9.0, 11.0]),
                          min_size=len(pieces), max_size=len(pieces)))
    return sorted(zip(times, range(len(pieces)), pieces))


def replay(make, schedule, crash_at):
    """Feed ``schedule`` to reassemblers built by ``make``; a crash at
    ``crash_at`` replaces the live one and leaves the old one's timers to
    fire.  Returns everything the oracle and the new code must agree on."""
    sim = Simulator()
    completed, expired, reassemblers = [], [], []

    def fresh():
        index = len(reassemblers)
        reassemblers.append(make(
            sim, timeout=5.0,
            on_timeout=lambda d: expired.append((sim.now, index, d))))

    def arrive(datagram):
        whole = reassemblers[-1].accept(datagram)
        if whole is not None:
            completed.append((sim.now, whole, whole is datagram))

    fresh()
    for at, _, datagram in schedule:
        sim.post(at, lambda d=datagram: arrive(d))
    if crash_at is not None:
        sim.post(crash_at, fresh)
    in_progress = []
    for until in (3.0, 6.0, 30.0):
        sim.run(until=until)
        in_progress.append([r.in_progress for r in reassemblers])
    return (completed, expired, in_progress, sim.events_processed,
            [asdict(r.stats) for r in reassemblers])


@settings(max_examples=300, deadline=None)
@given(arrivals(), st.sampled_from([None, None, 0.0005, 2.5, 5.005]))
def test_reassembly_equals_the_oracle(schedule, crash_at):
    assert replay(Reassembler, schedule, crash_at) == replay(
        OracleReassembler, schedule, crash_at)


def test_key_reused_after_completion_and_after_expiry():
    """The same (src, dst, protocol, ident) three times: completed, then
    expired with a piece missing, then completed again — each buffer on
    its own timer, none expiring another."""
    whole = Datagram(SRC, DST, PROTO_UDP, body(1400, 1), ident=9, trace_id=4)
    pieces = fragment(whole, 596)
    schedule = ([(0.0, 0, p) for p in pieces]
                + [(1.0, 1, pieces[0]), (1.0, 2, pieces[2])]
                + [(7.0, 3, p) for p in reversed(pieces)])
    got = replay(Reassembler, schedule, None)
    assert got == replay(OracleReassembler, schedule, None)
    completed, expired, _, _, stats = got
    assert [(t, d) for t, d, _ in completed] == [(0.0, whole), (7.0, whole)]
    assert [t for t, _, _ in expired] == [6.0]
    assert stats == [dict(fragments_received=8, datagrams_reassembled=2,
                          reassembly_timeouts=1, duplicate_fragments=0)]


def test_empty_piece_is_a_gap_not_a_spin():
    """An empty piece that is not the last never advances the walk: the
    oracle spins on it forever; the reassembler treats it as a gap, and
    the buffer expires on its timer."""
    sim = Simulator()
    expired = []
    reassembler = Reassembler(sim, timeout=5.0, on_timeout=expired.append)
    first = Datagram(SRC, DST, PROTO_UDP, b"", ident=1, more_fragments=True)
    assert reassembler.accept(first) is None
    assert reassembler.accept(Datagram(SRC, DST, PROTO_UDP, b"x" * 8, ident=1,
                                       fragment_offset=1)) is None
    sim.run(until=10.0)
    assert expired == [first]
    assert reassembler.stats.reassembly_timeouts == 1
    assert reassembler.in_progress == 0
