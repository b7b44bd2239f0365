"""Differential and model-based property tests for the TCP buffers.

The buffers index push points by bisect over never-re-based stream offsets
and hold out-of-order bytes as a sorted disjoint interval list.  The linear
implementations they replaced live on here as the oracle: same answers on
every interleaving, with ISNs drawn next to 2**32 so the sequence wrap is
always in play.  Where the old receive buffer was *wrong* — partially
overlapping out-of-order pieces were held, and charged to the window, more
than once — a set-of-offsets model is the oracle instead.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.tcp.buffers import ReceiveBuffer, SendBuffer
from repro.tcp.segment import seq_add, seq_sub

NEAR_WRAP = st.integers(min_value=2**32 - 4000, max_value=2**32 - 1)


# ----------------------------------------------------------------------
# The oracles: the linear implementations, verbatim
# ----------------------------------------------------------------------
class LinearSendBuffer:
    """Push points as offsets relative to ``base_seq``: scanned by every
    ``push_at``, rebuilt by every ``ack_to``."""

    def __init__(self, base_seq, capacity=65535):
        self.base_seq = base_seq
        self.capacity = capacity
        self._data = bytearray()
        self._push_points = []

    @property
    def free_space(self):
        return max(0, self.capacity - len(self._data))

    def write(self, data, *, push=True):
        accepted = data[: self.free_space]
        self._data.extend(accepted)
        if push and accepted:
            self._push_points.append(len(self._data))
        return len(accepted)

    def push_at(self, seq, length):
        start = seq_sub(seq, self.base_seq)
        end = start + length
        return any(start < p <= end for p in self._push_points)

    def ack_to(self, seq):
        advance = seq_sub(seq, self.base_seq)
        if advance <= 0:
            return 0
        advance = min(advance, len(self._data))
        del self._data[:advance]
        self.base_seq = seq_add(self.base_seq, advance)
        self._push_points = [p - advance for p in self._push_points if p > advance]
        return advance


class LinearReceiveBuffer:
    """Out-of-order pieces in a dict keyed by start seq, each stored in
    full; the drain re-lists the dict once per drained piece."""

    def __init__(self, rcv_next, capacity=65535):
        self.rcv_next = rcv_next
        self.capacity = capacity
        self._delivered_not_read = bytearray()
        self._ooo = {}
        self.bytes_received = 0
        self.duplicate_bytes = 0

    @property
    def window(self):
        held = len(self._delivered_not_read) + sum(len(v) for v in self._ooo.values())
        return max(0, self.capacity - held)

    def accept(self, seq, data):
        if not data:
            return b""
        self.bytes_received += len(data)
        offset = seq_sub(self.rcv_next, seq)
        if offset >= len(data):
            self.duplicate_bytes += len(data)
            return b""
        if offset > 0:
            self.duplicate_bytes += offset
            data = data[offset:]
            seq = seq_add(seq, offset)
        room = self.window
        if seq_sub(seq, self.rcv_next) + len(data) > room:
            keep = room - seq_sub(seq, self.rcv_next)
            if keep <= 0:
                return b""
            data = data[:keep]
        if seq_sub(seq, self.rcv_next) > 0:
            existing = self._ooo.get(seq)
            if existing is None or len(data) > len(existing):
                self._ooo[seq] = data
            return b""
        out = bytearray(data)
        self.rcv_next = seq_add(self.rcv_next, len(data))
        out.extend(self._drain_ooo())
        self._delivered_not_read.extend(out)
        return bytes(out)

    def _drain_ooo(self):
        out = bytearray()
        while True:
            piece = None
            for seq in list(self._ooo):
                delta = seq_sub(self.rcv_next, seq)
                if 0 <= delta < len(self._ooo[seq]):
                    piece = self._ooo.pop(seq)[delta:]
                    break
                if delta >= len(self._ooo[seq]):
                    self.duplicate_bytes += len(self._ooo.pop(seq))
            if piece is None:
                return bytes(out)
            out.extend(piece)
            self.rcv_next = seq_add(self.rcv_next, len(piece))

    def read(self, max_bytes=None):
        if max_bytes is None:
            max_bytes = len(self._delivered_not_read)
        out = bytes(self._delivered_not_read[:max_bytes])
        del self._delivered_not_read[:max_bytes]
        return out


# ----------------------------------------------------------------------
# SendBuffer: write / push_at / ack_to interleavings
# ----------------------------------------------------------------------
SEND_OPS = st.lists(st.one_of(
    st.tuples(st.just("write"), st.integers(0, 700), st.booleans()),
    st.tuples(st.just("ack"), st.integers(-50, 900), st.none()),
    st.tuples(st.just("push_at"), st.integers(-20, 2500),
              st.integers(0, 700)),
), min_size=1, max_size=60)


@settings(max_examples=150, deadline=None)
@given(isn=NEAR_WRAP, capacity=st.integers(1, 3000), ops=SEND_OPS)
def test_send_buffer_answers_as_the_linear_one(isn, capacity, ops):
    new, old = SendBuffer(isn, capacity), LinearSendBuffer(isn, capacity)
    for op, a, b in ops:
        if op == "write":
            data = bytes(a)
            assert new.write(data, push=b) == old.write(data, push=b)
        elif op == "ack":
            seq = seq_add(old.base_seq, a)        # behind, inside or past
            assert new.ack_to(seq) == old.ack_to(seq)
        else:
            seq = seq_add(old.base_seq, a)
            assert new.push_at(seq, b) == old.push_at(seq, b)
        assert new.base_seq == old.base_seq
        assert new.free_space == old.free_space
    # Every segment a sender could cut from what is left carries the same PSH.
    for start in range(0, len(new), 97):
        for length in (1, 96, 97, 536):
            seq = seq_add(old.base_seq, start)
            assert new.push_at(seq, length) == old.push_at(seq, length)


# ----------------------------------------------------------------------
# ReceiveBuffer, segment-aligned arrivals: the linear one is the oracle
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(isn=NEAR_WRAP, stream=st.binary(min_size=1, max_size=1500),
       mss=st.integers(1, 200), capacity=st.integers(50, 3000),
       seed=st.integers(0, 10**6))
def test_receive_buffer_answers_as_the_linear_one_without_overlaps(
        isn, stream, mss, capacity, seed):
    """Reordered, duplicated and truncated — but never partially
    overlapping — segments: every observable agrees with the linear
    buffer, step by step."""
    rng = random.Random(seed)
    cuts = [(at, stream[at:at + mss]) for at in range(0, len(stream), mss)]
    arrivals = cuts + [rng.choice(cuts) for _ in range(len(cuts))]
    rng.shuffle(arrivals)
    new, old = ReceiveBuffer(isn, capacity), LinearReceiveBuffer(isn, capacity)
    for at, piece in arrivals:
        if rng.random() < 0.2:
            piece = piece[:rng.randint(1, len(piece))]     # a short copy
        seq = seq_add(isn, at)
        assert new.accept(seq, piece) == old.accept(seq, piece)
        assert new.rcv_next == old.rcv_next
        assert new.window == old.window
        assert (new.bytes_received, new.duplicate_bytes) \
            == (old.bytes_received, old.duplicate_bytes)
        if rng.random() < 0.7:
            n = rng.choice([None, 1, 40])
            assert new.read(n) == old.read(n)


# ----------------------------------------------------------------------
# ReceiveBuffer, overlapping arrivals: a set of held offsets is the oracle
# ----------------------------------------------------------------------
class HeldOffsets:
    """What a receive buffer must do, written for obviousness: the
    out-of-order store is the set of stream offsets held."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.next = 0                 # stream offset of rcv_next
        self.unread = 0
        self.held = set()

    @property
    def window(self):
        return max(0, self.capacity - self.unread - len(self.held))

    def accept(self, start, length):
        """Returns how many bytes become deliverable."""
        end = start + length
        start = max(start, self.next)
        end = min(end, self.next + self.window)
        if end <= start:
            return 0
        if start > self.next:
            self.held.update(range(start, end))
            return 0
        before = self.next
        self.next = end
        while self.next in self.held:
            self.next += 1
        self.held = {o for o in self.held if o >= self.next}
        self.unread += self.next - before
        return self.next - before


def feed(buf, model, isn, stream, start, length, delivered):
    piece = stream[start:start + length]
    out = buf.accept(seq_add(isn, start), piece)
    assert len(out) == model.accept(start, len(piece))
    delivered.extend(out)
    assert bytes(delivered) == stream[:len(delivered)]
    assert buf.rcv_next == seq_add(isn, model.next)
    # Never fewer free bytes than capacity minus the *distinct* bytes held
    # — so no byte is held, or charged to the window, twice.
    assert buf.window == model.window


def drain(buf, model, n=None):
    model.unread -= len(buf.read(n))


def finish(buf, model, isn, stream, delivered, mss):
    """Offer what is missing, in order, as a retransmitting sender would:
    once every byte has been offered in-window the stream completes."""
    for _ in range(2 * len(stream) + 2):
        if len(delivered) == len(stream):
            break
        drain(buf, model)
        feed(buf, model, isn, stream, len(delivered), mss, delivered)
    assert bytes(delivered) == stream


@settings(max_examples=150, deadline=None)
@given(isn=NEAR_WRAP, stream=st.binary(min_size=1, max_size=1200),
       capacity=st.integers(1, 2000),
       arrivals=st.lists(st.tuples(st.integers(0, 1199), st.integers(1, 300),
                                   st.sampled_from([None, None, 0, 7])),
                         max_size=60))
def test_receive_buffer_under_overlapping_arrivals(isn, stream, capacity,
                                                   arrivals):
    buf, model = ReceiveBuffer(isn, capacity), HeldOffsets(capacity)
    delivered = bytearray()
    for start, length, read in arrivals:
        feed(buf, model, isn, stream, start % len(stream), length, delivered)
        if read != 0:
            drain(buf, model, read)
    finish(buf, model, isn, stream, delivered, mss=100)
    assert buf.out_of_order_segments == 0


def test_overlapping_pieces_behind_a_lost_head_do_not_wedge_the_window():
    """The seed-913 case: the head segment is lost while a go-back-N sender
    keeps re-slicing the rest.  Held and charged once per arrival, 400
    overlapping pieces of a 3.5 KB stream close a 64 KB window, and then the
    head itself — and every window probe — is refused, forever."""
    isn, size, capacity = 406193857, 3537, 65535
    rng = random.Random(913)
    stream = bytes(rng.randrange(256) for _ in range(size))
    buf, model = ReceiveBuffer(isn, capacity), HeldOffsets(capacity)
    delivered = bytearray()
    for _ in range(400):
        feed(buf, model, isn, stream, rng.randrange(1, size),
             rng.randint(1, 600), delivered)
    assert not delivered
    assert capacity - buf.window <= size - 1
    finish(buf, model, isn, stream, delivered, mss=536)
    assert buf.out_of_order_segments == 0
    drain(buf, model)
    assert buf.window == capacity
