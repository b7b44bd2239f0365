"""TCP send and receive buffers over the byte sequence space.

These embody the paper's §9 argument for byte (not packet) sequencing: the
send buffer is a *stream* of bytes indexed by sequence number, so a
retransmission can cut segments at different boundaries than the original
transmission (splitting or coalescing — "repacketization").  A
packet-sequenced TCP (:mod:`repro.tcp.packet_tcp`) cannot do this, which is
exactly what experiment E9 measures.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from .segment import seq_add, seq_sub

__all__ = ["SendBuffer", "ReceiveBuffer"]


class SendBuffer:
    """The sender's byte stream: unacked plus unsent bytes.

    ``base_seq`` is the sequence number of ``self._data[0]`` (= SND.UNA's
    byte).  Application writes append; acks trim from the front; reads for
    (re)transmission slice anywhere in [SND.UNA, end) — that slicing freedom
    *is* repacketization.
    """

    def __init__(self, base_seq: int, capacity: int = 65535):
        self.base_seq = base_seq
        self.capacity = capacity
        self._data = bytearray()
        #: Stream offset (bytes since ``base_seq`` was first set; a plain
        #: int, so it never wraps) of ``self._data[0]``.
        self._acked = 0
        #: Marks (stream offsets just past an application write, ascending)
        #: where PSH should be set, preserving the "rubber EOL" semantics
        #: of §9.  Offsets are absolute, so an ack only drops a prefix.
        self._push_points: list[int] = []

    def __len__(self) -> int:
        return len(self._data)

    @property
    def free_space(self) -> int:
        free = self.capacity - len(self._data)
        return free if free > 0 else 0

    @property
    def end_seq(self) -> int:
        """One past the last buffered byte."""
        return seq_add(self.base_seq, len(self._data))

    def write(self, data: bytes, *, push: bool = True) -> int:
        """Append application data; returns bytes accepted (may be short)."""
        buffered = len(self._data)
        free = self.capacity - buffered
        accepted = data[: free if free > 0 else 0]
        taken = len(accepted)
        self._data.extend(accepted)
        if push and taken:
            self._push_points.append(self._acked + buffered + taken)
        return taken

    def read(self, seq: int, length: int) -> bytes:
        """Slice ``length`` bytes starting at sequence number ``seq``."""
        offset = seq_sub(seq, self.base_seq)
        if offset < 0:
            raise ValueError(f"seq {seq} already acked (base {self.base_seq})")
        return bytes(self._data[offset : offset + length])

    def available_from(self, seq: int) -> int:
        """Bytes buffered at or after ``seq``."""
        offset = seq_sub(seq, self.base_seq)
        size = len(self._data)
        if offset <= 0:
            return size
        return size - offset if offset < size else 0

    def push_at(self, seq: int, length: int) -> bool:
        """Should a segment covering [seq, seq+length) carry PSH?

        True when a push point falls inside or at the end of the range —
        i.e. the segment completes (part of) an application write.
        """
        start = self._acked + seq_sub(seq, self.base_seq)
        points = self._push_points
        first = bisect_right(points, start)      # the first point > start
        return first < len(points) and points[first] <= start + length

    def ack_to(self, seq: int) -> int:
        """Trim bytes acknowledged up to ``seq``; returns bytes freed."""
        advance = seq_sub(seq, self.base_seq)
        if advance <= 0:
            return 0
        advance = min(advance, len(self._data))
        del self._data[:advance]
        self.base_seq = seq_add(self.base_seq, advance)
        self._acked += advance
        points = self._push_points
        if points and points[0] <= self._acked:
            del points[: bisect_right(points, self._acked)]
        return advance


class ReceiveBuffer:
    """The receiver's resequencing buffer.

    Accepts segments in any order, holds out-of-order bytes, delivers the
    in-order prefix to the application, and computes the advertised window
    (flow control on *bytes*, as §9 discusses — with the buffer capacity
    bounding both).
    """

    def __init__(self, rcv_next: int, capacity: int = 65535):
        self.rcv_next = rcv_next              # next in-order byte expected
        self.capacity = capacity
        self._delivered_not_read = bytearray()  # in-order, awaiting app read
        #: Out-of-order bytes: disjoint pieces in ascending order from
        #: ``rcv_next`` (start sequence numbers and payloads in step), and
        #: their total length.  No byte is held twice, so what is held never
        #: exceeds what the advertised window allowed the peer to send.
        self._ooo_seqs: list[int] = []
        self._ooo_data: list[bytes] = []
        self._ooo_bytes = 0
        self.bytes_received = 0
        self.duplicate_bytes = 0

    @property
    def window(self) -> int:
        """Advertised receive window: capacity minus everything held."""
        free = self.capacity - self._ooo_bytes
        if self._delivered_not_read:
            free -= len(self._delivered_not_read)
        return free if free > 0 else 0

    def accept(self, seq: int, data: bytes) -> bytes:
        """Feed one segment's payload; returns newly in-order bytes (possibly
        empty), and holds them until the application reads them."""
        data = self.take(seq, data)
        if data:
            self._delivered_not_read.extend(data)
        return data

    def take(self, seq: int, data: bytes) -> bytes:
        """:meth:`accept` for an application that consumes on arrival (the
        connection's push model): the newly in-order bytes are returned and
        not held, so there is nothing to read back out."""
        if not data:
            return b""
        length = len(data)
        self.bytes_received += length
        ahead = seq_sub(seq, self.rcv_next)
        if ahead < 0:
            if -ahead >= length:
                self.duplicate_bytes += length
                return b""  # entirely old
            self.duplicate_bytes += -ahead
            data = data[-ahead:]
            length += ahead
            ahead = 0
        # Respect the window: drop bytes beyond capacity.
        keep = self.window - ahead
        if length > keep:
            if keep <= 0:
                return b""
            data = data[:keep]
            length = keep
        if ahead > 0:
            self._stash_ooo(ahead, data)
            return b""
        # In-order: advance, then drain any now-contiguous stashed pieces.
        self.rcv_next = seq_add(self.rcv_next, length)
        if self._ooo_seqs:
            data = data + self._drain_ooo()
        return bytes(data)

    def _stash_ooo(self, ahead: int, data: bytes) -> None:
        """Hold the bytes of ``data`` (which starts ``ahead`` > 0 bytes past
        ``rcv_next``) that are not held already: the first arrival of a byte
        wins, as it does for bytes already delivered."""
        seqs, pieces = self._ooo_seqs, self._ooo_data
        rcv_next = self.rcv_next

        def ahead_of(seq: int) -> int:
            return seq_sub(seq, rcv_next)

        end = ahead + len(data)
        # Pieces [:i] start at or before the arrival; only the last of them
        # can reach into it.  Pieces [i:] start inside or beyond it.
        i = bisect_right(seqs, ahead, key=ahead_of)
        cursor = ahead
        if i:
            cursor = max(cursor, ahead_of(seqs[i - 1]) + len(pieces[i - 1]))
        while cursor < end:
            held_from = ahead_of(seqs[i]) if i < len(seqs) else end
            gap_end = min(held_from, end)
            if cursor < gap_end:
                seqs.insert(i, seq_add(rcv_next, cursor))
                pieces.insert(i, data[cursor - ahead : gap_end - ahead])
                self._ooo_bytes += gap_end - cursor
                i += 1
            if held_from >= end:
                break
            cursor = held_from + len(pieces[i])
            i += 1

    def _drain_ooo(self) -> bytes:
        """Release the held pieces ``rcv_next`` has reached, advancing it
        through every piece that is now contiguous."""
        out = bytearray()
        seqs, pieces = self._ooo_seqs, self._ooo_data
        reached = 0
        while reached < len(seqs):
            delta = seq_sub(self.rcv_next, seqs[reached])
            if delta < 0:
                break
            piece = pieces[reached]
            reached += 1
            self._ooo_bytes -= len(piece)
            if delta >= len(piece):
                self.duplicate_bytes += len(piece)
            else:
                out += piece[delta:]
                self.rcv_next = seq_add(self.rcv_next, len(piece) - delta)
        del seqs[:reached], pieces[:reached]
        return bytes(out)

    def read(self, max_bytes: Optional[int] = None) -> bytes:
        """Application read: consume in-order bytes (opens the window)."""
        if max_bytes is None:
            max_bytes = len(self._delivered_not_read)
        out = bytes(self._delivered_not_read[:max_bytes])
        del self._delivered_not_read[:max_bytes]
        return out

    @property
    def readable(self) -> int:
        return len(self._delivered_not_read)

    @property
    def out_of_order_segments(self) -> int:
        return len(self._ooo_seqs)
