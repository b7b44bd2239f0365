"""TCP segment wire format and 32-bit sequence-space arithmetic.

The paper devotes a full section (§9) to why TCP numbers *bytes* rather than
packets: byte numbering lets a sender repacketize on retransmission —
splitting a big packet or coalescing several small ones into one — which
matters when small packets from an interactive application must be recovered
efficiently.  The segment here is the RFC-793 20-byte header (plus an MSS
option on SYNs) with real serialization and pseudo-header checksums, and the
modular comparison helpers every correct TCP needs.

Each end pays for a segment's bytes once (goal 6: the host carries this
cost itself).  The sender packs the pseudo-header and header in one
``struct`` call and sums them with the payload in one pass; the receiver
parses the header with one ``unpack_from`` and verifies in one pass, and
walks the options only when the data offset says there are some.
``tests/test_tcp_codec_differential.py`` holds the codec to the original
concatenating one, byte for byte and error for error.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from ..ip.address import Address
from ..ip.checksum import ones_complement_sum
from ..ip.packet import PROTO_TCP

__all__ = [
    "TcpSegment",
    "SegmentError",
    "TCP_HEADER_LEN",
    "FLAG_FIN",
    "FLAG_SYN",
    "FLAG_RST",
    "FLAG_PSH",
    "FLAG_ACK",
    "FLAG_URG",
    "FLAG_ECE",
    "FLAG_CWR",
    "seq_lt",
    "seq_le",
    "seq_gt",
    "seq_ge",
    "seq_add",
    "seq_sub",
]

TCP_HEADER_LEN = 20
SEQ_MOD = 1 << 32

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10
FLAG_URG = 0x20
# RFC 3168 explicit congestion notification: the receiver echoes a
# gateway's CE mark back with ECE until the sender answers CWR.
FLAG_ECE = 0x40
FLAG_CWR = 0x80

_OPT_END = 0
_OPT_NOP = 1
_OPT_MSS = 2

# The pseudo-header (source, destination, zero, protocol, TCP length) and
# the header, as the checksum sees them and as the wire carries them.
_PSEUDO = struct.Struct("!IIBBH")
_HEADER = struct.Struct("!HHIIHHHH")
_PSEUDO_AND_HEADER = struct.Struct("!IIBBH" "HHIIHHHH")
_MSS_OPTION = struct.Struct("!BBH")


class SegmentError(ValueError):
    """Raised when parsing a malformed or corrupted TCP segment."""


# ----------------------------------------------------------------------
# Modular 32-bit sequence arithmetic (RFC 793 §3.3)
# ----------------------------------------------------------------------
def seq_add(seq: int, delta: int) -> int:
    """Advance a sequence number, wrapping at 2**32."""
    return (seq + delta) % SEQ_MOD


def seq_sub(a: int, b: int) -> int:
    """Signed distance a - b in sequence space (positive if a is 'after')."""
    diff = (a - b) % SEQ_MOD
    return diff - SEQ_MOD if diff >= SEQ_MOD // 2 else diff


def seq_lt(a: int, b: int) -> bool:
    return seq_sub(a, b) < 0


def seq_le(a: int, b: int) -> bool:
    return seq_sub(a, b) <= 0


def seq_gt(a: int, b: int) -> bool:
    return seq_sub(a, b) > 0


def seq_ge(a: int, b: int) -> bool:
    return seq_sub(a, b) >= 0


@dataclass
class TcpSegment:
    """One TCP segment: header fields plus payload bytes.

    ``mss_option`` is carried only on SYN segments (the single option the
    1988-era TCPs exchanged).
    """

    src_port: int
    dst_port: int
    seq: int
    ack: int = 0
    flags: int = 0
    window: int = 0
    payload: bytes = b""
    urgent: int = 0
    mss_option: Optional[int] = None

    # -- flag accessors -------------------------------------------------
    @property
    def syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & FLAG_RST)

    @property
    def ack_flag(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @property
    def psh(self) -> bool:
        return bool(self.flags & FLAG_PSH)

    @property
    def urg(self) -> bool:
        return bool(self.flags & FLAG_URG)

    @property
    def seq_space(self) -> int:
        """Sequence numbers this segment consumes: payload + SYN + FIN."""
        return len(self.payload) + (1 if self.syn else 0) + (1 if self.fin else 0)

    @property
    def end_seq(self) -> int:
        """First sequence number *after* this segment."""
        return seq_add(self.seq, self.seq_space)

    def flag_names(self) -> str:
        names = []
        for bit, name in [(FLAG_SYN, "SYN"), (FLAG_ACK, "ACK"), (FLAG_FIN, "FIN"),
                          (FLAG_RST, "RST"), (FLAG_PSH, "PSH"), (FLAG_URG, "URG"),
                          (FLAG_ECE, "ECE"), (FLAG_CWR, "CWR")]:
            if self.flags & bit:
                names.append(name)
        return "|".join(names) or "-"

    # -- wire format ----------------------------------------------------
    def to_bytes(self, src: Address, dst: Address) -> bytes:
        """Serialize with a valid pseudo-header checksum.

        One ``struct`` call packs the pseudo-header and the header, one
        pass sums them with the payload, and the header is packed again
        with the checksum in place."""
        payload = self.payload
        if self.mss_option is None:
            options = b""
            header_len = TCP_HEADER_LEN
        else:
            # MSS option (kind=2, len=4, value): already a 4-byte multiple.
            options = _MSS_OPTION.pack(_OPT_MSS, 4, self.mss_option)
            header_len = TCP_HEADER_LEN + 4
        offset_flags = ((header_len // 4) << 12) | self.flags
        head = _PSEUDO_AND_HEADER.pack(
            src._value, dst._value, 0, PROTO_TCP, header_len + len(payload),
            self.src_port, self.dst_port, self.seq, self.ack, offset_flags,
            self.window, 0, self.urgent)
        csum = ~ones_complement_sum(head + options + payload) & 0xFFFF
        return _HEADER.pack(
            self.src_port, self.dst_port, self.seq, self.ack, offset_flags,
            self.window, csum, self.urgent) + options + payload

    @classmethod
    def from_bytes(cls, src: Address, dst: Address, data: bytes) -> "TcpSegment":
        """Parse and checksum-verify; raises :class:`SegmentError`."""
        length = len(data)
        if length < TCP_HEADER_LEN:
            raise SegmentError(f"short TCP segment: {length} bytes")
        (src_port, dst_port, seq, ack, offset_flags,
         window, _csum, urgent) = _HEADER.unpack_from(data)
        header_len = (offset_flags >> 12) * 4
        if header_len < TCP_HEADER_LEN or header_len > length:
            raise SegmentError(f"bad data offset {header_len}")
        pseudo = _PSEUDO.pack(src._value, dst._value, 0, PROTO_TCP, length)
        if ones_complement_sum(pseudo + data) != 0xFFFF:
            raise SegmentError("TCP checksum failed")
        mss = (cls._parse_mss(data[TCP_HEADER_LEN:header_len])
               if header_len > TCP_HEADER_LEN else None)
        return cls(src_port, dst_port, seq, ack, offset_flags & 0xFF, window,
                   data[header_len:], urgent, mss)

    @staticmethod
    def _parse_mss(options: bytes) -> Optional[int]:
        i = 0
        while i < len(options):
            kind = options[i]
            if kind == _OPT_END:
                break
            if kind == _OPT_NOP:
                i += 1
                continue
            if i + 1 >= len(options):
                break
            length = options[i + 1]
            if length < 2 or i + length > len(options):
                break
            if kind == _OPT_MSS and length == 4:
                return struct.unpack("!H", options[i + 2 : i + 4])[0]
            i += length
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpSegment {self.src_port}->{self.dst_port} {self.flag_names()} "
            f"seq={self.seq} ack={self.ack} len={len(self.payload)} win={self.window}>"
        )
