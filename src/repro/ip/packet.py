"""The IP datagram — the architecture's basic building block.

The paper is explicit that the datagram is "not ... a service" but the
*building block*: a self-contained, stateless unit carrying everything the
network needs to forward it.  This module defines the datagram with a real,
byte-accurate 20-byte header (RFC-791 layout, no options) so that header
overhead (goal 5 / experiment E5) is measured, not estimated, and
fragmentation (E11) manipulates genuine offset/flag fields.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .address import Address
from .checksum import internet_checksum, verify_checksum

__all__ = [
    "Datagram",
    "HeaderError",
    "IP_HEADER_LEN",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "DEFAULT_TTL",
    "TOS_ECT",
    "TOS_CE",
]

IP_HEADER_LEN = 20
DEFAULT_TTL = 32

# ECN codepoints in the two low bits of the TOS byte (RFC 3168 layout).
# A transport that understands marking sets ECT at origination; a gateway
# whose early-drop queue would have dropped the packet sets CE instead.
# Transports that never set ECT keep the classic contract: congestion is
# signalled only by loss.
TOS_ECT = 0x02
TOS_CE = 0x01

# Protocol numbers (the real IANA ones, for familiarity).
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

_FLAG_DF = 0x2  # don't fragment
_FLAG_MF = 0x1  # more fragments

_HEADER_FMT = "!BBHHHBBH4s4s"


class HeaderError(ValueError):
    """Raised when parsing a malformed or corrupted IP header."""


@dataclass(slots=True)
class Datagram:
    """One IP datagram: header fields plus an opaque byte payload.

    ``ident`` disambiguates fragments of different datagrams; gateways that
    fragment copy it into every piece.  ``payload`` is the already-serialized
    transport segment (TCP/UDP/ICMP bytes).

    ``slots=True`` matters: datagrams are the hottest allocation in the
    simulator (one per hop), and dropping the per-
    instance ``__dict__`` roughly halves both the memory and the creation
    cost.
    """

    src: Address
    dst: Address
    protocol: int
    payload: bytes = b""
    ttl: int = DEFAULT_TTL
    ident: int = 0
    dont_fragment: bool = False
    more_fragments: bool = False
    fragment_offset: int = 0  # in 8-byte units, per RFC 791
    tos: int = 0
    #: Observability trace context (0 = untraced).  Stamped once at
    #: origination by the sending node when an
    #: :class:`~repro.obs.core.Observability` layer is installed; every
    #: derivative — forwarded hops, fragments, the reassembled whole —
    #: inherits it, which is what lets a journey survive
    #: fragmentation and reassembly.  Simulation metadata only: it is not
    #: part of the RFC-791 wire format and ``to_bytes``/``from_bytes``
    #: deliberately ignore it (a parsed datagram starts a fresh, untraced
    #: life, exactly like a packet entering from outside the observed net).
    trace_id: int = 0

    @property
    def header_length(self) -> int:
        return IP_HEADER_LEN

    @property
    def total_length(self) -> int:
        """Bytes on the wire: header plus payload."""
        return IP_HEADER_LEN + len(self.payload)

    @property
    def is_fragment(self) -> bool:
        return self.more_fragments or self.fragment_offset > 0

    def copy(self, **changes) -> "Datagram":
        """Return a copy, with ``changes`` applied (fault injection and
        traceroute pass them; the transit path copies bare and decrements
        ``ttl`` itself — this is the hop's one datagram allocation).

        Hand-rolled instead of :func:`dataclasses.replace`: ``replace``
        re-enters ``__init__`` through keyword dispatch.  Direct slot
        assignment is ~3x cheaper and behaves identically (an unknown
        field name raises, via ``setattr`` on the slotted class).
        """
        new = object.__new__(Datagram)
        new.src = self.src
        new.dst = self.dst
        new.protocol = self.protocol
        new.payload = self.payload
        new.ttl = self.ttl
        new.ident = self.ident
        new.dont_fragment = self.dont_fragment
        new.more_fragments = self.more_fragments
        new.fragment_offset = self.fragment_offset
        new.tos = self.tos
        new.trace_id = self.trace_id
        if changes:
            for name, value in changes.items():
                setattr(new, name, value)
        return new

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to RFC-791 wire format with a valid header checksum."""
        if not 0 <= self.ttl <= 255:
            raise HeaderError(f"ttl out of range: {self.ttl}")
        if not 0 <= self.ident <= 0xFFFF:
            raise HeaderError(f"ident out of range: {self.ident}")
        if not 0 <= self.fragment_offset < 8192:
            # The low bound matters as much as the high one: a negative
            # offset would silently pack corrupt flag bits (two's
            # complement bleeding into the flags field).
            raise HeaderError(f"fragment offset out of range: {self.fragment_offset}")
        version_ihl = (4 << 4) | (IP_HEADER_LEN // 4)
        flags = (_FLAG_DF if self.dont_fragment else 0) | (
            _FLAG_MF if self.more_fragments else 0
        )
        flags_frag = (flags << 13) | self.fragment_offset
        header = struct.pack(
            _HEADER_FMT,
            version_ihl,
            self.tos,
            self.total_length,
            self.ident,
            flags_frag,
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            self.src.to_bytes(),
            self.dst.to_bytes(),
        )
        csum = internet_checksum(header)
        header = header[:10] + struct.pack("!H", csum) + header[12:]
        return header + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Datagram":
        """Parse wire bytes; raises :class:`HeaderError` on corruption."""
        if len(data) < IP_HEADER_LEN:
            raise HeaderError(f"short datagram: {len(data)} bytes")
        (
            version_ihl,
            tos,
            total_length,
            ident,
            flags_frag,
            ttl,
            protocol,
            _csum,
            src_bytes,
            dst_bytes,
        ) = struct.unpack(_HEADER_FMT, data[:IP_HEADER_LEN])
        if version_ihl >> 4 != 4:
            raise HeaderError(f"bad version {version_ihl >> 4}")
        ihl = (version_ihl & 0xF) * 4
        if ihl != IP_HEADER_LEN:
            raise HeaderError(f"unsupported header length {ihl}")
        if not verify_checksum(data[:IP_HEADER_LEN]):
            raise HeaderError("header checksum failed")
        if total_length > len(data):
            raise HeaderError(
                f"truncated datagram: header says {total_length}, have {len(data)}"
            )
        flags = flags_frag >> 13
        return cls(
            src=Address.from_bytes(src_bytes),
            dst=Address.from_bytes(dst_bytes),
            protocol=protocol,
            payload=data[IP_HEADER_LEN:total_length],
            ttl=ttl,
            ident=ident,
            dont_fragment=bool(flags & _FLAG_DF),
            more_fragments=bool(flags & _FLAG_MF),
            fragment_offset=flags_frag & 0x1FFF,
            tos=tos,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        frag = ""
        if self.is_fragment:
            frag = f" frag(off={self.fragment_offset * 8},mf={int(self.more_fragments)})"
        return (
            f"<Datagram {self.src}->{self.dst} proto={self.protocol} "
            f"len={self.total_length} ttl={self.ttl} id={self.ident}{frag}>"
        )
