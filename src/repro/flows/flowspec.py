"""Flow identification: what a gateway would recognize as "a flow".

The paper's closing section sketches the next-generation building block:
"a sequence of packets being sent from a source to a destination" that
gateways recognize and give "a particular type of service" — with the state
describing it held as *soft state* the endpoints refresh, so a gateway
crash degrades service only until the next refresh (fate-sharing preserved
in spirit).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from ..ip.address import Address
from ..ip.packet import Datagram, PROTO_TCP, PROTO_UDP

__all__ = ["FlowSpec", "flow_key_of", "PROTO_RSVP"]

#: Raw IP protocol number used by the reservation/refresh messages (the
#: real RSVP's number, for familiarity).
PROTO_RSVP = 46

_SPEC_FMT = "!4s4sBBHHI"
_SPEC_LEN = struct.calcsize(_SPEC_FMT)


@dataclass(frozen=True)
class FlowSpec:
    """One flow's identity and its requested service share.

    ``weight`` is the flow's relative share for weighted fair queueing;
    ``lifetime`` is how long a gateway should keep the state without a
    refresh — the soft-state timeout.
    """

    src: Address
    dst: Address
    protocol: int
    dst_port: int            # 0 = any port
    weight: int = 1
    lifetime: float = 10.0

    @property
    def key(self) -> tuple:
        return (int(self.src), int(self.dst), self.protocol, self.dst_port)

    def matches(self, datagram: Datagram) -> bool:
        """Does a datagram belong to this flow?"""
        if datagram.src != self.src or datagram.dst != self.dst:
            return False
        if datagram.protocol != self.protocol:
            return False
        if self.dst_port == 0:
            return True
        port = _dst_port_of(datagram)
        return port == self.dst_port

    # -- wire format (carried in PROTO_RSVP datagrams) -------------------
    def pack(self) -> bytes:
        return struct.pack(_SPEC_FMT, self.src.to_bytes(), self.dst.to_bytes(),
                           self.protocol, self.weight, self.dst_port,
                           0, int(self.lifetime * 1000))

    @classmethod
    def unpack(cls, data: bytes) -> Optional["FlowSpec"]:
        if len(data) < _SPEC_LEN:
            return None
        src, dst, proto, weight, dst_port, _rsv, life_ms = struct.unpack(
            _SPEC_FMT, data[:_SPEC_LEN])
        return cls(Address.from_bytes(src), Address.from_bytes(dst),
                   proto, dst_port, max(1, weight), life_ms / 1000.0)


def _dst_port_of(datagram: Datagram) -> Optional[int]:
    """Extract the transport destination port, if the payload has one.

    Works on unfragmented datagrams and first fragments (where the
    transport header is present) — exactly the situations in which a real
    flow classifier can see ports.
    """
    if datagram.fragment_offset > 0:
        return None
    if datagram.protocol not in (PROTO_TCP, PROTO_UDP):
        return None
    if len(datagram.payload) < 4:
        return None
    return int.from_bytes(datagram.payload[2:4], "big")


def flow_key_of(datagram: Datagram) -> tuple:
    """The implicit flow key of any datagram (used for per-flow fairness of
    unreserved traffic): (src, dst, protocol)."""
    return (datagram.src._value, datagram.dst._value, datagram.protocol)
