"""UDP: the raw datagram service exposed to applications.

The paper's second goal is the reason UDP exists at all: once it became
clear that reliable sequenced delivery (then built into TCP-as-monolith) was
*wrong* for the XNET debugger and for packet voice, "it was decided to take
the more radical step of splitting TCP and IP" and provide UDP as the
application-level hook to the elemental datagram service.  UDP adds exactly
two things to IP: ports for demultiplexing and an (optional) checksum.
"""

from __future__ import annotations

import struct
from typing import Callable, NamedTuple, Optional, Union

from ..ip.address import Address
from ..ip.checksum import ones_complement_sum
from ..ip.node import Node
from ..ip.packet import Datagram, PROTO_UDP
from ..ip import icmp
from ..netlayer.link import Interface

__all__ = ["UdpHeader", "UdpStack", "UdpSocket", "UdpError",
           "UdpChecksumError", "UDP_HEADER_LEN", "MGMT_PORT"]

UDP_HEADER_LEN = 8

#: The well-known in-band management port (the pre-SNMP agent of
#: :mod:`repro.netmgmt` answers here; 161 in homage to what came a year
#: later).  Reserved: ordinary applications may not bind it by accident —
#: :meth:`UdpStack.bind` requires ``well_known=True`` — so a management
#: station can assume whatever answers on it *is* the management agent.
MGMT_PORT = 161

#: Receive callback: (payload, source address, source port).
DatagramCallback = Callable[[bytes, Address, int], None]


class UdpError(ValueError):
    """Raised for malformed UDP segments or port conflicts."""


class UdpChecksumError(UdpError):
    """Raised by :func:`decode` when the pseudo-header checksum fails.

    A real host silently drops such a segment; :class:`UdpStack` catches
    this at its input boundary and counts it in ``checksum_failures``
    rather than letting it propagate through the node's delivery path.
    """


# The pseudo-header and the header, as the checksum and the wire see them.
_PSEUDO = struct.Struct("!IIBBH")
_HEADER = struct.Struct("!HHHH")
_PSEUDO_AND_HEADER = struct.Struct("!IIBBH" "HHHH")


class UdpHeader(NamedTuple):
    """The 8-byte UDP header."""

    src_port: int
    dst_port: int
    length: int
    checksum: int = 0

    def to_bytes(self) -> bytes:
        return _HEADER.pack(*self)


def encode(src: Address, dst: Address, src_port: int, dst_port: int,
           payload: bytes, *, with_checksum: bool = True) -> bytes:
    """Build a UDP segment (header + payload) with pseudo-header checksum:
    one pack of pseudo-header and header, one sum over them and the
    payload, and the header packed again with the checksum in place."""
    length = UDP_HEADER_LEN + len(payload)
    csum = 0
    if with_checksum:
        head = _PSEUDO_AND_HEADER.pack(src._value, dst._value, 0, PROTO_UDP,
                                       length, src_port, dst_port, length, 0)
        # A computed 0 is sent as 0xFFFF: a transmitted 0 means "no checksum".
        csum = ~ones_complement_sum(head + payload) & 0xFFFF or 0xFFFF
    return _HEADER.pack(src_port, dst_port, length, csum) + payload


def decode(src: Address, dst: Address, segment: bytes) -> tuple[UdpHeader, bytes]:
    """Parse and checksum-verify a UDP segment: one ``unpack_from``, and
    one pass over the pseudo-header and segment when it carries a sum."""
    if len(segment) < UDP_HEADER_LEN:
        raise UdpError(f"short UDP segment: {len(segment)} bytes")
    src_port, dst_port, length, checksum = _HEADER.unpack_from(segment)
    if length < UDP_HEADER_LEN or length > len(segment):
        raise UdpError(f"bad UDP length {length}")
    if checksum and ones_complement_sum(
            _PSEUDO.pack(src._value, dst._value, 0, PROTO_UDP, length)
            + segment[:length]) != 0xFFFF:
        raise UdpChecksumError("UDP checksum failed")
    return (UdpHeader(src_port, dst_port, length, checksum),
            segment[UDP_HEADER_LEN:length])


class UdpSocket:
    """A bound UDP port on one node."""

    def __init__(self, stack: "UdpStack", port: int,
                 on_datagram: Optional[DatagramCallback] = None):
        self._stack = stack
        self.port = port
        self.on_datagram = on_datagram
        self.received = 0
        self.sent = 0
        self.closed = False

    def sendto(self, payload: bytes, dst: Union[str, Address], dst_port: int,
               *, ttl: int = 32, tos: int = 0,
               trace_label: Optional[str] = None) -> bool:
        """Send one datagram; returns False if IP could not route it.

        ``trace_label`` tags control-plane senders (routing updates, path
        probes) for attribution in the observability layer."""
        if self.closed:
            raise UdpError("socket is closed")
        self.sent += 1
        if type(dst) is not Address:
            dst = Address(dst)
        return self._stack.send(self.port, dst, dst_port, payload,
                                ttl=ttl, tos=tos, trace_label=trace_label)

    def close(self) -> None:
        self.closed = True
        self._stack._unbind(self.port)

    def _deliver(self, payload: bytes, src: Address, src_port: int) -> None:
        self.received += 1
        if self.on_datagram is not None:
            self.on_datagram(payload, src, src_port)


class UdpStack:
    """Per-node UDP: port table, encode/decode, ICMP port-unreachable."""

    EPHEMERAL_BASE = 49152

    #: Ports applications may not bind without declaring intent
    #: (``well_known=True``): currently just the management agent's.
    RESERVED_PORTS = frozenset({MGMT_PORT})

    def __init__(self, node: Node, *, checksums: bool = True):
        self.node = node
        self.checksums = checksums
        self._sockets: dict[int, UdpSocket] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        self.bad_segments = 0
        self.checksum_failures = 0
        #: Management-plane drop accounting.  These conceptually belong to
        #: the UDP boundary (the agent drops the request before any
        #: application semantics run), so they live here where every
        #: ``stats_dict`` consumer of the stack already looks.
        self.mgmt_bad_community = 0
        self.mgmt_malformed = 0
        node.register_protocol(PROTO_UDP, self._input)

    # ------------------------------------------------------------------
    def bind(self, port: int = 0,
             on_datagram: Optional[DatagramCallback] = None,
             *, well_known: bool = False) -> UdpSocket:
        """Bind a port (0 = pick an ephemeral one) and return the socket.

        Reserved well-known ports (:data:`MGMT_PORT`) require
        ``well_known=True`` — the caller must *mean* to be that service.
        """
        if port == 0:
            port = self._pick_ephemeral()
        if port in self.RESERVED_PORTS and not well_known:
            raise UdpError(
                f"port {port} is reserved (well-known service); "
                f"pass well_known=True to bind it deliberately")
        if port in self._sockets:
            raise UdpError(f"port {port} already bound on {self.node.name}")
        sock = UdpSocket(self, port, on_datagram)
        self._sockets[port] = sock
        return sock

    def _pick_ephemeral(self) -> int:
        for _ in range(65536 - self.EPHEMERAL_BASE):
            candidate = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral >= 65536:
                self._next_ephemeral = self.EPHEMERAL_BASE
            if candidate not in self._sockets:
                return candidate
        raise UdpError("no ephemeral ports left")

    def _unbind(self, port: int) -> None:
        self._sockets.pop(port, None)

    # ------------------------------------------------------------------
    def send(self, src_port: int, dst: Address, dst_port: int, payload: bytes,
             *, ttl: int = 32, tos: int = 0,
             trace_label: Optional[str] = None) -> bool:
        # One resolution; the checksum below needs the source address and
        # Node.send the way out (it would otherwise resolve dst again).
        route, src = self.node.route_and_source(dst)
        obs = self.node.obs
        if obs is not None and obs.enabled:
            obs.registry.counter("udp_segments", node=self.node.name,
                                 direction="out").inc()
        segment = encode(src, dst, src_port, dst_port, payload,
                         with_checksum=self.checksums)
        return self.node.send(dst, PROTO_UDP, segment, ttl=ttl, tos=tos,
                              src=src, trace_label=trace_label, route=route)

    def _input(self, node: Node, datagram: Datagram,
               iface: Optional[Interface]) -> None:
        obs = node.obs
        if obs is not None and obs.enabled:
            obs.registry.counter("udp_segments", node=node.name,
                                 direction="in").inc()
        try:
            header, payload = decode(datagram.src, datagram.dst, datagram.payload)
        except UdpChecksumError:
            # Drop silently, as a real host would; never let a corrupted
            # segment raise through the node's delivery path.
            self.bad_segments += 1
            self.checksum_failures += 1
            if obs is not None and obs.enabled:
                obs.drop(node.sim.now, node.name, "drop-udp-checksum",
                         datagram)
            return
        except UdpError:
            self.bad_segments += 1
            return
        sock = self._sockets.get(header.dst_port)
        if sock is None:
            node._send_icmp(icmp.destination_unreachable(
                node.address, datagram, icmp.UNREACH_PORT))
            return
        sock._deliver(payload, datagram.src, header.src_port)
