"""The host-facing API: what attaching to the internet buys you (goal 6).

:class:`Host` bundles a node with its transport stacks and exposes a small
BSD-flavoured surface; :class:`StreamSocket` wraps a TCP connection with an
application-side write queue so callers never deal with partial writes
(the pump drains on the connection's backpressure-relief hook).

These are conveniences over the lower layers, not replacements — every
experiment that needs a knob drops down to :class:`~repro.tcp.TcpStack`
and friends directly.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from ..ip.address import Address, Prefix
from ..ip.node import Node
from ..netlayer.link import Interface
from ..routing.static import add_default_route
from ..sim.engine import Simulator
from ..sim.trace import Tracer
from ..tcp.connection import TcpConfig, TcpConnection
from ..tcp.stack import TcpStack
from ..tcp.state import TcpState
from ..udp.udp import UdpSocket, UdpStack

__all__ = ["Host", "Gateway", "StreamSocket"]


class StreamSocket:
    """A TCP connection with an unbounded application-side write queue.

    ``write`` always accepts everything; bytes flow into the transport as
    window and buffer space open up.  ``close`` flushes the queue first.
    """

    def __init__(self, conn: TcpConnection):
        self.conn = conn
        self._queue = bytearray()
        self._close_requested = False
        self.bytes_written = 0
        self.bytes_received = 0
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_open: Optional[Callable[[], None]] = None
        self.on_closed: Optional[Callable[[], None]] = None
        conn.on_established = self._handle_open
        conn.on_send_ready = lambda _free: self._pump()
        conn.on_receive = self._handle_data
        conn.on_close = self._handle_close

    # ------------------------------------------------------------------
    @property
    def established(self) -> bool:
        return self.conn.state.is_synchronized

    @property
    def pending_bytes(self) -> int:
        """Application bytes queued but not yet inside the transport."""
        return len(self._queue)

    def write(self, data: bytes) -> None:
        """Queue bytes for transmission (never blocks, never truncates)."""
        if self._close_requested:
            raise ConnectionError("write after close")
        self.bytes_written += len(data)
        self._queue.extend(data)
        self._pump()

    def close(self) -> None:
        """Flush the queue, then close the connection gracefully."""
        self._close_requested = True
        self._pump()

    def abort(self) -> None:
        self._queue.clear()
        self.conn.abort()

    # ------------------------------------------------------------------
    def _pump(self) -> None:
        conn = self.conn
        if self._queue and conn.state.can_send:
            # Hand over only what fits: copying the whole backlog to have
            # all but a segment's worth refused made a transfer's host cost
            # quadratic in its size.  ``send`` runs even with nothing to
            # hand over, because it is what prompts the transport to send.
            accepted = conn.send(bytes(self._queue[:conn.send_buffer.free_space]))
            if accepted:
                del self._queue[:accepted]
        if self._close_requested and not self._queue and not conn.fin_queued:
            if conn.state.can_send or conn.state is TcpState.SYN_SENT:
                conn.close()

    def _handle_open(self) -> None:
        if self.on_open is not None:
            self.on_open()
        self._pump()

    def _handle_data(self, data: bytes) -> None:
        self.bytes_received += len(data)
        if self.on_data is not None:
            self.on_data(data)

    def _handle_close(self) -> None:
        if self.on_closed is not None:
            self.on_closed()


class Host:
    """A host: one node, one interface (usually), UDP and TCP stacks."""

    def __init__(self, name: str, sim: Simulator, *,
                 tcp_config: Optional[TcpConfig] = None,
                 tracer: Optional[Tracer] = None):
        self.node = Node(name, sim, is_gateway=False, tracer=tracer)
        self.sim = sim
        self.udp = UdpStack(self.node)
        self.tcp = TcpStack(self.node, tcp_config)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def address(self) -> Address:
        return self.node.address

    def attach(self, name: str, address: Union[str, Address],
               prefix: Union[str, Prefix]) -> Interface:
        """Add an interface with the given address on the given network."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        return self.node.add_interface(Interface(name, Address(address), prefix))

    def default_route(self, next_hop: Union[str, Address]) -> None:
        add_default_route(self.node, next_hop)

    # -- TCP --------------------------------------------------------------
    def connect(self, remote: Union[str, Address], port: int,
                *, config: Optional[TcpConfig] = None) -> StreamSocket:
        """Active TCP open; returns a stream socket (not yet established)."""
        return StreamSocket(self.tcp.connect(remote, port, config=config))

    def listen(self, port: int,
               on_socket: Callable[[StreamSocket], None],
               *, config: Optional[TcpConfig] = None) -> None:
        """Passive TCP open: each accepted connection arrives wrapped."""
        self.tcp.listen(port, lambda conn: on_socket(StreamSocket(conn)),
                        config=config)

    # -- UDP --------------------------------------------------------------
    def udp_socket(self, port: int = 0,
                   on_datagram=None) -> UdpSocket:
        return self.udp.bind(port, on_datagram)

    def __repr__(self) -> str:
        return f"<Host {self.name} {self.address if self.node.interfaces else 'unattached'}>"


class Gateway:
    """A gateway: forwarding node, optionally with transport stacks for
    routing protocols (which run over UDP)."""

    def __init__(self, name: str, sim: Simulator, *,
                 tracer: Optional[Tracer] = None):
        self.node = Node(name, sim, is_gateway=True, tracer=tracer)
        self.sim = sim
        self.udp = UdpStack(self.node)

    @property
    def name(self) -> str:
        return self.node.name

    def attach(self, name: str, address: Union[str, Address],
               prefix: Union[str, Prefix]) -> Interface:
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        return self.node.add_interface(Interface(name, Address(address), prefix))

    def __repr__(self) -> str:
        return f"<Gateway {self.name} ifaces={len(self.node.interfaces)}>"
