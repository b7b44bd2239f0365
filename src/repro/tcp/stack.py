"""Per-host TCP: demultiplexing, listeners, and the IP boundary.

The stack is the host's half of the TCP/IP split (§5): it turns the raw
datagram service below into connections above.  It owns the 4-tuple
demultiplexing table, the listening sockets, ISN generation, and converts
ICMP errors back into per-connection advice.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from ..ip.address import Address
from ..ip.node import Node
from ..ip.packet import Datagram, PROTO_TCP, TOS_CE, TOS_ECT
from ..ip import icmp
from ..netlayer.link import Interface
from .connection import TcpConfig, TcpConnection
from .segment import FLAG_ACK, FLAG_RST, SegmentError, TcpSegment, seq_add
from .state import TcpState

__all__ = ["TcpStack", "TcpListener", "QuietTimeError"]


class QuietTimeError(ConnectionError):
    """Raised when an active open is attempted during the RFC 793 quiet
    time after a host reboot — the stack must stay silent until sequence
    numbers from its previous incarnation have drained from the net."""


class TcpListener:
    """A passive socket: accepts SYNs on a port and spawns connections."""

    def __init__(self, stack: "TcpStack", port: int,
                 on_connection: Callable[[TcpConnection], None],
                 config: Optional[TcpConfig] = None):
        self.stack = stack
        self.port = port
        self.on_connection = on_connection
        self.config = config
        self.accepted = 0
        self.closed = False
        #: Embryonic (SYN_RECEIVED) connections this listener spawned, in
        #: arrival order — the eviction queue for ``max_half_open``.
        self.half_open: list[TcpConnection] = []
        #: Half-open connections evicted because the backlog overflowed.
        self.syn_drops = 0

    def close(self) -> None:
        """Stop accepting.  Connections this listener already spawned are
        untouched — they demultiplex by their own 4-tuple, not through the
        listener — and later SYNs to the port are refused with RST."""
        self.closed = True
        if self.stack._listeners.get(self.port) is self:
            del self.stack._listeners[self.port]


class TcpStack:
    """One node's TCP implementation.

    >>> stack = TcpStack(host)
    >>> stack.listen(23, on_connection=serve)
    >>> conn = other_stack.connect(host.address, 23)
    """

    EPHEMERAL_BASE = 49152

    def __init__(self, node: Node, config: Optional[TcpConfig] = None):
        self.node = node
        self.config = config or TcpConfig()
        self._connections: dict[tuple, TcpConnection] = {}
        self._listeners: dict[int, TcpListener] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        self._isn_counter = itertools.count(0)
        self.bad_segments = 0
        self.resets_sent = 0
        #: SYNs answered with RST because no (open) listener wanted them.
        self.refused_syns = 0
        #: Embryonic connections evicted by the ``max_half_open`` cap,
        #: summed across all listeners (per-listener counts live on the
        #: listeners themselves).
        self.syn_drops = 0
        #: Segments dropped while honoring post-reboot quiet time.
        self.quiet_time_drops = 0
        #: ISNs ever generated, and how many were generated *inside* a
        #: quiet-time window — the observation surface the chaos
        #: quiet-time monitor checks (it must stay 0).
        self.isns_issued = 0
        self.isn_quiet_violations = 0
        #: Simulation time of the last completed reboot, or None.
        self.restarted_at: Optional[float] = None
        #: Set False to *disable* quiet-time enforcement (the monitor then
        #: catches the resulting early ISNs — used to prove it watches).
        self.enforce_quiet_time = True
        self._quiet_until = -float("inf")
        node.register_protocol(PROTO_TCP, self._input)
        node.add_icmp_error_listener(self._icmp_error)
        # Fate-sharing: conversation state lives and dies with the host.
        node.on_crash.append(self._host_crashed)
        node.on_restore.append(self._host_restored)

    # ------------------------------------------------------------------
    # Socket-ish API
    # ------------------------------------------------------------------
    def listen(self, port: int, on_connection: Callable[[TcpConnection], None],
               config: Optional[TcpConfig] = None) -> TcpListener:
        """Open a passive socket on ``port``."""
        if port in self._listeners:
            raise ValueError(f"port {port} already listening on {self.node.name}")
        listener = TcpListener(self, port, on_connection, config)
        self._listeners[port] = listener
        return listener

    def connect(self, remote_addr, remote_port: int, *,
                local_port: int = 0,
                config: Optional[TcpConfig] = None) -> TcpConnection:
        """Active open; returns the connection in SYN_SENT."""
        if self.in_quiet_time():
            raise QuietTimeError(
                f"{self.node.name} rebooted at t={self.restarted_at:.3f}: "
                f"quiet time for another {self.quiet_remaining():.3f}s")
        remote = Address(remote_addr)
        if local_port == 0:
            local_port = self._pick_ephemeral(remote, remote_port)
        local_addr = self.node.source_for(remote)
        conn = TcpConnection(self, local_addr, local_port, remote, remote_port,
                             config or self.config)
        key = conn.key
        if key in self._connections:
            raise ValueError(f"connection {key} already exists")
        self._connections[key] = conn
        conn.open_active()
        return conn

    def _pick_ephemeral(self, remote: Address, remote_port: int) -> int:
        for _ in range(65536 - self.EPHEMERAL_BASE):
            candidate = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral >= 65536:
                self._next_ephemeral = self.EPHEMERAL_BASE
            if (candidate, int(remote), remote_port) not in self._connections:
                return candidate
        raise RuntimeError("no ephemeral ports left")

    def generate_isn(self) -> int:
        """Clock-driven ISN (RFC 793's 4 µs tick) plus a tiebreak counter."""
        self.isns_issued += 1
        if self.node.sim.now < self._quiet_until:
            # Bookkept unconditionally (not only when enforcement is on):
            # this is the raw observation the quiet-time monitor audits.
            self.isn_quiet_violations += 1
        return (int(self.node.sim.now * 250_000) + next(self._isn_counter) * 64) % (1 << 32)

    @property
    def connections(self) -> list[TcpConnection]:
        return list(self._connections.values())

    def connection_closed(self, conn: TcpConnection) -> None:
        """Called by a connection entering CLOSED: remove from the table."""
        self._connections.pop(conn.key, None)

    # ------------------------------------------------------------------
    # Host reboot: fate-sharing and RFC 793 quiet time
    # ------------------------------------------------------------------
    @property
    def quiet_time(self) -> float:
        return self.config.effective_quiet_time()

    def in_quiet_time(self) -> bool:
        return self.enforce_quiet_time and self.node.sim.now < self._quiet_until

    def quiet_remaining(self) -> float:
        """Seconds of post-reboot silence still owed (0 when none)."""
        if not self.enforce_quiet_time:
            return 0.0
        return max(0.0, self._quiet_until - self.node.sim.now)

    def _host_crashed(self) -> None:
        """The host lost power: every conversation dies *with* it.

        This is fate-sharing made literal — no FIN, no RST, no callback
        into an application that no longer exists.  Timers are stopped so
        nothing of the old incarnation fires during the blackout; the
        demux table and listening sockets simply vanish."""
        now = self.node.sim.now
        for conn in list(self._connections.values()):
            conn._stop_timers()
            if conn.close_reason is None:
                conn.close_reason = "host-crash"
            conn.state = TcpState.CLOSED
            conn.stats.closed_at = now
        self._connections.clear()
        for listener in list(self._listeners.values()):
            listener.closed = True
        self._listeners.clear()

    def _host_restored(self) -> None:
        """Reboot complete: start the RFC 793 quiet time.

        The clock-driven ISN survives the reboot, but the tiebreak counter
        and ephemeral-port allocator were volatile state — they restart
        from scratch, which is exactly why the quiet time exists: segments
        from the previous incarnation may still be in flight, and reusing
        their sequence space too early corrupts a resurrected
        conversation."""
        now = self.node.sim.now
        self.restarted_at = now
        self._quiet_until = now + self.quiet_time
        self._next_ephemeral = self.EPHEMERAL_BASE
        self._isn_counter = itertools.count(0)
        self.node.tracer.log(now, "tcp", self.node.name, "quiet-time",
                             f"until t={self._quiet_until:.3f}")

    # ------------------------------------------------------------------
    # IP boundary
    # ------------------------------------------------------------------
    def transmit(self, conn: TcpConnection, seg: TcpSegment) -> None:
        """Serialize and hand one segment to IP."""
        obs = self.node.obs
        if obs is not None and obs.enabled:
            obs.registry.counter("tcp_segments", node=self.node.name,
                                 direction="out").inc()
        wire = seg.to_bytes(conn.local_addr, conn.remote_addr)
        # An ECN-capable connection marks every datagram ECT: the license
        # a gateway's early-drop queue needs to mark instead of dropping.
        tos = TOS_ECT if conn.config.ecn else 0
        self.node.send(conn.remote_addr, PROTO_TCP, wire,
                       ttl=conn.config.ttl, src=conn.local_addr, tos=tos)

    def _input(self, node: Node, datagram: Datagram,
               iface: Optional[Interface]) -> None:
        obs = node.obs
        if obs is not None and obs.enabled:
            obs.registry.counter("tcp_segments", node=node.name,
                                 direction="in").inc()
        try:
            seg = TcpSegment.from_bytes(datagram.src, datagram.dst,
                                        datagram.payload)
        except SegmentError:
            self.bad_segments += 1
            return
        if node.sim._now < self._quiet_until and self.enforce_quiet_time:
            # RFC 793 quiet time: the freshly rebooted host neither answers
            # old segments (no RSTs yet) nor accepts new conversations until
            # its previous incarnation's sequence numbers have drained.
            self.quiet_time_drops += 1
            return
        key = (seg.dst_port, datagram.src._value, seg.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.segment_arrived(seg, ce=bool(datagram.tos & TOS_CE))
            return
        listener = self._listeners.get(seg.dst_port)
        if listener is not None and not listener.closed and seg.syn and not seg.ack_flag:
            cfg = listener.config or self.config
            if 0 < cfg.max_half_open <= len(listener.half_open):
                # Embryos that completed the handshake (or died) leave the
                # backlog lazily, when it looks full; the survivors are the
                # true half-open set.
                listener.half_open = [
                    c for c in listener.half_open
                    if c.state is TcpState.SYN_RECEIVED]
                while len(listener.half_open) >= cfg.max_half_open:
                    # Drop-oldest: flooded SYNs carry forged sources, so no
                    # RST is owed anyone; a real client whose embryo was
                    # evicted simply retransmits its SYN.
                    oldest = listener.half_open.pop(0)
                    listener.syn_drops += 1
                    self.syn_drops += 1
                    oldest._enter_closed(reason="syn-drop")
            conn = TcpConnection(
                self, datagram.dst, seg.dst_port, datagram.src, seg.src_port,
                listener.config or self.config)
            self._connections[conn.key] = conn
            listener.accepted += 1
            if cfg.max_half_open > 0:
                listener.half_open.append(conn)
            conn.open_passive(seg)
            listener.on_connection(conn)
            return
        if seg.syn and not seg.ack_flag:
            # A SYN for a port nobody (or a since-closed listener) serves
            # must be answered with RST, not silently dropped — the client
            # otherwise burns its full syn_retries budget discovering a
            # fact we already know.  Connections a listener spawned before
            # closing are unaffected: they demultiplex by their own
            # 4-tuple above, never through the listener.
            self.refused_syns += 1
        self._refuse(datagram, seg)

    def _refuse(self, datagram: Datagram, seg: TcpSegment) -> None:
        """No socket wants this segment: answer with RST (unless RST)."""
        if seg.rst:
            return
        self.resets_sent += 1
        if seg.ack_flag:
            reply = TcpSegment(src_port=seg.dst_port, dst_port=seg.src_port,
                               seq=seg.ack, flags=FLAG_RST)
        else:
            reply = TcpSegment(
                src_port=seg.dst_port, dst_port=seg.src_port, seq=0,
                ack=seq_add(seg.seq, seg.seq_space), flags=FLAG_RST | FLAG_ACK)
        wire = reply.to_bytes(datagram.dst, datagram.src)
        self.node.send(datagram.src, PROTO_TCP, wire, src=datagram.dst)

    # ------------------------------------------------------------------
    # ICMP advice
    # ------------------------------------------------------------------
    def _icmp_error(self, node: Node, message: icmp.IcmpMessage,
                    carrier: Datagram) -> None:
        quoted = message.quoted_datagram_header()
        if quoted is None or quoted.protocol != PROTO_TCP:
            return
        # The quote carries at least 8 bytes of the TCP header: the ports.
        if len(quoted.payload) < 4:
            return
        src_port = int.from_bytes(quoted.payload[0:2], "big")
        dst_port = int.from_bytes(quoted.payload[2:4], "big")
        key = (src_port, int(quoted.dst), dst_port)
        conn = self._connections.get(key)
        if conn is None:
            return
        if message.type == icmp.SOURCE_QUENCH and conn.config.congestion_control:
            # The 1988 congestion signal: back off to one segment.
            conn.ssthresh = max(conn.flight_size // 2, 2 * conn.snd_mss)
            conn.cwnd = conn.snd_mss
        # Unreachable errors are advisory for a synchronized connection
        # (the path may heal — goal 1); fatal only during the handshake.
        if message.type == icmp.DEST_UNREACHABLE:
            if (conn.state is TcpState.SYN_SENT
                    and message.code in (icmp.UNREACH_PROTOCOL,
                                         icmp.UNREACH_PORT)):
                conn._enter_closed(reason="icmp-unreachable",
                                   notify_reset=True)
            elif conn.state.is_synchronized:
                # Soft error: accumulate, never kill.  The counter lets an
                # operator (or the session layer) see a path flapping even
                # though the transport rightly refuses to give up.
                conn.stats.soft_errors += 1
