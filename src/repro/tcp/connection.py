"""The TCP connection: reliable byte-stream service over raw datagrams.

This is the paper's "type of service" number one, built — as the
architecture demands — entirely in the end hosts.  Everything here is
conversation state that exists in exactly two places, the two endpoints;
no gateway knows this connection exists (fate-sharing, goal 1).

The implementation follows RFC 793's segment-processing rules with the
1988-era refinements as *policy knobs* so experiments can dial a host's
implementation quality up and down (goal 6, experiment E6):

* RTO policy: fixed / RFC-793 smoothed / Jacobson-Karn (see `rto.py`);
* repacketization on retransmit (the §9 byte-sequencing payoff) on/off;
* Nagle small-segment avoidance on/off;
* fast retransmit on/off;
* Tahoe-style congestion control on/off (Jacobson's fix was contemporary
  with the paper; the architecture itself shipped without it).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from ..ip.address import Address
from ..sim.process import Timer
from .buffers import ReceiveBuffer, SendBuffer
from .rto import RtoEstimator, make_estimator
from .segment import (
    FLAG_ACK,
    FLAG_CWR,
    FLAG_ECE,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    FLAG_URG,
    TcpSegment,
    seq_add,
    seq_ge,
    seq_gt,
    seq_le,
    seq_lt,
    seq_sub,
)
from .state import TcpState

if TYPE_CHECKING:  # pragma: no cover
    from .stack import TcpStack

__all__ = ["TcpConfig", "TcpConnection", "ConnStats"]

#: The smallest send MSS, whatever the peer's SYN says (Linux's
#: ``TCP_MIN_MSS``): an MSS option of 0 would cut 0-byte segments forever.
MIN_MSS = 88


@dataclass
class TcpConfig:
    """Per-connection policy knobs.

    The defaults are a *good* 1988 host: Jacobson-Karn timers, Nagle,
    repacketization, fast retransmit, Tahoe congestion control.  E6's naive
    host overrides nearly all of them.
    """

    mss: int = 536                     # the classic default (576 - 40)
    send_buffer: int = 65535
    recv_buffer: int = 65535
    rto: str = "jacobson"              # 'fixed' | 'rfc793' | 'jacobson'
    rto_kwargs: dict = field(default_factory=dict)
    nagle: bool = True
    repacketize: bool = True
    fast_retransmit: bool = True
    dupack_threshold: int = 3
    congestion_control: bool = True
    initial_cwnd_segments: int = 1
    #: Explicit congestion notification (RFC 3168 shape): datagrams go out
    #: ECT-marked, a gateway's CE mark is echoed back on every ACK (ECE)
    #: until the sender answers CWR, and the sender treats one echoed mark
    #: per RTT as a congestion event — multiplicative decrease without the
    #: packet loss.  Requires ``congestion_control``; a host that sets
    #: neither keeps the classic loss-only contract.
    ecn: bool = False
    syn_retries: int = 5
    max_retransmits: int = 12
    msl: float = 15.0                  # TIME_WAIT = 2 * msl
    ttl: int = 32
    window_probe_interval: float = 5.0
    delayed_ack: bool = False
    delayed_ack_timeout: float = 0.2
    #: Receiver-side silly-window-syndrome avoidance (RFC 1122 4.2.3.3):
    #: never advertise a window smaller than min(MSS, buffer/2) — advertise
    #: zero instead, so the sender waits for a worthwhile opening rather
    #: than dribbling tiny segments.
    sws_avoidance: bool = True
    #: Keepalive: after ``keepalive_idle`` seconds without hearing from the
    #: peer, probe every ``keepalive_interval`` seconds; ``keepalive_probes``
    #: consecutive unanswered probes declare the peer dead.  0 disables —
    #: the RFC 1122 default, because a connection over a healed partition
    #: must not be killed by an overeager keepalive (goal 1).  A *surviving
    #: peer of a rebooted host*, though, has no other way to learn its
    #: conversation partner lost all state while staying silent.
    keepalive_idle: float = 0.0
    keepalive_interval: float = 5.0
    keepalive_probes: int = 3
    #: RFC 793 quiet time: seconds a rebooted host must stay silent before
    #: issuing new ISNs, so sequence numbers from its previous incarnation
    #: drain from the net.  None selects ``msl``.
    quiet_time: Optional[float] = None
    #: SYN-flood defense: cap on embryonic (SYN_RECEIVED) connections a
    #: single listener may hold.  0 = unbounded.  On overflow the *oldest*
    #: half-open connection is silently dropped — no RST, the flooded SYN's
    #: source address is likely forged — and the listener's ``syn_drops``
    #: counter ticks.  Legitimate clients whose embryo was evicted recover
    #: by retransmitting their SYN once the flood subsides.
    max_half_open: int = 0

    def __post_init__(self) -> None:
        if self.mss < MIN_MSS:
            raise ValueError(f"mss {self.mss} is below the floor of {MIN_MSS}")

    def make_rto(self) -> RtoEstimator:
        return make_estimator(self.rto, **self.rto_kwargs)

    def effective_quiet_time(self) -> float:
        """The RFC 793 post-reboot quiet period (defaults to one MSL)."""
        return self.msl if self.quiet_time is None else self.quiet_time

    def keepalive_death_threshold(self) -> Optional[float]:
        """Upper bound on how long a dead peer can go undetected once the
        connection falls idle, or None when keepalive is disabled.

        One idle period plus every probe interval: after that, the
        keepalive machinery *must* have either heard from the peer or
        declared the connection dead — the bound the chaos half-open
        zombie monitor enforces."""
        if self.keepalive_idle <= 0:
            return None
        return self.keepalive_idle + self.keepalive_interval * self.keepalive_probes

    def death_threshold(self) -> float:
        """Lower bound on how long a synchronized connection survives a
        total blackout before declaring the peer dead.

        The connection fails only after ``max_retransmits + 1`` consecutive
        retransmission timeouts; each timeout is at least the estimator's
        minimum RTO scaled by the exponential backoff factor (capped at
        64x).  Summing those minimums gives the shortest possible
        time-to-death — any partition strictly shorter than this *must* be
        survived by an established connection (the fate-sharing invariant
        the chaos monitors enforce).
        """
        if self.rto == "fixed":
            # FixedRto never backs off: death is simply retries * the value.
            per = self.rto_kwargs.get("value", 3.0)
            return per * (self.max_retransmits + 1)
        min_rto = self.rto_kwargs.get("min_rto", 0.2)
        max_rto = self.rto_kwargs.get("max_rto", 60.0)
        total, factor = 0.0, 1.0
        for _ in range(self.max_retransmits + 1):
            total += min(max_rto, min_rto * factor)
            factor = min(factor * 2.0, 64.0)
        return total


@dataclass
class ConnStats:
    """Per-connection counters used heavily by the experiments."""

    segments_sent: int = 0
    segments_received: int = 0
    bytes_sent: int = 0                # payload bytes incl. retransmissions
    bytes_acked: int = 0
    bytes_delivered: int = 0           # to the application
    retransmit_timeouts: int = 0
    segments_retransmitted: int = 0
    bytes_retransmitted: int = 0
    fast_retransmits: int = 0
    duplicate_acks: int = 0
    zero_window_probes: int = 0
    resets_sent: int = 0
    keepalives_sent: int = 0
    keepalives_answered: int = 0
    #: Forged/blind RSTs rejected because their sequence number fell outside
    #: the receive window (RFC 5961-style acceptance).
    rst_out_of_window: int = 0
    #: ICMP unreachable errors received while synchronized — advisory, not
    #: fatal (the path may heal; goal 1), but accumulated for diagnosis.
    soft_errors: int = 0
    #: CE-marked segments seen by the receive side (gateway said "I would
    #: have dropped this"), and congestion responses the send side took
    #: because the peer echoed a mark (at most one per RTT).
    ecn_ce_received: int = 0
    ecn_responses: int = 0
    established_at: Optional[float] = None
    closed_at: Optional[float] = None


class TcpConnection:
    """One end of a TCP conversation.

    Application interface: :meth:`send` to write bytes, ``on_receive`` (or
    :meth:`read`) for arriving bytes, :meth:`close` for orderly shutdown,
    :meth:`abort` for reset.  Event hooks: ``on_established``, ``on_close``,
    ``on_reset``.
    """

    def __init__(
        self,
        stack: "TcpStack",
        local_addr: Address,
        local_port: int,
        remote_addr: Address,
        remote_port: int,
        config: Optional[TcpConfig] = None,
    ):
        self.stack = stack
        self.node = stack.node
        self.sim = stack.node.sim
        self.config = config or stack.config
        self.local_addr = local_addr
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port

        self.state = TcpState.CLOSED
        self.stats = ConnStats()
        #: Why the connection entered CLOSED ('closed', 'timeout', 'reset',
        #: 'abort', ...); None while it has never closed.  Failure-injection
        #: monitors use this to tell a clean close from a blackout death.
        self.close_reason: Optional[str] = None

        # Send-side sequence variables (RFC 793 names).
        self.iss = stack.generate_isn()
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.snd_max = self.iss        # highest SND.NXT ever reached
        self.snd_wnd = 0               # peer's advertised window
        self.snd_mss = self.config.mss # effective MSS after negotiation

        # Receive side, created when the peer's ISN is learned.
        self.irs = 0
        self.rcv: Optional[ReceiveBuffer] = None

        self.send_buffer = SendBuffer(seq_add(self.iss, 1),
                                      capacity=self.config.send_buffer)
        #: Original segment boundaries (seq -> length, in send order, dropped
        #: as they are acked), for the no-repacketization policy.
        self._sent_boundaries: OrderedDict[int, int] = OrderedDict()

        # Congestion state (Tahoe).
        self.cwnd = self.config.initial_cwnd_segments * self.config.mss
        self.ssthresh = 65535 * 4
        self._dupacks = 0
        #: Congestion-avoidance byte credit (RFC 3465 appropriate byte
        #: counting): newly acked bytes accumulate here and buy one MSS of
        #: cwnd per cwnd's worth of bytes — ~1 MSS per RTT at any window
        #: size, where the classic ``mss*mss//cwnd`` per-ACK increment
        #: floors at 1 byte and degrades to a linear crawl once cwnd is
        #: large.
        self._ca_bytes_acked = 0
        # ECN state: receive-side echo (set on CE, held until peer's CWR),
        # send-side response bookkeeping (react to ECE at most once per
        # RTT, and carry CWR on the next segment out).
        self._ecn_echo = False
        self._cwr_pending = False
        self._ecn_resp_seq: Optional[int] = None

        # RTT measurement: classic one-timed-segment rule.
        self.rto = self.config.make_rto()
        self._timed_seq: Optional[int] = None    # end-seq being timed
        self._timed_at = 0.0
        self._retx_pending = 0                   # consecutive timeouts

        self.retx_timer = Timer(self.sim, self._on_retransmit_timeout, "tcp:rto")
        self.probe_timer = Timer(self.sim, self._on_window_probe, "tcp:probe")
        self.time_wait_timer = Timer(self.sim, self._time_wait_done, "tcp:2msl")
        self.delack_timer = Timer(self.sim, self._flush_delayed_ack, "tcp:delack")
        self._ack_pending = False

        # Keepalive: detect a silently-rebooted peer (fate-sharing's flip
        # side — the *survivor* must learn the conversation died).
        self.keepalive_timer = Timer(self.sim, self._on_keepalive_timer,
                                     "tcp:keepalive")
        self._keepalive_probes_out = 0
        self._last_heard = self.sim.now

        self._fin_queued = False       # app called close(); FIN after drain
        self._fin_seq: Optional[int] = None  # seq of our FIN once sent

        # Urgent data (RFC 793 "out of band" signal).
        self.snd_up: Optional[int] = None   # seq just past our urgent data
        self.rcv_up: Optional[int] = None   # seq just past peer urgent data
        #: Fired when the peer signals urgent data: callback(bytes_ahead)
        #: where bytes_ahead counts stream bytes up to the urgent mark.
        self.on_urgent: Optional[Callable[[int], None]] = None

        # Application hooks.
        self.on_receive: Optional[Callable[[bytes], None]] = None
        self.on_established: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_reset: Optional[Callable[[], None]] = None
        #: Fired when acked data frees send-buffer space (backpressure relief).
        self.on_send_ready: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def key(self) -> tuple:
        return (self.local_port, int(self.remote_addr), self.remote_port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpConnection {self.local_addr}:{self.local_port}"
            f"->{self.remote_addr}:{self.remote_port} {self.state.value}>"
        )

    def _trace(self, event: str, detail: str = "") -> None:
        self.node.tracer.log(self.sim.now, "tcp", self.node.name, event, detail)

    # ------------------------------------------------------------------
    # Opening
    # ------------------------------------------------------------------
    def open_active(self) -> None:
        """Client side: send SYN, enter SYN_SENT."""
        self.state = TcpState.SYN_SENT
        self.snd_nxt = seq_add(self.iss, 1)
        # The SYN consumes a sequence number: without advancing SND.MAX
        # the peer's handshake ACK (acking ISS+1) looks like it acks data
        # we never sent, and the "resync" ACK it draws starts an ACK war
        # between two otherwise-idle endpoints — one spurious segment per
        # RTT, forever.  (Found by the keepalive tests: the war resets
        # the idle clock every RTT, so probes never fire.)
        self.snd_max = self.snd_nxt
        self._send_segment(TcpSegment(
            src_port=self.local_port, dst_port=self.remote_port,
            seq=self.iss, flags=FLAG_SYN,
            window=self.config.recv_buffer, mss_option=self.config.mss,
        ))
        self.retx_timer.start(self.rto.timeout())
        self._trace("syn-sent")

    def open_passive(self, syn: TcpSegment) -> None:
        """Server side: a listener accepted this SYN; reply SYN+ACK."""
        self._learn_peer(syn)
        self.state = TcpState.SYN_RECEIVED
        self.snd_nxt = seq_add(self.iss, 1)
        self.snd_max = self.snd_nxt  # the SYN occupies ISS (see open_active)
        self._send_segment(TcpSegment(
            src_port=self.local_port, dst_port=self.remote_port,
            seq=self.iss, ack=self.rcv.rcv_next, flags=FLAG_SYN | FLAG_ACK,
            window=self.rcv.window, mss_option=self.config.mss,
        ))
        self.retx_timer.start(self.rto.timeout())
        self._trace("syn-received")

    def _learn_peer(self, syn: TcpSegment) -> None:
        self.irs = syn.seq
        self.rcv = ReceiveBuffer(seq_add(syn.seq, 1),
                                 capacity=self.config.recv_buffer)
        if syn.mss_option is not None:
            self.snd_mss = max(MIN_MSS, min(self.config.mss, syn.mss_option))
        self.snd_wnd = syn.window

    def _establish(self) -> None:
        self.state = TcpState.ESTABLISHED
        self.stats.established_at = self.sim.now
        self._retx_pending = 0
        self._last_heard = self.sim.now
        if self.config.keepalive_idle > 0:
            self.keepalive_timer.start(self.config.keepalive_idle)
        self._trace("established")
        if self.on_established is not None:
            self.on_established()
        self._try_send()

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def send(self, data: bytes, *, push: bool = True,
             urgent: bool = False) -> int:
        """Write bytes to the stream; returns how many were buffered.

        With ``urgent=True`` the written bytes are marked urgent: outgoing
        segments carry URG and the urgent pointer until the mark is passed
        (the classic interrupt/abort signal, e.g. Telnet's ^C).
        """
        if not self.state.can_send and self.state not in (
            TcpState.SYN_SENT, TcpState.SYN_RECEIVED
        ):
            raise ConnectionError(f"cannot send in state {self.state.value}")
        if self._fin_queued:
            raise ConnectionError("cannot send after close()")
        accepted = self.send_buffer.write(data, push=push)
        if urgent and accepted:
            self.snd_up = self.send_buffer.end_seq
        self._try_send()
        return accepted

    def read(self, max_bytes: Optional[int] = None) -> bytes:
        """Pull-model read of delivered bytes (when ``on_receive`` unset)."""
        if self.rcv is None:
            return b""
        data = self.rcv.read(max_bytes)
        if data:
            self._maybe_window_update()
        return data

    @property
    def fin_queued(self) -> bool:
        """The application has called :meth:`close`: no more writes, and our
        FIN follows the last buffered byte."""
        return self._fin_queued

    def close(self) -> None:
        """Orderly close: FIN after all buffered data is sent."""
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT,
                          TcpState.LAST_ACK, TcpState.CLOSING):
            return
        if self.state is TcpState.SYN_SENT:
            self._enter_closed(reason="closed-before-established")
            return
        self._fin_queued = True
        self._try_send()

    def abort(self) -> None:
        """Hard reset: send RST and drop all state."""
        if self.state.is_synchronized or self.state is TcpState.SYN_RECEIVED:
            self._send_segment(TcpSegment(
                src_port=self.local_port, dst_port=self.remote_port,
                seq=self.snd_nxt, flags=FLAG_RST | FLAG_ACK,
                ack=self.rcv.rcv_next if self.rcv else 0,
            ))
            self.stats.resets_sent += 1
        self._enter_closed(reason="abort")

    # ------------------------------------------------------------------
    # Transmission machinery
    # ------------------------------------------------------------------
    @property
    def flight_size(self) -> int:
        """Bytes sent but not yet acknowledged."""
        return seq_sub(self.snd_nxt, self.snd_una)

    def _try_send(self) -> None:
        """Send as much buffered data as windows allow; maybe the FIN.

        One pass measures the flight and the unsent backlog once and keeps
        both current as it sends (the per-segment budget, DESIGN §7)."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT,
                              TcpState.FIN_WAIT_1, TcpState.CLOSING,
                              TcpState.LAST_ACK):
            return
        config = self.config
        buf = self.send_buffer
        mss = self.snd_mss
        flight = seq_sub(self.snd_nxt, self.snd_una)
        # min(peer window, cwnd) minus what is already in flight.  Read
        # first: a full window leaves the backlog unread.
        window = self.snd_wnd
        if config.congestion_control and self.cwnd < window:
            window = self.cwnd
        window -= flight
        if window > 0:
            pending = buf.available_from(self.snd_nxt)
        else:
            pending = 0
            if (flight == 0 and buf.available_from(self.snd_nxt) > 0
                    and not self.probe_timer.running):
                # Zero window with nothing in flight: arm the probe.
                self.probe_timer.start(config.window_probe_interval)
        sent_any = False
        while pending > 0:
            snd_nxt = self.snd_nxt
            length = pending if pending < mss else mss
            if window < length:
                length = window
            # Bytes below the high-water mark have been on the wire before:
            # this send is a retransmission (go-back-N recovery).
            is_retx = (snd_nxt != self.snd_max
                       and seq_sub(snd_nxt, self.snd_max) < 0)
            if is_retx and not config.repacketize:
                # No-repacketization policy: a resend must reuse the
                # original segment boundary, not a fresh MSS-sized slice.
                length = min(length, self._sent_boundaries.get(snd_nxt, length))
            # Nagle: hold a small segment while data is in flight.
            if config.nagle and length < mss and flight > 0:
                break
            payload = buf.read(snd_nxt, length)
            flags = FLAG_ACK
            if buf.push_at(snd_nxt, length):
                flags |= FLAG_PSH
            urgent_ptr = 0
            if self.snd_up is not None and seq_lt(snd_nxt, self.snd_up):
                flags |= FLAG_URG
                urgent_ptr = min(seq_sub(self.snd_up, snd_nxt), 0xFFFF)
            # Positional (ports, seq, ack, flags, window, payload, urgent):
            # keywords cost a segment twice the construction.
            seg = TcpSegment(self.local_port, self.remote_port, snd_nxt,
                             self.rcv.rcv_next, flags,
                             self._advertised_window(), payload, urgent_ptr)
            if is_retx:
                self.stats.segments_retransmitted += 1
                self.stats.bytes_retransmitted += length
            if not config.repacketize:
                self._sent_boundaries.setdefault(snd_nxt, length)
            self._time_segment(snd_nxt, length, retransmit=is_retx)
            self.snd_nxt = snd_nxt = seq_add(snd_nxt, length)
            if not is_retx or seq_gt(snd_nxt, self.snd_max):
                self.snd_max = snd_nxt
            self._send_segment(seg)
            self.stats.bytes_sent += length
            flight += length
            pending -= length
            sent_any = True
            window -= length
            if window <= 0:
                break   # full; with data in flight, no probe is owed
        if self._fin_queued:
            self._maybe_send_fin()
        if sent_any or flight > 0 or self._fin_in_flight():
            if not self.retx_timer.running:
                self.retx_timer.start(self.rto.timeout())

    def _maybe_send_fin(self) -> None:
        """Send (or, after a go-back-N pull-back, resend) our queued FIN
        once the buffer has fully drained up to SND.NXT."""
        if self._fin_seq is not None and seq_gt(self.snd_nxt, self._fin_seq):
            return  # FIN is in flight or acked beyond this point
        if self.send_buffer.available_from(self.snd_nxt) > 0:
            return
        self._fin_seq = self.snd_nxt
        self.snd_nxt = seq_add(self.snd_nxt, 1)
        if seq_gt(self.snd_nxt, self.snd_max):
            self.snd_max = self.snd_nxt
        else:
            self.stats.segments_retransmitted += 1  # FIN re-emitted
        self._send_segment(TcpSegment(
            src_port=self.local_port, dst_port=self.remote_port,
            seq=self._fin_seq, ack=self.rcv.rcv_next,
            flags=FLAG_FIN | FLAG_ACK, window=self._advertised_window(),
        ))
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state is TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
        self._trace("fin-sent")
        if not self.retx_timer.running:
            self.retx_timer.start(self.rto.timeout())

    def _fin_in_flight(self) -> bool:
        return self._fin_seq is not None and seq_le(self.snd_una, self._fin_seq)

    def _time_segment(self, seq: int, length: int, *, retransmit: bool) -> None:
        """Classic rule: time at most one segment at a time; Karn's rule is
        applied at sample time via the retransmit flag."""
        if retransmit:
            # A retransmission invalidates any measurement in progress.
            if self._timed_seq is not None and seq_le(seq, self._timed_seq):
                self._timed_seq = None
            return
        if self._timed_seq is None and length > 0:
            self._timed_seq = seq_add(seq, length)
            self._timed_at = self.sim.now

    def _send_segment(self, seg: TcpSegment) -> None:
        if self.config.ecn and not seg.rst:
            # Receiver half: keep echoing the gateway's mark until the
            # sender answers CWR — the echo must survive ACK loss.
            if self._ecn_echo:
                seg.flags |= FLAG_ECE
            # Sender half: tell the peer the window came down, stopping
            # the echo.
            if self._cwr_pending:
                seg.flags |= FLAG_CWR
                self._cwr_pending = False
        self.stats.segments_sent += 1
        if self._ack_pending:
            # The delayed-ACK timer runs only while an ACK is pending
            # (_schedule_ack arms it right after raising the flag), so
            # with the flag down there is nothing to stop.
            self._ack_pending = False
            self.delack_timer.stop()
        self.stack.transmit(self, seg)

    # ------------------------------------------------------------------
    # Retransmission
    # ------------------------------------------------------------------
    def _on_retransmit_timeout(self) -> None:
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT):
            return
        if self.flight_size == 0 and not self._fin_in_flight() and self.state.is_synchronized:
            return  # spurious (everything got acked as the timer fired)
        self.stats.retransmit_timeouts += 1
        self._retx_pending += 1
        limit = (self.config.syn_retries
                 if self.state in (TcpState.SYN_SENT, TcpState.SYN_RECEIVED)
                 else self.config.max_retransmits)
        if self._retx_pending > limit:
            self._trace("retx-exhausted")
            self._connection_failed()
            return
        self.rto.backoff()
        if self.config.congestion_control:
            # Tahoe: collapse to one segment, halve the threshold.
            self.ssthresh = max(self.flight_size // 2, 2 * self.snd_mss)
            self.cwnd = self.snd_mss
            self._dupacks = 0
            self._ca_bytes_acked = 0
        if self.state in (TcpState.SYN_SENT, TcpState.SYN_RECEIVED):
            self._retransmit_from_una()
        else:
            self._go_back_n()
            self._try_send()   # resends from SND.UNA under the collapsed window
        self.retx_timer.start(self.rto.timeout())

    def _go_back_n(self) -> None:
        """Pull SND.NXT back to SND.UNA so everything after the loss is
        resent as the window reopens (Tahoe recovery).  Without this, a
        burst loss costs one full RTO *per lost segment*.  The FIN mark is
        cleared if it falls beyond the new SND.NXT; the normal send path
        re-emits it after the stream drains."""
        if self.state in (TcpState.SYN_SENT, TcpState.SYN_RECEIVED):
            return
        if seq_gt(self.snd_nxt, self.snd_una):
            self.snd_nxt = self.snd_una
            self._timed_seq = None  # any RTT measurement is now meaningless

    def _retransmit_from_una(self) -> None:
        """Resend the first unacknowledged chunk (go-back style head)."""
        if self.state is TcpState.SYN_SENT:
            self._send_segment(TcpSegment(
                src_port=self.local_port, dst_port=self.remote_port,
                seq=self.iss, flags=FLAG_SYN,
                window=self.config.recv_buffer, mss_option=self.config.mss))
            self.stats.segments_retransmitted += 1
            return
        if self.state is TcpState.SYN_RECEIVED:
            self._send_segment(TcpSegment(
                src_port=self.local_port, dst_port=self.remote_port,
                seq=self.iss, ack=self.rcv.rcv_next, flags=FLAG_SYN | FLAG_ACK,
                window=self.rcv.window, mss_option=self.config.mss))
            self.stats.segments_retransmitted += 1
            return
        if self._fin_in_flight() and self.send_buffer.available_from(self.snd_una) == 0:
            # Only the FIN is outstanding.
            self._send_segment(TcpSegment(
                src_port=self.local_port, dst_port=self.remote_port,
                seq=self._fin_seq, ack=self.rcv.rcv_next,
                flags=FLAG_FIN | FLAG_ACK, window=self._advertised_window()))
            self.stats.segments_retransmitted += 1
            return
        length = self._retransmit_chunk_length()
        if length <= 0:
            return
        payload = self.send_buffer.read(self.snd_una, length)
        flags = FLAG_ACK
        if self.send_buffer.push_at(self.snd_una, length):
            flags |= FLAG_PSH
        self._time_segment(self.snd_una, length, retransmit=True)
        self._send_segment(TcpSegment(
            src_port=self.local_port, dst_port=self.remote_port,
            seq=self.snd_una, ack=self.rcv.rcv_next, flags=flags,
            window=self._advertised_window(), payload=payload,
        ))
        self.stats.segments_retransmitted += 1
        self.stats.bytes_retransmitted += length

    def _retransmit_chunk_length(self) -> int:
        """How many bytes to resend starting at SND.UNA.

        With repacketization (§9): a fresh MSS-sized slice — several
        originally-small segments coalesce into one.  Without: the original
        boundary recorded at first transmission.
        """
        outstanding = min(
            self.send_buffer.available_from(self.snd_una),
            max(self.flight_size - (1 if self._fin_in_flight() else 0), 0),
        )
        if outstanding <= 0:
            return 0
        if self.config.repacketize:
            return min(outstanding, self.snd_mss)
        # The recorded original segment starting at snd_una, if any.
        return min(outstanding,
                   self._sent_boundaries.get(self.snd_una, self.snd_mss))

    def _on_window_probe(self) -> None:
        """Zero-window probe: one byte past the window, forever."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT,
                              TcpState.FIN_WAIT_1):
            return
        if self.snd_wnd > 0:
            self._try_send()
            return
        if self.send_buffer.available_from(self.snd_nxt) <= 0:
            return
        self.stats.zero_window_probes += 1
        payload = self.send_buffer.read(self.snd_nxt, 1)
        probe_seq = self.snd_nxt
        self._send_segment(TcpSegment(
            src_port=self.local_port, dst_port=self.remote_port,
            seq=probe_seq, ack=self.rcv.rcv_next, flags=FLAG_ACK,
            window=self._advertised_window(), payload=payload,
        ))
        # The probe byte is real stream data: it stays outstanding so the
        # receiver's cumulative ack (which may accept it) remains
        # consistent with our send state, and the retransmission timer
        # covers it like any other byte.
        self.snd_nxt = seq_add(self.snd_nxt, 1)
        if seq_gt(self.snd_nxt, self.snd_max):
            self.snd_max = self.snd_nxt
        if not self.retx_timer.running:
            self.retx_timer.start(self.rto.timeout())
        self.probe_timer.start(self.config.window_probe_interval)

    # ------------------------------------------------------------------
    # Keepalive — detecting a silently-rebooted peer
    # ------------------------------------------------------------------
    def _on_keepalive_timer(self) -> None:
        """Idle-connection probe cycle.

        A host that crashed and rebooted kept none of this conversation's
        state (fate-sharing); if both directions are idle the survivor
        would hold the half-open zombie forever.  The probe is one
        already-acknowledged garbage byte at SND.UNA-1: a live peer
        rejects it as old and answers with a resynchronizing ACK; a
        rebooted peer has no matching connection and answers RST, which
        tears us down immediately; a dead/unreachable peer answers
        nothing, and ``keepalive_probes`` silences declare it gone."""
        if not self.state.is_synchronized or self.config.keepalive_idle <= 0:
            return
        if self.state is TcpState.TIME_WAIT:
            return
        idle = self.sim.now - self._last_heard
        remaining = self.config.keepalive_idle - idle
        if self._keepalive_probes_out == 0 and remaining > 1e-9:
            # Heard from the peer since the timer was armed: re-arm for the
            # remainder of the idle period.  The epsilon matters: float
            # subtraction can leave a remainder smaller than one ulp of
            # the clock, and a timer armed below that granularity fires at
            # the *same* timestamp forever — probing a nanosecond early is
            # harmless, freezing the simulation is not.
            self.keepalive_timer.start(remaining)
            return
        if self._keepalive_probes_out >= self.config.keepalive_probes:
            self._trace("keepalive-dead",
                        f"{self._keepalive_probes_out} probes unanswered")
            self._enter_closed(reason="keepalive-timeout", notify_reset=True)
            return
        self._send_keepalive_probe()
        self.keepalive_timer.start(self.config.keepalive_interval)

    def _send_keepalive_probe(self) -> None:
        self._keepalive_probes_out += 1
        self.stats.keepalives_sent += 1
        self._trace("keepalive-probe", str(self._keepalive_probes_out))
        self._send_segment(TcpSegment(
            src_port=self.local_port, dst_port=self.remote_port,
            seq=seq_sub_wrap(self.snd_una, 1), ack=self.rcv.rcv_next,
            flags=FLAG_ACK, window=self._advertised_window(),
            payload=b"\x00"))

    def _keepalive_heard(self) -> None:
        """Any arriving segment proves the peer alive."""
        self._last_heard = self.sim._now
        if self._keepalive_probes_out:
            self.stats.keepalives_answered += 1
            self._keepalive_probes_out = 0
        if (self.config.keepalive_idle > 0 and self.state.is_synchronized
                and self.state is not TcpState.TIME_WAIT):
            self.keepalive_timer.start(self.config.keepalive_idle)

    def _connection_failed(self) -> None:
        """Too many retransmissions: the end-to-end path is gone."""
        self._trace("failed")
        self._enter_closed(reason="timeout")

    # ------------------------------------------------------------------
    # Segment arrival — the RFC 793 processing rules
    # ------------------------------------------------------------------
    def segment_arrived(self, seg: TcpSegment, *, ce: bool = False) -> None:
        self.stats.segments_received += 1
        if self.state is TcpState.CLOSED:
            return
        if self.config.ecn:
            if ce:
                # A gateway marked instead of dropping: remember to echo
                # until the sender acknowledges with CWR.
                self.stats.ecn_ce_received += 1
                self._ecn_echo = True
            if seg.flags & FLAG_CWR:
                self._ecn_echo = False
        self._keepalive_heard()
        if self.state is TcpState.SYN_SENT:
            self._process_syn_sent(seg)
            return
        rcv = self.rcv
        if rcv is None:
            return
        # One pass reads the flag bits from the int and measures the
        # segment against RCV.NXT once (the per-segment budget, DESIGN §7).
        flags = seg.flags
        payload = seg.payload
        ahead = (0 if seg.seq == rcv.rcv_next
                 else seq_sub(seg.seq, rcv.rcv_next))
        # The window (a closed one still admits one byte) matters only to
        # a segment that starts past RCV.NXT: every other offset is below
        # it.
        wnd = (rcv.window or 1) if ahead > 0 else 1
        # 1. RST validation, *before* anything can kill the connection
        #    (RFC 5961-style acceptance).  A legitimate reset comes from a
        #    peer answering our own segments, so its sequence number lands
        #    inside our receive window; a blind forgery (or an ancient
        #    duplicate) almost never does.  Off-window resets are counted
        #    and answered with a challenge ACK rather than obeyed — an
        #    attacker must now hit a ~window/2^32 target to kill a
        #    synchronized connection.
        if flags & FLAG_RST:
            if 0 <= ahead < wnd:
                self._trace("rst-received")
                self._enter_closed(reason="reset", notify_reset=True)
            else:
                self.stats.rst_out_of_window += 1
                self._trace("rst-rejected",
                            f"seq={seg.seq} rcv_next={rcv.rcv_next}")
                self._send_ack()  # challenge: resynchronize a confused peer
            return
        # 2. Sequence acceptability (RFC 793): the segment occupies sequence
        #    space at or beyond RCV.NXT — strictly, its end is *past*
        #    RCV.NXT — and starts inside the window.  A wholly-old segment,
        #    e.g. a retransmitted SYN-ACK whose SYN sits just below the
        #    window, must be answered with a plain ACK, NOT processed:
        #    treating it as acceptable lets its SYN bit trip the 'SYN while
        #    synchronized' reset and kill a healthy connection.
        seg_len = len(payload) + (1 if flags & FLAG_SYN else 0) \
            + (1 if flags & FLAG_FIN else 0)
        ends_past = ahead + seg_len > 0 if seg_len else ahead >= -1
        if not (ends_past and ahead < wnd):
            self._send_ack()  # resynchronize the peer
            return
        # 3. SYN in window after synchronization = fatal.
        if flags & FLAG_SYN and self.state.is_synchronized:
            self.abort()
            return
        # 4. ACK processing.
        if flags & FLAG_ACK:
            if self.state is TcpState.SYN_RECEIVED:
                if seq_gt(seg.ack, self.snd_una) and seq_le(seg.ack, self.snd_nxt):
                    self.snd_una = seg.ack
                    self.snd_wnd = seg.window
                    self._establish()
                else:
                    self._send_rst(seg)
                    return
            self._process_ack(seg)
        # 5. Urgent signal (processed before payload so the app can react
        #    to the mark even if it arrives with the data).
        if flags & FLAG_URG and seg.urgent:
            urgent_end = seq_add(seg.seq, seg.urgent)
            if self.rcv_up is None or seq_gt(urgent_end, self.rcv_up):
                self.rcv_up = urgent_end
                if self.on_urgent is not None:
                    self.on_urgent(max(0, seq_sub(urgent_end, rcv.rcv_next)))
        # 6. Payload.
        if payload and self.state.can_receive:
            on_receive = self.on_receive
            if on_receive is None:
                delivered = rcv.accept(seg.seq, payload)
            else:
                # Push model: the application consumes on arrival, so
                # nothing is held for a read and the window stays open.
                delivered = rcv.take(seg.seq, payload)
            if delivered:
                self.stats.bytes_delivered += len(delivered)
                if on_receive is not None:
                    on_receive(delivered)
            self._schedule_ack(force=not self.config.delayed_ack
                               or rcv.out_of_order_segments > 0)
        elif payload:
            # Data after we stopped receiving: just ack what we have.
            self._send_ack()
        # 7. FIN.
        if flags & FLAG_FIN:
            self._process_fin(seg)

    def _process_syn_sent(self, seg: TcpSegment) -> None:
        if seg.rst:
            if seg.ack_flag and seg.ack == self.snd_nxt:
                self._trace("rst-on-syn")
                self._enter_closed(reason="refused", notify_reset=True)
            else:
                # A reset that does not acknowledge our SYN cannot have
                # come from the peer we are opening to.
                self.stats.rst_out_of_window += 1
            return
        if seg.ack_flag and (seq_le(seg.ack, self.iss) or seq_gt(seg.ack, self.snd_nxt)):
            self._send_rst(seg)
            return
        if not seg.syn:
            return
        self._learn_peer(seg)
        if seg.ack_flag and seq_gt(seg.ack, self.iss):
            # Normal open: SYN+ACK received.
            self.snd_una = seg.ack
            self.retx_timer.stop()
            self._send_ack()
            self._establish()
        else:
            # Simultaneous open.
            self.state = TcpState.SYN_RECEIVED
            self._send_segment(TcpSegment(
                src_port=self.local_port, dst_port=self.remote_port,
                seq=self.iss, ack=self.rcv.rcv_next, flags=FLAG_SYN | FLAG_ACK,
                window=self.rcv.window, mss_option=self.config.mss))

    def _process_ack(self, seg: TcpSegment) -> None:
        ack = seg.ack
        # An ACK equal to SND.MAX or SND.UNA (every ACK a pure receiver
        # sees) is at distance 0 without the modular arithmetic.
        if ack != self.snd_max and seq_sub(ack, self.snd_max) > 0:
            self._send_ack()  # acks data we never sent — resync
            return
        if self.snd_nxt != self.snd_max and seq_gt(ack, self.snd_nxt):
            # Legitimate: it covers data sent before a go-back-N pull-back
            # (the receiver had it stashed out of order all along).
            self.snd_nxt = ack
        advanced = 0 if ack == self.snd_una else seq_sub(ack, self.snd_una)
        if advanced <= 0:
            # Duplicate ack.
            if seg.payload or seg.flags & (FLAG_FIN | FLAG_SYN):
                return
            if ack == self.snd_una and self.flight_size > 0:
                self.stats.duplicate_acks += 1
                self._dupacks += 1
                if (self.config.fast_retransmit
                        and self._dupacks == self.config.dupack_threshold):
                    self._fast_retransmit()
            if seg.window != self.snd_wnd:
                self.snd_wnd = seg.window
                self._try_send()
            return
        # New data acked.
        self.snd_una = ack
        flight = seq_sub(self.snd_nxt, ack)
        self.stats.bytes_acked += advanced
        self._dupacks = 0
        self._retx_pending = 0
        # RTT sample for the timed segment.  Karn's algorithm, both halves:
        # never sample a retransmitted segment (handled in _time_segment),
        # and keep the backed-off timer until a VALID sample arrives —
        # resetting on any ack would re-arm a spuriously short timer while
        # queueing delay grows.
        if self._timed_seq is not None and seq_sub(ack, self._timed_seq) >= 0:
            self.rto.sample(self.sim.now - self._timed_at, retransmitted=False)
            self._timed_seq = None
            self.rto.reset_backoff()
        # The urgent mark is consumed once the peer has acked past it.
        if self.snd_up is not None and seq_ge(ack, self.snd_up):
            self.snd_up = None
        # Trim the stream and boundary records.  The send buffer holds
        # stream bytes only: an ack covering our FIN must not trim past the
        # FIN's (virtual) byte.
        fin_acked = self._fin_seq is not None and seq_gt(ack, self._fin_seq)
        freed = self.send_buffer.ack_to(self._fin_seq if fin_acked else ack)
        boundaries = self._sent_boundaries
        while boundaries:
            seq, length = next(iter(boundaries.items()))
            if seq_gt(seq_add(seq, length), ack):
                break
            del boundaries[seq]
        # ECN: the peer is echoing a gateway mark.  Respond like a loss —
        # halve, keep the new threshold — but without the retransmission,
        # and at most once per window of data (RFC 3168 §6.1.2).
        ecn_backoff = False
        if (self.config.ecn and self.config.congestion_control
                and seg.flags & FLAG_ECE):
            if (self._ecn_resp_seq is None
                    or seq_gt(self.snd_una, self._ecn_resp_seq)):
                self.ssthresh = max(flight // 2, 2 * self.snd_mss)
                self.cwnd = self.ssthresh
                self._ca_bytes_acked = 0
                self._ecn_resp_seq = self.snd_nxt
                self._cwr_pending = True
                self.stats.ecn_responses += 1
                ecn_backoff = True
        # Congestion window growth.
        if self.config.congestion_control and not ecn_backoff:
            if self.cwnd < self.ssthresh:
                self.cwnd += self.snd_mss              # slow start
            else:
                # Appropriate byte counting: cwnd's worth of acked bytes
                # buys one MSS, so growth stays ~1 MSS/RTT at any window.
                self._ca_bytes_acked += advanced
                if self._ca_bytes_acked >= self.cwnd:
                    self._ca_bytes_acked -= self.cwnd
                    self.cwnd += self.snd_mss
        self.snd_wnd = seg.window
        if fin_acked:
            self._fin_acked()
        # Timer management.
        if flight == 0 and not self._fin_in_flight():
            self.retx_timer.stop()
        elif flight > 0 or self._fin_in_flight():
            self.retx_timer.start(self.rto.timeout())
        self._try_send()
        if freed > 0 and self.on_send_ready is not None and not self._fin_queued:
            self.on_send_ready(self.send_buffer.free_space)

    def _fast_retransmit(self) -> None:
        self.stats.fast_retransmits += 1
        self._trace("fast-retransmit", str(self.snd_una))
        if self.config.congestion_control:
            self.ssthresh = max(self.flight_size // 2, 2 * self.snd_mss)
            self.cwnd = self.snd_mss
            self._ca_bytes_acked = 0
            self._go_back_n()
            self._try_send()
        else:
            self._retransmit_from_una()
        self.retx_timer.start(self.rto.timeout())

    def _process_fin(self, seg: TcpSegment) -> None:
        fin_seq = seq_add(seg.seq, len(seg.payload))
        if fin_seq != self.rcv.rcv_next:
            return  # FIN not yet in order; will be retransmitted
        self.rcv.rcv_next = seq_add(self.rcv.rcv_next, 1)
        self._trace("fin-received")
        self._send_ack()
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
            if self.on_close is not None:
                self.on_close()
        elif self.state is TcpState.FIN_WAIT_1:
            # Our FIN not yet acked: simultaneous close.
            self.state = TcpState.CLOSING
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()

    def _fin_acked(self) -> None:
        if self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
        elif self.state is TcpState.CLOSING:
            self._enter_time_wait()
        elif self.state is TcpState.LAST_ACK:
            self._enter_closed(reason="closed")

    # ------------------------------------------------------------------
    # ACK generation
    # ------------------------------------------------------------------
    def _schedule_ack(self, *, force: bool) -> None:
        if force:
            self._send_ack()
            return
        if self._ack_pending:
            self._send_ack()  # every second segment acks immediately
            return
        self._ack_pending = True
        self.delack_timer.start(self.config.delayed_ack_timeout)

    def _flush_delayed_ack(self) -> None:
        if self._ack_pending:
            self._send_ack()

    def _advertised_window(self) -> int:
        """The window we tell the peer, with receiver-SWS avoidance: a
        window too small to be worth a segment is advertised as zero."""
        raw = self.rcv.window
        if raw > 0xFFFF:
            raw = 0xFFFF
        if (not self.config.sws_avoidance or raw >= self.snd_mss
                or raw >= self.config.recv_buffer // 2):
            return raw
        return 0

    def _send_ack(self) -> None:
        if self.rcv is None:
            return
        # Positional, as in _try_send: ports, seq, ack, flags, window.
        self._send_segment(TcpSegment(
            self.local_port, self.remote_port, self.snd_nxt,
            self.rcv.rcv_next, FLAG_ACK, self._advertised_window()))

    def _maybe_window_update(self) -> None:
        """After an application read reopens a closed window, tell the peer."""
        if self.state.is_synchronized and self.rcv is not None:
            self._send_ack()

    def _send_rst(self, offending: TcpSegment) -> None:
        self.stats.resets_sent += 1
        if offending.ack_flag:
            seg = TcpSegment(src_port=self.local_port, dst_port=self.remote_port,
                             seq=offending.ack, flags=FLAG_RST)
        else:
            seg = TcpSegment(
                src_port=self.local_port, dst_port=self.remote_port,
                seq=0, ack=seq_add(offending.seq, offending.seq_space),
                flags=FLAG_RST | FLAG_ACK)
        self._send_segment(seg)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self._stop_timers()
        self.time_wait_timer.start(2 * self.config.msl)
        self._trace("time-wait")

    def _time_wait_done(self) -> None:
        self._enter_closed(reason="time-wait-done")

    def _enter_closed(self, *, reason: str, notify_reset: bool = False) -> None:
        already_closed = self.state is TcpState.CLOSED
        if self.close_reason is None:
            self.close_reason = reason
        self.state = TcpState.CLOSED
        self.stats.closed_at = self.sim.now
        self._stop_timers()
        self.stack.connection_closed(self)
        self._trace("closed", reason)
        if already_closed:
            return
        if notify_reset and self.on_reset is not None:
            self.on_reset()
        if self.on_close is not None:
            self.on_close()

    def _stop_timers(self) -> None:
        self.retx_timer.stop()
        self.probe_timer.stop()
        self.delack_timer.stop()
        self.time_wait_timer.stop()
        self.keepalive_timer.stop()


def seq_sub_wrap(seq: int, delta: int) -> int:
    """Subtract in sequence space, wrapping at 2**32."""
    return (seq - delta) % (1 << 32)
