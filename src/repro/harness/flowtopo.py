"""The flows topology preset: voice + bulk at saturation through a
soft-state flow gateway.

The paper's closing outlook (§10) sketches gateways built on *flows* with
*soft state*; experiment E10 and the ``flows`` chaos campaign need one
canonical topology to measure it on.  This preset builds it:

::

    V ──┐                       ┌── S
        ├── G1 ═══ bottleneck ═══ G2
    B ──┘    └──── G3 ──────────┘

* ``V`` streams open-loop UDP voice (64 kb/s PCM, 50 frames/s) to ``S``;
* ``B`` streams bulk TCP to ``S`` through a resumable session, offered at
  more than the bottleneck's rate — the link is *saturated* by design;
* ``G1``'s egress onto the 300 kb/s bottleneck carries the discipline
  under test: ``mode="fifo"`` is the 1988 baseline, the link's own
  drop-tail queue and no flow gateway; ``"drr"`` is per-flow fair
  queueing under a :class:`FlowGateway`, so reservations
  install/refresh/expire as soft state.  The queue holds
  ``per_flow_limit`` packets in both: the FIFO's whole buffer, and a
  depth DRR, which keeps one frame on the wire, never reaches;
* the ``G1─G3─G2`` detour gives routing somewhere to reconverge to when
  chaos flaps the bottleneck.

The receiver's :class:`RecordingMeter` keeps exact per-frame send/arrival
logs (sim-deterministic), so campaigns can score *windowed* voice quality
— e.g. "did the reserved flow regain its share within one refresh
interval of the gateway's restore?" — and benchmarks can gate exact p99
latency rather than a reservoir estimate.
"""

from __future__ import annotations

from typing import Optional

from ..apps.voice import UdpVoiceCall, UdpVoiceReceiver, VoiceCodec
from ..flows.flowspec import FlowSpec
from ..flows.gateway import FlowGateway, ReservationSender, accept_reservations
from ..ip.packet import PROTO_UDP
from ..metrics.flowstats import PlayoutMeter
from ..session import ReconnectingStream, SessionListener
from ..tcp.connection import TcpConfig
from .topology import Internet

__all__ = ["RecordingMeter", "FlowTopology", "build_flow_topology",
           "BOTTLENECK_BPS", "VOICE_PORT", "BULK_PORT"]

BOTTLENECK_BPS = 300_000.0
VOICE_PORT = 5004
BULK_PORT = 9000


class RecordingMeter(PlayoutMeter):
    """A playout meter that also keeps exact, timestamped logs.

    ``PlayoutMeter`` aggregates into reservoir statistics; campaigns need
    windowed answers ("usable frames in [t1, t2)") and benchmarks need
    exact percentiles, so this subclass records every send and arrival.
    """

    def __init__(self, deadline: float):
        super().__init__(deadline)
        self.sent_log: list[tuple[float, int]] = []
        self.recv_log: list[tuple[float, int, float, bool]] = []

    def sent(self, seq: int, time: float) -> None:
        super().sent(seq, time)
        self.sent_log.append((time, seq))

    def received(self, seq: int, time: float) -> Optional[float]:
        latency = super().received(seq, time)
        if latency is not None:
            self.recv_log.append((time, seq, latency,
                                  latency <= self.deadline))
        return latency

    # ------------------------------------------------------------------
    def usable_pct(self, start: float = 0.0,
                   end: float = float("inf")) -> Optional[float]:
        """Percent of frames *sent* in [start, end) that arrived on time.

        Windowing by send time keeps the denominator honest: a frame lost
        in a blackout counts against the window it was sent in.
        """
        window = {seq for t, seq in self.sent_log if start <= t < end}
        if not window:
            return None
        ok = sum(1 for _t, seq, _lat, on_time in self.recv_log
                 if on_time and seq in window)
        return round(100.0 * ok / len(window), 3)

    def latency_quantile(self, q: float) -> Optional[float]:
        """Exact latency quantile over every arrival (late ones included)."""
        lats = sorted(lat for _t, _s, lat, _o in self.recv_log)
        if not lats:
            return None
        index = min(len(lats) - 1, int(round(q * (len(lats) - 1))))
        return lats[index]


class FlowTopology:
    """A built flows preset with live handles for campaigns and benches."""

    def __init__(self, net: Internet, *, mode: str,
                 fgw: Optional[FlowGateway],
                 bottleneck, meter: RecordingMeter,
                 voice_call: UdpVoiceCall, voice_receiver: UdpVoiceReceiver,
                 bulk_client: Optional[ReconnectingStream],
                 bulk_listener: Optional[SessionListener],
                 bulk_received: list, voice_spec: Optional[FlowSpec],
                 sender: Optional[ReservationSender],
                 refresh_interval: float, start_time: float,
                 duration: float):
        self.net = net
        self.mode = mode
        self.fgw = fgw
        self.bottleneck = bottleneck
        self.meter = meter
        self.voice_call = voice_call
        self.voice_receiver = voice_receiver
        self.bulk_client = bulk_client
        self.bulk_listener = bulk_listener
        self._bulk_received = bulk_received
        self.voice_spec = voice_spec
        self.sender = sender
        self.refresh_interval = refresh_interval
        self.start_time = start_time
        self.duration = duration

    @property
    def bulk_bytes_received(self) -> int:
        return sum(self._bulk_received)

    def counters(self) -> dict:
        """Sim-deterministic summary block for reports."""
        meter = self.meter
        out = {
            "mode": self.mode,
            "voice_frames_sent": meter.sent_count,
            "voice_frames_on_time": meter.on_time_count,
            "voice_frames_late": meter.late_count,
            "voice_usable_pct": meter.usable_pct(),
            "voice_p99_s": _round(meter.latency_quantile(0.99)),
            "voice_p50_s": _round(meter.latency_quantile(0.50)),
            "bulk_bytes_received": self.bulk_bytes_received,
        }
        if self.fgw is not None:
            out["flow_gateway"] = self.fgw.counters()
        if self.sender is not None:
            out["refreshes_sent"] = self.sender.refreshes_sent
        return out


def _round(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 6)


def build_flow_topology(
    seed: int = 11,
    *,
    mode: str = "drr",
    reserve: bool = True,
    bottleneck_bps: float = BOTTLENECK_BPS,
    voice_weight: int = 4,
    lifetime: float = 6.0,
    refresh_interval: Optional[float] = None,
    duration: float = 45.0,
    per_flow_limit: int = 32,
    playout_deadline: float = 0.160,
    bulk_chunk: int = 600,
    bulk_interval: float = 0.0125,
    with_bulk: bool = True,
    observe: bool = False,
    trace: bool = False,
    settle: float = 10.0,
) -> FlowTopology:
    """Build the saturated voice+bulk preset around one flow gateway.

    The bulk session offers ``bulk_chunk * 8 / bulk_interval`` bits/s
    (384 kb/s at the defaults) against a 300 kb/s bottleneck, so the
    discipline — not spare capacity — decides who gets through.  Voice
    and bulk start immediately after convergence; ``duration`` bounds both.
    """
    if mode not in ("fifo", "drr"):
        raise ValueError(f"unknown gateway discipline {mode!r}")
    cfg = TcpConfig(quiet_time=1.5, keepalive_idle=3.0,
                    keepalive_interval=1.0, keepalive_probes=3)
    net = Internet(seed=seed, trace=trace)
    v = net.host("V")
    b = net.host("B", tcp_config=cfg)
    s = net.host("S", tcp_config=cfg)
    g1, g2, g3 = net.gateway("G1"), net.gateway("G2"), net.gateway("G3")
    net.connect(v, g1, bandwidth_bps=10e6, delay=0.001)
    net.connect(b, g1, bandwidth_bps=10e6, delay=0.001)
    bottleneck = net.connect(g1, g2, bandwidth_bps=bottleneck_bps,
                             delay=0.005, queue_limit=per_flow_limit)
    net.connect(g1, g3, bandwidth_bps=1e6, delay=0.010)
    net.connect(g3, g2, bandwidth_bps=1e6, delay=0.010)
    net.connect(g2, s, bandwidth_bps=10e6, delay=0.001)
    if observe:
        net.observe()
    net.start_routing()
    net.converge(settle=settle)

    fgw = None
    if mode == "drr":
        egress = (bottleneck.ends[0] if bottleneck.ends[0].node is g1.node
                  else bottleneck.ends[1])
        fgw = FlowGateway(g1.node, egress, per_flow_limit=per_flow_limit)

    # -- voice: open-loop UDP, scored against its playout deadline ------
    receiver = UdpVoiceReceiver(s, VOICE_PORT,
                                playout_deadline=playout_deadline)
    meter = RecordingMeter(playout_deadline)
    receiver.meter = meter
    call = UdpVoiceCall(v, s.address, VOICE_PORT, codec=VoiceCodec(),
                        duration=duration, meter=meter)

    # -- soft-state reservation for the voice flow ----------------------
    accept_reservations(s)
    spec = sender = None
    interval = (refresh_interval if refresh_interval is not None
                else lifetime / 3)
    if reserve and mode == "drr":
        spec = FlowSpec(v.address, s.address, PROTO_UDP,
                        dst_port=VOICE_PORT, weight=voice_weight,
                        lifetime=lifetime)
        sender = ReservationSender(v, spec, refresh_interval=interval)

    # -- bulk: TCP through the resumable session layer, oversubscribed --
    bulk_received: list[int] = []
    bulk_client = bulk_listener = None
    if with_bulk:
        bulk_listener = SessionListener(
            s, BULK_PORT, on_data=lambda _s, d: bulk_received.append(len(d)))
        bulk_client = ReconnectingStream(
            b, s.address, BULK_PORT,
            rng=net.streams.stream("session.client"))
        bulk_client.start()
        chunk = bytes(i % 256 for i in range(bulk_chunk))
        for k in range(int(duration / bulk_interval)):
            net.sim.schedule(k * bulk_interval,
                             lambda c=chunk: bulk_client.send(c),
                             label="flows:bulk-send")

    return FlowTopology(net, mode=mode, fgw=fgw, bottleneck=bottleneck,
                        meter=meter, voice_call=call,
                        voice_receiver=receiver, bulk_client=bulk_client,
                        bulk_listener=bulk_listener,
                        bulk_received=bulk_received, voice_spec=spec,
                        sender=sender, refresh_interval=interval,
                        start_time=net.sim.now, duration=duration)
