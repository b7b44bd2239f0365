"""The fate-sharing closed loop, as a seeded campaign preset.

One scenario, end to end: a client host streams a deterministic payload to
a server over a resumable session while a :class:`~repro.chaos.faults.HostRestart`
fault power-cycles it — by default three times, mid-transfer.  Every layer
this PR built gets exercised in one run:

* the crash kills the client's TCP silently (fate-sharing);
* the server's keepalive probes and the reborn host's RSTs shed the
  half-open zombie (watched by the half-open-zombie monitor);
* the reborn stack honors RFC 793 quiet time before issuing ISNs
  (watched by the quiet-time monitor);
* the session layer redials with seeded backoff, defers to the quiet
  window, and replays exactly the unacknowledged suffix — the payload
  must arrive complete, in order, with zero duplicated bytes.

Everything is drawn from the internet's named random streams, so the same
seed produces a byte-identical campaign report — a red run in CI replays
locally from its seed alone.
"""

from __future__ import annotations

from typing import Optional

from ..harness.topology import Internet
from ..metrics.export import stats_dict
from ..session import ReconnectingStream, SessionListener
from ..tcp.connection import TcpConfig
from .campaign import FaultCampaign
from .faults import HostRestart
from .report import CampaignReport

__all__ = ["RestartScenario", "build_restart_scenario",
           "run_restart_campaign", "restart_payload", "gates", "verdict"]


def restart_payload(length: int) -> bytes:
    """The deterministic application byte stream (seed-independent, so a
    corrupted delivery is attributable to the stack, not the generator)."""
    return bytes((i * 31 + 7) % 256 for i in range(length))


class RestartScenario:
    """A built-but-not-yet-run restart campaign with its live objects."""

    def __init__(self, net: Internet, campaign: FaultCampaign,
                 client: ReconnectingStream, listener: SessionListener,
                 payload: bytes, received: bytearray,
                 client_host: str, server_host: str,
                 run_until: float):
        self.net = net
        self.campaign = campaign
        self.client = client
        self.listener = listener
        self.payload = payload
        self.received = received
        self.client_host = client_host
        self.server_host = server_host
        self.run_until = run_until

    # ------------------------------------------------------------------
    def duplicated_bytes(self) -> int:
        """Bytes delivered beyond the longest prefix-match — double
        delivery shows up as extra length or a mismatched tail."""
        got = bytes(self.received)
        return max(0, len(got) - len(self.payload))

    def lost_bytes(self) -> int:
        got = bytes(self.received)
        return max(0, len(self.payload) - len(got))

    def payload_intact(self) -> bool:
        return bytes(self.received) == self.payload

    # ------------------------------------------------------------------
    def run(self) -> CampaignReport:
        """Run the campaign and fold transport/session counters into the
        report (still canonical: same seed ⇒ same bytes)."""
        report = self.campaign.run(until=self.run_until)
        net = self.net
        server_sessions = list(self.listener.sessions.values())
        session_server = (stats_dict(server_sessions[0].stats)
                          if server_sessions else {})
        client_stack = net.hosts[self.client_host].tcp
        server_stack = net.hosts[self.server_host].tcp
        report.counters.update({
            "payload_bytes": len(self.payload),
            "payload_delivered": len(self.received),
            "payload_lost_bytes": self.lost_bytes(),
            "payload_duplicated_bytes": self.duplicated_bytes(),
            "payload_intact": self.payload_intact(),
            "session_client": stats_dict(self.client.stats),
            "session_server": session_server,
            "tcp_client": _stack_counters(client_stack),
            "tcp_server": _stack_counters(server_stack),
        })
        return report


def _stack_counters(stack) -> dict:
    """The per-stack observation surface the restart loop touches, plus
    keepalive/RST counters aggregated over still-open connections."""
    out = {
        "isns_issued": stack.isns_issued,
        "isn_quiet_violations": stack.isn_quiet_violations,
        "quiet_time_drops": stack.quiet_time_drops,
        "refused_syns": stack.refused_syns,
        "resets_sent": stack.resets_sent,
        "bad_segments": stack.bad_segments,
    }
    keep_sent = keep_answered = rst_oow = 0
    for conn in stack.connections:
        keep_sent += conn.stats.keepalives_sent
        keep_answered += conn.stats.keepalives_answered
        rst_oow += conn.stats.rst_out_of_window
    out["keepalives_sent_open"] = keep_sent
    out["keepalives_answered_open"] = keep_answered
    out["rst_out_of_window_open"] = rst_oow
    return out


def build_restart_scenario(
    seed: int = 7,
    *,
    restarts: int = 3,
    dwell: float = 1.0,
    first_at: float = 3.0,
    spacing: float = 6.0,
    payload_len: int = 20_000,
    chunk: int = 400,
    chunk_interval: float = 0.4,
    quiet_time: float = 1.5,
    keepalive_idle: float = 3.0,
    keepalive_interval: float = 1.0,
    keepalive_probes: int = 3,
    port: int = 9000,
    monitors=None,
    trace: bool = False,
    settle: float = 10.0,
    tail: float = 25.0,
) -> RestartScenario:
    """Build the canonical restart topology, transfer, and fault schedule.

    H1 —— G1 —— G2 —— H2, distance-vector routing, keepalive-enabled TCP
    with a short (simulation-friendly) quiet time.  H1 streams the payload
    to H2 in paced chunks; ``restarts`` HostRestart faults hit H1 starting
    at ``first_at`` (relative to convergence), ``spacing`` apart.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    cfg = TcpConfig(quiet_time=quiet_time,
                    keepalive_idle=keepalive_idle,
                    keepalive_interval=keepalive_interval,
                    keepalive_probes=keepalive_probes)
    net = Internet(seed=seed, trace=trace)
    h1 = net.host("H1", tcp_config=cfg)
    h2 = net.host("H2", tcp_config=cfg)
    g1, g2 = net.gateway("G1"), net.gateway("G2")
    net.connect(h1, g1)
    net.connect(g1, g2)
    net.connect(g2, h2)
    net.start_routing()
    net.converge(settle=settle)

    payload = restart_payload(payload_len)
    received = bytearray()
    listener = SessionListener(h2, port,
                               on_data=lambda _s, d: received.extend(d))
    client = ReconnectingStream(h1, h2.address, port,
                                rng=net.streams.stream("session.client"))
    client.start()
    for k in range(0, payload_len, chunk):
        net.sim.schedule(chunk_interval * (k // chunk),
                         lambda c=payload[k:k + chunk]: client.send(c),
                         label="session:app-send")

    now = net.sim.now
    faults = [HostRestart("H1", now + first_at + i * spacing, dwell)
              for i in range(restarts)]
    campaign = FaultCampaign(net, faults, monitors,
                             name=f"restart[seed={seed}]")
    send_end = now + chunk_interval * (payload_len // chunk)
    run_until = max(faults[-1].clear_time, send_end) + tail
    return RestartScenario(net, campaign, client, listener, payload,
                           received, "H1", "H2", run_until)


def run_restart_campaign(seed: int = 7, **kwargs) -> CampaignReport:
    """Build and run the seeded restart campaign; returns the report with
    payload-integrity and transport/session counters folded in."""
    return build_restart_scenario(seed, **kwargs).run()


def gates(report: CampaignReport, size: str) -> list[str]:
    """Beyond ok/reconverged: the application payload arrived complete,
    in order, with zero duplicated bytes."""
    counters = report.counters
    if counters.get("payload_intact", False):
        return []
    return [f"payload corrupted — {counters['payload_lost_bytes']} byte(s) "
            f"lost, {counters['payload_duplicated_bytes']} duplicated"]


def verdict(report: CampaignReport) -> str:
    sess = report.counters["session_client"]
    return (f"{len(report.faults)} restart(s) survived — "
            f"{sess['reconnects']} reconnect(s), "
            f"{sess['bytes_replayed']} byte(s) replayed, payload intact, "
            f"zero invariant violations")
