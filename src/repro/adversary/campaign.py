"""The adversarial campaign: fuzz legs, byzantine gateway, canary rollout.

``run_adversary_campaign(seed)`` runs three independent experiments and
folds them into one :class:`~repro.chaos.report.RaceReport` (the
byzantine campaign is its one leg; fuzz logs, per-behavior detection and
rollout timelines are the scorecard):

1. **Fuzz legs** — three small topologies, one per protocol family
   (TCP, session resume, network management), each hammered by its
   stateful fuzzer.  Contract: no unhandled exception, no adversarial
   byte accepted as data, every drop classified by a counter.
2. **Byzantine gateway** — a transit gateway turns malicious four times
   (corrupt, replay, misroute, delay) under a chaos
   :class:`~repro.chaos.campaign.FaultCampaign` with an end-to-end
   delivery-integrity monitor, while a management station detects each
   behavior from golden signals alone (per-behavior MTTD).
3. **Canary rollouts** — a benign TcpConfig change that must promote, a
   broken one (RTO below one network round trip) that must roll back
   before fleet promotion, and a fat-fingered EGP import policy that
   blackholes a /16 until the alarm-gated rollback repairs it (MTTR).

Everything is driven by named RNG streams off the seed: same seed ⇒
byte-identical report.
"""

from __future__ import annotations

import struct

from ..chaos.campaign import FaultCampaign
from ..chaos.faults import ByzantineGateway
from ..chaos.monitors import InvariantMonitor, default_monitors
from ..chaos.report import RaceReport
from ..harness.presets import build_as_chain
from ..harness.tables import Table
from ..harness.topology import Internet
from ..mgmt.policy import deny_prefixes
from ..netmgmt.agent import MgmtAgent
from ..netmgmt.alarms import RateRule
from ..netmgmt.campaign import ManagementPlane, format_mttd
from ..netmgmt.collector import Collector
from ..rollout import CanaryRollout, RolloutStage
from ..session.listener import SessionListener
from ..session.stream import ReconnectingStream
from ..tcp.connection import TcpConfig
from ..tcp.state import TcpState
from .fuzzers import MgmtFuzzer, SessionFuzzer, TcpFuzzer

__all__ = ["run_adversary_campaign", "gates", "verdict",
           "DeliveryIntegrityMonitor"]


# ----------------------------------------------------------------------
# Deterministic payload patterns (the integrity oracle's ground truth)
# ----------------------------------------------------------------------
def _pattern(length: int, *, salt: int = 0) -> bytes:
    return bytes((i * 31 + 7 + salt) & 0xFF for i in range(length))


def _udp_payload(seq: int, size: int = 60) -> bytes:
    body = bytes(((seq + j) * 13 + 5) & 0xFF for j in range(size - 4))
    return struct.pack("!I", seq & 0xFFFFFFFF) + body


class DeliveryIntegrityMonitor(InvariantMonitor):
    """End-to-end integrity: *no corrupted byte is ever delivered*.

    The transport checksums are the defense; this monitor is the oracle
    that proves they held.  ``checks`` is a list of callables returning
    an iterable of violation strings (empty when clean); they run every
    sample tick and once more at campaign end.
    """

    name = "delivery-integrity"

    def __init__(self, checks):
        super().__init__()
        self.checks = list(checks)
        self._seen: set[str] = set()

    def _run_checks(self) -> None:
        for check in self.checks:
            for detail in check():
                if detail not in self._seen:
                    self._seen.add(detail)
                    self.violate(detail)

    def sample(self) -> None:
        self._run_checks()

    def finish(self) -> None:
        self._run_checks()


# ----------------------------------------------------------------------
# Leg 1: TCP state-machine fuzz
# ----------------------------------------------------------------------
def _run_tcp_leg(seed: int) -> dict:
    net = Internet(seed=seed)
    victim = net.host("V")
    legit = net.host("L")
    attacker = net.host("A")
    hub = net.gateway("G")
    lan = net.lan("anet", [attacker, hub])
    net.connect(victim, hub)
    net.connect(legit, hub)
    net.start_routing(period=1.0)
    net.converge(settle=5.0)

    max_half_open = 16
    server_cfg = TcpConfig(max_half_open=max_half_open)
    accepted = []
    listener = victim.tcp.listen(80, accepted.append, config=server_cfg)

    fuzzer = TcpFuzzer(net, attacker, victim, port=80,
                       rng=net.streams.stream("adversary.tcp"),
                       spoof_prefix=lan.prefix)
    sim = net.sim
    t0 = sim.now

    # A legitimate conversation the probes must not kill.
    legit_sock = legit.connect(victim.address, 80)
    state = {"server_conn": None, "post_sock": None}

    def keep_alive():
        if legit_sock.established:
            legit_sock.write(b"k" * 64)
        if sim.now < t0 + 11.0:
            sim.schedule(0.5, keep_alive, label="fuzz.tcp.keepalive")
    sim.call_at(t0 + 6.0, keep_alive, label="fuzz.tcp.keepalive")

    fuzzer.syn_flood(3.0, 150)
    fuzzer.handshake_garbage(5.0, 40)

    def arm_probes():
        for conn in accepted:
            if conn.remote_addr == legit.address \
                    and conn.state is TcpState.ESTABLISHED:
                state["server_conn"] = conn
                fuzzer.probe_established(7.0, conn, 60)
                return
        fuzzer.log.violate("legitimate connection never established "
                           "before the RFC 5961 probes")
    sim.call_at(t0 + 6.8, arm_probes, label="fuzz.tcp.arm")

    # After the storm the listener must still serve honest clients.
    def late_dial():
        state["post_sock"] = legit.connect(victim.address, 80)
    sim.call_at(t0 + 10.5, late_dial, label="fuzz.tcp.late-dial")

    try:
        sim.run(until=t0 + 13.0)
    except Exception as exc:    # noqa: BLE001 - the contract
        fuzzer.log.violate(
            f"unhandled {type(exc).__name__} escaped the tcp leg: {exc}")

    post = state["post_sock"]
    if post is None or not post.established:
        fuzzer.log.violate("victim stopped accepting legitimate "
                           "connections after the flood")
    fuzzer.check(listener=listener, probed_conn=state["server_conn"],
                 max_half_open=max_half_open)
    return fuzzer.log.to_dict()


# ----------------------------------------------------------------------
# Leg 2: session-resume fuzz
# ----------------------------------------------------------------------
def _run_session_leg(seed: int) -> dict:
    net = Internet(seed=seed)
    server = net.host("S")
    client = net.host("C")
    attacker = net.host("A")
    hub = net.gateway("G")
    for host in (server, client, attacker):
        net.connect(host, hub)
    net.start_routing(period=1.0)
    net.converge(settle=5.0)

    delivered: dict[int, bytearray] = {}

    def on_data(session, data):
        delivered.setdefault(session.session_id, bytearray()).extend(data)

    listener = SessionListener(server, 7001, on_data=on_data)
    stream = ReconnectingStream(client, server.address, 7001,
                                rng=net.streams.stream("session.client"))
    sim = net.sim
    t0 = sim.now
    sent = {"offset": 0}
    total = 4096

    def writer():
        if sent["offset"] < total:
            chunk = _pattern(64, salt=sent["offset"] & 0xFF)
            stream.send(chunk)
            sent["offset"] += len(chunk)
            sim.schedule(0.2, writer, label="fuzz.session.writer")
    sim.call_at(t0 + 1.0, stream.start, label="fuzz.session.start")
    sim.call_at(t0 + 1.5, writer, label="fuzz.session.writer")

    # The expected byte stream mirrors the writer exactly.
    expected = b"".join(_pattern(64, salt=off & 0xFF)
                        for off in range(0, total, 64))

    fuzzer = SessionFuzzer(net, attacker, server, port=7001,
                           rng=net.streams.stream("adversary.session"))
    fuzzer.garbage_hello(3.0, 8)
    fuzzer.forged_resume(7.0, 4, lambda: stream.session_id)

    try:
        sim.run(until=t0 + 20.0)
    except Exception as exc:    # noqa: BLE001
        fuzzer.log.violate(
            f"unhandled {type(exc).__name__} escaped the session leg: "
            f"{exc}")

    got = bytes(delivered.get(stream.session_id, b""))
    fuzzer.check(listener=listener, legit_stream=stream,
                 delivered=got, expected=expected)
    if len(got) == 0:
        fuzzer.log.violate("legitimate session delivered nothing")
    return fuzzer.log.to_dict()


# ----------------------------------------------------------------------
# Leg 3: network-management fuzz
# ----------------------------------------------------------------------
def _run_mgmt_leg(seed: int) -> dict:
    net = Internet(seed=seed)
    station = net.host("ST")
    target = net.host("T1")
    tiny = net.host("T2")
    attacker = net.host("A")
    hub = net.gateway("G")
    for host in (station, target, tiny, attacker):
        net.connect(host, hub)
    net.start_routing(period=1.0)
    net.converge(settle=5.0)

    MgmtAgent(target.node, target.udp, tcp=target.tcp)
    # A second agent with a pathologically small response budget: the
    # tooBig boundary the fuzzer leans on.
    tiny_agent = MgmtAgent(tiny.node, tiny.udp, tcp=tiny.tcp,
                           max_response_bytes=20)
    collector = Collector(station, {"T1": target.node.addresses},
                          interval=0.5, timeout=0.4,
                          rng=net.streams.stream("netmgmt.collector"))
    collector.start()

    fuzzer = MgmtFuzzer(net, attacker, collector=collector,
                        agent_host=tiny,
                        rng=net.streams.stream("adversary.netmgmt"))
    sim = net.sim
    t0 = sim.now
    before = {"scrapes": 0}

    def mark():
        before["scrapes"] = collector.stats.scrapes_completed
    sim.call_at(t0 + 3.0, mark, label="fuzz.mgmt.mark")

    fuzzer.forge_responses(3.0, 60)
    fuzzer.garbage_to_collector(3.5, 30)
    fuzzer.abuse_agent(4.0, 40)

    try:
        sim.run(until=t0 + 12.0)
    except Exception as exc:    # noqa: BLE001
        fuzzer.log.violate(
            f"unhandled {type(exc).__name__} escaped the mgmt leg: {exc}")

    collector.stop()
    fuzzer.check(agent=tiny_agent, scrapes_before=before["scrapes"])
    if tiny_agent.stats.too_big == 0 \
            and tiny_agent.stats.truncated_responses == 0:
        fuzzer.log.violate("tooBig boundary abuse never tripped the "
                           "response byte bound")
    return fuzzer.log.to_dict()


# ----------------------------------------------------------------------
# Byzantine gateway under the chaos engine
# ----------------------------------------------------------------------
#: Per-behavior primary golden-signal signature: (rule, target) pairs
#: whose first raise inside the fault window defines that behavior's
#: MTTD.  Corruption screams at the receiver, replay and delay at the
#: sender's retransmission machinery, misrouting at the decoy that
#: suddenly receives traffic whose checksums bind it to somebody else.
_BYZ_SIGNATURES = {
    "corrupt": (("byz-corrupt-tcp", "H2"), ("byz-corrupt-udp", "H2")),
    "replay": (("byz-replay", "H1"),),
    "misroute": (("byz-corrupt-tcp", "D"), ("byz-corrupt-udp", "D")),
    "delay": (("byz-delay", "H1"),),
}

_BYZ_VICTIMS = ("H1", "H2", "G2", "D")


def _behavior_detection(plane, faults, *, grace: float = 6.0) -> list[dict]:
    records = []
    for fault in faults:
        pairs = _BYZ_SIGNATURES[fault.behavior]
        start = fault.applied_at
        end = (fault.cleared_at if fault.cleared_at is not None
               else float("inf")) + grace
        hits = [alert.time for alert in plane.bus.raises()
                if (alert.rule, alert.target) in pairs
                and start is not None and start <= alert.time <= end]
        first = min(hits) if hits else None
        records.append({
            "behavior": fault.behavior,
            "applied_at": start,
            "cleared_at": fault.cleared_at,
            "perturbed": fault.perturbed,
            "detected": first is not None,
            "detected_at": first,
            "mttd": first - start if first is not None else None,
            "signatures": [f"{rule}@{target}" for rule, target in pairs],
        })
    return records


def _run_byzantine(seed: int) -> dict:
    net = Internet(seed=seed)
    h1 = net.host("H1", tcp_config=TcpConfig(max_retransmits=8))
    h2 = net.host("H2")
    decoy = net.host("D")
    station = net.host("S")
    g1, gb, g2 = net.gateway("G1"), net.gateway("GB"), net.gateway("G2")
    net.connect(h1, g1, delay=0.02)
    net.connect(station, g1, delay=0.005)
    net.connect(g1, gb, delay=0.02)
    net.connect(gb, g2, delay=0.02)
    net.connect(g2, h2, delay=0.02)
    net.connect(g2, decoy, delay=0.005)
    net.start_routing(period=1.0)
    net.converge(settle=5.0)
    sim = net.sim

    # ---- workload: one bulk TCP stream + one sequenced UDP stream ----
    tcp_delivered = bytearray()
    server_conns = []

    def serve(sock):
        server_conns.append(sock)
        sock.on_data = tcp_delivered.extend
    h2.listen(5001, serve)

    udp_errors: list[str] = []
    udp_stats = {"received": 0, "duplicates": 0}
    udp_seen: set[int] = set()

    def udp_sink(payload, src, src_port):
        udp_stats["received"] += 1
        if len(payload) < 4:
            udp_errors.append("udp datagram shorter than its header")
            return
        (seq,) = struct.unpack("!I", payload[:4])
        if payload != _udp_payload(seq, len(payload)):
            udp_errors.append(
                f"udp datagram seq={seq} delivered with corrupted bytes")
        elif seq in udp_seen:
            udp_stats["duplicates"] += 1    # replay: legal, counted
        else:
            udp_seen.add(seq)
    h2.udp_socket(5002, udp_sink)
    udp_tx = h1.udp_socket(0)

    sent = {"tcp": 0, "udp": 0}
    client_sock = h1.connect(h2.address, 5001)

    def pump():
        if client_sock.established:
            chunk = _pattern(256, salt=sent["tcp"] & 0xFF)
            client_sock.write(chunk)
            sent["tcp"] += 1
        udp_tx.sendto(_udp_payload(sent["udp"]), h2.address, 5002)
        sent["udp"] += 1
        if sim.now < 92.0:
            sim.schedule(0.05, pump, label="byz.pump")
    sim.call_at(6.0, pump, label="byz.pump")

    def tcp_expected(length: int) -> bytes:
        return b"".join(_pattern(256, salt=i & 0xFF)
                        for i in range((length + 255) // 256))[:length]

    def tcp_integrity():
        got = bytes(tcp_delivered)
        if got != tcp_expected(len(got)):
            return ["tcp stream delivered corrupted bytes "
                    f"({len(got)} so far)"]
        return []

    def udp_integrity():
        out, udp_errors[:] = list(udp_errors), []
        return out

    integrity = DeliveryIntegrityMonitor([tcp_integrity, udp_integrity])

    # ---- the four lies -----------------------------------------------
    faults = [
        ByzantineGateway("GB", 10.0, 8.0, behavior="corrupt", rate=0.3,
                         victims=_BYZ_VICTIMS),
        ByzantineGateway("GB", 30.0, 8.0, behavior="replay", rate=0.4,
                         replay_copies=5, victims=_BYZ_VICTIMS),
        ByzantineGateway("GB", 50.0, 8.0, behavior="misroute", rate=0.3,
                         decoy="D", victims=_BYZ_VICTIMS),
        # The hold must exceed the sender's RTO (fixed 3 s here) or the
        # delayed originals arrive before the retransmit timer fires and
        # the delay leaves no timeout signature at all.
        ByzantineGateway("GB", 70.0, 8.0, behavior="delay", rate=0.5,
                         delay_by=3.5, victims=_BYZ_VICTIMS),
    ]

    # ---- the oracle: golden signals at an in-band station ------------
    plane = ManagementPlane(net, station="S", interval=1.0, timeout=2.5,
                            unreachable_after=3)
    # The corrupt rules get a wider window than the fault dwell: while
    # the gateway lies, most scrapes crossing it die too, so the decoy's
    # checksum-failure jump is often only *visible* once the fault
    # clears — the window must still span back to the pre-fault
    # baseline point for the rate to register.
    for rule in (
        RateRule("byz-corrupt-tcp", "tcp.bad_segments", ">", 0.0,
                 window=12.0, hold_down=2.0),
        RateRule("byz-corrupt-udp", "udp.checksum_failures", ">", 0.0,
                 window=12.0, hold_down=2.0),
        RateRule("byz-replay", "tcp.agg.fast_retransmits", ">", 0.0,
                 window=6.0, hold_down=2.0),
        RateRule("byz-delay", "tcp.agg.retransmit_timeouts", ">", 0.0,
                 window=6.0, hold_down=2.0),
    ):
        plane.add_rule(rule)

    campaign = FaultCampaign(net, faults,
                             monitors=default_monitors() + [integrity],
                             name="adversary-byzantine")
    campaign.watch_connection(client_sock.conn, "H1->H2 bulk")
    plane.start()
    report = campaign.run(until=95.0)
    plane.stop()

    behavior = _behavior_detection(plane, faults)
    report.counters["netmgmt"] = plane.counters(campaign.faults, grace=6.0)
    report.counters["workload"] = {
        "tcp_bytes_delivered": len(tcp_delivered),
        "udp_received": udp_stats["received"],
        "udp_duplicates": udp_stats["duplicates"],
        "udp_unique": len(udp_seen),
    }
    return {
        "report": report,
        "behavior_detection": behavior,
    }


# ----------------------------------------------------------------------
# Canary rollouts
# ----------------------------------------------------------------------
def _run_rollout_tcp(seed: int, *, broken: bool) -> dict:
    net = Internet(seed=seed)
    server = net.host("V")
    canary = net.host("C")
    fleet = [net.host("F1"), net.host("F2")]
    station = net.host("S")
    hub = net.gateway("G")
    net.connect(server, hub, delay=0.05)
    for host in (canary, *fleet):
        net.connect(host, hub, delay=0.05)
    net.connect(station, hub, delay=0.005)
    net.start_routing(period=1.0)
    net.converge(settle=5.0)
    sim = net.sim

    def serve(sock):
        # Echo once, then close: the server drives each conversation to
        # completion so clients naturally cycle dial → serve → redial,
        # which is what makes the dial *rate* a golden signal.
        def echo(data):
            sock.write(data)
            sock.close()
        sock.on_data = echo
    server.listen(9000, serve, config=TcpConfig(max_half_open=32))

    dials = {"C": 0, "F1": 0, "F2": 0}

    def client_loop(host, name, first_at):
        def dial():
            dials[name] += 1
            sock = host.connect(server.address, 9000)
            redialed = [False]

            def closed():
                # on_closed fires both when the peer's FIN arrives
                # (CLOSE_WAIT) and again at final teardown; exactly one
                # redial per conversation or the loop turns exponential.
                if redialed[0]:
                    return
                redialed[0] = True
                if sim.now < 58.0:
                    sim.schedule(0.25, dial, label=f"rollout.dial.{name}")
            sock.on_closed = closed
            sock.on_open = lambda: sock.write(b"w" * 512)
            # Close only after the echo (and the server's trailing FIN)
            # has arrived: the client then closes *passively* — LAST_ACK,
            # no TIME_WAIT — so the dial cadence is set by the network
            # round trip (~1 dial/s healthy), not by 2*MSL.  A broken
            # config whose SYNs die before the SYN-ACK short-circuits
            # the whole cycle to fail-and-redial several times a second,
            # which is exactly the rate excursion the storm rule reads.
            sock.on_data = lambda _data: sim.schedule(
                0.3, sock.close, label=f"rollout.close.{name}")
        sim.call_at(first_at, dial, label=f"rollout.dial.{name}")

    client_loop(canary, "C", 6.0)
    client_loop(fleet[0], "F1", 6.3)
    client_loop(fleet[1], "F2", 6.6)

    plane = ManagementPlane(net, station="S", interval=1.0, timeout=0.5,
                            unreachable_after=3)
    # A healthy client completes dial -> echo -> passive close in about
    # 1.2 s (~0.9 ISN/s); a canary whose SYNs die before the SYN-ACK
    # can possibly arrive cycles fail-and-redial in ~0.3 s (~3 ISN/s).
    # 2 ISN/s splits the regimes with comfortable margin on both sides.
    plane.add_rule(RateRule("tcp-dial-storm", "tcp.isns_issued", ">", 2.0,
                            window=4.0, hold_down=2.0))
    plane.start()

    good_cfg = TcpConfig(keepalive_idle=30.0, max_half_open=32)
    # The operator error: a fixed RTO *below one network round trip*
    # with no retries — every SYN times out before its SYN-ACK can
    # possibly arrive, so the canary dies and redials in a tight loop.
    bad_cfg = TcpConfig(rto="fixed", rto_kwargs={"value": 0.06},
                        syn_retries=0, max_retransmits=0)
    new_cfg = bad_cfg if broken else good_cfg
    saved = {}

    def apply_to(hosts, cfg):
        for host in hosts:
            saved.setdefault(host.name, host.tcp.config)
            host.tcp.config = cfg

    def revert(hosts):
        for host in hosts:
            host.tcp.config = saved[host.name]

    rollout = CanaryRollout(
        plane, name="tcp-config" + ("-broken" if broken else "-good"),
        canary=RolloutStage("canary", ["C"],
                            lambda: apply_to([canary], new_cfg),
                            lambda: revert([canary])),
        fleet=RolloutStage("fleet", ["F1", "F2"],
                           lambda: apply_to(fleet, new_cfg),
                           lambda: revert(fleet)),
        # Longer than the monitoring pipeline's worst-case detect path
        # (scrape interval + rate window + rule hold-down), or promotion
        # can race a raise that is already in flight.
        hold_down=10.0,
        alarm_filter=lambda alert: (alert.rule == "tcp-dial-storm"
                                    and alert.target == "C"),
    )
    sim.call_at(14.0, rollout.start, label="rollout.start")
    sim.run(until=60.0)
    plane.stop()
    out = rollout.to_dict()
    out["dials"] = dict(dials)
    return out


def _run_rollout_egp(seed: int) -> dict:
    topo = build_as_chain(3, seed=seed)
    net = topo.net
    sim = net.sim

    plane = ManagementPlane(net, station="H1", interval=1.0, timeout=0.5,
                            unreachable_after=3)
    plane.start()

    victims = {"H3", "I3", "B3"}
    egp = topo.egps[3]
    saved = {}

    def apply_bad():
        saved["import"] = egp.import_policy
        # The fat finger: denying 10.1.0.0/16 *inbound* at AS3's border
        # blackholes every reply AS3 owes AS1 — the /16 vanishes from
        # B3's table at the next full-table exchange.
        egp.import_policy = deny_prefixes([topo.block_of(1)])

    def revert_bad():
        egp.import_policy = saved["import"]

    rollout = CanaryRollout(
        plane, name="egp-policy-broken",
        canary=RolloutStage("canary", ["B3"], apply_bad, revert_bad),
        fleet=RolloutStage(
            "fleet", ["B1", "B2"],
            lambda: None,   # never reached when the gate works
            lambda: None),
        hold_down=12.0,
        alarm_filter=lambda alert: (alert.rule == "agent-unreachable"
                                    and alert.target in victims),
        poll=0.5,
    )
    start_at = sim.now + 8.0
    sim.call_at(start_at, rollout.start, label="rollout.egp.start")
    sim.run(until=start_at + 60.0)
    plane.stop()
    out = rollout.to_dict()
    out["station"] = "H1"
    return out


# ----------------------------------------------------------------------
# The combined report
# ----------------------------------------------------------------------
def tables(report: RaceReport) -> list[Table]:
    card = report.scorecard
    fuzz = Table(f"'{report.name}': fuzz legs",
                 ["leg", "status", "injected", "violations"])
    for name, leg in sorted(card["fuzz"].items()):
        fuzz.add(name, "ok" if leg["ok"] else "FAIL", leg["injected"],
                 "; ".join(leg["violations"]) or "-")
    byzantine = Table("byzantine gateway: detection from golden signals",
                      ["behavior", "detected", "MTTD", "perturbed datagrams"])
    for record in card["behavior_detection"]:
        byzantine.add(record["behavior"],
                      "yes" if record["detected"] else "NOT DETECTED",
                      format_mttd(record["mttd"]), record["perturbed"])
    rollouts = Table("canary rollouts", ["rollout", "state", "MTTR"])
    for name, r in card["rollouts"].items():
        rollouts.add(name, r["state"],
                     "-" if r["mttr"] is None else f"{r['mttr']:.2f}s")
    return [fuzz, byzantine, rollouts]


def run_adversary_campaign(seed: int = 0) -> RaceReport:
    fuzz = {
        "tcp": _run_tcp_leg(seed),
        "session": _run_session_leg(seed),
        "netmgmt": _run_mgmt_leg(seed),
    }
    byzantine = _run_byzantine(seed)
    rollouts = {
        "tcp_good": _run_rollout_tcp(seed, broken=False),
        "tcp_broken": _run_rollout_tcp(seed, broken=True),
        "egp_broken": _run_rollout_egp(seed),
    }
    scorecard = {"fuzz": fuzz,
                 "behavior_detection": byzantine["behavior_detection"],
                 "rollouts": rollouts}
    return RaceReport(f"adversary[seed={seed}]",
                      {"byzantine": byzantine["report"]}, scorecard, tables)


def gates(report: RaceReport, size: str) -> list[str]:
    """The verdicts beyond the byzantine leg's ok/reconverged: no fuzz
    contract broken, every lie detected, the benign config promoted and
    no broken config ever reached the fleet."""
    card = report.scorecard
    failures = []
    for name, leg in sorted(card["fuzz"].items()):
        for violation in leg["violations"]:
            failures.append(f"fuzz[{name}]: {violation}")
    for record in card["behavior_detection"]:
        if not record["detected"]:
            failures.append(
                f"byzantine '{record['behavior']}' never detected by the "
                f"management plane (signatures {record['signatures']})")
    good = card["rollouts"]["tcp_good"]
    if good["state"] != "settled" or good["rolled_back_at"] is not None:
        failures.append(f"benign canary config did not promote cleanly "
                        f"(state {good['state']})")
    for name in ("tcp_broken", "egp_broken"):
        r = card["rollouts"][name]
        if r["promoted_at"] is not None:
            failures.append(f"rollout[{name}]: broken config reached the "
                            f"fleet (promoted before rollback)")
        if r["rolled_back_at"] is None:
            failures.append(f"rollout[{name}]: broken config never rolled "
                            f"back (state {r['state']})")
        elif r["mttr"] is None:
            failures.append(f"rollout[{name}]: rolled back but never "
                            f"verified healthy (state {r['state']})")
    return failures


def verdict(report: RaceReport) -> str:
    card = report.scorecard
    injected = sum(leg["injected"] for leg in card["fuzz"].values())
    mttds = " ".join(f"{r['behavior']}={r['mttd']:.1f}s"
                     for r in card["behavior_detection"])
    rollouts = card["rollouts"]
    return (f"{injected} adversarial exchanges absorbed, byzantine MTTD "
            f"{mttds}, canary MTTR tcp={rollouts['tcp_broken']['mttr']:.1f}s "
            f"egp={rollouts['egp_broken']['mttr']:.1f}s, "
            f"fleet never saw a broken config")
