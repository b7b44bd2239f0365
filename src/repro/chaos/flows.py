"""The three-way architecture race: datagram-FIFO vs hard-state VC vs
soft-state DRR flows, under one fault schedule.

Clark's closing outlook (§10) bets on a next-generation building block —
the *flow*, with its gateway state held **soft** ("the state ... can be
lost in a crash without permanent disruption of the service features
being used").  This campaign is that bet, scored:

* **fifo** — the 1988 datagram gateway: one queue, no flow state.  It
  survives every fault (nothing to lose) but at saturation voice drowns
  behind bulk.
* **vc** — the architecture the Internet rejected (:mod:`repro.vc`):
  per-conversation state in every switch.  Voice rides a placed call;
  when the gateway crashes, **the conversation dies** and must be
  re-placed from scratch.
* **drr** — the outlook: per-flow DRR scheduling with the voice flow's
  reservation installed/refreshed as soft state.  The crash loses the
  state, the flow *degrades*, and the very next refresh re-installs it —
  the :class:`FlowStateMonitor` turns that sentence into an invariant.

All three run the identical fault schedule (bottleneck flap, gateway
crash, far-side partition, bulk-host restart) on mirrored topologies; the
two datagram variants run the full invariant-monitor suite and the DRR
variant additionally carries the PR-5 management plane, whose
``flow-state-lost`` alarm gives an MTTD for lost reservations.  Same seed
⇒ byte-identical combined report.
"""

from __future__ import annotations

import struct
from typing import Optional

from ..apps.voice import VoiceCodec
from ..harness.flowtopo import (BOTTLENECK_BPS, FlowTopology, RecordingMeter,
                                build_flow_topology)
from ..harness.tables import Table
from ..netmgmt.alarms import RateRule
from ..netmgmt.campaign import ManagementPlane
from ..sim.engine import Simulator
from ..vc.network import VirtualCircuitNetwork
from .campaign import FaultCampaign
from .faults import GatewayCrash, HostRestart, LinkFlap, Partition
from .monitors import InvariantMonitor, default_monitors
from .report import CampaignReport, RaceReport

__all__ = ["FlowStateMonitor", "VcVoiceConversation", "run_flows_campaign",
           "gates", "verdict"]

# The shared fault schedule, relative to convergence (seconds).
FLAP_AT, FLAP_DWELL = 6.0, 3.0
CRASH_AT, CRASH_DWELL = 15.0, 4.0
PART_AT, PART_DWELL = 26.0, 3.0
RESTART_AT, RESTART_DWELL = 34.0, 4.0
DURATION = 45.0
RUN_UNTIL = 50.0
#: Clean saturation window: after the flap heals, before the crash.
SAT_WINDOW = (10.0, 15.0)


class FlowStateMonitor(InvariantMonitor):
    """Soft state must self-heal within one refresh interval.

    Tracks every :class:`~repro.flows.gateway.FlowGateway` in the net.
    When a ``gateway-crash`` fault clears, each reservation that was
    installed before the crash must be re-installed — same key, same
    weight, so the flow regains its reserved share on the next
    classification — within ``refresh_interval + grace`` seconds of the
    restore.  Anything slower means the endpoints' refresh discipline
    (or the gateway's install path) broke the paper's claim.
    """

    name = "soft-state-reinstalls"

    def __init__(self, refresh_interval: float, *, grace: float = 0.75):
        super().__init__()
        self.refresh_interval = refresh_interval
        self.grace = grace
        #: Successful re-installs: dicts with gateway/restored_at/delay.
        self.reinstalls: list[dict] = []
        self._gateways: list[tuple[str, object]] = []
        self._last_specs: dict[int, dict] = {}
        self._crashed: dict[int, list] = {}
        self._pending: list[dict] = []

    def attach(self, net, campaign) -> None:
        super().attach(net, campaign)
        self._gateways = [
            (name, fg)
            for name, node in sorted(net.nodes().items())
            for fg in node.flow_gateways
        ]
        self.sample()

    @staticmethod
    def _specs_of(fg) -> dict:
        return {spec.key: spec.weight for spec in fg.scheduler.installed_specs}

    def sample(self) -> None:
        for name, fg in self._gateways:
            if fg.node.up:
                self._last_specs[id(fg)] = self._specs_of(fg)
        self._check_pending(final=False)

    def on_fault_applied(self, fault) -> None:
        if getattr(fault, "kind", "") != "gateway-crash":
            return
        crashed = [(name, fg, self._last_specs.get(id(fg), {}))
                   for name, fg in self._gateways
                   if name == getattr(fault, "name", None)]
        if crashed:
            self._crashed[id(fault)] = crashed

    def on_fault_cleared(self, fault) -> None:
        for name, fg, expected in self._crashed.pop(id(fault), []):
            if not expected:
                continue
            now = self.net.sim.now
            self._pending.append({
                "gateway": name,
                "fg": fg,
                "expected": expected,
                "restored_at": now,
                "deadline": now + self.refresh_interval + self.grace,
            })

    def _check_pending(self, *, final: bool) -> None:
        if self.net is None:
            return
        now = self.net.sim.now
        still = []
        for entry in self._pending:
            current = self._specs_of(entry["fg"])
            missing = {key: weight
                       for key, weight in entry["expected"].items()
                       if current.get(key) != weight}
            if not missing:
                self.reinstalls.append({
                    "gateway": entry["gateway"],
                    "restored_at": entry["restored_at"],
                    "delay": round(now - entry["restored_at"], 6),
                })
            elif now > entry["deadline"]:
                self.violate(
                    f"{entry['gateway']}: {len(missing)} reservation(s) "
                    f"not re-installed within {self.refresh_interval:g}s "
                    f"(+{self.grace:g}s grace) of restore")
            elif not final:
                still.append(entry)
            # A still-pending entry at campaign end whose deadline has not
            # passed is undecided, not a violation.
        self._pending = still

    def finish(self) -> None:
        self._check_pending(final=True)


class VcVoiceConversation:
    """The voice conversation as the VC architecture would carry it.

    A placed call; frames sent at the codec rate whether or not the
    circuit is up (open-loop voice does not pause).  When the network
    tears the circuit down — its state died with a switch or trunk — the
    endpoint gets a disconnect and must redial.  Every frame emitted
    while there is no OPEN circuit is simply lost to the listener.
    """

    def __init__(self, sim: Simulator, vc: VirtualCircuitNetwork,
                 src: str, dst: str, *, duration: float,
                 deadline: float = 0.160, codec: VoiceCodec = VoiceCodec(),
                 redial_interval: float = 0.5):
        self.sim = sim
        self.vc = vc
        self.src = src
        self.dst = dst
        self.codec = codec
        self.redial_interval = redial_interval
        self.meter = RecordingMeter(deadline)
        self.conversations_died = 0
        self.redial_attempts = 0
        self.frames_refused = 0
        self.circuit = None
        self._seq = 0
        self._end = sim.now + duration
        self._place()
        self._emit()

    def _place(self) -> None:
        if self.sim.now >= self._end or self.circuit is not None:
            return
        circuit = self.vc.place_call(self.src, self.dst)
        if circuit is None:
            self.redial_attempts += 1
            self.sim.schedule(self.redial_interval, self._place,
                              label="vc:redial")
            return
        self.circuit = circuit
        circuit.on_data = self._arrive
        circuit.on_disconnect = self._died

    def _died(self) -> None:
        self.conversations_died += 1
        self.circuit = None
        self.sim.schedule(self.redial_interval, self._place,
                          label="vc:redial")

    def _arrive(self, data: bytes) -> None:
        (seq,) = struct.unpack("!I", data[:4])
        self.meter.received(seq, self.sim.now)

    def _emit(self) -> None:
        now = self.sim.now
        if now >= self._end:
            return
        self.meter.sent(self._seq, now)
        payload = struct.pack("!I", self._seq)
        payload += b"\x00" * (self.codec.frame_bytes - len(payload))
        if self.circuit is None or not self.circuit.send(payload):
            self.frames_refused += 1
        self._seq += 1
        self.sim.schedule(self.codec.interval, self._emit, label="vc:frame")

    def counters(self) -> dict:
        meter = self.meter
        stats = self.vc.stats
        return {
            "mode": "vc",
            "voice_frames_sent": meter.sent_count,
            "voice_frames_on_time": meter.on_time_count,
            "voice_usable_pct": meter.usable_pct(),
            "usable_saturation_pct": meter.usable_pct(*SAT_WINDOW),
            "frames_refused_no_circuit": self.frames_refused,
            "conversations_died": self.conversations_died,
            "redial_attempts": self.redial_attempts,
            "calls_placed": stats.calls_placed,
            "calls_connected": stats.calls_connected,
            "calls_refused": stats.calls_refused,
            "circuits_torn_down": stats.circuits_torn_down,
            "packets_lost_in_teardown": stats.packets_lost_in_teardown,
            "setup_messages": stats.setup_messages,
        }


def race_table(report: RaceReport) -> Table:
    table = Table(
        f"'{report.name}': voice under one fault schedule",
        ["discipline", "usable %", "at saturation %",
         "post-crash %", "conversation deaths"],
        note="post-crash = within one refresh interval of restore",
    )
    for key, label in (("fifo", "datagram FIFO"),
                       ("vc", "virtual circuit"),
                       ("drr", "soft-state DRR")):
        entry = report.scorecard[key]
        table.add(
            label,
            _fmt(entry.get("voice_usable_pct")),
            _fmt(entry.get("usable_saturation_pct")),
            _fmt(entry.get("usable_post_recovery_pct")),
            entry.get("conversations_died", 0),
        )
    return table


def tables(report: RaceReport) -> list[Table]:
    return [report.legs["drr"].fault_table(), race_table(report)]


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.1f}"


def _window_counters(topo: FlowTopology, t0: float, crash_clear: float) -> dict:
    meter = topo.meter
    out = topo.counters()
    out["usable_saturation_pct"] = meter.usable_pct(t0 + SAT_WINDOW[0],
                                                    t0 + SAT_WINDOW[1])
    # Voice share after the reborn gateway's next refresh window closes,
    # measured up to the partition fault.
    recovered_from = crash_clear + topo.refresh_interval + 0.5
    out["usable_post_recovery_pct"] = meter.usable_pct(recovered_from,
                                                        t0 + PART_AT)
    out["conversations_died"] = 0   # datagrams have no conversation to kill
    return out


def _reservation_loss_records(plane: ManagementPlane, faults) -> dict:
    """MTTD for lost reservations: first ``flow-state-lost`` raise after
    each gateway crash (detection is scrape-based, so it lands after the
    reborn gateway answers again)."""
    raises = [a for a in plane.bus.raises() if a.rule == "flow-state-lost"]
    records = []
    for fault in faults:
        if fault.kind != "gateway-crash" or fault.applied_at is None:
            continue
        end = (fault.cleared_at if fault.cleared_at is not None
               else float("inf")) + 15.0
        hits = [a.time for a in raises
                if fault.applied_at <= a.time <= end
                and a.target == fault.name]
        first = min(hits) if hits else None
        records.append({
            "gateway": fault.name,
            "applied_at": fault.applied_at,
            "detected_at": first,
            "mttd": (round(first - fault.applied_at, 6)
                     if first is not None else None),
        })
    return {
        "alarms_raised": len(raises),
        "per_crash": records,
        "detected": all(r["detected_at"] is not None for r in records),
    }


def _fault_schedule(topo: FlowTopology) -> list:
    t0 = topo.start_time
    return [
        LinkFlap(topo.bottleneck, t0 + FLAP_AT, FLAP_DWELL),
        GatewayCrash("G1", t0 + CRASH_AT, CRASH_DWELL),
        Partition({"G2", "S"}, t0 + PART_AT, PART_DWELL),
        HostRestart("B", t0 + RESTART_AT, RESTART_DWELL),
    ]


def _run_datagram_variant(seed: int, mode: str, *, reserve: bool,
                          managed: bool, observe: bool,
                          trace: bool) -> tuple[CampaignReport, dict]:
    topo = build_flow_topology(seed, mode=mode, reserve=reserve,
                               duration=DURATION, observe=observe,
                               trace=trace)
    t0 = topo.start_time
    faults = _fault_schedule(topo)
    monitors = default_monitors()
    monitor = None
    if mode == "drr" and reserve:
        monitor = FlowStateMonitor(topo.refresh_interval)
        monitors.append(monitor)
    campaign = FaultCampaign(topo.net, faults, monitors,
                             name=f"flows-{mode}[seed={seed}]")
    plane = None
    if managed:
        # unreachable_after=3: the G1 crash costs G3 a two-scrape routing
        # transient (G2 briefly poisons its G3 route); three misses
        # separates actually-severed nodes from collateral churn.
        plane = ManagementPlane(topo.net, station="S", interval=1.0,
                                unreachable_after=3)
        plane.add_rule(RateRule("flow-state-lost", "flows.state_losses",
                                ">", 0.0, window=12.0, hold_down=3.0))
        plane.start()
    report = campaign.run(until=t0 + RUN_UNTIL)
    if plane is not None:
        plane.stop()
        netmgmt = plane.counters(campaign.faults)
        netmgmt["reservation_loss"] = _reservation_loss_records(
            plane, campaign.faults)
        report.counters["netmgmt"] = netmgmt
    entry = _window_counters(topo, t0, faults[1].clear_time)
    if monitor is not None:
        entry["soft_state"] = {
            "refresh_interval_s": topo.refresh_interval,
            "reinstalls": monitor.reinstalls,
            "reinstalled_within_interval": (len(monitor.violations) == 0
                                            and len(monitor.reinstalls) >= 1),
        }
    report.counters["flows"] = entry
    return report, entry


def _run_vc_variant(duration: float = DURATION) -> dict:
    """The mirrored topology under the mirrored schedule, VC-style."""
    sim = Simulator()
    vc = VirtualCircuitNetwork(sim)
    for name in ("G1", "G2", "G3"):
        vc.add_switch(name)
    vc.add_trunk("G1", "G2", delay=0.005, bandwidth_bps=BOTTLENECK_BPS)
    vc.add_trunk("G1", "G3", delay=0.010, bandwidth_bps=1e6)
    vc.add_trunk("G3", "G2", delay=0.010, bandwidth_bps=1e6)
    vc.attach_host("V", "G1")
    vc.attach_host("S", "G2")
    conversation = VcVoiceConversation(sim, vc, "V", "S", duration=duration)

    sim.schedule(FLAP_AT, lambda: vc.fail_trunk("G1", "G2"),
                 label="vc:fault")
    sim.schedule(FLAP_AT + FLAP_DWELL,
                 lambda: vc.restore_trunk("G1", "G2"), label="vc:fault")
    sim.schedule(CRASH_AT, lambda: vc.fail_switch("G1"), label="vc:fault")
    sim.schedule(CRASH_AT + CRASH_DWELL,
                 lambda: vc.restore_switch("G1"), label="vc:fault")

    def _partition() -> None:
        vc.fail_trunk("G1", "G2")
        vc.fail_trunk("G3", "G2")

    def _heal() -> None:
        vc.restore_trunk("G1", "G2")
        vc.restore_trunk("G3", "G2")

    sim.schedule(PART_AT, _partition, label="vc:fault")
    sim.schedule(PART_AT + PART_DWELL, _heal, label="vc:fault")
    # (The bulk host's restart has no VC mirror: only the voice call holds
    # circuit state in this variant.)
    sim.run(until=RUN_UNTIL)
    out = conversation.counters()
    out["usable_post_recovery_pct"] = conversation.meter.usable_pct(
        CRASH_AT + CRASH_DWELL + 2.5, PART_AT)
    return out


def run_flows_campaign(seed: int = 7, *, trace: bool = False) -> RaceReport:
    """Run all three variants under the shared schedule; same seed ⇒
    byte-identical combined report.  The VC variant has no datagram
    campaign to report, so it is a scorecard entry, not a leg."""
    fifo_report, fifo_entry = _run_datagram_variant(
        seed, "fifo", reserve=False, managed=False, observe=False,
        trace=trace)
    drr_report, drr_entry = _run_datagram_variant(
        seed, "drr", reserve=True, managed=True, observe=True, trace=trace)
    scorecard = {
        "fifo": fifo_entry,
        "drr": drr_entry,
        "vc": _run_vc_variant(),
        "schedule": {
            "link_flap_at": FLAP_AT, "gateway_crash_at": CRASH_AT,
            "partition_at": PART_AT, "host_restart_at": RESTART_AT,
        },
    }
    return RaceReport(f"flows[seed={seed}]",
                      {"fifo": fifo_report, "drr": drr_report},
                      scorecard, tables)


def gates(report: RaceReport, size: str) -> list[str]:
    """The race verdicts beyond ok/reconverged: hard state died, soft
    state healed within one refresh, DRR protected voice at saturation,
    and the station saw both the crash and the lost reservation."""
    card = report.scorecard
    failures = []
    if card["vc"].get("conversations_died", 0) < 1:
        failures.append("VC conversation survived the gateway crash "
                        "(hard state should have died with the switch)")
    soft = card["drr"].get("soft_state", {})
    if not soft.get("reinstalled_within_interval", False):
        failures.append("soft-state reservation not re-installed within "
                        "one refresh interval of gateway restore")
    drr_sat = card["drr"].get("usable_saturation_pct")
    fifo_sat = card["fifo"].get("usable_saturation_pct")
    if drr_sat is None or fifo_sat is None or drr_sat <= fifo_sat:
        failures.append(f"DRR voice did not beat FIFO at saturation "
                        f"(drr={drr_sat} fifo={fifo_sat})")
    netmgmt = report.legs["drr"].counters.get("netmgmt", {})
    if not any(f.get("kind") == "gateway-crash" and f.get("detected")
               for f in netmgmt.get("per_fault", [])):
        failures.append("management plane never detected the gateway crash")
    if not netmgmt.get("reservation_loss", {}).get("detected", False):
        failures.append("flow-state-lost alarm never raised for the crash")
    return failures


def verdict(report: RaceReport) -> str:
    card = report.scorecard
    soft = card["drr"]["soft_state"]
    loss = report.legs["drr"].counters["netmgmt"]["reservation_loss"]
    return (f"VC died {card['vc']['conversations_died']}x, soft state "
            f"re-installed in {soft['reinstalls'][0]['delay']:.3f}s "
            f"(interval {soft['refresh_interval_s']:g}s), voice at "
            f"saturation drr={card['drr']['usable_saturation_pct']:.1f}% "
            f"vs fifo={card['fifo']['usable_saturation_pct']:.1f}%, "
            f"reservation-loss MTTD {loss['per_crash'][0]['mttd']:.3f}s")
