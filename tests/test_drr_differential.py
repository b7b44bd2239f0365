"""DRR as the link's discipline is differential against DRR in front of it.

``DrrScheduler`` used to be a second queue in front of the link with its
own serializer: a cancellable ``drr:serve`` timer per frame, metering at
its own copy of the ``tx_time`` formula, releasing through
``Interface.transmit_now``.  It is now the discipline of the link's
transmitter (``Medium.enable_drr``): the medium holds frames in it and
releases one the instant the serializer frees.  The parent scheduler and
its ``transmit_now`` release are kept here verbatim as the oracle, in
front of the parent ``PointToPointLink`` (``test_link_differential``).

Random programs — bursts from four flows of mixed sizes (two of them one
implicit flow told apart only by port), frames posted to land on the very
instant the serializer frees, reservations installed, refreshed and
expired with backlog behind them, crashes and restores, per-flow RED on or
off, time advancing — run on an oracle world and a live world side by
side, link up, and must agree with ``==`` after every step: far-end
arrivals with their times, journey drops with reasons and details, link
spans, ``on_queue_drop`` calls, ``SchedulerStats``, both ``LinkStats``,
RED counters and the RED stream's state.

The one place the live code may differ is marked ``LISTED EXCEPTION``: a
crash's flush keeps the frame already on the wire, and the live medium
releases the next frame only when that one is clocked out, where the
parent's scheduler (its serve timer killed) released into the busy link
at once.  A restore therefore comes at least one frame time after the
crash here; ``test_flows`` pins the live behaviour inside that window.
"""

import random
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.flows.flowspec import FlowSpec, flow_key_of
from repro.flows.scheduler import DrrScheduler
from repro.ip.address import Address, Prefix
from repro.ip.packet import PROTO_TCP, PROTO_UDP, TOS_CE, TOS_ECT, Datagram
from repro.netlayer.link import Interface, PointToPointLink, _obs_of
from repro.netlayer.red import DROP, MARK, RedParams, RedState
from repro.sim.engine import Simulator
from test_link_differential import OraclePointToPointLink

PREFIX = Prefix.parse("10.0.1.0/24")
DST = Address("10.0.9.9")


# ----------------------------------------------------------------------
# The oracle: the parent scheduler and its release path, verbatim
# (docstrings trimmed)
# ----------------------------------------------------------------------
class OracleInterface(Interface):
    scheduler = None

    def output(self, datagram, next_hop=None) -> None:
        if self.medium is None:
            raise RuntimeError(f"interface {self.name} not attached")
        if self.scheduler is not None:
            self.scheduler.enqueue(datagram, next_hop)
            return
        self.medium.transmit(self, datagram, next_hop)

    def transmit_now(self, datagram, next_hop=None) -> None:
        if self.medium is None:
            raise RuntimeError(f"interface {self.name} not attached")
        self.medium.transmit(self, datagram, next_hop)


@dataclass
class OracleStats:
    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    flushed: int = 0
    migrated: int = 0
    bytes_sent: int = 0


@dataclass
class _OracleFlowQueue:
    key: tuple
    weight: int = 1
    reserved: bool = False
    queue: deque = field(default_factory=deque)
    deficit: int = 0
    packets: int = 0
    drops: int = 0
    red: object = None


class OracleDrrScheduler:
    def __init__(self, sim, iface, service_rate_bps, *, mode="drr",
                 quantum=600, per_flow_limit=32, default_weight=1,
                 frame_overhead=None):
        if mode not in ("drr", "fifo"):
            raise ValueError(f"unknown scheduler mode {mode!r}")
        self.sim = sim
        self.iface = iface
        self.rate = service_rate_bps
        if frame_overhead is None:
            frame_overhead = getattr(iface.medium, "FRAME_OVERHEAD", 0) or 0
        self.frame_overhead = frame_overhead
        self.mode = mode
        self.quantum = quantum
        self.per_flow_limit = per_flow_limit
        self.default_weight = default_weight
        self.stats = OracleStats()
        self._flows = {}
        self._round = deque()
        self._specs = []
        self._busy = False
        self._epoch = 0
        self._head_topped = None
        self._red_factory = None
        iface.scheduler = self

    def enable_red(self, red_factory) -> None:
        self._red_factory = red_factory

    def install_spec(self, spec) -> None:
        self._specs = [s for s in self._specs if s.key != spec.key]
        self._specs.append(spec)
        flow = self._flows.get(spec.key)
        if flow is not None:
            flow.weight = spec.weight
            flow.reserved = True
        if self.mode == "fifo":
            return
        implicit = self._flows.get((int(spec.src), int(spec.dst),
                                    spec.protocol))
        if implicit is None or not implicit.queue or implicit is flow:
            return
        if flow is None:
            flow = _OracleFlowQueue(key=spec.key, weight=spec.weight,
                                    reserved=True)
            self._flows[spec.key] = flow
        kept = deque()
        moved = 0
        for datagram, next_hop in implicit.queue:
            if spec.matches(datagram):
                flow.queue.append((datagram, next_hop))
                moved += 1
            else:
                kept.append((datagram, next_hop))
        implicit.queue = kept
        if moved:
            implicit.packets -= moved
            flow.packets += moved
            self.stats.migrated += moved
            if flow.key not in self._round:
                self._round.append(flow.key)

    def remove_spec(self, spec_key) -> None:
        self._specs = [s for s in self._specs if s.key != spec_key]
        flow = self._flows.get(spec_key)
        if flow is None:
            return
        flow.weight = self.default_weight
        flow.reserved = False
        if self.mode == "fifo" or not flow.queue or len(spec_key) < 4:
            return
        implicit_key = spec_key[:3]
        implicit = self._flows.get(implicit_key)
        if implicit is None:
            implicit = _OracleFlowQueue(key=implicit_key,
                                        weight=self.default_weight)
            self._flows[implicit_key] = implicit
        moved = len(flow.queue)
        implicit.queue.extend(flow.queue)
        flow.queue.clear()
        flow.deficit = 0
        implicit.packets += moved
        flow.packets -= moved
        self.stats.migrated += moved
        if implicit_key not in self._round:
            self._round.append(implicit_key)

    @property
    def installed_specs(self):
        return list(self._specs)

    def _classify(self, datagram):
        if self.mode == "fifo":
            key = ("fifo",)
            weight, reserved = 1, False
        else:
            key, weight, reserved = None, self.default_weight, False
            for spec in self._specs:
                if spec.matches(datagram):
                    key, weight, reserved = spec.key, spec.weight, True
                    break
            if key is None:
                key = flow_key_of(datagram)
        flow = self._flows.get(key)
        if flow is None:
            flow = _OracleFlowQueue(key=key, weight=weight, reserved=reserved)
            self._flows[key] = flow
        return flow

    def enqueue(self, datagram, next_hop) -> None:
        flow = self._classify(datagram)
        if self._red_factory is not None:
            if flow.red is None:
                flow.red = self._red_factory(flow.key)
            verdict = flow.red.on_enqueue(
                len(flow.queue), self.sim.now,
                ect=bool(datagram.tos & TOS_ECT))
            if verdict == DROP:
                flow.drops += 1
                self.stats.dropped += 1
                self._drop(datagram, "drop-red-early", flow.key, notify=True)
                return
            if verdict == MARK:
                datagram.tos |= TOS_CE
        if len(flow.queue) >= self.per_flow_limit:
            flow.drops += 1
            self.stats.dropped += 1
            self._drop(datagram, "drop-flow-queue-full", flow.key, notify=True)
            return
        flow.queue.append((datagram, next_hop))
        flow.packets += 1
        self.stats.enqueued += 1
        if len(flow.queue) == 1 and flow.key not in self._round:
            self._round.append(flow.key)
        if not self._busy:
            self._serve_next()

    def _drop(self, datagram, reason, flow_key, *, notify=False) -> None:
        obs = _obs_of(self.iface)
        node = self.iface.node
        if obs is not None and node is not None:
            obs.drop(self.sim.now, node.name, reason, datagram,
                     f"{self.iface.name} flow={flow_key}")
        if notify:
            self.iface.stats.packets_dropped_queue += 1
            if self.iface.on_queue_drop is not None:
                self.iface.on_queue_drop(datagram)

    def _serve_next(self, epoch=None) -> None:
        if epoch is not None and epoch != self._epoch:
            return
        selected = self._select()
        if selected is None:
            self._busy = False
            return
        datagram, next_hop = selected
        self._busy = True
        self.stats.dequeued += 1
        length = datagram.total_length
        self.stats.bytes_sent += length
        self.iface.transmit_now(datagram, next_hop)
        tx_time = (length + self.frame_overhead) * 8.0 / self.rate
        self.sim.schedule(
            tx_time,
            lambda epoch=self._epoch: self._serve_next(epoch),
            label="drr:serve")

    def flush(self) -> int:
        flushed = 0
        for flow in self._flows.values():
            while flow.queue:
                datagram, _next_hop = flow.queue.popleft()
                flow.drops += 1
                flushed += 1
                self._drop(datagram, "drop-flow-flush", flow.key)
            flow.deficit = 0
        self._round.clear()
        self._head_topped = None
        self._busy = False
        self._epoch += 1
        self.stats.flushed += flushed
        return flushed

    def _select(self) -> Optional[tuple]:
        guard = 0
        while self._round and guard < 10_000:
            guard += 1
            key = self._round[0]
            flow = self._flows.get(key)
            if flow is None or not flow.queue:
                self._round.popleft()
                if flow is not None:
                    flow.deficit = 0
                if self._head_topped == key:
                    self._head_topped = None
                continue
            head_size = flow.queue[0][0].total_length
            if self.mode == "fifo":
                return flow.queue.popleft()
            if self._head_topped != key:
                flow.deficit += self.quantum * flow.weight
                self._head_topped = key
            if flow.deficit >= head_size:
                flow.deficit -= head_size
                item = flow.queue.popleft()
                if not flow.queue:
                    flow.deficit = 0
                    self._round.popleft()
                    self._head_topped = None
                return item
            self._round.rotate(-1)
            self._head_topped = None
        return None

    @property
    def queued_packets(self) -> int:
        return sum(len(f.queue) for f in self._flows.values())

    def red_counters(self) -> dict:
        totals = {}
        for flow in self._flows.values():
            if flow.red is None:
                continue
            for key, value in flow.red.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def flow_stats(self):
        return {k: (f.packets, f.drops) for k, f in self._flows.items()}


# ----------------------------------------------------------------------
# Two worlds, one program
# ----------------------------------------------------------------------
class Host:
    """Stands in for the Node at one end, and for its observability: what
    is handed up, and every journey drop and link span recorded."""

    enabled = True

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.obs = self
        self.arrivals = []
        self.drops = []
        self.spans = []

    def datagram_arrived(self, datagram, iface) -> None:
        self.arrivals.append((self.sim.now, datagram.ident, datagram.tos))

    def drop(self, time, node, reason, datagram, detail="") -> None:
        if type(detail) is tuple:   # rendered on read, as the span store does
            detail = detail[0] % detail[1:]
        self.drops.append((time, node, reason, datagram.ident, detail))

    def link_hop(self, time, node, datagram, queue_wait, serialization,
                 propagation, detail="") -> None:
        self.spans.append((time, node, datagram.ident, queue_wait,
                           serialization, propagation, detail))


#: (source, protocol, destination port): flows 0 and 1 are one implicit
#: flow (same source, destination, protocol) told apart only by port.
FLOWS = [(Address("10.0.1.10"), PROTO_UDP, 5004),
         (Address("10.0.1.10"), PROTO_UDP, 6000),
         (Address("10.0.1.11"), PROTO_UDP, 5004),
         (Address("10.0.1.12"), PROTO_TCP, 80)]
#: Reservations: one per flow, plus an any-port spec over flows 0 and 1.
SPECS = [(FLOWS[0][0], PROTO_UDP, 5004), (FLOWS[0][0], PROTO_UDP, 0),
         (FLOWS[2][0], PROTO_UDP, 5004), (FLOWS[3][0], PROTO_TCP, 80)]


def datagram_of(ident, flow, size, ect) -> Datagram:
    src, protocol, port = FLOWS[flow]
    payload = ((4000 + flow).to_bytes(2, "big") + port.to_bytes(2, "big")
               + bytes(max(0, size - 4)))[:size]
    return Datagram(src=src, dst=DST, protocol=protocol, payload=payload,
                    ident=ident, tos=TOS_ECT if ect else 0)


class World:
    def __init__(self, live, *, bandwidth_bps, delay, quantum,
                 per_flow_limit, red, seed):
        self.sim = Simulator()
        self.near, self.far = Host(self.sim, "A"), Host(self.sim, "B")
        cls = Interface if live else OracleInterface
        self.ia = cls("a0", PREFIX.host(1), PREFIX)
        self.ib = cls("b0", PREFIX.host(2), PREFIX)
        self.ia.node, self.ib.node = self.near, self.far
        self.queue_drops = []
        self.ia.on_queue_drop = lambda d: self.queue_drops.append(
            (self.sim.now, d.ident))
        link_cls = PointToPointLink if live else OraclePointToPointLink
        self.link = link_cls(self.sim, self.ia, self.ib,
                             bandwidth_bps=bandwidth_bps, delay=delay)
        if live:
            self.sched = DrrScheduler(self.ia, quantum=quantum,
                                      per_flow_limit=per_flow_limit)
        else:
            self.sched = OracleDrrScheduler(
                self.sim, self.ia, bandwidth_bps, mode="drr",
                quantum=quantum, per_flow_limit=per_flow_limit)
        self.rng = random.Random(seed)
        self.crashed = False
        if red is not None:
            min_th, span, max_p, weight = red
            params = RedParams(min_th=min_th, max_th=min_th + span,
                               max_p=max_p, weight=weight)
            self.sched.enable_red(lambda key: RedState(params, self.rng))

    def send(self, ident, flow, size, ect) -> None:
        if not self.crashed:    # a crashed node's output goes nowhere
            self.ia.output(datagram_of(ident, flow, size, ect))

    def crash(self, dwell) -> None:
        """What FlowGateway does when its node crashes, then the node
        staying down for ``dwell``."""
        self.sched.flush()
        for spec in self.sched.installed_specs:
            self.sched.remove_spec(spec.key)
        self.crashed = True
        self.sim.run(until=self.sim.now + dwell)
        self.crashed = False

    def snapshot(self) -> tuple:
        sched = self.sched
        return (self.sim.now, self.far.arrivals, self.near.drops,
                self.near.spans, self.queue_drops, asdict(sched.stats),
                asdict(self.ia.stats), asdict(self.ib.stats),
                sched.red_counters(), sched.flow_stats(),
                sched.queued_packets,
                [(s.key, s.weight) for s in sched.installed_specs],
                self.rng.getstate())


def run_program(worlds, program) -> None:
    for index, step in enumerate(program):
        op = step[0]
        for world in worlds:
            if op == "send":
                flow, size, ect, count = step[1:]
                for j in range(count):
                    world.send(index * 16 + j, flow, size, ect)
            elif op == "post":
                # Lands on a later instant, queued ahead of whatever the
                # link posts for that instant meanwhile: with exact frame
                # times, the instant a release is due.
                world.sim.post(step[1], lambda w=world, i=index * 16, s=step:
                               w.send(i, *s[2:]))
            elif op == "advance":
                world.sim.run(until=world.sim.now + step[1])
            elif op == "install":
                src, protocol, port = SPECS[step[1]]
                world.sched.install_spec(FlowSpec(
                    src, DST, protocol, port, weight=step[2]))
            elif op == "remove":
                src, protocol, port = SPECS[step[1]]
                world.sched.remove_spec(
                    (int(src), int(DST), protocol, port))
            else:
                # LISTED EXCEPTION: restore no sooner than the frame on
                # the wire at the crash is clocked out.
                world.crash(step[1])
        first = worlds[0].snapshot()
        assert worlds[1].snapshot() == first, step
    for world in worlds:
        world.sim.run(until=world.sim.now + 60.0)
    assert worlds[1].snapshot() == worlds[0].snapshot(), "drain"


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
#: Frames of 64-byte multiples (size + 20 + 8) beside arbitrary sizes: at
#: 65,536 b/s their frame times are exact multiples of 1/128 s, so posted
#: arrivals can tie a release to the bit.
TIE_SIZES = st.sampled_from([36, 100, 228, 484, 996, 1444])
SIZES = st.one_of(TIE_SIZES, st.sampled_from([0, 3]), st.integers(0, 1480))
FLOW = st.integers(0, len(FLOWS) - 1)
SEND = st.tuples(st.just("send"), FLOW, SIZES, st.booleans(),
                 st.sampled_from([1, 1, 2, 3, 4]))
POST = st.tuples(st.just("post"),
                 st.sampled_from([1 / 128, 2 / 128, 3 / 128, 4 / 128,
                                  8 / 128, 0.0103]),
                 FLOW, SIZES, st.booleans())
STEP = st.one_of(
    SEND, SEND, SEND, POST, POST,
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 1e-6, 1 / 128, 3 / 128, 0.0103, 0.25,
                               0.3, 2.0])),
    st.tuples(st.just("install"), st.integers(0, len(SPECS) - 1),
              st.integers(1, 4)),
    st.tuples(st.just("remove"), st.integers(0, len(SPECS) - 1)),
    # The longest frame takes 0.215 s at 56 kb/s.
    st.tuples(st.just("crash"), st.sampled_from([0.25, 1.0])))
#: A frame posted k frame times ahead, then a burst of k + 1 64-byte
#: frames: at 65,536 b/s it lands on the instant a release is due, with a
#: frame still held.
TIE = st.builds(
    lambda k, posted, burst: [("post", k / 128, posted, 36, False),
                              ("send", burst, 36, False, k + 1)],
    st.integers(1, 3), FLOW, FLOW)
PROGRAMS = st.lists(st.one_of(STEP.map(lambda step: [step]), TIE),
                    min_size=1, max_size=40).map(
    lambda chunks: [step for chunk in chunks for step in chunk])
RED = st.one_of(st.none(), st.tuples(
    st.sampled_from([0.0, 1.0, 2.0]), st.sampled_from([2.0, 4.0]),
    st.sampled_from([0.1, 0.5, 1.0]), st.sampled_from([0.2, 1.0])))
#: The oracle link still applies its 64-frame limit to released frames;
#: these rates and delays keep even 28-byte frames below it in flight.
WIRE = dict(bandwidth_bps=st.sampled_from([65_536.0, 65_536.0, 56_000.0,
                                           300_000.0, 1e6 / 3]),
            delay=st.sampled_from([0.0, 0.005, 0.0103]),
            quantum=st.sampled_from([64, 600, 1500]),
            per_flow_limit=st.integers(1, 12))


@settings(max_examples=400, deadline=None)
@given(program=PROGRAMS, red=RED,
       seed=st.integers(0, 9), **WIRE)
def test_drr_discipline_matches_the_scheduler_in_front(program, **kwargs):
    worlds = [World(live, **kwargs) for live in (False, True)]
    run_program(worlds, program)


#: Hand-written programs for what a random one reaches rarely, on
#: 65,536 b/s: a 36-byte payload is a 64-byte frame, 1/128 s on the wire.
WALKS = {
    # A frame posted for the instant the serializer frees fires before the
    # release due then: it joins the round, it does not jump it.
    "tie": [("post", 2 / 128, 2, 36, False), ("send", 0, 36, False, 3),
            ("advance", 1.0)],
    # Two backlogged flows: one quantum per tenure at the head.
    "quantum": [("send", 2, 228, False, 4), ("send", 3, 228, False, 4),
                ("advance", 1.0)],
    # Reservations over a backlog, refusals, a crash and what follows.
    "reserve": [
        ("send", 0, 228, False, 1), ("send", 1, 484, True, 1),
        ("send", 2, 36, False, 1), ("send", 3, 996, False, 1),
        ("send", 0, 100, True, 1),
        ("install", 0, 3),            # migrates flow 0's backlog out
        ("send", 0, 228, False, 1), ("send", 1, 3, False, 1),
        ("install", 0, 2),            # refresh
        ("post", 3 / 128, 2, 228, False), ("post", 5 / 128, 0, 100, False),
        ("advance", 3 / 128),
        ("install", 1, 4),            # any-port spec: flow 1's backlog
        ("remove", 0),                # flow 0's backlog back to implicit
        ("send", 2, 1444, True, 10),  # over the per-flow limit
        ("advance", 0.05),
        ("crash", 0.25),
        ("send", 3, 0, False, 1), ("send", 1, 100, False, 1),
        ("advance", 2.0)],
}


def test_hand_written_walks():
    """Each walk, RED off and on, so a shrunk hypothesis database is not
    the only thing that reaches the tie, the quantum rule, migration,
    refusal and flush."""
    for program in WALKS.values():
        for red in (None, (0.0, 2.0, 1.0, 1.0)):
            worlds = [World(live, bandwidth_bps=65_536.0, delay=0.005,
                            quantum=600, per_flow_limit=4, red=red, seed=3)
                      for live in (False, True)]
            run_program(worlds, program)
    stats = worlds[1].sched.stats
    assert stats.migrated and stats.flushed and stats.dropped
