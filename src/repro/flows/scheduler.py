"""Per-flow packet scheduling at a gateway's outbound interface.

The 1988 gateway was a pure FIFO — the link's own drop-tail queue; the
paper's "flows" outlook implies gateways that give identified flows
differentiated treatment.  The scheduler here implements deficit round
robin (a practical weighted fair queueing) over per-flow queues.

It is the *discipline* of the interface's transmitter, not a second data
path: the medium hands it every admitted frame
(:meth:`~repro.netlayer.link.Medium.enable_drr`) and releases its pick the
instant the serializer frees.  What lives here is soft state about
classification — which queue a frame waits in and whose turn is next.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..ip.address import Address
from ..ip.packet import TOS_CE, TOS_ECT, Datagram
from ..netlayer.link import Interface
from ..netlayer.red import DROP, MARK
from .flowspec import FlowSpec, flow_key_of

__all__ = ["DrrScheduler", "SchedulerStats"]


@dataclass
class SchedulerStats:
    """Queueing outcomes per scheduler."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    flushed: int = 0
    migrated: int = 0
    bytes_sent: int = 0


@dataclass
class _FlowQueue:
    """One flow's queue and DRR accounting."""

    key: tuple
    weight: int = 1
    reserved: bool = False
    queue: deque = field(default_factory=deque)  # (datagram, next_hop)
    deficit: int = 0
    packets: int = 0
    drops: int = 0
    red: object = None  # per-flow RedState when the scheduler runs RED


class DrrScheduler:
    """Deficit-round-robin discipline of one interface's transmitter.

    Parameters
    ----------
    quantum:
        Bytes of credit per weight unit per round.
    per_flow_limit:
        Maximum queued packets per flow.
    """

    def __init__(
        self,
        iface: Interface,
        *,
        quantum: int = 600,
        per_flow_limit: int = 32,
        default_weight: int = 1,
    ):
        self.iface = iface
        self.sim = iface.medium.sim
        self.quantum = quantum
        self.per_flow_limit = per_flow_limit
        self.default_weight = default_weight
        self.stats = SchedulerStats()
        self._flows: dict[tuple, _FlowQueue] = {}
        self._round: deque = deque()      # active flow keys
        self._specs: list[FlowSpec] = []
        #: Key of the flow whose once-per-visit quantum has been granted
        #: for its current tenure at the head of the round.
        self._head_topped: Optional[tuple] = None
        #: Optional per-flow RED factory consulted before admission
        #: (see :meth:`enable_red`).
        self._red_factory = None
        iface.medium.enable_drr(iface, self)

    def enable_red(self, red_factory) -> None:
        """Run RED over each flow's *own* backlog (FRED-style).

        ``red_factory(flow_key)`` must return a fresh
        :class:`~repro.netlayer.red.RedState` the first time a flow is
        seen; every later arrival of that flow is offered to its own
        state with its own queue length.  Early signals mark ECN-capable
        datagrams CE and drop the rest, before the per-flow limit is
        consulted.

        Per-flow state is deliberate: with one aggregate average, an
        unresponsive flow parked at its queue limit would keep the
        average high and the *responsive* flows would absorb the marks —
        the classic RED unfairness.  Here DRR isolates service rates and
        RED keeps each flow's standing queue short on its own merits.
        """
        self._red_factory = red_factory

    # ------------------------------------------------------------------
    # Classification state (installed by the soft-state agent)
    # ------------------------------------------------------------------
    def install_spec(self, spec: FlowSpec) -> None:
        """Recognize a reserved flow (idempotent refresh).

        Packets of this flow that arrived *before* the reservation sit in
        the implicit ``flow_key_of()`` queue; they are migrated into the
        spec's queue so one flow never straddles two queues — left split,
        DRR would interleave the two queues and reorder the flow.
        """
        self._specs = [s for s in self._specs if s.key != spec.key]
        self._specs.append(spec)
        flow = self._flows.get(spec.key)
        if flow is not None:
            flow.weight = spec.weight
            flow.reserved = True
        implicit = self._flows.get((int(spec.src), int(spec.dst),
                                    spec.protocol))
        if implicit is None or not implicit.queue or implicit is flow:
            return
        if flow is None:
            flow = _FlowQueue(key=spec.key, weight=spec.weight,
                              reserved=True)
            self._flows[spec.key] = flow
        kept: deque = deque()
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

    def remove_spec(self, spec_key: tuple) -> None:
        """Soft-state expiry: the flow falls back to best-effort weight.

        The inverse migration of :meth:`install_spec`: whatever is still
        queued under the spec's key moves back to the implicit key that
        future packets of this flow will classify to.
        """
        self._specs = [s for s in self._specs if s.key != spec_key]
        flow = self._flows.get(spec_key)
        if flow is None:
            return
        flow.weight = self.default_weight
        flow.reserved = False
        if not flow.queue or len(spec_key) < 4:
            return
        implicit_key = spec_key[:3]
        implicit = self._flows.get(implicit_key)
        if implicit is None:
            implicit = _FlowQueue(key=implicit_key,
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
    def installed_specs(self) -> list[FlowSpec]:
        return list(self._specs)

    def _classify(self, datagram: Datagram) -> _FlowQueue:
        key, weight, reserved = None, self.default_weight, False
        for spec in self._specs:
            if spec.matches(datagram):
                key, weight, reserved = spec.key, spec.weight, True
                break
        if key is None:
            key = flow_key_of(datagram)
        flow = self._flows.get(key)
        if flow is None:
            flow = _FlowQueue(key=key, weight=weight, reserved=reserved)
            self._flows[key] = flow
        return flow

    # ------------------------------------------------------------------
    # Hold / release (called by the medium)
    # ------------------------------------------------------------------
    def enqueue(self, datagram: Datagram, next_hop: Optional[Address]) -> bool:
        """Hold an admitted frame in its flow's queue; False when per-flow
        RED or the flow's limit refuses it."""
        flow = self._classify(datagram)
        if self._red_factory is not None:
            if flow.red is None:
                flow.red = self._red_factory(flow.key)
            verdict = flow.red.on_enqueue(
                len(flow.queue), self.sim.now,
                ect=bool(datagram.tos & TOS_ECT))
            if verdict == DROP:
                self._refuse(datagram, flow, "drop-red-early")
                return False
            if verdict == MARK:
                datagram.tos |= TOS_CE
        if len(flow.queue) >= self.per_flow_limit:
            self._refuse(datagram, flow, "drop-flow-queue-full")
            return False
        flow.queue.append((datagram, next_hop))
        flow.packets += 1
        self.stats.enqueued += 1
        if len(flow.queue) == 1 and flow.key not in self._round:
            self._round.append(flow.key)
        return True

    def _refuse(self, datagram: Datagram, flow: _FlowQueue,
                reason: str) -> None:
        """A congestion drop: the interface's queue-drop machinery (drop
        counter + ``on_queue_drop`` hook) fires as for a tail drop, so a
        :class:`~repro.ip.quench.SourceQuencher` watching this interface
        is not blind behind a scheduler."""
        flow.drops += 1
        self.stats.dropped += 1
        self.iface.notify_queue_drop(
            datagram, reason, ("%s flow=%s", self.iface.name, flow.key))

    def flush(self, reason: str = "drop-flow-flush") -> int:
        """Drop everything held; returns the number of packets flushed.

        Called when the owning node crashes (its queues die with it, and
        the next release finds nothing to send) and, with
        ``drop-link-down``, when the medium goes down.  Silent: a crashing
        node must not advise anyone, so no ``on_queue_drop``.
        """
        flushed = 0
        for flow in self._flows.values():
            while flow.queue:
                datagram, _next_hop = flow.queue.popleft()
                flow.drops += 1
                flushed += 1
                self.iface.record_drop(
                    datagram, reason, ("%s flow=%s", self.iface.name, flow.key))
            flow.deficit = 0
        self._round.clear()
        self._head_topped = None
        self.stats.flushed += flushed
        return flushed

    def dequeue(self) -> Optional[tuple]:
        """DRR selection: rotate flows, spending deficit credit; the
        ``(datagram, next_hop)`` to serialize next, or None."""
        # Each iteration pops an empty flow, returns a packet, or rotates
        # after granting one per-visit quantum — so every flow is reached;
        # the guard is a backstop against a zero-quantum misconfiguration.
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
            # Grant the quantum exactly once per tenure at the head.
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
                self.stats.dequeued += 1
                self.stats.bytes_sent += head_size
                return item
            # This visit's credit is spent: move to the back of the round.
            self._round.rotate(-1)
            self._head_topped = None
        return None

    # ------------------------------------------------------------------
    @property
    def queued_packets(self) -> int:
        return sum(len(f.queue) for f in self._flows.values())

    def red_counters(self) -> dict:
        """Summed RED outcomes across every flow's state (empty when RED
        is not enabled)."""
        totals: dict = {}
        for flow in self._flows.values():
            if flow.red is None:
                continue
            for key, value in flow.red.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def flow_stats(self) -> dict[tuple, tuple[int, int]]:
        """Per-flow (packets served, drops) for experiment tables."""
        return {k: (f.packets, f.drops) for k, f in self._flows.items()}
