"""Discrete-event simulation engine.

This is the substrate on which the whole internetwork runs.  The paper's
system was a live testbed (ARPANET, SATNET, packet radio); here every
component — links, gateways, host protocol stacks, applications — is driven
by a single deterministic event scheduler so that experiments are exactly
repeatable.

The engine is deliberately small and explicit:

* :class:`Simulator` owns the clock and a binary-heap event queue.
* Heap entries are plain tuples ``(time, priority, seqno, payload, label)``
  so that heap comparisons run at C speed and never reach the payload
  (``seqno`` is unique).  ``payload`` is either a bare callable — a
  *fire-and-forget* event posted with :meth:`Simulator.post` /
  :meth:`Simulator.post_at`, which allocates nothing but the tuple — or an
  :class:`EventHandle` when the caller needs to cancel
  (:meth:`Simulator.schedule` / :meth:`Simulator.call_at`).
* The :meth:`Simulator.run` loop pops and fires inline (no per-event
  method call), batching same-timestamp runs through one tight cycle.

One handle class, two entry points: the overwhelming majority of events
(every packet hop on every medium) are never cancelled, so they need no
handle, no mutable record and no lazy-deletion bookkeeping — just a heap
tuple.  Cancellable timers (TCP RTO, routing periodics, reassembly) get an
:class:`EventHandle`, which is itself the heap payload: the one record
both the caller and the run loop look at.

Determinism rules
-----------------
Two events at the same timestamp fire in (priority, insertion-order).  All
randomness must come from :class:`repro.sim.rand.RandomStreams`, never from
the global :mod:`random` module, so that a seed fully determines a run.
"""

from __future__ import annotations

import heapq
import itertools
import math
from time import perf_counter
from typing import Callable, Optional

__all__ = ["EventHandle", "Simulator", "SimulationError"]

_INF = math.inf


class SimulationError(RuntimeError):
    """Raised for misuse of the simulator (e.g. scheduling in the past)."""


class EventHandle:
    """The record behind a *cancellable* event, returned by
    :meth:`Simulator.schedule`.

    Allows cancellation of a pending event; this is how protocol timers
    (TCP retransmission, routing periodic updates, soft-state timeouts) are
    implemented.  The handle is the heap payload itself; ordering lives in
    the heap tuple (time, priority, seqno), not here.
    """

    __slots__ = ("time", "action", "cancelled", "fired", "_sim")

    def __init__(self, time: float, action: Callable[[], None],
                 sim: "Simulator"):
        #: Absolute simulation time at which the event will fire.
        self.time = time
        self.action = action
        self.cancelled = False
        self.fired = False
        self._sim = sim

    @property
    def active(self) -> bool:
        """True while the event is pending (not fired and not cancelled).

        Fired state is tracked explicitly: an event that fired at
        ``time == sim.now`` is *not* active, even though its timestamp
        equals the clock.
        """
        return not self.cancelled and not self.fired

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired or was cancelled."""
        if self.fired or self.cancelled:
            return
        self.cancelled = True
        self._sim._note_cancelled()


class Simulator:
    """The discrete-event scheduler and simulation clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run(until=10.0)

    Parameters
    ----------
    trace:
        Optional callable ``(time, label) -> None`` invoked before every
        event fires; used by :mod:`repro.sim.trace` for debugging.
    """

    #: Don't bother compacting tiny queues; rebuild cost would dominate.
    COMPACT_MIN_QUEUE = 64

    def __init__(self, trace: Optional[Callable[[float, str], None]] = None):
        self._now = 0.0
        # Heap of (time, priority, seqno, payload, label); payload is a
        # bare callable (fire-and-forget) or an EventHandle (cancellable).
        self._queue: list[tuple] = []
        self._seq = itertools.count()
        self._trace = trace
        self._events_processed = 0
        self._running = False
        self._stop_requested = False
        self._cancelled_in_queue = 0
        self._compactions = 0
        #: Optional :class:`~repro.obs.profile.SimProfiler` (anything with
        #: ``record(label, wall_seconds)``).  When set, every fired event
        #: is timed and attributed to its label; when None (the default)
        #: the only cost is one ``is None`` check per event.
        self.profiler = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Count of events fired so far (diagnostic)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of *live* events still queued.

        Cancelled husks awaiting lazy deletion are excluded.  O(1): the
        simulator counts cancellations instead of scanning the heap.
        """
        return len(self._queue) - self._cancelled_in_queue

    @property
    def queue_size(self) -> int:
        """Physical heap size, cancelled husks included (diagnostic)."""
        return len(self._queue)

    @property
    def compactions(self) -> int:
        """How many times the heap has been rebuilt to shed husks."""
        return self._compactions

    # ------------------------------------------------------------------
    # Lazy-deletion compaction
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel` for a not-yet-fired event.

        When cancelled husks outnumber live events (more than half the
        queue), rebuild the heap without them so memory and pop cost track
        the *live* event count — timer-heavy workloads (TCP retransmission
        timers that almost always get cancelled) would otherwise accumulate
        husks without bound.
        """
        self._cancelled_in_queue += 1
        queue_len = len(self._queue)
        if (
            queue_len >= self.COMPACT_MIN_QUEUE
            and self._cancelled_in_queue * 2 > queue_len
        ):
            self._compact()

    def _compact(self) -> None:
        # In-place (slice assignment): run() holds a local alias to the
        # heap list, and compaction can trigger mid-run from a cancel
        # inside a fired action — rebinding would strand that alias.
        self._queue[:] = [
            entry for entry in self._queue
            if type(entry[3]) is not EventHandle or not entry[3].cancelled
        ]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # All four entry points validate with one chained comparison,
    # ``low <= value < inf``: False for NaN, for anything below ``low`` and
    # for +inf, at the cost of no call on the hot path.
    def _invalid(self, what: str, value: float) -> SimulationError:
        return SimulationError(
            f"invalid event {what} {value!r} at now={self._now}: must be "
            f"finite and not in the past")

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative and finite.  Returns a handle that can
        cancel the event.
        """
        if not 0 <= delay < _INF:
            raise self._invalid("delay", delay)
        return self.call_at(self._now + delay, action, priority=priority, label=label)

    def call_at(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` at an absolute simulation time."""
        if not self._now <= time < _INF:
            raise self._invalid("time", time)
        handle = EventHandle(time, action, self)
        heapq.heappush(self._queue,
                       (time, priority, next(self._seq), handle, label))
        return handle

    def post(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no handle.

        The hot-path variant for the overwhelming majority of events that
        are never cancelled (packet arrivals, transmissions, traffic
        ticks).  Costs one heap tuple; returns nothing.
        """
        if not 0 <= delay < _INF:
            raise self._invalid("delay", delay)
        heapq.heappush(self._queue,
                       (self._now + delay, priority, next(self._seq), action,
                        label))

    def post_at(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> None:
        """Fire-and-forget :meth:`call_at` (see :meth:`post`)."""
        if not self._now <= time < _INF:
            raise self._invalid("time", time)
        heapq.heappush(self._queue,
                       (time, priority, next(self._seq), action, label))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next event.  Returns False when the queue is dry."""
        queue = self._queue
        while queue:
            time, _priority, _seqno, payload, label = heapq.heappop(queue)
            if type(payload) is EventHandle:
                if payload.cancelled:
                    self._cancelled_in_queue -= 1
                    continue
                payload.fired = True
                action = payload.action
            else:
                action = payload
            self._now = time
            if self._trace is not None:
                self._trace(time, label)
            self._events_processed += 1
            profiler = self.profiler
            if profiler is None:
                action()
            else:
                t0 = perf_counter()
                action()
                profiler.record(label, perf_counter() - t0)
            return True
        return False

    def run(self, until: float = math.inf, max_events: int = 50_000_000) -> float:
        """Run until the queue empties, ``until`` is reached, or stop().

        Returns the simulation time at which the run ended.  Events scheduled
        exactly at ``until`` do fire; later ones remain queued.  At most
        ``max_events`` events fire: the limit is exact — if a further event
        is still due within ``until`` once it is reached,
        :class:`SimulationError` is raised.
        """
        self._running = True
        self._stop_requested = False
        fired = 0
        # Hot loop: everything bound locally, events fired inline (no
        # step() call per event).  Same-timestamp runs go through the same
        # tight cycle back to back — one pop, one fire, no re-entry.
        queue = self._queue
        heappop = heapq.heappop
        handle_t = EventHandle
        try:
            while queue and not self._stop_requested:
                head = queue[0]
                payload = head[3]
                if type(payload) is handle_t and payload.cancelled:
                    # Skip cancelled husks before peeking: a husk at the
                    # head with time <= until must not let a live event
                    # *beyond* ``until`` fire.
                    heappop(queue)
                    self._cancelled_in_queue -= 1
                    continue
                time = head[0]
                if time > until:
                    self._now = until if until != math.inf else self._now
                    break
                if fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
                heappop(queue)
                label = head[4]
                if type(payload) is handle_t:
                    payload.fired = True
                    action = payload.action
                else:
                    action = payload
                self._now = time
                if self._trace is not None:
                    self._trace(time, label)
                self._events_processed += 1
                fired += 1
                profiler = self.profiler
                if profiler is None:
                    action()
                else:
                    t0 = perf_counter()
                    action()
                    profiler.record(label, perf_counter() - t0)
            else:
                if until != math.inf and not self._stop_requested:
                    self._now = max(self._now, until)
        finally:
            self._running = False
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True
