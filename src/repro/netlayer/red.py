"""Random early detection — the gateway half of congestion control.

The architecture shipped congestion control as host *advice* (Source
Quench, §8 of the paper); by 1986 that advice was being ignored at scale
and the net collapsed.  RED is the gateway-side defense this repo's
collapse ecology races against FIFO: watch the *average* queue, and as it
climbs past a threshold start signalling a randomly-chosen fraction of
senders — by dropping their packet, or, when the sender declared itself
ECN-capable (ECT in the TOS byte), by marking it CE and letting it
through.  Random early signalling breaks the synchronized full-queue /
drop-tail pattern that punishes precisely the hosts that back off.

:class:`RedState` is pure queue-discipline math over (queue length, time):
no simulator, no interfaces — so the marking probability is unit-testable
at the threshold boundaries, and the same state fronts either discipline
of a link's transmitter: the drop-tail queue
(:meth:`~repro.netlayer.link.Medium.enable_red`) or, one state per flow,
each :class:`~repro.flows.scheduler.DrrScheduler` flow's own backlog.

Randomness comes from an injected ``random.Random`` stream; under a
seeded :class:`~repro.sim.rand.RandomStreams` stream the mark/drop
pattern is fully deterministic, which is what keeps same-seed collapse
campaigns byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RedParams", "RedState", "PASS", "MARK", "DROP"]

PASS = "pass"
MARK = "mark"
DROP = "drop"


@dataclass(frozen=True)
class RedParams:
    """RED knobs (Floyd & Jacobson 1993 defaults, scaled in packets).

    ``min_th``/``max_th`` bracket the average queue length (in packets)
    where early signalling ramps from probability 0 to ``max_p``; at or
    above ``max_th`` every arrival is signalled (and dropped even if
    ECT — a queue that far gone needs relief, not more marked packets).
    ``weight`` is the EWMA gain; small values see the *standing* queue
    through bursts.  ``idle_decay`` is the virtual per-packet drain time
    used to age the average across idle periods, so a queue that emptied
    long ago does not inherit a stale congested average.
    """

    min_th: float = 5.0
    max_th: float = 15.0
    max_p: float = 0.1
    weight: float = 0.2
    idle_decay: float = 0.05

    def __post_init__(self):
        if not 0 < self.weight <= 1:
            raise ValueError(f"weight must be in (0, 1], got {self.weight}")
        if self.min_th < 0 or self.max_th <= self.min_th:
            raise ValueError(
                f"need 0 <= min_th < max_th, got [{self.min_th}, {self.max_th}]")
        if not 0 < self.max_p <= 1:
            raise ValueError(f"max_p must be in (0, 1], got {self.max_p}")


class RedState:
    """One direction's RED average-queue state and verdict counters."""

    def __init__(self, params: RedParams, rng):
        self.params = params
        self.rng = rng
        self.avg = 0.0
        #: Packets admitted since the last signal (-1 below min_th), the
        #: uniformizer that spreads marks evenly instead of geometrically.
        self._count = -1
        self._idle_since: float | None = 0.0
        self.arrivals = 0
        self.early_marked = 0
        self.early_dropped = 0
        self.forced_dropped = 0

    # ------------------------------------------------------------------
    def _update_avg(self, queue_len: int, now: float) -> None:
        p = self.params
        if queue_len == 0:
            if self._idle_since is None:
                self._idle_since = now
            # Age the average as if empty-queue samples had arrived once
            # per idle_decay during the whole idle period.
            idle = max(0.0, now - self._idle_since)
            m = int(idle / p.idle_decay)
            if m > 0:
                self.avg *= (1.0 - p.weight) ** m
                self._idle_since = now
            self.avg = (1.0 - p.weight) * self.avg
        else:
            self._idle_since = None
            self.avg = (1.0 - p.weight) * self.avg + p.weight * queue_len

    def on_enqueue(self, queue_len: int, now: float, *,
                   ect: bool = False) -> str:
        """Verdict for one arrival seeing ``queue_len`` packets ahead.

        Returns :data:`PASS` (admit), :data:`MARK` (admit with CE — only
        ever returned for ``ect`` arrivals), or :data:`DROP`.
        """
        self.arrivals += 1
        self._update_avg(queue_len, now)
        p = self.params
        if self.avg < p.min_th:
            self._count = -1
            return PASS
        if self.avg >= p.max_th:
            # Gentle-less classic RED: past max_th everything drops, ECT
            # included — marking cannot shorten a queue this far gone.
            self._count = 0
            self.forced_dropped += 1
            return DROP
        self._count += 1
        pb = p.max_p * (self.avg - p.min_th) / (p.max_th - p.min_th)
        denom = 1.0 - self._count * pb
        pa = 1.0 if denom <= 0 else min(1.0, pb / denom)
        if self.rng.random() < pa:
            self._count = 0
            if ect:
                self.early_marked += 1
                return MARK
            self.early_dropped += 1
            return DROP
        return PASS

    # ------------------------------------------------------------------
    def counters(self) -> dict:
        return {
            "arrivals": self.arrivals,
            "early_marked": self.early_marked,
            "early_dropped": self.early_dropped,
            "forced_dropped": self.forced_dropped,
        }
