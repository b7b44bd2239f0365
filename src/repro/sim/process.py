"""Timer and periodic-process helpers built on the event engine.

Protocol machinery is full of restartable timers (TCP RTO, zero-window
probes, routing periodic updates, soft-state refresh).  These helpers give
each of those one obvious implementation instead of ad-hoc handle juggling.
"""

from __future__ import annotations

from typing import Callable, Optional

from .engine import EventHandle, Simulator

__all__ = ["Timer", "PeriodicProcess"]


class Timer:
    """A single restartable one-shot timer.

    The callback fires once per :meth:`start`; calling :meth:`start` while
    running reschedules (restarts) it.  This matches the semantics protocol
    specs assume for retransmission timers.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None],
                 label: str = "timer"):
        self._sim = sim
        self._callback = callback
        self._label = label
        self._handle: Optional[EventHandle] = None

    @property
    def running(self) -> bool:
        # The handle is dropped when the timer fires or stops, and nothing
        # else holds it, so a held handle is a pending one.
        return self._handle is not None

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute expiry time, or None when not running."""
        return self._handle.time if self.running else None

    def start(self, delay: float) -> None:
        """(Re)start the timer to fire ``delay`` seconds from now."""
        if self._handle is not None:
            self._handle.cancel()
        self._handle = self._sim.schedule(delay, self._fire, label=self._label)

    def stop(self) -> None:
        """Cancel the timer if pending."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()


class PeriodicProcess:
    """Invokes a callback every ``interval`` seconds, with optional jitter.

    Routing protocols jitter their periodic updates to avoid
    synchronization; pass ``jitter_fn`` returning a per-cycle offset
    (typically drawn from a :class:`~repro.sim.rand.RandomStreams` stream).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        *,
        jitter_fn: Optional[Callable[[], float]] = None,
        label: str = "periodic",
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._jitter_fn = jitter_fn
        self._label = label
        self._handle: Optional[EventHandle] = None
        self._stopped = True

    @property
    def running(self) -> bool:
        return not self._stopped

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Begin firing; first fire after ``initial_delay`` (default: one
        interval, plus jitter).  Calling it while running restarts the one
        timer chain from now; it never adds a second."""
        self.stop()
        self._stopped = False
        delay = initial_delay if initial_delay is not None else self._next_delay()
        self._handle = self._sim.schedule(delay, self._fire, label=self._label)

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _next_delay(self) -> float:
        delay = self.interval
        if self._jitter_fn is not None:
            delay = max(1e-9, delay + self._jitter_fn())
        return delay

    def _fire(self) -> None:
        if self._stopped:
            return
        self._handle = None
        self._callback()
        # The callback may have stopped the process, or restarted it (then
        # the next fire is already scheduled).
        if not self._stopped and self._handle is None:
            self._handle = self._sim.schedule(
                self._next_delay(), self._fire, label=self._label
            )
