"""Simulator profiling: wall-time and event-count attribution.

Every event the engine fires carries a ``label`` ("tcp:rto", "link:G1<->G2",
"chaos:probe", …).  With a :class:`SimProfiler` installed on the
:class:`~repro.sim.engine.Simulator`, each firing is timed and attributed
to its label and to its *component* (the label prefix before ``:``), so a
run can answer "where did the wall-clock go?" per subsystem — the
cost-accounting view goal 7 (accountability) never had.

Attribution costs two ``perf_counter`` calls per event when installed and a
single ``is None`` check when not; benchmarks run with it off.

Wall-times are host-dependent and therefore *excluded* from canonical
report artifacts; event counts are deterministic and exportable.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["SimProfiler"]


class SimProfiler:
    """Accumulates per-label and per-component event counts and wall time."""

    def __init__(self):
        self._by_label: dict[str, list] = {}   # label -> [count, wall]

    def record(self, label: str, wall: float) -> None:
        """Called by the engine after each fired event (hot: keep cheap —
        the per-label pair is all it stores; totals are sums over it)."""
        entry = self._by_label.get(label)
        if entry is None:
            entry = self._by_label[label] = [0, 0.0]
        entry[0] += 1
        entry[1] += wall

    @property
    def events(self) -> int:
        """Events fired while installed."""
        return sum(count for count, _ in self._by_label.values())

    @property
    def wall(self) -> float:
        """Wall seconds spent inside those events."""
        return sum(wall for _, wall in self._by_label.values())

    # ------------------------------------------------------------------
    @staticmethod
    def _component(label: str) -> str:
        if not label:
            return "(unlabeled)"
        return label.split(":", 1)[0]

    def by_component(self) -> dict[str, tuple[int, float]]:
        """component -> (events fired, wall seconds)."""
        out: dict[str, list] = {}
        for label, (count, wall) in self._by_label.items():
            comp = self._component(label)
            entry = out.setdefault(comp, [0, 0.0])
            entry[0] += count
            entry[1] += wall
        return {k: (c, w) for k, (c, w) in out.items()}

    def by_handler(self) -> dict[str, tuple[int, float]]:
        """Full label -> (events fired, wall seconds)."""
        return {k: (c, w) for k, (c, w) in self._by_label.items()}

    # ------------------------------------------------------------------
    def table(self, *, per_handler: bool = False, limit: int = 0):
        """The profile as a harness table, biggest wall-time first."""
        from ..harness.tables import Table
        data = self.by_handler() if per_handler else self.by_component()
        unit = "handler" if per_handler else "component"
        table = Table(
            f"simulator profile by {unit}",
            [unit, "events", "wall (ms)", "mean (us)", "share"],
            note=f"{self.events} events, {self.wall * 1e3:.1f} ms total",
        )
        rows = sorted(data.items(), key=lambda kv: (-kv[1][1], kv[0]))
        if limit:
            rows = rows[:limit]
        total = self.wall or 1.0
        for name, (count, wall) in rows:
            table.add(name, count, wall * 1e3,
                      wall / count * 1e6 if count else 0.0,
                      f"{wall / total * 100:.1f}%")
        return table

    def event_counts(self) -> dict[str, int]:
        """Deterministic per-component event counts (safe to embed in
        canonical artifacts; wall-times are not)."""
        return {comp: count
                for comp, (count, _) in sorted(self.by_component().items())}

    def clear(self) -> None:
        self._by_label.clear()
