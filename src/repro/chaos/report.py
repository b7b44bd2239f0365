"""Campaign outcome records: what happened, how fast we recovered, and
every invariant violation with its trace excerpt.

Two shapes, and only two: :class:`CampaignReport` is one fault campaign
(one leg); :class:`RaceReport` is several named legs under one seed plus
the scorecard that compares them.

The report is the regression artifact: CI uploads it, the determinism test
asserts two identically-seeded campaigns produce *byte-identical* JSON, and
later scale PRs diff reconvergence times against it.  Serialization goes
through :mod:`repro.metrics.export` so the bytes are canonical.
"""

from __future__ import annotations

import pathlib
from typing import TYPE_CHECKING, Callable, Union

from ..harness.tables import Table
from ..metrics.export import canonical_json, write_json
from ..metrics.stats import Summary

if TYPE_CHECKING:  # pragma: no cover
    from .faults import Fault
    from .monitors import InvariantMonitor

__all__ = ["CampaignReport", "RaceReport"]


class CampaignReport:
    """Everything a chaos campaign measured, ready to export or render."""

    def __init__(
        self,
        name: str,
        faults: list["Fault"],
        monitors: list["InvariantMonitor"],
        counters: dict,
    ):
        self.name = name
        self.faults = faults
        self.monitors = monitors
        self.counters = dict(counters)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def violations(self) -> list:
        out = []
        for monitor in self.monitors:
            out.extend(monitor.violations)
        out.sort(key=lambda v: (v.time, v.monitor, v.detail))
        return out

    @property
    def violation_count(self) -> int:
        return sum(len(m.violations) for m in self.monitors)

    @property
    def ok(self) -> bool:
        """True when the campaign finished with zero invariant violations."""
        return self.violation_count == 0

    @property
    def all_reconverged(self) -> bool:
        """Every fault that cleared also saw reachability restored."""
        return all(f.reconverged_at is not None
                   for f in self.faults if f.cleared_at is not None)

    def reconvergence_summary(self) -> Summary:
        times = [f.reconvergence_time for f in self.faults
                 if f.reconvergence_time is not None]
        return Summary.of(times)

    @property
    def packets_lost_blackout(self) -> int:
        return sum(f.packets_lost_blackout for f in self.faults)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "campaign": self.name,
            "faults": [f.to_dict() for f in self.faults],
            "violations": [v.to_dict() for v in self.violations],
            "monitors": sorted(m.name for m in self.monitors),
            "counters": self.counters,
            "summary": {
                "fault_count": len(self.faults),
                "violation_count": self.violation_count,
                "all_reconverged": self.all_reconverged,
                "packets_lost_blackout": self.packets_lost_blackout,
                "reconvergence_mean": self.reconvergence_summary().mean,
                "reconvergence_max": self.reconvergence_summary().maximum,
                "reconvergence_stdev": self.reconvergence_summary().stdev,
            },
        }

    def to_json(self) -> str:
        """Canonical (byte-stable) JSON form."""
        return canonical_json(self.to_dict())

    def write(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        return write_json(path, self.to_dict())

    # ------------------------------------------------------------------
    # Rendering (harness tables, camera-ready style)
    # ------------------------------------------------------------------
    def fault_table(self) -> Table:
        table = Table(
            f"chaos campaign '{self.name}': faults",
            ["fault", "applied", "cleared", "reconverged",
             "recovery (s)", "lost in blackout"],
            note=f"{self.violation_count} invariant violation(s)",
        )
        for fault in self.faults:
            table.add(
                f"{fault.kind}: {fault.describe()}",
                "-" if fault.applied_at is None else f"{fault.applied_at:.3f}",
                "-" if fault.cleared_at is None else f"{fault.cleared_at:.3f}",
                "-" if fault.reconverged_at is None else f"{fault.reconverged_at:.3f}",
                "-" if fault.reconvergence_time is None
                else f"{fault.reconvergence_time:.3f}",
                fault.packets_lost_blackout,
            )
        return table

    def violation_table(self) -> Table:
        table = Table(
            f"chaos campaign '{self.name}': invariant violations",
            ["time", "monitor", "detail"],
        )
        for v in self.violations:
            table.add(f"{v.time:.3f}", v.monitor, v.detail)
        return table

    def render(self) -> str:
        parts = [self.fault_table().render()]
        if self.violation_count:
            parts.append(self.violation_table().render())
            for v in self.violations:
                if v.journey:
                    lines = [f"journey of offending packet "
                             f"({v.monitor} @ t={v.time:.3f}):"]
                    lines.extend(f"  {hop}" for hop in v.journey)
                    parts.append("\n".join(lines))
        return "\n\n".join(parts)

    def print(self) -> None:
        print()
        print(self.render())

    def __repr__(self) -> str:
        return (f"<CampaignReport '{self.name}' faults={len(self.faults)} "
                f"violations={self.violation_count} "
                f"reconverged={self.all_reconverged}>")


class RaceReport:
    """Named legs run under one seed, plus the scorecard that compares them.

    The one multi-leg report shape: ``legs`` maps leg name to that leg's
    :class:`CampaignReport` (insertion order is run order), ``scorecard``
    is the campaign's own canonicalizable verdict data, and ``tables`` is
    the campaign's ``report -> list[Table]`` rendering function.  The
    gates a CLI applies to a single campaign (``ok`` /
    ``all_reconverged``) fold over the legs.
    """

    def __init__(self, name: str, legs: dict[str, CampaignReport],
                 scorecard: dict,
                 tables: Callable[["RaceReport"], list[Table]]):
        self.name = name
        self.legs = legs
        self.scorecard = scorecard
        self.tables = tables

    @property
    def violation_count(self) -> int:
        return sum(leg.violation_count for leg in self.legs.values())

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    @property
    def all_reconverged(self) -> bool:
        return all(leg.all_reconverged for leg in self.legs.values())

    @property
    def faults(self) -> list["Fault"]:
        return [fault for leg in self.legs.values() for fault in leg.faults]

    @property
    def counters(self) -> dict:
        return {name: leg.counters for name, leg in self.legs.items()}

    def to_dict(self) -> dict:
        return {
            "campaign": self.name,
            "legs": {name: leg.to_dict() for name, leg in self.legs.items()},
            "scorecard": self.scorecard,
        }

    def to_json(self) -> str:
        """Canonical (byte-stable) JSON form."""
        return canonical_json(self.to_dict())

    def write(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        return write_json(path, self.to_dict())

    def render(self) -> str:
        parts = [table.render() for table in self.tables(self)]
        parts.extend(leg.violation_table().render()
                     for leg in self.legs.values() if leg.violation_count)
        return "\n\n".join(parts)

    def print(self) -> None:
        print()
        print(self.render())

    def __repr__(self) -> str:
        return (f"<RaceReport '{self.name}' legs={list(self.legs)} "
                f"violations={self.violation_count}>")
