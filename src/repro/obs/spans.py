"""Hop spans: the per-packet journey record.

Clark ranks *distributed management* and *accountability* among the goals
the 1988 architecture under-served: gateways forward datagrams, but nobody
can say where a packet spent its time or why it died.  A :class:`HopSpan`
is the missing record — one observation of a datagram at one node (or on
one link), carrying the dwell-time breakdown the stovepipe never exposed:

* ``queue_wait`` — seconds spent waiting for the transmitter;
* ``serialization`` — seconds clocking the bits onto the wire;
* ``propagation`` — seconds in flight (distance + jitter);
* ``verdict`` — what the node decided: ``originated``, ``forwarded``,
  ``delivered``, ``redirect-advised``, or a ``drop-*`` reason
  (``drop-ttl``, ``drop-no-route``, ``drop-queue``, ``drop-link-down``,
  ``drop-node-down``, ``drop-df``, ``drop-reassembly-timeout``, …).

Spans for one trace id, ordered by time, are the packet's *journey* — the
artifact a chaos invariant violation attaches so the report can name the
exact path and dwell times of the offending packet, end to end.

Recording and reading are priced separately, because nearly every journey
is evicted unread.  The :class:`SpanStore` holds a span as a plain row —
the nine :class:`HopSpan` fields as a tuple, its detail possibly still an
unrendered ``(format, *args)`` — and builds ``HopSpan`` objects only when
somebody asks for a journey or an export (DESIGN §10, "The per-span
budget").

The store is bounded per net: when more than ``max_traces`` distinct trace
ids are held, whole oldest journeys are evicted (counted), so steady-state
traffic cannot grow memory without bound.
"""

from __future__ import annotations

import json
import pathlib
from collections import OrderedDict
from dataclasses import astuple, dataclass
from typing import Iterable, Optional, Union

__all__ = ["HopSpan", "SpanStore"]


@dataclass(frozen=True)
class HopSpan:
    """One observation of a traced datagram at one hop."""

    trace_id: int
    time: float
    node: str
    kind: str        # "origin" | "link" | "forward" | "deliver" | "drop"
    verdict: str     # forwarding verdict or drop reason
    detail: str = ""
    queue_wait: float = 0.0
    serialization: float = 0.0
    propagation: float = 0.0

    @property
    def dwell(self) -> float:
        """Total seconds this hop accounted for."""
        return self.queue_wait + self.serialization + self.propagation

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "time": round(self.time, 9),
            "node": self.node,
            "kind": self.kind,
            "verdict": self.verdict,
            "detail": self.detail,
            "queue_wait": round(self.queue_wait, 9),
            "serialization": round(self.serialization, 9),
            "propagation": round(self.propagation, 9),
        }

    def describe(self) -> str:
        """One human-readable journey line (node, verdict, dwell times)."""
        parts = [f"t={self.time:.6f}", self.node or "?", self.verdict]
        if self.dwell > 0.0:
            parts.append(f"wait={self.queue_wait * 1e3:.3f}ms")
            parts.append(f"tx={self.serialization * 1e3:.3f}ms")
            parts.append(f"prop={self.propagation * 1e3:.3f}ms")
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)


def _span(row: tuple) -> HopSpan:
    """The readable form of one stored row (renders a deferred detail)."""
    detail = row[5]
    if type(detail) is tuple:
        row = (*row[:5], detail[0] % detail[1:], *row[6:])
    return HopSpan(*row)


class SpanStore:
    """Bounded per-net store of hop spans, grouped by trace id.

    Eviction is journey-granular and oldest-first (insertion order of the
    trace id), which keeps every *retained* journey complete — a journey
    with holes would mis-attribute where the packet spent its time.  Trace
    ids are allocated monotonically, so the newest evicted id is all it
    takes to recognise a span that arrives after its journey was evicted
    (a datagram parked in a queue, a reassembly timeout): it is refused and
    counted as ``spans_late`` instead of evicting a complete journey to
    resurrect a headless one.
    """

    #: Safety valve: a single pathological journey (e.g. a forwarding loop)
    #: stops accumulating spans past this length; the overflow is counted.
    MAX_SPANS_PER_TRACE = 256

    def __init__(self, max_traces: int = 4096):
        if max_traces < 1:
            raise ValueError(f"max_traces must be at least 1, got {max_traces}")
        self.max_traces = max_traces
        self._journeys: "OrderedDict[int, list[tuple]]" = OrderedDict()
        self._newest_evicted = 0
        self.spans_recorded = 0
        self.traces_evicted = 0
        self.spans_truncated = 0
        self.spans_late = 0

    def record(self, trace_id: int, time: float, node: str, kind: str,
               verdict: str, detail: Union[str, tuple] = "",
               queue_wait: float = 0.0, serialization: float = 0.0,
               propagation: float = 0.0) -> None:
        """Store one span as a row: the hot entry point, called positionally.

        ``detail`` is a ``str`` or a ``(format, *args)`` tuple that is
        rendered with ``%`` only when the span is read.  The args must be
        *values captured at record time* — ints, ``str``, the never-mutated
        ``Address`` — and never the ``Datagram`` itself, whose ``ttl`` and
        ``tos`` keep changing after the hook returns: a row that held the
        datagram would describe where the packet ended up, not what this
        hop saw.
        """
        journey = self._journeys.get(trace_id)
        if journey is None:
            if trace_id <= self._newest_evicted:
                self.spans_late += 1
                return
            if len(self._journeys) >= self.max_traces:
                self._newest_evicted = self._journeys.popitem(last=False)[0]
                self.traces_evicted += 1
            journey = self._journeys[trace_id] = []
        if len(journey) >= self.MAX_SPANS_PER_TRACE:
            self.spans_truncated += 1
            return
        journey.append((trace_id, time, node, kind, verdict, detail,
                        queue_wait, serialization, propagation))
        self.spans_recorded += 1

    def append(self, span: HopSpan) -> None:
        """Store an already-built :class:`HopSpan`."""
        self.record(*astuple(span))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def journey(self, trace_id: int) -> list[HopSpan]:
        """Every span recorded for ``trace_id``, in recording order."""
        return [_span(row) for row in self._journeys.get(trace_id, ())]

    def journey_lines(self, trace_id: int) -> list[str]:
        """The journey rendered as human-readable hop lines."""
        return [span.describe() for span in self.journey(trace_id)]

    def trace_ids(self) -> list[int]:
        """Retained trace ids, oldest first."""
        return list(self._journeys)

    def __len__(self) -> int:
        return len(self._journeys)

    def __iter__(self) -> Iterable[HopSpan]:
        for journey in self._journeys.values():
            yield from map(_span, journey)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl_lines(self, trace_id: Optional[int] = None) -> list[str]:
        """Spans as compact JSON lines (one span per line, journey order).

        Key order is fixed and floats are rounded, so same-seed runs
        export byte-identical JSONL.
        """
        spans = self.journey(trace_id) if trace_id is not None else iter(self)
        return [json.dumps(span.to_dict(), sort_keys=True,
                           separators=(",", ":"))
                for span in spans]

    def export_jsonl(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write every retained span to ``path`` as JSONL."""
        path = pathlib.Path(path)
        lines = self.to_jsonl_lines()
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    def counters(self) -> dict:
        """Scalar store health counters (embeddable in reports)."""
        return {
            "traces_held": len(self._journeys),
            "spans_recorded": self.spans_recorded,
            "traces_evicted": self.traces_evicted,
            "spans_truncated": self.spans_truncated,
            "spans_late": self.spans_late,
        }
