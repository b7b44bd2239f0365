"""A labeled metrics registry: counters, gauges, log-bucket histograms.

The stack grew its accounting organically — every component keeps ad-hoc
counter attributes (``NodeStats``, ``LinkStats``, ``UdpStack.bad_segments``,
…) and every report hand-picks which to export via
:func:`repro.metrics.export.stats_dict`.  That keeps working; this registry
adds the production-shaped layer on top:

* **labeled instruments** — ``registry.counter("ip_drops", node="G1",
  reason="ttl")`` names a time series the way a real metrics system would,
  so fleet-wide questions ("drops by reason across all gateways") are one
  aggregation away instead of a hand-written loop per report;
* **fixed log-bucket histograms** — bounded memory, no per-sample
  retention, good-enough quantiles for dwell-time distributions;
* **a ``register(name, stats_obj)`` adapter** — existing stats objects are
  enrolled as-is and snapshot through :func:`stats_dict` at export time,
  so the ad-hoc counters gain a single labeled export path without any
  consumer of ``stats_dict`` changing;
* **near-zero disabled cost** — a disabled registry hands out one shared
  no-op instrument, so instrumented hot paths pay an attribute check and
  nothing else.

An instrument *is* its ``(name, labels)``; the ``name{k=v,...}`` series
string is how it is exported.  Lookups on the packet path key on the
structure (one tuple, one ``dict.get``) and the string is formatted once
per instrument per export.  Exports are canonicalizable dicts (sorted
label keys, stable series names), so same-seed runs serialize
byte-identically through :func:`repro.metrics.export.canonical_json`.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Optional

from ..metrics.export import stats_dict

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "default_buckets"]


def default_buckets(start: float = 1e-6, factor: float = 4.0,
                    count: int = 16) -> tuple[float, ...]:
    """Log-spaced bucket upper bounds: ``start * factor**i``.

    The default spans 1 µs .. ~1074 s in 16 buckets — wide enough for
    every dwell time the simulator produces, at a fixed 17-slot cost.
    """
    return tuple(start * factor ** i for i in range(count))


class Counter:
    """A monotonically increasing labeled counter."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A labeled point-in-time value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed log-bucket histogram: bounded memory, no per-sample retention.

    ``counts[i]`` counts observations ``<= bounds[i]``; the final slot is
    the overflow bucket.  ``sum``/``count`` give the exact mean; quantiles
    come from the bucket boundaries (upper-bound estimate).
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Optional[tuple[float, ...]] = None):
        self.bounds = tuple(bounds) if bounds is not None else default_buckets()
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q`` quantile (0 <= q <= 1)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0,1], got {q}")
        if self.count == 0:
            return 0.0
        rank = math.ceil(q * self.count)
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else math.inf
        return math.inf  # pragma: no cover - unreachable

    #: The canonical operator quantiles every consumer reports.
    DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

    def percentiles(self, qs: tuple = DEFAULT_QUANTILES) -> dict:
        """The standard operator view: ``{"p50": ..., "p95": ..., "p99": ...}``.

        One shared derivation of the bucket math, so the TSDB, the
        management CLI and the campaign reports never re-implement it
        (and can't disagree).  Keys are ``p<100q>`` with a stable textual
        form (``p99.9`` for q=0.999).  ``inf`` (overflow bucket) is
        returned as-is; callers exporting JSON go through
        :func:`repro.metrics.export.canonical_json`, which renders it
        canonically.
        """
        out = {}
        for q in qs:
            pct = q * 100.0
            key = f"p{pct:g}"
            out[key] = self.quantile(q)
        return out

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "buckets": {f"le_{b:.9g}": c
                        for b, c in zip(self.bounds, self.counts)},
            "overflow": self.counts[-1],
        }


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for a disabled registry."""

    __slots__ = ()
    value = 0
    count = 0
    sum = 0.0

    def inc(self, amount: int = 1) -> None: ...
    def set(self, value: float) -> None: ...
    def observe(self, value: float) -> None: ...
    def quantile(self, q: float) -> float: return 0.0
    def percentiles(self, qs: tuple = Histogram.DEFAULT_QUANTILES) -> dict:
        return {f"p{q * 100.0:g}": 0.0 for q in qs}


_NULL = _NullInstrument()


def _series(key: tuple) -> str:
    """Export name of the instrument keyed ``(name, labels)``:
    ``name{k=v,...}`` with sorted label keys."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Labeled instruments plus the ``register`` adapter for legacy stats.

    >>> reg = MetricsRegistry()
    >>> reg.counter("ip_drops", node="G1", reason="ttl").inc()
    >>> reg.register("node.G1", node.stats)   # stats_dict at export time
    >>> reg.to_dict()                         # canonicalizable snapshot
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        # Keyed (name, frozenset(labels.items())), in order of first use.
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        self._registered: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        key = (name, frozenset(labels.items()))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: str) -> Gauge:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        key = (name, frozenset(labels.items()))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(self, name: str,
                  bounds: Optional[tuple[float, ...]] = None,
                  **labels: str) -> Histogram:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        key = (name, frozenset(labels.items()))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(bounds)
        return inst

    # ------------------------------------------------------------------
    # Legacy-stats adapter
    # ------------------------------------------------------------------
    def register(self, name: str, stats_obj: Any) -> None:
        """Enroll an existing stats object (``NodeStats``, ``LinkStats``,
        a transport stack, …) under ``name``.

        The object is *not* copied or converted: it is snapshot through
        :func:`stats_dict` when the registry exports, so the component
        keeps mutating its ad-hoc counters exactly as before and every
        direct ``stats_dict`` consumer keeps working unchanged.

        ``stats_obj`` may also be a zero-arg callable (a *provider*)
        returning the object — or a ready dict — to snapshot; use this for
        stats whose identity changes over time (e.g. a reassembler that is
        recreated when its node crashes).
        """
        self._registered[name] = stats_obj

    @staticmethod
    def _snapshot(stats_obj: Any) -> dict:
        if callable(stats_obj):
            stats_obj = stats_obj()
        if isinstance(stats_obj, dict):
            return {k: v for k, v in stats_obj.items()
                    if isinstance(v, (bool, int, float, str, type(None)))}
        return stats_dict(stats_obj)

    def unregister(self, name: str) -> None:
        self._registered.pop(name, None)

    # ------------------------------------------------------------------
    # Aggregation / export
    # ------------------------------------------------------------------
    def counters(self, name: str):
        """``(labels, value)`` of every ``name`` counter, in order of
        first use; ``labels`` is a fresh dict."""
        for (series, labels), counter in self._counters.items():
            if series == name:
                yield dict(labels), counter.value

    def counter_total(self, name: str, **labels: str) -> int:
        """Sum of the ``name`` counters whose labels include ``labels``
        (all of them when none are given)."""
        wanted = labels.items()
        return sum(value for held, value in self.counters(name)
                   if wanted <= held.items())

    def to_dict(self) -> dict:
        """A canonicalizable snapshot of every instrument and every
        registered stats object (live values, taken now)."""
        return {
            "counters": {_series(k): c.value
                         for k, c in self._counters.items()},
            "gauges": {_series(k): g.value for k, g in self._gauges.items()},
            "histograms": {_series(k): h.to_dict()
                           for k, h in self._histograms.items()},
            "registered": {name: self._snapshot(obj)
                           for name, obj in self._registered.items()},
        }

    def table(self, *, limit: int = 0):
        """Counters rendered as a harness table (largest first)."""
        from ..harness.tables import Table
        table = Table("metrics registry: counters", ["series", "value"])
        rows = sorted(((_series(k), c.value) for k, c in self._counters.items()),
                      key=lambda row: (-row[1], row[0]))
        if limit:
            rows = rows[:limit]
        for series, value in rows:
            table.add(series, value)
        return table

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms) + len(self._registered))
