"""Packet-journey observability: trace contexts, hop spans, metrics,
simulator profiling.

The layer the 1988 architecture never had (goal 7, accountability; goal 4,
distributed management): stamp every datagram with a trace id at
origination, record a span at every hop (queue wait, serialization,
propagation, forwarding verdict), keep labeled metrics with near-zero
disabled cost, and attribute simulator wall time per component.

Entry points:

* ``net.observe()`` on an :class:`~repro.harness.topology.Internet`
  installs an :class:`Observability` bundle across the whole stack;
* ``python -m repro.chaos --campaign observed`` runs a seeded chaos
  campaign with observability on and dumps the journey/metrics/profile
  report.
"""

from .core import Observability
from .profile import SimProfiler
from .registry import Counter, Gauge, Histogram, MetricsRegistry, default_buckets
from .routing import (
    ConvergenceTracer,
    PathProbeResponder,
    PathProber,
    ProbeDecodeError,
    ProbeMesh,
    RouteChurnLedger,
    attach_route_ledger,
    forwarding_path,
)
from .spans import HopSpan, SpanStore

__all__ = [
    "Observability",
    "SimProfiler",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "default_buckets",
    "HopSpan",
    "SpanStore",
    "RouteChurnLedger",
    "attach_route_ledger",
    "forwarding_path",
    "PathProber",
    "PathProbeResponder",
    "ProbeMesh",
    "ConvergenceTracer",
    "ProbeDecodeError",
]
