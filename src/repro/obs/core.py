"""The observability bundle: trace contexts + spans + metrics + profile.

One :class:`Observability` object per :class:`~repro.harness.topology.Internet`
ties the three surfaces together:

* **trace contexts** — every datagram is stamped with a cheap,
  monotonically allocated trace id at origination (it rides the
  ``Datagram.trace_id`` field, surviving fragmentation and reassembly
  because fragments are ``copy()``-derived), and each hop records one row
  in the bounded per-net :class:`~repro.obs.spans.SpanStore`, which
  builds :class:`~repro.obs.spans.HopSpan` objects when a journey is read;
* **metrics** — a :class:`~repro.obs.registry.MetricsRegistry` holding
  labeled counters/histograms plus every component's ad-hoc stats object
  enrolled through the ``register`` adapter;
* **profiling** — a :class:`~repro.obs.profile.SimProfiler` installed on
  the simulator attributes wall time and event counts per component.

Cost discipline: every hook in the packet path is guarded by
``obs is not None and obs.enabled``; with no Observability installed the
stack pays one attribute load per guard, and with it installed but
*disabled* one extra boolean check (gated at <=1.05x by
``benchmarks/bench_obs.py``).  Enabled, a span costs two Python frames
here — the hook method and :meth:`SpanStore.record` — and nothing is
formatted until it is read (DESIGN §10, "The per-span budget").

Determinism: trace ids are allocated in event order, spans record only
simulation time, and :meth:`snapshot` exports only sim-deterministic
values (wall-clock profile times are excluded), so same-seed campaign
reports with observability embedded stay byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from .profile import SimProfiler
from .registry import MetricsRegistry
from .spans import HopSpan, SpanStore

if TYPE_CHECKING:  # pragma: no cover
    from ..ip.node import Node
    from ..ip.packet import Datagram

__all__ = ["Observability"]


class Observability:
    """Per-internet observability state and the hot-path recording API."""

    def __init__(self, *, enabled: bool = True, max_traces: int = 4096,
                 profile: bool = True):
        self.enabled = enabled
        self.spans = SpanStore(max_traces=max_traces)
        self._record = self.spans.record
        self.registry = MetricsRegistry(enabled=enabled)
        self._queue_wait = None  # the link dwell histogram, once used
        self.profiler: Optional[SimProfiler] = SimProfiler() if profile else None
        self._next_id = 1
        self._sim = None  # set by install(); lets enable/disable swap the profiler

    # ------------------------------------------------------------------
    # Enable / disable (the <=5% knob)
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True
        self.registry.enabled = True
        if self._sim is not None and self.profiler is not None:
            self._sim.profiler = self.profiler

    def disable(self) -> None:
        """Switch all recording off; instrumented paths drop to a couple
        of attribute checks per packet.  The simulator profiler is
        detached too — otherwise every event would keep paying two
        ``perf_counter`` calls, which alone busts the 5% gate."""
        self.enabled = False
        self.registry.enabled = False
        if self._sim is not None:
            self._sim.profiler = None

    # ------------------------------------------------------------------
    # Trace contexts
    # ------------------------------------------------------------------
    @property
    def trace_ids_allocated(self) -> int:
        return self._next_id - 1

    # ------------------------------------------------------------------
    # Span recording (hot path).  The caller's guard is the one place
    # ``enabled`` is checked: these record whenever they are called.
    # ``detail`` follows the :meth:`SpanStore.record` rule — a ``str`` or
    # a ``(format, *args)`` of values captured now, never the datagram.
    # ------------------------------------------------------------------
    def origin(self, time: float, node: str, datagram: "Datagram",
               detail: Union[str, tuple] = "") -> None:
        """Stamp ``datagram`` with the next trace id (monotonic, allocated
        in event order) and open its journey.  One step, so a journey
        always enters the store at its origin and in id order — what lets
        the store tell a late span from a new journey."""
        tid = datagram.trace_id = self._next_id
        self._next_id = tid + 1
        self._record(tid, time, node, "origin", "originated", detail)

    def hop(self, time: float, node: str, kind: str, verdict: str,
            datagram: "Datagram", detail: Union[str, tuple] = "") -> None:
        """Append one span to the datagram's journey (no-op untraced)."""
        tid = datagram.trace_id
        if tid:
            self._record(tid, time, node, kind, verdict, detail)

    def drop(self, time: float, node: str, reason: str,
             datagram: "Datagram", detail: Union[str, tuple] = "") -> None:
        """Record a drop verdict span *and* bump the labeled drop counter
        (the accountability ledger of why packets die, per node)."""
        self.registry.counter("ip_drops", node=node, reason=reason).inc()
        tid = datagram.trace_id
        if tid:
            self._record(tid, time, node, "drop", reason, detail)

    def link_hop(self, time: float, node: str, datagram: "Datagram",
                 queue_wait: float, serialization: float,
                 propagation: float, detail: Union[str, tuple] = "") -> None:
        """Record a transmission span with the dwell-time breakdown."""
        tid = datagram.trace_id
        if tid:
            self._record(tid, time, node, "link", "transmitted", detail,
                         queue_wait, serialization, propagation)
        histogram = self._queue_wait
        if histogram is None:
            # Looked up on the first transmission, not at construction: an
            # instrument exists in the export only once something used it.
            histogram = self._queue_wait = self.registry.histogram(
                "link_queue_wait_seconds")
        histogram.observe(queue_wait)

    # ------------------------------------------------------------------
    # Journey queries
    # ------------------------------------------------------------------
    def journey(self, trace_id: int) -> list[HopSpan]:
        return self.spans.journey(trace_id)

    def journey_lines(self, trace_id: int) -> list[str]:
        return self.spans.journey_lines(trace_id)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, net) -> None:
        """Hook into a built :class:`~repro.harness.topology.Internet`:
        profiler onto the simulator, obs reference onto every node, and
        every component's stats enrolled in the registry."""
        net.obs = self
        self._sim = net.sim
        if self.profiler is not None and self.enabled:
            net.sim.profiler = self.profiler
        for endpoint in list(net.hosts.values()) + list(net.gateways.values()):
            self.attach_endpoint(endpoint)

    def attach_endpoint(self, endpoint) -> None:
        """Attach one Host/Gateway wrapper (node + transport stacks)."""
        node = endpoint.node if hasattr(endpoint, "node") else endpoint
        self.attach_node(node)
        tcp = getattr(endpoint, "tcp", None)
        if tcp is not None:
            self.registry.register(f"tcp.{node.name}", tcp)
        udp = getattr(endpoint, "udp", None)
        if udp is not None:
            self.registry.register(f"udp.{node.name}", udp)

    def attach_node(self, node: "Node") -> None:
        """Give ``node`` its obs reference and enroll its stat surfaces.

        Interface and route-table counters are enrolled as *providers*
        (zero-arg callables) so interfaces attached after installation,
        and reassemblers recreated by :meth:`~repro.ip.node.Node.crash`,
        are still seen at export time.
        """
        node.obs = self
        reg = self.registry
        reg.register(f"node.{node.name}", node.stats)
        reg.register(f"routes.{node.name}",
                     lambda node=node: node.routes.counters())
        reg.register(f"reassembly.{node.name}",
                     lambda node=node: node.reassembler.stats)
        reg.register(
            f"ifaces.{node.name}",
            lambda node=node: {
                f"{iface.name}.{key}": value
                for iface in node.interfaces
                for key, value in sorted(vars(iface.stats).items())
            })
        reg.register(
            f"flows.{node.name}",
            lambda node=node: {
                f"{fg.scheduler.iface.name}.{key}": value
                for fg in node.flow_gateways
                for key, value in sorted(fg.counters().items())
            })

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Sim-deterministic observability snapshot for canonical reports.

        Includes span-store health, trace allocation, the full metrics
        registry, and the profiler's *event counts* — never its wall
        times, which differ between hosts and would break the same-seed
        byte-identity guarantee.
        """
        out = {
            "trace_ids_allocated": self.trace_ids_allocated,
            "spans": self.spans.counters(),
            "metrics": self.registry.to_dict(),
        }
        if self.profiler is not None:
            out["profile_events"] = self.profiler.event_counts()
        return out
