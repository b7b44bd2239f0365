"""Conservative-lookahead parallel simulation, sharded at the AS seam.

The paper's internet is "a network of networks" administered by different
entities (goal 4); the simulator exploits exactly that seam for parallelism.
Each autonomous system (or group of them) becomes a *shard*: an independent
:class:`~repro.sim.engine.Simulator` carrying the AS's gateways, hosts,
links and IGP.  Shards touch only at inter-AS links, and an inter-AS link
has irreducible latency — a packet handed to it at time *t* cannot affect
the far side before ``t + delay``.  That latency is the classic
*conservative lookahead* window of parallel discrete-event simulation
(Chandy/Misra/Bryant): every shard may safely run ``W = min inter-AS
delay`` ahead of the barrier without waiting, because nothing a peer emits
in the current window can arrive inside it (serialization time is strictly
positive, so arrivals land strictly beyond ``T + W``).

Execution alternates compute windows and message barriers::

    while T < until:
        T' = min(T + W, until)
        deliver to each shard every pending cross-shard message with
            arrival <= T'   (all were emitted before T, so none is late)
        run every shard to T'                      (parallel, no contact)
        drain each shard's outbox; merge deterministically
        T = T'

Cross-shard links are *conduits*: the egress half (:class:`ConduitPort`)
is the link's own transmit path
(:meth:`~repro.netlayer.link.Medium.transmit` — admission, queue limit,
serialization, propagation, up/down), not a copy of it; only the landing
differs.  As soon as the arrival instant is known it appends ``(arrival,
dst_shard, dst_port, datagram)`` to the shard's outbox, and the local
arrival event just frees the queue slot; the far shard delivers the
datagram to the attached interface.
Crossing the seam hands over the datagram itself, exactly what a
one-process link lands: nothing mutates a datagram a medium has admitted
(a transit hop copies it first).  Bytes exist only where a pipe does: a
forked worker sends its outbox as RFC-791 wire records ``(arrival,
dst_shard, dst_port, wire, trace_id)`` and parses the batch it receives.

Determinism
-----------
Same seed ⇒ byte-identical results at any worker count:

* each shard owns its simulator, random streams and address space, so its
  intra-window execution is sequential and seeded;
* drained messages are merged in ``(arrival, src_shard, emission_index)``
  order before delivery, so the destination simulator's insertion order —
  its tie-break for same-timestamp events — is reproducible;
* ``workers=1`` runs every shard harness in-process through the *same*
  window loop; ``workers=N`` forks one process per shard and moves the
  same records, as wire bytes, over pipes.  Nothing about the schedule
  depends on which mode executed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from time import perf_counter, process_time
from typing import Callable, Optional

from ..ip.packet import Datagram
from ..netlayer.link import Medium, PointToPointLink, _Channel
from .engine import SimulationError, Simulator

__all__ = ["ConduitPort", "ShardBuild", "ShardHarness", "ShardedSimulation"]


class ConduitPort(Medium):
    """Egress half of an inter-AS link that crosses a shard boundary.

    Attaches to one interface as its medium and *is* the link's transmit
    path (:meth:`~repro.netlayer.link.Medium.transmit`: admission, RED,
    queue limit, serialization at ``bandwidth_bps``, ``delay`` of
    propagation, up/down, journey span), so a topology partitioned across
    shards keeps the exact packet timing and drops it has in one process.
    Only the landing differs: the far end lives in another simulator and
    must learn of each arrival a lookahead early, so the datagram itself
    (the reference a one-process link lands, not a copy) leaves as an
    outbox record the moment its arrival instant is known.  The local
    arrival event still fires, to free the queue slot at the same instant
    (and in the same same-timestamp order) a one-process link would.
    What has left cannot be recalled: a conduit lowered with datagrams in
    flight accounts them as flushed but the far shard still receives
    them, and a conduit's wire is lossless.
    """

    FRAME_OVERHEAD = PointToPointLink.FRAME_OVERHEAD

    def __init__(
        self,
        sim: Simulator,
        iface,
        *,
        dst_shard: int,
        dst_port: str,
        outbox: list,
        bandwidth_bps: float = 56_000.0,
        delay: float = 0.005,
        mtu: int = 1006,
        name: str = "",
    ):
        if delay <= 0:
            raise ValueError("a cross-shard conduit must have positive delay "
                             "(it is the lookahead window)")
        super().__init__(
            sim, bandwidth_bps=bandwidth_bps, delay=delay, mtu=mtu,
            name=name or f"conduit:{iface.name}->{dst_shard}:{dst_port}")
        self.iface = iface
        self.dst_shard = dst_shard
        self.dst_port = dst_port
        self.outbox = outbox
        self._channels[iface] = _Channel()
        iface.medium = self

    def _in_flight(self, chan, datagram, arrival: float) -> float:
        self.outbox.append((arrival, self.dst_shard, self.dst_port, datagram))
        return arrival

    def _land(self, sender, to, datagram) -> None:
        """Nothing lands here: the far shard's ingress port delivers."""


@dataclass
class ShardBuild:
    """What a shard builder hands back to the harness.

    ``builder(shard_id, n_shards) -> ShardBuild`` must be deterministic in
    its arguments (seed everything from them) and, for forked execution,
    importable/picklable.
    """

    #: Object owning ``.sim`` (an Internet, or anything with a Simulator).
    net: object
    #: Ingress attachment points: port name -> Interface.  Cross-shard
    #: messages addressed to a port are delivered here.
    ports: dict = field(default_factory=dict)
    #: The list every local ConduitPort appends egress records to.
    outbox: list = field(default_factory=list)
    #: Optional picklable stats summary, fetched once after the run.
    collect: Optional[Callable[[], dict]] = None


class ShardHarness:
    """One shard's runtime: its simulator, conduits and ingress ports."""

    def __init__(self, shard_id: int, n_shards: int,
                 builder: Callable[[int, int], ShardBuild]):
        self.shard_id = shard_id
        self.build = builder(shard_id, n_shards)
        self.sim: Simulator = self.build.net.sim
        #: Port name -> (interface, arrival event label built once).
        self._ingress = {name: (iface, f"conduit:{name}")
                         for name, iface in self.build.ports.items()}
        self._cpu_base = process_time()

    def deliver(self, messages) -> None:
        """Schedule arrivals for this window's cross-shard messages.

        ``messages`` are outbox records pre-merged in ``(arrival,
        src_shard, emission_index)`` order; posting them in that order fixes
        the destination heap's tie-break, so delivery is deterministic.
        """
        ingress = self._ingress
        sim = self.sim
        now = sim.now
        for arrival, _dst_shard, port_name, datagram in messages:
            if arrival < now:
                raise SimulationError(
                    f"late cross-shard message: arrival {arrival} < now {now} "
                    f"(lookahead window too wide for the conduit delays)")
            iface, label = ingress[port_name]
            sim.post_at(arrival, partial(iface.deliver, datagram),
                        label=label)

    def run_window(self, until: float) -> list:
        """Advance to the barrier; return (and clear) the egress outbox."""
        self.sim.run(until=until)
        outbox = self.build.outbox
        out, outbox[:] = outbox[:], []
        return out

    def collect(self) -> dict:
        summary = self.build.collect() if self.build.collect is not None else {}
        summary.setdefault("shard", self.shard_id)
        summary["events_processed"] = self.sim.events_processed
        summary["cpu_seconds"] = process_time() - self._cpu_base
        return summary


def _to_wire(records: list) -> list:
    """Outbox records as the pipe carries them: ``(arrival, dst_shard,
    port, wire, trace_id)``, the datagram as RFC-791 bytes."""
    return [(arrival, dst_shard, port, datagram.to_bytes(), datagram.trace_id)
            for arrival, dst_shard, port, datagram in records]


def _from_wire(records: list) -> list:
    """Wire records from a pipe, parsed back into outbox records."""
    parsed = []
    for arrival, dst_shard, port, wire, trace_id in records:
        datagram = Datagram.from_bytes(wire)
        datagram.trace_id = trace_id
        parsed.append((arrival, dst_shard, port, datagram))
    return parsed


def _worker_main(conn, shard_id: int, n_shards: int, builder) -> None:
    """Child-process loop: build the shard, then serve barrier commands."""
    harness = ShardHarness(shard_id, n_shards, builder)
    try:
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == "run":
                _op, until, messages = cmd
                harness.deliver(_from_wire(messages))
                conn.send(_to_wire(harness.run_window(until)))
            elif op == "collect":
                conn.send(harness.collect())
            elif op == "stop":
                break
    finally:
        conn.close()


class ShardedSimulation:
    """Orchestrates N shard harnesses through lookahead windows.

    Parameters
    ----------
    builder:
        ``builder(shard_id, n_shards) -> ShardBuild``; must derive all of
        its randomness from its arguments.
    n_shards:
        The topology partition — part of the *scenario*, not of the
        execution: results depend on it, never on ``workers``.
    lookahead:
        The window width ``W``.  Must not exceed any conduit's delay; a
        violation surfaces as a "late cross-shard message" error rather
        than silent nondeterminism.
    workers:
        1 runs every harness in this process (no forks, zero IPC); > 1
        forks ``min(workers, n_shards)`` processes, one per shard, and is
        byte-identical to ``workers=1`` by construction.
    """

    def __init__(self, builder, n_shards: int, *, lookahead: float,
                 workers: int = 1):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if lookahead <= 0:
            raise ValueError("lookahead must be positive")
        self.builder = builder
        self.n_shards = n_shards
        self.lookahead = lookahead
        self.workers = max(1, min(workers, n_shards))
        self._closed = False
        self.wall_seconds = 0.0
        self._now = 0.0
        self._windows = 0
        self._messages_crossed = 0
        #: Undelivered (arrival, src_shard, emission_index, record): an
        #: outbox record in process, a wire record from a forked worker.
        self._pending: list[tuple] = []
        self._harnesses: list[ShardHarness] = []
        self._procs: list = []
        self._conns: list = []
        if self.workers == 1:
            self._harnesses = [ShardHarness(i, n_shards, builder)
                               for i in range(n_shards)]
        else:
            import multiprocessing as mp

            ctx = mp.get_context("fork")
            for i in range(n_shards):
                parent, child = ctx.Pipe()
                proc = ctx.Process(target=_worker_main,
                                   args=(child, i, n_shards, builder),
                                   daemon=True)
                proc.start()
                child.close()
                self._procs.append(proc)
                self._conns.append(parent)

    @property
    def now(self) -> float:
        return self._now

    @property
    def windows(self) -> int:
        """Barrier rounds executed so far."""
        return self._windows

    @property
    def messages_crossed(self) -> int:
        """Cross-shard messages merged so far."""
        return self._messages_crossed

    # ------------------------------------------------------------------
    def run(self, until: float) -> float:
        """Advance every shard to ``until`` through lookahead windows."""
        self._check_open()
        t0 = perf_counter()
        W = self.lookahead
        base = self._now
        k = 0
        while self._now < until:
            k += 1
            t_next = min(base + k * W, until)
            batches = self._split_deliverable(t_next)
            outboxes = self._round(t_next, batches)
            merged = []
            for src_shard, outbox in enumerate(outboxes):
                for index, record in enumerate(outbox):
                    arrival = record[0]
                    if arrival <= t_next:
                        raise SimulationError(
                            f"conduit violated lookahead: message for shard "
                            f"{record[1]} arrives at {arrival} <= barrier "
                            f"{t_next}")
                    merged.append((arrival, src_shard, index, record))
            self._messages_crossed += len(merged)
            self._pending.extend(merged)
            self._windows += 1
            self._now = t_next
        self.wall_seconds += perf_counter() - t0
        return self._now

    def _split_deliverable(self, t_next: float) -> list[list]:
        """Messages due by ``t_next``, per destination shard, merge-sorted."""
        due = [m for m in self._pending if m[0] <= t_next]
        if due:
            self._pending = [m for m in self._pending if m[0] > t_next]
            due.sort(key=lambda m: (m[0], m[1], m[2]))
        batches: list[list] = [[] for _ in range(self.n_shards)]
        for _arrival, _src, _idx, record in due:
            batches[record[1]].append(record)
        return batches

    def _round(self, t_next: float, batches: list[list]) -> list[list]:
        if self.workers == 1:
            out = []
            for harness, batch in zip(self._harnesses, batches):
                harness.deliver(batch)
                out.append(harness.run_window(t_next))
            return out
        for i, (conn, batch) in enumerate(zip(self._conns, batches)):
            self._send(i, conn, ("run", t_next, batch))
        return [self._recv(i, conn) for i, conn in enumerate(self._conns)]

    # ------------------------------------------------------------------
    def collect(self) -> list[dict]:
        """Per-shard stats summaries (see :attr:`ShardBuild.collect`)."""
        self._check_open()
        if self.workers == 1:
            return [h.collect() for h in self._harnesses]
        for i, conn in enumerate(self._conns):
            self._send(i, conn, ("collect",))
        return [self._recv(i, conn) for i, conn in enumerate(self._conns)]

    def _check_open(self) -> None:
        if self._closed:
            raise SimulationError(
                "ShardedSimulation is closed: run/collect before close() "
                "or before leaving the `with` block")

    def _send(self, shard_id: int, conn, payload) -> None:
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError) as exc:
            raise SimulationError(
                f"shard worker {shard_id} is gone — it likely crashed "
                f"(its traceback was printed to stderr)") from exc

    def _recv(self, shard_id: int, conn):
        try:
            return conn.recv()
        except (EOFError, ConnectionResetError, OSError) as exc:
            raise SimulationError(
                f"shard worker {shard_id} died mid-command — see its "
                f"traceback on stderr") from exc

    def close(self) -> None:
        """Shut worker processes down (no-op for in-process mode)."""
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
                conn.close()
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        self._conns = []
        self._procs = []

    def __enter__(self) -> "ShardedSimulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
