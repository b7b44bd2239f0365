"""A seam crossing hands over the datagram: differential against the wire.

In process, a conduit's outbox record carries the transmitted ``Datagram``
and the far shard delivers that very object, as a one-process link lands
it; only a forked worker encodes its outbox to RFC-791 wire records
(``_to_wire``) and parses the batches it is sent (``_from_wire``).  The
parent commit serialised every crossing, in process too.  Its
``ConduitPort._in_flight`` (the wire record), its ``_Ingress``
parse-and-deliver, its harness ``deliver`` / ``run_window`` and its window
loop's merge are kept here, verbatim, as the oracle.

Random programs run on three worlds side by side: the oracle, the live
code in process, and the live code's forked path — its real pipes, worker
loop and codec, with threads standing in for processes.  Two sending
shards feed a third through three conduits (two of them out of one shard,
to different ports, so the merge's emission-index tie-break is visible);
datagrams span the whole legal header range (TTL 0-255, ident 0-0xFFFF,
DF/MF, offset 0-8191, TOS with ECT/CE, 0-1480 B of payload, trace ids);
time advances by amounts that straddle the lookahead window; conduits are
lowered and raised with frames in flight; RED is on or off and queue
limits are 1-8.  After every step the worlds must agree with ``==``: each
far-end datagram field for field (trace id included), its arrival time
and order, both ends' ``LinkStats``, every journey span (so every journey
drop), the RED streams and the window counts.  The codec is held to the
oracle as well: the encoder's records byte-identical to the parent's wire
records, the decoder's datagrams equal to the transmitted ones.
"""

import multiprocessing
import random
import threading
from dataclasses import asdict
from time import perf_counter
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.ip.address import Address, Prefix
from repro.ip.packet import Datagram, TOS_CE, TOS_ECT
from repro.netlayer.link import Interface
from repro.netlayer.red import RedParams, RedState
from repro.obs.core import Observability
from repro.sim.engine import SimulationError, Simulator
from repro.sim.shard import (ConduitPort, ShardBuild, ShardedSimulation,
                             ShardHarness, _from_wire, _to_wire)

PREFIX = Prefix.parse("10.0.1.0/24")
#: Conduit index -> (the shard it leaves, the port it enters shard 2 by).
#: Conduits 0 and 1 share a source shard and differ in port, named so that
#: port order is the reverse of conduit order.
ROUTES = ((0, "b"), (0, "a"), (1, "c"))
SINK_SHARD = 2
#: Enough simulated time to empty the deepest queue (8 frames of 1508 B at
#: the slowest rate drawn) and see the last one across.
DRAIN = 3.0


# ----------------------------------------------------------------------
# The oracle: the parent's in-process crossing, verbatim
# ----------------------------------------------------------------------
class OracleConduitPort(ConduitPort):
    def _in_flight(self, chan, datagram, arrival: float) -> float:
        self.outbox.append(
            (arrival, self.dst_shard, self.dst_port, datagram.to_bytes(),
             datagram.trace_id))
        return arrival


class _Ingress:
    """Deferred ingress parse+deliver (cheaper than a closure per packet)."""

    __slots__ = ("iface", "wire", "trace_id")

    def __init__(self, iface, wire, trace_id):
        self.iface = iface
        self.wire = wire
        self.trace_id = trace_id

    def __call__(self) -> None:
        datagram = Datagram.from_bytes(self.wire)
        datagram.trace_id = self.trace_id
        self.iface.deliver(datagram)


class OracleHarness(ShardHarness):
    def deliver(self, messages) -> None:
        """Schedule arrivals for this window's cross-shard messages.

        ``messages`` come pre-merged in ``(arrival, src_shard,
        emission_index)`` order; posting them in that order fixes the
        destination heap's tie-break, so delivery is deterministic.
        """
        ports = self.build.ports
        sim = self.sim
        now = sim.now
        for arrival, port_name, wire, trace_id in messages:
            if arrival < now:
                raise SimulationError(
                    f"late cross-shard message: arrival {arrival} < now {now} "
                    f"(lookahead window too wide for the conduit delays)")
            iface = ports[port_name]
            sim.post_at(arrival,
                        _Ingress(iface, wire, trace_id),
                        label=f"conduit:{port_name}")

    def run_window(self, until: float) -> list:
        """Advance to the barrier; return (and clear) the egress outbox."""
        self.sim.run(until=until)
        outbox = self.build.outbox
        if outbox:
            out, outbox[:] = list(outbox), []
            return out
        return []


class OracleShardedSimulation(ShardedSimulation):
    """The parent's window loop (``run``, ``_split_deliverable``,
    ``_round``) over oracle harnesses, all in this process."""

    def __init__(self, builder, n_shards: int, *, lookahead: float):
        super().__init__(_no_shard, n_shards, lookahead=lookahead)
        self._harnesses = [OracleHarness(i, n_shards, builder)
                           for i in range(n_shards)]

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
                    arrival, dst_shard, port, wire, tid = record
                    if arrival <= t_next:
                        raise SimulationError(
                            f"conduit violated lookahead: message for shard "
                            f"{dst_shard} arrives at {arrival} <= barrier "
                            f"{t_next}")
                    merged.append((arrival, src_shard, index, dst_shard,
                                   port, wire, tid))
            self._messages_crossed += len(merged)
            self._pending.extend(merged)
            self._windows += 1
            self._now = t_next
        self.wall_seconds += perf_counter() - t0
        return self._now

    def _split_deliverable(self, t_next: float) -> list[list]:
        """Messages due by ``t_next``, per destination shard, merge-sorted."""
        if self._pending:
            due = [m for m in self._pending if m[0] <= t_next]
            if due:
                self._pending = [m for m in self._pending if m[0] > t_next]
                due.sort(key=lambda m: (m[0], m[1], m[2]))
        else:
            due = []
        batches: list[list] = [[] for _ in range(self.n_shards)]
        for arrival, _src, _idx, dst_shard, port, wire, tid in due:
            batches[dst_shard].append((arrival, port, wire, tid))
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


def _no_shard(shard_id, n_shards):
    return ShardBuild(net=SimpleNamespace(sim=Simulator()))


# ----------------------------------------------------------------------
# The forked path, with threads for processes
# ----------------------------------------------------------------------
class ThreadContext:
    """``multiprocessing.get_context("fork")`` as the sharded engine uses
    it, with a thread per worker: the real pipes (every message pickled
    through the OS), the real worker loop and codec, and no fork per
    example."""

    def Pipe(self):
        parent, child = multiprocessing.Pipe()
        return parent, WorkerEnd(child)

    def Process(self, target, args, daemon):
        return threading.Thread(target=target, args=args, daemon=daemon)


class WorkerEnd:
    """The worker's end of a pipe.  After ``start()`` the parent closes
    its copy of it; in one process that copy is the worker's own, so only
    the second close — the worker's last act — closes the connection."""

    def __init__(self, conn):
        self.conn = conn
        self.recv = conn.recv
        self.send = conn.send
        self.closes = 0

    def close(self) -> None:
        self.closes += 1
        if self.closes == 2:
            self.conn.close()


def threaded(builder, n_shards: int, *, lookahead: float):
    with mock.patch("multiprocessing.get_context",
                    lambda method: ThreadContext()):
        ss = ShardedSimulation(builder, n_shards, lookahead=lookahead,
                               workers=n_shards)
    ss.collect()  # a barrier: every worker has built its shard
    return ss


# ----------------------------------------------------------------------
# One scenario, three worlds
# ----------------------------------------------------------------------
class Sender:
    """Stands in for a sending Node: a name, a clock and a journal."""

    def __init__(self, name, sim):
        self.name = name
        self.sim = sim
        self.obs = Observability(profile=False)


class Receiver:
    """Stands in for the far Node: notes what is handed up, when, where."""

    obs = None

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def datagram_arrived(self, datagram, iface) -> None:
        self.arrivals.append((self.sim.now, iface.name, datagram))


class Outbox(list):
    """A shard's outbox that also keeps every record ever appended."""

    def __init__(self):
        super().__init__()
        self.log = []

    def append(self, record) -> None:
        self.log.append(record)
        super().append(record)


class Seam:
    """The builder: shards 0 and 1 send through the conduits of
    :data:`ROUTES`, shard 2 receives on all three ports."""

    def __init__(self, conduit_cls, *, bandwidth_bps, delay, queue_limits,
                 reds):
        self.conduit_cls = conduit_cls
        self.wire = dict(bandwidth_bps=bandwidth_bps, delay=delay)
        self.queue_limits = queue_limits
        self.reds = reds
        self.shards = {}

    def __call__(self, shard_id, n_shards):
        sim = Simulator()
        shard = SimpleNamespace(sim=sim, outbox=Outbox(), ports={},
                                conduits={}, reds=[])
        if shard_id == SINK_SHARD:
            shard.node = Receiver(sim)
            for index, (_src, port) in enumerate(ROUTES):
                iface = Interface(port, PREFIX.host(100 + index), PREFIX)
                iface.node = shard.node
                shard.ports[port] = iface
        else:
            shard.node = Sender(f"S{shard_id}", sim)
            for index, (src, port) in enumerate(ROUTES):
                if src != shard_id:
                    continue
                iface = Interface(f"c{index}", PREFIX.host(1 + index), PREFIX)
                iface.node = shard.node
                conduit = self.conduit_cls(
                    sim, iface, dst_shard=SINK_SHARD, dst_port=port,
                    outbox=shard.outbox, **self.wire)
                conduit.queue_limit = self.queue_limits[index]
                spec = self.reds[index]
                if spec is not None:
                    min_th, span, max_p, weight, seed = spec
                    red = RedState(RedParams(min_th=min_th,
                                             max_th=min_th + span,
                                             max_p=max_p, weight=weight),
                                   random.Random(seed))
                    shard.reds.append(red)
                    conduit.enable_red(iface, red)
                shard.conduits[index] = (iface, conduit)
        self.shards[shard_id] = shard
        return ShardBuild(net=shard, ports=shard.ports, outbox=shard.outbox)

    def conduit(self, index):
        return self.shards[ROUTES[index][0]].conduits[index]

    def snapshot(self, ss) -> tuple:
        senders = [self.shards[i] for i in range(SINK_SHARD)]
        sink = self.shards[SINK_SHARD]
        return (
            ss.now, ss.windows, ss.messages_crossed,
            sink.node.arrivals,
            [asdict(iface.stats) for iface in sink.ports.values()],
            [asdict(iface.stats) for shard in senders
             for iface, _ in shard.conduits.values()],
            [{tid: shard.node.obs.journey(tid)
              for tid in shard.node.obs.spans.trace_ids()}
             for shard in senders],
            [(red.counters(), red.avg, red.rng.getstate())
             for shard in senders for red in shard.reds])


PAYLOAD = bytes(range(256)) * 7


def datagram_of(header) -> Datagram:
    (src, dst, protocol, size, fill, ttl, ident, df, mf, offset, tos,
     trace_id) = header
    return Datagram(src=Address(src), dst=Address(dst), protocol=protocol,
                    payload=PAYLOAD[fill:fill + size], ttl=ttl, ident=ident,
                    dont_fragment=df, more_fragments=mf,
                    fragment_offset=offset, tos=tos, trace_id=trace_id)


def run_program(seams, worlds, program) -> None:
    """Apply each step to every world; they must agree after every one."""
    for step in program + [("advance", DRAIN)]:
        op = step[0]
        for seam, ss in zip(seams, worlds):
            if op == "send":
                iface, _ = seam.conduit(step[1])
                iface.output(datagram_of(step[2]))
            elif op == "advance":
                ss.run(until=ss.now + step[1])
            else:
                seam.conduit(step[1])[1].set_up(op == "up")
        first = seams[0].snapshot(worlds[0])
        for seam, ss in zip(seams[1:], worlds[1:]):
            assert seam.snapshot(ss) == first, step


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
ADDRESSES = st.one_of(st.sampled_from([0, 0x0A000102, 0xFFFFFFFF]),
                      st.integers(0, 0xFFFFFFFF))
SIZES = st.one_of(st.sampled_from([0, 1, 256, 1480]), st.integers(0, 1480))
TOS = st.one_of(st.sampled_from([0, TOS_ECT, TOS_CE, TOS_ECT | TOS_CE]),
                st.integers(0, 255))
HEADERS = st.tuples(
    ADDRESSES, ADDRESSES, st.integers(0, 255), SIZES, st.integers(0, 255),
    st.one_of(st.sampled_from([0, 1, 255]), st.integers(0, 255)),
    st.one_of(st.sampled_from([0, 0xFFFF]), st.integers(0, 0xFFFF)),
    st.booleans(), st.booleans(),
    st.one_of(st.sampled_from([0, 8191]), st.integers(0, 8191)),
    TOS,
    st.one_of(st.just(0), st.integers(1, 2**40)))
CONDUITS = st.integers(0, len(ROUTES) - 1)
SEND = st.tuples(st.just("send"), CONDUITS, HEADERS)
ADVANCES = st.sampled_from([0.0, 1e-6, 0.001, 0.0103, 0.05, 0.3, 2.0])
STEPS = st.one_of(
    SEND, SEND, SEND,
    st.tuples(st.just("advance"), ADVANCES),
    st.tuples(st.sampled_from(["down", "up"]), CONDUITS))


@st.composite
def programs(draw):
    """Steps, where a send may become a burst: one header on every conduit
    at one instant, which is where same-arrival ties between ports (and
    between source shards) come from."""
    program = []
    for step in draw(st.lists(STEPS, min_size=1, max_size=40)):
        if step[0] == "send" and draw(st.booleans()):
            # In a drawn order: emission order is what breaks the ties.
            order = draw(st.permutations(range(len(ROUTES))))
            program += [("send", index, step[2]) for index in order]
        else:
            program.append(step)
    return program


RED = st.one_of(st.none(), st.tuples(
    st.sampled_from([0.0, 0.5, 2.0]), st.sampled_from([3.0, 5.0]),
    st.sampled_from([0.1, 0.5, 1.0]), st.sampled_from([0.2, 1.0]),
    st.integers(0, 3)))


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(program=programs(),
       bandwidth_bps=st.sampled_from([56_000.0, 1_544_000.0, 1e7 / 3]),
       delay=st.sampled_from([0.0103, 0.05, 0.27]),
       queue_limits=st.lists(st.integers(1, 8), min_size=3, max_size=3),
       reds=st.lists(RED, min_size=3, max_size=3))
def test_reference_handoff_matches_the_wire_round_trip(program, **params):
    seams = [Seam(OracleConduitPort, **params), Seam(ConduitPort, **params),
             Seam(ConduitPort, **params)]
    n_shards, lookahead = SINK_SHARD + 1, params["delay"]
    worlds = [OracleShardedSimulation(seams[0], n_shards, lookahead=lookahead),
              ShardedSimulation(seams[1], n_shards, lookahead=lookahead),
              threaded(seams[2], n_shards, lookahead=lookahead)]
    try:
        run_program(seams, worlds, program)
    finally:
        for ss in worlds:
            ss.close()
    # The codec, record for record against the parent's wire records.
    for shard_id in range(SINK_SHARD):
        oracle = seams[0].shards[shard_id].outbox.log
        for seam in seams[1:]:
            live = seam.shards[shard_id].outbox.log
            assert _to_wire(live) == oracle
            assert _from_wire(oracle) == live


def test_the_codec_covers_the_header_range():
    """The corners the strategies reach by chance, pinned: a wire record
    is the parent's byte for byte and parses back to an equal datagram."""
    corners = [
        (0, 0xFFFFFFFF, 0, 0, 0, 0, 0, False, False, 0, 0, 0),
        (0xFFFFFFFF, 0, 255, 1480, 255, 255, 0xFFFF, True, True, 8191,
         TOS_ECT | TOS_CE, 2**40),
        (0x0A000102, 0x0A000203, 17, 256, 7, 1, 12345, True, False, 185,
         TOS_CE, 9),
    ]
    for header in corners:
        sent = datagram_of(header)
        record = (1.25, 2, "a", sent)
        [wire_record] = _to_wire([record])
        assert wire_record == (1.25, 2, "a", sent.to_bytes(), sent.trace_id)
        [(arrival, dst_shard, port, parsed)] = _from_wire([wire_record])
        assert (arrival, dst_shard, port) == (1.25, 2, "a")
        assert parsed == sent and parsed is not sent
