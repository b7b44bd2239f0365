"""The canonical workloads of the ``perf`` ledger.

Every workload is a fixed simulated scenario built through public
constructors only; nothing under ``src/`` knows it is being measured.  One
*repetition* is ``setup()`` (build + routing warm-up, timed as ``setup_s``)
followed by ``measure()`` (the measured phase: host time for a fixed amount
of simulated work).  After it, ``tally()`` reads the public counters,
``outcome()`` lists the *simulated* results that must not move at all, and
``checks()`` balances the books (counted bytes == sink bytes, and so on).

The horizons below are constants: a result is comparable with another only
when both ran the same ``HORIZONS`` (every result is stamped with them).
"""

from __future__ import annotations

import random

from repro.apps.filetransfer import FileReceiver, FileSender
from repro.apps.traffic import UdpSink
from repro.apps.voice import VoiceCodec
from repro.chaos.campaign import FaultCampaign
from repro.chaos.monitors import ReconvergenceMonitor, TtlExhaustionMonitor
from repro.ecology import EcologyConfig, MisbehavingHosts, build_ecology
from repro.harness.scaletopo import MultiAsBuilder, ScaleConfig
from repro.harness.topology import Internet
from repro.sim.shard import ShardedSimulation

__all__ = ["WORKLOADS", "HORIZONS", "Scenario"]

#: Simulated work per repetition at ``scale=1.0``; ~2 s of host time each
#: on the 2-core reference host, so one 8 s run holds three to five reps.
HORIZONS = {
    "ring512_udp": {"warmup_sim_s": 12.0, "measured_sim_s": 20.0},
    "ring512_shard4": {"warmup_sim_s": 12.0, "measured_sim_s": 20.0,
                       "n_shards": 4},
    "ring512_shard2w": {"warmup_sim_s": 12.0, "measured_sim_s": 20.0,
                        "n_shards": 4},
    "dv_grid_churn": {"settle_sim_s": 20.0, "hops": 6600,
                      "flap_every_sim_s": 6.0, "tail_sim_s": 10.0},
    "tcp_bulk_3hop": {"settle_sim_s": 10.0, "flows": 4,
                      "bytes_per_flow": 1_600_000, "queue_limit": 512},
    "frag_core": {"settle_sim_s": 10.0, "datagrams": 28_000,
                  "interval_sim_s": 0.002, "drain_sim_s": 5.0},
    "frag_core_obs": {"settle_sim_s": 10.0, "datagrams": 28_000,
                      "interval_sim_s": 0.002, "drain_sim_s": 5.0},
    "collapse_red_drr": {"storm_at_sim_s": 16.0, "storm_sim_s": 6.0,
                         "until_sim_s": 26.0},
}

_DROP_REASONS = ("dropped_no_route", "dropped_ttl", "dropped_down",
                 "dropped_df", "dropped_bad_header", "dropped_not_mine")


# ----------------------------------------------------------------------
# Public-counter tallies (all additive, so shards and phases subtract/sum)
# ----------------------------------------------------------------------
def tally_add(total: dict, part: dict) -> dict:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
    return total


def _tally(*, sims=(), nodes=(), routing=(), conns=(), schedulers=(),
           obs=None, pool=None) -> dict:
    """Sum the public counters of the given components into one flat dict."""
    t = dict.fromkeys((
        "sim.events", "sim.compactions",
        "sim.shard.windows", "sim.shard.messages_crossed",
        "ip.forwarded", "ip.delivered", "ip.originated", "ip.drops",
        "ip.fragments_created", "ip.reassembled",
        "ip.route_cache_hits", "ip.route_cache_misses",
        "ip.pool_allocated", "ip.pool_reused",
        "netlayer.packets_sent", "netlayer.queue_drops", "netlayer.lost",
        "routing.updates_sent", "routing.update_bytes",
        "routing.triggered_updates",
        "tcp.segments_sent", "tcp.segments_retransmitted",
        "tcp.rto_timeouts", "tcp.fast_retransmits",
        "flows.enqueued", "flows.dropped",
        "obs.spans_recorded", "obs.traces_evicted"), 0)
    for sim in sims:
        t["sim.events"] += sim.events_processed
        t["sim.compactions"] += sim.compactions
    for node in nodes:
        s = node.stats
        t["ip.forwarded"] += s.forwarded
        t["ip.delivered"] += s.delivered
        t["ip.originated"] += s.originated
        t["ip.drops"] += sum(getattr(s, reason) for reason in _DROP_REASONS)
        t["ip.fragments_created"] += s.fragments_created
        t["ip.reassembled"] += node.reassembler.stats.datagrams_reassembled
        t["ip.route_cache_hits"] += node.routes.cache_hits
        t["ip.route_cache_misses"] += node.routes.cache_misses
        for iface in node.interfaces:
            t["netlayer.packets_sent"] += iface.stats.packets_sent
            t["netlayer.queue_drops"] += iface.stats.packets_dropped_queue
            t["netlayer.lost"] += iface.stats.packets_lost
    for proc in routing:
        t["routing.updates_sent"] += proc.stats.updates_sent
        t["routing.update_bytes"] += proc.stats.bytes_sent
        t["routing.triggered_updates"] += proc.stats.triggered_updates
    for conn in conns:
        t["tcp.segments_sent"] += conn.stats.segments_sent
        t["tcp.segments_retransmitted"] += conn.stats.segments_retransmitted
        t["tcp.rto_timeouts"] += conn.stats.retransmit_timeouts
        t["tcp.fast_retransmits"] += conn.stats.fast_retransmits
    for sched in schedulers:
        t["flows.enqueued"] += sched.stats.enqueued
        t["flows.dropped"] += sched.stats.dropped
    if obs is not None:
        spans = obs.spans.counters()
        t["obs.spans_recorded"] += spans["spans_recorded"]
        t["obs.traces_evicted"] += spans["traces_evicted"]
    if pool is not None:
        counters = pool.counters()
        t["ip.pool_allocated"] += counters["allocated"]
        t["ip.pool_reused"] += counters["reused"]
    return t


def _drops_by_reason(nodes) -> dict:
    return {reason: sum(getattr(n.stats, reason) for n in nodes)
            for reason in _DROP_REASONS}


def _net_tally(net: Internet, conns=()) -> dict:
    return _tally(sims=[net.sim], nodes=net.nodes().values(),
                  routing=net.routing.values(), conns=conns, obs=net.obs,
                  pool=net.packet_pool)


class Scenario:
    """One repetition of one workload (see the module docstring)."""

    name = ""

    def __init__(self, seed: int, scale: float = 1.0, profiled: bool = False):
        self.seed = seed
        self.scale = scale
        #: True when a profiler will watch the measured phase.
        self.profiled = profiled
        self.h = HORIZONS[self.name]

    def scaled(self, key: str, minimum: float = 0.0):
        value = self.h[key] * self.scale
        if isinstance(self.h[key], int):
            return max(int(minimum), int(round(value)))
        return max(minimum, value)

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def settle(self) -> None:
        """Untimed simulated time the outcome needs after the measured
        phase (none for most workloads)."""

    def tally(self) -> dict:
        raise NotImplementedError

    def app_bytes(self) -> int:
        """Application payload bytes that reached their receivers so far."""
        raise NotImplementedError

    def outcome(self) -> dict:
        raise NotImplementedError

    def checks(self) -> list:
        """Self-check failures, as messages; empty when the books balance."""
        raise NotImplementedError

    def child_cpu(self) -> float:
        """CPU seconds burnt so far in worker processes (0 without any)."""
        return 0.0

    def close(self) -> None:
        """Stop whatever the scenario started (worker processes)."""


# ----------------------------------------------------------------------
# 1 + 2. The 512-node ring, plain and through the sharded scheduler
# ----------------------------------------------------------------------
class _RingCollector:
    """``ShardBuild.collect`` hook: the ring's tally and outcome, computed
    where the shard lives (in a worker process when sharded)."""

    def __init__(self, shard_net):
        self.shard_net = shard_net

    def __call__(self) -> dict:
        net = self.shard_net
        nodes = [node for internet in net.internets.values()
                 for node in internet.nodes().values()]
        routing = [proc for internet in net.internets.values()
                   for proc in internet.routing.values()]
        return {
            "tally": _tally(sims=[net.sim], nodes=nodes, routing=routing,
                            pool=net.packet_pool),
            "sinks": {f"{a}.{g}": [sink.packets, sink.bytes]
                      for (a, g), sink in sorted(net.sinks.items())},
            "sent": sum(flow.sent * flow.size for flow in net.flows),
            "drops": _drops_by_reason(nodes),
        }


class _RingBuilder(MultiAsBuilder):
    """The scale harness's builder with the ledger's collector attached."""

    def __call__(self, shard_id: int, n_shards: int):
        build = super().__call__(shard_id, n_shards)
        build.collect = _RingCollector(build.net)
        return build


def _merge_ring(parts: list) -> dict:
    merged = {"tally": {}, "sinks": {}, "sent": 0, "drops": {}}
    for part in parts:
        tally_add(merged["tally"], part["tally"])
        merged["sinks"].update(part["sinks"])
        merged["sent"] += part["sent"]
        tally_add(merged["drops"], part["drops"])
    merged["sinks"] = dict(sorted(merged["sinks"].items()))
    return merged


class RingUdp(Scenario):
    name = "ring512_udp"

    def setup(self) -> None:
        self.cfg = ScaleConfig(seed=self.seed)
        self.build = _RingBuilder(self.cfg)(0, 1)
        self.sim = self.build.net.sim
        self.sim.run(until=self.h["warmup_sim_s"])

    def measure(self) -> None:
        self.sim.run(until=self.h["warmup_sim_s"]
                     + self.scaled("measured_sim_s", 1.0))

    def _collect(self) -> dict:
        return _merge_ring([self.build.collect()])

    def tally(self) -> dict:
        return self._collect()["tally"]

    def app_bytes(self) -> int:
        return sum(b for _p, b in self._collect()["sinks"].values())

    def outcome(self) -> dict:
        got = self._collect()
        return {"sinks": got["sinks"], "drops": got["drops"]}

    def checks(self) -> list:
        got = self._collect()
        packets = sum(p for p, _b in got["sinks"].values())
        sink_bytes = sum(b for _p, b in got["sinks"].values())
        failures = []
        if packets == 0:
            failures.append("no packet reached a sink")
        if sink_bytes != packets * self.cfg.flow_size:
            failures.append(f"sink bytes {sink_bytes} != "
                            f"{packets} packets x {self.cfg.flow_size} B")
        if sink_bytes > got["sent"]:
            failures.append(f"sinks hold {sink_bytes} B, sources sent "
                            f"only {got['sent']} B")
        return failures


class RingShard4(RingUdp):
    """Same scenario and window through ``sim.shard``: four shards stepped
    through the lookahead windows in this one process, so every datagram
    that changes AS block crosses a conduit as wire bytes.  Its outcome
    must equal ``ring512_udp``'s (the runner compares digests)."""

    name = "ring512_shard4"
    workers = 1
    ss = None

    def setup(self) -> None:
        self.cfg = ScaleConfig(seed=self.seed)
        builder = _RingBuilder(self.cfg)
        # A profiled pass keeps every shard in this process whatever the
        # workload asks for, or the profiler would see only pipes.
        self.ss = ShardedSimulation(
            builder, self.h["n_shards"], lookahead=builder.lookahead(),
            workers=1 if self.profiled else self.workers)
        self.ss.run(until=self.h["warmup_sim_s"])

    def measure(self) -> None:
        self.ss.run(until=self.h["warmup_sim_s"]
                    + self.scaled("measured_sim_s", 1.0))

    def _collect(self) -> dict:
        return _merge_ring(self.ss.collect())

    def tally(self) -> dict:
        tally = super().tally()
        tally["sim.shard.windows"] = self.ss.windows
        tally["sim.shard.messages_crossed"] = self.ss.messages_crossed
        return tally

    def child_cpu(self) -> float:
        if self.ss.workers == 1:
            return 0.0  # the shards share this process's clock
        return sum(part["cpu_seconds"] for part in self.ss.collect())

    def close(self) -> None:
        if self.ss is not None:
            self.ss.close()


class RingShard2w(RingShard4):
    """The same four shards in forked worker processes on two cores: what
    a user of ``workers=2`` gets.  Not one of the benchmark's workloads —
    on a shared 2-vCPU sandbox its wall time moved 3-25 % between runs of
    one commit — but the ledger runs it on request (``--workload``)."""

    name = "ring512_shard2w"
    workers = 2


# ----------------------------------------------------------------------
# 3. Control plane only: a 6x6 DV grid under link flaps
# ----------------------------------------------------------------------
class DvGridChurn(Scenario):
    name = "dv_grid_churn"
    SIDE = 6

    def setup(self) -> None:
        net = self.net = Internet(seed=self.seed)
        side = self.SIDE
        grid = {(r, c): net.gateway(f"G{r}x{c}")
                for r in range(side) for c in range(side)}
        for (r, c), gateway in grid.items():
            for peer in ((r, c + 1), (r + 1, c)):
                if peer in grid:
                    net.connect(gateway, grid[peer],
                                bandwidth_bps=1_544_000.0, delay=0.002)
        for (r, c), gateway in grid.items():
            net.lan(f"lan{r}x{c}", [gateway, net.host(f"H{r}x{c}")])
        net.start_routing(protocol="dv", period=2.0)
        net.converge(settle=self.h["settle_sim_s"])

    def _hops(self) -> int:
        return sum(s.forwarded + s.delivered for s in self.node_stats)

    def _flap(self) -> None:
        if not self.flapping:
            return
        net, sim = self.net, self.net.sim
        link = self.flap_rng.choice(net.links)
        every = self.h["flap_every_sim_s"]
        net.fail_link(link)
        sim.call_at(sim.now + every / 2, lambda: net.restore_link(link))
        sim.call_at(sim.now + every, self._flap)

    def measure(self) -> None:
        # How much routing work one flap causes depends on the link and on
        # update timing (2.4-3.9 s of host time for six flaps across seeds),
        # so the fixed work here is a count of datagram-hops, not a horizon:
        # flap until the routing protocol has moved that many updates.
        sim = self.net.sim
        self.flap_rng = self.net.streams.stream("bench.flaps")
        self.flapping = True
        sim.call_at(sim.now + self.h["flap_every_sim_s"] / 2, self._flap)
        self.node_stats = [n.stats for n in self.net.nodes().values()]
        target = self._hops() + self.scaled("hops", 200)
        # Updates come in bursts of hundreds within a millisecond of
        # simulated time, so the stop test counts events, not time.
        step = sim.step
        while self._hops() < target:
            for _ in range(16):
                step()
        self.reached_at = sim.now

    def settle(self) -> None:
        """After the measured phase: stop flapping, mend every link and
        let routing converge, so the final tables can be checked."""
        self.flapping = False
        for link in self.net.links:
            if not link.is_up():
                self.net.restore_link(link)
        self.net.converge(settle=self.h["tail_sim_s"])

    def tally(self) -> dict:
        return _net_tally(self.net)

    def app_bytes(self) -> int:
        # No data traffic here: the "application" of this workload is the
        # routing protocol, and its payload is the advert bytes it moved.
        return sum(p.stats.bytes_sent for p in self.net.routing.values())

    def outcome(self) -> dict:
        tables = {
            name: sorted([str(r.prefix), str(r.next_hop), r.metric]
                         for r in gw.node.routes.routes())
            for name, gw in sorted(self.net.gateways.items())}
        return {"routes": tables, "reached_at": repr(self.reached_at),
                "drops": _drops_by_reason(self.net.nodes().values())}

    def checks(self) -> list:
        lans = [bus.prefix for bus in self.net.lans.values()]
        failures = []
        for name, gw in sorted(self.net.gateways.items()):
            missing = [str(p) for p in lans if p not in gw.node.routes]
            if missing:
                failures.append(f"{name} has no route to {missing} after "
                                f"the last flap")
        return failures


# ----------------------------------------------------------------------
# 4. Reliable stream: four parallel bulk transfers over three hops
# ----------------------------------------------------------------------
class TcpBulk3Hop(Scenario):
    name = "tcp_bulk_3hop"

    def setup(self) -> None:
        net = self.net = Internet(seed=self.seed)
        g1, g2 = net.gateway("G1"), net.gateway("G2")
        flows = self.h["flows"]
        self.sources = [net.host(f"S{i}") for i in range(flows)]
        self.dests = [net.host(f"D{i}") for i in range(flows)]
        # Deep queues keep the transfers lossless: with the default 64 the
        # senders overflow their own interface queue, and the workload would
        # time loss recovery that differs bimodally from seed to seed.
        deep = self.h["queue_limit"]
        for host, gateway in ([(s, g1) for s in self.sources]
                              + [(d, g2) for d in self.dests]):
            net.connect(host, gateway, bandwidth_bps=10_000_000.0,
                        delay=0.001, queue_limit=deep)
        net.connect(g1, g2, bandwidth_bps=45_000_000.0, delay=0.005,
                    queue_limit=deep)
        net.start_routing(protocol="dv", period=2.0)
        net.converge(settle=self.h["settle_sim_s"])
        self.size = self.scaled("bytes_per_flow", 10_000)
        self.done = []
        self.senders = []

    def _completed(self, result) -> None:
        self.done.append(result)
        if len(self.done) == len(self.dests):
            self.net.sim.stop()

    def measure(self) -> None:
        self.receivers = [FileReceiver(d, 21, on_complete=self._completed)
                          for d in self.dests]
        # The fill byte is the only traffic input the seed can vary
        # without changing the amount of work.
        pattern = bytes([self.seed % 251 + 1])
        self.senders = [FileSender(s, d.address, 21, self.size,
                                   pattern=pattern)
                        for s, d in zip(self.sources, self.dests)]
        self.net.sim.run()

    def tally(self) -> dict:
        return _net_tally(self.net, [s.sock.conn for s in self.senders])

    def app_bytes(self) -> int:
        return sum(r.bytes_transferred for r in self.done)

    def outcome(self) -> dict:
        flows = []
        for sender, receiver in zip(self.senders, self.receivers):
            stats = sender.sock.conn.stats
            flows.append({
                "bytes": [r.bytes_transferred for r in receiver.results],
                "completed_at": [repr(r.completed_at)
                                 for r in receiver.results],
                "retransmitted": stats.segments_retransmitted,
            })
        return {"flows": flows,
                "drops": _drops_by_reason(self.net.nodes().values())}

    def checks(self) -> list:
        failures = []
        if len(self.done) != len(self.dests):
            failures.append(f"{len(self.done)} of {len(self.dests)} "
                            f"transfers completed")
        if self.app_bytes() != len(self.dests) * self.size:
            failures.append(f"received {self.app_bytes()} B, expected "
                            f"{len(self.dests)} x {self.size} B")
        return failures


# ----------------------------------------------------------------------
# 5 + 6. Bare forwarding with fragmentation, without and with observability
# ----------------------------------------------------------------------
class FragCore(Scenario):
    name = "frag_core"
    SIZES = (64, 1100, 256, 1400)
    PORT = 9000
    observed = False

    def setup(self) -> None:
        net = self.net = Internet(seed=self.seed)
        self.h1, self.h2 = net.host("H1"), net.host("H2")
        g1, g2 = net.gateway("G1"), net.gateway("G2")
        net.connect(self.h1, g1, bandwidth_bps=10_000_000.0, delay=0.001,
                    mtu=1500)
        net.connect(g1, g2, bandwidth_bps=8_000_000.0, delay=0.002, mtu=596)
        net.connect(g2, self.h2, bandwidth_bps=10_000_000.0, delay=0.001,
                    mtu=1500)
        net.start_routing(protocol="dv", period=2.0)
        net.converge(settle=self.h["settle_sim_s"])
        if self.observed:
            net.observe()
        self.sink = UdpSink(self.h2, self.PORT)
        # Equal counts of every size in a seeded order: the seed moves the
        # input, not the amount of work.
        count = self.scaled("datagrams", 40) // len(self.SIZES)
        self.sizes = list(self.SIZES) * count
        random.Random(self.seed).shuffle(self.sizes)
        self.sent_bytes = 0

    def measure(self) -> None:
        sim = self.net.sim
        socket = self.h1.udp_socket(0)
        payloads = {size: b"\x5a" * size for size in self.SIZES}
        dst, port = self.h2.address, self.PORT
        interval = self.h["interval_sim_s"]
        pending = iter(self.sizes)

        def tick() -> None:
            size = next(pending, None)
            if size is None:
                return
            socket.sendto(payloads[size], dst, port)
            self.sent_bytes += size
            sim.post(interval, tick)

        sim.post(0.0, tick)
        sim.run(until=sim.now + len(self.sizes) * interval
                + self.h["drain_sim_s"])

    def tally(self) -> dict:
        return _net_tally(self.net)

    def app_bytes(self) -> int:
        return self.sink.bytes

    def outcome(self) -> dict:
        return {"sink": [self.sink.packets, self.sink.bytes],
                "drops": _drops_by_reason(self.net.nodes().values())}

    def checks(self) -> list:
        failures = []
        if self.sink.packets != len(self.sizes):
            failures.append(f"sink got {self.sink.packets} of "
                            f"{len(self.sizes)} datagrams")
        if self.sink.bytes != self.sent_bytes:
            failures.append(f"sink bytes {self.sink.bytes} != sent "
                            f"{self.sent_bytes}")
        return failures


class FragCoreObs(FragCore):
    name = "frag_core_obs"
    observed = True


# ----------------------------------------------------------------------
# 7. The mixed leg people actually run: one collapse-campaign cell
# ----------------------------------------------------------------------
class CollapseRedDrr(Scenario):
    name = "collapse_red_drr"

    def setup(self) -> None:
        self.net = build_ecology(EcologyConfig(
            seed=self.seed, defense="red_drr",
            broken_ases=(1, 5), aggressive_ases=(3, 7)))
        self.report = None

    def measure(self) -> None:
        net = self.net
        hubs = [net.internets[i].gateways[f"A{i}G0"].node
                .interface_by_name(f"A{i}G0.lan0").address
                for i in sorted(net.internets)]
        storm_at = self.h["storm_at_sim_s"]
        campaign = FaultCampaign(
            net, [MisbehavingHosts(storm_at, self.scaled("storm_sim_s", 0.5))],
            monitors=[TtlExhaustionMonitor(), ReconvergenceMonitor()],
            targets=hubs, name="perf-collapse-red_drr")
        self.report = campaign.run(
            until=storm_at + (self.h["until_sim_s"] - storm_at) * self.scale)

    def tally(self) -> dict:
        net = self.net
        return _tally(
            sims=[net.sim], nodes=net.nodes().values(),
            routing=[p for i in net.internets.values()
                     for p in i.routing.values()],
            conns=[s.sock.conn for s in net.senders.values()],
            schedulers=net.schedulers.values(), pool=net.packet_pool)

    def _voice_bytes(self) -> int:
        frame = VoiceCodec().frame_bytes  # the ecology's calls use the default
        return frame * sum(r.meter.received_count
                           for r in self.net.voice_receivers.values())

    def app_bytes(self) -> int:
        return (sum(s.bytes_received for s in self.net.sinks.values())
                + self._voice_bytes())

    def outcome(self) -> dict:
        net = self.net
        return {
            "tcp_bytes": {f"{a}.{g}": sink.bytes_received
                          for (a, g), sink in sorted(net.sinks.items())},
            "retransmitted": {
                f"{a}.{g}": s.sock.conn.stats.segments_retransmitted
                for (a, g), s in sorted(net.senders.items())},
            "voice_bytes": self._voice_bytes(),
            "drops": _drops_by_reason(net.nodes().values()),
            "scheduler_drops": sum(s.stats.dropped
                                   for s in net.schedulers.values()),
            "violations": self.report.violation_count,
        }

    def checks(self) -> list:
        failures = []
        if self.report.violation_count:
            failures.append(f"{self.report.violation_count} campaign "
                            f"invariant violation(s)")
        delivered = sum(s.sock.conn.stats.bytes_acked
                        for s in self.net.senders.values())
        received = sum(s.bytes_received for s in self.net.sinks.values())
        if received == 0 or delivered > received:
            failures.append(f"senders saw {delivered} B acknowledged but "
                            f"sinks counted {received} B")
        return failures


WORKLOADS = {cls.name: cls for cls in (
    RingUdp, RingShard4, RingShard2w, DvGridChurn, TcpBulk3Hop, FragCore,
    FragCoreObs, CollapseRedDrr)}
