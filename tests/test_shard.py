"""Sharded scheduler: determinism across worker counts and partitions.

The contract under test (DESIGN.md §12): ``n_shards`` is part of the
scenario, ``workers`` is not.  Same seed + same shard count must produce
byte-identical results whether the shards run in one process or one
process each; and because cross-shard conduits mirror PointToPointLink
timing exactly, even the *partition* must not change any packet outcome.
"""

import json
from types import SimpleNamespace

import pytest

from repro.harness.scaletopo import MultiAsBuilder, ScaleConfig
from repro.sim.engine import SimulationError, Simulator
from repro.sim.shard import (ConduitPort, ShardBuild, ShardedSimulation,
                             _worker_main)
from repro.netlayer.link import Interface
from repro.ip.address import Address, Prefix
from repro.ip.node import Node
from repro.ip.packet import Datagram, PROTO_UDP, TOS_ECT

# 3 gateways/AS: spoke 1 sends intra-AS, spoke 2 cross-AS — both flow
# kinds exist, so the seam actually carries traffic.
CFG = ScaleConfig(n_as=4, gateways_per_as=3, hosts_per_lan=2, seed=13)
HORIZON = 25.0


def run_scenario(n_shards: int, workers: int, cfg: ScaleConfig = CFG):
    builder = MultiAsBuilder(cfg)
    with ShardedSimulation(builder, n_shards,
                           lookahead=builder.lookahead(),
                           workers=workers) as ss:
        ss.run(until=HORIZON)
        summaries = ss.collect()
        meta = (ss.windows, ss.messages_crossed)
    for s in summaries:
        # Execution-dependent fields excluded from the determinism digest.
        s.pop("cpu_seconds", None)
    return sorted(summaries, key=lambda s: s["shard"]), meta


def digest(summaries, meta):
    return json.dumps({"shards": summaries, "meta": meta}, sort_keys=True)


def totals(summaries):
    keys = ("delivered", "forwarded", "originated", "drops",
            "sink_packets", "sink_bytes", "flows")
    return {k: sum(s[k] for s in summaries) for k in keys}


# ----------------------------------------------------------------------
# Worker-count independence (1 vs N processes, same shards)
# ----------------------------------------------------------------------
def test_forked_workers_byte_identical_to_inline():
    # Only a forked worker runs the wire codec, so this is its load test.
    for n_shards in (2, 4):
        inline, meta_i = run_scenario(n_shards=n_shards, workers=1)
        forked, meta_f = run_scenario(n_shards=n_shards, workers=2)
        assert digest(inline, meta_i) == digest(forked, meta_f), n_shards
        assert totals(inline)["sink_packets"] > 0  # traffic actually flowed
        assert meta_i[1] > 0  # and actually crossed the seam


def test_excess_workers_clamp_to_shard_count():
    builder = MultiAsBuilder(CFG)
    with ShardedSimulation(builder, 2, lookahead=builder.lookahead(),
                           workers=8) as ss:
        assert ss.workers == 2


# ----------------------------------------------------------------------
# Partition independence (the seam does not change the packets)
# ----------------------------------------------------------------------
def test_partition_does_not_change_outcomes():
    one, _ = run_scenario(n_shards=1, workers=1)
    two, _ = run_scenario(n_shards=2, workers=1)
    four, _ = run_scenario(n_shards=4, workers=1)
    assert totals(one) == totals(two) == totals(four)
    # Per-AS delivery/forward counts survive re-partitioning too.
    def per_as(summaries):
        merged = {}
        for s in summaries:
            merged.update(s["per_as"])
        return merged
    assert per_as(one) == per_as(two) == per_as(four)


def test_same_seed_same_run_repeatable():
    a = digest(*run_scenario(n_shards=2, workers=1))
    b = digest(*run_scenario(n_shards=2, workers=1))
    assert a == b


# ----------------------------------------------------------------------
# Windows, lookahead and failure modes
# ----------------------------------------------------------------------
def test_window_count_matches_lookahead():
    builder = MultiAsBuilder(CFG)
    with ShardedSimulation(builder, 2, lookahead=builder.lookahead(),
                           workers=1) as ss:
        ss.run(until=1.0)
        # W = inter_delay = 0.01 → 100 barrier rounds to reach t=1.
        assert ss.windows == 100
        assert ss.now == pytest.approx(1.0)


def test_resumable_run():
    builder = MultiAsBuilder(CFG)
    with ShardedSimulation(builder, 2, lookahead=builder.lookahead()) as ss:
        ss.run(until=12.0)
        ss.run(until=HORIZON)
        resumed = ss.collect()
    for s in resumed:
        s.pop("cpu_seconds", None)
    straight, _ = run_scenario(n_shards=2, workers=1)
    assert sorted(resumed, key=lambda s: s["shard"]) == straight


def test_lookahead_wider_than_conduit_delay_is_detected():
    builder = MultiAsBuilder(CFG)
    with ShardedSimulation(builder, 2, lookahead=0.5, workers=1) as ss:
        with pytest.raises(SimulationError, match="lookahead"):
            ss.run(until=HORIZON)


def test_constructor_validation():
    builder = MultiAsBuilder(CFG)
    with pytest.raises(ValueError):
        ShardedSimulation(builder, 0, lookahead=0.01)
    with pytest.raises(ValueError):
        ShardedSimulation(builder, 2, lookahead=0.0)


def test_single_host_lans_still_carry_traffic():
    """hosts_per_lan=1 used to KeyError in _start_traffic (no H1 host).

    Single-host LANs now source flows from the sink host itself; the
    scenario must build, run, and actually deliver packets.
    """
    cfg = ScaleConfig(n_as=2, gateways_per_as=3, hosts_per_lan=1, seed=13)
    summaries, meta = run_scenario(n_shards=2, workers=1, cfg=cfg)
    assert totals(summaries)["sink_packets"] > 0
    assert meta[1] > 0  # cross-AS flows still cross the seam


def test_use_after_close_raises_cleanly():
    builder = MultiAsBuilder(CFG)
    ss = ShardedSimulation(builder, 2, lookahead=builder.lookahead(),
                           workers=2)
    ss.run(until=1.0)
    ss.close()
    with pytest.raises(SimulationError, match="closed"):
        ss.collect()
    with pytest.raises(SimulationError, match="closed"):
        ss.run(until=2.0)


def test_conduit_requires_positive_delay():
    sim = Simulator()
    prefix = Prefix(Address("10.254.0.0"), 30)
    iface = Interface("x.east", Address("10.254.0.1"), prefix)
    with pytest.raises(ValueError, match="positive delay"):
        ConduitPort(sim, iface, dst_shard=1, dst_port="p", outbox=[],
                    delay=0.0)


def test_conduit_hands_off_the_transmitted_datagram():
    """In process, a datagram crosses the seam as itself, with p2p timing:
    the outbox record holds the object the sender transmitted."""
    sim = Simulator()
    prefix = Prefix(Address("10.254.0.0"), 30)
    iface = Interface("x.east", Address("10.254.0.1"), prefix)
    outbox = []
    port = ConduitPort(sim, iface, dst_shard=1, dst_port="as1.west",
                       outbox=outbox, bandwidth_bps=56_000.0, delay=0.01)
    d = Datagram(src=Address("10.0.0.1"), dst=Address("10.1.0.1"),
                 protocol=17, payload=b"x" * 100, trace_id=9)
    port.transmit(iface, d, None)
    [(arrival, dst_shard, dst_port, datagram)] = outbox
    assert (dst_shard, dst_port) == (1, "as1.west") and datagram is d
    tx = (d.total_length + ConduitPort.FRAME_OVERHEAD) * 8.0 / 56_000.0
    assert arrival == pytest.approx(tx + 0.01)


class ScriptedPipe:
    """The worker's end of a pipe, scripted: ``recv`` hands out
    ``commands`` in order, ``send`` keeps what the worker replies."""

    def __init__(self, *commands):
        self.commands = list(commands)
        self.sent = []

    def recv(self):
        return self.commands.pop(0)

    def send(self, payload) -> None:
        self.sent.append(payload)

    def close(self) -> None:
        pass


class OneNodeShard:
    """A shard of one node: ``A.east`` leaves through a conduit for shard
    1's port ``as1.west`` and transmits ``outgoing`` at t=0; ``A.west`` is
    this shard's ingress port ``as0.west``; UDP arrivals are kept."""

    def __init__(self, outgoing):
        self.outgoing = outgoing
        self.received = []

    def __call__(self, shard_id, n_shards):
        sim = Simulator()
        node = Node("A", sim)
        east, west = Prefix.parse("10.254.0.0/30"), Prefix.parse("10.254.0.4/30")
        out = node.add_interface(Interface("A.east", east.host(1), east))
        ingress = node.add_interface(Interface("A.west", west.host(1), west))
        outbox = []
        ConduitPort(sim, out, dst_shard=1, dst_port="as1.west",
                    outbox=outbox, delay=0.01)
        node.register_protocol(PROTO_UDP, lambda n, d, i: self.received.append(d))
        sim.post(0.0, lambda: out.output(self.outgoing))
        return ShardBuild(net=SimpleNamespace(sim=sim),
                          ports={"as0.west": ingress}, outbox=outbox)


def test_worker_moves_wire_bytes_over_the_pipe():
    """Across a process boundary a datagram travels as RFC-791 bytes: the
    worker encodes its outbox before it replies and parses the batch it
    is sent before delivery."""
    outgoing = Datagram(src=Address("10.254.0.1"), dst=Address("10.1.0.1"),
                        protocol=PROTO_UDP, payload=b"out", ident=7,
                        trace_id=9)
    incoming = Datagram(src=Address("10.1.0.1"), dst=Address("10.254.0.5"),
                        protocol=PROTO_UDP, payload=b"in", ident=8,
                        tos=TOS_ECT, trace_id=5)
    shard = OneNodeShard(outgoing)
    pipe = ScriptedPipe(
        ("run", 0.5, [(0.02, 0, "as0.west", incoming.to_bytes(), 5)]),
        ("stop",))
    _worker_main(pipe, 0, 2, shard)
    [[(arrival, dst_shard, dst_port, wire, trace_id)]] = pipe.sent
    tx = (outgoing.total_length + ConduitPort.FRAME_OVERHEAD) * 8.0 / 56_000.0
    assert (arrival, dst_shard, dst_port) == (tx + 0.01, 1, "as1.west")
    assert type(wire) is bytes and trace_id == 9
    assert Datagram.from_bytes(wire) == outgoing.copy(trace_id=0)
    [received] = shard.received
    assert received == incoming and received is not incoming


# ----------------------------------------------------------------------
# The conduit is the link's transmit path (one traversal, DESIGN §7)
# ----------------------------------------------------------------------
class _LinkLedger(MultiAsBuilder):
    """The scale builder, also collecting per-interface link counters and
    per-sink bytes (the stock summary has neither)."""

    def __call__(self, shard_id, n_shards):
        build = super().__call__(shard_id, n_shards)
        net, stock = build.net, build.collect

        def collect():
            summary = stock()
            stats = [iface.stats for internet in net.internets.values()
                     for node in internet.nodes().values()
                     for iface in node.interfaces]
            summary["queue_drops"] = sum(s.packets_dropped_queue for s in stats)
            summary["packets_sent"] = sum(s.packets_sent for s in stats)
            summary["sinks"] = {str(key): sink.bytes
                                for key, sink in net.sinks.items()}
            return summary

        build.collect = collect
        return build


def test_saturated_seam_drops_the_same_at_any_partition():
    """A cross-shard link admits and tail-drops like the same link in one
    process.  Was: the conduit had no queue, so with the inter-AS links
    saturated 1 shard tail-dropped 6,736 datagrams (64,026 sent) and 4
    shards dropped 0 (70,762 sent).  The forked runs carry the saturated
    seam through the wire codec."""
    cfg = ScaleConfig(n_as=4, gateways_per_as=4, hosts_per_lan=2, seed=13,
                      flow_rate=200.0, inter_bandwidth=256_000.0)
    ledgers = []
    for n_shards, workers in ((1, 1), (2, 1), (4, 1), (2, 2), (4, 2)):
        builder = _LinkLedger(cfg)
        with ShardedSimulation(builder, n_shards,
                               lookahead=builder.lookahead(),
                               workers=workers) as ss:
            ss.run(until=20.0)
            summaries = ss.collect()
        sinks = {}
        for s in summaries:
            sinks.update(s["sinks"])
        ledgers.append((sum(s["queue_drops"] for s in summaries),
                        sum(s["packets_sent"] for s in summaries), sinks))
    assert all(ledger == ledgers[0] for ledger in ledgers)
    assert ledgers[0][:2] == (6736, 64026)


def observed_conduit(**kwargs):
    """A node whose only interface leaves through a conduit, watched."""
    from repro.obs.core import Observability

    sim = Simulator()
    node = Node("A", sim)
    prefix = Prefix(Address("10.254.0.0"), 30)
    iface = node.add_interface(Interface("A.east", prefix.host(1), prefix))
    node.obs = Observability(profile=False)
    outbox = []
    port = ConduitPort(sim, iface, dst_shard=1, dst_port="as1.west",
                       outbox=outbox, delay=0.01, **kwargs)
    datagram = Datagram(src=prefix.host(1), dst=Address("10.1.0.1"),
                        protocol=17, payload=b"x" * 100, trace_id=9)
    return sim, node, iface, port, outbox, datagram


def test_conduit_crossing_gets_its_link_hop_span():
    # Was: a journey went dark at the seam (no span, no dwell breakdown).
    sim, node, iface, port, outbox, datagram = observed_conduit(
        bandwidth_bps=56_000.0)
    iface.output(datagram)
    tx = (120 + ConduitPort.FRAME_OVERHEAD) * 8.0 / 56_000.0
    [span] = node.obs.journey(9)
    assert (span.node, span.kind, span.verdict, span.detail) \
        == ("A", "link", "transmitted", port.name)
    assert (span.queue_wait, span.serialization) == (0.0, tx)
    assert span.propagation == pytest.approx(0.01)
    assert iface.stats.bytes_sent == 120


def test_conduit_goes_down_and_bounds_its_queue_like_a_link():
    # Was: is_up() was constant True and nothing was ever refused.
    sim, node, iface, port, outbox, datagram = observed_conduit(
        bandwidth_bps=8000.0)
    for _ in range(70):
        iface.output(datagram)
    assert len(outbox) == port.queue_limit == 64
    assert iface.stats.packets_dropped_queue == 6
    sim.run(until=sim.now + 60.0)         # every slot released on arrival
    iface.output(datagram)
    assert len(outbox) == 65
    port.set_up(False)
    assert not iface.up
    iface.output(datagram)
    assert len(outbox) == 65
    # One flushed in flight, one refused at the door.
    assert iface.stats.packets_dropped_down == 2
    assert node.obs.journey(9)[-1].verdict == "drop-link-down"
