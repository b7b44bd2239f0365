"""Tests for the packet-journey observability layer (repro.obs).

Covers the tentpole acceptance criteria directly:

* trace ids survive fragmentation and reassembly — one journey end to end;
* spans attribute drops to the right node during chaos faults
  (GatewayCrash, HostRestart);
* invariant violations carry the offending packet's hop-by-hop journey;
* the metrics registry (labels, histograms, register adapter, disabled
  null path);
* the bounded SpanStore (journey-granular eviction, per-trace truncation);
* the simulator profiler (per-component attribution, deterministic
  event counts);
* same-seed campaigns with observability embedded stay byte-identical.
"""

from __future__ import annotations

import math

import pytest

from repro import Internet
from repro.chaos.campaign import FaultCampaign
from repro.chaos.faults import GatewayCrash, HostRestart
from repro.chaos.monitors import InvariantMonitor
from repro.ip.packet import PROTO_UDP, Datagram
from repro.obs import (HopSpan, MetricsRegistry, Observability, SimProfiler,
                       SpanStore, default_buckets)
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# Topology helpers
# ----------------------------------------------------------------------
def observed_line(*, seed=3, core_mtu=1500):
    """H1 - G1 - G2 - H2 with observe() installed, routing converged."""
    net = Internet(seed=seed)
    h1, h2 = net.host("H1"), net.host("H2")
    g1, g2 = net.gateway("G1"), net.gateway("G2")
    net.connect(h1, g1, bandwidth_bps=10_000_000, delay=0.001, mtu=1500)
    net.connect(g1, g2, bandwidth_bps=1_000_000, delay=0.005, mtu=core_mtu)
    net.connect(g2, h2, bandwidth_bps=10_000_000, delay=0.001, mtu=1500)
    net.start_routing()
    net.converge(settle=8.0)
    obs = net.observe()
    return net, h1, h2, g1, g2, obs


def journeys_from(obs, origin_node):
    """Trace ids whose journey starts with an origin span at ``origin_node``."""
    out = []
    for tid in obs.spans.trace_ids():
        journey = obs.journey(tid)
        if journey and journey[0].kind == "origin" \
                and journey[0].node == origin_node:
            out.append(tid)
    return out


# ----------------------------------------------------------------------
# Trace contexts: stamping and end-to-end journeys
# ----------------------------------------------------------------------
def test_origin_stamp_and_delivery_journey():
    net, h1, h2, g1, g2, obs = observed_line()
    h1.node.send(h2.node.address, PROTO_UDP, b"x" * 64)
    net.sim.run(until=net.sim.now + 2.0)

    tids = journeys_from(obs, "H1")
    assert tids, "no journey originated at H1"
    journey = obs.journey(tids[0])
    kinds = [(s.kind, s.node) for s in journey]
    assert ("origin", "H1") == kinds[0]
    assert ("forward", "G1") in kinds and ("forward", "G2") in kinds
    assert ("deliver", "H2") == kinds[-1]
    # Link spans carry the dwell breakdown.
    link_spans = [s for s in journey if s.kind == "link"]
    assert link_spans and all(s.serialization > 0 for s in link_spans)


def test_trace_id_survives_fragmentation_and_reassembly():
    # Core MTU 596 forces G1 to fragment an 1100-byte payload.
    net, h1, h2, g1, g2, obs = observed_line(core_mtu=596)
    h1.node.send(h2.node.address, PROTO_UDP, b"y" * 1100)
    net.sim.run(until=net.sim.now + 2.0)

    tids = journeys_from(obs, "H1")
    assert len(tids) == 1, "fragments must not allocate new trace ids"
    journey = obs.journey(tids[0])
    verdicts = [s.verdict for s in journey]
    assert "fragmented" in verdicts
    # Each fragment transits the core link under the same trace id...
    core_links = [s for s in journey
                  if s.kind == "link" and s.node == "G1"]
    assert len(core_links) >= 2
    # ...and the reassembled whole is delivered once, on the same journey.
    delivers = [s for s in journey if s.kind == "deliver"]
    assert len(delivers) == 1
    assert delivers[0].node == "H2"
    assert "reassembled" in delivers[0].detail


def test_untraced_datagram_records_no_spans():
    net, h1, h2, g1, g2, obs = observed_line()
    before = obs.spans.spans_recorded
    # A raw datagram injected below send() keeps trace_id 0 on arrival.
    d = Datagram(src=h1.node.address, dst=h2.node.address,
                 protocol=PROTO_UDP, payload=b"z")
    obs.hop(net.sim.now, "H1", "origin", "originated", d)
    assert obs.spans.spans_recorded == before


def test_disabled_layer_records_nothing():
    net, h1, h2, g1, g2, obs = observed_line()
    obs.disable()
    before = obs.snapshot()
    h1.node.send(h2.node.address, PROTO_UDP, b"q" * 32)
    net.sim.run(until=net.sim.now + 2.0)
    after = obs.snapshot()
    assert after["spans"]["spans_recorded"] == \
        before["spans"]["spans_recorded"]
    assert after["trace_ids_allocated"] == before["trace_ids_allocated"]
    assert after["metrics"]["counters"] == before["metrics"]["counters"]


# ----------------------------------------------------------------------
# Chaos fault attribution
# ----------------------------------------------------------------------
def periodic_sender(net, src, dst, *, every=0.5, payload=64):
    def tick():
        src.node.send(dst.node.address, PROTO_UDP, b"p" * payload)
        net.sim.schedule(every, tick, label="test:sender")
    net.sim.schedule(every, tick, label="test:sender")


def test_gateway_crash_drops_attributed_to_gateway():
    net, h1, h2, g1, g2, obs = observed_line()
    periodic_sender(net, h1, h2, every=0.25)
    campaign = FaultCampaign(
        net, [GatewayCrash("G1", at=net.sim.now + 1.0, dwell=3.0)],
        monitors=[], name="crash-attrib")
    campaign.run(until=net.sim.now + 10.0)

    reg = obs.registry
    # While G1 is dark, packets arriving at it die with drop-node-down —
    # and the ledger names the node and the reason.
    assert reg.counter("ip_drops", node="G1",
                       reason="drop-node-down").value > 0
    # Some journey ends in that drop span at G1.
    drop_spans = [s for tid in obs.spans.trace_ids()
                  for s in obs.journey(tid)
                  if s.kind == "drop" and s.node == "G1"]
    assert any(s.verdict == "drop-node-down" for s in drop_spans)


def test_host_restart_drops_attributed_to_host():
    net, h1, h2, g1, g2, obs = observed_line()
    periodic_sender(net, h1, h2, every=0.25)
    campaign = FaultCampaign(
        net, [HostRestart("H2", at=net.sim.now + 1.0, dwell=3.0)],
        monitors=[], name="restart-attrib")
    campaign.run(until=net.sim.now + 10.0)

    assert obs.registry.counter("ip_drops", node="H2",
                                reason="drop-node-down").value > 0
    drop_spans = [s for tid in obs.spans.trace_ids()
                  for s in obs.journey(tid)
                  if s.kind == "drop" and s.node == "H2"]
    assert any(s.verdict == "drop-node-down" for s in drop_spans)


# ----------------------------------------------------------------------
# Violations carry the offending packet's journey
# ----------------------------------------------------------------------
def test_violation_attaches_journey():
    net, h1, h2, g1, g2, obs = observed_line()
    h1.node.send(h2.node.address, PROTO_UDP, b"v" * 64)
    net.sim.run(until=net.sim.now + 2.0)
    tid = journeys_from(obs, "H1")[0]

    monitor = InvariantMonitor()
    monitor.attach(net, campaign=None)
    offending = Datagram(src=h1.node.address, dst=h2.node.address,
                         protocol=PROTO_UDP, trace_id=tid)
    monitor.violate("synthetic breach", datagram=offending)

    v = monitor.violations[0]
    assert v.journey, "violation must carry the journey"
    assert v.journey == tuple(obs.journey_lines(tid))
    # Journey lines name nodes and verdicts end to end.
    assert any("H1" in line and "originated" in line for line in v.journey)
    assert any("H2" in line and "delivered" in line for line in v.journey)
    assert v.to_dict()["journey"] == list(v.journey)


def test_violation_without_datagram_has_empty_journey():
    net, h1, h2, g1, g2, obs = observed_line()
    monitor = InvariantMonitor()
    monitor.attach(net, campaign=None)
    monitor.violate("no packet in hand")
    assert monitor.violations[0].journey == ()


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_registry_labeled_counters_and_totals():
    reg = MetricsRegistry()
    reg.counter("drops", node="A", reason="ttl").inc()
    reg.counter("drops", node="A", reason="ttl").inc()
    reg.counter("drops", node="B", reason="queue").inc(3)
    assert reg.counter("drops", node="A", reason="ttl").value == 2
    assert reg.counter_total("drops") == 5
    snap = reg.to_dict()["counters"]
    assert snap["drops{node=A,reason=ttl}"] == 2
    assert snap["drops{node=B,reason=queue}"] == 3


def test_counter_total_filters_on_labels_not_on_strings():
    reg = MetricsRegistry()
    reg.counter("ip_drops", node="G1", reason="drop-ttl").inc(2)
    reg.counter("ip_drops", node="G1", reason="drop-df").inc(3)
    reg.counter("ip_drops", node="G10", reason="drop-ttl").inc(40)
    reg.counter("ip_drops").inc(500)                 # no labels at all
    reg.counter("ip_drops_other", node="G1").inc(6000)
    assert reg.counter_total("ip_drops", node="G1") == 5       # never G10
    assert reg.counter_total("ip_drops", node="G10") == 40
    assert reg.counter_total("ip_drops", reason="drop-ttl") == 42
    assert reg.counter_total("ip_drops", reason="drop-ttl", node="G1") == 2
    assert reg.counter_total("ip_drops") == 545
    assert reg.counter_total("ip_drops", node="G2") == 0
    assert reg.counter_total("ip_drops", colour="red") == 0    # unknown label
    assert reg.counter_total("nothing") == 0
    assert list(reg.counters("ip_drops_other")) == [({"node": "G1"}, 6000)]
    assert [labels for labels, _ in reg.counters("ip_drops")][-1] == {}


def test_series_names_are_an_export_format():
    """Label order at the call site names the same instrument, and the
    export keeps order of first use with sorted label keys."""
    reg = MetricsRegistry()
    reg.counter("seg", node="B", direction="out").inc()
    reg.counter("seg", direction="out", node="B").inc()
    reg.counter("seg", node="A", direction="in").inc()
    reg.gauge("depth", iface="x").set(3.0)
    reg.histogram("wait", link="l1").observe(0.5)
    exported = reg.to_dict()
    assert list(exported["counters"].items()) == [
        ("seg{direction=out,node=B}", 2), ("seg{direction=in,node=A}", 1)]
    assert exported["gauges"] == {"depth{iface=x}": 3.0}
    assert list(exported["histograms"]) == ["wait{link=l1}"]
    assert "seg{direction=out,node=B}" in reg.table().render()


def test_mib_drops_total_is_the_sum_of_the_nodes_drop_series():
    from repro.netmgmt.mib import build_mib
    net, h1, h2, g1, g2, obs = observed_line()
    g10 = net.gateway("G10")                     # a name G1 is a prefix of
    obs.registry.counter("ip_drops", node="G10", reason="drop-ttl").inc(7)
    h1.node.send("203.0.113.5", PROTO_UDP, b"nowhere")           # no route
    h1.node.send(h2.node.address, PROTO_UDP, b"expires", ttl=1)  # dies at G1
    net.sim.run(until=net.sim.now + 2.0)
    by_reason = {labels["reason"]: value
                 for labels, value in obs.registry.counters("ip_drops")
                 if labels["node"] == "G1"}
    assert by_reason == {"drop-no-route": 1, "drop-ttl": 1}
    assert build_mib(g1.node).get("metrics.ip_drops_total") == 2
    assert build_mib(g10.node).get("metrics.ip_drops_total") == 7
    assert build_mib(g2.node).get("metrics.ip_drops_total") == 0


def test_registry_histogram_buckets_and_quantiles():
    reg = MetricsRegistry()
    h = reg.histogram("dwell")
    for v in (2e-6, 2e-6, 1e-3, 0.5):
        h.observe(v)
    assert h.count == 4
    assert h.mean == pytest.approx((2e-6 + 2e-6 + 1e-3 + 0.5) / 4)
    assert h.quantile(0.5) <= h.quantile(1.0)
    d = h.to_dict()
    assert sum(d["buckets"].values()) + d["overflow"] == 4


def test_histogram_overflow_bucket():
    h = MetricsRegistry().histogram("x", bounds=(1.0, 2.0))
    h.observe(10.0)
    assert h.to_dict()["overflow"] == 1
    assert h.quantile(1.0) == math.inf


def test_default_buckets_span_microseconds_to_kiloseconds():
    b = default_buckets()
    assert b[0] == pytest.approx(1e-6)
    assert b[-1] > 1000


def test_registry_disabled_returns_null_instruments():
    reg = MetricsRegistry(enabled=False)
    c = reg.counter("x", node="A")
    c.inc()
    reg.histogram("y").observe(1.0)
    reg.gauge("z").set(5.0)
    assert len(reg) == 0
    assert reg.to_dict() == {"counters": {}, "gauges": {},
                             "histograms": {}, "registered": {}}


def test_register_adapter_snapshots_live_objects():
    class Stats:
        def __init__(self):
            self.sent = 0
            self._private = 99

    reg = MetricsRegistry()
    s = Stats()
    reg.register("comp", s)
    s.sent = 7
    snap = reg.to_dict()["registered"]["comp"]
    assert snap == {"sent": 7}  # live value, private attrs excluded


def test_register_adapter_accepts_providers_and_dicts():
    reg = MetricsRegistry()
    box = {"n": 1}
    reg.register("provider", lambda: {"n": box["n"], "skip": object()})
    reg.register("plain", {"k": 2})
    box["n"] = 5
    snap = reg.to_dict()["registered"]
    assert snap["provider"] == {"n": 5}   # provider called at export time
    assert snap["plain"] == {"k": 2}


# ----------------------------------------------------------------------
# SpanStore bounds
# ----------------------------------------------------------------------
def span(tid, t=0.0):
    return HopSpan(tid, t, "N", "forward", "forwarded")


def test_span_store_evicts_whole_oldest_journeys():
    store = SpanStore(max_traces=3)
    for tid in (1, 2, 3):
        store.append(span(tid))
        store.append(span(tid, 1.0))
    store.append(span(4))
    assert store.trace_ids() == [2, 3, 4]
    assert store.journey(1) == []          # evicted journey fully gone
    assert store.traces_evicted == 1
    assert len(store.journey(2)) == 2      # retained journeys stay whole


def test_late_span_neither_evicts_nor_resurrects():
    """A span for a journey that was already evicted (a datagram parked in
    a queue, a reassembly timeout) used to re-create it headless and evict
    the oldest complete journey to make room."""
    store = SpanStore(max_traces=2)
    for tid in (1, 2, 3):
        store.append(HopSpan(tid, 0.0, "H", "origin", "originated"))
    assert store.trace_ids() == [2, 3] and store.traces_evicted == 1
    store.append(span(1, 9.0))                    # late: journey 1 is gone
    assert store.trace_ids() == [2, 3]
    assert store.journey(1) == []
    assert [s.kind for s in store.journey(2)] == ["origin"]
    assert store.counters() == {
        "traces_held": 2, "spans_recorded": 3, "traces_evicted": 1,
        "spans_truncated": 0, "spans_late": 1}
    store.append(span(3, 9.5))                    # a held journey still grows
    store.append(span(4))                         # and a new one still evicts
    assert store.trace_ids() == [3, 4] and len(store.journey(3)) == 2
    assert store.spans_late == 1 and store.traces_evicted == 2


def test_span_store_needs_room_for_one_journey():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            SpanStore(max_traces=bad)
        with pytest.raises(ValueError):
            Internet(seed=1).observe(max_traces=bad)
    store = SpanStore(max_traces=1)
    store.append(span(1))
    store.append(span(2))
    assert store.trace_ids() == [2]


def test_detail_is_rendered_when_read_from_values_captured_at_record():
    net, h1, h2, g1, g2, obs = observed_line()
    d = Datagram(src=h1.node.address, dst=h2.node.address,
                 protocol=PROTO_UDP, payload=b"z", ttl=9)
    obs.origin(1.0, "H1", d, ("[%s] %s->%s", "100% label", d.src, d.dst))
    obs.hop(2.0, "G1", "forward", "forwarded", d, ("ttl=%s", d.ttl))
    obs.hop(3.0, "G1", "forward", "forwarded", d, "plain %s text")
    d.ttl, d.src = 1, d.dst              # the datagram moves on; rows do not
    details = [s.detail for s in obs.journey(d.trace_id)]
    assert details == [f"[100% label] {h1.node.address}->{h2.node.address}",
                       "ttl=9", "plain %s text"]
    assert obs.journey(d.trace_id) == obs.journey(d.trace_id)   # re-readable
    assert all(isinstance(s, HopSpan) for s in obs.spans)


def test_span_store_truncates_pathological_journeys():
    store = SpanStore(max_traces=8)
    for i in range(SpanStore.MAX_SPANS_PER_TRACE + 10):
        store.append(span(1, float(i)))
    assert len(store.journey(1)) == SpanStore.MAX_SPANS_PER_TRACE
    assert store.spans_truncated == 10


def test_span_store_jsonl_roundtrip(tmp_path):
    import json
    store = SpanStore()
    store.append(HopSpan(1, 0.5, "A", "origin", "originated", "d",
                         0.001, 0.002, 0.003))
    path = store.export_jsonl(tmp_path / "spans.jsonl")
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["node"] == "A" and rec["queue_wait"] == 0.001


# ----------------------------------------------------------------------
# Simulator profiling
# ----------------------------------------------------------------------
def test_profiler_attributes_events_per_component():
    sim = Simulator()
    prof = SimProfiler()
    sim.profiler = prof
    sim.schedule(1.0, lambda: None, label="tcp:rto")
    sim.schedule(2.0, lambda: None, label="tcp:ack")
    sim.schedule(3.0, lambda: None, label="link:a<->b")
    sim.run()
    by_comp = prof.by_component()
    assert by_comp["tcp"][0] == 2
    assert by_comp["link"][0] == 1
    assert prof.event_counts() == {"link": 1, "tcp": 2}
    table = prof.table().render()
    assert "tcp" in table and "link" in table
    # Totals are sums over what is stored per label.
    assert prof.events == 3
    assert prof.wall == pytest.approx(
        sum(wall for _, wall in prof.by_handler().values()))
    assert "3 events" in table
    prof.clear()
    assert prof.events == 0 and prof.wall == 0.0


def test_profiler_wall_time_is_positive_but_excluded_from_counts():
    sim = Simulator()
    prof = SimProfiler()
    sim.profiler = prof
    sim.schedule(0.0, lambda: sum(range(1000)), label="work:busy")
    sim.run()
    count, wall = prof.by_component()["work"]
    assert count == 1 and wall > 0.0
    # event_counts (what reports embed) carries no wall time.
    assert prof.event_counts() == {"work": 1}


def test_unprofiled_simulator_has_no_overhead_attribute_surprises():
    sim = Simulator()
    assert sim.profiler is None
    sim.schedule(0.0, lambda: None)
    sim.run()  # simply must not raise


# ----------------------------------------------------------------------
# Determinism: same seed, same bytes, with obs embedded
# ----------------------------------------------------------------------
def run_observed_campaign(seed):
    from repro.chaos.campaigns import build_default_net
    from repro.chaos.random_chaos import RandomChaos
    net = build_default_net(seed)
    net.observe()
    chaos = RandomChaos(net, budget=3, rate=0.25, start=net.sim.now + 2.0)
    report = chaos.campaign(name="determinism").run()
    return report, net.obs


def test_same_seed_observed_campaigns_byte_identical():
    r1, obs1 = run_observed_campaign(11)
    r2, obs2 = run_observed_campaign(11)
    assert r1.to_json() == r2.to_json()
    assert "\n".join(obs1.spans.to_jsonl_lines()) == \
        "\n".join(obs2.spans.to_jsonl_lines())
    # The report embeds the obs snapshot (metrics + span health).
    d = r1.to_dict()
    assert "obs" in d["counters"]
    assert d["counters"]["obs"]["spans"]["spans_recorded"] > 0


def test_observe_is_idempotent_and_attaches_late_nodes():
    net = Internet(seed=1)
    obs = net.observe()
    assert net.observe() is obs
    h = net.host("late")
    assert h.node.obs is obs
    assert "node.late" in net.obs.registry.to_dict()["registered"]


def test_histogram_percentiles_bracket_known_distribution():
    """Quantiles of 1..1000 with decade bounds: each estimate is the
    upper bound of the bucket holding the true quantile — never below
    the true value, never above the next bound."""
    h = MetricsRegistry().histogram(
        "known", bounds=(1.0, 10.0, 100.0, 1000.0))
    for v in range(1, 1001):
        h.observe(float(v))
    # True p50 = 500 -> bucket (100, 1000]; p95 = 950 -> same bucket.
    p = h.percentiles()
    assert set(p) == {"p50", "p95", "p99"}
    assert p["p50"] == 1000.0
    assert p["p95"] == 1000.0
    assert p["p99"] == 1000.0
    # A tight low quantile lands in the right decade.
    assert h.quantile(0.01) == 10.0      # true value 10, bound 10
    assert h.quantile(0.001) == 1.0      # true value 1, first bucket
    # Monotone in q, always.
    qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    estimates = [h.quantile(q) for q in qs]
    assert estimates == sorted(estimates)


def test_histogram_percentiles_key_naming_and_custom_qs():
    h = MetricsRegistry().histogram("x", bounds=(1.0,))
    h.observe(0.5)
    p = h.percentiles((0.5, 0.999))
    assert set(p) == {"p50", "p99.9"}
    assert p["p50"] == 1.0


def test_histogram_quantile_edge_cases():
    h = MetricsRegistry().histogram("empty", bounds=(1.0, 2.0))
    assert h.quantile(0.5) == 0.0          # empty histogram
    assert h.percentiles()["p99"] == 0.0
    with pytest.raises(ValueError):
        h.quantile(1.5)
    with pytest.raises(ValueError):
        h.quantile(-0.1)


def test_null_histogram_quantiles_are_zero():
    reg = MetricsRegistry(enabled=False)
    h = reg.histogram("off")
    h.observe(123.0)
    assert h.quantile(0.99) == 0.0
    assert h.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
