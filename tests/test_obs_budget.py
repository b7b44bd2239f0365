"""The per-span budget (DESIGN §10) as a noise-free gate.

Watching has to be cheap enough to leave on, so a span costs what it is:
nine values appended to a list, two Python frames inside ``repro/obs/``
(three for a link span, which also feeds the dwell histogram), nothing
formatted, no ``HopSpan`` built and no series name derived until somebody
reads.  Like ``test_hop_budget.py`` this gates counts, never wall time: on
a fixed scenario they repeat exactly, whatever the hash seed.  What the
scenario records is pinned beside the budget, so a budget bought by
recording less fails too.
"""

import cProfile
import pstats

from repro.harness.topology import Internet
from repro.ip.address import Address
from repro.obs import registry as registry_module
from repro.obs.spans import HopSpan
from repro.routing.static import add_default_route, add_static_route

DATAGRAMS = 200
SIZES = (64, 1400)          # alternating; 1400 B leaves G1 in three pieces
PORT = 9000
MAX_TRACES = 64             # small enough that most journeys are evicted


def wired_line(*, max_traces=None):
    """H1 — G1 — G2 — H2 through a 596 B core: static routes, lossless,
    nothing talking; observed when ``max_traces`` is given."""
    net = Internet(seed=7)
    h1, h2 = net.host("H1"), net.host("H2")
    g1, g2 = net.gateway("G1"), net.gateway("G2")
    edge, core, far = (
        net.connect(h1, g1, bandwidth_bps=10_000_000.0, delay=0.001, mtu=1500),
        net.connect(g1, g2, bandwidth_bps=8_000_000.0, delay=0.002, mtu=596),
        net.connect(g2, h2, bandwidth_bps=10_000_000.0, delay=0.001, mtu=1500))
    add_default_route(h1.node, edge.ends[1].address)
    add_default_route(h2.node, far.ends[0].address)
    add_static_route(g1.node, far.ends[0].prefix, core.ends[1].address)
    add_static_route(g2.node, edge.ends[0].prefix, core.ends[0].address)
    if max_traces is not None:
        net.observe(max_traces=max_traces)
    return net, h1, h2, core


def line(*, observed, datagrams=DATAGRAMS):
    """The wired line with ``datagrams`` UDP sends H1 → H2 posted, one per
    2 ms; nothing has run yet.  Returns the net and H2's list of arrivals."""
    net, h1, h2, _ = wired_line(max_traces=MAX_TRACES if observed else None)
    got = []
    h2.udp_socket(PORT, lambda payload, src, port: got.append(len(payload)))
    sock = h1.udp_socket(0)
    payloads = [b"\x5a" * size for size in SIZES]
    for i in range(datagrams):
        net.sim.post(0.002 * i, lambda i=i: sock.sendto(
            payloads[i % len(SIZES)], h2.address, PORT))
    return net, got


def profiled_run(net):
    """Run the posted traffic to completion under cProfile."""
    profile = cProfile.Profile()
    profile.enable()
    net.sim.run(until=net.sim.now + 5.0)
    profile.disable()
    return pstats.Stats(profile).stats


def frames(stats, path, *names):
    """Python-level calls of the functions in files matching ``path``
    (only those called ``names``, when given)."""
    return sum(ncalls for (filename, _, name), (_, ncalls, *_) in stats.items()
               if path in filename and (not names or name in names))


def builtin_calls_from(stats, builtin, path):
    """Calls of the C function whose profile name contains ``builtin`` made
    by code in files matching ``path``."""
    return sum(edge[0]
               for (filename, _, name), (*_, callers) in stats.items()
               if filename == "~" and builtin in name
               for (caller, _, _), edge in callers.items() if path in caller)


def hops(net):
    return sum(node.stats.forwarded + node.stats.delivered
               for node in net.nodes().values())


# ----------------------------------------------------------------------
# Nothing readable is built until somebody reads
# ----------------------------------------------------------------------
def test_recording_builds_no_read_side_form(monkeypatch):
    built = {"HopSpan": 0, "Address.__str__": 0, "_series": 0}
    span_init, address_str = HopSpan.__init__, Address.__str__
    series = registry_module._series

    def counted_span(span, *args, **kwargs):
        built["HopSpan"] += 1
        span_init(span, *args, **kwargs)

    def counted_str(address):
        built["Address.__str__"] += 1
        return address_str(address)

    def counted_series(key):
        built["_series"] += 1
        return series(key)

    monkeypatch.setattr(HopSpan, "__init__", counted_span)
    monkeypatch.setattr(Address, "__str__", counted_str)
    monkeypatch.setattr(registry_module, "_series", counted_series)

    net, got = line(observed=True)
    stats = profiled_run(net)
    assert len(got) == DATAGRAMS
    assert net.obs.spans.spans_recorded == 2100
    assert built == {"HopSpan": 0, "Address.__str__": 0, "_series": 0}
    assert builtin_calls_from(stats, "'join' of 'str'", "/repro/obs/") == 0
    assert builtin_calls_from(stats, "'append' of 'list'", "/repro/obs/") \
        == 2100                     # the probe does see this layer's builtins

    # Export derives each instrument's series name once; reading one
    # journey builds that journey's spans and renders its addresses.
    exported = net.obs.registry.to_dict()
    instruments = sum(len(exported[kind])
                      for kind in ("counters", "gauges", "histograms"))
    assert built["_series"] == instruments == 3
    newest = net.obs.spans.trace_ids()[-1]
    assert len(net.obs.journey(newest)) == 14
    assert built["HopSpan"] == 14 and built["Address.__str__"] == 2


# ----------------------------------------------------------------------
# Frames per span, per link span, per event, per counted segment
# ----------------------------------------------------------------------
def test_two_frames_per_span_three_per_link_span_one_per_event():
    net, got = line(observed=True)
    fired = net.sim.events_processed
    stats = profiled_run(net)
    assert len(got) == DATAGRAMS
    spans = net.obs.spans.spans_recorded
    link_spans = sum(iface.stats.packets_sent
                     for node in net.nodes().values()
                     for iface in node.interfaces)
    events = net.sim.events_processed - fired
    assert (spans, link_spans, events) == (2100, 1000, 1200)
    # The parent spent 3 frames per span (hop, HopSpan.__init__, append),
    # 6 per link span (+ histogram, _series, observe) and 1 per event.
    assert frames(stats, "/repro/obs/core.py") \
        + frames(stats, "/repro/obs/spans.py") == 2 * spans
    assert frames(stats, "/repro/obs/spans.py", "record") == spans
    assert frames(stats, "/repro/obs/registry.py", "observe") == link_spans
    assert frames(stats, "/repro/obs/profile.py") == events
    # One labeled counter per UDP segment out and in: lookup + inc.
    assert frames(stats, "/repro/obs/registry.py", "counter", "inc") \
        == 2 * 2 * DATAGRAMS
    # ... and nothing else per packet: what is left is the dwell histogram
    # being built on the first transmission (its 16 bucket bounds).
    assert frames(stats, "/repro/obs/") \
        - (2 * spans + link_spans + events + 4 * DATAGRAMS) == 22


# ----------------------------------------------------------------------
# What watching adds per hop, and that it stays linear
# ----------------------------------------------------------------------
def total_calls(stats):
    return sum(ncalls for _, ncalls, *_ in stats.values())


def test_observed_minus_unobserved_calls_per_hop_under_ceiling():
    """Every call (Python or C) the layer adds per hop — its own frames,
    the builtins they make, the ``sim.now`` reads and detail tuples at the
    hook sites, the engine's two ``perf_counter`` calls per event.
    Measured after the diet: 21,861 calls / 800 hops = 27.33; the parent
    spent 30,758 = 38.45 (2,100 of them ``HopSpan.__init__`` frames that
    pstats folds into another ``<string>:2`` row, so it reads 35.82 there).
    The ceiling sits 5 % above.  The counts repeat exactly, so this fails
    only when someone adds per-packet work."""
    calls = {}
    for observed in (False, True):
        net, got = line(observed=observed)
        calls[observed] = total_calls(profiled_run(net))
        assert len(got) == DATAGRAMS and hops(net) == 800
    assert (calls[True] - calls[False]) / 800 <= 28.7, calls


def test_four_times_the_datagrams_cost_four_times_the_calls():
    """Nothing per span may grow with what the store already holds (a scan,
    a sort, a re-render): 4x the datagrams, 4x the calls."""
    small, _ = line(observed=True)
    large, got = line(observed=True, datagrams=4 * DATAGRAMS)
    small_calls = total_calls(profiled_run(small))
    large_calls = total_calls(profiled_run(large))
    assert len(got) == 4 * DATAGRAMS
    assert large.obs.spans.spans_recorded == 4 * 2100
    assert large_calls <= 4.1 * small_calls, (small_calls, large_calls)


# ----------------------------------------------------------------------
# The budget is not bought by recording less
# ----------------------------------------------------------------------
def test_what_the_scenario_records_is_pinned():
    net, got = line(observed=True)
    net.sim.run(until=net.sim.now + 5.0)
    assert got == list(SIZES) * (DATAGRAMS // 2)
    obs = net.obs
    assert obs.trace_ids_allocated == DATAGRAMS
    assert obs.spans.counters() == {
        "traces_held": MAX_TRACES, "spans_recorded": 2100,
        "traces_evicted": DATAGRAMS - MAX_TRACES, "spans_truncated": 0,
        "spans_late": 0}
    exported = obs.registry.to_dict()
    assert exported["counters"] == {
        "udp_segments{direction=out,node=H1}": DATAGRAMS,
        "udp_segments{direction=in,node=H2}": DATAGRAMS}
    assert exported["gauges"] == {}
    assert exported["histograms"] == {"link_queue_wait_seconds": {
        "count": 1000, "sum": 0.2889528,
        "buckets": {
            "le_1e-06": 502, "le_4e-06": 0, "le_1.6e-05": 0, "le_6.4e-05": 0,
            "le_0.000256": 100, "le_0.001024": 298, "le_0.004096": 100,
            "le_0.016384": 0, "le_0.065536": 0, "le_0.262144": 0,
            "le_1.048576": 0, "le_4.194304": 0, "le_16.777216": 0,
            "le_67.108864": 0, "le_268.435456": 0, "le_1073.74182": 0},
        "overflow": 0}}
    assert exported["registered"]["node.G1"]["forwarded"] == DATAGRAMS
    assert exported["registered"]["node.G1"]["fragments_created"] == 300
    assert obs.profiler.event_counts() == {"(unlabeled)": 200, "link": 1000}
    # A retained journey reads back whole, rendered, and in order.
    assert obs.journey_lines(DATAGRAMS)[0] == (
        "t=0.398000 H1 originated "
        "(10.200.0.1->10.200.0.10 proto=17 len=1428)")
    assert [span.verdict for span in obs.journey(DATAGRAMS)] == [
        "originated", "transmitted", "fragmented", "transmitted",
        "transmitted", "transmitted", "forwarded", "transmitted", "forwarded",
        "transmitted", "forwarded", "transmitted", "forwarded", "delivered"]


# ----------------------------------------------------------------------
# Installed but disabled: the guards and nothing else
# ----------------------------------------------------------------------
def test_disabled_layer_costs_no_frames_and_records_nothing():
    net, got = line(observed=True)
    net.obs.disable()
    assert net.sim.profiler is None
    before = net.obs.snapshot()
    stats = profiled_run(net)
    assert len(got) == DATAGRAMS
    assert frames(stats, "/repro/obs/") == 0
    after = net.obs.snapshot()
    assert after["metrics"].pop("registered") \
        != before["metrics"].pop("registered")      # the traffic did run
    assert after == before
    assert before["spans"]["spans_recorded"] == 0
