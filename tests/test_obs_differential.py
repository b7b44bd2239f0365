"""Render-on-read is differential against render-at-record.

The span store keeps rows and renders them — ``HopSpan``, formatted detail —
only when a journey is read (DESIGN §10, "The per-span budget").  That is
safe only while every hook hands the store *values captured at record
time*, never the datagram, whose fields keep changing after the hook
returns.  So the store the layer replaced is kept here as the oracle: it
builds the ``HopSpan`` and renders the detail the moment a span is recorded.
The test taps ``SpanStore.record`` to feed it, lets random traffic run to the
end — sizes either side of the core MTU, TTLs that expire on the way,
``dont_fragment``, a core link that fails mid-run, an unroutable destination,
a labelled control-plane origin — then *scribbles over every datagram any
hook saw* and requires the lazy store's exports to equal the eager lines
byte for byte, and its eviction, truncation and late-span counts to match.
"""

import json
from collections import OrderedDict
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.ip.address import Address
from repro.ip.packet import PROTO_UDP
from repro.obs.core import Observability
from repro.obs.spans import HopSpan, SpanStore
from test_obs_budget import wired_line

NOWHERE = Address("203.0.113.5")


# ----------------------------------------------------------------------
# The oracle: the eager store, verbatim from the parent commit, plus the
# late-span rule this PR added to both
# ----------------------------------------------------------------------
class EagerStore:
    def __init__(self, max_traces, max_spans_per_trace):
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self._journeys = OrderedDict()
        self._newest_evicted = 0
        self.spans_recorded = 0
        self.traces_evicted = 0
        self.spans_truncated = 0
        self.spans_late = 0

    def append(self, span):
        journey = self._journeys.get(span.trace_id)
        if journey is None:
            if span.trace_id <= self._newest_evicted:
                self.spans_late += 1
                return
            if len(self._journeys) >= self.max_traces:
                self._newest_evicted = self._journeys.popitem(last=False)[0]
                self.traces_evicted += 1
            journey = self._journeys[span.trace_id] = []
        if len(journey) >= self.max_spans_per_trace:
            self.spans_truncated += 1
            return
        journey.append(span)
        self.spans_recorded += 1

    def counters(self):
        return {"traces_held": len(self._journeys),
                "spans_recorded": self.spans_recorded,
                "traces_evicted": self.traces_evicted,
                "spans_truncated": self.spans_truncated,
                "spans_late": self.spans_late}


def rendered_now(trace_id, time, node, kind, verdict, detail="", *dwell):
    """What the parent built per span: the detail formatted on the spot."""
    if not isinstance(detail, str):
        detail = detail[0] % detail[1:]
    return HopSpan(trace_id, time, node, kind, verdict, detail, *dwell)


class Tap:
    """Feeds every recorded row, rendered at once, to the oracle — as JSONL
    and journey lines too, so no ``HopSpan`` is read later than its span —
    and keeps every datagram a hook was handed."""

    def __init__(self, max_traces, max_spans_per_trace):
        self.oracle = EagerStore(max_traces, max_spans_per_trace)
        self.jsonl, self.described, self.datagrams = {}, {}, []
        self.rows = 0
        tap, record = self, SpanStore.record

        def tapped_record(store, *row):
            span = rendered_now(*row)
            tap.rows += 1
            tap.jsonl[span] = json.dumps(span.to_dict(), sort_keys=True,
                                         separators=(",", ":"))
            tap.described[span] = span.describe()
            tap.oracle.append(span)
            record(store, *row)

        def keeping(method, position):
            def hook(obs, *args):
                tap.datagrams.append(args[position])
                method(obs, *args)
            return hook

        self.patches = [
            mock.patch.object(SpanStore, "record", tapped_record),
            mock.patch.object(SpanStore, "MAX_SPANS_PER_TRACE",
                              max_spans_per_trace),
            *(mock.patch.object(Observability, name,
                                keeping(getattr(Observability, name), at))
              for name, at in (("origin", 2), ("hop", 4), ("drop", 3),
                               ("link_hop", 2)))]

    def __enter__(self):
        for patch in self.patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in reversed(self.patches):
            patch.stop()

    def scribble(self):
        """The worst a later hop could do to a datagram a span was about."""
        for datagram in self.datagrams:
            datagram.src = datagram.dst = Address(0)
            datagram.ttl, datagram.tos, datagram.protocol = 0, 0xFF, 0xFF
            datagram.payload = b""

    def oracle_jsonl(self):
        return [self.jsonl[span] for journey in self.oracle._journeys.values()
                for span in journey]

    def oracle_journey_lines(self, trace_id):
        return [self.described[span]
                for span in self.oracle._journeys.get(trace_id, ())]


# ----------------------------------------------------------------------
# Random traffic
# ----------------------------------------------------------------------
datagrams = st.lists(st.fixed_dictionaries({
    "size": st.sampled_from([1, 64, 576, 577, 1100, 1400]),
    "ttl": st.sampled_from([1, 2, 32, 32]),
    "dont_fragment": st.booleans(),
    "unroutable": st.sampled_from([False, False, True]),
    "label": st.sampled_from([None, None, "dv-update", "100% probe"]),
    "gap_ms": st.sampled_from([0, 0, 1, 20]),
}), min_size=1, max_size=12)


@given(datagrams=datagrams,
       max_traces=st.sampled_from([1, 2, 5, 4096]),
       max_spans_per_trace=st.sampled_from([3, 8, 256]),
       core_fails_at_ms=st.sampled_from([None, 0, 3, 15]))
@settings(max_examples=60, deadline=None)
def test_lazy_store_exports_what_the_eager_store_rendered(
        datagrams, max_traces, max_spans_per_trace, core_fails_at_ms):
    with Tap(max_traces, max_spans_per_trace) as tap:
        net, h1, h2, core = wired_line(max_traces=max_traces)
        h2.udp_socket(9000, lambda payload, src, port: None)
        at = 0.0
        for spec in datagrams:
            at += spec["gap_ms"] / 1000.0
            net.sim.post(at, lambda spec=spec: h1.node.send(
                NOWHERE if spec["unroutable"] else h2.address, PROTO_UDP,
                b"\x5a" * spec["size"], ttl=spec["ttl"],
                dont_fragment=spec["dont_fragment"],
                trace_label=spec["label"]))
        if core_fails_at_ms is not None:
            net.sim.post(core_fails_at_ms / 1000.0,
                         lambda: net.fail_link(core))
        # Past the reassembly timeout, so held fragments expire on the books.
        net.sim.run(until=net.sim.now + 40.0)
        store = net.obs.spans
        tap.scribble()

        assert store.counters() == tap.oracle.counters()
        assert store.trace_ids() == list(tap.oracle._journeys)
        assert store.to_jsonl_lines() == tap.oracle_jsonl()
        for trace_id in store.trace_ids():
            assert store.journey_lines(trace_id) \
                == tap.oracle_journey_lines(trace_id)
            assert store.to_jsonl_lines(trace_id) == [
                tap.jsonl[span] for span in tap.oracle._journeys[trace_id]]
        assert store.spans_recorded + store.spans_truncated \
            + store.spans_late == tap.rows > 0


def test_the_tap_would_catch_a_hook_that_kept_the_datagram():
    """The differential has teeth: a detail that holds the datagram (here
    through its ``repr``) renders differently once the datagram moves on."""
    with Tap(4096, 256) as tap:
        net, h1, h2, _ = wired_line(max_traces=4096)
        h1.node.send(h2.address, PROTO_UDP, b"x" * 64)
        net.sim.run(until=net.sim.now + 1.0)
        datagram = tap.datagrams[-1]
        net.obs.hop(net.sim.now, "H2", "deliver", "delivered", datagram,
                    ("seen %r", datagram))
        tap.scribble()
        assert net.obs.spans.to_jsonl_lines()[:-1] == tap.oracle_jsonl()[:-1]
        assert net.obs.spans.to_jsonl_lines()[-1] != tap.oracle_jsonl()[-1]
