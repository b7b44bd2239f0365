"""Datagram fast-path microbenchmark (goal 5: cost effectiveness).

Measures the three hot loops the fast path rewrote, each against its
retained reference implementation:

* **checksum** — vectorized :func:`internet_checksum` vs the per-word
  reference loop, in MB/s over MTU-sized buffers;
* **LPM** — cached :meth:`RouteTable.lookup` (repeat destinations) vs the
  uncached longest-prefix scan, in lookups/s, and ``lookup(Address)`` vs
  ``lookup(str)`` on the same hot set (the ``Address`` form is what every
  forwarded datagram pays and must never be the slower one);
* **events** — :class:`Simulator` schedule/fire throughput, plus a
  cancel-heavy timer workload exercising lazy-deletion heap compaction,
  in events/s.

Writes ``BENCH_fastpath.json`` at the repo root so later PRs have a
perf trajectory to defend.  Run directly::

    PYTHONPATH=src python benchmarks/bench_fastpath.py [--quick]

``--quick`` shrinks iteration counts for CI smoke runs (results are then
noisy; the committed JSON should come from a full run).
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from repro.ip.address import Address, Prefix
from repro.ip.checksum import (
    internet_checksum,
    internet_checksum_reference,
    verify_checksum,
    verify_checksum_reference,
)
from repro.ip.forwarding import Route, RouteTable
from repro.sim.engine import Simulator

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_fastpath.json"


class _FakeInterface:
    """Stand-in for netlayer Interface; forwarding only reads ``.name``."""

    def __init__(self, name: str):
        self.name = name


def _bench(fn, *, min_time: float) -> tuple[float, int]:
    """Run ``fn`` repeatedly for ~min_time seconds; return (secs, reps)."""
    reps = 0
    start = time.perf_counter()
    while True:
        fn()
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_time:
            return elapsed, reps


# ----------------------------------------------------------------------
# 1. Checksum throughput
# ----------------------------------------------------------------------
def bench_checksum(quick: bool) -> dict:
    size = 1500  # MTU-sized buffer: the per-packet unit of work
    data = bytes(range(256)) * 6  # 1536 B, trim:
    data = data[:size]
    assert internet_checksum(data) == internet_checksum_reference(data)
    assert verify_checksum(data) == verify_checksum_reference(data)
    min_time = 0.2 if quick else 1.0

    batch = 64

    def run_fast():
        for _ in range(batch):
            internet_checksum(data)

    def run_ref():
        for _ in range(batch):
            internet_checksum_reference(data)

    fast_s, fast_reps = _bench(run_fast, min_time=min_time)
    ref_s, ref_reps = _bench(run_ref, min_time=min_time)
    fast_mbs = fast_reps * batch * size / fast_s / 1e6
    ref_mbs = ref_reps * batch * size / ref_s / 1e6
    return {
        "buffer_bytes": size,
        "reference_mb_s": round(ref_mbs, 2),
        "vectorized_mb_s": round(fast_mbs, 2),
        "speedup": round(fast_mbs / ref_mbs, 2),
    }


# ----------------------------------------------------------------------
# 2. Longest-prefix-match lookups
# ----------------------------------------------------------------------
def bench_lpm(quick: bool) -> dict:
    table = RouteTable()
    iface = _FakeInterface("eth0")
    # A realistically mixed table: /8 .. /28 prefixes over many networks.
    n_routes = 0
    for length in (8, 12, 16, 20, 24, 28):
        for i in range(32):
            net = (10 << 24) | (i << (32 - length)) if length > 8 else (i + 1) << 24
            prefix = Prefix.of(Address(net & 0xFFFFFFFF), length)
            table.install(Route(prefix=prefix, interface=iface))
            n_routes += 1
    # Repeat-destination working set (the fast-path case the cache targets).
    dests = [Address((10 << 24) | (i << 8) | 7) for i in range(64)]
    for d in dests:
        table.lookup(d)  # warm the cache
    min_time = 0.2 if quick else 1.0

    def run_cached():
        lookup = table.lookup
        for d in dests:
            lookup(d)

    def run_uncached():
        lookup = table.lookup_uncached
        for d in dests:
            lookup(d)

    literals = [str(d) for d in dests]

    def run_cached_str():
        lookup = table.lookup
        for text in literals:
            lookup(text)

    cached_s, cached_reps = _bench(run_cached, min_time=min_time)
    uncached_s, uncached_reps = _bench(run_uncached, min_time=min_time)
    str_s, str_reps = _bench(run_cached_str, min_time=min_time)
    cached_rate = cached_reps * len(dests) / cached_s
    uncached_rate = uncached_reps * len(dests) / uncached_s
    str_rate = str_reps * len(dests) / str_s
    # lookup(Address) once copy-constructed its argument before probing;
    # handing over a ready Address must cost no more than a literal to parse.
    assert cached_rate >= str_rate, (
        f"lookup(Address) {cached_rate:.0f}/s slower than "
        f"lookup(str) {str_rate:.0f}/s")
    return {
        "routes": n_routes,
        "working_set": len(dests),
        "uncached_lookups_s": round(uncached_rate),
        "cached_lookups_s": round(cached_rate),
        "cached_str_lookups_s": round(str_rate),
        "speedup": round(cached_rate / uncached_rate, 2),
    }


# ----------------------------------------------------------------------
# 3. Event engine throughput
# ----------------------------------------------------------------------
def bench_events(quick: bool) -> dict:
    n = 20_000 if quick else 200_000

    # Plain schedule/fire throughput.
    sim = Simulator()
    start = time.perf_counter()
    for i in range(n):
        sim.schedule(i * 1e-6, lambda: None)
    sim.run()
    fire_s = time.perf_counter() - start
    fire_rate = n / fire_s

    # Cancel-heavy timer workload: every "timer" is rescheduled (cancel +
    # schedule) many times before finally firing — the pattern TCP RTO
    # timers produce.  Compaction keeps the heap near the live count.
    sim2 = Simulator()
    handles = []
    start = time.perf_counter()
    ops = 0
    for round_ in range(10):
        for h in handles:
            h.cancel()
            ops += 1
        handles = [
            sim2.schedule(1.0 + round_ * 0.1 + i * 1e-6, lambda: None)
            for i in range(n // 20)
        ]
        ops += n // 20
    peak_queue = sim2.queue_size
    sim2.run()
    cancel_s = time.perf_counter() - start
    return {
        "events_fired_s": round(fire_rate),
        "cancel_heavy_ops_s": round(ops / cancel_s),
        "compactions": sim2.compactions,
        "peak_queue_after_churn": peak_queue,
        "live_timers_per_round": n // 20,
    }


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    results = {
        "benchmark": "datagram fast path",
        "mode": "quick" if quick else "full",
        "checksum": bench_checksum(quick),
        "lpm": bench_lpm(quick),
        "engine": bench_events(quick),
    }
    text = json.dumps(results, indent=2)
    print(text)
    if not quick:
        OUT_PATH.write_text(text + "\n")
        print(f"\nwrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
