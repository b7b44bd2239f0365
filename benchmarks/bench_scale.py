"""Internet-scale benchmark: the sharded AS-parallel engine.

Two measurements, written to ``BENCH_scale.json`` at the repo root:

* **engine** — raw scheduler throughput of the rebuilt hot loop: the
  handle-free ``post()`` path (what every packet hop now uses) and the
  cancellable ``schedule()`` path, compared against the PR-1 committed
  baseline of 156,859 events/s (``BENCH_fastpath.json``).
* **scale** — the ≥500-node multi-AS ring run at 1..N workers through the
  conservative-lookahead sharded scheduler, with per-worker and aggregate
  events/s plus the determinism digest CI diffs across worker counts.

A note on CPUs: ``aggregate_events_s`` sums each worker process's own
events-per-CPU-second.  With one core per worker that equals wall-clock
throughput; on a machine with fewer cores than workers (this repo's CI
container has 1) the workers time-slice, wall-clock shows no speedup, and
the aggregate states the capacity the shard decomposition exposes.  The
JSON records both numbers and ``cpus`` so nobody has to guess.

Run directly::

    PYTHONPATH=src python benchmarks/bench_scale.py [--quick] [--workers N]
    [--out PATH]

``--quick`` shrinks the topology and horizon for CI smoke runs.
``--workers N`` runs the scale scenario at exactly N workers (CI runs 1
and 2 and diffs the ``deterministic`` sections of the two reports).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

from repro.harness.scaletopo import MultiAsBuilder, ScaleConfig
from repro.sim.engine import Simulator
from repro.sim.shard import ShardedSimulation

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_scale.json"

#: Committed by PR 1 in BENCH_fastpath.json (events_fired_s); the issue's
#: single-worker improvement target is measured against this.
PR1_BASELINE_EVENTS_S = 156_859


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# 1. Engine hot-loop throughput
# ----------------------------------------------------------------------
def bench_engine(quick: bool) -> dict:
    n = 50_000 if quick else 400_000

    sim = Simulator()
    noop = lambda: None
    start = time.perf_counter()
    post = sim.post
    for i in range(n):
        post(i * 1e-6, noop)
    sim.run()
    post_rate = n / (time.perf_counter() - start)

    sim2 = Simulator()
    start = time.perf_counter()
    for i in range(n):
        sim2.schedule(i * 1e-6, lambda: None)
    sim2.run()
    schedule_rate = n / (time.perf_counter() - start)

    return {
        "events": n,
        "post_events_s": round(post_rate),
        "schedule_events_s": round(schedule_rate),
        "pr1_baseline_events_s": PR1_BASELINE_EVENTS_S,
        "post_speedup_vs_pr1": round(post_rate / PR1_BASELINE_EVENTS_S, 2),
        "schedule_speedup_vs_pr1": round(
            schedule_rate / PR1_BASELINE_EVENTS_S, 2),
    }


# ----------------------------------------------------------------------
# 2. Sharded scaling
# ----------------------------------------------------------------------
def bench_scale(cfg: ScaleConfig, horizon: float, n_shards: int,
                worker_counts: list[int]) -> dict:
    builder = MultiAsBuilder(cfg)
    runs = []
    deterministic = None
    for workers in worker_counts:
        start_wall = time.perf_counter()
        start_cpu = time.process_time()
        with ShardedSimulation(builder, n_shards,
                               lookahead=builder.lookahead(),
                               workers=workers) as ss:
            ss.run(until=horizon)
            summaries = ss.collect()
            crossed, windows = ss.messages_crossed, ss.windows
        wall = time.perf_counter() - start_wall
        parent_cpu = time.process_time() - start_cpu
        events = sum(s["events_processed"] for s in summaries)
        delivered = sum(s["delivered"] for s in summaries)
        sink_packets = sum(s["sink_packets"] for s in summaries)
        flows = sum(s["flows"] for s in summaries)
        if workers == 1:
            # Inline: every harness shares this process, so per-shard
            # cpu_seconds all measure the same clock — use the parent's.
            aggregate = events / parent_cpu if parent_cpu else 0.0
        else:
            # Forked: each worker's own events per its own CPU second,
            # summed — wall-clock throughput when every worker has a core.
            aggregate = sum(
                s["events_processed"] / s["cpu_seconds"]
                for s in summaries if s["cpu_seconds"])
        det = {
            "collect": sorted(
                ({k: v for k, v in s.items() if k != "cpu_seconds"}
                 for s in summaries),
                key=lambda s: s["shard"]),
            "messages_crossed": crossed,
            "windows": windows,
        }
        if deterministic is None:
            deterministic = det
            identical = True
        else:
            identical = json.dumps(det, sort_keys=True) == json.dumps(
                deterministic, sort_keys=True)
        runs.append({
            "workers": workers,
            "wall_s": round(wall, 3),
            "events": events,
            "events_s_wall": round(events / wall),
            "aggregate_events_s": round(aggregate),
            "delivered": delivered,
            "sink_packets": sink_packets,
            "flows": flows,
            "flows_s_wall": round(sink_packets / wall),
            "identical_to_first_run": identical,
        })
    one = next((r for r in runs if r["workers"] == 1), runs[0])
    four = next((r for r in runs if r["workers"] == 4), None)
    return {
        "n_shards": n_shards,
        "nodes": cfg.total_nodes,
        "horizon_s": horizon,
        "runs": runs,
        "aggregate_speedup_4w_vs_1w": round(
            four["aggregate_events_s"] / one["aggregate_events_s"], 2)
        if four else None,
        "deterministic": deterministic,
    }


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    out_path = OUT_PATH
    if "--out" in argv:
        out_path = pathlib.Path(argv[argv.index("--out") + 1])
    if quick:
        cfg = ScaleConfig(n_as=4, gateways_per_as=4, hosts_per_lan=3, seed=7)
        horizon, n_shards = 30.0, 4
        worker_counts = [1, 2]
    else:
        cfg = ScaleConfig(n_as=8, gateways_per_as=8, hosts_per_lan=7, seed=7)
        horizon, n_shards = 40.0, 4
        worker_counts = [1, 2, 4]
    if "--workers" in argv:
        worker_counts = [int(argv[argv.index("--workers") + 1])]
    results = {
        "benchmark": "internet-scale sharded engine",
        "mode": "quick" if quick else "full",
        "cpus": _cpus(),
        "engine": bench_engine(quick),
        "scale": bench_scale(cfg, horizon, n_shards, worker_counts),
    }
    text = json.dumps(results, indent=2)
    print(text)
    if not quick or "--out" in argv:
        out_path.write_text(text + "\n")
        print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
