"""Flows-subsystem benchmark: voice isolation at saturation + scheduler cost.

Two gates, both on the canonical flows topology
(:func:`~repro.harness.flowtopo.build_flow_topology` — voice and
oversubscribed bulk TCP sharing a 300 kb/s bottleneck), no faults:

* **latency isolation** — the voice flow's *exact* p99 one-way latency
  under the soft-state DRR gateway must come in at no more than
  ``LATENCY_GATE`` of the FIFO baseline's p99 at the same saturation.
  This is the paper's §10 bet in one number: per-flow scheduling plus a
  refreshed reservation keeps real-time traffic usable on a link that
  bulk transfer has saturated.  (The p99 is computed from the recording
  meter's full arrival log, not a reservoir estimate.)

* **scheduler overhead** — the DRR run may cost at most
  ``EVENTS_GATE`` x the FIFO baseline's *simulation events processed*.
  Event counts are simulation-deterministic, so unlike wall-clock this
  gate cannot flap on CI timing noise; wall-clock seconds are reported
  alongside as information only.

Writes ``BENCH_flows.json`` at the repo root (full mode), or to ``--out``
when given (the CI quick mode uploads it as an artifact).  Run directly::

    PYTHONPATH=src python benchmarks/bench_flows.py [--quick] [--out PATH]

Exit status is non-zero when either gate fails or the runs carried no
meaningful traffic.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.harness.flowtopo import build_flow_topology

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_flows.json"

#: DRR voice p99 must be at most this fraction of the FIFO voice p99.
LATENCY_GATE = 0.5
#: DRR run may process at most this multiple of the FIFO run's events.
EVENTS_GATE = 1.5


def run(mode: str, *, seed: int, duration: float) -> dict:
    wall = time.perf_counter()
    topo = build_flow_topology(seed, mode=mode,
                               reserve=(mode == "drr"), duration=duration)
    topo.net.sim.run(until=topo.start_time + duration + 2.0)
    wall = time.perf_counter() - wall
    meter = topo.meter
    out = {
        "mode": mode,
        "voice_frames_sent": meter.sent_count,
        "voice_frames_on_time": meter.on_time_count,
        "voice_usable_pct": meter.usable_pct(),
        "voice_p50_s": round(meter.latency_quantile(0.50) or 0.0, 6),
        "voice_p99_s": round(meter.latency_quantile(0.99) or 0.0, 6),
        "bulk_bytes_received": topo.bulk_bytes_received,
        "events_processed": topo.net.sim.events_processed,
        "wall_seconds_info_only": round(wall, 3),
    }
    if topo.fgw is not None:
        out["flow_gateway"] = topo.fgw.counters()
    return out


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    out_path = OUT_PATH
    if "--out" in argv:
        out_path = pathlib.Path(argv[argv.index("--out") + 1])
    duration = 15.0 if quick else 45.0

    fifo = run("fifo", seed=7, duration=duration)
    drr = run("drr", seed=7, duration=duration)

    fifo_p99, drr_p99 = fifo["voice_p99_s"], drr["voice_p99_s"]
    latency_ratio = (drr_p99 / fifo_p99) if fifo_p99 else 1.0
    events_ratio = (drr["events_processed"] / fifo["events_processed"]
                    if fifo["events_processed"] else 1.0)
    # The link must actually have been saturated in both runs, or the
    # isolation ratio is vacuous.
    meaningful = (fifo["voice_frames_sent"] >= 500
                  and fifo["bulk_bytes_received"] > 0
                  and drr["bulk_bytes_received"] > 0)
    gate_passed = (meaningful and latency_ratio <= LATENCY_GATE
                   and events_ratio <= EVENTS_GATE)

    results = {
        "benchmark": "flows: voice isolation + scheduler overhead",
        "mode": "quick" if quick else "full",
        "topology": "flowtopo: voice 64kb/s + bulk TCP 384kb/s offered "
                    "over a 300kb/s bottleneck",
        "seed": 7,
        "duration_s": duration,
        "fifo": fifo,
        "drr": drr,
        "latency_ratio_p99": round(latency_ratio, 6),
        "latency_gate": LATENCY_GATE,
        "events_ratio": round(events_ratio, 6),
        "events_gate": EVENTS_GATE,
        "gate_passed": gate_passed,
    }
    text = json.dumps(results, indent=2)
    print(text)
    if not quick or "--out" in argv:
        out_path.write_text(text + "\n")
        print(f"\nwrote {out_path}")
    if not meaningful:
        print("FAIL: runs carried no meaningful traffic; ratios vacuous",
              file=sys.stderr)
        return 1
    if latency_ratio > LATENCY_GATE:
        print(f"FAIL: DRR voice p99 {drr_p99:.4f}s is {latency_ratio:.2f}x "
              f"the FIFO p99 {fifo_p99:.4f}s (gate {LATENCY_GATE:.2f}x)",
              file=sys.stderr)
        return 1
    if events_ratio > EVENTS_GATE:
        print(f"FAIL: DRR processed {events_ratio:.2f}x the FIFO run's "
              f"events (gate {EVENTS_GATE:.2f}x)", file=sys.stderr)
        return 1
    print(f"OK: voice p99 drr={drr_p99*1000:.1f}ms vs fifo="
          f"{fifo_p99*1000:.1f}ms ({latency_ratio:.2f}x, gate "
          f"{LATENCY_GATE:.2f}x); events ratio {events_ratio:.2f}x "
          f"(gate {EVENTS_GATE:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
