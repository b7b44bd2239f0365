"""One run of one ``perf`` workload in this process: the benchmark command.

``python3 benchmarks/perf/rep.py --workload NAME --seed N --seconds S
--trace 0|1`` repeats the workload (fresh setup, then the fixed-work measured
phase) until the measured phases add up to ``S`` host seconds, three times at
least, checks every repetition's simulated outcome, and prints one JSON
object as its last line: ``correct``, ``attempted`` and ``failed`` count
repetitions, ``metrics`` holds the fastest repetition's timings and the
median set-up time, both in seconds at the reference host speed (a fixed
stdlib kernel is timed around every measured phase and divided out).  ``--trace 0`` gives the end-to-end metrics with nothing
watching; ``--trace 1`` gives the per-layer metrics from one plain and one
profiled repetition (see :mod:`layers`) and takes no notice of ``--seconds``.

The metric names and units are read from ``BENCHMARK.json``; computing a
different set than it lists is an error, so the two cannot drift apart.
``run.py`` drives this file once per repetition to build the whole ledger.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import heapq
import json
import os
import pathlib
import resource
import statistics
import struct
import sys
from time import perf_counter, process_time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MIN_REPS = 3
SETUP_SAMPLES, SETUP_BUDGET_S = 20, 1.0
#: Twin workload whose wall time is the base of a ratio metric and whose
#: outcome digest must be identical: (ratio metric, twin).
TWINS = {"ring512_shard4": ("sim.shard.wall_ratio", "ring512_udp"),
         "ring512_shard2w": ("sim.shard.wall_ratio", "ring512_udp"),
         "frag_core_obs": ("obs.enabled_ratio", "frag_core")}
TRACER_TOLERANCE = 0.10
#: What ``_kernel`` takes on the 2-vCPU sandbox the baseline was measured on,
#: in its faster state.  The sandbox shifts between states some 15 % apart
#: and stays there for tens of minutes (a plain arithmetic loop shifts by the
#: same factor, so it is the host's clock, not the workload); end-to-end
#: times are therefore reported at this reference speed.
REFERENCE_KERNEL_S = 0.0080
#: Counters reported only through a ratio, not under their own name.
RATIO_INPUTS = ("sim.events", "ip.route_cache_hits", "ip.route_cache_misses",
                "ip.pool_allocated", "ip.pool_reused")


def _kernel() -> None:
    """A fixed slice of interpreter work shaped like the simulator's (heap,
    dict, struct, integer arithmetic) that calls none of the repo's code, so
    no change to the repo can move it."""
    heap, table = [], {}
    push, pop, pack, unpack = heapq.heappush, heapq.heappop, \
        struct.pack, struct.unpack
    for i in range(12000):
        push(heap, (i * 7919 % 10007, i))
        table[i & 1023] = table.get(i & 1023, 0) + i
        if i & 3 == 0:
            pop(heap)
        unpack("!HHI", pack("!HHI", i & 0xFFFF, 7, i))


def host_speed(samples: int = 7) -> float:
    """How fast this host runs right now, as a share of the reference host:
    ``REFERENCE_KERNEL_S`` over the fastest of ``samples`` kernel runs."""
    fastest = float("inf")
    for _ in range(samples):
        start = perf_counter()
        _kernel()
        fastest = min(fastest, perf_counter() - start)
    return REFERENCE_KERNEL_S / fastest


def digest_of(outcome: dict) -> str:
    canonical = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def timed_setup(cls, seed: int, scale: float, profiled: bool = False) -> tuple:
    """Build one scenario and warm it up; ``(scenario, host seconds)``."""
    gc.collect()
    start = perf_counter()
    scenario = cls(seed, scale, profiled)
    try:
        scenario.setup()
    except BaseException:
        scenario.close()
        raise
    return scenario, perf_counter() - start


def run_rep(cls, seed: int, scale: float, profile=None) -> dict:
    """One repetition: timed setup, timed (or profiled) measured phase,
    then the counters, the outcome digest and the self-checks."""
    scenario, setup_s = timed_setup(cls, seed, scale, profile is not None)
    try:
        before = scenario.tally()
        bytes_before = scenario.app_bytes()
        child_before = scenario.child_cpu()
        gc.collect()
        speed = host_speed()
        cpu0, wall0 = process_time(), perf_counter()
        if profile is not None:
            profile.enable()
        scenario.measure()
        if profile is not None:
            profile.disable()
        wall_s = perf_counter() - wall0
        cpu_s = process_time() - cpu0 + scenario.child_cpu() - child_before
        speed = max(speed, host_speed())
        after = scenario.tally()
        app_bytes = scenario.app_bytes() - bytes_before
        scenario.settle()
        failures = scenario.checks()
        digest = digest_of(scenario.outcome())
    finally:
        scenario.close()
    counters = {key: after[key] - before.get(key, 0) for key in after}
    hops = counters["ip.forwarded"] + counters["ip.delivered"]
    if hops <= 0:
        failures.append("no datagram moved in the measured phase")
    return {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
            "host_speed": speed, "hops": hops, "app_bytes": app_bytes, "digest": digest,
            "failures": failures, "counters": counters}


def expected_digest(workload: str, seed: int, scale: float):
    pinned = json.loads((HERE / "expected.json").read_text())
    if seed == pinned["seed"] and scale == 1.0:
        return pinned["digests"].get(workload)
    return None


def judge(reps: list, expected) -> int:
    """Mark and count the failed repetitions: a self-check failed, or the
    outcome digest differs from the pinned one (else from the first's)."""
    reference = expected if expected is not None else reps[0]["digest"]
    for rep in reps:
        if rep["digest"] != reference:
            rep["failures"].append(
                f"outcome digest {rep['digest'][:12]} != {reference[:12]}")
    return sum(1 for rep in reps if rep["failures"])


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child
    (the shard workers), in MiB; Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(cls, seed: int, seconds: float, scale: float):
    reps, measured = [], 0.0
    while len(reps) < MIN_REPS or measured < seconds:
        rep = run_rep(cls, seed, scale)
        reps.append(rep)
        measured += rep["wall_s"]

    # A set-up of a few milliseconds is too noisy to hold to a bound on
    # three samples, so cheap set-ups are simply taken more often.
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES and sum(setups) < SETUP_BUDGET_S:
        scenario, setup_s = timed_setup(cls, seed, scale)
        scenario.close()
        setups.append(setup_s)

    # Two kinds of host noise, two remedies.  Bursts (a neighbour stealing
    # the core) only ever add time to fixed, deterministic work, so the
    # fastest repetition is the steadiest estimate and the median is not.
    # Shifts of the host's clock are measured (host_speed) and divided out:
    # every time below is in seconds at the reference speed.
    best = min(reps, key=lambda rep: rep["wall_s"] * rep["host_speed"])
    wall_s = best["wall_s"] * best["host_speed"]
    speed = statistics.median(rep["host_speed"] for rep in reps)
    metrics = {
        "wall_s": wall_s,
        "cpu_s": min(rep["cpu_s"] * rep["host_speed"] for rep in reps),
        "hops_per_s": best["hops"] / wall_s,
        "app_bytes_per_s": best["app_bytes"] / wall_s,
        "setup_s": statistics.median(setups) * speed,
        "peak_rss_mb": peak_rss_mb(),
    }
    return reps, metrics


def per_layer(cls, seed: int, scale: float):
    import layers
    from workloads import WORKLOADS

    metrics = dict(layers.direct_calls())
    plain = run_rep(cls, seed, scale)
    profile = cProfile.Profile()
    traced = run_rep(cls, seed, scale, profile=profile)
    reps = [plain, traced]
    split = layers.attribute(profile)
    hops = traced["hops"]
    if abs(split["total_s"] - traced["wall_s"]) \
            > TRACER_TOLERANCE * traced["wall_s"]:
        traced["failures"].append(
            f"layer self times sum to {split['total_s']:.4f} s but the "
            f"traced phase took {traced['wall_s']:.4f} s")
    for layer, (self_s, calls) in split["layers"].items():
        metrics[f"{layer}.self_us_per_hop"] = self_s * 1e6 / hops
        metrics[f"{layer}.calls_per_hop"] = calls / hops
    for module, (self_s, calls) in split["modules"].items():
        metrics[f"{module}.self_us_per_hop"] = self_s * 1e6 / hops
        if module in layers.CALL_MODULES:
            metrics[f"{module}.calls_per_hop"] = calls / hops

    c = plain["counters"]

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    metrics.update({name: value for name, value in c.items()
                    if name not in RATIO_INPUTS})
    metrics["sim.events_per_hop"] = c["sim.events"] / plain["hops"]
    metrics["sim.events_per_s"] = c["sim.events"] / plain["wall_s"]
    metrics["ip.route_cache_hit_ratio"] = ratio(
        c["ip.route_cache_hits"],
        c["ip.route_cache_hits"] + c["ip.route_cache_misses"])
    metrics["ip.pool_reuse_ratio"] = ratio(
        c["ip.pool_reused"], c["ip.pool_reused"] + c["ip.pool_allocated"])
    metrics["tcp.retransmit_ratio"] = ratio(
        c["tcp.segments_retransmitted"], c["tcp.segments_sent"])
    metrics["trace.overhead_ratio"] = \
        (traced["wall_s"] / traced["hops"]) / (plain["wall_s"] / plain["hops"])

    # Ratios against a twin workload; 0 where the workload has no twin.
    for ratio_name, _twin in TWINS.values():
        metrics[ratio_name] = 0.0
    if cls.name in TWINS:
        ratio_name, twin_name = TWINS[cls.name]
        twin = run_rep(WORKLOADS[twin_name], seed, scale)
        metrics[ratio_name] = plain["wall_s"] / twin["wall_s"]
        reps.append(twin)  # judge() holds its digest to the same reference
    return reps, metrics


def catalogue(trace: bool) -> dict:
    """``{metric name: unit}`` for this mode, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the fixed work (selftest only; "
                             "results are comparable at 1.0 alone)")
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # One fixed str-hash seed, so set and dict layout repeat too.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import HORIZONS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    units = catalogue(bool(args.trace))
    if args.trace:
        reps, values = per_layer(cls, args.seed, args.scale)
    else:
        reps, values = end_to_end(cls, args.seed, args.seconds, args.scale)
    if set(values) != set(units):
        raise SystemExit(
            f"metric set differs from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}")
    failed = judge(reps, expected_digest(args.workload, args.seed, args.scale))

    width = max(map(len, units))
    for name in units:
        print(f"{name:<{width}}  {values[name]:>16.6g}  {units[name]}")
    for index, rep in enumerate(reps):
        for failure in rep["failures"]:
            print(f"FAILED rep {index}: {failure}")
    # For run.py; the driver reads only the last line.
    print("# detail " + json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "horizons": HORIZONS[args.workload], "reps": reps}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(reps), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
