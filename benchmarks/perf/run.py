"""The ``perf`` ledger: every workload, every metric, one command.

    PYTHONPATH=src python benchmarks/perf/run.py [--seed 7] [--workload NAME]...
        [--reps 3] [--traced] [--table] [--out PATH] [--history PATH]
    python benchmarks/perf/run.py --compare A.json B.json
    python benchmarks/perf/run.py --selftest

A *rep* is one fresh ``rep.py`` process (one at a time, round-robin across
the workloads, so drift hits them all alike).  An end-to-end value is the
median over reps, printed with min, max and n, in seconds at the reference
host speed (``rep.py`` measures the host's speed around every repetition); ``fail_ratio`` is failed over
attempted outcome checks.  ``--traced`` adds one profiled pass per workload
for the per-layer metrics.  Every result is stamped with commit, host and
horizons; ``--out`` writes it, ``--history`` appends one JSONL line.  Nothing
under ``benchmarks/perf`` is rewritten by a run (``--pin`` is the one
explicit exception: it re-records ``expected.json`` after a deliberate
change to a workload).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from rep import TWINS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Run on request only: too unsteady on a shared host to be held to a bound.
EXTRA = ["ring512_shard2w"]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
#: Per-layer metrics that are counts made by the program: they must repeat
#: exactly between two runs of one commit (everything else is a timing).
_TIMED = re.compile(r"(_us|_us_per_hop|_per_s|_ratio)$")
_COUNTED_RATIOS = ("ip.route_cache_hit_ratio", "ip.pool_reuse_ratio",
                   "tcp.retransmit_ratio")
DETERMINISTIC = [m["name"] for m in SPEC["per_layer"]
                 if not _TIMED.search(m["name"])
                 or m["name"] in _COUNTED_RATIOS]
#: Outcome digests that must be equal across workloads.
SAME_OUTCOME = [(workload, twin) for workload, (_ratio, twin) in TWINS.items()]


# ----------------------------------------------------------------------
# Running reps
# ----------------------------------------------------------------------
def run_rep(workload: str, seed: int, seconds: float, trace: int,
            scale: float = 1.0) -> dict:
    """One ``rep.py`` process; its result line plus the detail line."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale", str(scale)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return {"crashed": True, "attempted": 1, "failed": 1,
                "metrics": {}, "detail": {"reps": []}}
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["detail"] = next(json.loads(line[len("# detail "):])
                            for line in reversed(lines)
                            if line.startswith("# detail "))
    result["messages"] = [line for line in lines if line.startswith("FAILED")]
    return result


def stamp(seed: int, reps: int, seconds: float, horizons: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "python": platform.python_version(),
            "cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "seed": seed, "reps": reps,
            "run_seconds": seconds, "horizons": horizons}


def summarize(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "values": values}


def spread(summary: dict) -> float:
    """Distance between the quartiles of the reps, as a share of their
    median.  Inclusive quartiles: with five reps one outlier is left out,
    with three the quartiles sit halfway to the extremes."""
    values = summary["values"]
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return (high - low) / summary["median"]


def ledger(workloads: list, seed: int, reps: int, seconds: float,
           traced: bool) -> dict:
    runs = {w: [] for w in workloads}
    for rep in range(reps):
        for w in workloads:
            run = run_rep(w, seed, seconds, 0)
            runs[w].append(run)
            print(f"rep {rep + 1}/{reps} {w}: "
                  + ("crashed" if run.get("crashed") else
                     f"{run['metrics']['wall_s']['value']:.3f} s"),
                  file=sys.stderr)
    horizons = {w: r[0]["detail"].get("horizons") for w, r in runs.items()}
    result = {"stamp": stamp(seed, reps, seconds, horizons), "workloads": {}}
    for w in workloads:
        entry = {"end_to_end": {}, "messages": []}
        for name in E2E:
            values = [r["metrics"][name]["value"] for r in runs[w]
                      if name in r["metrics"]]
            if values:
                entry["end_to_end"][name] = summarize(values)
        if traced:
            print(f"traced pass {w}", file=sys.stderr)
            runs[w].append(run_rep(w, seed, seconds, 1))
            entry["per_layer"] = {k: v["value"] for k, v
                                  in runs[w][-1]["metrics"].items()}
        entry["attempted"] = sum(r["attempted"] for r in runs[w])
        entry["failed"] = sum(r["failed"] for r in runs[w])
        for r in runs[w]:
            entry["messages"].extend(r.get("messages", []))
        inner = [rep for r in runs[w] for rep in r["detail"]["reps"]]
        if inner:
            entry["host_speed"] = statistics.median(
                rep["host_speed"] for rep in inner)
        digests = sorted({rep["digest"] for rep in inner})
        entry["digest"] = digests[0] if len(digests) == 1 else None
        if len(digests) > 1:
            # Every rep.py agreed with itself, but not with its siblings.
            entry["failed"] = max(entry["failed"], 1)
            entry["messages"].append(f"reps disagree: {digests}")
        result["workloads"][w] = entry
    for a, b in SAME_OUTCOME:
        if a in runs and b in runs:
            entry = result["workloads"][a]
            other = result["workloads"][b]["digest"]
            if entry["digest"] != other:
                entry["failed"] += 1
                entry["messages"].append(
                    f"outcome differs from {b}: {entry['digest']} != {other}")
    for entry in result["workloads"].values():
        entry["fail_ratio"] = entry["failed"] / entry["attempted"]
    return result


def print_ledger(result: dict) -> None:
    s = result["stamp"]
    print(f"perf ledger  commit {s['commit'][:12]}  python {s['python']}  "
          f"{s['cpus']} cpu  seed {s['seed']}  reps {s['reps']}")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for w, entry in result["workloads"].items():
        print(f"\n{w}  (outcome {str(entry['digest'])[:12]}, host speed "
              f"{entry.get('host_speed', float('nan')):.2f} of reference)")
        print(f"  {'metric':<18}{'median':>14}{'min':>14}{'max':>14}"
              f"{'n':>4}  unit")
        for name, v in entry["end_to_end"].items():
            print(f"  {name:<18}{v['median']:>14.6g}{v['min']:>14.6g}"
                  f"{v['max']:>14.6g}{v['n']:>4}  {units[name]}")
        print(f"  {'fail_ratio':<18}{entry['fail_ratio']:>14.6g}"
              f"{'':>28}{entry['attempted']:>4}  ratio")
        for message in entry["messages"]:
            print(f"  ! {message}")
        if "per_layer" in entry:
            layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
            print("  per layer (one traced pass):")
            for name, value in entry["per_layer"].items():
                print(f"    {name:<40}{value:>16.6g}  {layer_units[name]}")


def print_table(result: dict, workload: str) -> None:
    """Markdown: where a forwarded packet's microseconds go."""
    per_layer = result["workloads"][workload]["per_layer"]
    rows = [(name[:-len(".self_us_per_hop")], value)
            for name, value in per_layer.items()
            if name.endswith(".self_us_per_hop")
            and name.count(".") == 1]
    total = sum(value for _layer, value in rows)
    print(f"Where a forwarded packet's microseconds go (`{workload}`, "
          f"profiled, commit {result['stamp']['commit'][:12]}):\n")
    print("| layer | self µs/hop | share | calls/hop |")
    print("|---|---:|---:|---:|")
    for layer, value in sorted(rows, key=lambda row: -row[1]):
        calls = per_layer[f"{layer}.calls_per_hop"]
        if calls:
            print(f"| `{layer}` | {value:.2f} | {100 * value / total:.1f} % "
                  f"| {calls:.2f} |")
    print(f"| **total** | **{total:.2f}** | 100 % | |")
    plain = 1e6 / result["workloads"][workload]["end_to_end"][
        "hops_per_s"]["median"]
    print(f"\nUnprofiled, a hop costs {plain:.1f} µs; profiling multiplies "
          f"that by {per_layer['trace.overhead_ratio']:.2f}, so read the "
          f"shares, not the absolute microseconds.")


# ----------------------------------------------------------------------
# Comparing two results
# ----------------------------------------------------------------------
def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """``(worsening of B's median as a share of A's, ok|worse|unresolved)``.

    ``worse``: the median is worse by more than the bound and no run of B
    reaches A's range.  ``ok``: within the bound, with both sets' own
    spread (quartile to quartile) inside it too, or every B run better than
    every A run.  Otherwise the runs cannot tell: ``unresolved``.
    """
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["median"] - a["median"]) / a["median"]
    if better == "lower":
        b_all_better, b_all_worse = b["max"] < a["min"], b["min"] > a["max"]
    else:
        b_all_better, b_all_worse = b["min"] > a["max"], b["max"] < a["min"]
    if worsening > bound:
        return worsening, "worse" if b_all_worse else "unresolved"
    if max(spread(a), spread(b)) <= bound or b_all_better:
        return worsening, "ok"
    return worsening, "unresolved"


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    if a["stamp"]["horizons"] != b["stamp"]["horizons"]:
        print("the two results measured different work (horizons differ); "
              "they cannot be compared")
        return 2
    print(f"A = {path_a} (commit {a['stamp']['commit'][:12]})   "
          f"B = {path_b} (commit {b['stamp']['commit'][:12]})")
    print(f"{'workload':<18}{'metric':<18}{'A median':>14}{'B median':>14}"
          f"{'B worse by':>12}{'bound':>8}  verdict")
    worst = 0
    for w in a["workloads"]:
        if w not in b["workloads"]:
            continue
        wa, wb = a["workloads"][w], b["workloads"][w]
        for name, spec in E2E.items():
            if name not in wa["end_to_end"] or name not in wb["end_to_end"]:
                continue
            ma, mb = wa["end_to_end"][name], wb["end_to_end"][name]
            worsening, word = verdict(ma, mb, spec["better"], spec["bound"])
            worst = max(worst, {"ok": 0, "unresolved": 0, "worse": 1}[word])
            print(f"{w:<18}{name:<18}{ma['median']:>14.6g}"
                  f"{mb['median']:>14.6g}{100 * worsening:>+11.1f}%"
                  f"{100 * spec['bound']:>7.0f}%  {word}")
        word = "ok" if wb["fail_ratio"] <= wa["fail_ratio"] else "worse"
        worst = max(worst, int(word == "worse"))
        print(f"{w:<18}{'fail_ratio':<18}{wa['fail_ratio']:>14.6g}"
              f"{wb['fail_ratio']:>14.6g}{'':>12}{'0':>8}  {word}")
        if "per_layer" in wa and "per_layer" in wb:
            moved = [n for n in DETERMINISTIC
                     if wa["per_layer"][n] != wb["per_layer"][n]]
            print(f"{w:<18}{len(DETERMINISTIC) - len(moved)} of "
                  f"{len(DETERMINISTIC)} deterministic per-layer counts "
                  f"identical" + (f"; moved: {', '.join(moved)}"
                                  if moved else ""))
        if wa["digest"] != wb["digest"]:
            print(f"{w:<18}simulated outcome moved: "
                  f"{str(wa['digest'])[:12]} -> {str(wb['digest'])[:12]}")
    return worst


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec() -> list:
    """``BENCHMARK.json`` against the limits the benchmark contract sets."""
    problems = []
    if sorted(SPEC) != ["command", "end_to_end", "paths", "per_layer",
                        "run_seconds", "workloads"]:
        problems.append(f"unexpected keys {sorted(SPEC)}")
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    problems += [f"bad name {n!r}" for n in names if not _NAME.match(n)]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        if not _UNIT.match(m["unit"]) \
                or m["better"] not in ("lower", "higher"):
            problems.append(f"bad unit or direction on {m['name']}")
    if not all(sorted(m) == ["better", "bound", "name", "unit"]
               and 0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"]):
        problems.append("end_to_end entries need name, unit, better, bound")
    if E2E.get("setup_s", {}).get("unit") != "s":
        problems.append("setup_s missing")
    if not (2 <= len(SPEC["workloads"]) <= 8
            and 1 <= len(SPEC["end_to_end"]) <= 16
            and 1 <= len(SPEC["per_layer"]) <= 128
            and isinstance(SPEC["run_seconds"], int)
            and 1 <= SPEC["run_seconds"] <= 60):
        problems.append("a count is outside the contract's limits")
    problems += [f"why of {w['name']} too long" for w in SPEC["workloads"]
                 if len(w["why"]) > 200 or "\n" in w["why"]]
    return problems


def selftest_workload(w: str, seed: int, scale: float = 0.05) -> list:
    """One end-to-end and two traced runs of ``w`` at ``scale`` of its
    work; the problems found."""
    problems = []
    plain = run_rep(w, seed, 0.0, 0, scale)
    first = run_rep(w, seed, 0.0, 1, scale)
    again = run_rep(w, seed, 0.0, 1, scale)
    for label, run, metrics in (("end-to-end", plain, SPEC["end_to_end"]),
                                ("per-layer", first, SPEC["per_layer"]),
                                ("per-layer", again, SPEC["per_layer"])):
        if run.get("crashed"):
            problems.append(f"{w}: {label} run crashed")
            continue
        if sorted(run) != ["attempted", "correct", "detail", "failed",
                           "messages", "metrics"]:
            problems.append(f"{w}: {label} result keys {sorted(run)}")
        want = {m["name"]: m["unit"] for m in metrics}
        got = {k: v["unit"] for k, v in run["metrics"].items()}
        if got != want:
            problems.append(f"{w}: {label} metrics differ from "
                            f"BENCHMARK.json")
        if not run["correct"] or run["failed"]:
            # Covers digests repeating within a run and the tracer's
            # "layer self times sum to the traced wall" check.
            problems.append(f"{w}: {label} run failed its checks: "
                            f"{run['messages']}")
    if problems:
        return problems
    moved = [n for n in DETERMINISTIC
             if first["metrics"][n]["value"] != again["metrics"][n]["value"]]
    if moved:
        problems.append(f"{w}: counts did not repeat: {moved}")
    digests = {rep["digest"] for run in (plain, first, again)
               for rep in run["detail"]["reps"]}
    if len(digests) != 1:
        problems.append(f"{w}: digests did not repeat: {sorted(digests)}")
    return problems


def selftest(seed: int) -> int:
    """Every workload at 1/20 of its work: schema, repeatable digests and
    call counts, and the tracer's own books.  Under a minute, because no
    timing is judged here and so two workloads may run side by side."""
    problems = check_spec()
    with ThreadPoolExecutor(max_workers=2) as pool:
        for found in pool.map(lambda w: selftest_workload(w, seed),
                              WORKLOADS + EXTRA):
            problems.extend(found)
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    if not problems:
        print(f"selftest ok: {len(WORKLOADS + EXTRA)} workloads, "
              f"{len(SPEC['end_to_end'])} end-to-end and "
              f"{len(SPEC['per_layer'])} per-layer metrics, "
              f"{len(DETERMINISTIC)} counts repeated exactly")
    return 1 if problems else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append",
                        choices=WORKLOADS + EXTRA,
                        help="repeatable; default: the benchmark's seven")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="measured host seconds per rep")
    parser.add_argument("--traced", action="store_true",
                        help="add the per-layer metrics (one profiled pass)")
    parser.add_argument("--table", action="store_true",
                        help="with --traced: print the README's per-layer "
                             "table for the first workload")
    parser.add_argument("--out", help="write the stamped result as JSON")
    parser.add_argument("--history",
                        help="append the result as one JSONL line")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--pin", action="store_true",
                        help="re-record expected.json from this run's digests")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return selftest(args.seed)
    if args.table and not args.traced:
        parser.error("--table needs --traced")

    workloads = args.workload or WORKLOADS
    result = ledger(workloads, args.seed, args.reps, args.seconds, args.traced)
    if args.table:
        print_table(result, workloads[0])
    else:
        print_ledger(result)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    if args.history:
        with open(args.history, "a") as history:
            history.write(json.dumps(result, separators=(",", ":")) + "\n")
    if args.pin:
        pinned = json.loads((HERE / "expected.json").read_text())
        pinned["seed"] = args.seed
        pinned["digests"].update(
            {w: e["digest"] for w, e in result["workloads"].items()})
        (HERE / "expected.json").write_text(
            json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    failed = sum(e["failed"] for e in result["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
