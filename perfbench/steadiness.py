#!/usr/bin/env python3
"""Run the benchmark over several seeds and record how steady it is.

Each pass runs `--trace 0` once per seed on every workload. After the
first pass, every workload also runs `--trace 0` again on the first seed
(the sim-time metrics must repeat bit for bit across processes) and
`--trace 1` on it. For each end-to-end metric and pass it reports the
median, the quartiles and the spread (distance between the first and
third quartile as a share of the median, as
`statistics.quantiles(values, n=4)` gives them), and how far the last
pass's median moved from the first's in the metric's worse direction.
Every spread, `setup_s` included, and every such move must stay within
the metric's bound. The bound each metric would get by the rule "three
times the worst spread seen, rounded up to a hundredth, at most 0.25" is
printed alongside. With `--gate-seeds`, every workload also runs once
(one repeat) on each of those seeds, and the seeds on which a
correctness gate fails are recorded with the gate's message; the tool
then exits non-zero. Everything is written to `perfbench/baseline.json`.

Run from the repository root after building the benchmark:

    python3 perfbench/steadiness.py --seeds 1-10 --passes 2 --gate-seeds 11-40
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIM_TIME = [
    "commit_p50_ms",
    "commit_p99_ms",
    "commit_tps",
    "commit_ratio",
    "wan_bytes_per_commit",
]
GATE = "# GATE FAILED: "


def run(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["process_s"] = time.monotonic() - start
    result["gates"] = [l.removeprefix(GATE) for l in lines if l.startswith(GATE)]
    return result


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": round((q3 - q1) / statistics.median(values), 4),
        "values": values,
    }


def worsening(first, last, better):
    """How far `last` is worse than `first`, as a share of `first`."""
    change = (last - first) / first
    return round(change if better == "lower" else -change, 4)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int)
    p.add_argument("--passes", type=int, default=2)
    p.add_argument("--gate-seeds", help="seeds run once per workload to record gate failures")
    p.add_argument("--workloads", help="comma-separated (default: all)")
    p.add_argument("--out", default="perfbench/baseline.json")
    a = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = a.seconds or bench["run_seconds"]
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    report = {"seconds": seconds, "seeds": seeds(a.seeds), "passes": a.passes, "workloads": {}}
    ok = True
    results = {w: [] for w in names}
    for n in range(a.passes):
        for w in names:
            runs = [run(bench["command"], w, s, seconds, 0) for s in report["seeds"]]
            results[w].append(runs)
            print(f"pass {n + 1} {w}: run-process seconds {[round(r['process_s'], 1) for r in runs]}",
                  flush=True)
            if n == 0:
                first = report["seeds"][0]
                again = run(bench["command"], w, first, seconds, 0)
                traced = run(bench["command"], w, first, seconds, 1)
                report["workloads"][w] = {
                    "sim_time_bit_identical_across_processes": all(
                        again["metrics"][m]["value"] == runs[0]["metrics"][m]["value"]
                        for m in SIM_TIME
                    ),
                    "traced": {k: v["value"] for k, v in traced["metrics"].items()},
                    "traced_correct": traced["correct"],
                    "again_correct": again["correct"],
                }
    worst = {name: 0.0 for name in metrics}
    for w in names:
        entry = report["workloads"][w]
        passes = results[w]
        entry["correct"] = [[r["correct"] for r in runs] for runs in passes]
        entry["failed"] = [[r["failed"] for r in runs] for runs in passes]
        entry["process_s"] = [[round(r["process_s"], 1) for r in runs] for runs in passes]
        entry["metrics"] = {}
        for name, m in metrics.items():
            per_pass = [stats([r["metrics"][name]["value"] for r in runs]) for runs in passes]
            move = worsening(per_pass[0]["median"], per_pass[-1]["median"], m["better"])
            entry["metrics"][name] = {"bound": m["bound"], "worsening": move, "passes": per_pass}
            spreads = [s["spread"] for s in per_pass]
            worst[name] = max(worst[name], *spreads)
            flag = "" if max(spreads) <= m["bound"] / 3 else "  <-- above a third of its bound"
            ok &= max(spreads) <= m["bound"] and move <= m["bound"]
            print(f"{w:18} {name:22} median {per_pass[0]['median']:12.5g} "
                  f"spreads {spreads} worsening {move:+.4f} (bound {m['bound']}){flag}")
        all_correct = all(all(c) for c in entry["correct"]) and entry["traced_correct"] and entry["again_correct"]
        ok &= all_correct and entry["sim_time_bit_identical_across_processes"]
        print(f"{w:18} correct {all_correct}, "
              f"sim-time bit-identical {entry['sim_time_bit_identical_across_processes']}, "
              f"trace.overhead_ratio {entry['traced']['trace.overhead_ratio']:.3f}")
    if a.gate_seeds:
        report["gate_scan"] = {"seeds": seeds(a.gate_seeds), "failing": {}}
        for w in names:
            failing = []
            for s in report["gate_scan"]["seeds"]:
                r = run(bench["command"], w, s, 1, 0)
                if not r["correct"]:
                    failing.append({"seed": s, "gates": r["gates"]})
            report["gate_scan"]["failing"][w] = failing
            ok &= not failing
            print(f"{w:18} gate scan: {len(failing)} of {len(report['gate_scan']['seeds'])} "
                  f"seeds fail a gate {[f['seed'] for f in failing]}", flush=True)
    report["bound_rule"] = {
        name: {"worst_spread": s, "three_times_worst": min(0.25, max(0.01, math.ceil(3 * s * 100) / 100))}
        for name, s in worst.items()
    }
    for name, r in report["bound_rule"].items():
        print(f"{name:22} worst spread {r['worst_spread']:.4f} -> rule bound {r['three_times_worst']} "
              f"(BENCHMARK.json {metrics[name]['bound']})")
    (ROOT / a.out).write_text(json.dumps(report, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
