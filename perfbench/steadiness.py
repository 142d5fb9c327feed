#!/usr/bin/env python3
"""Steadiness report: runs the benchmark N times per workload with
different seeds and gives each end-to-end metric's run-to-run spread.

    python3 perfbench/steadiness.py --workload fleet_mixed --runs 10 \\
        [--out FILE.json] [--compare EARLIER.json]

Run i uses seed SEED0 + i. Spread is (Q3 - Q1) / median over the runs,
with the quartiles from statistics.quantiles(values, n=4). A metric is
steady when its spread is below a third of its bound in BENCHMARK.json,
and noisy when it is above the bound. With --compare, each metric's
median is also checked against an earlier report's: it may not be worse
by more than its bound.
The two metrics that made an earlier benchmark too noisy,
reproduce_cold/setup_s and fleet_mixed/miss_p50_ms, are called out by name.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SEED0 = 1000
RECHECK = [("reproduce_cold", "setup_s"), ("fleet_mixed", "miss_p50_ms")]


def load_bench():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    p = subprocess.run(argv, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} exited {p.returncode}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed}: {wall:.1f}s, correct={result['correct']}", flush=True)
    return result, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def worse_by(metric, first, second):
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    bench = load_bench()
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["workloads"]

    report = {"workloads": {}}
    ok = True
    for w in args.workload:
        runs = [run_once(w, SEED0 + i, bench["run_seconds"]) for i in range(args.runs)]
        values = {name: [r["metrics"][name]["value"] for r, _ in runs] for name in e2e}
        rows = {}
        print(f"\n{w}: {args.runs} runs, {statistics.median([t for _, t in runs]):.1f}s median run")
        print(f"  {'metric':<13} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for name, m in e2e.items():
            q1, med, q3, s = spread(values[name])
            if s <= m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "NOISY"
                ok = False
            row = {"median": med, "q1": q1, "q3": q3, "spread": s, "values": values[name]}
            if name in earlier.get(w, {}):
                row["worse_by"] = worse_by(m, earlier[w][name]["median"], med)
                if row["worse_by"] > m["bound"]:
                    verdict += ", MEDIAN MOVED"
                    ok = False
                verdict += f" (vs earlier {row['worse_by']:+.3f})"
            rows[name] = row
            print(f"  {name:<13} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} {m['bound']:6.2f}  {verdict}")
        report["workloads"][w] = rows
    for w, name in RECHECK:
        if w in report["workloads"]:
            r = report["workloads"][w][name]
            print(f"re-check {w}/{name}: median {r['median']:.6g}, spread {r['spread']:.4f}"
                  + (f", worse by {r['worse_by']:+.4f}" if "worse_by" in r else ""))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
