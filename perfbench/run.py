#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload reproduce_cold|vt_sweep|fleet_mixed \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the `bdc` and `bdc_serve`
binaries and the `bdc-perfprobe` layer probe in release mode (into
$CARGO_TARGET_DIR, default .bench_build), runs the workload in a work
area under .bench_work/, checks every output against reference.json and
prints one JSON object as the last line of stdout. With --trace 0 it
reports the end-to-end metrics; with --trace 1 it runs the traced pass
and reports the per-layer metrics instead. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fleet  # noqa: E402
import flow  # noqa: E402
import layers  # noqa: E402
from common import IntegrityError  # noqa: E402

WORKLOADS = {
    "reproduce_cold": flow.reproduce_cold,
    "vt_sweep": flow.vt_sweep,
    "fleet_mixed": fleet.fleet_mixed,
}
RUN_LIMIT_S = 170


class Ctx:
    def __init__(self, target, work, ref=None):
        self.target = target
        self.work = work
        if ref is None:
            with open(os.path.join(HERE, "reference.json")) as f:
                ref = json.load(f)
        self.ref = ref

    def bin(self, name):
        return os.path.join(self.target, "release", name)

    def log(self, msg):
        print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "--bin", "bdc", "--bin", "bdc_serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "probe", "Cargo.toml")],
    ):
        code = subprocess.call(argv, cwd=root, env=env, stdout=sys.stderr)
        if code != 0:
            raise IntegrityError(f"build failed: {' '.join(argv)}")


def on_signal(signum, _frame):
    raise IntegrityError(f"stopped by signal {signum}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        print("perfbench: run from the root of a bdc checkout", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP, signal.SIGALRM):
        signal.signal(sig, on_signal)
    try:
        build(root, target)
        signal.alarm(RUN_LIMIT_S)
        os.makedirs(work)
        ctx = Ctx(target, work)
        t0 = time.perf_counter()
        if args.trace:
            metrics, tally = layers.traced(ctx, args.seconds, args.seed)
        else:
            metrics, tally = WORKLOADS[args.workload](ctx, args.seconds, args.seed)
        ctx.log(f"{args.workload} finished in {time.perf_counter() - t0:.1f}s")
    except Exception as e:  # noqa: BLE001 - any failure ends the run without a result
        print(f"perfbench: {args.workload} failed: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        fleet.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    for label in tally.mismatches[:20]:
        print(f"perfbench: output mismatch: {label}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
