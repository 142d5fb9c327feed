#!/usr/bin/env python3
"""Regenerates perfbench/reference.json: the SHA-256 of every output the
benchmark can check, produced by the current commit.

    python3 perfbench/reference.py      # from the checkout root, ~5 min

Covers the `bdc verify` report, the cold plan transcript at both budgets,
the probe node at both budgets, every organic.vt lattice point's sweep rendering, and the body
of every fleet read and miss path. Regenerate only when a change is meant
to alter outputs; a speed-up must leave this file untouched.
"""

import json
import os
import shutil
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from common import IntegrityError, Tally, flow_env, fresh_dir, run_child, sha256  # noqa: E402
from fleet import Fleet, stop_all  # noqa: E402
from flow import node_cache_outcomes, run_plan, split_points, verify_plan  # noqa: E402
from inputs import PROBE_NODE, VT_LATTICE, all_fleet_paths, vt_text  # noqa: E402


class Unchecked(dict):
    """A reference table that accepts anything while references are made."""

    def get(self, key, default=None):
        return None


def main():
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    work = fresh_dir(os.path.join(root, ".bench_work", "reference"))
    run.build(root, target)
    ctx = run.Ctx(target, work, ref={"fleet": Unchecked()})
    ref = {"plan": {}, "nodes": {}, "vt": {}, "fleet": {}}
    try:
        ref["verify"] = sha256(verify_plan(ctx, fresh_dir(os.path.join(work, "verify"))).out)
        for budget, quick in (("standard", False), ("quick", True)):
            workdir = fresh_dir(os.path.join(work, budget))
            store = os.path.join(workdir, "store")
            ref["plan"][budget] = sha256(run_plan(ctx, store, quick).out)
            argv = [ctx.bin("bdc"), "run", PROBE_NODE] + (["--quick"] if quick else [])
            child = run_child(argv, workdir, flow_env(store), 60)
            if child.code != 0 or node_cache_outcomes(workdir) != ["hit"]:
                raise IntegrityError(f"warm bdc run {PROBE_NODE} ({budget}) failed")
            ref["nodes"][budget] = {PROBE_NODE: sha256(child.out)}
            ctx.log(f"plan and probe node at the {budget} budget done")

        # `store` is now the warm quick store: one single-point sweep per
        # lattice value.
        for v in VT_LATTICE:
            spec = f"organic.vt={vt_text(v)}:{vt_text(v)}:1"
            argv = [ctx.bin("bdc"), "sweep", "--quick", "--param", spec]
            child = run_child(argv, workdir, flow_env(store), 120)
            points = split_points(child.out)
            if child.code != 0 or len(points) != 1 or points[0][0] != vt_text(v):
                raise IntegrityError(f"bdc sweep {spec} failed")
            ref["vt"][vt_text(v)] = sha256(points[0][1])
        ctx.log(f"{len(VT_LATTICE)} sweep points done")

        fleet = Fleet(ctx, "fleet")
        fleet.start()
        fleet.warm_and_prime(Tally())
        for path in all_fleet_paths():
            status, body, _ = fleet.router.get(path)
            if status != 200:
                raise IntegrityError(f"{path} answered {status}")
            ref["fleet"][path] = sha256(body)
        fleet.stop()
        ctx.log(f"{len(ref['fleet'])} fleet paths done")
    finally:
        stop_all()
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
