"""The traced pass: per-layer metrics from the benchmark's own timed calls
into each layer, separate from the untimed end-to-end runs.

Every traced run reports every layer, whatever the workload:
  1. `bdc-perfprobe layers`: single public-API calls (cells, circuit,
     synth, uarch, exec) in a fresh process;
  2. `bdc-perfprobe plan`: one cold standard-budget registry::run_plan,
     against one untraced `bdc run --all` for trace.overhead_frac;
  3. one incremental `bdc sweep` op over a warmed quick store;
  4. one fleet: reads through the router and straight to the shards, and
     first-time misses straight to the shards, with a median per endpoint.
"""

import json
import os
import random
import time
from statistics import median

from common import IntegrityError, Tally, flow_env, fresh_dir, run_child
from fleet import READ_SET, Conn, MissDraw, boot, engine_totals
from flow import run_plan, setup_vt_store, sweep_op
from inputs import vt_triples

PROBE_TIMEOUT = 150
PLAN_NODES = ("fig13", "fig11", "fig14", "ext-energy-depth")
HOP_SAMPLES = 300
DIRECT_MISS_OPS = 8  # 96 ipc, 8 depth, 16 synth and 8 width misses


def probe(ctx, args, name):
    workdir = fresh_dir(os.path.join(ctx.work, name))
    store = os.path.join(workdir, "store")
    child = run_child([ctx.bin("bdc-perfprobe")] + args, workdir, flow_env(store), PROBE_TIMEOUT)
    if child.code != 0:
        raise IntegrityError(f"bdc-perfprobe {args[0]} failed: {child.err[-400:]!r}")
    return child, json.loads(child.out.decode().strip().splitlines()[-1]), workdir


def layer_calls(ctx):
    _, m, _ = probe(ctx, ["layers"], "trace-layers")
    return {
        "bdc-cells.lib_organic_s": (m["lib_organic_s"], "s"),
        "bdc-cells.lib_silicon_s": (m["lib_silicon_s"], "s"),
        "bdc-circuit.nldm_cell_ms": (m["nldm_cell_ms"], "ms"),
        "bdc-synth.core_ms": (m["core_ms"], "ms"),
        "bdc-synth.alu_ms": (m["alu_ms"], "ms"),
        "bdc-synth.sta_ms": (m["sta_ms"], "ms"),
        "bdc-uarch.minst_per_s": (m["minst_per_s"], "Minst/s"),
        "bdc-exec.store_load_us": (m["store_load_us"], "us"),
        "bdc-exec.store_write_us": (m["store_write_us"], "us"),
    }


def plan_layers(ctx, tally):
    out = os.path.join(ctx.work, "trace-plan.txt")
    child, m, _ = probe(ctx, ["plan", "--out", out], "trace-plan")
    with open(out, "rb") as f:
        tally.check("traced plan", f.read(), ctx.ref["plan"]["standard"])
    if m["node_hits"] != 0:
        raise IntegrityError("the traced cold plan was served from cache")
    untraced = run_plan(ctx, os.path.join(fresh_dir(os.path.join(ctx.work, "trace-untraced")), "store"), quick=False)
    tally.check("untraced plan", untraced.out, ctx.ref["plan"]["standard"])

    wall, workers = m["wall_s"], m["workers"]
    nodes = m["nodes"]
    # Node spans carry no start times, so coverage is bounded below by the
    # longest node and by the node time spread evenly over the workers.
    covered = min(wall, max(max(nodes.values()), sum(nodes.values()) / workers))
    metrics = {f"bdc-core.node_s.{n}": (nodes[n], "s") for n in PLAN_NODES}
    metrics.update({
        "bdc-uarch.ipc_sims": (m["ipc_misses"], "count"),
        "bdc-core.parallel_eff": (child.cpu_s / (child.wall_s * workers), "fraction"),
        "bdc-core.unattributed_frac": (1.0 - covered / wall, "fraction"),
        "trace.overhead_frac": (child.wall_s / untraced.wall_s - 1.0, "fraction"),
    })
    return metrics


def sweep_layers(ctx, seed, tally):
    workdir, store, child = setup_vt_store(ctx, "trace-sweep")
    tally.check("traced sweep set-up", child.out, ctx.ref["plan"]["quick"])
    values = next(vt_triples(seed))
    _, counts = sweep_op(ctx, workdir, store, values, tally, set())
    if len(set(counts)) != 1:
        raise IntegrityError(f"sweep points disagree on stage reuse: {counts}")
    hits, misses = counts[0]
    return {
        "bdc-exec.stage_hits": (hits, "count"),
        "bdc-exec.stage_misses": (misses, "count"),
    }


def closed_loop_ms(conn_for, paths, refs, tally, label):
    """Sends `paths` one after another; returns each latency in ms."""
    ms = []
    for path in paths:
        t0 = time.perf_counter()
        status, body, _ = conn_for(path).get(path)
        ms.append((time.perf_counter() - t0) * 1e3)
        tally.check(f"{label} {path}", body, refs.get(path), status == 200)
    return ms


def fleet_layers(ctx, seed, tally):
    fleet, owners, _ = boot(ctx, "trace-fleet", tally)
    try:
        refs = ctx.ref["fleet"]
        rng = random.Random(f"trace-{seed}")
        direct = [Conn(p) for p in fleet.shard_ports]
        paths = [rng.choice(READ_SET) for _ in range(HOP_SAMPLES)]
        before = fleet.metrics()
        via_router = median(closed_loop_ms(lambda p: fleet.router, paths, refs, tally, "router read"))
        straight = median(closed_loop_ms(lambda p: direct[owners[p]], paths, refs, tally, "direct read"))
        draw = MissDraw(f"trace-{seed}")
        misses = [p for _ in range(DIRECT_MISS_OPS) for p in draw.op()]
        turn = iter(range(len(misses)))
        miss_ms = closed_loop_ms(
            lambda p: direct[next(turn) % len(direct)], misses, refs, tally, "direct miss"
        )
        after = fleet.metrics()
        for c in direct:
            c.close()
    finally:
        fleet.stop()
    hits = engine_totals(after)[0] - engine_totals(before)[0]
    requests = engine_totals(after)[2] - engine_totals(before)[2]
    # Most misses are ipc misses, so the overall median is in effect the
    # ipc one; the per-endpoint medians keep the other endpoints visible.
    by_endpoint = {}
    for path, ms in zip(misses, miss_ms):
        by_endpoint.setdefault(path.split("?")[0].rsplit("/", 1)[1], []).append(ms)
    metrics = {
        f"bdc-serve.direct_miss_p50_ms.{e}": (median(v), "ms") for e, v in sorted(by_endpoint.items())
    }
    return metrics | {
        "bdc-serve.direct_read_p50_ms": (straight, "ms"),
        "bdc-serve.direct_miss_p50_ms": (median(miss_ms), "ms"),
        "bdc-serve.resp_cache_hit_frac": (hits / requests, "fraction"),
        "bdc-cluster.router_hop_ms": (via_router - straight, "ms"),
        "bdc-cluster.failovers": (after["router"]["failovers"], "count"),
    }


def traced(ctx, seconds, seed):
    tally = Tally()
    metrics = layer_calls(ctx)
    metrics.update(plan_layers(ctx, tally))
    metrics.update(sweep_layers(ctx, seed, tally))
    metrics.update(fleet_layers(ctx, seed, tally))
    return metrics, tally
