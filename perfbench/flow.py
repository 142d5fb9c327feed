"""The two flow workloads, driven through the `bdc` binary.

reproduce_cold: set-up is a fresh store directory and `bdc verify` of the
    plan and stage graphs; one op is `bdc run --all` at the standard
    budget from an empty artifact store, in a fresh process.
vt_sweep: set-up is a cold `bdc run --all --quick`; one op is an
    incremental `bdc sweep` over three organic.vt lattice values in that
    warmed store.

Both also time read and miss probes: paired first and repeated
`bdc run PROBE_NODE` requests in fresh stores, in bursts before the first
op and after every op.
"""

import os
import re
import time
from statistics import median

from common import IntegrityError, Tally, flow_env, fresh_dir, read_json, run_child
from inputs import PROBE_NODE, grid_values, vt_text, vt_triples

# reproduce_cold sets up 8 times before its first op and 8 times after
# each op's probes; vt_sweep sets up twice (each is a 5-7 s cold plan).
COLD_SETUP_BURST = 8
VT_SETUPS = 2
# Miss/hit pairs per probe burst, about 1 s.
PROBE_PAIRS = 24
# A run does round(--seconds / these) ops, at least one, so parent and
# change do the same work. On the 2-vCPU reference machine reproduce_cold's op takes 14-26 s
# and vt_sweep's 3-6 s: reproduce_cold still runs twice per 20 s so that
# its probes sample three moments, and vt_sweep runs 3 ops so that a run
# stays near 40 s when the machine is slow.
NOMINAL_OP_S = {"reproduce_cold": 10.0, "vt_sweep": 6.5}
CHILD_TIMEOUT = 150
# Gap before each cold set-up sample. The machine's speed moves
# from one second to the next, so a burst of back-to-back samples catches
# one moment; paced, a burst spans a few seconds.
PACE_S = 0.05
POINT_HEADER = re.compile(rb"^==== sweep point (\d+): organic\.vt = (\S+) ====\n", re.M)


def run_plan(ctx, store, quick):
    argv = [ctx.bin("bdc"), "run", "--all"] + (["--quick"] if quick else [])
    child = run_child(argv, os.path.dirname(store), flow_env(store), CHILD_TIMEOUT)
    if child.code != 0:
        raise IntegrityError(f"bdc run --all failed ({child.code}): {child.err[-400:]!r}")
    return child


def node_cache_outcomes(workdir):
    manifest = read_json(os.path.join(workdir, "results", "run_manifest.json"))
    return [n["cache"] for n in manifest["nodes"]]


def probe_pairs(ctx, quick, reads, misses, tally):
    """A burst of PROBE_PAIRS paired probes of PROBE_NODE at the workload's
    budget, each in a fresh, empty store: a first `bdc run` (which must be
    a miss) and the same request again (which must be a hit). Appends the
    latencies, in ms, to `misses` and `reads`."""
    budget = "quick" if quick else "standard"
    argv = [ctx.bin("bdc"), "run", PROBE_NODE] + (["--quick"] if quick else [])
    expected = ctx.ref["nodes"][budget].get(PROBE_NODE)
    # The op just wrote its store; flush it first, so the probes do not
    # time the kernel's write-back of the op's files.
    os.sync()
    for _ in range(PROBE_PAIRS):
        workdir = fresh_dir(os.path.join(ctx.work, "probe"))
        env = flow_env(os.path.join(workdir, "store"))
        for expect, out in (("miss", misses), ("hit", reads)):
            child = run_child(argv, workdir, env, CHILD_TIMEOUT)
            out.append(child.wall_s * 1e3)
            # A failed request is counted as not ok; one that succeeded
            # must have been the miss or hit the probe is meant to time.
            if not tally.check(f"{PROBE_NODE}@{budget} {expect}", child.out, expected, child.code == 0):
                continue
            outcome = node_cache_outcomes(workdir)
            if outcome != [expect]:
                raise IntegrityError(f"{PROBE_NODE}@{budget} should be a cache {expect}, was {outcome}")


def metrics(setup, walls, cpus, rss, points_per_op, reads, misses, tally):
    return {
        "setup_s": (median(setup), "s"),
        "ok_frac": (tally.frac(), "fraction"),
        "peak_rss_mb": (max(rss), "MB"),
        "op_p50_s": (median(walls), "s"),
        "cpu_s": (median(cpus), "CPU-s"),
        "point_s": (median([w / points_per_op for w in walls]), "s"),
        "read_p50_ms": (median(reads), "ms"),
        "miss_p50_ms": (median(misses), "ms"),
    }


def op_count(workload, seconds):
    return max(1, round(seconds / NOMINAL_OP_S[workload]))


def verify_plan(ctx, workdir):
    """`bdc verify`: the static checks of the plan graph (25 nodes) and the
    stage graph (47 stages). It writes its JSON report under the
    checkout's results/, as it does for any user."""
    child = run_child([ctx.bin("bdc"), "verify"], workdir, flow_env(os.path.join(workdir, "store")), 30)
    if child.code != 0:
        raise IntegrityError(f"bdc verify failed ({child.code}): {child.err[-400:]!r}")
    return child


def cold_setups(ctx, count, setup, tally):
    """A cold op's set-up: a fresh store directory and `bdc verify` of the
    plan it will run, 20-40 ms. One sample's time swings with the machine's
    speed, so it is repeated in paced bursts spread over the run."""
    for _ in range(count):
        time.sleep(PACE_S)
        t0 = time.perf_counter()
        d = fresh_dir(os.path.join(ctx.work, f"setup-{len(setup)}"))
        child = verify_plan(ctx, d)
        setup.append(time.perf_counter() - t0)
        tally.check(f"verify-{len(setup)}", child.out, ctx.ref["verify"])


def reproduce_cold(ctx, seconds, seed):
    """The fixed plan and probe node are the whole workload: the seed
    changes nothing here."""
    tally = Tally()
    setup = []
    cold_setups(ctx, COLD_SETUP_BURST, setup, tally)

    walls, cpus, rss, reads, misses = [], [], [], [], []
    probe_pairs(ctx, False, reads, misses, tally)
    for op in range(op_count("reproduce_cold", seconds)):
        workdir = fresh_dir(os.path.join(ctx.work, f"op-{op}"))
        store = os.path.join(workdir, "store")
        child = run_plan(ctx, store, quick=False)
        outcomes = node_cache_outcomes(workdir)
        if len(outcomes) != 25 or any(o != "miss" for o in outcomes):
            raise IntegrityError(f"cold op {op} was served from cache: {outcomes}")
        tally.check(f"plan-op-{op}", child.out, ctx.ref["plan"]["standard"])
        walls.append(child.wall_s)
        cpus.append(child.cpu_s)
        rss.append(child.maxrss_mb)
        ctx.log(f"reproduce_cold op {op + 1}: {child.wall_s:.3f}s wall, {child.cpu_s:.3f} CPU-s")
        probe_pairs(ctx, False, reads, misses, tally)
        cold_setups(ctx, COLD_SETUP_BURST, setup, tally)

    return metrics(setup, walls, cpus, rss, 1, reads, misses, tally), tally


def split_points(transcript):
    """(value text, body bytes) per sweep point, in transcript order."""
    heads = list(POINT_HEADER.finditer(transcript))
    out = []
    for i, m in enumerate(heads):
        end = heads[i + 1].start() if i + 1 < len(heads) else len(transcript)
        out.append((m.group(2).decode(), transcript[m.end():end]))
    return out


def sweep_op(ctx, workdir, store, values, tally, seen):
    """One incremental sweep over `values` (an exact 3-point grid) in the
    warmed store; checks every point's bytes and miss cone."""
    spec = f"organic.vt={vt_text(values[0])}:{vt_text(values[-1])}:{len(values)}"
    assert grid_values(values[0], values[-1], len(values)) == values
    argv = [ctx.bin("bdc"), "sweep", "--quick", "--param", spec]
    child = run_child(argv, workdir, flow_env(store), CHILD_TIMEOUT)
    if child.code != 0:
        raise IntegrityError(f"bdc sweep {spec} failed ({child.code}): {child.err[-400:]!r}")
    manifest = read_json(os.path.join(workdir, "results", "sweep_manifest.json"))
    points = split_points(child.out)
    if len(points) != len(values) or len(manifest["points"]) != len(values):
        raise IntegrityError(f"sweep {spec} produced {len(points)} points")
    counts = []
    for (text, body), v, row in zip(points, values, manifest["points"]):
        if text != vt_text(v) or row["value"] != v:
            raise IntegrityError(f"sweep point {text} is not the requested {vt_text(v)}")
        if v in seen:
            raise IntegrityError(f"organic.vt = {text} was swept twice in one run")
        seen.add(v)
        if row["stage_misses"] <= 0:
            raise IntegrityError(f"sweep point {text} recomputed nothing")
        counts.append((row["stage_hits"], row["stage_misses"]))
        tally.check(f"vt={text}", body, ctx.ref["vt"].get(text))
    return child, counts


def setup_vt_store(ctx, name):
    workdir = fresh_dir(os.path.join(ctx.work, name))
    store = os.path.join(workdir, "store")
    child = run_plan(ctx, store, quick=True)
    return workdir, store, child


def vt_sweep(ctx, seconds, seed):
    tally = Tally()
    setup, rss = [], []
    for i in range(VT_SETUPS):
        t0 = time.perf_counter()
        workdir, store, child = setup_vt_store(ctx, f"setup-{i}")
        setup.append(time.perf_counter() - t0)
        rss.append(child.maxrss_mb)
        tally.check(f"setup-{i}", child.out, ctx.ref["plan"]["quick"])

    walls, cpus, reads, misses = [], [], [], []
    probe_pairs(ctx, True, reads, misses, tally)
    seen = set()
    triples = vt_triples(seed)
    for _ in range(op_count("vt_sweep", seconds)):
        values = next(triples, None)
        if values is None:
            raise IntegrityError("the V_T lattice ran out of unused grids")
        child, counts = sweep_op(ctx, workdir, store, values, tally, seen)
        walls.append(child.wall_s)
        cpus.append(child.cpu_s)
        rss.append(child.maxrss_mb)
        ctx.log(f"vt_sweep op {len(walls)}: {child.wall_s:.3f}s wall, points {counts}")
        probe_pairs(ctx, True, reads, misses, tally)
    return metrics(setup, walls, cpus, rss, 3, reads, misses, tally), tally
