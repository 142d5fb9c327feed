"""Every input the benchmark can draw, and the seeded draws.

The reference digests in reference.json cover exactly these inputs, so
any output the benchmark checks has a reference."""

import random

# The node the flow workloads' read/miss probes request, first in an empty
# store (a miss) and then again (a hit): the pseudo-E inverter across
# supply voltages, a device and circuit computation of about 13 ms.
PROBE_NODE = "fig07"

# organic.vt lattice: -1.40 V .. -0.60 V in 10 mV steps, without the
# nominal -1.30 V (the set-up's default overlay).
NOMINAL_VT = -1.3
VT_LATTICE = [v for v in (round(-1.40 + 0.01 * i, 2) for i in range(81)) if v != NOMINAL_VT]


def vt_text(v):
    """The spelling the benchmark passes on the command line, which is also
    how Rust's `{}` prints the parsed value back (shortest round-trip form,
    no trailing `.0`)."""
    text = repr(v)
    return text[:-2] if text.endswith(".0") else text


def grid_values(start, end, count):
    """The grid `bdc sweep` derives from start:end:count
    (bdc_core::sweep::SweepSpec::values), in the same float arithmetic."""
    if count == 1:
        return [start]
    return [start + (end - start) * i / (count - 1) for i in range(count)]


def vt_triples(seed):
    """Seeded sequence of 3-point arithmetic grids over the lattice, no
    value repeating within the sequence. Only grids whose derived values
    are exactly lattice values are drawn, so every point has a reference."""
    rng = random.Random(f"vt-{seed}")
    lattice = set(VT_LATTICE)
    unused = list(VT_LATTICE)
    rng.shuffle(unused)
    while True:
        pick = None
        for a in unused:
            steps = [1, 2, 3, 4, 5, 6]
            rng.shuffle(steps)
            for k in steps:
                c = round(a + 0.02 * k, 2)
                vals = grid_values(a, c, 3)
                if all(v in lattice and v in unused for v in vals) and len(set(vals)) == 3:
                    pick = vals
                    break
            if pick:
                break
        if pick is None:
            return
        for v in pick:
            unused.remove(v)
        yield pick


# --- fleet -------------------------------------------------------------

# mcf is left out of the ipc misses: its 1 MiW memory image alone costs
# ~80 ms per request, 10x any other kernel, and would make the miss median
# depend on how often the seed draws it.
MISS_IPC_WORKLOADS = ["bzip", "gap", "gzip", "parser", "vortex", "dhrystone"]
PROCESSES = ["organic", "silicon"]
SPLITS = ["fetch", "decode", "rename", "dispatch", "issue", "regread", "execute", "mem"]

# Warm working set: primed at set-up, far below the response cache's 4096
# entries, and disjoint from every miss stratum below.
READ_SET = (
    [f"/v1/library?process={p}" for p in PROCESSES]
    + [f"/v1/width?process={p}&fe=1&be={be}" for p in PROCESSES for be in (3, 4, 5)]
    + [f"/v1/depth?process={p}&stages=9" for p in PROCESSES]
    + [f"/v1/synth?process={p}&fe_width=1&be_pipes=3" for p in PROCESSES]
    + [f"/v1/ipc?workload={w}" for w in ("gzip", "mcf", "parser", "dhrystone")]
)

# Miss strata: never-seen queries, one lattice per endpoint. Within a
# stratum the lattice is split into classes (front-end width, or the
# simulated program) that ops take in turn, so every run covers each class
# about equally and the seed only picks the remaining parameters.
MISS_STRATA = {
    "depth": {"all": [f"/v1/depth?process={p}&stages={s}" for p in PROCESSES for s in range(10, 16)]},
    "width": {
        fe: [f"/v1/width?process={p}&fe={fe}&be={be}" for p in PROCESSES for be in range(3, 8)]
        for fe in range(2, 7)
    },
    "ipc": {w: [f"/v1/ipc?workload={w}&outer={o}" for o in range(5, 25)] for w in MISS_IPC_WORKLOADS},
    "synth": {
        fe: [
            f"/v1/synth?process={p}&fe_width={fe}&be_pipes={be}&splits={s}"
            for p in PROCESSES for be in range(3, 8) for s in SPLITS
        ]
        for fe in range(2, 7)
    },
}

# Per-op composition: every op sends exactly these misses per endpoint.
# Most are ipc misses, so the median miss sits inside one stratum: the
# fleet's miss_p50_ms is in effect the ipc miss median, and the traced
# pass reports a miss median per endpoint to keep the others visible. The
# ipc lattice holds exactly 10 ops' worth, so a 10-op run simulates every
# ipc query once and its miss median does not depend on the seed's draw.
# Synth and width misses each build a core, which dominates the shards'
# memory; two in sixteen keep peak RSS from following the seed's draw.
MISS_MIX = {"ipc": 12, "depth": 1, "synth": 2, "width": 1}


class MissDraw:
    """Draws each op's misses: the fixed per-endpoint mix, classes taken in
    turn, parameters picked by the seed without replacement within the run."""

    def __init__(self, seed):
        self.rng = random.Random(f"miss-{seed}")
        self.pools = {}
        for name, classes in MISS_STRATA.items():
            self.pools[name] = []
            for paths in classes.values():
                pool = list(paths)
                self.rng.shuffle(pool)
                self.pools[name].append(pool)
        self.turn = {name: 0 for name in MISS_STRATA}

    def capacity(self):
        """Ops that can be drawn before some class runs dry."""
        left = {name: [len(p) for p in pools] for name, pools in self.pools.items()}
        turn = dict(self.turn)
        ops = 0
        while True:
            for name, n in MISS_MIX.items():
                for _ in range(n):
                    c = turn[name] % len(left[name])
                    if left[name][c] == 0:
                        return ops
                    left[name][c] -= 1
                    turn[name] += 1
            ops += 1

    def op(self):
        paths = []
        for name, n in MISS_MIX.items():
            pools = self.pools[name]
            for _ in range(n):
                paths.append(pools[self.turn[name] % len(pools)].pop())
                self.turn[name] += 1
        self.rng.shuffle(paths)
        return paths


def all_fleet_paths():
    return READ_SET + [
        p for classes in MISS_STRATA.values() for paths in classes.values() for p in paths
    ]
