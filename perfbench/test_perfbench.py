"""Tests of the benchmark's own logic (no build, no processes).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import Tally, sha256  # noqa: E402
from flow import split_points  # noqa: E402
from inputs import (  # noqa: E402
    MISS_MIX,
    MISS_STRATA,
    NOMINAL_VT,
    PROBE_NODE,
    READ_SET,
    VT_LATTICE,
    MissDraw,
    all_fleet_paths,
    grid_values,
    vt_text,
    vt_triples,
)

with open(os.path.join(HERE, "reference.json")) as f:
    REF = json.load(f)


class OkFrac(unittest.TestCase):
    def test_tampered_output_lowers_ok_frac(self):
        body = b'{"fe":2,"be":4,"ipc":1.25}'
        expected = sha256(body)
        clean, tampered = Tally(), Tally()
        for _ in range(4):
            clean.check("read", body, expected)
            tampered.check("read", body, expected)
        tampered.check("read", body.replace(b"1.25", b"1.26"), expected)
        clean.check("read", body, expected)
        self.assertEqual(clean.frac(), 1.0)
        self.assertEqual(tampered.frac(), 0.8)
        self.assertEqual(tampered.failed, 1)

    def test_failed_request_is_not_ok_even_with_right_bytes(self):
        t = Tally()
        t.check("miss", b"x", sha256(b"x"), succeeded=False)
        self.assertEqual(t.frac(), 0.0)

    def test_input_without_reference_is_not_ok(self):
        t = Tally()
        t.check("vt=-9", b"x", REF["vt"].get("-9"))
        self.assertEqual(t.failed, 1)

    def test_tampered_sweep_point_fails_only_that_point(self):
        a, b = VT_LATTICE[0], VT_LATTICE[1]
        transcript = (
            f"==== sweep point 0: organic.vt = {vt_text(a)} ====\nalpha\n"
            f"==== sweep point 1: organic.vt = {vt_text(b)} ====\nbeta\n"
        ).encode()
        points = split_points(transcript)
        self.assertEqual(points, [(vt_text(a), b"alpha\n"), (vt_text(b), b"beta\n")])
        refs = {vt_text(a): sha256(b"alpha\n"), vt_text(b): sha256(b"beta\n")}
        t = Tally()
        for text, body in split_points(transcript.replace(b"beta", b"bet4")):
            t.check(text, body, refs[text])
        self.assertEqual(t.frac(), 0.5)


class Inputs(unittest.TestCase):
    def test_vt_triples_are_exact_unique_lattice_grids(self):
        for seed in range(20):
            seen = set()
            for values in vt_triples(seed):
                self.assertEqual(grid_values(values[0], values[-1], 3), values)
                for v in values:
                    self.assertIn(v, VT_LATTICE)
                    self.assertNotEqual(v, NOMINAL_VT)
                    self.assertNotIn(v, seen)
                    seen.add(v)
            self.assertGreaterEqual(len(seen), 30)

    def test_vt_draw_depends_only_on_seed(self):
        self.assertEqual(list(vt_triples(7)), list(vt_triples(7)))
        self.assertNotEqual(list(vt_triples(7)), list(vt_triples(8)))

    def test_every_op_has_the_same_miss_mix_and_no_repeats(self):
        draw = MissDraw(3)
        self.assertGreaterEqual(draw.capacity(), 10)
        sent = []
        for _ in range(draw.capacity()):
            op = draw.op()
            for stratum, n in MISS_MIX.items():
                lattice = [p for paths in MISS_STRATA[stratum].values() for p in paths]
                self.assertEqual(sum(p in lattice for p in op), n)
            sent += op
        self.assertEqual(len(sent), len(set(sent)))
        self.assertFalse(set(sent) & set(READ_SET))

    def test_a_ten_op_run_simulates_every_ipc_query_once(self):
        ipc = {p for paths in MISS_STRATA["ipc"].values() for p in paths}
        for seed in (1, 2):
            draw = MissDraw(seed)
            sent = [p for _ in range(10) for p in draw.op() if p in ipc]
            self.assertEqual(sorted(sent), sorted(ipc))

    def test_reference_covers_every_drawable_input(self):
        self.assertIn("verify", REF)
        self.assertEqual(set(REF["vt"]), {vt_text(v) for v in VT_LATTICE})
        self.assertEqual(set(REF["fleet"]), set(all_fleet_paths()))
        for budget in ("standard", "quick"):
            self.assertEqual(set(REF["nodes"][budget]), {PROBE_NODE})
            self.assertIn(budget, REF["plan"])


if __name__ == "__main__":
    unittest.main()
