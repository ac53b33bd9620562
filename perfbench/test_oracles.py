"""Each benchmark check passes on the program's output and rejects a
corrupted copy of it.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import sys
import unittest

import oracles
import run
from workloads import GEOMETRY_TASKS, Geometry, Incidence, Stabilizer, Suite

sys.path.insert(0, run.SRC)


def outputs_for(workload, cells):
    lg, graphs = run.setup(workload)
    return {cell: workload.run_cell(lg, graphs, cell) for cell in cells}


class FieldAndGroups(unittest.TestCase):
    def test_gf4_matches_the_polynomial_encoding(self):
        F = oracles.Field(4)  # x is 2, x + 1 is 3, and x^2 = x + 1
        self.assertEqual(F.mul_table[2][2], 3)
        self.assertEqual(F.add_table[2][1], 3)
        self.assertEqual([F.mul_table[a][F.inv[a]] for a in (1, 2, 3)], [1, 1, 1])

    def test_closure_accepts_a_group_and_rejects_a_subset(self):
        cyc = [tuple((i + k) % 5 for i in range(5)) for k in range(5)]
        self.assertTrue(oracles.closes_to_group(cyc, tuple(range(5)), oracles._compose))
        self.assertFalse(oracles.closes_to_group(cyc[:4], tuple(range(5)), oracles._compose))

    def test_orders(self):
        self.assertEqual(oracles.pgammal_order(3, 3), 5616)
        self.assertEqual(oracles.toy_order(3), 144)
        self.assertEqual(oracles.toy_order(4), 1728)
        self.assertEqual(oracles.config_count(2), 5040)


class Stabilizers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.w = Stabilizer(run.ROOT, 1)
        cls.cells = [("toy", 3, "proj"), ("gen_p3", 3, "proj")]
        cls.out = outputs_for(cls.w, cls.cells)

    def test_program_output_passes(self):
        self.assertEqual(self.w.check(self.out), [])

    def test_order_off_by_one_is_rejected(self):
        bad = copy.deepcopy(self.out)
        bad[self.cells[0]]["order"] += 1
        self.assertTrue(self.w.check(bad))

    def test_dropped_matrix_is_rejected(self):
        bad = copy.deepcopy(self.out)
        bad[self.cells[1]]["linear"].pop()
        bad[self.cells[1]]["n_elements"] -= bad[self.cells[1]]["frob"]
        bad[self.cells[1]]["order"] = bad[self.cells[1]]["n_elements"]
        self.assertTrue(self.w.check(bad))


class Incidences(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.w = Incidence(run.ROOT, 1)
        cls.cells = [("toy", 3, "comb"), ("gamma1", 3, "comb")]
        cls.out = outputs_for(cls.w, cls.cells)

    def test_program_output_passes(self):
        self.assertEqual(self.w.check(self.out), [])

    def test_order_off_by_one_is_rejected(self):
        bad = copy.deepcopy(self.out)
        bad[self.cells[1]]["order"] += 1
        self.assertTrue(self.w.check(bad))

    def test_dropped_point_is_rejected(self):
        bad = copy.deepcopy(self.out)
        bad[self.cells[0]]["points"].pop()
        self.assertTrue(self.w.check(bad))

    def test_permutation_breaking_a_line_is_rejected(self):
        bad = copy.deepcopy(self.out)
        perms = bad[self.cells[0]]["perms"]
        p = list(perms[-1])
        p[0], p[1] = p[1], p[0]
        perms[-1] = tuple(p)
        self.assertTrue(self.w.check(bad))


class Geometries(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.w = Geometry(run.ROOT, 1)
        cls.w.trees = ("toy", "gen_p4")
        cls.out = outputs_for(cls.w, cls.w.cells())

    def test_program_output_passes(self):
        self.assertEqual(self.w.check(self.out), [])

    def corrupted(self, task, change):
        bad = copy.deepcopy(self.out)
        change(bad[("gen_p4", 3, task)])
        return self.w.check(bad)

    def test_dropped_point_is_rejected(self):
        self.assertTrue(self.corrupted("points", lambda o: o["points"].pop()))

    def test_point_count_off_by_one_is_rejected(self):
        def bump(o):
            o["point_counts"][1] += 1
        self.assertTrue(self.corrupted("points", bump))

    def test_dropped_line_is_rejected(self):
        self.assertTrue(self.corrupted("lines", lambda o: o.pop()))

    def test_dropped_decomposition_point_is_rejected(self):
        self.assertTrue(self.corrupted("decompose", lambda o: o["parts"][2].pop()))

    def test_failed_rules_verdict_is_rejected(self):
        bad = copy.deepcopy(self.out)
        bad[("toy", 3, "rules")] = "fail"
        self.assertTrue(self.w.check(bad))

    def test_every_task_is_checked(self):
        self.assertEqual(len(self.w.cells()), len(self.w.trees) * len(GEOMETRY_TASKS))


class Suites(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.w = Suite(run.ROOT, 1)
        cls.out = outputs_for(cls.w, cls.w.cells())
        cls.cell = cls.w.cells()[0]

    def test_program_output_passes(self):
        self.assertEqual(self.w.check(self.out), [])
        self.assertEqual(len(self.out[self.cell]["reports"]), self.w.ops_per_round())

    def test_missing_report_is_rejected(self):
        bad = copy.deepcopy(self.out)
        bad[self.cell]["reports"].pop()
        self.assertTrue(self.w.check(bad))

    def test_root_count_off_by_one_is_rejected(self):
        bad = copy.deepcopy(self.out)
        for t, _, _, quant in bad[self.cell]["reports"]:
            if t == "transroot":
                quant["count"] += 1
        self.assertTrue(self.w.check(bad))

    def test_flipped_igp_verdict_is_rejected(self):
        bad = copy.deepcopy(self.out)
        for t, _, _, quant in bad[self.cell]["reports"]:
            if t == "igp":
                quant["holds"] = not quant["holds"]
        self.assertTrue(self.w.check(bad))

    def test_nonzero_exit_is_rejected(self):
        bad = copy.deepcopy(self.out)
        bad[self.cell]["rc"] = 1
        self.assertTrue(self.w.check(bad))


if __name__ == "__main__":
    unittest.main()
