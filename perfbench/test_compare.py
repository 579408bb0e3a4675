"""Tests of the comparison rules in compare.py on synthetic samples.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import io
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402


def paired(parent, change):
    return list(zip(parent, change))


def run_lines(workload, seed, trace, metrics, correct=True, failed=0,
              exact=()):
    meta = {"workload": workload, "seed": seed, "trace": trace,
            "seconds": 20.0}
    result = {"correct": correct, "attempted": 10, "failed": failed,
              "metrics": {k: {"value": v, "unit": "x"}
                          for k, v in metrics.items()}}
    exact_line = f"{json.dumps({'exact': list(exact)})}\n" if exact else ""
    return (f"row 1 2\n{exact_line}{json.dumps({'meta': meta})}\n"
            f"{json.dumps(result)}\n")


BENCH = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [{"name": "rate", "unit": "1/s", "better": "higher",
                    "bound": 0.1}],
    "per_layer": [{"name": "mac.collisions", "unit": "count",
                   "better": "lower"},
                  {"name": "dsp.envelope_ns_per_sample", "unit": "ns",
                   "better": "lower"}],
}


class JudgeTest(unittest.TestCase):
    def test_clear_gain_is_improved(self):
        parent = [100 + i for i in range(10)]
        change = [120 + i for i in range(10)]
        j = compare.judge(paired(parent, change), "higher", 0.1)
        self.assertEqual(j["verdict"], "improved")
        self.assertEqual(j["wins"], 10)

    def test_one_tie_of_ten_still_meets_nine_tenths(self):
        parent = [100.0] * 10
        change = [100.0] + [105.0] * 9
        j = compare.judge(paired(parent, change), "higher", 0.1)
        self.assertEqual((j["wins"], j["ties"]), (9, 1))
        self.assertEqual(j["verdict"], "improved")

    def test_two_ties_of_ten_do_not_count_as_wins(self):
        parent = [100.0] * 10
        change = [100.0, 100.0] + [101.0] * 8
        j = compare.judge(paired(parent, change), "higher", 0.1)
        self.assertEqual((j["wins"], j["ties"]), (8, 2))
        self.assertNotEqual(j["verdict"], "improved")

    def test_gain_needs_median_gap_beyond_parent_spread(self):
        parent = [90, 95, 100, 105, 110, 90, 95, 100, 105, 110]
        change = [p + 1 for p in parent]
        j = compare.judge(paired(parent, change), "higher", 0.5)
        self.assertEqual(j["wins"], 10)
        self.assertEqual(j["verdict"], "unchanged")

    def test_lower_is_better_regression_beyond_bound(self):
        parent = [10.0] * 10
        change = [13.0] * 10
        j = compare.judge(paired(parent, change), "lower", 0.1)
        self.assertEqual(j["verdict"], "REGRESSION")
        self.assertAlmostEqual(j["worse_by"], 0.3, places=6)

    def test_worse_within_bound_is_unchanged(self):
        parent = [100.0 + 0.1 * i for i in range(10)]
        change = [95.0 + 0.1 * i for i in range(10)]
        j = compare.judge(paired(parent, change), "higher", 0.1)
        self.assertEqual(j["verdict"], "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        change = [c + 2 for c in parent]
        j = compare.judge(paired(parent, change), "higher", 0.1)
        self.assertGreater(j["spread"], 0.1)
        self.assertEqual(j["verdict"], "unresolved")

    def test_wide_spread_resolved_when_every_change_run_is_better(self):
        parent = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        change = [c + 200 for c in parent]
        j = compare.judge(paired(parent, change), "higher", 0.1)
        self.assertEqual(j["verdict"], "improved")


class ResultSetTest(unittest.TestCase):
    def test_parse_pairs_meta_with_result(self):
        text = (run_lines("w", 1, 0, {"rate": 5.0}) + "noise\n{bad json\n"
                + run_lines("w", 2, 1, {"mac.collisions": 3}))
        runs = compare.parse_runs(text)
        self.assertEqual([(r["seed"], r["trace"]) for r in runs],
                         [(1, 0), (2, 1)])
        self.assertEqual(runs[0]["metrics"], {"rate": 5.0})

    def test_runs_pair_by_seed(self):
        p = compare.parse_runs(run_lines("w", 1, 0, {"rate": 1.0})
                               + run_lines("w", 2, 0, {"rate": 2.0}))
        c = compare.parse_runs(run_lines("w", 2, 0, {"rate": 20.0})
                               + run_lines("w", 1, 0, {"rate": 10.0}))
        self.assertEqual(compare.pairs(p, c, "rate"),
                         [(1.0, 10.0), (2.0, 20.0)])

    def test_runs_with_different_seeds_do_not_pair(self):
        p = compare.parse_runs(run_lines("w", 1, 0, {"rate": 1.0})
                               + run_lines("w", 2, 0, {"rate": 2.0}))
        c = compare.parse_runs(run_lines("w", 1, 0, {"rate": 1.0})
                               + run_lines("w", 3, 0, {"rate": 3.0}))
        with self.assertRaises(ValueError):
            compare.pairs(p, c, "rate")
        with self.assertRaises(ValueError):
            compare.pairs(p[:1] * 2, c[:1] * 2, "rate")

    def test_moved_exact_counter_is_flagged(self):
        def traced(collisions, envelope_ns):
            return compare.parse_runs(run_lines(
                "w", 7, 1, {"mac.collisions": collisions,
                            "dsp.envelope_ns_per_sample": envelope_ns},
                exact=["mac.collisions"]))
        p = traced(40, 3.0)
        same = traced(40, 2.0)
        moved = traced(41, 3.0)
        self.assertEqual(p[0]["exact"], {"mac.collisions"})
        self.assertEqual(compare.exact_moves(p, same), [])
        self.assertEqual(compare.exact_moves(p, moved),
                         [("w", 7, "mac.collisions", 40, 41)])
        self.assertFalse(compare.report(p, moved, BENCH, out=io.StringIO()))
        self.assertTrue(compare.report(p, same, BENCH, out=io.StringIO()))

    def test_failed_change_run_blocks(self):
        p = compare.parse_runs(run_lines("w", 1, 0, {"rate": 1.0}))
        c = compare.parse_runs(run_lines("w", 1, 0, {"rate": 1.0},
                                         correct=False, failed=1))
        self.assertFalse(compare.report(p, c, BENCH, out=io.StringIO()))

    def test_regression_blocks_report(self):
        p = compare.parse_runs("".join(run_lines("w", s, 0, {"rate": 100.0 + s})
                                       for s in range(10)))
        c = compare.parse_runs("".join(run_lines("w", s, 0, {"rate": 50.0 + s})
                                       for s in range(10)))
        out = io.StringIO()
        self.assertFalse(compare.report(p, c, BENCH, out=out))
        self.assertIn("REGRESSION", out.getvalue())


if __name__ == "__main__":
    unittest.main()
