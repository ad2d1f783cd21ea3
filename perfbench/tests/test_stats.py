"""Self-tests of the benchmark's arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import reference  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class TailRule(unittest.TestCase):
    def test_hundred_samples_give_p90(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.tail(xs), (90, 90.0, 100))

    def test_ten_samples_lie_beyond_the_value(self):
        xs = [float(x) for x in range(37, 0, -1)]
        value, pct, n = stats.tail(xs)
        self.assertEqual(sum(x > value for x in xs), 10)
        self.assertEqual(n, 37)
        self.assertAlmostEqual(pct, 100 * 27 / 37)

    def test_twenty_samples_give_the_median(self):
        xs = list(range(20))
        self.assertEqual(stats.tail(xs), (9, 50.0, 20))

    def test_few_samples_give_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        self.assertEqual(stats.tail(list(range(19))), (18, 100.0, 19))


class QualityRatio(unittest.TestCase):
    def test_geomean_of_ratios(self):
        self.assertAlmostEqual(stats.geomean_ratio([(2.0, 1.0), (8.0, 1.0)]), 4.0)
        self.assertAlmostEqual(stats.geomean_ratio([(3.0, 3.0)]), 1.0)

    def test_geomean_is_scale_free(self):
        a = stats.geomean_ratio([(2.0, 1.0), (1.0, 2.0)])
        b = stats.geomean_ratio([(200.0, 100.0), (1.0, 2.0)])
        self.assertAlmostEqual(a, 1.0)
        self.assertAlmostEqual(b, 1.0)

    def test_policy_metrics_pair_each_pick_with_its_best(self):
        rec = {"measured": [], "warm": [{"counts": {"stress_tests": 7.0}}],
               "extras": {"quality": [
                   {"policy": "bo", "app": "a", "seed": 0, "pick_min": 12.0, "best_safe_min": 10.0},
                   {"policy": "bo", "app": "b", "seed": 0, "pick_min": 30.0, "best_safe_min": 25.0},
                   {"policy": "relm", "app": "a", "seed": 0, "pick_min": 10.0, "best_safe_min": 10.0}]}}
        m = run.policy_metrics(rec)
        self.assertAlmostEqual(m["quality_ratio.bo"][0], math.sqrt(1.2 * 1.2))
        self.assertAlmostEqual(m["quality_ratio.relm"][0], 1.0)
        self.assertEqual(m["stress_tests"][0], 7.0)


    def test_reference_summary_matches_the_run_arithmetic(self):
        rows = [{"block": 0, "seed": s, "app": a, "policy": p, "iterations": n, "runtime_min": t, **extra}
                for s, a, p, n, t, extra in [
                    (0, "a", "Exhaustive", 99, 9.0, {"best_safe_min": 10.0}), (0, "a", "BO", 5, 12.0, {}),
                    (0, "a", "RelM", 2, 10.0, {}), (1, "a", "Exhaustive", 99, 20.0, {"best_safe_min": 25.0}),
                    (1, "a", "BO", 6, 30.0, {}), (1, "a", "RelM", 1, 25.0, {})]]
        rows += [{**r, "block": 1} for r in rows[:3]]
        ref = reference.summary(rows)
        self.assertEqual(ref["0"]["stress_tests"], 5 + 2 + 6 + 1)
        self.assertAlmostEqual(ref["0"]["quality_ratio"]["bo"], math.sqrt(1.2 * 1.2))
        self.assertAlmostEqual(ref["0"]["quality_ratio"]["relm"], 1.0)
        self.assertEqual(ref["0"]["quality_ratio"]["ddpg"], 0.0)
        self.assertAlmostEqual(ref["1"]["quality_ratio"]["bo"], 1.2)


class SpanSelfTime(unittest.TestCase):
    def test_children_covering_overlapping_intervals_count_once(self):
        spans = [(1, 0, "op", 0, 100), (2, 1, "a", 10, 40), (3, 1, "b", 30, 60),
                 (4, 1, "c", 90, 130)]
        self.assertEqual(stats.self_times(spans)[1], 100 - (50 + 10))

    def test_grandchildren_do_not_reduce_the_op(self):
        spans = [(1, 0, "op", 0, 100), (2, 1, "a", 0, 50), (3, 2, "b", 60, 90)]
        own = stats.self_times(spans)
        self.assertEqual(own[1], 50)
        self.assertEqual(own[2], 50)

    def test_unattributed_share_counts_only_ops(self):
        spans = [(1, 0, "op", 0, 100), (2, 1, "a", 0, 75), (3, 0, "op", 200, 300),
                 (4, 0, "replay", 400, 900)]
        self.assertAlmostEqual(stats.unattributed_frac(spans, {"op"}), 125 / 200)


class Spread(unittest.TestCase):
    def test_quartile_spread(self):
        values = [10.0] * 4 + [11.0] * 2 + [12.0] * 4
        q1, med, q3 = __import__("statistics").quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / med)
        self.assertEqual(stats.quartile_spread([5.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
