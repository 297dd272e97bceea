"""Tests of the benchmark's statistics: python3 perfbench/test_benchstats.py"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats as bs  # noqa: E402


class Quantiles(unittest.TestCase):
    def test_order_statistics(self):
        xs = list(range(1, 102))  # 1..101
        self.assertEqual(bs.quantile(xs, 0.0), 1)
        self.assertEqual(bs.quantile(xs, 0.5), 51)
        self.assertEqual(bs.quantile(xs, 0.99), 100)
        self.assertEqual(bs.quantile(xs, 1.0), 101)

    def test_interpolates_between_neighbours(self):
        self.assertAlmostEqual(bs.quantile([10.0, 20.0], 0.25), 12.5)
        self.assertAlmostEqual(bs.quantile([4.0, 1.0, 3.0, 2.0], 0.5), 2.5)

    def test_unsorted_input_and_median(self):
        xs = [5.0, 1.0, 9.0, 3.0, 7.0]
        self.assertEqual(bs.quantile(xs, 0.5), statistics.median(xs))

    def test_resolves_a_ten_percent_change(self):
        # raw samples, not histogram buckets: scaling every sample by
        # 1.1 scales the quantile by exactly 1.1
        xs = [0.3 + 0.01 * i for i in range(1000)]
        p99 = bs.quantile(xs, 0.99)
        self.assertAlmostEqual(bs.quantile([1.1 * x for x in xs], 0.99), 1.1 * p99)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            bs.quantile([], 0.5)


class Scaling(unittest.TestCase):
    def test_a_slow_moment_is_scaled_back(self):
        # the machine slows to half speed during the second operation
        lat = bs.scale([10.0, 15.0, 20.0], [8.0, 8.0, 16.0, 16.0], 8.0)
        self.assertEqual(lat, [10.0, 10.0, 10.0])

    def test_failures_stay_failures(self):
        self.assertEqual(bs.scale([math.inf], [8.0, 9.0], 8.0), [math.inf])


class Rounds(unittest.TestCase):
    def test_each_kind_gets_its_own_quantile(self):
        lat = [10.0, 14.0, 11.0, 100.0, 150.0, 12.0, 13.0, 120.0]
        kinds = ["a", "a", "a", "b", "b", "a", "a", "b"]
        self.assertEqual(bs.by_kind(lat, kinds, 0.25), {"a": 11.0, "b": 110.0})

    def test_slow_samples_above_the_lower_quartile_do_not_move_it(self):
        fast = [10.0] * 30
        slow = fast[:10] + [15.0] * 20  # two thirds of the run 1.5x slower
        self.assertEqual(bs.by_kind(fast, ["a"] * 30, 0.25), bs.by_kind(slow, ["a"] * 30, 0.25))

    def test_round_repeats_each_kind_by_its_count(self):
        rl = bs.round_latencies({"a": 2, "b": 1}, {"a": 11.0, "b": 110.0})
        self.assertEqual(sorted(rl), [11.0, 11.0, 110.0])
        self.assertEqual(bs.quantile(rl, 0.5), 11.0)

    def test_a_failure_in_a_kind_pushes_its_figure_up(self):
        lat = bs.with_failures([10.0] * 4, [False, False, True, True])
        self.assertEqual(bs.by_kind(lat, ["a"] * 4, 0.25)["a"], 10.0)
        lat = bs.with_failures([10.0] * 4, [False, False, False, True])
        self.assertEqual(bs.by_kind(lat, ["a"] * 4, 0.25)["a"], math.inf)


class SamplesBeyond(unittest.TestCase):
    def test_ten_beyond_rule(self):
        self.assertTrue(bs.resolves(20, 0.5))
        self.assertFalse(bs.resolves(19, 0.5))
        self.assertTrue(bs.resolves(100, 0.9))
        self.assertFalse(bs.resolves(99, 0.9))
        self.assertTrue(bs.resolves(1000, 0.99))
        self.assertFalse(bs.resolves(999, 0.99))

    def test_highest_resolved_percentile(self):
        self.assertEqual(bs.highest_resolved(3400), 0.99)
        self.assertEqual(bs.highest_resolved(130), 0.9)
        self.assertEqual(bs.highest_resolved(90), 0.8)
        self.assertEqual(bs.highest_resolved(20), 0.5)
        self.assertIsNone(bs.highest_resolved(19))


class Failures(unittest.TestCase):
    def test_failures_miss_every_latency_limit(self):
        lat = bs.with_failures([1.0, 2.0, 3.0, 4.0], [True, False, True, True])
        self.assertEqual(bs.misses(lat, 3.5), 2)  # the 4.0 and the failure
        self.assertEqual(bs.misses(lat, 1e12), 1)

    def test_failures_push_quantiles_up(self):
        ok = [True] * 98 + [False] * 2
        lat = bs.with_failures([1.0] * 100, ok)
        self.assertEqual(bs.quantile(lat, 0.5), 1.0)
        self.assertEqual(bs.quantile(lat, 0.99), math.inf)

    def test_fail_frac(self):
        self.assertEqual(bs.fail_frac(200, 3), 0.015)
        self.assertEqual(bs.fail_frac(0, 0), 1.0)


class RepeatedRuns(unittest.TestCase):
    def test_summary_matches_statistics_quantiles(self):
        vals = [1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.3, 1.0, 0.98, 1.02]
        med, q1, q3 = bs.summary(vals)
        want_q1, _, want_q3 = statistics.quantiles(vals, n=4)
        self.assertEqual((med, q1, q3), (statistics.median(vals), want_q1, want_q3))
        self.assertAlmostEqual(bs.spread(vals), (want_q3 - want_q1) / statistics.median(vals))


if __name__ == "__main__":
    unittest.main()
