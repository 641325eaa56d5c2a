"""Tests of the benchmark's statistics: percentile choice, median and
quartiles, the windowed percentile, the bounds comparator and the result
schema.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import stats

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileChoiceTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertTrue(stats.supports(1000, 99.0))
        self.assertFalse(stats.supports(999, 99.0))
        self.assertTrue(stats.supports(100, 90.0))
        self.assertFalse(stats.supports(99, 90.0))

    def test_p999_needs_ten_thousand(self):
        self.assertTrue(stats.supports(10000, 99.9))
        self.assertFalse(stats.supports(9999, 99.9))

    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.nearest_rank(values, 50.0), 50)
        self.assertEqual(stats.nearest_rank(values, 99.0), 99)
        self.assertEqual(stats.nearest_rank(values, 100.0), 100)
        self.assertEqual(stats.nearest_rank(values, 0.0), 1)
        self.assertEqual(stats.nearest_rank([5, 1, 3], 50.0), 3)

    def test_unsupported_percentile_is_refused(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(999)), 99.0)
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99.0), 990)
        # The median needs no tail support.
        self.assertEqual(stats.percentile([4.0], 50.0), 4.0)


class WindowTest(unittest.TestCase):
    def test_windows_for(self):
        self.assertEqual(stats.windows_for(5000, 99.0), 5)
        self.assertEqual(stats.windows_for(20000, 99.0), stats.MAX_WINDOWS)
        self.assertEqual(stats.windows_for(250, 90.0), 2)
        self.assertEqual(stats.windows_for(50, 90.0), 1)
        self.assertEqual(stats.windows_for(7, 50.0), 7)

    def test_median_of_window_percentiles(self):
        # Two windows of 1000; the second holds a stall, the first does not.
        # Ordering is by due time, not by latency.
        first = [(t, 1.0) for t in range(1000)]
        second = [(1000 + t, 50.0 if t < 100 else 2.0) for t in range(1000)]
        pairs = list(reversed(first + second))
        self.assertEqual(stats.windowed_percentile(pairs, 99.0), (1.0 + 50.0) / 2)
        # Three windows: one stalled window no longer moves the median.
        third = [(2000 + t, 3.0) for t in range(1000)]
        self.assertEqual(stats.windowed_percentile(first + second + third, 99.0), 3.0)

    def test_window_without_support_is_refused(self):
        with self.assertRaises(ValueError):
            stats.windowed_percentile([(t, 1.0) for t in range(99)], 90.0)


class MedianQuartileTest(unittest.TestCase):
    def test_matches_statistics_module(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(stats.median(values), statistics.median(values))
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / statistics.median(values))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([1.0] * 10), 0.0)


class BoundsTest(unittest.TestCase):
    def test_worsening_by_direction(self):
        self.assertAlmostEqual(stats.worsening(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(stats.worsening(100.0, 90.0, "lower"), -0.10)
        self.assertAlmostEqual(stats.worsening(100.0, 90.0, "higher"), 0.10)
        self.assertAlmostEqual(stats.worsening(100.0, 110.0, "higher"), -0.10)

    def test_within_bound_compares_medians(self):
        parent = [10.0, 10.0, 10.0, 11.0, 9.0]
        self.assertTrue(stats.within_bound(parent, [10.9] * 5, "lower", 0.1))
        self.assertFalse(stats.within_bound(parent, [11.1] * 5, "lower", 0.1))
        self.assertTrue(stats.within_bound(parent, [9.1] * 5, "higher", 0.1))
        self.assertFalse(stats.within_bound(parent, [8.9] * 5, "higher", 0.1))
        # One outlier in the child does not move its median.
        self.assertTrue(stats.within_bound(parent, [10, 10, 10, 10, 99], "lower", 0.1))


class SchemaTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def result(self, trace):
        declared = self.bench["per_layer"] if trace else self.bench["end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        return stats.result_object(True, 10, 0, {n: 1.5 for n in units}, units)

    def test_valid_results(self):
        self.assertEqual(stats.validate_result(self.result(0), self.bench, 0), [])
        self.assertEqual(stats.validate_result(self.result(1), self.bench, 1), [])
        obj = self.result(0)
        self.assertEqual(json.loads(json.dumps(obj)), obj)

    def test_invalid_results(self):
        obj = self.result(0)
        obj["extra"] = 1
        self.assertTrue(stats.validate_result(obj, self.bench, 0))
        obj = self.result(0)
        obj["attempted"] = 0
        self.assertTrue(stats.validate_result(obj, self.bench, 0))
        obj = self.result(0)
        obj["failed"] = 1.0
        self.assertTrue(stats.validate_result(obj, self.bench, 0))
        obj = self.result(0)
        del obj["metrics"]["setup_s"]
        self.assertTrue(stats.validate_result(obj, self.bench, 0))
        obj = self.result(0)
        obj["metrics"]["setup_s"]["value"] = float("nan")
        self.assertTrue(stats.validate_result(obj, self.bench, 0))
        obj = self.result(0)
        obj["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(stats.validate_result(obj, self.bench, 0))
        # Per-layer metrics are not end-to-end metrics.
        self.assertTrue(stats.validate_result(self.result(1), self.bench, 0))

    def test_benchmark_file_contract(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        names += [w["name"] for w in b["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in b["end_to_end"]))
        self.assertLessEqual(os.path.getsize(os.path.join(HERE, "..", "BENCHMARK.json")),
                             64 * 1024)


if __name__ == "__main__":
    unittest.main()
