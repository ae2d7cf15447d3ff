"""Tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The parsers of `/proc` fields and of `pbbf sweep:` stats lines live in the
worker and are tested with `cargo test --manifest-path perfbench/Cargo.toml`.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_use_the_exclusive_method(self):
        # statistics.quantiles' default: positions (n + 1) * k / 4.
        values = [float(v) for v in range(1, 11)]
        self.assertEqual(run.quartiles(values), [2.75, 5.5, 8.25])

    def test_spread_is_the_interquartile_range_over_the_median(self):
        values = [float(v) for v in range(1, 11)]
        self.assertAlmostEqual(run.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(run.spread([2.0] * 10), 0.0)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(run.percentile(values, 50), 50.0)
        self.assertEqual(run.percentile(values, 90), 90.0)
        self.assertEqual(run.percentile(values, 99.9), 100.0)
        self.assertEqual(run.percentile([7.0], 50), 7.0)

    def test_highest_percentile_keeps_ten_samples_beyond_it(self):
        # 100 samples: p90 leaves 10 beyond it, p95 only 5.
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(run.highest_percentile(values), (90.0, 90.0))
        # 20 samples: p50 leaves 10, p75 only 5.
        self.assertEqual(run.highest_percentile(values[:20]), (50.0, 10.0))
        # 1000 samples: p99 leaves 10.
        many = [float(v) for v in range(1000)]
        self.assertEqual(run.highest_percentile(many)[0], 99.0)

    def test_too_few_samples_have_no_reportable_percentile(self):
        self.assertIsNone(run.highest_percentile([1.0] * 19))
        self.assertIsNone(run.highest_percentile([]))


class LayerReduction(unittest.TestCase):
    def test_layers_reduce_to_medians_and_named_percentiles(self):
        layers = {"a.ms": [3.0, 1.0, 2.0], "x.shard_ms": [float(v) for v in range(1, 101)]}
        result = {"wall_s": [1.0, 1.2], "traced_wall_s": [1.3]}
        self.assertEqual(run.reduce_layer("a.ms", layers, result), 2.0)
        self.assertEqual(run.reduce_layer("x.shard_ms.p90", layers, result), 90.0)
        self.assertAlmostEqual(run.reduce_layer("trace.overhead_s", layers, result), 0.2)
        with self.assertRaises(KeyError):
            run.reduce_layer("missing", layers, result)


if __name__ == "__main__":
    unittest.main()
