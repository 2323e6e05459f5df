"""Self-tests for the benchmark's percentile and ratio code."""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from benchstats import (MIN_BEYOND, SampleError, median,  # noqa: E402
                        percentile, ratio)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_on_one_to_hundred(self):
        values = list(range(1, 101))
        p = percentile(values, 90)
        self.assertEqual((p.value, p.count, p.beyond), (90, 100, 10))
        self.assertEqual(percentile(values, 50).value, 50)
        self.assertEqual(percentile(values, 75).beyond, 25)

    def test_rank_is_exact_where_floats_round_up(self):
        # 0.9 * 100 is 90.00000000000001 in floating point; the rank
        # must still be 90, not 91.
        p = percentile(list(range(1, 101)), 90)
        self.assertEqual(p.value, 90)

    def test_order_of_samples_does_not_matter(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0] * 6
        self.assertEqual(percentile(values, 50),
                         percentile(sorted(values), 50))

    def test_too_few_beyond_fails_loudly(self):
        with self.assertRaises(SampleError):
            percentile(list(range(100)), 99)
        with self.assertRaises(SampleError):
            percentile([], 50)
        # Exactly MIN_BEYOND beyond is enough.
        p = percentile(list(range(2 * MIN_BEYOND)), 50)
        self.assertEqual(p.beyond, MIN_BEYOND)

    def test_ties_are_not_counted_beyond(self):
        values = [1.0] * 50 + [2.0] * 50
        p = percentile(values, 50)
        self.assertEqual((p.value, p.beyond), (1.0, 50))
        with self.assertRaises(SampleError):
            percentile([1.0] * 200, 50)

    def test_rejects_non_integer_or_out_of_range_q(self):
        for q in (0, 100, 50.0, -1):
            with self.assertRaises(ValueError):
                percentile(list(range(100)), q)


class MedianRatioTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(median([3, 1, 2]), 2)
        self.assertEqual(median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(SampleError):
            median([])

    def test_ratio_keeps_its_base(self):
        r = ratio(3, 12)
        self.assertEqual((r.value, r.num, r.den), (0.25, 3, 12))
        empty = ratio(0, 0)
        self.assertEqual((empty.value, empty.num, empty.den), (0.0, 0, 0))


if __name__ == "__main__":
    unittest.main()
