"""Percentiles and ratios as the benchmark reports them.

A percentile is reported with its sample count and the number of
samples beyond it, and is refused when fewer than MIN_BEYOND samples
lie beyond it. A ratio is reported with its numerator and base.
"""

import bisect
from collections import namedtuple

MIN_BEYOND = 10

Percentile = namedtuple("Percentile", "q value count beyond")
Ratio = namedtuple("Ratio", "value num den")


class SampleError(RuntimeError):
    """Too few samples for the percentile asked for."""


def median(values):
    """Median of a non-empty sequence (mean of the middle pair)."""
    if not values:
        raise SampleError("median of no samples")
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def percentile(values, q):
    """Nearest-rank q-th percentile, with the samples beyond it.

    The value is a real sample: the smallest one with at least q% of
    the samples at or below it. 'beyond' counts samples strictly
    greater than it. Raises SampleError when beyond < MIN_BEYOND.
    """
    if not isinstance(q, int) or not 0 < q < 100:
        raise ValueError(f"percentile must be an integer in (0, 100), "
                         f"got {q!r}")
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise SampleError(f"p{q} of no samples")
    rank = max(1, -(-q * n // 100))  # ceil(q*n/100), exact
    value = s[rank - 1]
    beyond = n - bisect.bisect_right(s, value)
    if beyond < MIN_BEYOND:
        raise SampleError(
            f"p{q} over {n} samples has {beyond} beyond it "
            f"(need {MIN_BEYOND})")
    return Percentile(q, value, n, beyond)


def ratio(num, den):
    """num/den with its base; an empty base gives 0."""
    return Ratio(num / den if den else 0.0, num, den)
