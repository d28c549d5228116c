"""Percentile and box-plot statistics, and the linear anneal, used across
the package.

Percentiles use the nearest-rank definition: the p-th percentile of n sorted
samples is the value at index ceil(p/100 * n) - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BOX_PERCENTILES = (1, 25, 50, 75, 99)


def _at_rank(ordered, pct):
    """Nearest-rank percentile of an ascending sequence."""
    if len(ordered) == 0:
        raise ValueError("percentile of empty sample")
    return float(ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)])


def nearest_rank(values, pct):
    """Nearest-rank percentile; `values` need not be sorted."""
    return _at_rank(sorted(values), pct)


def linear_decay(start, elapsed, span):
    """`start` annealed linearly to exactly 0 at `elapsed == span`, and 0
    from then on; 0 throughout when `span <= 0`."""
    if span <= 0:
        return 0.0
    return start * max(0.0, 1.0 - elapsed / span)


@dataclass
class BoxStats:
    """Five-number summary (1/25/50/75/99 percentiles) plus mean and count."""

    p1: float
    p25: float
    p50: float
    p75: float
    p99: float
    mean: float
    count: int

    @classmethod
    def from_values(cls, values):
        arr = np.sort(np.asarray(values, dtype=np.float64))
        # `_at_rank` rejects an empty sample; the mean is taken over the
        # sorted sample, the summation order stored summaries were written with
        return cls(*(_at_rank(arr, p) for p in BOX_PERCENTILES),
                   float(arr.mean()), int(arr.size))

    def row(self):
        return [self.p1, self.p25, self.p50, self.p75, self.p99, self.mean]
