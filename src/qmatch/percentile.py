"""Empirical percentile values at the observed data points.

For a sample of size n the percentile of an observation is the average of
the left and right limits of the empirical CDF there,

    p_i = (F(y_i-) + F(y_i+)) / 2,

which for distinct values is the classical rankit grid (2i - 1)/(2n) and
for a group of k ties occupying sorted positions a .. a+k-1 is the shared
value (2a + k - 2)/(2n).  Everything downstream consumes these percentiles
only at the data points; no interpolant between them is ever constructed,
so every reported statistic depends on the data through its rank vector
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True, eq=False)
class PercentileVector:
    p: np.ndarray  # values in (0,1), aligned with the input vector
    n: int


def percentiles(y) -> PercentileVector:
    """Percentile values of each observation within its own sample."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise DomainError("input must be a nonempty 1-d vector")
    if not np.all(np.isfinite(y)):
        raise DomainError("input values must be finite")
    # Midranks give (F(y-) + F(y+))/2 directly.  A tie run of length k at
    # 0-based sorted positions a..a+k-1 has 1-based midrank a + (k+1)/2;
    # twice that, 2a + k + 1, is an integer, exact in float64, so p is the
    # correctly rounded (2a+k)/(2n).  Signed zeros compare equal, so 0.0
    # and -0.0 form one run.  Every member of a run gets the same value,
    # and a and k depend only on the sorted values, so any sort order of
    # the ties gives the same p: the sort need not be stable.
    n = y.size
    order = np.argsort(y)
    ys = y[order]
    starts = np.flatnonzero(np.concatenate(([True], ys[1:] != ys[:-1])))
    lengths = np.diff(np.append(starts, n))
    twice_r = np.empty(n)
    twice_r[order] = np.repeat(2.0 * starts + lengths + 1.0, lengths)
    p = (twice_r - 1.0) / (2.0 * n)
    return PercentileVector(p=p, n=int(n))

