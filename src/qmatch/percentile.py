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
    # 0-based sorted positions a..a+k-1 has 1-based midrank a + (k+1)/2, so
    # p = (2a + k)/(2n).  The run's start plus its end, a + (a + k), is that
    # numerator as an exact integer, so one division per run gives the
    # correctly rounded p, which is then scattered to the run's members.
    # Signed zeros compare equal, so 0.0 and -0.0 form one run.  a and k
    # depend only on the sorted values, so any sort order of the ties gives
    # the same p: the sort need not be stable.
    n = y.size
    order = np.argsort(y)
    ys = y[order]
    starts = np.flatnonzero(np.concatenate(([True], ys[1:] != ys[:-1])))
    ends = np.append(starts[1:], n)
    p = np.empty(n)
    p[order] = np.repeat((starts + ends) / (2.0 * n), ends - starts)
    return PercentileVector(p=p, n=int(n))

