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

A ``PercentileVector`` keeps the ranking in sort order: the permutation
that sorts y and the percentiles in that order, which are nondecreasing
and depend on the sorted values alone.  Sums over the observations (the
likelihood's jacobian, the correlation report's products) are taken in
that order, so they are exactly invariant under any reordering of y; only
a model fit needs the data order back (``unsort``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# The shared rankit grids, by n, read-only; the table is emptied when it
# holds _GRIDS_HELD of them.  A grid is shared only up to
# _SHARED_GRID_MAX_N points: a target's z on it then takes 1/65 of
# ``targetdist``'s 4 MiB memo, so a refined sweep (51 grid points and about
# 10 refinement points) keeps its own entries; a larger n is neither
# shared nor held.
_SHARED_GRID_MAX_N = 8000
_GRIDS_HELD = 8
_grids: dict[int, np.ndarray] = {}


@dataclass(frozen=True, eq=False)
class PercentileVector:
    order: np.ndarray     # the permutation that sorts the input vector
    p_sorted: np.ndarray  # values in (0,1) in sorted order, nondecreasing
    n: int

    def unsort(self, v) -> np.ndarray:
        """A vector aligned with ``p_sorted`` put back in data order."""
        out = np.empty(self.n)
        out[self.order] = v
        return out


def percentiles(y) -> PercentileVector:
    """Percentile values of each observation within its own sample; a
    ``PercentileVector`` is returned as it is.

    A tie-free sample, which the sorted values show by having no equal
    neighbours, gets the rankit grid (2i - 1)/(2n).  Up to 8000 points
    that grid is one shared, read-only array per n (writing into its
    ``p_sorted`` raises), by which ``targetdist`` recognizes a tie-free
    sample's percentiles without reading them; a larger n gets a fresh
    array.  A sample with ties keeps the run-length construction in a
    fresh array, since each tie run shares one midrank that the grid does
    not give.  Both paths form each p as the same exact odd integer over
    2n.
    """
    if isinstance(y, PercentileVector):
        return y
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise DomainError("input must be a nonempty 1-d vector")
    # Midranks give (F(y-) + F(y+))/2 directly.  A tie run of length k at
    # 0-based sorted positions a..a+k-1 has 1-based midrank a + (k+1)/2, so
    # p = (2a + k)/(2n).  The run's start plus its end, a + (a + k), is that
    # numerator as an exact integer, so one division per run gives the
    # correctly rounded p, which is then repeated over the run's members.
    # Signed zeros compare equal, so 0.0 and -0.0 form one run.  a and k
    # depend only on the sorted values, so any sort order of the ties gives
    # the same p_sorted: the sort need not be stable.
    n = y.size
    order = np.argsort(y)
    ys = y[order]
    # -inf sorts first, and inf then nan last.
    if not (np.isfinite(ys[0]) and np.isfinite(ys[-1])):
        raise DomainError("input values must be finite")
    new_run = ys[1:] != ys[:-1]
    if new_run.all():
        # No ties: each run is one value, k = 1 at a = 0..n-1, so p is
        # (2a + 1)/(2n): the same exact odd integer and the same division.
        # Each statement is atomic, so threads need no lock: a race at
        # worst builds one grid twice.
        p_sorted = _grids.get(n)
        if p_sorted is None:
            p_sorted = np.arange(1.0, 2.0 * n, 2.0)
            p_sorted /= 2.0 * n
            if n <= _SHARED_GRID_MAX_N:
                p_sorted.flags.writeable = False
                if len(_grids) >= _GRIDS_HELD:
                    _grids.clear()
                p_sorted = _grids.setdefault(n, p_sorted)
    else:
        starts = np.flatnonzero(np.concatenate(([True], new_run)))
        ends = np.append(starts[1:], n)
        p_sorted = np.repeat((starts + ends) / (2.0 * n), ends - starts)
    return PercentileVector(order=order, p_sorted=p_sorted, n=int(n))
