"""Empirical percentile values at the observed data points.

For a sample of size n the percentile of an observation is the average of
the left and right limits of the empirical CDF there,

    p_i = (F(y_i-) + F(y_i+)) / 2,

which for distinct values is the classical rankit grid (2i - 1)/(2n) and
for a group of k ties occupying the 1-based sorted positions a .. a+k-1
is the shared value (2a + k - 2)/(2n).  Everything downstream consumes
these percentiles only at the data points; no interpolant between them is
ever constructed, so every reported statistic depends on the data through
its rank vector alone.

A ``PercentileVector`` keeps the ranking in sort order: the permutation
that sorts y and the percentiles in that order, which are nondecreasing
and depend on the sorted values alone.  Sums over the observations (the
likelihood's jacobian, the correlation report's products) are taken in
that order, so they are exactly invariant under any reordering of y; only
a model fit needs the data order back (``unsort``).

``percentiles`` holds its last ranking and returns it again for any input
of its size that it sorts with the same tie runs: such an input has the
same ranks, so a fresh ranking would give the same ``p_sorted`` and an
order that differs only inside tie runs.  So one response passed to
several rank-based functions is sorted once, and so is any strictly
increasing relabeling of it (a 0.0 made -0.0 included), with the same bits
in every number.  A ranking keeps each target's model-free fit state, or
the error preparing it raised (``translik._keep``), so a response swept
under both models is transformed and decomposed once per target.

Every tie-free sample of size n shares the one rankit grid of its n, a
``_Grid`` that every tie-free ranking of that n holds.  When a second
ranking picks the grid up, it gains a store of each target's transform on
it, which ``targetdist`` writes and reads, bounded only by its own budget
(``targetdist._MEMO_BUDGET``); the store lives as long as the grid, that
is, as long as some ranking of its n.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

# The shared rankit grids, by n, each held weakly: a grid lives as long as
# some ranking holds it.


@dataclass(eq=False)
class _Grid:
    p: np.ndarray  # the rankit grid (2i - 1)/(2n), read-only
    # Each target's (read-only z, jacobian) on p, by target, or None until
    # a second ranking picks the grid up; ``targetdist`` is its only reader
    # and writer.
    store: dict | None = None


_grids: weakref.WeakValueDictionary[int, _Grid] = weakref.WeakValueDictionary()

# The last ranking made, or None.  It takes 16 bytes a point (``order`` and
# ``p_sorted``), 4.8 MB at 300000 points, and keeps no copy of its input.
_held = None


@dataclass(frozen=True, eq=False)
class PercentileVector:
    order: np.ndarray     # the permutation that sorts the input vector
    p_sorted: np.ndarray  # values in (0,1) in sorted order, nondecreasing
    n: int
    _grid: _Grid | None = field(default=None, repr=False)  # its shared rankit grid, if any
    # Each target's model-free fit state on this ranking, or its
    # preparation's error, by (target, nrows, ncols); ``translik`` reads
    # it, and ``translik._keep`` is its only writer.
    _states: dict = field(default_factory=dict, init=False, repr=False)

    def unsort(self, v) -> np.ndarray:
        """A vector aligned with ``p_sorted`` put back in data order."""
        out = np.empty(self.n)
        out[self.order] = v
        return out


def percentiles(y) -> PercentileVector:
    """Percentile values of each observation within its own sample; a
    ``PercentileVector`` is returned as it is.

    A ranking's ``order`` and ``p_sorted`` are read-only.  The last one
    made is held until the next is made, and returned, with the targets'
    fit states it keeps, for any input of its size whose values in its
    order are finite at both ends, nondecreasing, and equal exactly where
    its percentiles are equal: an input with the same ranks, to which a
    fresh ranking would give the same percentiles.

    A tie-free sample, which the sorted values show by having no equal
    neighbours, gets the rankit grid (2i - 1)/(2n): at any n one shared,
    read-only array per n (writing into its ``p_sorted`` raises), alive
    while some ranking holds it, by which ``targetdist`` recognizes a
    tie-free sample's percentiles without reading them.  The first ranking
    of n makes the grid, and the second gives it a store of the targets'
    transforms.  A sample with ties keeps the run-length construction in a
    fresh array, since each tie run shares one midrank that the grid does
    not give.  Both paths form each p as the same exact odd integer over
    2n.
    """
    global _held
    if isinstance(y, PercentileVector):
        return y
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise DomainError("input must be a nonempty 1-d vector")
    n = y.size
    held = _held
    if held is not None and held.n == n:
        # Both masks mark the neighbours inside a tie run.  A call served
        # so takes about a third of one that ranks at 1500 points, and a
        # sixth at 300000.
        ys = y[held.order]
        if (np.isfinite(ys[0]) and np.isfinite(ys[-1]) and (ys[1:] >= ys[:-1]).all()
                and np.array_equal(ys[1:] == ys[:-1], held.p_sorted[1:] == held.p_sorted[:-1])):
            return held
    # Midranks give (F(y-) + F(y+))/2 directly.  A tie run of length k at
    # 0-based sorted positions a..a+k-1 has 1-based midrank a + (k+1)/2, so
    # p = (2a + k)/(2n).  The run's start plus its end, a + (a + k), is that
    # numerator as an exact integer, so one division per run gives the
    # correctly rounded p, which is then repeated over the run's members.
    # Signed zeros compare equal, so 0.0 and -0.0 form one run.  a and k
    # depend only on the sorted values, so any sort order of the ties gives
    # the same p_sorted: the sort need not be stable.
    order = np.argsort(y)
    ys = y[order]
    # -inf sorts first, and inf then nan last.
    if not (np.isfinite(ys[0]) and np.isfinite(ys[-1])):
        raise DomainError("input values must be finite")
    new_run = ys[1:] != ys[:-1]
    if new_run.all():
        # No ties: each run is one value, k = 1 at a = 0..n-1, so p is
        # (2a + 1)/(2n): the same exact odd integer and the same division.
        # Threads need no lock: a race at worst builds one grid or one
        # store twice, and what the loser held is computed again.
        grid = _grids.get(n)
        if grid is None:
            p = np.arange(1.0, 2.0 * n, 2.0)
            p /= 2.0 * n
            p.flags.writeable = False
            grid = _grids.setdefault(n, _Grid(p))
        elif grid.store is None:
            # A second ranking of n: from now on its grid keeps the
            # targets' transforms.
            grid.store = {}
        p_sorted = grid.p
    else:
        grid = None
        starts = np.flatnonzero(np.concatenate(([True], new_run)))
        ends = np.append(starts[1:], n)
        p_sorted = np.repeat((starts + ends) / (2.0 * n), ends - starts)
    order.flags.writeable = p_sorted.flags.writeable = False
    _held = PercentileVector(order=order, p_sorted=p_sorted, n=int(n), _grid=grid)
    return _held
