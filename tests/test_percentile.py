"""Percentile (rankit) contracts, including tie handling."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    data_order_percentiles,
    quantile_match,
    rankdata_percentiles,
    twice_midrank_percentiles,
)
from qmatch import DomainError, Gaussian, Logistic, Uniform, percentile, percentiles

finite_values = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


def test_four_distinct_points():
    got = percentiles([1.2, 3.4, 0.5, 2.2])
    assert np.array_equal(data_order_percentiles(got), [0.375, 0.875, 0.125, 0.625])
    assert got.n == 4


def test_tie_group():
    # F jumps by 2/3 across the doubled value: p = (0 + 2/3)/2 for the pair
    # and (2/3 + 1)/2 for the maximum.
    got = percentiles([1.0, 1.0, 2.0])
    assert np.allclose(data_order_percentiles(got), [1.0 / 3.0, 1.0 / 3.0, 5.0 / 6.0],
                       rtol=0, atol=1e-15)


def test_signed_zeros_are_one_tie_group():
    got = data_order_percentiles([0.0, -0.0, 1.0])
    assert np.array_equal(got, [1.0 / 3.0, 1.0 / 3.0, 5.0 / 6.0])


# A small pool makes ties common, and holds both signed zeros and the
# extremes of finite_values.
tie_prone_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 3.0, 1e12, -1e12]) | finite_values

_normal = np.random.default_rng(8).standard_normal(300_000)


def _one_tie(at):
    """The tie-free _normal[:1000] with the sorted value at position ``at``
    repeated over its right neighbour: one tie, at that place in the order."""
    y = _normal[:1000].copy()
    order = np.argsort(y)
    y[order[at + 1]] = y[order[at]]
    return y.tolist()


# Around the tie-free fast path: a large tie-free sample, one tie first,
# in the middle and last, and the signed zeros (one tie) beside a lone -0.0.
@example(_normal.tolist())
@example(_one_tie(0))
@example(_one_tie(499))
@example(_one_tie(998))
@example([-0.0, 1.0])
@example([0.0, -0.0, 1.0])
@given(st.lists(tie_prone_values, min_size=1, max_size=300))
@settings(max_examples=200, deadline=None)
def test_bit_equal_to_scipy_midranks(values):
    pc = percentiles(values)
    a = data_order_percentiles(pc)
    b = rankdata_percentiles(values)
    assert np.array_equal(a.view(np.int64), b.view(np.int64))
    # The ranking holds a sorting permutation and the percentiles in its order.
    assert np.all(np.diff(np.array(values)[pc.order]) >= 0)
    assert np.array_equal(pc.p_sorted, a[pc.order])


def test_bit_equal_to_scipy_midranks_at_scale():
    # A non-stable sort puts the members of a tie run in any order; p must
    # not move.  Heavy ties (1000 values over n = 300000) and both zeros.
    rng = np.random.default_rng(3)
    y = rng.integers(0, 1000, size=300_000).astype(float)
    zeros = np.flatnonzero(y == 0.0)
    y[zeros[::2]] = -0.0
    a = data_order_percentiles(y)
    b = rankdata_percentiles(y)
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


ORACLE_CASES = {
    "tie-free": _normal[:1000],
    "tie-heavy": np.round(_normal[:1000], 1),
    "signed-zeros": np.array([0.0, -0.0, 1.0, -0.0, -1.0, 0.0]),
    "n=1": np.array([7.0]),
    "n=2": np.array([2.0, -3.0]),
    "n=300000": _normal,
}


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_bit_equal_to_twice_midrank_oracle(name):
    y = ORACLE_CASES[name]
    assert data_order_percentiles(y).tobytes() == twice_midrank_percentiles(y).tobytes()


def test_single_point():
    assert data_order_percentiles([7.0]).tolist() == [0.5]


def test_rejects_empty_and_nonfinite():
    with pytest.raises(DomainError):
        percentiles([])
    with pytest.raises(DomainError):
        percentiles([1.0, float("nan")])
    with pytest.raises(DomainError):
        percentiles([1.0, float("inf")])
    # The check reads the sorted ends: -inf sorts first, inf and then nan
    # last, wherever they stand in y.
    inf, nan = float("inf"), float("nan")
    for y in ([-inf, 1.0], [nan, 1.0, 2.0], [2.0, nan, -inf, 1.0], [nan], [inf, 0.5, nan]):
        with pytest.raises(DomainError, match="^input values must be finite$"):
            percentiles(y)


@example(_normal.tolist())
@example([-0.0, 1.0])
@given(st.lists(finite_values, min_size=1, max_size=200, unique=True))
@settings(max_examples=100, deadline=None)
def test_tie_free_sorted_values_are_the_rankit_grid(values):
    y = np.array(values)
    n = y.size
    expect = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    assert np.array_equal(np.sort(data_order_percentiles(y)), expect)


@given(st.lists(finite_values, min_size=1, max_size=120))
@settings(max_examples=100, deadline=None)
def test_sum_identity(values):
    # Each tie group of size k starting at sorted position a contributes
    # k(2a+k-2)/(2n); over all groups the total is always n/2, and fsum
    # makes the float sum exact.
    p = data_order_percentiles(np.array(values))
    assert math.fsum(p) == len(values) / 2.0


# The fixture is not reset between examples; each example drops the held
# ranking before each ranking, which is all the fixture does.
@given(st.lists(finite_values, min_size=2, max_size=100, unique=True))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_rank_invariance_under_increasing_maps(no_held_ranking, values):
    # Each vector is ranked on its own: the held ranking of y would serve
    # the others.
    y = np.array(values)
    no_held_ranking()
    base = data_order_percentiles(y)
    mapped = np.tanh(y / 1e12) * 3.0 + 1.0
    # tanh can collapse floats that differ below its resolution; the
    # invariance claim only applies while the map stays injective.
    assume(np.unique(mapped).size == y.size)
    no_held_ranking()
    assert np.array_equal(data_order_percentiles(mapped), base)
    order = np.argsort(np.argsort(y)).astype(float)
    no_held_ranking()
    assert np.array_equal(data_order_percentiles(order), base)


def test_cubing_preserves_percentiles(rng, no_held_ranking):
    y = rng.normal(size=500)
    base = data_order_percentiles(y)
    no_held_ranking()
    assert np.array_equal(data_order_percentiles(y**3), base)


@given(st.lists(finite_values, min_size=1, max_size=80, unique=True))
@settings(max_examples=60, deadline=None)
def test_tie_coherence_under_duplication(values):
    # Duplicating every element: the pair at sorted positions 2i-1, 2i of
    # the doubled sample shares the mean of the two tie-free rankits it
    # straddles.
    y = np.array(values)
    n = y.size
    doubled = data_order_percentiles(np.repeat(y, 2))
    i = np.arange(1, n + 1)
    straddle = 0.5 * ((2 * (2 * i - 1) - 1) + (2 * (2 * i) - 1)) / (2.0 * 2 * n)
    expect_per_value = straddle[np.argsort(np.argsort(y))]
    assert np.allclose(doubled, np.repeat(expect_per_value, 2), rtol=0, atol=1e-15)


def test_order_preservation_with_ties():
    y = np.array([3.0, 1.0, 3.0, 2.0, 1.0])
    p = data_order_percentiles(y)
    for i in range(5):
        for j in range(5):
            if y[i] < y[j]:
                assert p[i] < p[j]
            elif y[i] == y[j]:
                assert p[i] == p[j]


class TestQuantileMatch:
    def test_uniform_returns_the_percentiles(self):
        y = [1.2, 3.4, 0.5, 2.2]
        assert np.array_equal(quantile_match(y, Uniform()), [0.375, 0.875, 0.125, 0.625])

    def test_logistic_values(self):
        y = [1.2, 3.4, 0.5, 2.2]
        expect = [math.log(p / (1 - p)) for p in (0.375, 0.875, 0.125, 0.625)]
        assert np.allclose(quantile_match(y, Logistic()), expect, rtol=1e-14)

    def test_gaussian_mean_square_is_one(self, rng):
        y = rng.normal(size=1000)
        z = quantile_match(y, Gaussian())
        assert np.mean(z * z) == pytest.approx(1.0, abs=0.02)

    def test_weakly_increasing_in_y(self, rng):
        y = rng.integers(0, 20, size=60).astype(float)  # forces ties
        z = quantile_match(y, Gaussian())
        order = np.argsort(y, kind="stable")
        assert np.all(np.diff(z[order]) >= 0.0)


class TestSharedGrid:
    """A tie-free sample of any size gets the one shared, read-only rankit
    grid of its size; ties get a fresh array, read-only like every
    ranking's."""

    def test_one_read_only_grid_per_size(self, rng):
        a, b = percentiles(rng.normal(size=1500)), percentiles(rng.normal(size=1500))
        assert a.p_sorted is b.p_sorted
        with pytest.raises(ValueError):
            a.p_sorted[0] = 0.5
        assert np.array_equal(a.p_sorted, np.arange(1.0, 3000.0, 2.0) / 3000.0)

    @pytest.mark.parametrize("y, shared", [([1.0, 1.0, 2.0], False), (list(range(8001)), True)],
                             ids=["ties", "8001"])
    def test_ties_get_fresh_arrays_and_tie_free_samples_of_any_size_the_grid(
            self, y, shared, no_held_ranking):
        # Each ranking of ties has its own array; every ranking of a
        # tie-free sample has its size's grid.  Both are read-only, like
        # every ranking's.
        a = percentiles(y)
        no_held_ranking()
        b = percentiles(y)
        assert (a.p_sorted is b.p_sorted) is shared
        assert not a.p_sorted.flags.writeable and not b.p_sorted.flags.writeable


def _sample(tied):
    """300 normal values, rounded to one decimal if ``tied``, whose values
    nearest zero are 0.0 (one of them tie-free, a tie run tied)."""
    y = np.random.default_rng(11).normal(size=300)
    if tied:
        y = np.round(y, 1)
        assert np.unique(y).size < y.size
    y[np.abs(y) == np.abs(y).min()] = 0.0
    return y


def _new_tie(y, order):
    # The first distinct sorted neighbours made equal, the upper one lowered.
    ys = y[order]
    k = int(np.flatnonzero(ys[1:] != ys[:-1])[0])
    y = y.copy()
    y[order[k + 1]] = ys[k]
    return y


def _broken_tie(y, order):
    # The last member of the first tie run raised by one ulp: still below
    # the next run, so only the tie runs tell the ranks apart.
    ys = y[order]
    k = int(np.flatnonzero((ys[1:-1] == ys[:-2]) & (ys[2:] != ys[1:-1]))[0]) + 1
    y = y.copy()
    y[order[k]] = np.nextafter(ys[k], np.inf)
    return y


def _swapped(y, order):
    y = y.copy()
    y[order[0]], y[order[-1]] = y[order[-1]], y[order[0]]
    return y


def _set(position, value):
    def change(y, order):
        y = y.copy()
        y[order[position]] = value
        return y

    return change


class TestHeldRanking:
    """The held ranking is returned for any input of its size with the same
    ranks, with no sort; any other input is ranked anew."""

    @pytest.mark.parametrize("tied", [False, True], ids=["tie-free", "tied"])
    @pytest.mark.parametrize("relabel", [lambda y: 3.0 + 2.0 * y + y**3,
                                         lambda y: np.where(y == 0.0, -0.0, y)],
                             ids=["increasing", "negative-zero"])
    def test_the_same_ranks_are_served(self, sorts, tied, relabel):
        y = _sample(tied)
        held = percentiles(y)
        relabeled = relabel(y)
        assert relabeled.tobytes() != y.tobytes()
        assert percentiles(relabeled) is held and len(sorts) == 1
        # The percentiles a fresh ranking would give.
        assert np.array_equal(held.unsort(held.p_sorted), rankdata_percentiles(relabeled))

    @pytest.mark.parametrize("change", [
        (False, _swapped), (True, _swapped), (False, _new_tie), (True, _new_tie),
        (True, _broken_tie), (False, lambda y, order: y[:-1]), (True, lambda y, order: y[1:]),
    ], ids=["swapped-pair", "swapped-pair-tied", "new-tie", "new-tie-tied", "broken-tie",
            "another-n", "another-n-tied"])
    def test_other_ranks_are_ranked_anew(self, sorts, change):
        tied, change = change
        y = _sample(tied)
        held = percentiles(y)
        other = change(y, held.order)
        got = percentiles(other)
        assert got is not held and len(sorts) == 2 and percentile._held is got
        assert np.array_equal(got.unsort(got.p_sorted), rankdata_percentiles(other))

    @pytest.mark.parametrize("change", [
        _set(150, np.nan), _set(0, -np.inf), _set(0, np.nan), _set(-1, np.inf), _set(-1, np.nan),
    ], ids=["nan-in-the-middle", "-inf-first", "nan-first", "inf-last", "nan-last"])
    def test_nonfinite_values_are_ranked_anew_and_refused(self, sorts, change):
        y = _sample(False)
        held = percentiles(y)
        with pytest.raises(DomainError, match="^input values must be finite$"):
            percentiles(change(y, held.order))
        assert len(sorts) == 2 and percentile._held is held
