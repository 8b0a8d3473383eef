"""Percentile (rankit) contracts, including tie handling."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    data_order_percentiles,
    quantile_match,
    rankdata_percentiles,
    twice_midrank_percentiles,
)
from qmatch import DomainError, Gaussian, Logistic, Uniform, percentiles

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


@given(st.lists(finite_values, min_size=2, max_size=100, unique=True))
@settings(max_examples=100, deadline=None)
def test_rank_invariance_under_increasing_maps(values):
    y = np.array(values)
    base = data_order_percentiles(y)
    mapped = np.tanh(y / 1e12) * 3.0 + 1.0
    # tanh can collapse floats that differ below its resolution; the
    # invariance claim only applies while the map stays injective.
    assume(np.unique(mapped).size == y.size)
    assert np.array_equal(data_order_percentiles(mapped), base)
    order = np.argsort(np.argsort(y)).astype(float)
    assert np.array_equal(data_order_percentiles(order), base)


def test_cubing_preserves_percentiles(rng):
    y = rng.normal(size=500)
    assert np.array_equal(data_order_percentiles(y**3), data_order_percentiles(y))


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
    """A tie-free sample of up to 8000 points gets the one shared, read-only
    rankit grid of its size; ties and larger samples get a fresh array."""

    def test_one_read_only_grid_per_size(self, rng):
        a, b = percentiles(rng.normal(size=1500)), percentiles(rng.normal(size=1500))
        assert a.p_sorted is b.p_sorted
        with pytest.raises(ValueError):
            a.p_sorted[0] = 0.5
        assert np.array_equal(a.p_sorted, np.arange(1.0, 3000.0, 2.0) / 3000.0)

    @pytest.mark.parametrize("y", [[1.0, 1.0, 2.0], list(range(8001))], ids=["ties", "8001"])
    def test_ties_and_large_samples_get_fresh_arrays(self, y, no_held_ranking):
        # Each ranking has its own; the held one (at most 8000 points) is
        # read-only, a larger one writable.
        a = percentiles(y)
        no_held_ranking()
        b = percentiles(y)
        assert a.p_sorted is not b.p_sorted
        assert a.p_sorted.flags.writeable == b.p_sorted.flags.writeable == (len(y) > 8000)
