"""Percentile (rankit) contracts, including tie handling."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import quantile_match, rankdata_percentiles, twice_midrank_percentiles
from qmatch import DomainError, Gaussian, Logistic, Uniform, percentiles

finite_values = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


def test_four_distinct_points():
    got = percentiles([1.2, 3.4, 0.5, 2.2])
    assert np.array_equal(got.p, [0.375, 0.875, 0.125, 0.625])
    assert got.n == 4


def test_tie_group():
    # F jumps by 2/3 across the doubled value: p = (0 + 2/3)/2 for the pair
    # and (2/3 + 1)/2 for the maximum.
    got = percentiles([1.0, 1.0, 2.0])
    assert np.allclose(got.p, [1.0 / 3.0, 1.0 / 3.0, 5.0 / 6.0], rtol=0, atol=1e-15)


def test_signed_zeros_are_one_tie_group():
    got = percentiles([0.0, -0.0, 1.0]).p
    assert np.array_equal(got, [1.0 / 3.0, 1.0 / 3.0, 5.0 / 6.0])


# A small pool makes ties common, and holds both signed zeros and the
# extremes of finite_values.
tie_prone_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 3.0, 1e12, -1e12]) | finite_values


@given(st.lists(tie_prone_values, min_size=1, max_size=300))
@settings(max_examples=200, deadline=None)
def test_bit_equal_to_scipy_midranks(values):
    pc = percentiles(values)
    a = pc.p
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
    a = percentiles(y).p
    b = rankdata_percentiles(y)
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


_normal = np.random.default_rng(8).standard_normal(300_000)
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
    assert percentiles(y).p.tobytes() == twice_midrank_percentiles(y).tobytes()


def test_single_point():
    assert percentiles([7.0]).p.tolist() == [0.5]


def test_rejects_empty_and_nonfinite():
    with pytest.raises(DomainError):
        percentiles([])
    with pytest.raises(DomainError):
        percentiles([1.0, float("nan")])
    with pytest.raises(DomainError):
        percentiles([1.0, float("inf")])


@given(st.lists(finite_values, min_size=1, max_size=200, unique=True))
@settings(max_examples=100, deadline=None)
def test_tie_free_sorted_values_are_the_rankit_grid(values):
    y = np.array(values)
    n = y.size
    expect = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    assert np.array_equal(np.sort(percentiles(y).p), expect)


@given(st.lists(finite_values, min_size=1, max_size=120))
@settings(max_examples=100, deadline=None)
def test_sum_identity(values):
    # Each tie group of size k starting at sorted position a contributes
    # k(2a+k-2)/(2n); over all groups the total is always n/2, and fsum
    # makes the float sum exact.
    p = percentiles(np.array(values)).p
    assert math.fsum(p) == len(values) / 2.0


@given(st.lists(finite_values, min_size=2, max_size=100, unique=True))
@settings(max_examples=100, deadline=None)
def test_rank_invariance_under_increasing_maps(values):
    y = np.array(values)
    base = percentiles(y).p
    mapped = np.tanh(y / 1e12) * 3.0 + 1.0
    # tanh can collapse floats that differ below its resolution; the
    # invariance claim only applies while the map stays injective.
    assume(np.unique(mapped).size == y.size)
    assert np.array_equal(percentiles(mapped).p, base)
    order = np.argsort(np.argsort(y)).astype(float)
    assert np.array_equal(percentiles(order).p, base)


def test_cubing_preserves_percentiles(rng):
    y = rng.normal(size=500)
    assert np.array_equal(percentiles(y**3).p, percentiles(y).p)


@given(st.lists(finite_values, min_size=1, max_size=80, unique=True))
@settings(max_examples=60, deadline=None)
def test_tie_coherence_under_duplication(values):
    # Duplicating every element: the pair at sorted positions 2i-1, 2i of
    # the doubled sample shares the mean of the two tie-free rankits it
    # straddles.
    y = np.array(values)
    n = y.size
    doubled = percentiles(np.repeat(y, 2)).p
    i = np.arange(1, n + 1)
    straddle = 0.5 * ((2 * (2 * i - 1) - 1) + (2 * (2 * i) - 1)) / (2.0 * 2 * n)
    expect_per_value = straddle[np.argsort(np.argsort(y))]
    assert np.allclose(doubled, np.repeat(expect_per_value, 2), rtol=0, atol=1e-15)


def test_order_preservation_with_ties():
    y = np.array([3.0, 1.0, 3.0, 2.0, 1.0])
    p = percentiles(y).p
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
