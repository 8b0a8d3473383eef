"""The in-place chains and the tie-free ranking give the bits of the
expressions they replaced, and write into none of their inputs.

Data: the study seeds 0..15 at 50x30 (gaussian and cauchy effects, and
intercept-20 positive data for Box-Cox) and one 1000x300 dataset of each
kind.
"""

import functools

import numpy as np
import pytest

from oracles import (
    expression_power_limb,
    expression_transform,
    per_fit_shift_boxcox_profile,
    run_length_percentiles,
)
from qmatch import (
    AlphaBeta,
    Gaussian,
    ModelKind,
    SimConfig,
    StudentT,
    boxcox_profile,
    percentiles,
    simulate,
)
from qmatch.targetdist import power_limb
from qmatch.translik import family_grid

DATASETS = [(50, 30, seed) for seed in range(16)] + [(1000, 300, 1)]
IDS = [f"{r}x{c}-seed{s}" for r, c, s in DATASETS]

TARGETS = [Gaussian(), StudentT(0.15), StudentT(1.0), AlphaBeta(-0.05, -0.05),
           AlphaBeta(0.3, 0.0), AlphaBeta(0.0, -0.4), AlphaBeta(1.0, -1.0)]
# More t targets on the 50x30 data: the default grid's first interior
# point, middle and last interior point, and the correlate default nu = 6.67.
# The 1000x300 case keeps the two above.
SMALL_T_TARGETS = [StudentT(0.02), StudentT(0.5), StudentT(0.98), StudentT.from_nu(6.67)]
# Exponents on both sides of the subnormal test's 2^-900 and the grids' ends.
EXPONENTS = [-1.0, -0.05, -1e-300, 2.0**-900, 0.05, 1.0, 7.5]


@functools.lru_cache(maxsize=None)
def dataset(nrows, ncols, seed, effects="gaussian", intercept=5.0):
    return simulate(SimConfig(nrows=nrows, ncols=ncols, seed=seed, effect_dist=effects,
                              intercept=intercept))


def assert_same_bits(got, want):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("shape", DATASETS, ids=IDS)
@pytest.mark.parametrize("effects", ["gaussian", "cauchy"])
def test_percentiles(shape, effects):
    y = dataset(*shape, effects).y
    before = y.copy()
    pc = percentiles(y)
    order, p_sorted = run_length_percentiles(y)
    assert np.array_equal(pc.order, order)
    assert_same_bits(pc.p_sorted, p_sorted)
    assert_same_bits(y, before)


@pytest.mark.parametrize("shape", DATASETS, ids=IDS)
@pytest.mark.parametrize("effects", ["gaussian", "cauchy"])
def test_transforms(shape, effects):
    p = percentiles(dataset(*shape, effects).y).p_sorted
    p_before = p.copy()
    for dist in TARGETS + (SMALL_T_TARGETS if p.size <= 1500 else []):
        z, lqd = dist.transform(p)
        want_z, want_lqd = expression_transform(dist, p)
        assert_same_bits(z, want_z)
        assert_same_bits(lqd, want_lqd)
    log_x = np.log(p)
    log_x_before = log_x.copy()
    for a in EXPONENTS:
        got = power_limb(a, log_x)
        assert not np.may_share_memory(got, log_x)
        assert_same_bits(got, expression_power_limb(a, log_x))
    assert_same_bits(log_x, log_x_before)
    assert_same_bits(p, p_before)


def test_scalar_arguments_give_floats():
    for dist in TARGETS:
        z, lqd = dist.transform(0.3)
        want_z, want_lqd = expression_transform(dist, np.asarray(0.3))
        assert type(z) is float and type(lqd) is float
        assert_same_bits(z, want_z)
        assert_same_bits(lqd, want_lqd)


@pytest.mark.parametrize("shape", DATASETS, ids=IDS)
@pytest.mark.parametrize("model", list(ModelKind))
def test_boxcox_curves(shape, model):
    out = dataset(*shape, intercept=20.0)
    y, design = out.y, out.design.with_model(model)
    before = y.copy()
    want = per_fit_shift_boxcox_profile(y, design, family_grid("boxcox"), refine=True)
    # A second call on the same y sees the same shifted arrays' values.
    for _ in range(2):
        got = boxcox_profile(y, design, refine=True)
        for field in ("values", "det_terms", "jacobian_terms", "argmax_param", "argmax_value"):
            assert_same_bits(getattr(got, field), getattr(want, field))
    assert_same_bits(y, before)
