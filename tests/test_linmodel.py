"""Model-fitting contracts for the balanced row-column design.

Independent oracle routes used here: explicit least squares via lstsq for
the fixed-effects fit, dense matrix assembly with slogdet for the
eigenvalue form of log det, the derivative-free optimizer
fit_random_numeric against the active-set solver fit_random_balanced, and
the numpy-array fits numpy_fit, which every fit must equal bit for bit.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    data_order_percentiles,
    dense_covariance,
    fit_random_numeric,
    numpy_decompose,
    numpy_fit,
    quadratic_form,
)
from qmatch import (
    AlphaBeta,
    DegenerateFitError,
    DesignSpec,
    DomainError,
    Gaussian,
    Logistic,
    ModelKind,
    SimConfig,
    StudentT,
    decompose,
    fit,
    fit_fixed,
    fit_random_balanced,
    simulate,
)
from qmatch import linmodel


def design(r, c, model=ModelKind.FIXED_EFFECTS):
    return DesignSpec(nrows=r, ncols=c, model=model)


def additive_lstsq_sigma2(z, r, c):
    """Brute-force ML variance of the additive model via least squares."""
    rows = np.arange(r * c) % r
    cols = np.arange(r * c) // r
    x = np.zeros((r * c, 1 + r + c))
    x[:, 0] = 1.0
    x[np.arange(r * c), 1 + rows] = 1.0
    x[np.arange(r * c), 1 + r + cols] = 1.0
    resid = z - x @ np.linalg.lstsq(x, z, rcond=None)[0]
    return float(resid @ resid) / (r * c)


class TestDesignShape:
    @pytest.mark.parametrize("nrows, ncols", [(2.5, 30), (50, 3.0), ("5", 4), (None, 4)])
    def test_non_integer_shape_rejected(self, nrows, ncols):
        with pytest.raises(DomainError, match="^nrows and ncols must be integers$"):
            DesignSpec(nrows, ncols)

    @pytest.mark.parametrize("rows, cols", [
        (np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
        (np.array([0.0, 1.0, 0.0, 1.0]), np.array([0, 0, 1, 1])),
        (np.array([0, 1, 0, 1]), np.array([0.0, 0.0, 1.0, 1.0])),
        ([], []),
        ([0.0, 1.0, 0.0, 1.0], [0, 0, 1, 1]),
        ((0, 1, 0, 1), (0.0, 0.0, 1.0, 1.0)),
    ], ids=["empty", "float-rows", "float-cols", "empty-lists", "float-row-list",
            "float-col-tuple"])
    def test_from_cells_index_arrays_checked(self, rows, cols):
        with pytest.raises(DomainError, match="^layout indices must be nonempty signed"):
            DesignSpec.from_cells(rows, cols, np.ones(len(rows)))

    @pytest.mark.parametrize("seq", [list, tuple])
    def test_from_cells_takes_integer_sequences(self, seq):
        rows, cols = np.array([1, 0, 2, 1, 0, 2]), np.array([0, 1, 1, 1, 0, 0])
        values = np.arange(6.0)
        want_design, want = DesignSpec.from_cells(rows, cols, values)
        design, got = DesignSpec.from_cells(seq(rows.tolist()), seq(cols.tolist()), values)
        assert design == want_design == DesignSpec(3, 2)
        assert got.tobytes() == want.tobytes()

    def test_from_cells_reads_an_object_array_of_integers(self):
        values = np.arange(4.0)
        want_design, want = DesignSpec.from_cells(np.array([0, 1, 0, 1]), [0, 0, 1, 1], values)
        design, got = DesignSpec.from_cells(np.array([0, 1, 0, 1], dtype=object),
                                            np.array([0, 0, 1, 1], dtype=object), values)
        assert design == want_design == DesignSpec(2, 2)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [
        np.array([0, 1.0, 0, 1], dtype=object), np.array([0, 1, "0", 1], dtype=object),
        np.array([0, 1, None, 1], dtype=object),
    ], ids=["float", "str", "none"])
    def test_from_cells_refuses_a_non_integer_in_an_object_array(self, rows):
        with pytest.raises(DomainError, match="^layout indices must be nonempty signed"):
            DesignSpec.from_cells(rows, [0, 0, 1, 1], np.arange(4.0))

    @pytest.mark.parametrize("rows, cols", [
        ([False, True, 0, 1], [0, 0, 1, 1]),
        ((0, 1, 0, 1), (0, 0, np.True_, 1)),
        (np.array([False, 1, 0, 1], dtype=object), np.array([0, 0, 1, 1])),
    ], ids=["bool-in-row-list", "numpy-bool-in-col-tuple", "bool-in-object-array"])
    def test_from_cells_refuses_a_bool_among_indices(self, rows, cols):
        with pytest.raises(DomainError, match="^layout indices must be nonempty signed"):
            DesignSpec.from_cells(rows, cols, np.arange(4.0))

    @pytest.mark.parametrize("size", [3, 5])
    def test_from_cells_values_one_per_cell(self, size):
        with pytest.raises(DomainError, match="^cell value count must equal nrows\\*ncols$"):
            DesignSpec.from_cells([0, 1, 0, 1], [0, 0, 1, 1], np.arange(float(size)))

    def test_numpy_integers_accepted(self):
        d = DesignSpec(np.int64(5), np.int32(4))
        assert d.n == 20
        assert d == DesignSpec(5, 4)

    @pytest.mark.parametrize("model", ["bogus", "Fixed"])
    def test_unknown_model_rejected(self, model):
        with pytest.raises(DomainError, match="^model must be one of"):
            DesignSpec(5, 4, model=model)
        with pytest.raises(DomainError, match="^model must be one of"):
            DesignSpec(5, 4).with_model(model)

    def test_model_value_is_its_member(self):
        d = DesignSpec(5, 4, model="random")
        assert d.model is ModelKind.RANDOM_EFFECTS
        assert d == DesignSpec(5, 4).with_model(ModelKind.RANDOM_EFFECTS)
        assert DesignSpec(5, 4).with_model("fixed").model is ModelKind.FIXED_EFFECTS


class TestDecompose:
    def test_constant_vector(self):
        # 2.5 is dyadic so the projections are exactly zero in floats.
        dec = decompose(np.full(12, 2.5), design(3, 4))
        assert dec.s_row == dec.s_col == dec.s_err == 0.0

    def test_two_by_two_interaction(self):
        # Projection onto the interaction contrast (1,-1,-1,1)/2 gives
        # (1 - 2 - 3 + 5)/2 = 0.5, so the squared norm is 0.25.
        dec = decompose(np.array([1.0, 2.0, 3.0, 5.0]), design(2, 2))
        assert dec.s_err == pytest.approx(0.25, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_orthogonal_decomposition(self, seed):
        z = np.random.default_rng(seed).normal(size=20)
        dec = decompose(z, design(5, 4))
        total = float(np.sum((z - z.mean()) ** 2))
        assert dec.s_row + dec.s_col + dec.s_err == pytest.approx(total, rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            decompose(np.ones(7), design(2, 3))


class TestFitFixed:
    def test_two_by_two_sigma2(self):
        z = np.array([1.0, 2.0, 3.0, 5.0])
        f = fit_fixed(z, design(2, 2))
        assert f.sigma2 == pytest.approx(0.0625, abs=1e-14)
        assert f.sigma2 == pytest.approx(additive_lstsq_sigma2(z, 2, 2), rel=1e-12)

    def test_matches_lstsq_oracle(self, rng):
        for r, c in [(3, 3), (5, 4), (8, 6)]:
            z = rng.normal(size=r * c)
            f = fit_fixed(z, design(r, c))
            assert f.sigma2 == pytest.approx(additive_lstsq_sigma2(z, r, c), rel=1e-10)

    def test_single_cell_perturbation(self, rng):
        # Additive data plus epsilon in one cell: sigma2 must match the
        # least-squares oracle exactly in structure.
        r, c = 6, 5
        rows = np.arange(r * c) % r
        cols = np.arange(r * c) // r
        z = rng.normal(size=r)[rows] + rng.normal(size=c)[cols]
        z[7] += 0.25
        f = fit_fixed(z, design(r, c))
        assert f.sigma2 == pytest.approx(additive_lstsq_sigma2(z, r, c), rel=1e-9)

    def test_affine_equivariance(self, rng):
        z = rng.normal(size=30)
        f = fit_fixed(z, design(5, 6))
        g = fit_fixed(4.0 - 2.5 * z, design(5, 6))
        assert g.sigma2 == pytest.approx(2.5**2 * f.sigma2, rel=1e-12)
        assert g.log_det_sigma_hat == pytest.approx(
            f.log_det_sigma_hat + 30 * math.log(2.5**2), rel=1e-12
        )

    def test_log_det_and_core(self, rng):
        z = rng.normal(size=30)
        f = fit_fixed(z, design(5, 6))
        assert f.log_det_sigma_hat == pytest.approx(30 * math.log(f.sigma2), rel=1e-14)

    def test_perfectly_additive_is_degenerate(self):
        rows = np.arange(12) % 3
        cols = np.arange(12) // 3
        z = np.array([1.0, 2.0, 4.0])[rows] + np.array([0.0, 1.0, 3.0, 6.0])[cols]
        with pytest.raises(DegenerateFitError):
            fit_fixed(z, design(3, 4))

    def test_objective_is_maximized(self, rng):
        # Perturbing sigma2 by +-1% never increases the Gaussian profile
        # log likelihood of the fixed model.
        z = rng.normal(size=42)
        d = design(7, 6)
        f = fit_fixed(z, d)
        dec = decompose(z, d)

        def loglik(s2):
            return -0.5 * (42 * math.log(s2) + dec.s_err / s2)

        best = loglik(f.sigma2)
        assert loglik(f.sigma2 * 1.01) <= best
        assert loglik(f.sigma2 * 0.99) <= best


def random_effects_data(rng, r, c, sd_row=1.0, sd_col=1.0, sd_err=1.0):
    rows = np.arange(r * c) % r
    cols = np.arange(r * c) // r
    return (
        sd_row * rng.normal(size=r)[rows]
        + sd_col * rng.normal(size=c)[cols]
        + sd_err * rng.normal(size=r * c)
    )


class TestFitRandomBalanced:
    def test_boundary_when_rows_carry_no_signal(self, rng):
        # Data with no row effects at all: the row variance component is
        # forced to the boundary whenever the separable row estimate is
        # below the interaction estimate.
        for seed in range(40):
            g = np.random.default_rng(seed)
            z = random_effects_data(g, 8, 7, sd_row=0.0, sd_col=1.0)
            d = design(8, 7, ModelKind.RANDOM_EFFECTS)
            dec = decompose(z, d)
            if dec.s_row / dec.d_row < dec.s_err / dec.d_err:
                f = fit_random_balanced(z, d)
                assert f.sigma2_row == 0.0

    def test_scale_equivariance(self, rng):
        z = random_effects_data(rng, 6, 5)
        d = design(6, 5, ModelKind.RANDOM_EFFECTS)
        f = fit_random_balanced(z, d)
        g = fit_random_balanced(3.0 * z, d)
        assert g.sigma2 == pytest.approx(9.0 * f.sigma2, rel=1e-8)
        assert g.sigma2_row == pytest.approx(9.0 * f.sigma2_row, rel=1e-8, abs=1e-12)
        assert g.sigma2_col == pytest.approx(9.0 * f.sigma2_col, rel=1e-8, abs=1e-12)
        assert g.log_det_sigma_hat == pytest.approx(
            f.log_det_sigma_hat + 30 * math.log(9.0), rel=1e-10
        )

    def test_agrees_with_derivative_free_oracle(self):
        for seed in range(10):
            g = np.random.default_rng(seed + 1000)
            z = random_effects_data(g, 6, 5, sd_row=g.uniform(0, 2),
                                    sd_col=g.uniform(0, 2))
            d = design(6, 5, ModelKind.RANDOM_EFFECTS)
            a = fit_random_balanced(z, d)
            b = fit_random_numeric(z, d)
            assert -0.5 * a.log_det_sigma_hat == pytest.approx(
                -0.5 * b.log_det_sigma_hat, abs=1e-6)
            # The active-set solution can only be better (lower -2F).
            assert -0.5 * a.log_det_sigma_hat >= -0.5 * b.log_det_sigma_hat - 1e-6

    @pytest.mark.xfail(strict=True, reason=(
        "_interior_newton misses its 1e-10 gradient tolerance when the row "
        "variance dwarfs the rest, returns None, and the solver falls back "
        "to the sigma2_col = 0 boundary"))
    def test_agrees_with_oracle_when_row_effects_dominate(self):
        rng = np.random.default_rng(0)
        k = np.arange(80)
        z = (300 * rng.normal(size=10)[k % 10] + rng.normal(size=8)[k // 10]
             + rng.normal(size=80))
        d = design(10, 8, ModelKind.RANDOM_EFFECTS)
        a = fit_random_balanced(z, d)
        b = fit_random_numeric(z, d)
        assert -0.5 * a.log_det_sigma_hat == pytest.approx(
            -0.5 * b.log_det_sigma_hat, abs=1e-6)
        assert -0.5 * a.log_det_sigma_hat >= -0.5 * b.log_det_sigma_hat - 1e-6

    def test_kkt_no_feasible_improvement(self, rng):
        for trial in range(10):
            z = random_effects_data(rng, 7, 6,
                                    sd_row=rng.uniform(0, 1.5),
                                    sd_col=rng.uniform(0, 1.5))
            d = design(7, 6, ModelKind.RANDOM_EFFECTS)
            f = fit_random_balanced(z, d)
            dec = decompose(z, d)

            def neg2ll(s2, s2r, s2c):
                lam_r, lam_c, lam_e = s2 + 6 * s2r, s2 + 7 * s2c, s2
                lam0 = lam_r + lam_c - lam_e
                return (
                    math.log(lam0)
                    + dec.d_row * math.log(lam_r) + dec.s_row / lam_r
                    + dec.d_col * math.log(lam_c) + dec.s_col / lam_c
                    + dec.d_err * math.log(lam_e) + dec.s_err / lam_e
                )

            base = neg2ll(f.sigma2, f.sigma2_row, f.sigma2_col)
            bump = 1e-3 * f.sigma2
            for ds, dr, dc in [(1.01, 1, 1), (0.99, 1, 1),
                               (1, 1.01, 1), (1, 0.99, 1),
                               (1, 1, 1.01), (1, 1, 0.99)]:
                s2 = f.sigma2 * ds
                s2r = f.sigma2_row * dr if f.sigma2_row > 0 else (bump if dr > 1 else 0.0)
                s2c = f.sigma2_col * dc if f.sigma2_col > 0 else (bump if dc > 1 else 0.0)
                assert neg2ll(s2, s2r, s2c) >= base - 1e-9 * abs(base)

    def test_degenerate_data_rejected(self):
        d = design(3, 4, ModelKind.RANDOM_EFFECTS)
        with pytest.raises(DegenerateFitError):
            fit_random_balanced(np.full(12, 2.0), d)
        with pytest.raises(DegenerateFitError):
            fit_random_numeric(np.full(12, 2.0), d)

    def test_numerically_constant_data_rejected(self):
        # A non-dyadic constant decomposes to float dust, not exact zeros;
        # it must still be refused rather than fitted with dust variances.
        z = np.full(12, 8.06587636770843e-17)
        with pytest.raises(DegenerateFitError):
            fit_fixed(z, design(3, 4))
        z2 = np.full(12, 0.1)
        z2[5] = np.nextafter(0.1, 1.0)
        with pytest.raises(DegenerateFitError):
            fit_fixed(z2, design(3, 4))

    def test_numeric_route_scale_equivariance(self, rng):
        z = random_effects_data(rng, 5, 4)
        d = design(5, 4, ModelKind.RANDOM_EFFECTS)
        a = fit_random_numeric(z, d)
        b = fit_random_numeric(0.5 * z, d)
        assert b.sigma2 == pytest.approx(0.25 * a.sigma2, rel=1e-5)


class TestExtremeScale:
    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("e", [600, -600, 510, -510])
    def test_power_of_two_scaling_shifts_log_det(self, rng, model, e):
        z = random_effects_data(rng, 6, 5)
        d = design(6, 5, model)
        base_fit = fit(z, d)
        scaled_fit = fit(2.0**e * z, d)
        base = base_fit.log_det_sigma_hat
        shift = 2 * e * d.n * math.log(2.0)
        assert scaled_fit.log_det_sigma_hat == pytest.approx(base + shift, rel=1e-12)
        # The variances scale by exactly 4**e, bit for bit, rounded once: to
        # inf beyond the float range (e = 600), to a subnormal or zero below
        # it (e = -600), in range at e = +-510.  None stays None.
        for field in ("sigma2", "sigma2_row", "sigma2_col"):
            base_v, got = getattr(base_fit, field), getattr(scaled_fit, field)
            if base_v is None:
                assert got is None, field
                continue
            with np.errstate(over="ignore"):
                want = np.ldexp(base_v, 2 * e)
            assert np.float64(got).tobytes() == want.tobytes(), (field, got, want)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_sums_of_squares_do_not_overflow(self, rng, model):
        z = random_effects_data(rng, 6, 5)
        d = design(6, 5, model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit(1e160 * z, d).log_det_sigma_hat
        assert got == pytest.approx(fit(z, d).log_det_sigma_hat + 2 * d.n * math.log(1e160),
                                    rel=1e-12)


class TestLogDetAgainstDenseOracle:
    @pytest.mark.parametrize("r,c", [(2, 2), (4, 5), (10, 10)])
    def test_eigen_form_matches_slogdet(self, r, c, rng):
        z = random_effects_data(rng, r, c)
        d = design(r, c, ModelKind.RANDOM_EFFECTS)
        f = fit_random_balanced(z, d)
        sigma = dense_covariance(d, f.sigma2, f.sigma2_row, f.sigma2_col)
        sign, logdet = np.linalg.slogdet(sigma)
        assert sign > 0
        assert f.log_det_sigma_hat == pytest.approx(logdet, abs=1e-6)

    def test_fixed_model_log_det_matches_dense(self, rng):
        z = rng.normal(size=20)
        d = design(4, 5)
        f = fit_fixed(z, d)
        sign, logdet = np.linalg.slogdet(f.sigma2 * np.eye(20))
        assert f.log_det_sigma_hat == pytest.approx(logdet, rel=1e-12)


class TestQuadraticForm:
    def test_fixed_fit_equals_n(self, rng):
        z = rng.normal(size=35)
        d = design(7, 5)
        f = fit_fixed(z, d)
        assert quadratic_form(z, f, d) == pytest.approx(35.0, rel=1e-6)

    def test_random_fit_equals_n(self, rng):
        z = random_effects_data(rng, 8, 6)
        d = design(8, 6, ModelKind.RANDOM_EFFECTS)
        f = fit_random_balanced(z, d)
        assert quadratic_form(z, f, d) == pytest.approx(48.0, rel=1e-6)

    def test_doubling_the_variances_halves_the_form(self, rng):
        z = random_effects_data(rng, 6, 6)
        d = design(6, 6, ModelKind.RANDOM_EFFECTS)
        f = fit_random_balanced(z, d)
        doubled = replace(f, sigma2=2 * f.sigma2, sigma2_row=2 * f.sigma2_row,
                          sigma2_col=2 * f.sigma2_col)
        assert quadratic_form(z, doubled, d) == pytest.approx(18.0, rel=1e-9)

    def test_zero_eigenvalue_rejected(self, rng):
        z = rng.normal(size=16)
        d = design(4, 4)
        f = fit_fixed(z, d)
        with pytest.raises(DomainError):
            quadratic_form(z, replace(f, sigma2=0.0), d)


class TestNonFiniteResponse:
    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("bad", [
        {7: math.nan},
        {7: math.inf},
        {7: -math.inf},
        {7: math.inf, 1200: -math.inf},
    ], ids=["nan", "+inf", "-inf", "+-inf"])
    def test_rejected(self, rng, model, bad):
        z = random_effects_data(rng, 50, 30)
        for k, v in bad.items():
            z[k] = v
        with pytest.raises(DomainError, match="response values must be finite"):
            fit(z, design(50, 30, model))


FIT_FIELDS = ("log_det_sigma_hat", "sigma2", "sigma2_row", "sigma2_col")
TARGETS = (Gaussian(), Logistic(), StudentT(0.15), AlphaBeta(-0.05, -0.05))


def assert_bitwise_equal_fits(z, d):
    """Every ModelFit field, and decompose's sums, equal the numpy-array
    fit's bit for bit."""
    assert decompose(z, d) == numpy_decompose(z, d)
    got, want = fit(z, d), numpy_fit(z, d)
    for field in FIT_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        if b is None:
            assert a is None, field
        else:
            assert np.float64(a).tobytes() == np.float64(b).tobytes(), (field, a, b)


class TestBitIdenticalToNumpyFits:
    """The float-tuple Newton solver, the in-place decomposition and the
    min/max scale check reproduce the numpy-array fits exactly.  At
    1000 x 300 this matters: the random fit on gaussian seed 1 flips log det
    between about -1.2e5 and -3.2e5 when some z entries move by one ulp."""

    def test_paper_scale_matrix(self):
        # 16 seeds x 2 effects x 4 targets x 2 models = 256 fits.
        cases = 0
        for effects in ("gaussian", "cauchy"):
            for seed in range(16):
                out = simulate(SimConfig(effect_dist=effects, seed=seed))
                p = data_order_percentiles(out.y)
                for dist in TARGETS:
                    z = dist.transform(p)[0]
                    for model in ModelKind:
                        assert_bitwise_equal_fits(z, out.design.with_model(model))
                        cases += 1
        assert cases == 256

    def test_large_grid_matrix(self):
        # Gaussian seed 1 with every target and cauchy seed 0 with the
        # Gaussian target, both models: 10 fits of 300000 values.
        cases = 0
        for effects, seed, dists in [("gaussian", 1, TARGETS), ("cauchy", 0, TARGETS[:1])]:
            out = simulate(SimConfig(nrows=1000, ncols=300, effect_dist=effects, seed=seed))
            p = data_order_percentiles(out.y)
            for dist in dists:
                z = dist.transform(p)[0]
                for model in ModelKind:
                    assert_bitwise_equal_fits(z, out.design.with_model(model))
                    cases += 1
        assert cases == 10

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(2, 12), st.integers(2, 12)),
        # log10 of the row and column effect scales over the noise scale;
        # None is no effect at all (pure noise, where Newton stalls).
        log_ratios=st.tuples(
            st.one_of(st.none(), st.floats(-6.0, 6.0)),
            st.one_of(st.none(), st.floats(-6.0, 6.0)),
        ),
        model=st.sampled_from(list(ModelKind)),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_variance_ratios(self, seed, shape, log_ratios, model):
        r, c = shape
        sd_row, sd_col = (0.0 if u is None else 10.0**u for u in log_ratios)
        z = random_effects_data(np.random.default_rng(seed), r, c, sd_row, sd_col)
        d = design(r, c, model)
        try:
            numpy_fit(z, d)
        except DegenerateFitError:
            with pytest.raises(DegenerateFitError):
                fit(z, d)
            return
        assert_bitwise_equal_fits(z, d)

    def test_pure_noise_stall_exits_at_once(self, monkeypatch):
        # With no row or column effects the interior stationary point lies
        # outside the cone, and Newton stalls on its boundary: the numpy
        # solver spent 100 iterations there.  The stall exit returns after
        # the first step and the fit is unchanged.
        z = np.random.default_rng(2).normal(size=1500)
        d = design(50, 30, ModelKind.RANDOM_EFFECTS)
        assert_bitwise_equal_fits(z, d)
        calls = []
        gradient = linmodel._gradient

        def counted(lam, dec):
            calls.append(lam)
            return gradient(lam, dec)

        monkeypatch.setattr(linmodel, "_gradient", counted)
        fit(z, d)
        assert 1 <= len(calls) <= 2
