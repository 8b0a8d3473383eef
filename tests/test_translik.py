"""Reduced profile log likelihoods, family sweeps, and the comparison
reports built on them.

Benchmark datasets come from the package's own simulator at the standard
50 x 30 scale (see conftest.bench); one seed per scenario keeps the sweep
tests fast while the distribution-level claims live in the acceptance
suite.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import bench, fixed_design, random_design
from oracles import (
    Affine,
    data_order_correlations,
    data_order_percentiles,
    data_order_reduced,
    entropy_quadrature,
    two_point_golden_max,
)
from qmatch import (
    AlphaBeta,
    DegenerateFitError,
    DesignSpec,
    DomainError,
    Gaussian,
    Logistic,
    ModelKind,
    NumericError,
    PercentileVector,
    SimConfig,
    StudentT,
    Uniform,
    boxcox_profile,
    correlation_report,
    loglik_ratio,
    lr_diagnostics_gaussian_uniform,
    percentiles,
    profile_alpha,
    profile_student_t,
    reduced_profile_loglik,
    simulate,
)
from qmatch.translik import (
    ReducedProfileLoglik,
    _golden_max,
    _reduced,
    _sweep,
    family_evaluator,
)

GAUSS_ENTROPY = 0.5 * (1.0 + math.log(2.0 * math.pi))

# Grids numpy would coerce: a ragged nesting it refuses untyped, and bools
# among numbers it reads as 0 or 1.
RAGGED_GRID = [[0.1], [0.2, 0.3]]
MIXED_BOOL_GRIDS = [[0.5, True], [np.float64(0.1), np.bool_(True)]]


class TestReducedValue:
    def test_uniform_jacobian_is_zero(self):
        out = bench(0)
        r = reduced_profile_loglik(out.y, Uniform(), fixed_design(out))
        assert r.jacobian_term == 0.0
        assert r.value == r.det_term

    def test_gaussian_jacobian_closed_form(self):
        out = bench(0)
        r = reduced_profile_loglik(out.y, Gaussian(), fixed_design(out))
        q = Gaussian().quantile(data_order_percentiles(out.y))
        expect = 750.0 * math.log(2.0 * math.pi) + 0.5 * float(q @ q)
        assert r.jacobian_term == pytest.approx(expect, rel=1e-12)
        # The per-observation average approaches the Gaussian entropy, so
        # the whole term tracks 1.419 n closely at n = 1500.
        assert r.jacobian_term == pytest.approx(1.419 * 1500, rel=0.02)

    def test_value_is_sum_of_terms(self):
        out = bench(1)
        r = reduced_profile_loglik(out.y, Logistic(), random_design(out))
        assert r.value == r.det_term + r.jacobian_term

    def test_rank_only_dependence(self):
        # Any strictly increasing relabeling of the data leaves the reduced
        # value bit-for-bit unchanged.
        out = bench(3)
        d = fixed_design(out)
        a = reduced_profile_loglik(out.y, StudentT(0.2), d)
        b = reduced_profile_loglik(np.exp(out.y / 4.0), StudentT(0.2), d)
        assert a.value == b.value
        assert a.det_term == b.det_term

    @given(
        seed=st.integers(0, 2**32 - 1),
        tied=st.booleans(),
        shift=st.floats(-10.0, 10.0),
        slope=st.floats(1e-3, 10.0),
        cubic=st.floats(1e-3, 10.0),
        dist=st.one_of(
            st.sampled_from([Gaussian(), Uniform(), Logistic()]),
            st.builds(StudentT, st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])),
            st.builds(AlphaBeta, st.floats(-1.0, 1.0) | st.sampled_from([-1.0, 0.0, 1.0]),
                      st.floats(-1.0, 1.0) | st.sampled_from([-1.0, 0.0, 1.0])),
        ),
        model=st.sampled_from(list(ModelKind)),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_only_dependence_property(self, seed, tied, shift, slope, cubic, dist, model):
        # Every family, endpoints included, under both models: a strictly
        # increasing map of y that keeps its order and ties leaves value and
        # det_term bit-for-bit unchanged.
        out = simulate(SimConfig(nrows=10, ncols=8, seed=seed))
        y = np.round(out.y * 2.0) / 2.0 if tied else out.y
        y2 = shift + slope * y + cubic * y**3
        order = np.argsort(y, kind="stable")
        assume(np.array_equal(np.diff(y[order]) > 0, np.diff(y2[order]) > 0))
        d = out.design.with_model(model)
        a = reduced_profile_loglik(y, dist, d)
        b = reduced_profile_loglik(y2, dist, d)
        assert a.value == b.value
        assert a.det_term == b.det_term


# Every family at its endpoints, and the fixed shapes.
ENDPOINT_TARGETS = [StudentT(0.0), StudentT(5e-324), StudentT(1.0), AlphaBeta(-1.0, -1.0),
                    AlphaBeta(0.0, 0.0), AlphaBeta(5e-324, 5e-324), AlphaBeta(5e-324, 0.0),
                    AlphaBeta(1.0, 1.0), Uniform(), Gaussian(), Logistic()]


class TestSortOrderEvaluation:
    """Targets are evaluated on the sorted percentiles and z is put back in
    data order for the fit: the fit sees the same bits as an evaluation in
    data order, and only the jacobian's summation order changes."""

    @pytest.mark.parametrize("ties", [False, True], ids=["tie-free", "tie-heavy"])
    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("dist", ENDPOINT_TARGETS, ids=lambda d: d.label())
    def test_matches_data_order_evaluation(self, dist, model, ties):
        out = bench(4)
        y = np.round(out.y, 1) if ties else out.y
        design = out.design.with_model(model)
        got = reduced_profile_loglik(y, dist, design)
        want = data_order_reduced(y, dist, design)
        assert got.det_term == want.det_term
        assert abs(got.jacobian_term - want.jacobian_term) <= 1e-13 * abs(want.jacobian_term)
        assert abs(got.value - want.value) <= 1e-13 * abs(want.value)

    @pytest.mark.parametrize("effects", ["gaussian", "cauchy"])
    def test_correlations_match_data_order(self, effects):
        y = bench(5, effects).y
        for data in (y, np.round(y, 1)):
            got = correlation_report(data, ENDPOINT_TARGETS).correlations
            assert_allclose(got, data_order_correlations(data, ENDPOINT_TARGETS),
                            rtol=1e-13, atol=0)

    def test_ranking_is_accepted_in_place_of_y(self):
        out = bench(6, "cauchy")
        d = fixed_design(out)
        pc = percentiles(out.y)
        grid = [0.0, 0.5, 1.0]
        for f in (lambda v: reduced_profile_loglik(v, StudentT(0.3), d),
                  lambda v: loglik_ratio(v, Gaussian(), Logistic(), d),
                  lambda v: lr_diagnostics_gaussian_uniform(v, d),
                  lambda v: profile_student_t(v, d, grid=grid, refine=True).argmax_value,
                  lambda v: profile_alpha(v, d, grid=grid, refine=True).argmax_value):
            assert f(pc) == f(out.y)

    @given(
        values=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e12]) |
                        st.floats(-1e12, 1e12), min_size=12, max_size=12),
        data=st.data(),
        model=st.sampled_from(list(ModelKind)),
        dist=st.sampled_from(ENDPOINT_TARGETS),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_under_any_permutation(self, values, data, model, dist):
        y = np.array(values)
        perm = np.array(data.draw(st.permutations(range(y.size))))
        pc = percentiles(y)
        assert percentiles(pc) is pc
        # Only the fit sees the data order; the jacobian does not.
        design = DesignSpec(3, 4, model)
        try:
            jacobians = [reduced_profile_loglik(v, dist, design).jacobian_term
                         for v in (y, y[perm])]
        except (DegenerateFitError, NumericError):  # a degenerate layout
            jacobians = [0.0, 0.0]
        assert jacobians[0] == jacobians[1]
        try:
            cors = [correlation_report(v, ENDPOINT_TARGETS).correlations for v in (y, y[perm])]
        except DomainError:  # zero variance
            return
        assert np.array_equal(cors[0], cors[1])


class TestQuantilePasses:
    """Each evaluation runs the target's quantile function once: log Q'
    comes from the same Q(p)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        quantile = StudentT.quantile

        def counted(self, p):
            calls.append(self.inv_nu)
            return quantile(self, p)

        monkeypatch.setattr(StudentT, "quantile", counted)
        return calls

    def test_one_call_per_reduced_loglik(self, calls):
        out = bench(0)
        reduced_profile_loglik(out.y, StudentT(0.3), fixed_design(out))
        assert calls == [0.3]

    def test_one_call_per_sweep_point(self, calls):
        out = bench(0)
        profile_student_t(out.y, fixed_design(out), grid=[0.1, 0.2, 0.3])
        assert calls == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_one_call_per_evaluation_cold_or_warm(self, calls, warm, empty_memo):
        # Warm, z comes from the memo through the one quantile call.
        out = bench(0)
        if warm:
            reduced_profile_loglik(bench(1).y, StudentT(0.3), fixed_design(out))
            del calls[:]
        reduced_profile_loglik(out.y, StudentT(0.3), fixed_design(out))
        assert calls == [0.3]


class TestTransformMemo:
    """On a tie-free sample, a repeat evaluation of one target at one n
    takes z and the jacobian from the memo: no log Q', and the bits of an
    evaluation that computes them."""

    @pytest.fixture
    def lqd_calls(self, monkeypatch):
        """A list that grows by the target of each log Q' evaluation."""
        calls = []
        for cls in (StudentT, AlphaBeta, Uniform):
            def counted(self, p, z, lqd=cls._lqd_at):
                calls.append(self)
                return lqd(self, p, z)

            monkeypatch.setattr(cls, "_lqd_at", counted)
        return calls

    @pytest.mark.parametrize("dist", [Gaussian(), Uniform(), Logistic(), StudentT(0.15),
                                      StudentT(1.0), AlphaBeta(-0.3, 0.4)],
                             ids=lambda d: d.label())
    def test_warm_evaluation_keeps_the_bits(self, dist, empty_memo, lqd_calls):
        first, second = bench(0), bench(1, "cauchy")
        d = fixed_design(first)
        # The ranking on a caller's own copy of the grid is computed.
        pc = percentiles(second.y)
        want = reduced_profile_loglik(
            PercentileVector(order=pc.order, p_sorted=pc.p_sorted.copy(), n=pc.n), dist, d)
        assert lqd_calls == [dist] and len(empty_memo.entries) == 0
        reduced_profile_loglik(first.y, dist, d)
        del lqd_calls[:]
        got = reduced_profile_loglik(second.y, dist, d)
        assert lqd_calls == []
        for field in ("det_term", "jacobian_term", "value"):
            assert float.hex(getattr(got, field)) == float.hex(getattr(want, field))

    def test_ties_evaluate_every_time(self, empty_memo, lqd_calls):
        out = bench(0)
        y = np.round(out.y, 1)
        values = [reduced_profile_loglik(y, StudentT(0.15), fixed_design(out)) for _ in range(2)]
        assert values[0] == values[1]
        assert len(lqd_calls) == 2 and len(empty_memo.entries) == 0

    def test_a_target_that_overrides_transform(self, empty_memo, lqd_calls):
        # Affine's own transform runs each time, through its base's.
        out = bench(0)
        d = fixed_design(out)
        values = [reduced_profile_loglik(out.y, Affine(Gaussian(), 2.0, 3.0), d)
                  for _ in range(2)]
        assert values[0] == values[1]
        assert lqd_calls == [Gaussian(), Gaussian()]
        assert values[0].value == pytest.approx(
            reduced_profile_loglik(out.y, Gaussian(), d).value, abs=1e-6)


class TestLoglikRatio:
    def test_self_ratio_is_exactly_zero(self):
        out = bench(0)
        assert loglik_ratio(out.y, Gaussian(), Gaussian(), fixed_design(out)) == 0.0

    def test_antisymmetry_is_exact(self):
        out = bench(0)
        d = random_design(out)
        ab = loglik_ratio(out.y, Gaussian(), Logistic(), d)
        ba = loglik_ratio(out.y, Logistic(), Gaussian(), d)
        assert ab == -ba

    def test_chain_consistency(self):
        out = bench(1)
        d = fixed_design(out)
        ac = loglik_ratio(out.y, Gaussian(), StudentT(0.5), d)
        ab = loglik_ratio(out.y, Gaussian(), Logistic(), d)
        bc = loglik_ratio(out.y, Logistic(), StudentT(0.5), d)
        assert ac == pytest.approx(ab + bc, abs=1e-8)

    @pytest.mark.parametrize("shift,scale", [(2.5, 1.0), (0.0, 3.0), (-1.0, -1.5)])
    def test_affine_target_is_equivalent(self, shift, scale):
        # Rescaling the target changes det and jacobian terms by exactly
        # opposite amounts.
        out = bench(2)
        for d in (fixed_design(out), random_design(out)):
            for base in (Gaussian(), Logistic(), StudentT(0.2)):
                lr = loglik_ratio(out.y, base, Affine(base, shift, scale), d)
                assert abs(lr) <= 1e-6

    def test_shift_only_invariance_is_tight(self):
        out = bench(2)
        d = fixed_design(out)
        lr = loglik_ratio(out.y, Gaussian(), Affine(Gaussian(), 7.25, 1.0), d)
        assert abs(lr) <= 1e-9


class TestGaussianUniformDiagnostics:
    def test_matches_direct_ratio(self):
        out = bench(0)
        d = fixed_design(out)
        diag = lr_diagnostics_gaussian_uniform(out.y, d)
        assert diag.lr == loglik_ratio(out.y, Gaussian(), Uniform(), d)

    def test_linear_predictions(self):
        out = bench(0)
        diag = lr_diagnostics_gaussian_uniform(out.y, fixed_design(out))
        assert diag.det_term_linear == -0.5 * math.log(12) * 1500
        assert diag.correction_linear == 1500 * Gaussian().entropy()
        # The exact terms sit near their first-order predictions.
        assert diag.det_term == pytest.approx(diag.det_term_linear, rel=0.25)
        assert diag.correction_term == pytest.approx(diag.correction_linear, rel=0.02)

    def test_entropy_tracks_logistic_ratio(self):
        out = bench(0)
        d = fixed_design(out)
        a = reduced_profile_loglik(out.y, Logistic(), d)
        b = reduced_profile_loglik(out.y, Uniform(), d)
        det_diff = a.det_term - b.det_term
        lr = a.value - b.value
        # jacobian of the logistic target ~ n * entropy = 2n
        assert lr == pytest.approx(det_diff + 2.0 * 1500, abs=0.02 * 1500)


class TestStudentTProfile:
    def test_gaussian_data_prefers_gaussian_end(self):
        out = bench(0)
        for d in (fixed_design(out), random_design(out)):
            curve = profile_student_t(out.y, d)
            assert curve.argmax_param <= 0.05
            assert curve.warnings == ()
            assert np.all(np.isfinite(curve.values))

    def test_fixed_dominates_random_pointwise(self):
        out = bench(0)
        f = profile_student_t(out.y, fixed_design(out))
        r = profile_student_t(out.y, random_design(out))
        gaps = f.values - r.values
        assert np.all(gaps > 0)
        assert 30.0 < gaps.mean() < 400.0

    def test_heavy_tailed_data_gives_interior_argmax(self):
        out = bench(2, "cauchy")
        curve = profile_student_t(out.y, fixed_design(out), refine=True)
        assert 0.05 <= curve.argmax_param <= 0.35
        assert abs(curve.argmax_param - 0.15) <= 0.07
        gauss = reduced_profile_loglik(out.y, Gaussian(), fixed_design(out))
        assert curve.argmax_value > gauss.value

    def test_zero_inv_nu_point_equals_gaussian_target(self):
        # inv_nu = 0 runs the same code path as the plain Gaussian target,
        # so the curve point matches bit for bit.
        out = bench(1)
        d = fixed_design(out)
        curve = profile_student_t(out.y, d)
        gauss = reduced_profile_loglik(out.y, Gaussian(), d)
        assert curve.grid[0] == 0.0
        assert curve.values[0] == gauss.value

    @pytest.mark.parametrize("grid, message", [
        *[(grid, r"^inv_nu grid must lie in \[0, 1\]$")
          for grid in ([0.0, 1.2], ["a"], [True, False], *MIXED_BOOL_GRIDS)],
        (RAGGED_GRID, "^parameter grid must be one-dimensional$"),
    ])
    def test_grid_domain_is_validated(self, grid, message):
        out = bench(0)
        with pytest.raises(DomainError, match=message):
            profile_student_t(out.y, fixed_design(out), grid=grid)


class TestAlphaProfile:
    def test_heavy_tailed_data_argmax_near_small_negative(self):
        out = bench(2, "cauchy")
        d = fixed_design(out)
        curve = profile_alpha(out.y, d, refine=True)
        assert abs(curve.argmax_param - (-0.05)) <= 0.1
        gauss = reduced_profile_loglik(out.y, Gaussian(), d)
        assert curve.argmax_value > gauss.value

    def test_negating_the_data_gives_the_same_curve(self):
        # alpha = beta targets are symmetric, and negation just reverses
        # ranks, so the whole profile is unchanged.
        out = bench(2, "cauchy")
        d = fixed_design(out)
        a = profile_alpha(out.y, d)
        b = profile_alpha(-out.y, d)
        assert_allclose(b.values, a.values, rtol=1e-9)
        assert b.argmax_param == pytest.approx(a.argmax_param, abs=1e-12)

    @pytest.mark.parametrize("grid, message", [
        *[(grid, r"^alpha grid must lie in \[-1, 1\]$")
          for grid in ([-2.0, 0.0], ["a"], [True, False], *MIXED_BOOL_GRIDS)],
        (RAGGED_GRID, "^parameter grid must be one-dimensional$"),
    ])
    def test_grid_domain_is_validated(self, grid, message):
        out = bench(0)
        with pytest.raises(DomainError, match=message):
            profile_alpha(out.y, fixed_design(out), grid=grid)


class TestFamilyEvaluator:
    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("family, profile", [("t", profile_student_t),
                                                 ("alpha", profile_alpha)])
    def test_curve_rows_are_its_values(self, family, profile, model):
        out = bench(2, "cauchy")
        d = out.design.with_model(model)
        evaluate = family_evaluator(family, out.y, d)
        curve = profile(out.y, d)
        for i in (0, 7, curve.grid.size - 1):
            r = evaluate(float(curve.grid[i]))
            assert (r.value, r.det_term, r.jacobian_term) == (
                curve.values[i], curve.det_terms[i], curve.jacobian_terms[i])

    def test_boxcox_curve_rows_are_its_values(self):
        out = simulate(SimConfig(seed=3, intercept=20.0))
        d = fixed_design(out)
        evaluate = family_evaluator("boxcox", out.y, d)
        curve = boxcox_profile(out.y, d)
        assert [evaluate(float(g)).value for g in curve.grid] == list(curve.values)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_named_targets_are_members(self, model):
        out = bench(0)
        d = out.design.with_model(model)
        ranked = percentiles(out.y)
        for family, dist in (("t", Gaussian()), ("alpha", Logistic())):
            assert (family_evaluator(family, ranked, d)(0.0).value
                    == reduced_profile_loglik(ranked, dist, d).value)

    def test_one_ranking(self, sorts):
        out = bench(0)
        evaluate = family_evaluator("alpha", out.y, fixed_design(out))
        evaluate(0.0), evaluate(0.5)
        assert len(sorts) == 1


class TestRefinement:
    def test_refined_value_never_below_grid_value(self):
        out = bench(2, "cauchy")
        d = fixed_design(out)
        coarse = profile_student_t(out.y, d)
        refined = profile_student_t(out.y, d, refine=True)
        assert refined.argmax_value >= coarse.argmax_value
        # and the refined point stays inside the bracketing interval
        i = int(np.nanargmax(coarse.values))
        assert coarse.grid[i - 1] <= refined.argmax_param <= coarse.grid[i + 1]

    def test_boundary_argmax_is_left_alone(self):
        out = bench(0)
        d = fixed_design(out)
        curve = profile_student_t(out.y, d, grid=[0.0, 0.5, 1.0], refine=True)
        if curve.argmax_param in (0.0, 1.0):
            assert curve.argmax_param in curve.grid
        # gaussian-effects data peaks at the gaussian end of this grid
        assert curve.argmax_param == 0.0

    @pytest.mark.parametrize("error", [DegenerateFitError, NumericError])
    def test_failed_refinement_keeps_grid_argmax(self, error):
        # Every grid point evaluates and the interior peak at 0.5 is
        # bracketed, but evaluate fails everywhere off the grid, so the
        # first golden-section point fails.
        grid = np.arange(5) * 0.25

        def evaluate(x):
            if x not in grid:
                raise error(f"no fit at {x!r}")
            v = -((x - 0.6) ** 2)
            return ReducedProfileLoglik("toy", v, 0.0, v)

        curve = _sweep("toy", grid, evaluate, refine=True)
        assert curve.argmax_param == 0.5
        assert curve.argmax_value == -((0.5 - 0.6) ** 2)
        assert np.all(np.isfinite(curve.values))
        assert len(curve.warnings) == 1
        assert curve.warnings[0].startswith("toy refinement point ")
        assert "no fit at" in curve.warnings[0]
        assert "kept grid argmax 0.5" in curve.warnings[0]

    def test_grid_argmax_is_evaluated_once(self):
        # The golden-section search starts from the value the grid already
        # has at its argmax instead of evaluating it again.
        grid = np.arange(5) * 0.25
        calls = []

        def evaluate(x):
            calls.append(x)
            v = -((x - 0.6) ** 2)
            return ReducedProfileLoglik("toy", v, 0.0, v)

        curve = _sweep("toy", grid, evaluate, refine=True)
        assert curve.argmax_value > -((0.5 - 0.6) ** 2)
        assert calls.count(0.5) == 1


class TestGoldenSectionReuse:
    def test_one_evaluation_per_step_on_the_default_bracket(self):
        # Two grid steps of the default t grid (0.04) down to xtol 1e-3 is
        # 8 golden-section steps: 2 evaluations for the first, 1 for each
        # later one, where both interior points were evaluated before.
        calls = []

        def f(x):
            calls.append(x)
            return -((x - 0.61) ** 2)

        x, v = _golden_max(f, 0.58, 0.60, f(0.60), 0.62)
        assert len(calls) - 1 == 9
        assert abs(x - 0.61) < 1e-3
        assert v == max(-((c - 0.61) ** 2) for c in calls)

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("family", ["t", "alpha"])
    def test_refined_argmax_matches_two_point_search(self, family, model):
        # The reused point differs from the recomputed one by rounding, so
        # the refined argmax moves by rounding only.
        refined = 0
        for seed in range(10):
            out = bench(seed, "cauchy")
            d = out.design.with_model(model)
            if family == "t":
                curve = profile_student_t(out.y, d, refine=True)
                target = StudentT
            else:
                curve = profile_alpha(out.y, d, refine=True)
                target = lambda a: AlphaBeta(a, a)  # noqa: E731
            i = int(np.nanargmax(curve.values))
            if not 0 < i < curve.grid.size - 1:
                continue
            pc = percentiles(out.y)
            x, v = two_point_golden_max(
                lambda t: _reduced(pc, target(t), d).value,
                float(curve.grid[i - 1]), float(curve.grid[i]), float(curve.values[i]),
                float(curve.grid[i + 1]),
            )
            want_x, want_v = (x, v) if v > curve.values[i] else (curve.grid[i], curve.values[i])
            assert abs(curve.argmax_param - want_x) <= 1e-15
            assert abs(curve.argmax_value - want_v) <= 1e-15 * abs(want_v)
            refined += 1
        assert refined >= 5


class TestSweepFailures:
    def test_constant_response_fails_everywhere(self):
        out = bench(0)
        with pytest.raises(NumericError):
            profile_student_t(np.full(1500, 1.0), fixed_design(out))

    def test_isolated_failure_is_reported_and_skipped(self, rng):
        # exp of an exactly additive surface: the log point of the power
        # profile is degenerate, every other exponent is fine.
        rows = np.arange(20) % 5
        cols = np.arange(20) // 5
        y = np.exp(rng.normal(size=5)[rows] + rng.normal(size=4)[cols])
        from qmatch import DesignSpec
        curve = boxcox_profile(y, DesignSpec(5, 4))
        i0 = int(np.where(curve.grid == 0.0)[0][0])
        assert np.isnan(curve.values[i0])
        assert len(curve.warnings) == 1
        assert "0" in curve.warnings[0]
        ok = np.isfinite(curve.values)
        assert ok.sum() == curve.grid.size - 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_is_a_failed_point(self, bad):
        # No exception, but a value that is not a number: a failed point
        # all the same, with a warning naming it.
        def evaluate(x):
            v = bad if x == 0.5 else -((x - 0.6) ** 2)
            return ReducedProfileLoglik("toy", v, 0.0, v)

        curve = _sweep("toy", np.arange(5) * 0.25, evaluate, refine=False)
        assert np.isnan(curve.values[2]) and np.isnan(curve.det_terms[2])
        assert curve.warnings == (f"toy grid point 0.5 failed: value is {bad}",)
        assert curve.argmax_param == 0.75

    def test_overflowing_boxcox_exponent_is_a_failed_point(self):
        # At g = 1e305, 2 n g c overflows and the value is NaN without an
        # exception.
        out = simulate(SimConfig(seed=0, intercept=20.0))
        curve = boxcox_profile(out.y, fixed_design(out), grid=[0.5, 1, 2, 3, 1e305])
        assert np.isnan(curve.values[-1])
        assert np.all(np.isfinite(curve.values[:-1]))
        assert curve.warnings == ("boxcox grid point 1e+305 failed: value is nan",)


class TestNonFiniteGrid:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("profile, field", [
        (profile_student_t, "inv_nu"), (profile_alpha, "alpha"), (boxcox_profile, "g"),
    ])
    def test_rejected_before_any_fit(self, monkeypatch, profile, field, bad):
        def unfit(z, design):
            raise AssertionError("fitted")

        monkeypatch.setattr("qmatch.translik.fit", unfit)
        out = simulate(SimConfig(seed=0, intercept=20.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{field} grid points must be finite$"):
                profile(out.y, fixed_design(out), grid=[0.5, bad])


class TestEmptyGrid:
    @pytest.mark.parametrize("profile", [profile_student_t, profile_alpha, boxcox_profile])
    def test_rejected_before_any_fit(self, monkeypatch, profile):
        def unfit(z, design):
            raise AssertionError("fitted")

        monkeypatch.setattr("qmatch.translik.fit", unfit)
        out = simulate(SimConfig(seed=0, intercept=20.0))
        with pytest.raises(DomainError, match="^parameter grid must be nonempty$"):
            profile(out.y, fixed_design(out), grid=[])


class TestGridShape:
    @pytest.mark.parametrize("grid", [[[0.1, 0.2]], 0.3], ids=["2-d", "0-d"])
    @pytest.mark.parametrize("profile", [profile_student_t, profile_alpha, boxcox_profile])
    def test_rejected_before_any_fit(self, monkeypatch, profile, grid):
        def unfit(z, design):
            raise AssertionError("fitted")

        monkeypatch.setattr("qmatch.translik.fit", unfit)
        out = simulate(SimConfig(seed=0, intercept=20.0))
        with pytest.raises(DomainError, match="^parameter grid must be one-dimensional$"):
            profile(out.y, fixed_design(out), grid=grid)


class TestBoxcoxProfile:
    def test_unit_exponent_matches_identity_fit(self):
        out = bench(0)
        y = np.exp(out.y / 4.0)
        d = fixed_design(out)
        curve = boxcox_profile(y, d)
        i1 = int(np.where(curve.grid == 1.0)[0][0])
        from qmatch import fit
        expect = -0.5 * fit(y, d).log_det_sigma_hat
        assert curve.values[i1] == pytest.approx(expect, rel=1e-8)

    def test_log_scale_data_picks_zero(self):
        out = bench(0)
        curve = boxcox_profile(np.exp(out.y), fixed_design(out))
        assert abs(curve.argmax_param) <= 0.15

    def test_shifted_data_moves_toward_identity(self):
        out = bench(0)
        curve = boxcox_profile(out.y + 20.0, fixed_design(out))
        assert abs(curve.argmax_param - 1.0) <= 0.3

    def test_nonpositive_data_rejected(self):
        out = bench(0)
        with pytest.raises(DomainError):
            boxcox_profile(out.y - out.y.max(), fixed_design(out))

    def test_large_exponents_fit(self):
        # y**130 would reach about 1e180 on intercept-20 data, and its
        # squares would overflow; the log-domain profile never forms it.
        out = simulate(SimConfig(seed=3, intercept=20.0))
        curve = boxcox_profile(out.y, fixed_design(out), np.arange(0.0, 131.0, 5.0))
        assert np.all(np.isfinite(curve.values))
        assert curve.warnings == ()

    @pytest.mark.parametrize("design", [fixed_design, random_design])
    def test_continuous_at_zero(self, design):
        # The value's slope at g = 0 is about 29 on this data, all the way
        # down to g = 1e-15; (y^g - 1)/g cancels there, and was off by
        # 0.065 at g = 1e-12.
        out = simulate(SimConfig(seed=3, intercept=20.0))
        d = design(out)
        at_zero = boxcox_profile(out.y, d, [0.0]).values[0]
        for g in [s * 10.0 ** -k for k in range(6, 16) for s in (1, -1)]:
            gap = boxcox_profile(out.y, d, [g]).values[0] - at_zero
            assert abs(gap) <= 100.0 * abs(g) + 1e-12, (g, gap)

    @pytest.mark.parametrize("design", [fixed_design, random_design])
    def test_wide_integer_grid_has_no_failed_point(self, design):
        # y^g overflows from g = 225 on intercept-20 data; the shifted
        # log-domain form never forms a power above 1.
        out = simulate(SimConfig(seed=3, intercept=20.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = boxcox_profile(out.y, design(out), np.arange(-400.0, 401.0))
        assert np.all(np.isfinite(curve.values))
        assert curve.warnings == ()

    @pytest.mark.parametrize("design", [fixed_design, random_design])
    @pytest.mark.parametrize("a", [1e-3, 7.0, 1e6])
    def test_scale_shifts_every_value_by_n_log_a(self, design, a):
        # y -> a y multiplies (y^g - 1)/g by a^g up to a constant, which
        # moves log det Sigma_hat by 2 n g log a, and the jacobian term
        # by (g - 1) n log a: together -n log a, whatever g is.
        out = simulate(SimConfig(seed=3, intercept=20.0))
        d = design(out)
        n = out.y.size
        base = boxcox_profile(out.y, d)
        scaled = boxcox_profile(a * out.y, d)
        assert_allclose(scaled.values, base.values - n * math.log(a), rtol=0, atol=1e-12 * n)
        assert scaled.argmax_param == base.argmax_param

    def test_refinement_never_lowers_the_grid_argmax(self):
        out = simulate(SimConfig(seed=2, intercept=20.0))
        d = fixed_design(out)
        coarse = boxcox_profile(out.y, d)
        refined = boxcox_profile(out.y, d, refine=True)
        assert coarse.argmax_param == pytest.approx(0.9, abs=1e-12)
        assert refined.argmax_value >= coarse.argmax_value
        assert 0.9 < refined.argmax_param < 0.95


def _reduced_terms(target):
    def terms(y, design, theta):
        r = reduced_profile_loglik(y, target(theta), design)
        return r.value, r.det_term, r.jacobian_term
    return terms


def _boxcox_terms(y, design, g):
    curve = boxcox_profile(y, design, [g])
    return curve.values[0], curve.det_terms[0], curve.jacobian_terms[0]


# Every seam where a family meets a closed-form limit: the parameter at the
# limit, the sides it is approached from, the value's terms as a function
# of the parameter, a bound on the value's slope there, and a tolerance
# relative to the larger term.  The slopes on 50x30 data measure at most
# 1.2e3 (t at 0), 8.3e3 (t at 1), 9.2e2 (alpha-beta) and 29 (Box-Cox).
# The t tolerance is stdtrit's seam against ndtri and tandg: at
# inv_nu = 1e-300 the value is 3.0e-11 from inv_nu = 0, and at 1 - 2^-53
# up to 7.2e-11 from inv_nu = 1, under 5e-14 of the terms.  The other
# families reach their limit's value exactly.
SEAMS = {
    "t:inv_nu=0": (0.0, (1.0,), _reduced_terms(StudentT), 2e3, 5e-14),
    "t:inv_nu=1": (1.0, (-1.0,), _reduced_terms(StudentT), 1e4, 5e-14),
    "alpha=0": (0.0, (1.0, -1.0), _reduced_terms(lambda a: AlphaBeta(a, 0.0)), 2e3, 1e-15),
    "beta=0": (0.0, (1.0, -1.0), _reduced_terms(lambda b: AlphaBeta(0.0, b)), 2e3, 1e-15),
    "alpha=beta=0": (0.0, (1.0, -1.0), _reduced_terms(lambda a: AlphaBeta(a, a)), 2e3, 1e-15),
    "boxcox:g=0": (0.0, (1.0, -1.0), _boxcox_terms, 100.0, 1e-15),
}


class TestSeams:
    """Each family is continuous at its closed-form limits, with parameters
    down to the smallest subnormal, where a product with the parameter
    loses its precision."""

    @given(
        seam=st.sampled_from(list(SEAMS)),
        offset=st.floats(5e-324, 1e-6) | st.sampled_from([5e-324, 1e-320, 1e-310, 1e-300]),
        seed=st.integers(0, 3),
        model=st.sampled_from(list(ModelKind)),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_value_approaches_the_limit(self, seam, offset, seed, model, data):
        limit, sides, terms, slope, tol = SEAMS[seam]
        theta = limit + data.draw(st.sampled_from(sides)) * offset
        out = simulate(SimConfig(seed=seed, intercept=20.0)) if seam.startswith("boxcox") \
            else bench(seed, "cauchy")
        design = out.design.with_model(model)
        value, *_ = terms(out.y, design, theta)
        at_limit, det_term, jacobian_term = terms(out.y, design, limit)
        bound = slope * abs(theta - limit) + tol * max(abs(det_term), abs(jacobian_term))
        assert abs(value - at_limit) <= bound, (theta, value - at_limit)


class TestEntropyQuadrature:
    def test_gaussian(self):
        q = entropy_quadrature(Gaussian(), 1000)
        assert q.exact == pytest.approx(GAUSS_ENTROPY, rel=1e-12)
        assert abs(q.gap) < 0.01

    def test_uniform_is_exactly_zero(self):
        for n in (10, 137, 5000):
            q = entropy_quadrature(Uniform(), n)
            assert q.quadrature == 0.0 and q.exact == 0.0 and q.gap == 0.0

    def test_logistic(self):
        q = entropy_quadrature(Logistic(), 1500)
        assert q.exact == 2.0
        assert abs(q.gap) < 0.02

    def test_gap_shrinks_with_n(self):
        for dist in (Gaussian(), Logistic(), StudentT(0.3)):
            assert abs(entropy_quadrature(dist, 2000).gap) < abs(
                entropy_quadrature(dist, 500).gap
            )

    def test_unknown_entropy_leaves_gap_none(self):
        q = entropy_quadrature(AlphaBeta(0.3, 0.2), 100)
        assert q.exact is None and q.gap is None
        assert np.isfinite(q.quadrature)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            entropy_quadrature(Gaussian(), 9)


class TestCorrelationReport:
    def test_uniform_column_is_rank_correlation(self):
        out = bench(0)
        rep = correlation_report(out.y, [Uniform()])
        expect = np.corrcoef(out.y, data_order_percentiles(out.y))[0, 1]
        assert rep.correlations[0] == pytest.approx(expect, rel=1e-12)

    def test_affine_target_changes_nothing(self):
        # Pearson correlation is affine invariant, and mirroring a
        # symmetric target gives back the same distribution.
        out = bench(1)
        rep = correlation_report(
            out.y,
            [Gaussian(), Affine(Gaussian(), 3.0, 2.0), Affine(Gaussian(), 0.0, -1.0)],
        )
        assert rep.correlations[1] == pytest.approx(rep.correlations[0], abs=1e-12)
        assert rep.correlations[2] == pytest.approx(rep.correlations[0], abs=1e-9)

    def test_heavy_tailed_benchmark_row(self):
        # One named, mild heavy-tailed realization: its sample kurtosis sits
        # at the 11th percentile of seeds 1000..1199, where every entry
        # exceeds 0.8 in only 39% of runs.  On this draw every correlation
        # is high and the best-fitting power target correlates strongest.
        out = bench(2, "cauchy")
        rep = correlation_report(
            out.y,
            [AlphaBeta(-0.05, -0.05), Gaussian(), Logistic(), StudentT(0.15)],
        )
        assert rep.labels[0].startswith("alpha_beta")
        assert np.all(rep.correlations > 0.8)
        assert np.all(rep.correlations < 1.0)
        assert int(np.argmax(rep.correlations)) == 0

    @pytest.mark.parametrize("k", [-900, -600, -520, 520, 600, 1000])
    def test_exact_power_of_two_scale_changes_nothing(self, k):
        # Pearson correlation is scale invariant; at these scales the sums
        # of squares of y itself overflow or underflow.
        y = bench(0).y
        targets = [Gaussian(), Uniform(), StudentT(1.0), AlphaBeta(-0.05, -0.05)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = correlation_report(np.ldexp(y, k), targets)
        assert np.array_equal(scaled.correlations, correlation_report(y, targets).correlations)

    def test_degenerate_inputs_rejected(self):
        out = bench(0)
        with pytest.raises(DomainError):
            correlation_report(out.y, [])
        with pytest.raises(DomainError):
            correlation_report(np.ones(100), [Gaussian()])
        with pytest.raises(DomainError):
            correlation_report(np.array([1.0, 2.0]), [Gaussian()])
