"""Acceptance gate: twelve end-to-end correctness criteria.

Each test is one criterion, named test_criterion_NN_*, so a verbose run
prints one pass/fail line per criterion.  Seeds are the untuned block
0..9 throughout; distribution-level claims are stated with their margins
in the asserts.
"""

import math

import numpy as np
import pytest
from scipy import special as sc

from conftest import bench, fixed_design, random_design
from oracles import (
    Affine,
    data_order_percentiles,
    dense_covariance,
    entropy_quadrature,
    fit_random_numeric,
    quadratic_form,
)
from qmatch import (
    AlphaBeta,
    DesignSpec,
    Gaussian,
    Logistic,
    ModelKind,
    StudentT,
    Uniform,
    boxcox_profile,
    correlation_report,
    fit,
    loglik_ratio,
    lr_diagnostics_gaussian_uniform,
    profile_alpha,
    profile_student_t,
    reduced_profile_loglik,
)

SEEDS = range(10)


def test_criterion_01_rankit_exactness():
    """Tie-free percentiles equal the rankit grid (2i-1)/(2n) exactly."""
    rng = np.random.default_rng(101)
    for n in (1, 2, 7, 100, 1234, 10000):
        y = rng.normal(size=n)
        assert np.unique(y).size == n
        got = np.sort(data_order_percentiles(y))
        expect = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        assert np.array_equal(got, expect)
    # tie group spanning sorted positions a..a+k-1 shares (2a+k-2)/(2n)
    p = data_order_percentiles(np.array([3.0, 1.0, 3.0, 3.0, 0.5]))
    assert np.array_equal(p, np.array([0.7, 0.3, 0.7, 0.7, 0.1]))


def test_criterion_02_special_function_accuracy():
    """Quantile routines hit reference values and invert their CDFs."""
    assert abs(Gaussian().quantile(0.975) - 1.9599640) < 1e-7
    assert StudentT(1.0).quantile(0.75) == 1.0
    p = np.arange(1, 100) / 100.0
    for nu in (1.0, 2.0, 5.0, 6.67, 50.0):
        dist = StudentT.from_nu(nu)
        back = dist.cdf(dist.quantile(p))
        assert np.max(np.abs(back - p)) < 1e-9


def test_criterion_03_quadratic_form_identity():
    """Fitted quadratic form (z-mu)' Sigma^{-1} (z-mu) equals n."""
    rng = np.random.default_rng(303)
    for trial in range(50):
        r = int(rng.integers(3, 11))
        c = int(rng.integers(3, 11))
        scale = 10.0 ** rng.uniform(-3, 3)
        rows = np.arange(r * c) % r
        cols = np.arange(r * c) // r
        z = scale * (
            rng.normal(size=r)[rows] * rng.uniform(0, 2)
            + rng.normal(size=c)[cols] * rng.uniform(0, 2)
            + rng.normal(size=r * c)
        )
        for model in (ModelKind.FIXED_EFFECTS, ModelKind.RANDOM_EFFECTS):
            d = DesignSpec(r, c, model=model)
            f = fit(z, d)
            assert quadratic_form(z, f, d) == pytest.approx(r * c, rel=1e-6)


def test_criterion_04_variance_component_oracle_equivalence():
    """Active-set and derivative-free fits agree; eigen log det matches
    the dense matrix log det."""
    for trial in range(50):
        rng = np.random.default_rng(404 + trial)
        rows = np.arange(80) % 10
        cols = np.arange(80) // 10
        z = (
            rng.uniform(0, 2) * rng.normal(size=10)[rows]
            + rng.uniform(0, 2) * rng.normal(size=8)[cols]
            + rng.normal(size=80)
        )
        d = DesignSpec(10, 8, model=ModelKind.RANDOM_EFFECTS)
        a = fit(z, d)
        b = fit_random_numeric(z, d)
        assert abs((-0.5 * a.log_det_sigma_hat) - (-0.5 * b.log_det_sigma_hat)) <= 1e-6
        sigma = dense_covariance(d, a.sigma2, a.sigma2_row, a.sigma2_col)
        sign, logdet = np.linalg.slogdet(sigma)
        assert sign > 0
        assert abs(a.log_det_sigma_hat - logdet) <= 1e-6


def test_criterion_05_affine_invariance():
    """Rescaled targets a + b*G give the same likelihood as G."""
    out = bench(0)
    d = fixed_design(out)
    rng = np.random.default_rng(505)
    pairs = [(rng.uniform(-5, 5), rng.uniform(0.2, 4.0) * (-1) ** k)
             for k in range(10)]
    assert any(b < 0 for _, b in pairs) and any(b > 0 for _, b in pairs)
    for base in (Gaussian(), Logistic(), StudentT(0.2)):
        for a, b in pairs:
            assert abs(loglik_ratio(out.y, base, Affine(base, a, b), d)) <= 1e-6


def test_criterion_06_likelihood_ratio_algebra():
    """Antisymmetry, chain consistency, and the two-term gaussian-uniform
    decomposition all agree with the generic ratio."""
    out = bench(0)
    for d in (fixed_design(out), random_design(out)):
        ab = loglik_ratio(out.y, Gaussian(), Logistic(), d)
        ba = loglik_ratio(out.y, Logistic(), Gaussian(), d)
        assert ab == -ba
        assert loglik_ratio(out.y, Logistic(), Logistic(), d) == 0.0
        ac = loglik_ratio(out.y, Gaussian(), StudentT(0.4), d)
        bc = loglik_ratio(out.y, Logistic(), StudentT(0.4), d)
        assert abs(ab + bc - ac) <= 1e-8
        diag = lr_diagnostics_gaussian_uniform(out.y, d)
        assert diag.lr == loglik_ratio(out.y, Gaussian(), Uniform(), d)


def test_criterion_07_gaussian_quantile_sum_of_squares():
    """At n = 1500 the mean squared gaussian quantile is 1 + O(1/n)."""
    p = (2.0 * np.arange(1, 1501) - 1.0) / 3000.0
    q = sc.ndtri(p)
    assert 0.98 <= float(q @ q) / 1500.0 <= 1.02


def test_criterion_08_entropy_quadrature():
    """Midpoint quadrature converges to the target entropy."""
    assert abs(entropy_quadrature(Gaussian(), 1000).quadrature - 1.4189385) < 0.01
    assert entropy_quadrature(Uniform(), 1000).quadrature == 0.0
    rng = np.random.default_rng(808)
    improved = 0
    for _ in range(20):
        dist = StudentT(float(rng.uniform(0.0, 1.0)))
        improved += abs(entropy_quadrature(dist, 2000).gap) < abs(
            entropy_quadrature(dist, 500).gap
        )
    assert improved >= 18


def test_criterion_09_gaussian_effects_benchmark():
    """Gaussian-effects data: the t profile concentrates at the gaussian
    end under both models, and the random-effects curve sits 50-300
    log-likelihood units below the fixed-effects curve everywhere."""
    hits_fixed = hits_random = 0
    for seed in SEEDS:
        out = bench(seed)
        f = profile_student_t(out.y, fixed_design(out))
        r = profile_student_t(out.y, random_design(out))
        hits_fixed += f.argmax_param <= 0.05
        hits_random += r.argmax_param <= 0.05
        gaps = f.values - r.values
        assert np.all(gaps > 0), f"seed {seed}: random curve not below fixed"
        assert 50.0 <= gaps.mean() <= 300.0, f"seed {seed}: mean gap {gaps.mean():.1f}"
    assert hits_fixed >= 9, f"fixed-model argmax near 0 in only {hits_fixed}/10"
    assert hits_random >= 9, f"random-model argmax near 0 in only {hits_random}/10"


def test_criterion_10_heavy_tailed_benchmark():
    """Cauchy-effects data: the power family picks a small negative
    exponent that beats the gaussian target, the t family finds an
    interior tail index, the fitted-power column dominates the correlation
    report, and the report's correlations sit in the band (0.80, 0.98).

    Every sub-check is a count over the seed block 0..9 whose threshold
    comes from the rate measured on the disjoint probe block 1000..1199
    (200 runs):

    - alpha in [-0.3, 0.2] and beating the gaussian target: 200/200,
      need >= 8 of 10;
    - t argmax interior, in [0.05, 0.35]: 200/200, need >= 8 of 10;
    - fitted-power column maximal: 187/200, need >= 6 of 10.

    The correlations are descriptive: they compare raw ``y`` with
    ``Q(p)`` and depend on how extreme the draw's few largest effects
    are.  The two edges of the band fail at very different rates, so each
    is its own count, with the largest threshold whose false-failure
    probability under the probe rate (binomial, 10 runs) is at most 1%:

    - upper edge, every entry < 0.98: 192/200 runs, need >= 8 of 10
      (false-failure probability 0.6%);
    - lower edge, every entry > 0.80: 78/200 runs, need >= 1 of 10
      (false-failure probability 0.7%).

    Runs below the lower edge are the heavy-tailed draws: on the probe
    block the median sample kurtosis of ``y`` (not excess) is 25 outside
    the band and 9.5 inside it, and the gaussian column is the lowest in 200/200 runs.
    """
    alpha_ok = 0
    t_interior_ok = 0
    corr_argmax_ok = 0
    above_upper = []  # (seed, min, max) of runs with an entry >= 0.98
    below_lower = []  # (seed, min, max) of runs with an entry <= 0.80
    for seed in SEEDS:
        out = bench(seed, "cauchy")
        d = fixed_design(out)
        a_curve = profile_alpha(out.y, d)
        gauss = reduced_profile_loglik(out.y, Gaussian(), d)
        alpha_hat = a_curve.argmax_param
        alpha_ok += (-0.3 <= alpha_hat <= 0.2) and (a_curve.argmax_value > gauss.value)
        t_curve = profile_student_t(out.y, d)
        t_interior_ok += 0.05 <= t_curve.argmax_param <= 0.35
        rep = correlation_report(
            out.y,
            [
                AlphaBeta(alpha_hat, alpha_hat),
                Logistic(),
                Gaussian(),
                StudentT(t_curve.argmax_param),
            ],
        )
        corr_argmax_ok += int(np.argmax(rep.correlations)) == 0
        run = (seed, float(rep.correlations.min()), float(rep.correlations.max()))
        if not np.all(rep.correlations < 0.98):
            above_upper.append(run)
        if not np.all(rep.correlations > 0.80):
            below_lower.append(run)
    n = len(SEEDS)
    upper_ok = n - len(above_upper)
    lower_ok = n - len(below_lower)

    def runs(bad):
        listed = ", ".join(f"seed {s} [{lo:.3f}, {hi:.3f}]" for s, lo, hi in bad)
        return listed or "none"

    detail = (
        f"alpha in band and beats gaussian: {alpha_ok}/{n} (need >= 8); "
        f"t interior argmax in [0.05, 0.35]: {t_interior_ok}/{n} (need >= 8); "
        f"fitted-power column maximal: {corr_argmax_ok}/{n} (need >= 6); "
        f"all correlations < 0.98: {upper_ok}/{n} (need >= 8; outside: "
        f"{runs(above_upper)}); "
        f"all correlations > 0.80: {lower_ok}/{n} (need >= 1; outside: "
        f"{runs(below_lower)})"
    )
    print(detail)
    assert (
        alpha_ok >= 8 and t_interior_ok >= 8 and corr_argmax_ok >= 6
        and upper_ok >= 8 and lower_ok >= 1
    ), detail


def test_criterion_11_power_transform_comparator():
    """Exponentiated additive data: the power profile recovers the log
    transform (argmax within 0.15 of zero) in at least 9 of 10 seeds."""
    hits = 0
    for seed in SEEDS:
        out = bench(seed)
        curve = boxcox_profile(np.exp(out.y), fixed_design(out))
        hits += abs(curve.argmax_param) <= 0.15
    assert hits >= 9, f"log transform recovered in only {hits}/10 seeds"


def test_criterion_12_interpolant_independence(no_held_ranking):
    """Vectors with identical ranks give bit-identical reduced profiles,
    ratios, and curves."""
    out = bench(4)
    d = fixed_design(out)
    y = out.y
    relabeled = 2.0 * y + np.arctan(y / 3.0)  # strictly increasing map
    assert np.array_equal(np.argsort(y, kind="stable"),
                          np.argsort(relabeled, kind="stable"))

    def both(f):
        # Each vector is ranked on its own: the held ranking of one would
        # otherwise serve the other.
        no_held_ranking()
        first = f(y)
        no_held_ranking()
        return first, f(relabeled)

    r1, r2 = both(lambda v: reduced_profile_loglik(v, StudentT(0.25), d))
    assert (r1.value, r1.det_term, r1.jacobian_term) == (
        r2.value, r2.det_term, r2.jacobian_term
    )
    lr1, lr2 = both(lambda v: loglik_ratio(v, Gaussian(), Logistic(), d))
    assert lr1 == lr2
    c1, c2 = both(lambda v: profile_student_t(v, d))
    assert np.array_equal(c1.values, c2.values)
    assert c1.argmax_param == c2.argmax_param and c1.argmax_value == c2.argmax_value
    a1, a2 = both(lambda v: profile_alpha(v, d))
    assert np.array_equal(a1.values, a2.values)
