"""The fixed-model reduced profile value against a 40-digit reference.

The reference is built from first principles in mpmath at 40 significant
digits, apart from the package's float arithmetic:

* the midrank percentiles as exact rationals: a tie run of length k at
  0-based sorted positions a..a+k-1 has p = (2a + k)/(2n);
* Q(p) and log Q'(p): the Gaussian through ``erfinv``; the uniform; the
  logistic and the alpha-beta family through direct logs and powers; the
  t family at inv_nu 0.5 and 0.02 through ``findroot`` on its cdf, the
  regularized incomplete beta function; the Cauchy (inv_nu 1) as
  Q = -cot(pi p) with log Q' = log pi - 2 log sin(pi p); and the
  subnormal members StudentT(5e-324) and AlphaBeta(+-5e-324, +-5e-324)
  through their limits, the Gaussian and the logistic;
* the two-way decomposition's interaction sum of squares S_E, and the
  fixed model's det term -1/2 n log(S_E/n).

``reduced_profile_loglik``'s det term and jacobian term each lie within
n eps max(1, |det_term| + |jacobian_term|) of the reference.

Box-Cox at exponent g is checked the same way on positive data (intercept
20): the reference transforms the float y to z = (y^g - 1)/g (log y at
g = 0) at 40 digits, with the det term -1/2 n log(S_E/n) of z and the
jacobian (g - 1) sum log y.  The package fits z in the log domain, so the
rounding of each log y enters z, and the det term sees it against the
residual scale sqrt(S_E/n) rather than against the size of z.  The bound
is therefore the one above times K = max|z| / sqrt(S_E/n); the
unscaled bound is exceeded up to 5.7 times (2x3, cauchy seed 1, g = 1),
and the scaled one is met with the worst error at 0.14 of it.

A response the package refuses to fit (``DegenerateFitError``) is
skipped.  The random model is left out: on the 10x8 grid of
``test_linmodel``'s strict xfail its solver misses the optimum.
"""

import functools
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import special as sc

from qmatch import (
    AlphaBeta,
    DegenerateFitError,
    DesignSpec,
    Gaussian,
    Logistic,
    SimConfig,
    StudentT,
    Uniform,
    reduced_profile_loglik,
    simulate,
)
from qmatch.translik import family_evaluator

ctx = mpmath.MPContext()
ctx.dps = 40

EPS = np.finfo(float).eps


def _t_quantile(nu, p):
    """The t quantile at p <= 1/2, the root of the cdf
    I_{nu/(nu + x^2)}(nu/2, 1/2)/2 = p on x <= 0.  scipy's float quantile
    is only the starting point."""
    if p == 0.5:
        return ctx.zero

    def cdf_minus_p(x):
        return ctx.betainc(nu / 2, 0.5, 0, nu / (nu + x * x), regularized=True) / 2 - p

    return ctx.findroot(cdf_minus_p, ctx.mpf(float(sc.stdtrit(float(nu), float(p)))))


def _t(inv_nu):
    nu = 1 / ctx.mpf(inv_nu)
    log_c = ctx.log(ctx.sqrt(nu) * ctx.beta(0.5, nu / 2))  # -log f(0)

    def q_lqd(p):
        # The t law is symmetric: Q(1 - p) = -Q(p), and log Q' is even.
        x = _t_quantile(nu, min(p, 1 - p))
        x = -x if p > 0.5 else x
        return x, log_c + (nu + 1) / 2 * ctx.log(1 + x * x / nu)

    return q_lqd


def _gaussian(p):
    x = ctx.sqrt(2) * ctx.erfinv(2 * p - 1)
    return x, ctx.log(2 * ctx.pi) / 2 + x * x / 2


def _cauchy(p):
    # Q(p) = tan(pi (p - 1/2)) = -cot(pi p), and Q'(p) = pi / sin(pi p)^2.
    return -ctx.cot(ctx.pi * p), ctx.log(ctx.pi) - 2 * ctx.log(ctx.sin(ctx.pi * p))


def _alpha_beta(a):
    a = ctx.mpf(a)

    def q_lqd(p):
        # Q'(p) = p^(a-1) + (1-p)^(a-1); at a = 0 the logistic.
        if a == 0:
            return ctx.log(p / (1 - p)), -ctx.log(p * (1 - p))
        q = (p**a - 1) / a - ((1 - p)**a - 1) / a
        return q, ctx.log(p**(a - 1) + (1 - p)**(a - 1))

    return q_lqd


# Each target and its 40-digit (Q(p), log Q'(p)).
TARGETS = {
    "gaussian": (Gaussian(), _gaussian),
    "uniform": (Uniform(), lambda p: (p, ctx.zero)),
    "logistic": (Logistic(), _alpha_beta(0.0)),
    "alpha=-0.5": (AlphaBeta(-0.5, -0.5), _alpha_beta(-0.5)),
    "alpha=0.7": (AlphaBeta(0.7, 0.7), _alpha_beta(0.7)),
    "t=0.5": (StudentT(0.5), _t(0.5)),
    "t=0.02": (StudentT(0.02), _t(0.02)),
    "cauchy": (StudentT(1.0), _cauchy),
    # The subnormal members are their families' closed-form limits.
    "t=5e-324": (StudentT(5e-324), _gaussian),
    "alpha=5e-324": (AlphaBeta(5e-324, 5e-324), _alpha_beta(0.0)),
    "alpha=-5e-324": (AlphaBeta(-5e-324, -5e-324), _alpha_beta(0.0)),
}


@functools.lru_cache(maxsize=None)
def _q_lqd(target, p):
    """(Q(p), log Q'(p)) of a ``TARGETS`` key at the rational p, cached
    for the module: tie-free samples of one size share their percentiles."""
    return TARGETS[target][1](ctx.mpf(p.numerator) / p.denominator)


def exact_percentiles(y):
    """Each observation's midrank percentile (2a + k)/(2n), as a Fraction."""
    n = y.size
    order = np.argsort(y, kind="stable")
    ys = y[order]
    p = [None] * n
    a = 0
    while a < n:
        k = 1
        while a + k < n and ys[a + k] == ys[a]:
            k += 1
        for i in order[a:a + k]:
            p[i] = Fraction(2 * a + k, 2 * n)
        a += k
    return p


def interaction_ss(z, nrows, ncols):
    """The two-way decomposition's interaction sum of squares S_E of the
    40-digit response z, observation k in row k mod nrows, column k div
    nrows."""
    n = nrows * ncols
    z = [[z[col * nrows + row] for col in range(ncols)] for row in range(nrows)]
    grand = ctx.fsum(ctx.fsum(r) for r in z) / n
    row_mean = [ctx.fsum(r) / ncols for r in z]
    col_mean = [ctx.fsum(z[row][col] for row in range(nrows)) / nrows for col in range(ncols)]
    return ctx.fsum((z[row][col] - row_mean[row] - col_mean[col] + grand) ** 2
                    for row in range(nrows) for col in range(ncols))


def reference(y, nrows, ncols, target):
    """The 40-digit (det_term, jacobian_term) of the fixed model."""
    n = nrows * ncols
    q_lqd = [_q_lqd(target, p) for p in exact_percentiles(y)]
    s_err = interaction_ss([q for q, _ in q_lqd], nrows, ncols)
    return -ctx.mpf(n) / 2 * ctx.log(s_err / n), ctx.fsum(lqd for _, lqd in q_lqd)


def boxcox_reference(y, nrows, ncols, g):
    """The 40-digit (det_term, jacobian_term, K) of Box-Cox at the float
    exponent g under the fixed model, from the float y."""
    n = nrows * ncols
    log_y = [ctx.log(ctx.mpf(float(v))) for v in y]
    z = log_y if g == 0 else [ctx.expm1(g * v) / g for v in log_y]
    s_err = interaction_ss(z, nrows, ncols)
    scale = max(abs(v) for v in z) / ctx.sqrt(s_err / n)
    return -ctx.mpf(n) / 2 * ctx.log(s_err / n), (g - 1) * ctx.fsum(log_y), scale


def response(kind, nrows, ncols, seed):
    """Simulated data; "tied" is the gaussian data rounded to integers."""
    effects = "cauchy" if kind == "cauchy" else "gaussian"
    y = simulate(SimConfig(nrows=nrows, ncols=ncols, effect_dist=effects, seed=seed)).y
    return np.round(y) if kind == "tied" else y


def relative_errors(kind, nrows, ncols, seed, target):
    """Each term's distance from the reference over its bound, or None for
    a response the package refuses to fit."""
    y = response(kind, nrows, ncols, seed)
    design = DesignSpec(nrows, ncols)  # the fixed model
    try:
        got = reduced_profile_loglik(y, TARGETS[target][0], design)
    except DegenerateFitError:
        return None
    det, jac = reference(y, nrows, ncols, target)
    bound = design.n * EPS * max(1, abs(det) + abs(jac))
    return (float(abs(got.det_term - det) / bound),
            float(abs(got.jacobian_term - jac) / bound))


# On a 2x2 grid, tie-free data whose diagonal holds the two outer or the
# two inner percentiles have no interaction under a symmetric target: seed
# 1 gives such data, which the package refuses, and seed 3 does not.
@pytest.mark.parametrize("target", list(TARGETS))
@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("kind", ["gaussian", "cauchy", "tied"])
@pytest.mark.parametrize("nrows, ncols", [(2, 2), (2, 3), (3, 3), (5, 4), (10, 8)])
def test_fixed_model_terms_match_reference(nrows, ncols, kind, seed, target):
    errors = relative_errors(kind, nrows, ncols, seed, target)
    if errors is None:
        pytest.skip("the package refuses this response as degenerate")
    assert max(errors) <= 1.0, errors


def boxcox_relative_errors(nrows, ncols, kind, seed, g):
    """Box-Cox's det and jacobian terms' distances from the reference over
    their bound, or None for a response the package refuses to fit."""
    y = simulate(SimConfig(nrows=nrows, ncols=ncols, effect_dist=kind, intercept=20.0,
                           seed=seed)).y
    design = DesignSpec(nrows, ncols)  # the fixed model
    try:
        got = family_evaluator("boxcox", y, design)(g)
    except DegenerateFitError:
        return None
    det, jac, scale = boxcox_reference(y, nrows, ncols, g)
    bound = design.n * EPS * max(1, abs(det) + abs(jac)) * scale
    return float(abs(got.det_term - det) / bound), float(abs(got.jacobian_term - jac) / bound)


# The subnormal exponents +-5e-324 sit at the seam where the package's
# power takes log y itself; the reference's expm1(g log y)/g is computed
# at 40 digits.
@pytest.mark.parametrize("g", [-1.0, -0.05, -5e-324, 0.0, 5e-324, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("kind", ["gaussian", "cauchy"])
@pytest.mark.parametrize("nrows, ncols", [(2, 2), (2, 3), (3, 3), (5, 4), (10, 8)])
def test_boxcox_fixed_model_terms_match_reference(nrows, ncols, kind, seed, g):
    errors = boxcox_relative_errors(nrows, ncols, kind, seed, g)
    if errors is None:
        pytest.skip("the package refuses this response as degenerate")
    assert max(errors) <= 1.0, errors


def test_reference_matches_closed_forms():
    # At nu = 2 the t quantile is (2p - 1)/sqrt(2 p (1 - p)).
    for p in (Fraction(1, 160), Fraction(3, 8), Fraction(1, 2), Fraction(7, 8)):
        x, _ = _q_lqd("t=0.5", p)
        pm = ctx.mpf(p.numerator) / p.denominator
        assert abs(x - (2 * pm - 1) / ctx.sqrt(2 * pm * (1 - pm))) < ctx.mpf(10) ** -35
    # Midranks of a sample with a tie run.
    assert exact_percentiles(np.array([3.0, 1.0, 3.0, 2.0])) == [
        Fraction(6, 8), Fraction(1, 8), Fraction(6, 8), Fraction(3, 8)]
