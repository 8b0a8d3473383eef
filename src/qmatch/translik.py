"""Profile log likelihoods of quantile-matching transformations.

For a target G with quantile function Q, the transformed response is
z_i = Q(p_i) with p_i the empirical percentile of y_i.  Up to terms common
to every target (the percentile-function derivative and the Gaussian
constants), the profiled log likelihood of the transformation is

    value = det_term + jacobian_term
    det_term      = -1/2 log det Sigma_hat   (from the fitted model)
    jacobian_term = sum_i log Q'(p_i)        (change of variables)

This "reduced" form is the quantity every comparison in the package uses;
differences of it between two targets are full log-likelihood ratios
because the dropped terms cancel.  Except for the Box-Cox comparator, which
transforms the data values themselves, all statistics depend on y only
through its rank vector, so any strictly increasing relabeling of the data
leaves them bit-for-bit unchanged.

Each rank-based function takes the raw response or its ranking, the
``PercentileVector`` that ``percentiles(y)`` returns, so a caller that
evaluates several targets on one response ranks it once.  Targets are
evaluated on the sorted percentiles, and the jacobian term and the
correlations are summed in sort order, so they are exactly invariant
under any reordering of y; only the model fit sees z in data order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, DomainError, NumericError
from .linmodel import DesignSpec, fit
from .percentile import PercentileVector, percentiles
from .targetdist import (
    AlphaBeta,
    Gaussian,
    StudentT,
    TargetDistribution,
    Uniform,
    power_limb,
)

DEFAULT_T_GRID = np.arange(51) * 0.02          # inv_nu in [0, 1]
DEFAULT_ALPHA_GRID = np.arange(-100, 101) * 0.01
DEFAULT_BOXCOX_GRID = np.arange(-20, 21) * 0.05


@dataclass(frozen=True)
class ReducedProfileLoglik:
    label: str
    det_term: float
    jacobian_term: float
    value: float


@dataclass(frozen=True, eq=False)
class ProfileCurve:
    grid: np.ndarray
    values: np.ndarray          # NaN marks a failed grid point
    det_terms: np.ndarray
    jacobian_terms: np.ndarray
    argmax_param: float
    argmax_value: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class GaussianUniformDiagnostics:
    """How well the first-order constants track the exact two terms of the
    Gaussian-to-uniform log-likelihood ratio."""

    det_term: float                 # -1/2 log det(Sigma_gauss Sigma_unif^{-1})
    det_term_linear: float          # -1/2 log(12) n
    correction_term: float          # sum log Q'_gauss(p_i), exact
    correction_linear: float        # n times the Gaussian entropy
    lr: float                       # det_term + correction_term


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    labels: tuple[str, ...]
    correlations: np.ndarray


def _score(label, log_det, jacobian) -> ReducedProfileLoglik:
    """The reduced profile value of a transformed response whose fit has
    log det Sigma_hat ``log_det`` and whose change of variables contributes
    ``jacobian``."""
    det_term = -0.5 * log_det
    return ReducedProfileLoglik(
        label=label,
        det_term=det_term,
        jacobian_term=jacobian,
        value=det_term + jacobian,
    )


def _reduced(pc: PercentileVector, dist: TargetDistribution, design: DesignSpec):
    # Q and log Q' act elementwise, so z evaluated in sort order and put
    # back in data order has the bits of z evaluated in data order.  The
    # jacobian is summed in sort order, which depends on the sorted data
    # alone.  Neither log Q' nor the sorted z is held through the fit.
    z, lqd = dist.transform(pc.p_sorted)
    jacobian = float(np.sum(lqd))
    del lqd
    z = pc.unsort(z)
    return _score(dist.label(), fit(z, design).log_det_sigma_hat, jacobian)


def reduced_profile_loglik(y, dist: TargetDistribution, design: DesignSpec) -> ReducedProfileLoglik:
    return _reduced(percentiles(y), dist, design)


def loglik_ratio(y, dist_a: TargetDistribution, dist_b: TargetDistribution,
                 design: DesignSpec) -> float:
    """Log-likelihood ratio of target a over target b (positive favors a)."""
    pc = percentiles(y)
    return _reduced(pc, dist_a, design).value - _reduced(pc, dist_b, design).value


def lr_diagnostics_gaussian_uniform(y, design: DesignSpec) -> GaussianUniformDiagnostics:
    pc = percentiles(y)
    return gaussian_uniform_diagnostics(
        _reduced(pc, Gaussian(), design), _reduced(pc, Uniform(), design), pc.n
    )


def gaussian_uniform_diagnostics(gauss: ReducedProfileLoglik, unif: ReducedProfileLoglik,
                                 n: int) -> GaussianUniformDiagnostics:
    """Diagnostics from the already evaluated gaussian and uniform sides."""
    det = gauss.det_term - unif.det_term
    return GaussianUniformDiagnostics(
        det_term=det,
        det_term_linear=-0.5 * math.log(12.0) * n,
        correction_term=gauss.jacobian_term,
        correction_linear=n * Gaussian().entropy(),
        lr=det + gauss.jacobian_term,
    )


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section refinement stops when its bracket is narrower than this.
_REFINE_XTOL = 1e-3


def _golden_max(f, lo, mid, f_mid, hi):
    """Golden-section maximization given a bracketing triple lo < mid < hi
    and the already evaluated f_mid = f(mid).

    The interior point that survives a step is the new bracket's other
    golden point up to rounding, so its value is kept: each step after the
    first evaluates f once.
    """
    x1, x2 = lo, hi
    best_x, best_f = mid, f_mid
    a = b = None                 # interior points whose values are known
    while (x2 - x1) > _REFINE_XTOL:
        d = _GOLDEN * (x2 - x1)
        if a is None:
            a = x2 - d
            fa = f(a)
        if b is None:
            b = x1 + d
            fb = f(b)
        if fa >= fb:
            if fa > best_f:
                best_x, best_f = a, fa
            x2, b, fb, a = b, a, fa, None
        else:
            if fb > best_f:
                best_x, best_f = b, fb
            x1, a, fa, b = a, b, fb, None
    return best_x, best_f


def _sweep(family, grid, evaluate, refine):
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("parameter grid must be nonempty")
    values = np.full(grid.size, np.nan)
    dets = np.full(grid.size, np.nan)
    jacs = np.full(grid.size, np.nan)
    warnings = []
    for i, param in enumerate(grid):
        try:
            r = evaluate(float(param))
        except (DegenerateFitError, NumericError) as exc:
            warnings.append(f"{family} grid point {param:g} failed: {exc}")
            continue
        values[i], dets[i], jacs[i] = r.value, r.det_term, r.jacobian_term
    ok = np.isfinite(values)
    if ok.sum() < 0.8 * grid.size:
        raise NumericError(
            f"{family} profile failed at {grid.size - ok.sum()} of {grid.size} grid points"
        )
    i_best = int(np.nanargmax(values))
    argmax_param = float(grid[i_best])
    argmax_value = float(values[i_best])
    if refine and 0 < i_best < grid.size - 1 and ok[i_best - 1] and ok[i_best + 1]:
        tried = []

        def value_at(t):
            tried.append(t)
            return evaluate(t).value

        try:
            x, v = _golden_max(
                value_at,
                float(grid[i_best - 1]), argmax_param, argmax_value, float(grid[i_best + 1]),
            )
        except (DegenerateFitError, NumericError) as exc:
            # A failed refinement leaves the grid argmax standing, as a
            # failed grid point leaves the rest of the grid.
            warnings.append(
                f"{family} refinement point {tried[-1]:g} failed: {exc}; "
                f"kept grid argmax {argmax_param:g}"
            )
        else:
            if v > argmax_value:
                argmax_param, argmax_value = float(x), float(v)
    return ProfileCurve(
        grid=grid,
        values=values,
        det_terms=dets,
        jacobian_terms=jacs,
        argmax_param=argmax_param,
        argmax_value=argmax_value,
        warnings=tuple(warnings),
    )


def _family_grid(grid, default, field, bounds):
    """The sweep grid (``default`` when None), checked against the
    family's range for ``field``."""
    grid = np.asarray(default if grid is None else grid, dtype=float)
    lo, hi = bounds[field]
    if grid.size and (grid.min() < lo or grid.max() > hi):
        raise DomainError(f"{field} grid must lie in [{lo:g}, {hi:g}]")
    return grid


def profile_student_t(y, design: DesignSpec, grid=None, refine=False) -> ProfileCurve:
    """Reduced profile over the t family, swept in inv_nu = 1/nu."""
    grid = _family_grid(grid, DEFAULT_T_GRID, "inv_nu", StudentT.bounds)
    pc = percentiles(y)
    return _sweep(
        "student_t", grid,
        lambda inv_nu: _reduced(pc, StudentT(inv_nu), design),
        refine,
    )


def profile_alpha(y, design: DesignSpec, grid=None, refine=False) -> ProfileCurve:
    """Reduced profile over the alpha-beta family along the diagonal alpha = beta."""
    grid = _family_grid(grid, DEFAULT_ALPHA_GRID, "alpha", AlphaBeta.bounds)
    pc = percentiles(y)
    return _sweep(
        "alpha_beta_diagonal", grid,
        lambda a: _reduced(pc, AlphaBeta(a, a), design),
        refine,
    )


def boxcox_profile(y, design: DesignSpec, grid=None, refine=False) -> ProfileCurve:
    """Power-transformation profile on the raw (positive) response, for any
    real exponent g.

    For exponent g the response is transformed to (y^g - 1)/g (log y at
    g = 0), the model is fitted, and the profile value is
    -1/2 log det Sigma_hat + (g - 1) sum log y.  This comparator operates
    on the data values themselves, not on ranks.

    The fit is computed in the log domain.  With c = max log y for g > 0
    and c = min log y otherwise, (y^g - 1)/g equals e^(gc) times
    (e^(g (log y - c)) - 1)/g plus a constant.  Both models are
    equivariant under that affine map, so the shifted response is fitted
    and 2 n g c is added back to log det Sigma_hat.  As g (log y - c) <= 0,
    no power overflows at large |g|, and expm1 keeps g near 0 accurate.
    """
    y = np.asarray(y, dtype=float)
    if np.any(~np.isfinite(y)) or np.any(y <= 0.0):
        raise DomainError("power-transformation profile requires strictly positive data")
    if grid is None:
        grid = DEFAULT_BOXCOX_GRID
    log_y = np.log(y)
    lo, hi = float(log_y.min()), float(log_y.max())
    slog = float(np.sum(log_y))
    n = log_y.size

    def evaluate(g):
        c = hi if g > 0.0 else lo
        log_det = fit(power_limb(g, log_y - c), design).log_det_sigma_hat + 2.0 * n * g * c
        return _score(f"boxcox(g={g:g})", log_det, (g - 1.0) * slog)

    return _sweep("boxcox", grid, evaluate, refine)


def correlation_report(y, dists) -> CorrelationReport:
    """Pearson correlation of the raw response with each quantile-matched
    version of itself."""
    dists = list(dists)
    if not dists:
        raise DomainError("at least one target distribution is required")
    y = np.asarray(y, dtype=float)
    if y.size < 3:
        raise DomainError("correlation report needs n >= 3")
    pc = percentiles(y)
    # Every sum runs in sort order, so the report is exactly invariant
    # under any reordering of y.  The correlation does not depend on the
    # scale of y either.  Scaling y by an exact power of two, to put
    # max|y| in [1/2, 1), keeps its sums of squares and products clear of
    # overflow and underflow.
    yc = y[pc.order]
    np.ldexp(yc, -math.frexp(max(-yc[0], yc[-1]))[1], out=yc)
    yc -= yc.mean()
    ss_y = float(yc @ yc)
    if ss_y == 0.0:
        raise DomainError("response has zero variance")
    cors = np.empty(len(dists))
    for j, dist in enumerate(dists):
        tc = np.asarray(dist.quantile(pc.p_sorted))
        if np.may_share_memory(tc, pc.p_sorted):  # centered in place below
            tc = tc.copy()
        tc -= tc.mean()
        ss_t = float(tc @ tc)
        if ss_t == 0.0:
            raise DomainError(f"transform {dist.label()} has zero variance")
        cors[j] = float(yc @ tc) / math.sqrt(ss_y * ss_t)
    return CorrelationReport(labels=tuple(d.label() for d in dists), correlations=cors)
