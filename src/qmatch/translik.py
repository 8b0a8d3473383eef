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

Each profiled family, by its ``--family`` name (``t``, ``alpha``,
``boxcox``), has one table row in ``_FAMILIES`` and one evaluator,
``family_evaluator``: the function from the family's parameter to the
reduced value of its member there.  A profile sweeps it over the family's
grid, and every comparator ``qmatch profile`` reports is one of its values
at a fixed member (the Gaussian is t at inv_nu = 0, the logistic is
alpha-beta at alpha = 0, the identity is Box-Cox at g = 1).  So a
comparator equals the curve's row at that point bit for bit.
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
    _is_real,
    _z_and_jacobian,
    power_limb,
)

# Each profiled family, by its ``--family`` name: the name its warnings
# give, the swept parameter, its default grid and its range.
_FAMILIES = {"t": ("student_t", "inv_nu", np.arange(51) * 0.02, *StudentT.bounds["inv_nu"]),
             "alpha": ("alpha_beta_diagonal", "alpha", np.arange(-100, 101) * 0.01,
                       *AlphaBeta.bounds["alpha"]),
             "boxcox": ("boxcox", "g", np.arange(-20, 21) * 0.05, -math.inf, math.inf)}


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
    lr: float                       # gaussian value minus uniform value


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
    z, jacobian = _z_and_jacobian(dist, pc.p_sorted)
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
    """Diagnostics from the already evaluated gaussian and uniform sides.

    ``lr`` is the difference of the two values, the float ``loglik_ratio``
    and ``compare`` report; it equals det_term + correction_term up to
    rounding, the uniform jacobian being 0.
    """
    return GaussianUniformDiagnostics(
        det_term=gauss.det_term - unif.det_term,
        det_term_linear=-0.5 * math.log(12.0) * n,
        correction_term=gauss.jacobian_term,
        correction_linear=n * Gaussian().entropy(),
        lr=gauss.value - unif.value,
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
    """Evaluate every grid point, then refine an interior argmax if asked.

    A grid point whose fit fails, or whose value is not finite, is a failed
    point: NaN in the curve and a warning naming it.  ``grid`` is a float
    array checked by ``family_grid``.
    """
    values = np.full(grid.size, np.nan)
    dets = np.full(grid.size, np.nan)
    jacs = np.full(grid.size, np.nan)
    warnings = []
    for i, param in enumerate(grid):
        try:
            r = evaluate(float(param))
            if not math.isfinite(r.value):
                raise NumericError(f"value is {r.value}")
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
            # _golden_max moves off the grid argmax only to a higher value.
            argmax_param, argmax_value = _golden_max(
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
    return ProfileCurve(
        grid=grid,
        values=values,
        det_terms=dets,
        jacobian_terms=jacs,
        argmax_param=argmax_param,
        argmax_value=argmax_value,
        warnings=tuple(warnings),
    )


def family_grid(family, grid=None):
    """The sweep grid of ``family``, a ``--family`` name (its default grid
    when ``grid`` is None), as a float array, checked to hold real numbers
    (bools excluded), to be one-dimensional, nonempty, finite and to lie in
    the family's range, before any fit."""
    _, field, default, lo, hi = _FAMILIES[family]
    points = default if grid is None else grid
    try:
        grid = np.asarray(points)
    except ValueError:  # a ragged nesting of sequences
        raise DomainError("parameter grid must be one-dimensional") from None
    if grid.ndim != 1:
        raise DomainError("parameter grid must be one-dimensional")
    # numpy reads a bool among numbers as 0 or 1, so a listed grid's points
    # are checked one by one.
    if grid.dtype.kind not in "iuf" or grid is not points and not all(map(_is_real, points)):
        raise DomainError(f"{field} grid must lie in [{lo:g}, {hi:g}]")
    if grid.size == 0:
        raise DomainError("parameter grid must be nonempty")
    if not np.all(np.isfinite(grid)):
        raise DomainError(f"{field} grid points must be finite")
    if grid.min() < lo or grid.max() > hi:
        raise DomainError(f"{field} grid must lie in [{lo:g}, {hi:g}]")
    return np.asarray(grid, dtype=float)


def family_evaluator(family, data, design: DesignSpec):
    """The function x -> ``ReducedProfileLoglik`` of the member at x of
    ``family``, a ``--family`` name: t at inv_nu = x and alpha-beta at
    alpha = beta = x on the ranking of ``data``, and Box-Cox at exponent x
    on the raw response ``data`` (see ``_boxcox_evaluator``).  Every swept
    point and every comparator ``qmatch profile`` reports is one of its
    values."""
    if family == "boxcox":
        return _boxcox_evaluator(data, design)
    pc = percentiles(data)
    if family == "t":
        return lambda inv_nu: _reduced(pc, StudentT(inv_nu), design)
    return lambda a: _reduced(pc, AlphaBeta(a, a), design)


def _profile(family, data, design, grid, refine) -> ProfileCurve:
    """``family``'s evaluator swept over its checked grid; the grid is
    checked before the data are read."""
    grid = family_grid(family, grid)
    return _sweep(_FAMILIES[family][0], grid, family_evaluator(family, data, design), refine)


def profile_student_t(y, design: DesignSpec, grid=None, refine=False) -> ProfileCurve:
    """Reduced profile over the t family, swept in inv_nu = 1/nu."""
    return _profile("t", y, design, grid, refine)


def profile_alpha(y, design: DesignSpec, grid=None, refine=False) -> ProfileCurve:
    """Reduced profile over the alpha-beta family along the diagonal alpha = beta."""
    return _profile("alpha", y, design, grid, refine)


def _boxcox_evaluator(y, design: DesignSpec):
    """Box-Cox's reduced profile value as a function of the exponent g,
    on the raw (positive) response, for any real g.

    For exponent g the response is transformed to (y^g - 1)/g (log y at
    g = 0), the model is fitted, and the profile value is
    -1/2 log det Sigma_hat + (g - 1) sum log y.  This comparator operates
    on the data values themselves, not on ranks.  At g = 1 the transform
    is affine, so that value is the identity fit's.

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
    log_y = np.log(y)
    lo, hi = float(log_y.min()), float(log_y.max())
    slog = float(np.sum(log_y))
    n = log_y.size
    shifted = {c: log_y - c for c in (lo, hi)}  # power_limb never writes them

    def evaluate(g):
        c = hi if g > 0.0 else lo
        log_det = fit(power_limb(g, shifted[c]), design).log_det_sigma_hat + 2.0 * n * g * c
        return _score("boxcox", log_det, (g - 1.0) * slog)

    return evaluate


def boxcox_profile(y, design: DesignSpec, grid=None, refine=False) -> ProfileCurve:
    """Power-transformation profile: ``_boxcox_evaluator`` swept over g."""
    return _profile("boxcox", y, design, grid, refine)


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
        tc = dist.quantile(pc.p_sorted)  # a fresh array, centered in place
        tc -= tc.mean()
        ss_t = float(tc @ tc)
        if ss_t == 0.0:
            raise DomainError(f"transform {dist.label()} has zero variance")
        cors[j] = float(yc @ tc) / math.sqrt(ss_y * ss_t)
    return CorrelationReport(labels=tuple(d.label() for d in dists), correlations=cors)
