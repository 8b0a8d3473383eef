"""Independent routes to the percentiles, targets and model fits, used only
by the tests.

The package computes what the likelihood needs and nothing more: Q and
log Q' from a target, log det Sigma_hat from a fit.  These routines rebuild
the rest from first principles so the tests can check it: percentiles from
scipy's midranks, quantile matching, the closed-form CDFs, log Q' by a
second special-function pass, the ``Affine`` shift/scale target, the
midpoint-rule entropy quadrature, a derivative-free optimizer for the
variance-components fit, the explicit n x n covariance, the fitted
quadratic form, and a data file written one csv-module row at a time.

Older routes are kept verbatim as references: the model fits in
numpy-array arithmetic (``numpy_fit``), which the package's float-tuple
Newton solver and in-place decomposition must reproduce exactly, the
golden-section search that evaluated both interior points of every
bracket (``two_point_golden_max``), the percentiles from twice the midrank
(``twice_midrank_percentiles``), the percentiles, the reduced value and
the correlations in data order (``data_order_percentiles``,
``data_order_reduced``, ``data_order_correlations``), the data-file scan
that located every line end (``line_end_scan_reads_as_csv``), and the expressions that built
each full-length temporary on its own: the run-length percentiles for
every sample (``run_length_percentiles``), the targets' Q and log Q'
(``expression_transform``, ``expression_power_limb``,
``expression_student_t_log_density``) and the Box-Cox profile that shifted
log y for every fit (``per_fit_shift_boxcox_profile``).

Importing this module gives every target class a ``cdf`` method for the
round-trip checks: the closed form where one exists, NotImplementedError
otherwise.
"""

import csv
import functools
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy import special as sc
from scipy.stats import rankdata

from qmatch import (
    AlphaBeta,
    DegenerateFitError,
    DesignSpec,
    DomainError,
    Gaussian,
    Logistic,
    ModelFit,
    ModelKind,
    NumericError,
    StudentT,
    TargetDistribution,
    Uniform,
    fit,
    percentiles,
)
from qmatch.cli import _COMPRESSED_SUFFIXES, _SEPARATORS
from qmatch.linmodel import (
    _DEGENERATE_REL,
    _NEWTON_MAX_ITER,
    _NEWTON_TOL,
    _SAFE_SCALE,
    ProjectionDecomposition,
    _grid,
    _objective,
    _prepare,
    _random_fit,
    _response,
    decompose,
)
from qmatch.translik import _GOLDEN, _REFINE_XTOL, ReducedProfileLoglik, _score, _sweep
from qmatch.targetdist import LOG_2PI, _quantile_method


def _cdf_method(method):
    """Scalar/array plumbing for a CDF (and ``log_quantile_derivative``): the
    method gets its argument as a float array, and a scalar argument gets a
    float back."""

    @functools.wraps(method)
    def wrapper(self, x):
        arr = np.asarray(x, dtype=float)
        out = method(self, arr)
        return float(out) if arr.ndim == 0 else out

    return wrapper


def _no_cdf(self, x):
    raise NotImplementedError(f"{self.kind} has no implemented CDF")


@_cdf_method
def _gaussian_cdf(self, x):
    return sc.ndtr(x)


@_cdf_method
def _uniform_cdf(self, x):
    return np.clip(x, 0.0, 1.0)


@_cdf_method
def _logistic_cdf(self, x):
    return sc.expit(x)


@_cdf_method
def _student_t_cdf(self, x):
    if self.inv_nu == 0.0:
        return sc.ndtr(x)
    if self.inv_nu == 1.0:
        return 0.5 + np.arctan(x) / math.pi
    return sc.stdtr(1.0 / self.inv_nu, x)


TargetDistribution.cdf = _no_cdf
Gaussian.cdf = _gaussian_cdf
Uniform.cdf = _uniform_cdf
Logistic.cdf = _logistic_cdf
StudentT.cdf = _student_t_cdf


@dataclass(frozen=True)
class Affine(TargetDistribution):
    """The law of shift + scale * X for X distributed as ``base``.

    scale may be negative (the law of a decreasing rescaling is still a
    distribution); scale = 0 is rejected.  Used to verify that fitted log
    likelihoods do not depend on the affine representative of a target.
    """

    base: TargetDistribution
    shift: float = 0.0
    scale: float = 1.0

    kind = "affine"

    def __post_init__(self):
        if not (np.isfinite(self.shift) and np.isfinite(self.scale)) or self.scale == 0.0:
            raise DomainError("affine scale must be finite and nonzero")

    @_quantile_method
    def quantile(self, p):
        q = self.base.quantile(p if self.scale > 0.0 else 1.0 - p)
        return self.shift + self.scale * np.asarray(q)

    def transform(self, p):
        p = np.asarray(p, dtype=float)
        z, lqd = self.base.transform(p if self.scale > 0.0 else 1.0 - p)
        return self.shift + self.scale * z, math.log(abs(self.scale)) + lqd

    @_cdf_method
    def cdf(self, x):
        out = np.asarray(self.base.cdf((x - self.shift) / self.scale))
        return 1.0 - out if self.scale < 0.0 else out

    def entropy(self):
        h = self.base.entropy()
        if h is None:
            return None
        return h + math.log(abs(self.scale))

    def label(self):
        return f"affine({self.shift:g}+{self.scale:g}*{self.base.label()})"


@_cdf_method
def log_quantile_derivative(dist: TargetDistribution, p):
    """log Q'(p) from p alone, by the closed forms of each target: the
    normal and t forms evaluate the target's quantile function again, the
    logistic and alpha-beta forms take their own logarithms of p."""
    if p.size and not (0.0 < p.min() and p.max() < 1.0):
        raise DomainError("probabilities must lie strictly inside (0, 1)")
    if isinstance(dist, Gaussian) or (isinstance(dist, StudentT) and dist.inv_nu == 0.0):
        q = sc.ndtri(p)
        return 0.5 * math.log(2.0 * math.pi) + 0.5 * q * q
    if isinstance(dist, Uniform):
        return np.zeros_like(p)
    if isinstance(dist, Logistic) or (isinstance(dist, AlphaBeta)
                                      and dist.alpha == 0.0 and dist.beta == 0.0):
        return -(np.log(p) + np.log1p(-p))
    if isinstance(dist, StudentT):
        return -expression_student_t_log_density(dist.inv_nu, dist.quantile(p))
    if isinstance(dist, AlphaBeta):
        return np.logaddexp((dist.alpha - 1.0) * np.log(p), (dist.beta - 1.0) * np.log1p(-p))
    raise NotImplementedError(f"no log Q' formula for {dist.kind}")


def data_order_percentiles(y) -> np.ndarray:
    """The package's percentiles aligned with the input vector (``y`` may be
    a ``PercentileVector``)."""
    pc = percentiles(y)
    return pc.unsort(pc.p_sorted)


def quantile_match(y, dist: TargetDistribution) -> np.ndarray:
    """Map each observation to the target quantile at its percentile."""
    return np.asarray(dist.quantile(data_order_percentiles(y)))


@dataclass(frozen=True)
class EntropyQuadrature:
    n: int
    quadrature: float
    exact: float | None
    gap: float | None


def entropy_quadrature(dist: TargetDistribution, n: int) -> EntropyQuadrature:
    """Midpoint-rule approximation to the entropy of the target.

    -(1/n) sum_i log g(Q((2i-1)/2n)) = (1/n) sum_i log Q'((2i-1)/2n), the
    value the per-observation jacobian term approaches as n grows.
    """
    if n < 10:
        raise DomainError("entropy quadrature needs n >= 10")
    p = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    quadrature = float(np.mean(dist.transform(p)[1]))
    exact = dist.entropy()
    gap = None if exact is None else quadrature - exact
    return EntropyQuadrature(n=n, quadrature=quadrature, exact=exact, gap=gap)


def rankdata_percentiles(y) -> np.ndarray:
    """(F(y-) + F(y+))/2 at each observation, from scipy's average ranks."""
    y = np.asarray(y, dtype=float)
    return (2.0 * rankdata(y, method="average") - 1.0) / (2.0 * y.size)


def twice_midrank_percentiles(y) -> np.ndarray:
    """The package's earlier midrank percentiles, kept verbatim as a
    bit-for-bit reference: twice each tie run's 1-based midrank, 2a + k + 1,
    scattered back through the sort order, then (twice_r - 1) / (2n)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    order = np.argsort(y)
    ys = y[order]
    starts = np.flatnonzero(np.concatenate(([True], ys[1:] != ys[:-1])))
    lengths = np.diff(np.append(starts, n))
    twice_r = np.empty(n)
    twice_r[order] = np.repeat(2.0 * starts + lengths + 1.0, lengths)
    return (twice_r - 1.0) / (2.0 * n)


def fit_random_numeric(z, design: DesignSpec) -> ModelFit:
    """Same model as fit_random_balanced via a derivative-free optimizer.

    Kept as an independent route for cross-checking the active-set solver.
    """
    dec, k = _prepare(z, design)
    total = dec.s_row + dec.s_col + dec.s_err
    n = design.n
    scale = total / n
    sdec = ProjectionDecomposition(
        s_row=dec.s_row / scale, s_col=dec.s_col / scale, s_err=dec.s_err / scale,
        d_row=dec.d_row, d_col=dec.d_col, d_err=dec.d_err,
    )
    r, c = design.nrows, design.ncols

    def neg2ll(x):
        s2, s2r, s2c = x
        lam = np.array([s2 + c * s2r, s2 + r * s2c, s2])
        return _objective(lam, sdec)

    x0 = np.array([
        sdec.s_err / sdec.d_err,
        max(sdec.s_row / sdec.d_row - sdec.s_err / sdec.d_err, 0.0) / c,
        max(sdec.s_col / sdec.d_col - sdec.s_err / sdec.d_err, 0.0) / r,
    ])
    res = optimize.minimize(
        neg2ll, x0, method="Nelder-Mead",
        bounds=[(1e-14, None), (0.0, None), (0.0, None)],
        options={"xatol": 1e-13, "fatol": 1e-13, "maxfev": 40000},
    )
    if not res.success:
        raise NumericError("variance-component optimizer did not converge")
    s2, s2r, s2c = res.x
    lam = np.array([s2 + c * s2r, s2 + r * s2c, s2]) * scale
    return _random_fit(design, dec, k, lam)


def quadratic_form(z, fit: ModelFit, design: DesignSpec) -> float:
    """(z - mu_hat)' Sigma^{-1} (z - mu_hat) for the fit's parameters.

    mu_hat is the model's ML mean: row mean plus column mean minus grand
    mean for the fixed model, the grand mean for the random model.  The
    form is evaluated in the eigenbasis: each contrast subspace contributes
    its squared projection divided by its eigenvalue.  At an interior MLE
    this equals n.
    """
    g = _grid(z, design)
    zbar = g.mean()
    if design.model == ModelKind.FIXED_EFFECTS:
        cols, rows = np.divmod(np.arange(design.n), design.nrows)
        mu_hat = (g.mean(axis=1)[:, None] + g.mean(axis=0)[None, :] - zbar)[rows, cols]
    else:
        mu_hat = np.full(design.n, zbar)
    resid = np.asarray(z, dtype=float) - mu_hat
    dec = decompose(resid, design)
    if design.model == ModelKind.FIXED_EFFECTS:
        lam_r = lam_c = lam_e = fit.sigma2
    else:
        lam_e = fit.sigma2
        lam_r = fit.sigma2 + design.ncols * fit.sigma2_row
        lam_c = fit.sigma2 + design.nrows * fit.sigma2_col
    lam0 = lam_r + lam_c - lam_e
    if min(lam_r, lam_c, lam_e, lam0) <= 0.0:
        raise DomainError("quadratic form needs strictly positive eigenvalues")
    mean_part = design.n * float(_grid(resid, design).mean()) ** 2 / lam0
    return float(
        mean_part + dec.s_row / lam_r + dec.s_col / lam_c + dec.s_err / lam_e
    )


def dense_covariance(design: DesignSpec, sigma2, sigma2_row, sigma2_col) -> np.ndarray:
    """Assemble the n x n covariance explicitly (test oracle for small n)."""
    cols, rows = np.divmod(np.arange(design.n), design.nrows)
    same_row = rows[:, None] == rows[None, :]
    same_col = cols[:, None] == cols[None, :]
    return (
        sigma2 * np.eye(design.n)
        + sigma2_row * same_row
        + sigma2_col * same_col
    )


def write_data_csv_rows(path, y, design: DesignSpec):
    """A data file (index,row,col,y, cells column-major) written row by row
    through the csv module, each y as ``format(y, ".17g")``."""
    cols, rows = np.divmod(np.arange(design.n), design.nrows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "row", "col", "y"])
        writer.writerows(
            [str(k), str(int(rows[k])), str(int(cols[k])), format(float(y[k]), ".17g")]
            for k in range(design.n)
        )


# -- model fits in numpy-array arithmetic -------------------------------------
# The package's decompose, scaled fit and interior Newton solver, as they
# were before the solver moved to Python floats and the decomposition to
# in-place updates.  Only the names of the functions they call differ.


def numpy_decompose(z, design: DesignSpec) -> ProjectionDecomposition:
    """Project the centered data onto row, column and interaction contrasts."""
    g = _grid(z, design)
    zbar = g.mean()
    rm = g.mean(axis=1) - zbar
    cm = g.mean(axis=0) - zbar
    resid = g - zbar - rm[:, None] - cm[None, :]
    return ProjectionDecomposition(
        s_row=float(design.ncols * np.sum(rm * rm)),
        s_col=float(design.nrows * np.sum(cm * cm)),
        s_err=float(np.sum(resid * resid)),
        d_row=design.nrows - 1,
        d_col=design.ncols - 1,
        d_err=(design.nrows - 1) * (design.ncols - 1),
    )


def numpy_fit_scaled(z, design: DesignSpec, fit_from_dec) -> ModelFit:
    """fit_from_dec(numpy_decompose(z), design) for a response whose
    likelihood is bounded, rescaled by a power of two outside _SAFE_SCALE."""
    z = _response(z, design)
    # A spread within a few ulps of the data magnitude is rounding noise,
    # not variation; fitting it would produce absurd variance estimates.
    scale = float(np.max(np.abs(z)))
    if float(np.ptp(z)) <= 16.0 * np.finfo(float).eps * scale:
        raise DegenerateFitError("response is numerically constant")
    k = 0
    if math.isfinite(scale) and not _SAFE_SCALE[0] <= scale <= _SAFE_SCALE[1]:
        k = math.frexp(scale)[1]
        z = np.ldexp(z, -k)
    dec = numpy_decompose(z, design)
    total = dec.s_row + dec.s_col + dec.s_err
    if total <= 0.0 or dec.s_err <= _DEGENERATE_REL * total:
        raise DegenerateFitError(
            "no interaction variation left after transformation; "
            "the likelihood is unbounded"
        )
    fit = fit_from_dec(dec, design)
    if k == 0:
        return fit

    def variance(v):
        try:
            return None if v is None else math.ldexp(v, 2 * k)
        except OverflowError:  # a variance beyond the float range
            return math.inf

    return ModelFit(
        log_det_sigma_hat=fit.log_det_sigma_hat + 2 * k * design.n * math.log(2.0),
        sigma2=variance(fit.sigma2),
        sigma2_row=variance(fit.sigma2_row),
        sigma2_col=variance(fit.sigma2_col),
    )


def numpy_objective(lam, dec: ProjectionDecomposition):
    lam_r, lam_c, lam_e = lam
    lam0 = lam_r + lam_c - lam_e
    if min(lam_r, lam_c, lam_e, lam0) <= 0.0:
        return math.inf
    return (
        math.log(lam0)
        + dec.d_row * math.log(lam_r) + dec.s_row / lam_r
        + dec.d_col * math.log(lam_c) + dec.s_col / lam_c
        + dec.d_err * math.log(lam_e) + dec.s_err / lam_e
    )


def numpy_gradient(lam, dec: ProjectionDecomposition):
    lam_r, lam_c, lam_e = lam
    lam0 = lam_r + lam_c - lam_e
    return np.array([
        1.0 / lam0 + dec.d_row / lam_r - dec.s_row / lam_r**2,
        1.0 / lam0 + dec.d_col / lam_c - dec.s_col / lam_c**2,
        -1.0 / lam0 + dec.d_err / lam_e - dec.s_err / lam_e**2,
    ])


def numpy_hessian(lam, dec: ProjectionDecomposition):
    lam_r, lam_c, lam_e = lam
    lam0 = lam_r + lam_c - lam_e
    a = 1.0 / lam0**2
    h = np.array([[-a, -a, a], [-a, -a, a], [a, a, -a]])
    h[0, 0] += -dec.d_row / lam_r**2 + 2.0 * dec.s_row / lam_r**3
    h[1, 1] += -dec.d_col / lam_c**2 + 2.0 * dec.s_col / lam_c**3
    h[2, 2] += -dec.d_err / lam_e**2 + 2.0 * dec.s_err / lam_e**3
    return h


def numpy_interior_newton(dec: ProjectionDecomposition):
    """Stationary point of F strictly inside the cone, or None, by damped
    Newton from the separable start, with every iterate a numpy 3-vector."""
    lam_e0 = dec.s_err / dec.d_err
    lam = np.array([
        max(dec.s_row / dec.d_row, lam_e0),
        max(dec.s_col / dec.d_col, lam_e0),
        lam_e0,
    ])
    for _ in range(_NEWTON_MAX_ITER):
        g = numpy_gradient(lam, dec)
        g_inf = np.max(np.abs(g))
        if g_inf < _NEWTON_TOL:
            return lam
        h = numpy_hessian(lam, dec)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            step = -g
        if not np.all(np.isfinite(step)):
            step = -g
        t = 1.0
        f0 = numpy_objective(lam, dec)
        for _ in range(60):
            cand = lam + t * step
            lam0 = cand[0] + cand[1] - cand[2]
            if cand[2] > 0 and cand[0] >= cand[2] and cand[1] >= cand[2] and lam0 > 0:
                if numpy_objective(cand, dec) <= f0 or (
                    g_inf < 1e-6
                    and np.max(np.abs(numpy_gradient(cand, dec))) < g_inf
                ):
                    break
            t *= 0.5
        else:
            return None
        lam = lam + t * step
    g = numpy_gradient(lam, dec)
    return lam if np.max(np.abs(g)) < _NEWTON_TOL else None


def numpy_solve_eigenvalues(dec: ProjectionDecomposition):
    """Minimize F over the cone by enumerating the four active sets."""
    total = dec.s_row + dec.s_col + dec.s_err
    n = dec.d_row + dec.d_col + dec.d_err + 1
    scale = total / n
    sdec = ProjectionDecomposition(
        s_row=dec.s_row / scale, s_col=dec.s_col / scale, s_err=dec.s_err / scale,
        d_row=dec.d_row, d_col=dec.d_col, d_err=dec.d_err,
    )
    r = dec.d_row + 1
    c = dec.d_col + 1

    candidates = []
    # Both variance components at zero: every eigenvalue equal.
    lam = (sdec.s_row + sdec.s_col + sdec.s_err) / n
    candidates.append(np.array([lam, lam, lam]))
    # sigma2_row = 0: lam_R pinned to lam_E.
    lam_c = sdec.s_col / c
    lam_e = (sdec.s_row + sdec.s_err) / (sdec.d_row + sdec.d_err)
    if lam_c >= lam_e > 0.0:
        candidates.append(np.array([lam_e, lam_c, lam_e]))
    # sigma2_col = 0: lam_C pinned to lam_E.
    lam_r = sdec.s_row / r
    lam_e = (sdec.s_col + sdec.s_err) / (sdec.d_col + sdec.d_err)
    if lam_r >= lam_e > 0.0:
        candidates.append(np.array([lam_r, lam_e, lam_e]))
    # Interior stationary point.
    interior = numpy_interior_newton(sdec)
    if interior is not None:
        candidates.append(interior)

    best = min(candidates, key=lambda lam: numpy_objective(lam, sdec))
    return best * scale


def _numpy_fixed_fit_from_dec(dec, design: DesignSpec) -> ModelFit:
    sigma2 = dec.s_err / design.n
    return ModelFit(design.n * math.log(sigma2), sigma2, None, None)


def _numpy_random_fit_from_dec(dec, design: DesignSpec) -> ModelFit:
    return _random_fit(design, dec, 0, numpy_solve_eigenvalues(dec))


def numpy_fit(z, design: DesignSpec) -> ModelFit:
    """The design's model fitted in numpy-array arithmetic."""
    if design.model == ModelKind.FIXED_EFFECTS:
        return numpy_fit_scaled(z, design, _numpy_fixed_fit_from_dec)
    return numpy_fit_scaled(z, design, _numpy_random_fit_from_dec)


def two_point_golden_max(f, lo, mid, f_mid, hi):
    """Golden-section maximization given a bracketing triple lo < mid < hi
    and the already evaluated f_mid = f(mid), evaluating both interior
    points of every bracket."""
    x1, x2 = lo, hi
    best_x, best_f = mid, f_mid
    while (x2 - x1) > _REFINE_XTOL:
        d = _GOLDEN * (x2 - x1)
        a, b = x2 - d, x1 + d
        fa, fb = f(a), f(b)
        if fa >= fb:
            x2 = b
            if fa > best_f:
                best_x, best_f = a, fa
        else:
            x1 = a
            if fb > best_f:
                best_x, best_f = b, fb
    return best_x, best_f


# -- evaluation in data order --------------------------------------------------
# The package's reduced value and correlation report as they were before
# targets were evaluated on the sorted percentiles.


def data_order_reduced(y, dist: TargetDistribution, design: DesignSpec) -> ReducedProfileLoglik:
    """The reduced profile value with Q and log Q' evaluated, and the
    jacobian summed, in data order."""
    z, lqd = dist.transform(data_order_percentiles(y))
    det_term = -0.5 * fit(z, design).log_det_sigma_hat
    jacobian = float(np.sum(lqd))
    return ReducedProfileLoglik(label=dist.label(), det_term=det_term,
                                jacobian_term=jacobian, value=det_term + jacobian)


def data_order_correlations(y, dists) -> np.ndarray:
    """Correlation of y with each quantile-matched version of itself, every
    sum taken in data order."""
    y = np.asarray(y, dtype=float)
    p = data_order_percentiles(y)
    yc = np.ldexp(y, -math.frexp(max(-y.min(), y.max()))[1])
    yc -= yc.mean()
    ss_y = float(yc @ yc)
    cors = []
    for dist in dists:
        t = np.asarray(dist.quantile(p))
        tc = t - t.mean()
        cors.append(float(yc @ tc) / math.sqrt(ss_y * float(tc @ tc)))
    return np.array(cors)


def line_end_scan_reads_as_csv(path, block_size=1 << 20) -> bool:
    """The package's earlier check of whether numpy reads a data file as
    the csv-module row loop does, which located every line end of each
    block with numpy."""
    name = os.fsdecode(path)
    if name.lower().endswith(_COMPRESSED_SUFFIXES) or "://" in name:
        return False
    limit = csv.field_size_limit()
    with open(path, "rb") as fb:
        short = os.fstat(fb.fileno()).st_size <= limit
        longest = run = 0  # run: the length so far of the line the block ends in
        while block := fb.read(block_size):
            if any(sep in block for sep in _SEPARATORS):
                return False
            if short:
                continue
            if b'"' in block:
                return False
            ends = np.flatnonzero(np.frombuffer(block, np.uint8) == ord("\n"))
            if ends.size:
                longest = max(longest, run + int(ends[0]) + 1, int(np.diff(ends).max(initial=0)))
                run = len(block) - 1 - int(ends[-1])
            else:
                run += len(block)
            if max(longest, run) > limit:
                return False
    return True


# -- one full-length temporary per operation ----------------------------------
# The package's expressions as they were before its in-place chains and its
# tie-free ranking; the package must give the same bits.


def run_length_percentiles(y):
    """(order, p_sorted) with the tie-run construction used for every
    sample, tie-free or not."""
    y = np.asarray(y, dtype=float)
    n = y.size
    order = np.argsort(y)
    ys = y[order]
    starts = np.flatnonzero(np.concatenate(([True], ys[1:] != ys[:-1])))
    ends = np.append(starts[1:], n)
    return order, np.repeat((starts + ends) / (2.0 * n), ends - starts)


def expression_power_limb(a, log_x):
    """(x^a - 1)/a as one expression, with no test for a subnormal a * log x."""
    if a == 0.0:
        return log_x
    return np.expm1(a * log_x) / a


def expression_student_t_log_density(inv_nu, x):
    x = np.asarray(x, dtype=float)
    nu = 1.0 / inv_nu
    return (
        -sc.betaln(0.5, nu / 2.0)
        - 0.5 * math.log(nu)
        - (nu + 1.0) / 2.0 * np.log1p(x * x / nu)
    )


def expression_transform(dist, p):
    """(Q(p), log Q'(p)) for a Gaussian, StudentT or non-logistic AlphaBeta
    target and a float array p.

    Q comes from scipy directly, one special-function call on the whole
    array, not from the target's ``quantile``: ``ndtri`` for the Gaussian
    and for a t whose nu = 1/inv_nu is inf, ``tandg`` in degrees for the
    Cauchy, ``stdtrit`` for every other t.
    """
    gaussian_t = isinstance(dist, StudentT) and (
        dist.inv_nu == 0.0 or math.isinf(1.0 / dist.inv_nu))
    if isinstance(dist, Gaussian) or gaussian_t:
        z = sc.ndtri(p)
        return z, 0.5 * LOG_2PI + 0.5 * z * z
    if isinstance(dist, StudentT):
        if dist.inv_nu == 1.0:
            z = sc.tandg(180.0 * (p - 0.5))
        else:
            z = sc.stdtrit(1.0 / dist.inv_nu, p)
        return z, -expression_student_t_log_density(dist.inv_nu, z)
    if isinstance(dist, AlphaBeta):
        z = (expression_power_limb(dist.alpha, np.log(p))
             - expression_power_limb(dist.beta, np.log(1.0 - p)))
        return z, np.logaddexp((dist.alpha - 1.0) * np.log(p),
                               (dist.beta - 1.0) * np.log1p(-p))
    raise NotImplementedError(f"no expression for {dist.kind}")


def per_fit_shift_boxcox_profile(y, design: DesignSpec, grid, refine=False):
    """The Box-Cox profile with log y - c formed anew for every fit."""
    log_y = np.log(np.asarray(y, dtype=float))
    lo, hi = float(log_y.min()), float(log_y.max())
    slog = float(np.sum(log_y))
    n = log_y.size

    def evaluate(g):
        c = hi if g > 0.0 else lo
        log_det = (fit(expression_power_limb(g, log_y - c), design).log_det_sigma_hat
                   + 2.0 * n * g * c)
        return _score(f"boxcox(g={g:g})", log_det, (g - 1.0) * slog)

    return _sweep("boxcox", grid, evaluate, refine)
