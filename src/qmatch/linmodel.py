"""Maximum-likelihood fits of a response on a balanced row-column grid.

A design (``DesignSpec``) is the grid's shape and a model class; a response
lists the grid column-major, cell (r, c) at position c * nrows + r.

A fit is one preparation step and one model solve.  The preparation is
the same for both models: it checks that the response is finite and not
constant, rescales it by an exact power of two 2**-k when its magnitude
would over- or underflow the sums of squares, decomposes it into the three
contrast sums of squares below, and refuses a decomposition without
interaction variation.  The model solve turns the sums into variances and
log det Sigma_hat, which are scaled back by 4**k and 2k n log 2.

The two steps are separate functions.  ``_prepare_stack(g, design)``
prepares K responses at once, stacked as one C-ordered (K, nrows, ncols)
array in grid order, with reductions over the stack's rows: about twenty
numpy calls for the stack in place of twenty per response, which at the
paper's 50x30 cost more than their arithmetic.  Each row gets its
decomposition and k, which depend on the grid's shape but not on its
model, or the typed error its response raises, and each row's sums are
those of a stack of that row alone.  ``_solve(design, dec, k)`` is the
model's solve.  ``fit`` prepares its response as a stack of one and
solves; ``translik`` keeps each preparation with the ranking it came from,
so a response fitted under both models is prepared once, and a profile
sweep prepares its grid's targets as stacks.

Two model classes are supported.

Fixed effects: mean additive in row and column (mu_ij = a_i + b_j), errors
i.i.d. N(0, sigma^2).  The MLE is the classical two-way fit.

Random effects: mean a single intercept, covariance
Sigma = sigma2_R * ROW + sigma2_C * COL + sigma2 * I, where ROW and COL
indicate shared row / shared column.  On a balanced replicate-1 grid Sigma
is simultaneously diagonalized by the ANOVA decomposition; with

    lam_R = sigma2 + c * sigma2_R        (row-contrast space, dim r-1)
    lam_C = sigma2 + r * sigma2_C        (column-contrast space, dim c-1)
    lam_E = sigma2                       (interaction space, dim (r-1)(c-1))
    lam_0 = lam_R + lam_C - lam_E        (grand-mean direction, dim 1)

minus twice the profiled log likelihood (up to constants) is

    F = log lam_0 + d_R log lam_R + S_R/lam_R
                  + d_C log lam_C + S_C/lam_C
                  + d_E log lam_E + S_E/lam_E,

to be minimized over the cone lam_R >= lam_E, lam_C >= lam_E, lam_E > 0.
The nonnegativity constraints on sigma2_R and sigma2_C are handled by
enumerating all four active sets; each subproblem is smooth, three have
closed forms and the interior one is solved by damped Newton started at the
separable solution lam_k = S_k/d_k.  At every candidate the fitted
quadratic form equals n exactly, so the achieved log likelihood is
-(log det + n + n log 2pi)/2 throughout.

When the unconstrained stationary point lies outside the cone (typically
data with little row or column variation), Newton stalls on the cone's
boundary: an accepted step no longer changes lam at all.  The solver
detects that stall and gives up on the interior candidate at once, leaving
the boundary candidates to win, instead of repeating the same step until
its iteration limit.  The answer is the same either way.

The solver's arithmetic is on Python floats, operation for operation what
numpy float64 vectors would do, so its fits are bit-identical to a numpy
version's (the tests keep one as a reference).  Each Newton step calls
the LAPACK gesv gufunc behind ``np.linalg.solve`` directly: the step has
``np.linalg.solve``'s bits without its wrapper's checks and conversions,
which at 3x3 cost more than the solve.  Where ``np.linalg.solve`` raises
for a singular Hessian, the gufunc gives a NaN step, and the search takes
the gradient step instead.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, replace

import numpy as np
# The gufunc that np.linalg.solve calls for one right-hand side: loop
# "dd->d" on float64 arrays, LAPACK dgesv.
from numpy.linalg._umath_linalg import solve1 as _gesv

from .errors import DegenerateFitError, DomainError

# Interaction variation below this share of the total is treated as an
# unbounded-likelihood (perfectly additive) transformation.
_DEGENERATE_REL = 1e-12

# A response whose largest magnitude lies outside this range is fitted after
# an exact power-of-two rescaling, so its sums of squares neither overflow
# nor underflow.
_SAFE_SCALE = (2.0**-500, 2.0**500)
_EPS = float(np.finfo(float).eps)

# The interior Newton search accepts a point whose scale-standardized
# gradient is below _NEWTON_TOL within _NEWTON_MAX_ITER steps.
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 100


class ModelKind(str, enum.Enum):
    FIXED_EFFECTS = "fixed"
    RANDOM_EFFECTS = "random"


@dataclass(frozen=True)
class DesignSpec:
    """Balanced r x c grid plus the model class used to fit it.

    A response on the grid is a vector in column-major order: observation k
    sits in row k mod nrows, column k div nrows.  Data listed cell by cell
    in any other order are put into this order by ``from_cells``.
    """

    nrows: int
    ncols: int
    model: ModelKind = ModelKind.FIXED_EFFECTS

    def __post_init__(self):
        try:
            operator.index(self.nrows), operator.index(self.ncols)
        except TypeError:
            raise DomainError("nrows and ncols must be integers") from None
        if self.nrows < 2 or self.ncols < 2:
            raise DomainError("need at least 2 rows and 2 columns")
        # A member's value, "fixed" or "random", stands for the member.
        if self.model not in [m.value for m in ModelKind]:
            raise DomainError(f"model must be one of {tuple(m.value for m in ModelKind)}")
        object.__setattr__(self, "model", ModelKind(self.model))

    @classmethod
    def from_cells(cls, rows, cols, values):
        """The design whose cell (rows[k], cols[k]) holds values[k], and the
        values in its column-major order.  rows and cols are nonempty
        arrays or sequences of signed integers (or of Python ints, as the
        CLI reads an index beyond int64) that name each cell once; values
        holds one number per cell."""
        index = []
        for seq in (rows, cols):
            a = np.asarray(seq)
            # numpy reads a bool among integers as 0 or 1, so the entries of
            # a sequence or an object array are checked one by one.
            listed = a.flat if a.dtype.kind == "O" else () if a is seq else seq
            if (a.size == 0 or a.dtype.kind not in "iO"
                    or any(isinstance(v, bool) or not isinstance(v, (int, np.integer))
                           for v in listed)):
                raise DomainError("layout indices must be nonempty signed integer arrays")
            index.append(a)
        rows, cols = index
        design = cls(nrows=int(rows.max()) + 1, ncols=int(cols.max()) + 1)
        if rows.shape != (design.n,) or cols.shape != (design.n,):
            raise DomainError("layout index length must equal nrows*ncols")
        if np.shape(values) != (design.n,):
            raise DomainError("cell value count must equal nrows*ncols")
        if rows.min() < 0 or cols.min() < 0:
            raise DomainError("layout indices out of range")
        # Object arrays of Python ints give object positions, all in [0, n).
        pos = np.asarray(cols * design.nrows + rows, dtype=np.intp)
        if np.bincount(pos).max() > 1:
            raise DomainError("each (row, col) cell must appear exactly once")
        z = np.empty(design.n)
        z[pos] = values
        return design, z

    @property
    def n(self) -> int:
        return self.nrows * self.ncols

    def with_model(self, model: ModelKind) -> "DesignSpec":
        return replace(self, model=model)


@dataclass(frozen=True)
class ProjectionDecomposition:
    """Squared norms of the centered data on the three contrast subspaces."""

    s_row: float
    s_col: float
    s_err: float
    d_row: int
    d_col: int
    d_err: int


@dataclass(frozen=True, eq=False)
class ModelFit:
    log_det_sigma_hat: float
    sigma2: float
    sigma2_row: float | None
    sigma2_col: float | None


def _response(z, design: DesignSpec) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise DomainError(f"response of shape {z.shape} is not a vector of design size {design.n}")
    if z.size != design.n:
        raise DomainError(f"response length {z.size} does not match design size {design.n}")
    return z


def _grid(z, design: DesignSpec) -> np.ndarray:
    z = _response(z, design)
    # A C-ordered copy, so row and column reductions sum in a fixed order.
    return np.ascontiguousarray(z.reshape(design.ncols, design.nrows).T)


def _decompose_stack(g, design: DesignSpec) -> list:
    """The decomposition of each response stacked in g, a C-ordered
    (K, nrows, ncols) array of this call's own, which is left holding the
    squared residuals.

    Each row sums in the order a lone 2-d grid would: totals and row sums
    pairwise along the contiguous last axis, as ``g.sum()`` and
    ``g.sum(axis=1)`` do, and column sums sequentially over the rows, as
    ``g.sum(axis=0)`` does.  Each mean is sum / count, bit for bit what
    np.mean returns."""
    count, r, c = g.shape
    flat = g.reshape(count, design.n)
    zbar = np.add.reduce(flat, axis=1) / design.n
    # Row and column means side by side, so that centring and squaring
    # them is one call for both.
    means = np.empty((count, r + c))
    rm, cm = means[:, :r], means[:, r:]
    np.add.reduce(g, axis=2, out=rm)
    np.add.reduce(g, axis=1, out=cm)
    rm /= c
    cm /= r
    means -= zbar[:, None]
    g -= zbar[:, None, None]
    g -= rm[:, :, None]
    g -= cm[:, None, :]
    g *= g
    means *= means
    dims = r - 1, c - 1, (r - 1) * (c - 1)
    return [ProjectionDecomposition(c * s_row, r * s_col, s_err, *dims)
            for s_row, s_col, s_err in zip(np.add.reduce(rm, axis=1).tolist(),
                                           np.add.reduce(cm, axis=1).tolist(),
                                           np.add.reduce(flat, axis=1).tolist())]


def _exponent(lo, hi):
    """The exponent k at which a response with least and greatest values
    lo and hi is decomposed, that of z * 2**-k: k = 0 unless max|z| lies
    outside ``_SAFE_SCALE``, and then k puts max|z| in [1/2, 1)."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("response values must be finite")
    # A spread within a few ulps of the data magnitude is rounding noise,
    # not variation; fitting it would produce absurd variance estimates.
    scale = max(-lo, hi)                                 # max |z|
    if hi - lo <= 16.0 * _EPS * scale:
        raise DegenerateFitError("response is numerically constant")
    return 0 if _SAFE_SCALE[0] <= scale <= _SAFE_SCALE[1] else math.frexp(scale)[1]


def _bounded(dec: ProjectionDecomposition) -> ProjectionDecomposition:
    """dec, if the likelihood of its response is bounded."""
    total = dec.s_row + dec.s_col + dec.s_err
    if total <= 0.0 or dec.s_err <= _DEGENERATE_REL * total:
        raise DegenerateFitError(
            "no interaction variation left after transformation; "
            "the likelihood is unbounded"
        )
    return dec


def _prepare_stack(g, design: DesignSpec) -> list:
    """The preparation of each response in g, a C-ordered (K, nrows, ncols)
    stack in grid order of this call's own: the decomposition of a
    response whose likelihood is bounded and the exponent k it was taken
    at (see ``_exponent``), ``(dec, k)``, or the typed error its response
    raises: ``DomainError`` for a non-finite value, ``DegenerateFitError``
    for a constant response or one without interaction variation.

    A row with k != 0 is scaled in place.  A row whose values fail before
    the sums is zeroed, so that it adds no overflow or invalid operation to
    them.  Each row's sums are those of a stack of that row alone."""
    flat = g.reshape(len(g), design.n)
    out = []  # each row's exponent, or its error
    for row, lo, hi in zip(flat, flat.min(axis=1).tolist(), flat.max(axis=1).tolist()):
        try:
            k = _exponent(lo, hi)
        except DomainError as exc:
            row.fill(0.0)
            out.append(exc)
            continue
        if k:
            np.ldexp(row, -k, out=row)
        out.append(k)
    for i, dec in enumerate(_decompose_stack(g, design)):
        if not isinstance(out[i], Exception):
            try:
                out[i] = _bounded(dec), out[i]
            except DegenerateFitError as exc:
                out[i] = exc
    return out


def _scaled_variance(v, k):
    try:
        return None if v is None else math.ldexp(v, 2 * k)
    except OverflowError:  # a variance beyond the float range
        return math.inf


def _model_fit(design, k, log_det, sigma2, sigma2_row=None, sigma2_col=None) -> ModelFit:
    """The fit of z from that of z * 2**-k: every variance scaled back by
    4**k, log det Sigma_hat by 2k n log 2.  Both are exact, and at k = 0
    they change nothing (x + 0.0 is x, ldexp(v, 0) is v)."""
    return ModelFit(
        log_det_sigma_hat=log_det + 2 * k * design.n * math.log(2.0),
        sigma2=_scaled_variance(sigma2, k),
        sigma2_row=_scaled_variance(sigma2_row, k),
        sigma2_col=_scaled_variance(sigma2_col, k),
    )


def _fixed_fit(design, dec, k) -> ModelFit:
    """The fixed-effects fit of a response prepared at exponent k."""
    sigma2 = dec.s_err / design.n
    return _model_fit(design, k, design.n * math.log(sigma2), sigma2)


def _objective(lam, sums):
    lam_r, lam_c, lam_e = lam
    s_row, s_col, s_err, d_row, d_col, d_err = sums
    return (
        math.log(lam_r + lam_c - lam_e)
        + d_row * math.log(lam_r) + s_row / lam_r
        + d_col * math.log(lam_c) + s_col / lam_c
        + d_err * math.log(lam_e) + s_err / lam_e
    )


def _gradient(lam, sums):
    lam_r, lam_c, lam_e = lam
    s_row, s_col, s_err, d_row, d_col, d_err = sums
    lam0 = lam_r + lam_c - lam_e
    return (
        1.0 / lam0 + d_row / lam_r - s_row / lam_r**2,
        1.0 / lam0 + d_col / lam_c - s_col / lam_c**2,
        -1.0 / lam0 + d_err / lam_e - s_err / lam_e**2,
    )


def _hessian(lam, sums, out):
    """Write the Hessian of F at lam into out, a flat view of a 3x3 array."""
    lam_r, lam_c, lam_e = lam
    s_row, s_col, s_err, d_row, d_col, d_err = sums
    lam0 = lam_r + lam_c - lam_e
    a = 1.0 / lam0**2
    out[0] = -a + (-d_row / lam_r**2 + 2.0 * s_row / lam_r**3)
    out[4] = -a + (-d_col / lam_c**2 + 2.0 * s_col / lam_c**3)
    out[8] = -a + (-d_err / lam_e**2 + 2.0 * s_err / lam_e**3)
    out[1] = out[3] = -a
    out[2] = out[5] = out[6] = out[7] = a


def _interior_newton(sums):
    """Stationary point of F strictly inside the cone and F there, or None,
    for the sums ``(s_row, s_col, s_err, d_row, d_col, d_err)``.

    Damped Newton from the separable start lam_k = S_k/d_k (projected into
    the cone).  Iterates are kept strictly feasible; if the unconstrained
    stationary point lies outside the cone the search stalls on the
    boundary and is rejected here, which is fine because the boundary
    subproblems are enumerated separately.

    Each Newton step calls ``_gesv``, the LAPACK gesv gufunc behind
    ``np.linalg.solve``, on a Hessian and right-hand side written into
    arrays made once per search: its bits are ``np.linalg.solve``'s,
    without that wrapper, which costs more than the 3x3 solve.  Where
    ``np.linalg.solve`` raises ``LinAlgError`` (an exactly singular
    Hessian), the gufunc returns NaN, quietly under the search's one
    ``np.errstate``; a step that is not finite is replaced by the gradient
    step.

    Once the gradient is small the objective is flat to machine precision,
    so the line search switches from requiring an objective decrease to
    requiring a gradient decrease; otherwise the last factor-of-ten of
    gradient reduction is unreachable and a genuinely interior optimum
    would be dropped.

    An accepted step that leaves lam bitwise unchanged is a stall: every
    later iteration would take that same step, and the final gradient
    check would fail, so the search gives up at once.
    """
    s_row, s_col, s_err, d_row, d_col, d_err = sums
    lam_e0 = s_err / d_err
    lam = (max(s_row / d_row, lam_e0), max(s_col / d_col, lam_e0), lam_e0)
    f0 = _objective(lam, sums)
    hessian, rhs = np.empty((3, 3)), np.empty(3)
    # Flat views that write one entry at the cost of a Python float store.
    h, b = memoryview(hessian.reshape(9)), memoryview(rhs)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            g = _gradient(lam, sums)
            g_inf = max(map(abs, g))
            if g_inf < _NEWTON_TOL:
                return lam, f0
            b[0], b[1], b[2] = minus_g = -g[0], -g[1], -g[2]
            _hessian(lam, sums, h)
            step = _gesv(hessian, rhs).tolist()
            if not all(map(math.isfinite, step)):
                step = minus_g
            t = 1.0
            for _ in range(60):
                cand = (lam[0] + t * step[0], lam[1] + t * step[1], lam[2] + t * step[2])
                lam0 = cand[0] + cand[1] - cand[2]
                if cand[2] > 0 and cand[0] >= cand[2] and cand[1] >= cand[2] and lam0 > 0:
                    f_cand = _objective(cand, sums)
                    if f_cand <= f0 or (
                        g_inf < 1e-6
                        and max(map(abs, _gradient(cand, sums))) < g_inf
                    ):
                        break
                t *= 0.5
            else:
                return None
            if cand == lam:
                return None
            lam, f0 = cand, f_cand
    return (lam, f0) if max(map(abs, _gradient(lam, sums))) < _NEWTON_TOL else None


def _solve_eigenvalues(dec: ProjectionDecomposition):
    """Minimize F over the cone by enumerating the four active sets.

    Works on scale-standardized sums of squares so the Newton gradient
    tolerance means the same thing for any data scale.  Each candidate's
    F is evaluated once; the first of the smallest wins.
    """
    total = dec.s_row + dec.s_col + dec.s_err
    n = dec.d_row + dec.d_col + dec.d_err + 1
    scale = total / n
    sums = (dec.s_row / scale, dec.s_col / scale, dec.s_err / scale,
            dec.d_row, dec.d_col, dec.d_err)
    s_row, s_col, s_err, d_row, d_col, d_err = sums
    r = d_row + 1
    c = d_col + 1

    candidates = []
    # Both variance components at zero: every eigenvalue equal.
    lam = (s_row + s_col + s_err) / n
    candidates.append((lam, lam, lam))
    # sigma2_row = 0: lam_R pinned to lam_E.
    lam_c = s_col / c
    lam_e = (s_row + s_err) / (d_row + d_err)
    if lam_c >= lam_e > 0.0:
        candidates.append((lam_e, lam_c, lam_e))
    # sigma2_col = 0: lam_C pinned to lam_E.
    lam_r = s_row / r
    lam_e = (s_col + s_err) / (d_col + d_err)
    if lam_r >= lam_e > 0.0:
        candidates.append((lam_r, lam_e, lam_e))
    scored = [(lam, _objective(lam, sums)) for lam in candidates]
    # Interior stationary point, with the F of Newton's last accepted step.
    interior = _interior_newton(sums)
    if interior is not None:
        scored.append(interior)

    lam_r, lam_c, lam_e = min(scored, key=operator.itemgetter(1))[0]
    return lam_r * scale, lam_c * scale, lam_e * scale


def _random_fit(design, dec, k, lam=None) -> ModelFit:
    """The random-effects fit with eigenvalues lam, the solver's when None,
    of a response prepared at exponent k."""
    lam_r, lam_c, lam_e = _solve_eigenvalues(dec) if lam is None else lam
    log_det = (
        math.log(lam_r + lam_c - lam_e)
        + dec.d_row * math.log(lam_r)
        + dec.d_col * math.log(lam_c)
        + dec.d_err * math.log(lam_e)
    )
    return _model_fit(
        design, k, log_det, lam_e,
        max((lam_r - lam_e) / design.ncols, 0.0),
        max((lam_c - lam_e) / design.nrows, 0.0),
    )


def _solve(design: DesignSpec, dec, k) -> ModelFit:
    """The fit of the design's model from a preparation ``(dec, k)`` of
    ``_prepare_stack``, which serves both models."""
    if design.model == ModelKind.FIXED_EFFECTS:
        return _fixed_fit(design, dec, k)
    return _random_fit(design, dec, k)


def fit(z, design: DesignSpec) -> ModelFit:
    """ML fit of the design's model: the additive fixed-effects model with
    spherical errors, or the intercept-plus-two-variance-components model."""
    (state,) = _prepare_stack(_grid(z, design)[None], design)
    if isinstance(state, Exception):
        raise state
    return _solve(design, *state)
