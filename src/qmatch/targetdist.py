"""Target distributions for quantile matching.

Every likelihood computation in this package needs exactly two ingredients
from a target law G: the quantile function Q = G^{-1} and the log of its
derivative, log Q'(p) = -log g(Q(p)).  The likelihood takes Q(p) from the
target's ``quantile`` and log Q' from its ``_lqd_at(p, Q(p))``, which is
computed from p and that Q(p), so the special function behind Q
(``ndtri``, ``stdtrit``) runs once per evaluation (``_z_and_jacobian``).
Each target also gives the differential entropy where
it is known analytically (used by the first-order approximation that
``qmatch compare`` reports) and a ``label`` that parses back to the target.

Families:

* ``Uniform`` -- a fixed shape.
* ``StudentT`` -- parametrized by ``inv_nu`` = 1/nu in [0, 1], so the
  Gaussian (inv_nu = 0) and the Cauchy (inv_nu = 1) are both ordinary
  points of the family and a profile search runs over a compact interval.
  ``Gaussian`` is the subclass with inv_nu fixed at 0.
* ``AlphaBeta`` -- the two-parameter quantile family
  Q(p) = (p^alpha - 1)/alpha - ((1-p)^beta - 1)/beta, whose alpha = beta = 0
  limit is the logistic quantile.  ``Logistic`` is the subclass with alpha
  and beta fixed at 0.

``Gaussian`` and ``Logistic`` inherit every method, so they compute what
``StudentT(0)`` and ``AlphaBeta(0, 0)`` compute, bit for bit; only their
labels differ, and they compare unequal to those members.

Numerical notes.  Quantiles at parameter values that admit closed forms
dispatch to those closed forms, written once in the family's methods:
inv_nu = 0 runs ``ndtri``, ``StudentT(1)`` uses the tangent in degree
arguments so that the quartiles are exact (tandg(45) == 1, whereas
tan(pi/4) rounds to 0.999...), and alpha = beta = 0 runs the logistic
forms.  Elsewhere in the t family, ``stdtrit`` runs once per
exactly mirrored pair of percentiles, p < 1/2 and q with 1 - q == p
(exact, since q > 1/2), and q takes -Q(p).  On scipy 1.17.1 ``stdtrit``
is itself odd bit for bit at such points, so Q keeps the bits of one
``stdtrit`` call per point.

Every target's quantile on a tie-free sample's percentiles is remembered
once two rankings share them.  Such a sample of size n has the rankit grid
(2i - 1)/(2n) as its percentiles whatever its values, and ``percentiles``
hands out one shared, read-only grid per n, at any n, alive while a
ranking holds it.  So z = Q(p) and the jacobian sum log Q'(p) depend only
on (target, n): once a second ranking has picked the grid up, the first
``quantile`` on that grid object computes both and keeps them as one entry
in the grid's own store, with no digest of p taken.  The store's budget
(``_MEMO_BUDGET // p.nbytes`` entries) is its only bound: it keeps what it
has and stops storing when full, and it dies with the grid.  A sample with
ties or a caller's own array gets its quantile computed and not held.
Every ``quantile`` returns a fresh array, stored or not.  The range check
on p is skipped only for the grid object that has a store, which lies
inside (0, 1) by construction: a profile sweep of t or alpha-beta targets
on a warm grid reads each of its points from the store with no pass over
p.  Box-Cox transforms the data values and takes no quantile.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import special as sc

from .errors import DomainError, TargetSpecError
from .percentile import _grids

LOG_2PI = math.log(2.0 * math.pi)

# Student-t entropy minus Gaussian entropy as a series in x = inv_nu:
# x + x^2/4 - x^3/6 - x^4/8 + 3x^5/10 + x^6/4 - 17x^7/14 - 17x^8/16 + ...
# (asymptotic, from the digamma and log-gamma expansions; checked against
# mpmath).  Below _T_ENTROPY_SERIES_BELOW the digamma form loses about
# 1.6e-16/x to cancellation, more than the series' truncation error.
_T_ENTROPY_SERIES = (1.0, 1 / 4, -1 / 6, -1 / 8, 3 / 10, 1 / 4, -17 / 14, -17 / 16)
_T_ENTROPY_SERIES_BELOW = 0.01


def _quantile_method(method):
    """A target's ``quantile``: the method gets its argument as a float
    array, checked to lie strictly inside (0, 1), and a scalar argument
    gets a float back.  On a shared rankit grid that has a store the result
    is served from it as a fresh copy, or computed and stored there with its
    jacobian while the store has room.  That grid, (2i - 1)/(2n), lies
    inside (0, 1) by construction and is read-only, so it is not checked;
    any other array is, a copy of the grid included."""

    @functools.wraps(method)
    def quantile(self, p):
        arr = np.asarray(p, dtype=float)
        store = _store(arr)
        # A NaN makes the min and the max NaN, and fails both comparisons.
        if store is None and arr.size and not (0.0 < arr.min() and arr.max() < 1.0):
            raise DomainError("probabilities must lie strictly inside (0, 1)")
        entry = store.get(self) if store is not None else None
        if entry is not None:
            return entry[0].copy()
        z = method(self, arr)
        if store is not None and len(store) < _MEMO_BUDGET // arr.nbytes:
            z.flags.writeable = False
            # Threads racing on one target store equal entries, and may
            # each pass the bound by one.
            store[self] = z, float(np.sum(self._lqd_at(arr, z)))
            return z.copy()
        return float(z) if arr.ndim == 0 else z

    return quantile


def _is_real(v):
    """Whether v is a real number, an int or a float (numpy's included),
    and not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _overflows_nu(inv_nu):
    """Whether nu = 1/inv_nu is inf: inv_nu is 0 or a subnormal below about
    5.6e-309, where the t law is the Gaussian."""
    return inv_nu == 0.0 or math.isinf(1.0 / inv_nu)


def _paired_stdtrit(df, p):
    """``sc.stdtrit(df, p)``, with one evaluation per exactly mirrored pair.

    Positions k and n-1-k of a 1-d p form an exact pair when p[k] < 1/2
    and 1 - p[n-1-k] == p[k]; the subtraction is exact there, since
    p[n-1-k] > 1/2.  The upper member takes the negated lower value, and
    every other point (the middle one for odd n, ties at 1/2, unsorted or
    unpaired points) its own ``stdtrit`` call.  On a rankit grid about a
    third of the pairs are exact: half of those with p[k] in [1/4, 1/2),
    where ``stdtrit`` is cheapest, a quarter in [1/8, 1/4), fewer below.

    On scipy 1.17.1 ``stdtrit(df, q)`` is bitwise ``-stdtrit(df, 1 - q)``
    for q > 1/2 with 1 - q exact, so the result is bitwise ``stdtrit`` on
    the whole array; ``test_targetdist.TestPairedStdtrit`` checks that
    identity.  On another scipy the paired value is still -Q(1 - q): a t
    quantile to ``stdtrit``'s accuracy, and exactly odd.
    """
    n = p.size
    h = n // 2
    if p.ndim != 1 or h == 0:
        return sc.stdtrit(df, p)
    out = np.empty(n)
    lower_p = p[:h]
    lower = sc.stdtrit(df, lower_p, out=out[:h])
    # The upper half read backwards: entry k is position n-1-k, k's mirror.
    upper_p = p[::-1][:h]
    upper = out[::-1][:h]
    np.subtract(1.0, upper_p, out=upper)  # 1 - p as scratch, overwritten below
    mirrored = upper == lower_p
    mirrored &= lower_p < 0.5
    np.negative(lower, out=upper, where=mirrored)
    rest = ~mirrored
    todo = upper_p[rest]
    upper[rest] = sc.stdtrit(df, todo, out=todo)
    if n % 2:
        out[h] = sc.stdtrit(df, p[h])
    return out


# Bytes of z a grid's store may hold, 8 per point: 4 MiB keeps 349 targets
# at the paper's 50x30.  A warm cycle of the study benchmark (16 seeds in
# one process) asks that grid for 528 distinct targets: 313 alpha-beta and
# 212 t grid and refinement points, and the Gaussian, uniform and logistic.
# Its full store misses 129 t quantile calls per cycle (at 105 refinement
# points), about a sixth of the cycle's time; a larger budget would serve
# only a process that repeats its seeds.  It is a store's only bound: one
# target at 300000 points, none above 524288.  A full store keeps what it
# has and stores no more: an LRU would evict, on a cyclic sweep, the entry
# asked for next.
_MEMO_BUDGET = 4 << 20


def _store(p):
    """The store of the shared rankit grid that p is, or None: ties, a
    caller's own array even with the grid's values, or a grid no second
    ranking has picked up.  Every tie-free ranking of n holds its n's grid,
    at any n; the store's budget alone bounds what it keeps."""
    grid = _grids.get(p.size)
    return grid.store if grid is not None and grid.p is p else None


def _z_and_jacobian(dist, p):
    """(Q(p), sum log Q'(p)) of ``dist`` from one ``quantile`` call: on a
    shared rankit grid the sum comes from the entry that call found or
    stored, and elsewhere log Q' is computed from that Q(p) and not held."""
    z = dist.quantile(p)
    store = _store(p)
    entry = store.get(dist) if store is not None else None
    return z, entry[1] if entry is not None else float(np.sum(dist._lqd_at(p, z)))


class TargetDistribution:
    """Common interface: quantile, entropy, label.

    The likelihood takes Q(p) from ``quantile`` and log Q'(p) from
    ``_lqd_at`` at that Q(p); ``quantile`` alone serves the correlation
    report and the simulator, ``entropy`` feeds first-order approximations
    and ``label`` names the target in every report.  A subclass defines
    ``quantile`` (under ``_quantile_method``) and ``_lqd_at``.
    """

    kind = "abstract"
    bounds: dict[str, tuple[float, float]] = {}  # each field's range, checked on construction

    def __post_init__(self):
        for name, (lo, hi) in self.bounds.items():
            v = getattr(self, name)
            if not (_is_real(v) and lo <= v <= hi):
                raise DomainError(f"{name} must lie in [{lo:g}, {hi:g}]")

    def quantile(self, p):
        """Q(p): a float for a scalar p, else a new array of p's shape that
        shares memory with neither p nor any earlier result, so a caller
        may write into it."""
        raise NotImplementedError

    def _lqd_at(self, p, z):
        """log Q'(p), given the checked array p and z = Q(p)."""
        raise NotImplementedError

    def entropy(self):
        """Differential entropy in nats, or None when no closed form is known."""
        return None

    def label(self):
        """The target spec ``kind[:field=value,...]``, which ``parse_target``
        reads back to an equal target."""
        params = ",".join(f"{name}={float(getattr(self, name))!r}" for name in self.bounds)
        return f"{self.kind}:{params}" if params else self.kind


@dataclass(frozen=True)
class Uniform(TargetDistribution):
    kind = "uniform"

    @_quantile_method
    def quantile(self, p):
        return p.copy()

    def _lqd_at(self, p, z):
        return np.zeros_like(p)

    def entropy(self):
        return 0.0


@dataclass(frozen=True)
class StudentT(TargetDistribution):
    """Student-t family indexed by the reciprocal degrees of freedom.

    ``inv_nu = 0`` is the Gaussian, evaluated by its closed forms (``ndtri``,
    the Gaussian log density and entropy); so is any subnormal ``inv_nu``
    below about 5.6e-309, for which nu = 1/inv_nu overflows to inf.
    ``inv_nu = 1`` is the Cauchy.  ``Gaussian`` is the inv_nu = 0 member.
    """

    inv_nu: float

    kind = "student_t"
    bounds = {"inv_nu": (0.0, 1.0)}

    @staticmethod
    def from_nu(nu):
        """The t member with nu degrees of freedom (nu = inf is inv_nu = 0)."""
        if not (_is_real(nu) and nu >= 1.0):
            raise DomainError("nu must be >= 1 (inv_nu in [0, 1])")
        return StudentT(0.0 if math.isinf(nu) else 1.0 / nu)

    @_quantile_method
    def quantile(self, p):
        if _overflows_nu(self.inv_nu):
            return sc.ndtri(p)
        if self.inv_nu == 1.0:
            # Degree-argument tangent keeps the Cauchy quartiles exact.
            return sc.tandg(180.0 * (p - 0.5))
        return _paired_stdtrit(1.0 / self.inv_nu, p)

    def _lqd_at(self, p, z):
        # -log f(z) in one fresh array: z^2/2 + LOG_2PI/2 for the Gaussian,
        # else (nu + 1)/2 log1p(z^2/nu) - C, C = -betaln(1/2, nu/2) - log(nu)/2;
        # betaln, since the equivalent gammaln difference cancels
        # catastrophically as nu grows.
        out = np.multiply(z, z, out=np.empty_like(z, dtype=float))
        if _overflows_nu(self.inv_nu):
            out *= 0.5
            out += 0.5 * LOG_2PI
            return out
        nu = 1.0 / self.inv_nu
        out /= nu
        np.log1p(out, out=out)
        out *= (nu + 1.0) / 2.0
        out -= -sc.betaln(0.5, nu / 2.0) - 0.5 * math.log(nu)
        return out

    def entropy(self):
        x = self.inv_nu
        if x < _T_ENTROPY_SERIES_BELOW:
            # Gaussian entropy plus the series in x = 1/nu; the term after
            # the last is 155/18 x^9, below 1e-17 here.
            series = 0.0
            for coef in reversed(_T_ENTROPY_SERIES):
                series = (series + coef) * x
            return 0.5 * (1.0 + LOG_2PI) + series
        nu = 1.0 / x
        return float(
            (nu + 1.0) / 2.0 * (sc.digamma((nu + 1.0) / 2.0) - sc.digamma(nu / 2.0))
            + 0.5 * math.log(nu)
            + sc.betaln(0.5, nu / 2.0)
        )


# Below this |a|, power_limb's a * log x can be subnormal.
_SUBNORMAL_PRODUCT_BELOW = 2.0**-900
_TINY = np.finfo(float).tiny


def power_limb(a, log_x):
    """(x^a - 1)/a from log x, with the a -> 0 limit log x; expm1 keeps
    small a accurate.

    The result is one fresh array, written in place; log_x is never
    written, and at a == 0 it is returned itself.
    """
    if a == 0.0:
        return log_x
    out = np.multiply(a, log_x, out=np.empty_like(log_x, dtype=float))
    # A subnormal a * log x has lost its precision, and the quotient would
    # be log x quantized; the series' next term, a (log x)^2 / 2, is below
    # 1e-308 relative there, so the limit log x is the value.  A nonzero
    # log of a float, or a difference of two such logs, has magnitude at
    # least 2^-105, so from |a| = 2^-900 up a * log x is zero or normal
    # and no element needs the test.
    subnormal = np.abs(out) < _TINY if abs(a) < _SUBNORMAL_PRODUCT_BELOW else None
    np.expm1(out, out=out)
    out /= a
    if subnormal is not None:
        np.copyto(out, log_x, where=subnormal)
    return out


@dataclass(frozen=True)
class AlphaBeta(TargetDistribution):
    """Quantile family Q(p) = (p^alpha - 1)/alpha - ((1-p)^beta - 1)/beta.

    The subtraction of 1/alpha and 1/beta is an affine shift, irrelevant to
    every fitted likelihood, chosen so the alpha, beta -> 0 limits exist in
    code.  alpha = beta = 0 runs the logistic closed forms, log p - log(1-p)
    and its log derivative, and has the logistic entropy 2.  ``Logistic`` is
    that member.
    """

    alpha: float
    beta: float

    kind = "alpha_beta"
    bounds = {"alpha": (-1.0, 1.0), "beta": (-1.0, 1.0)}

    @_quantile_method
    def quantile(self, p):
        if self.alpha == 0.0 and self.beta == 0.0:
            return np.log(p) - np.log1p(-p)
        log_q = np.subtract(1.0, p, out=np.empty_like(p, dtype=float))
        np.log(log_q, out=log_q)
        q = power_limb(self.alpha, np.log(p))
        q -= power_limb(self.beta, log_q)
        return q

    def _lqd_at(self, p, z):
        # Q'(p) = p^(alpha-1) + (1-p)^(beta-1)
        if self.alpha == 0.0 and self.beta == 0.0:
            return -(np.log(p) + np.log1p(-p))
        lower = np.log(p)
        lower *= self.alpha - 1.0
        upper = np.negative(p, out=np.empty_like(p, dtype=float))
        np.log1p(upper, out=upper)
        upper *= self.beta - 1.0
        return np.logaddexp(lower, upper, out=upper)

    def entropy(self):
        if self.alpha == 0.0 and self.beta == 0.0:
            return 2.0
        return None


@dataclass(frozen=True)
class Gaussian(StudentT):
    """The t family's inv_nu = 0 member under its own label; with no spec
    field (empty ``bounds``) its label is the bare kind."""

    inv_nu: float = dataclass_field(default=0.0, init=False, repr=False)

    kind = "gaussian"
    bounds = {}


@dataclass(frozen=True)
class Logistic(AlphaBeta):
    """The alpha-beta family's alpha = beta = 0 member under its own label;
    with no spec field (empty ``bounds``) its label is the bare kind."""

    alpha: float = dataclass_field(default=0.0, init=False, repr=False)
    beta: float = dataclass_field(default=0.0, init=False, repr=False)

    kind = "logistic"
    bounds = {}


# The target-spec table.  Labels write specs with the canonical kind and
# field names; parse_target also reads the aliases below, converts nu to
# inv_nu, and lets an absent beta take alpha's value.
TARGETS = {cls.kind: cls for cls in (Gaussian, Uniform, Logistic, StudentT, AlphaBeta)}
_KIND_ALIASES = {"t": "student_t", "alpha": "alpha_beta"}
_KEY_ALIASES = {"a": "alpha", "b": "beta"}
_DEFAULTS = {"beta": "alpha"}

TARGET_GRAMMAR = (
    "target spec grammar: "
    + " | ".join(
        kind + ":" * bool(cls.bounds)
        + ",".join(f"{f}=<real in [{lo:g}, {hi:g}]>" for f, (lo, hi) in cls.bounds.items())
        for kind, cls in TARGETS.items())
    + "; aliases " + ", ".join(f"{a} = {b}" for a, b in {**_KIND_ALIASES, **_KEY_ALIASES}.items())
    + "; nu=<real >= 1> gives inv_nu = 1/nu; "
    + "; ".join(f"{f} defaults to {g}" for f, g in _DEFAULTS.items())
)


def parse_target(spec: str) -> TargetDistribution:
    """Read one target spec (see ``TARGET_GRAMMAR``)."""
    name, _, rest = spec.strip().partition(":")
    name = name.strip().lower()
    cls = TARGETS.get(_KIND_ALIASES.get(name, name))
    if cls is None:
        raise TargetSpecError(f"unknown target {name!r}")
    values = {}
    try:
        for item in rest.split(",") if rest else ():
            key, eq, text = item.partition("=")
            if not eq:
                raise TargetSpecError(f"malformed parameter {item!r} in target {spec!r}")
            key = key.strip().lower()
            field = "inv_nu" if key == "nu" else _KEY_ALIASES.get(key, key)
            if field not in cls.bounds:
                raise TargetSpecError(f"unknown parameter {key!r} in target {spec!r}")
            if field in values:
                raise TargetSpecError(f"{field} given twice in target {spec!r}")
            value = float(text)
            values[field] = StudentT.from_nu(value).inv_nu if key == "nu" else value
        for field, source in _DEFAULTS.items():
            if field in cls.bounds and field not in values and source in values:
                values[field] = values[source]
        missing = [f"{field}=" for field in cls.bounds if field not in values]
        if missing:
            raise TargetSpecError(f"target {spec!r} needs {', '.join(missing)}")
        return cls(**values)
    except DomainError as exc:
        raise TargetSpecError(f"invalid parameters in target {spec!r}: {exc}") from None
    except ValueError:
        raise TargetSpecError(f"non-numeric value in target {spec!r}") from None


def parse_target_list(text: str) -> list[TargetDistribution]:
    """Split a comma-separated list of target specs.

    Commas also separate key=value pairs inside a spec, so a token that
    contains '=' but no ':' continues the previous spec.
    """
    specs = []
    for token in text.split(","):
        if "=" in token and ":" not in token and specs:
            specs[-1] += "," + token
        else:
            specs.append(token)
    specs = [s for s in (s.strip() for s in specs) if s]
    if not specs:
        raise TargetSpecError("empty target list")
    return [parse_target(s) for s in specs]
