"""Target distributions for quantile matching.

Every likelihood computation in this package needs exactly two ingredients
from a target law G: the quantile function Q = G^{-1} and the log of its
derivative, log Q'(p) = -log g(Q(p)).  One ``transform(p)`` call returns
both, from a single evaluation of the target's ``quantile``: log Q' is
computed from p and that Q(p), so the special function behind Q (``ndtri``,
``stdtrit``) runs once per evaluation.  Each target also gives the
differential entropy where it is known analytically (used by the
first-order approximation that ``qmatch compare`` reports) and a ``label``
that parses back to the target.

Families:

* ``Gaussian``, ``Uniform``, ``Logistic`` -- fixed shapes.
* ``StudentT`` -- parametrized by ``inv_nu`` = 1/nu in [0, 1], so the
  Gaussian (inv_nu = 0) and the Cauchy (inv_nu = 1) are both ordinary
  points of the family and a profile search runs over a compact interval.
* ``AlphaBeta`` -- the two-parameter quantile family
  Q(p) = (p^alpha - 1)/alpha - ((1-p)^beta - 1)/beta, whose alpha = beta = 0
  limit is the logistic quantile.

Numerical notes.  Quantiles at parameter values that admit closed forms
dispatch to those closed forms exactly: ``StudentT(0)`` runs the same code
as ``Gaussian`` (bit-for-bit equal results), ``StudentT(1)`` uses the
tangent in degree arguments so that the quartiles are exact (tandg(45) == 1,
whereas tan(pi/4) rounds to 0.999...), and ``AlphaBeta(0, 0)`` runs the
logistic code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .errors import DomainError, TargetSpecError

LOG_2PI = math.log(2.0 * math.pi)

# Student-t entropy minus Gaussian entropy as a series in x = inv_nu:
# x + x^2/4 - x^3/6 - x^4/8 + 3x^5/10 + x^6/4 - 17x^7/14 - 17x^8/16 + ...
# (asymptotic, from the digamma and log-gamma expansions; checked against
# mpmath).  Below _T_ENTROPY_SERIES_BELOW the digamma form loses about
# 1.6e-16/x to cancellation, more than the series' truncation error.
_T_ENTROPY_SERIES = (1.0, 1 / 4, -1 / 6, -1 / 8, 3 / 10, 1 / 4, -17 / 14, -17 / 16)
_T_ENTROPY_SERIES_BELOW = 0.01


def _array_method(method):
    """Scalar/array plumbing: the method gets its argument as a float array,
    checked to lie strictly inside (0, 1), and a scalar argument gets a
    float back."""

    @functools.wraps(method)
    def wrapper(self, p):
        arr = np.asarray(p, dtype=float)
        if np.any(~np.isfinite(arr) | (arr <= 0.0) | (arr >= 1.0)):
            raise DomainError("probabilities must lie strictly inside (0, 1)")
        out = method(self, arr)
        return float(out) if arr.ndim == 0 else out

    return wrapper


# Shared closed forms.  Logistic and the alpha=beta=0 member of the
# alpha-beta family must agree bit-for-bit, so both call these.

def _logistic_q(p):
    return np.log(p) - np.log1p(-p)


def _logistic_lqd(p):
    return -(np.log(p) + np.log1p(-p))


def _gaussian_lqd(z):
    # -log phi(z) at z = ndtri(p)
    return 0.5 * LOG_2PI + 0.5 * z * z


def student_t_log_density(inv_nu, x):
    """Log density of the Student-t law with nu = 1/inv_nu degrees of freedom.

    Requires inv_nu > 0; the Gaussian limit has its own closed form and is
    not evaluated through this routine.  The constant uses betaln because
    the equivalent gammaln difference cancels catastrophically as nu grows.
    """
    if not (0.0 < inv_nu <= 1.0):
        raise DomainError("student_t_log_density requires 0 < inv_nu <= 1")
    x = np.asarray(x, dtype=float)
    nu = 1.0 / inv_nu
    out = (
        -sc.betaln(0.5, nu / 2.0)
        - 0.5 * math.log(nu)
        - (nu + 1.0) / 2.0 * np.log1p(x * x / nu)
    )
    return float(out) if out.ndim == 0 else out


class TargetDistribution:
    """Common interface: quantile, transform, entropy, label.

    The likelihood needs only ``transform``; ``quantile`` alone serves the
    correlation report and the simulator, ``entropy`` feeds first-order
    approximations and ``label`` names the target in every report.  A
    subclass defines ``quantile`` and ``_lqd_at``.
    """

    kind = "abstract"
    bounds: dict[str, tuple[float, float]] = {}  # each field's range, checked on construction

    def __post_init__(self):
        for name, (lo, hi) in self.bounds.items():
            v = getattr(self, name)
            if not (np.isfinite(v) and lo <= v <= hi):
                raise DomainError(f"{name} must lie in [{lo:g}, {hi:g}]")

    def quantile(self, p):
        raise NotImplementedError

    def _lqd_at(self, p, z):
        """log Q'(p), given the checked array p and z = Q(p)."""
        raise NotImplementedError

    def transform(self, p):
        """(Q(p), log Q'(p)) from one call of ``quantile``, which checks p.

        A scalar p gives two floats, an array two arrays.
        """
        z = self.quantile(p)
        arr = np.asarray(p, dtype=float)
        lqd = self._lqd_at(arr, np.asarray(z))
        return z, float(lqd) if arr.ndim == 0 else lqd

    def entropy(self):
        """Differential entropy in nats, or None when no closed form is known."""
        return None

    def label(self):
        """The target spec ``kind[:field=value,...]``, which ``parse_target``
        reads back to an equal target."""
        params = ",".join(f"{name}={float(getattr(self, name))!r}" for name in self.bounds)
        return f"{self.kind}:{params}" if params else self.kind


@dataclass(frozen=True)
class Gaussian(TargetDistribution):
    kind = "gaussian"

    @_array_method
    def quantile(self, p):
        return sc.ndtri(p)

    def _lqd_at(self, p, z):
        return _gaussian_lqd(z)

    def entropy(self):
        return 0.5 * (1.0 + LOG_2PI)


@dataclass(frozen=True)
class Uniform(TargetDistribution):
    kind = "uniform"

    @_array_method
    def quantile(self, p):
        return p.copy()

    def _lqd_at(self, p, z):
        return np.zeros_like(p)

    def entropy(self):
        return 0.0


@dataclass(frozen=True)
class Logistic(TargetDistribution):
    kind = "logistic"

    @_array_method
    def quantile(self, p):
        return _logistic_q(p)

    def _lqd_at(self, p, z):
        return _logistic_lqd(p)

    def entropy(self):
        return 2.0


@dataclass(frozen=True)
class StudentT(TargetDistribution):
    """Student-t family indexed by the reciprocal degrees of freedom.

    ``inv_nu = 0`` is the Gaussian (dispatched to the Gaussian code path so
    results are bit-identical), ``inv_nu = 1`` the Cauchy.  So is any
    subnormal ``inv_nu`` below about 5.6e-309, for which nu = 1/inv_nu
    overflows to inf.
    """

    inv_nu: float

    kind = "student_t"
    bounds = {"inv_nu": (0.0, 1.0)}

    @classmethod
    def from_nu(cls, nu):
        if not (nu >= 1.0):
            raise DomainError("nu must be >= 1 (inv_nu in [0, 1])")
        return cls(0.0 if math.isinf(nu) else 1.0 / nu)

    def _is_gaussian(self):
        return self.inv_nu == 0.0 or math.isinf(1.0 / self.inv_nu)

    @_array_method
    def quantile(self, p):
        if self._is_gaussian():
            return sc.ndtri(p)
        if self.inv_nu == 1.0:
            # Degree-argument tangent keeps the Cauchy quartiles exact.
            return sc.tandg(180.0 * (p - 0.5))
        return sc.stdtrit(1.0 / self.inv_nu, p)

    def _lqd_at(self, p, z):
        if self._is_gaussian():
            return _gaussian_lqd(z)
        return -student_t_log_density(self.inv_nu, z)

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


def power_limb(a, log_x):
    """(x^a - 1)/a from log x, with the a -> 0 limit log x; expm1 keeps
    small a accurate."""
    if a == 0.0:
        return log_x
    return np.expm1(a * log_x) / a


@dataclass(frozen=True)
class AlphaBeta(TargetDistribution):
    """Quantile family Q(p) = (p^alpha - 1)/alpha - ((1-p)^beta - 1)/beta.

    The subtraction of 1/alpha and 1/beta is an affine shift, irrelevant to
    every fitted likelihood, chosen so the alpha, beta -> 0 limits exist in
    code.  alpha = beta = 0 runs the logistic closed forms.
    """

    alpha: float
    beta: float

    kind = "alpha_beta"
    bounds = {"alpha": (-1.0, 1.0), "beta": (-1.0, 1.0)}

    @_array_method
    def quantile(self, p):
        if self.alpha == 0.0 and self.beta == 0.0:
            return _logistic_q(p)
        return power_limb(self.alpha, np.log(p)) - power_limb(self.beta, np.log(1.0 - p))

    def _lqd_at(self, p, z):
        # Q'(p) = p^(alpha-1) + (1-p)^(beta-1)
        if self.alpha == 0.0 and self.beta == 0.0:
            return _logistic_lqd(p)
        return np.logaddexp(
            (self.alpha - 1.0) * np.log(p), (self.beta - 1.0) * np.log1p(-p)
        )

    def entropy(self):
        if self.alpha == 0.0 and self.beta == 0.0:
            return 2.0
        return None


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
