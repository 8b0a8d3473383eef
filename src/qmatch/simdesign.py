"""Seedable simulation of the two benchmark experiments.

Data are generated on a balanced nrows x ncols grid as

    y_k = intercept + a[row(k)] + b[col(k)] + e_k

with the row effects a, column effects b drawn i.i.d. from the chosen
effect distribution (standard Gaussian or standard Cauchy) and e_k i.i.d.
standard Gaussian.  Observations are laid out column-major: k runs down
each column in turn, so row(k) = k mod nrows and col(k) = k div nrows.

Reproducibility: all draws come from numpy's PCG64 generator seeded with
``seed``.  Uniforms are taken as (integer53 + 0.5) / 2^53, which never hits
0 or 1, and variates are produced by inverse CDF through the targets' own
``quantile``: ``EFFECTS`` maps each effect distribution to its target, and
the noise is drawn through the Gaussian target.  Draw order is fixed: row
effects, then column effects, then noise.  Equal seeds therefore give
bit-equal outputs on any platform with the same numpy/scipy builds.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linmodel import DesignSpec
from .targetdist import Gaussian, StudentT, _is_real

EFFECTS = {"gaussian": Gaussian(), "cauchy": StudentT(1.0)}


@dataclass(frozen=True)
class SimConfig:
    nrows: int = 50
    ncols: int = 30
    effect_dist: str = "gaussian"
    intercept: float = 5.0
    seed: int = 0

    def __post_init__(self):
        DesignSpec(self.nrows, self.ncols)
        if not isinstance(self.effect_dist, str) or self.effect_dist not in EFFECTS:
            raise DomainError(f"effect_dist must be one of {tuple(EFFECTS)}")
        # Neither inf, NaN nor an int too large for a float passes.
        if not (_is_real(self.intercept) and abs(self.intercept) <= sys.float_info.max):
            raise DomainError("intercept must be a finite real number")
        # An integer is what operator.index takes: int and numpy's integers,
        # not a float, a string or a bool.
        if isinstance(self.seed, bool) or not hasattr(type(self.seed), "__index__"):
            raise DomainError("seed must be an integer")
        if not (0 <= operator.index(self.seed) < 2**64):
            raise DomainError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class SimOutput:
    y: np.ndarray
    design: DesignSpec


def _uniforms(rng, size):
    # Strictly interior uniforms: (k + 0.5)/2^53 for k in [0, 2^53).
    return (rng.integers(0, 1 << 53, size=size) + 0.5) * 2.0**-53


def simulate(config: SimConfig) -> SimOutput:
    rng = np.random.default_rng(config.seed)
    dist = EFFECTS[config.effect_dist]
    row_eff = dist.quantile(_uniforms(rng, config.nrows))
    col_eff = dist.quantile(_uniforms(rng, config.ncols))
    noise = EFFECTS["gaussian"].quantile(_uniforms(rng, config.nrows * config.ncols))
    # Cell (r, c) at c * nrows + r: column-major.
    effects = np.add.outer(col_eff, row_eff).ravel()
    return SimOutput(y=config.intercept + effects + noise,
                     design=DesignSpec(nrows=config.nrows, ncols=config.ncols))
