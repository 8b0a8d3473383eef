"""Independent routes to the percentiles and model fits, used only by the tests.

The package computes what the likelihood needs and nothing more; these
routines rebuild the rest from first principles so the tests can check it:
percentiles from scipy's midranks, a derivative-free optimizer for the
variance-components fit, the explicit n x n covariance, and the fitted
quadratic form.
"""

import numpy as np
from scipy import optimize
from scipy.stats import rankdata

from qmatch import DesignSpec, DomainError, ModelFit, ModelKind, NumericError
from qmatch.linmodel import (
    ProjectionDecomposition,
    _check_not_degenerate,
    _grid,
    _objective,
    _random_fit_from_eigenvalues,
    decompose,
)


def rankdata_percentiles(y) -> np.ndarray:
    """(F(y-) + F(y+))/2 at each observation, from scipy's average ranks."""
    y = np.asarray(y, dtype=float)
    return (2.0 * rankdata(y, method="average") - 1.0) / (2.0 * y.size)


def fit_random_numeric(z, design: DesignSpec) -> ModelFit:
    """Same model as fit_random_balanced via a derivative-free optimizer.

    Kept as an independent route for cross-checking the active-set solver.
    """
    dec = decompose(z, design)
    _check_not_degenerate(z, dec)
    total = dec.s_row + dec.s_col + dec.s_err
    n = design.n
    scale = total / n
    sdec = ProjectionDecomposition(
        s_row=dec.s_row / scale, s_col=dec.s_col / scale, s_err=dec.s_err / scale,
        d_row=dec.d_row, d_col=dec.d_col, d_err=dec.d_err, grand_mean=0.0,
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
        raise NumericError("variance-component optimizer did not converge", best=res.x)
    s2, s2r, s2c = res.x
    lam = np.array([s2 + c * s2r, s2 + r * s2c, s2]) * scale
    return _random_fit_from_eigenvalues(design, dec, lam)


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
    if fit.kind == ModelKind.FIXED_EFFECTS:
        rows, cols = design.rows_cols()
        mu_hat = (g.mean(axis=1)[:, None] + g.mean(axis=0)[None, :] - zbar)[rows, cols]
    else:
        mu_hat = np.full(design.n, zbar)
    dec = decompose(np.asarray(z, dtype=float) - mu_hat, design)
    if fit.kind == ModelKind.FIXED_EFFECTS:
        lam_r = lam_c = lam_e = fit.sigma2
    else:
        lam_e = fit.sigma2
        lam_r = fit.sigma2 + design.ncols * fit.sigma2_row
        lam_c = fit.sigma2 + design.nrows * fit.sigma2_col
    lam0 = lam_r + lam_c - lam_e
    if min(lam_r, lam_c, lam_e, lam0) <= 0.0:
        raise DomainError("quadratic form needs strictly positive eigenvalues")
    mean_part = design.n * dec.grand_mean**2 / lam0
    return float(
        mean_part + dec.s_row / lam_r + dec.s_col / lam_c + dec.s_err / lam_e
    )


def dense_covariance(design: DesignSpec, sigma2, sigma2_row, sigma2_col) -> np.ndarray:
    """Assemble the n x n covariance explicitly (test oracle for small n)."""
    rows, cols = design.rows_cols()
    same_row = rows[:, None] == rows[None, :]
    same_col = cols[:, None] == cols[None, :]
    return (
        sigma2 * np.eye(design.n)
        + sigma2_row * same_row
        + sigma2_col * same_col
    )
