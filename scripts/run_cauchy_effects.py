#!/usr/bin/env python3
"""Second benchmark study: heavy-tailed (Cauchy) row/column effects.

Sweeps the symmetric power family and the t family on the same data,
compares the fitted targets against gaussian and logistic baselines, and
prints the correlation of the response with each transformed version.
"""

import argparse
from pathlib import Path

from qmatch import (
    AlphaBeta,
    Gaussian,
    Logistic,
    ModelKind,
    SimConfig,
    StudentT,
    correlation_report,
    percentiles,
    profile_alpha,
    profile_student_t,
    reduced_profile_loglik,
    simulate,
)
from qmatch.cli import write_correlations, write_curve


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--outdir", type=Path, default=Path("out_cauchy_effects"))
    args = ap.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)

    out = simulate(SimConfig(effect_dist="cauchy", seed=args.seed))
    design = out.design.with_model(ModelKind.FIXED_EFFECTS)
    print(f"seed {args.seed}: n = {out.design.n} "
          f"({out.design.nrows} x {out.design.ncols}), cauchy effects")

    # The sweeps and the baselines read y only through its ranking, made
    # once; the correlation report also reads the values of y.
    ranked = percentiles(out.y)
    a_curve = profile_alpha(ranked, design, refine=True)
    write_curve(args.outdir / "alpha_profile.csv", a_curve)
    alpha_hat = a_curve.argmax_param
    print(f"  power family:  alpha_hat = {alpha_hat:.4f} "
          f"(value {a_curve.argmax_value:.2f})")

    t_curve = profile_student_t(ranked, design, refine=True)
    write_curve(args.outdir / "t_profile.csv", t_curve)
    inv_nu_hat = t_curve.argmax_param
    nu_hat = float("inf") if inv_nu_hat == 0.0 else 1.0 / inv_nu_hat
    print(f"  t family:      inv_nu_hat = {inv_nu_hat:.4f} (nu_hat = {nu_hat:.2f}, "
          f"value {t_curve.argmax_value:.2f})")

    for label, dist in (("gaussian", Gaussian()), ("logistic", Logistic())):
        r = reduced_profile_loglik(ranked, dist, design)
        print(f"  {label:14s} value {r.value:.2f}")

    targets = [
        AlphaBeta(alpha_hat, alpha_hat),
        Logistic(),
        Gaussian(),
        StudentT(inv_nu_hat),
    ]
    rep = correlation_report(out.y, targets)
    print("  correlation of y with each transformed version:")
    width = max(len(label) for label in rep.labels)
    for label, c in zip(rep.labels, rep.correlations):
        print(f"    {label:<{width}}  {c:7.4f}")
    write_correlations(args.outdir / "correlations.csv", rep)
    print(f"curves written to {args.outdir}/")


if __name__ == "__main__":
    main()
