"""The benchmark's three workloads.

Every workload draws its datasets from a fixed bank of data seeds; the run
seed picks which of them a run uses, so equal run seeds give equal inputs
and every dataset has reference outputs pinned in ``reference.json``.

* ``cli_paper``   -- one operation is one ``qmatch`` command run as a fresh
  process on 50x30 inputs: what a command-line user waits for, import
  included.
* ``study_paper`` -- one operation is one seed's full paper pipeline (the
  library calls of both study scripts, without file writes) in a warm
  process.
* ``grid_large``  -- one operation is one pass of CLI simulate/compare/
  correlate plus single-target fits and a Box-Cox profile at 1000x300.

This module imports qmatch only inside ``load``, so the set-up time of an
in-process workload includes the package import.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import calibrate

# The README's ``qmatch simulate`` data (intercept 5, gaussian effects)
# contain y <= 0, which the Box-Cox profile rejects.  Box-Cox inputs are
# therefore drawn with this intercept; ``generate`` asserts min(y) > 0.
BOXCOX_INTERCEPT = 20.0

# Output tolerances against the pinned references.  Refined argmax
# positions come from a golden-section search with xtol 1e-3, so a change
# that moves profile values by rounding may move them by up to that much.
TOL_PARAM_ABS = 2e-3
TOL_VALUE_ABS = 1e-9
TOL_VALUE_REL = 1e-9
TOL_CORR_ABS = 1e-9

# Fixed correlation targets (the README's, plus logistic).  Fitted targets
# would tie the correlations to the argmax tolerance above.
CORRELATE_TARGETS = "gaussian,logistic,t:nu=6.67,alpha:a=-0.05"

CLI_ENTRY = "import sys; from qmatch.cli import main; sys.exit(main())"


@dataclass
class Op:
    label: str
    data_seed: int
    steps: list[Callable[[], Any]]    # the timed work, run in order
    read: Callable[[list], dict]      # outputs to check from the steps' results
    reads: tuple[str, ...] = ()       # data files the CLI reads in the op


def _modules():
    import qmatch.cli
    import qmatch.linmodel
    import qmatch.simdesign
    import qmatch.targetdist
    import qmatch.translik
    return {
        "cli": qmatch.cli, "linmodel": qmatch.linmodel, "simdesign": qmatch.simdesign,
        "targetdist": qmatch.targetdist, "translik": qmatch.translik,
    }


def _csv_shape(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return {"header": header, "rows": sum(1 for _ in reader)}


def _csv_floats(path, column):
    with open(path, encoding="utf-8", newline="") as fh:
        return [float(row[column]) for row in list(csv.reader(fh))[1:]]


def _quiet(fn, *args):
    """Call with stdout captured, so in-process CLI output stays off ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _strictly_increasing_copy(y):
    """y + y^3, checked to keep the order and the ties of y exactly."""
    import numpy as np
    y2 = y + y ** 3
    order = np.argsort(y, kind="stable")
    if not np.array_equal(np.diff(y[order]) > 0, np.diff(y2[order]) > 0):
        raise RuntimeError("relabeling map did not preserve the order of y")
    return y2


class Workload:
    name = ""
    bank = range(0)           # data seeds with pinned references
    per_run = 1               # datasets a run uses
    in_process = True
    kernel = None             # machine-speed calibration kernel (calibrate.py)

    def __init__(self, seed, reference=None, env=None):
        rng = random.Random(f"{self.name}:{seed}")
        self.data_seeds = rng.sample(list(self.bank), self.per_run)
        self.reference = reference
        self.env = env            # environment of child interpreters
        self.m = None

    def load(self):
        self.m = _modules()

    def simulate(self, **config):
        sim = self.m["simdesign"]
        return sim.simulate(sim.SimConfig(**config))

    def positive(self, **config):
        out = self.simulate(intercept=BOXCOX_INTERCEPT, **config)
        if not float(out.y.min()) > 0.0:
            raise RuntimeError(
                f"Box-Cox input for {config} has min(y) = {float(out.y.min())!r} <= 0")
        return out

    def evals(self, op):
        return self.reference[str(op.data_seed)][op.label]["evals"]

    def check(self, op, outputs):
        want = self.reference[str(op.data_seed)][op.label]["outputs"]
        return compare_outputs(outputs, want)

    def rank_check(self):
        """Bit-identical reduced value after a strictly increasing relabeling."""
        out = self.rank_data()
        design = out.design.with_model(self.m["linmodel"].ModelKind.FIXED_EFFECTS)
        f = self.m["translik"].reduced_profile_loglik
        target = self.m["targetdist"].StudentT(0.25)
        return f(_strictly_increasing_copy(out.y), target, design).value == \
            f(out.y, target, design).value


def _curve_outputs(prefix, curve):
    return {f"{prefix}.argmax_param": curve.argmax_param,
            f"{prefix}.argmax_value": curve.argmax_value}


class StudyPaper(Workload):
    """Both study scripts' library calls on one seed, warm, in process."""

    name = "study_paper"
    bank = range(32)
    per_run = 16
    kernel = calibrate.SmallArrays

    def generate(self):
        self.data = {
            s: (self.simulate(seed=s, effect_dist="gaussian"),
                self.simulate(seed=s, effect_dist="cauchy"),
                self.positive(seed=s, effect_dist="gaussian"))
            for s in self.data_seeds
        }

    def rank_data(self):
        return self.data[self.data_seeds[0]][1]

    def cycle(self, in_process=True):
        return [Op("pipeline", s, [lambda s=s: self.pipeline(s)], lambda results: results[0])
                for s in self.data_seeds]

    def pipeline(self, s):
        T, D = self.m["translik"], self.m["targetdist"]
        kinds = self.m["linmodel"].ModelKind
        g, c, p = self.data[s]
        fixed = g.design.with_model(kinds.FIXED_EFFECTS)
        models = (("fixed", fixed), ("random", g.design.with_model(kinds.RANDOM_EFFECTS)))
        out = {}
        # Gaussian-effects study.
        for tag, design in models:
            out.update(_curve_outputs(f"gauss.t_{tag}",
                                      T.profile_student_t(g.y, design, refine=True)))
        out["gauss.lr"] = T.loglik_ratio(g.y, D.Gaussian(), D.Uniform(), fixed)
        diag = T.lr_diagnostics_gaussian_uniform(g.y, fixed)
        out["gauss.diag.det_term"] = diag.det_term
        out["gauss.diag.correction_term"] = diag.correction_term
        out["gauss.diag.lr"] = diag.lr
        # Cauchy-effects study.
        out.update(_curve_outputs("cauchy.alpha", T.profile_alpha(c.y, fixed, refine=True)))
        for tag, design in models:
            out.update(_curve_outputs(f"cauchy.t_{tag}",
                                      T.profile_student_t(c.y, design, refine=True)))
        for label, dist in (("gaussian", D.Gaussian()), ("logistic", D.Logistic())):
            out[f"cauchy.{label}.value"] = T.reduced_profile_loglik(c.y, dist, fixed).value
        targets = self.m["cli"].parse_target_list(CORRELATE_TARGETS)
        out["cauchy.correlations"] = [
            float(x) for x in T.correlation_report(c.y, targets).correlations]
        # Box-Cox comparator on positive data.
        out.update(_curve_outputs("positive.boxcox", T.boxcox_profile(p.y, fixed)))
        return out


class GridLarge(Workload):
    """Whole-array passes at 1000x300 (n = 300000): I/O, percentiles, fits."""

    name = "grid_large"
    bank = range(8)
    per_run = 1
    kernel = calibrate.LargeArrays
    nrows, ncols = 1000, 300

    def generate(self):
        s = self.data_seeds[0]
        shape = dict(nrows=self.nrows, ncols=self.ncols, seed=s, effect_dist="gaussian")
        self.data = (self.simulate(**shape), self.positive(**shape))

    def rank_data(self):
        return self.data[0]

    def cycle(self, in_process=True):
        return [Op("pass", self.data_seeds[0], self.pass_steps(), self.read_pass,
                   reads=("out/grid.csv",) * 2)]

    def pass_steps(self):
        """One pass as separate steps, so calibration can run between them."""
        cli, T, D = self.m["cli"], self.m["translik"], self.m["targetdist"]
        kinds = self.m["linmodel"].ModelKind
        g, p = self.data
        commands = [
            ["simulate", "--nrows", str(self.nrows), "--ncols", str(self.ncols),
             "--effects", "gaussian", "--seed", str(self.data_seeds[0]), "--out", "out/grid.csv"],
            ["compare", "--a", "gaussian", "--b", "uniform",
             "--input", "out/grid.csv", "--out", "out/compare.json"],
            ["correlate", "--input", "out/grid.csv",
             "--targets", CORRELATE_TARGETS, "--out", "out/corr.csv"],
        ]
        steps = [lambda argv=argv: {f"exit_code.{argv[0]}": _quiet(cli.main, argv)}
                 for argv in commands]
        for tag, kind in (("fixed", kinds.FIXED_EFFECTS), ("random", kinds.RANDOM_EFFECTS)):
            design = g.design.with_model(kind)
            for label, dist in (("gaussian", D.Gaussian()), ("t", D.StudentT(0.15)),
                                ("alpha", D.AlphaBeta(-0.05, -0.05))):
                steps.append(lambda key=f"{label}_{tag}.value", dist=dist, design=design:
                             {key: T.reduced_profile_loglik(g.y, dist, design).value})
        fixed = p.design.with_model(kinds.FIXED_EFFECTS)
        steps.append(lambda: _curve_outputs("positive.boxcox", T.boxcox_profile(p.y, fixed)))
        return steps

    def read_pass(self, results):
        out = {k: v for part in results for k, v in part.items()}
        out["simulate.csv"] = _csv_shape("out/grid.csv")
        with open("out/compare.json", encoding="utf-8") as fh:
            out["compare.lr"] = json.load(fh)["lr"]
        out["correlate.correlations"] = _csv_floats("out/corr.csv", 1)
        return out


def _cli_commands(s):
    """(label, argv) of the cli_paper command mix on dataset s."""
    g, c, p = f"in/g{s}.csv", f"in/c{s}.csv", f"in/p{s}.csv"
    return [
        ("simulate_gaussian", ["simulate", "--effects", "gaussian", "--seed", str(s),
                               "--out", "out/sim_gaussian.csv"]),
        ("simulate_cauchy", ["simulate", "--effects", "cauchy", "--seed", str(s),
                             "--out", "out/sim_cauchy.csv"]),
        ("profile_t_fixed", ["profile", "--family", "t", "--model", "fixed",
                             "--input", g, "--out", "out/profile_t_fixed.csv"]),
        ("profile_t_random_refine", ["profile", "--family", "t", "--model", "random",
                                     "--refine", "--input", c,
                                     "--out", "out/profile_t_random_refine.csv"]),
        ("profile_alpha_fixed_refine", ["profile", "--family", "alpha", "--model", "fixed",
                                        "--refine", "--input", c,
                                        "--out", "out/profile_alpha_fixed_refine.csv"]),
        ("profile_boxcox", ["profile", "--family", "boxcox", "--input", p,
                            "--out", "out/profile_boxcox.csv"]),
        ("compare", ["compare", "--a", "gaussian", "--b", "uniform", "--input", g,
                     "--out", "out/compare.json"]),
        ("correlate", ["correlate", "--input", c, "--targets", CORRELATE_TARGETS,
                       "--out", "out/correlate.csv"]),
    ]


def _read_cli_outputs(label, argv, code):
    out = {"exit_code": code}
    path = argv[argv.index("--out") + 1]
    if label.startswith("simulate"):
        out["csv"] = _csv_shape(path)
    elif label.startswith("profile"):
        with open(path + ".summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        out["argmax_param"] = summary["argmax_param"]
        out["argmax_value"] = summary["argmax_value"]
        out["curve.csv"] = _csv_shape(path)
    elif label == "compare":
        with open(path, encoding="utf-8") as fh:
            out["lr"] = json.load(fh)["lr"]
    else:
        out["correlations"] = _csv_floats(path, 1)
    return out


class CliPaper(Workload):
    """The paper-size command mix, each command a fresh ``qmatch`` process."""

    name = "cli_paper"
    bank = range(16)
    per_run = 1
    in_process = False
    kernel = calibrate.ImportNumpy

    def generate(self):
        """Write the input CSVs with the package's own writer."""
        main = self.m["cli"].main
        for s in self.data_seeds:
            main(["simulate", "--effects", "gaussian", "--seed", str(s), "--out", f"in/g{s}.csv"])
            main(["simulate", "--effects", "cauchy", "--seed", str(s), "--out", f"in/c{s}.csv"])
            main(["simulate", "--effects", "gaussian", "--seed", str(s),
                  "--intercept", repr(BOXCOX_INTERCEPT), "--out", f"in/p{s}.csv"])
            if not min(_csv_floats(f"in/p{s}.csv", 3)) > 0.0:
                raise RuntimeError(f"Box-Cox input in/p{s}.csv has min(y) <= 0")

    def rank_data(self):
        return self.simulate(seed=self.data_seeds[0], effect_dist="cauchy")

    def cycle(self, in_process=False):
        ops = []
        for s in self.data_seeds:
            for label, argv in _cli_commands(s):
                if in_process:
                    run = (lambda argv=argv: _quiet(self.m["cli"].main, argv))
                else:
                    run = (lambda argv=argv: subprocess.run(
                        [sys.executable, "-c", CLI_ENTRY, *argv], env=self.env,
                        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                        timeout=120, check=False).returncode)
                reads = (argv[argv.index("--input") + 1],) if "--input" in argv else ()
                ops.append(Op(label, s, [run],
                              lambda results, label=label, argv=argv:
                              _read_cli_outputs(label, argv, results[0]), reads))
        return ops


WORKLOADS = {w.name: w for w in (CliPaper, StudyPaper, GridLarge)}


def compare_outputs(got, want, key=""):
    """Mismatches between outputs and their pinned reference, as strings."""
    if isinstance(want, dict) and not ("header" in want and "rows" in want):
        bad = []
        for k, w in want.items():
            if k not in got:
                bad.append(f"{key}{k}: missing")
            else:
                bad += compare_outputs(got[k], w, f"{key}{k}.")
        return bad
    name = key.rstrip(".")
    if isinstance(want, list) and all(isinstance(w, float) for w in want):
        if len(got) != len(want) or any(
                not abs(g - w) <= TOL_CORR_ABS for g, w in zip(got, want)):
            return [f"{name}: {got!r} != {want!r}"]
        return []
    if isinstance(want, float):
        if name.endswith("argmax_param"):
            ok = abs(got - want) <= TOL_PARAM_ABS
        else:
            ok = abs(got - want) <= TOL_VALUE_ABS + TOL_VALUE_REL * abs(want)
        return [] if ok and math.isfinite(got) else [f"{name}: {got!r} != {want!r}"]
    return [] if got == want else [f"{name}: {got!r} != {want!r}"]


def load_reference(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def chdir_work(root: Path, tag: str) -> Path:
    """Create and enter a private work directory inside the checkout."""
    work = root / ".bench_work" / f"{tag}-{os.getpid()}"
    (work / "in").mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(exist_ok=True)
    os.chdir(work)
    return work


def leave_work(root: Path, work: Path):
    os.chdir(root)
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        work.parent.rmdir()               # only if no other run is using it
