"""The two benchmark study scripts, run end to end through their main().

Their curve files come from the same writer as `qmatch profile`, so a
script's curve and the CLI's curve for the same sweep are byte-identical.
"""

import csv
import importlib.util
from pathlib import Path

import numpy as np

from qmatch import DesignSpec, boxcox_profile
from qmatch.cli import main as cli_main
from qmatch.cli import write_curve

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli_curve(tmp_path, simulate_args, profile_args):
    data = str(tmp_path / "data.csv")
    curve = tmp_path / "cli_curve.csv"
    assert cli_main(["simulate", *simulate_args, "--out", data]) == 0
    assert cli_main(["profile", *profile_args, "--input", data, "--out", str(curve)]) == 0
    return curve.read_bytes()


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_gaussian_effects_curve_matches_cli(tmp_path, capsys, sorts):
    outdir = tmp_path / "out"
    load_script("run_gaussian_effects").main(["--seed", "0", "--outdir", str(outdir)])
    assert len(sorts) == 1  # one ranking serves every statistic
    assert "gaussian vs uniform" in capsys.readouterr().out
    for model in ("fixed", "random"):
        rows = read_rows(outdir / f"t_profile_{model}.csv")
        assert rows[0] == ["param", "value", "det_term", "jacobian_term"]
        assert len(rows) == 52
    expect = cli_curve(tmp_path, ["--seed", "0"],
                       ["--family", "t", "--model", "fixed", "--refine"])
    assert (outdir / "t_profile_fixed.csv").read_bytes() == expect


def test_cauchy_effects_outputs(tmp_path, capsys, sorts):
    outdir = tmp_path / "out"
    load_script("run_cauchy_effects").main(["--seed", "2", "--outdir", str(outdir)])
    # The sweeps and baselines share one ranking; the correlation report
    # reads the values of y and ranks them itself.
    assert len(sorts) == 2
    assert "correlation of y" in capsys.readouterr().out
    rows = read_rows(outdir / "correlations.csv")
    assert rows[0] == ["target", "correlation"]
    assert len(rows) == 5
    assert all(0.0 < float(c) < 1.0 for _, c in rows[1:])
    expect = cli_curve(tmp_path, ["--seed", "2", "--effects", "cauchy"],
                       ["--family", "alpha", "--model", "fixed", "--refine"])
    assert (outdir / "alpha_profile.csv").read_bytes() == expect


def test_failed_point_is_an_empty_cell(tmp_path, rng):
    # exp of an exactly additive surface: the log point of the power
    # profile is degenerate, every other exponent is fine.
    rows = np.arange(20) % 5
    cols = np.arange(20) // 5
    y = np.exp(rng.normal(size=5)[rows] + rng.normal(size=4)[cols])
    curve = boxcox_profile(y, DesignSpec(5, 4))
    path = tmp_path / "curve.csv"
    write_curve(path, curve)
    body = read_rows(path)[1:]
    assert len(body) == curve.grid.size
    failed = [row for row in body if "" in row]
    assert failed == [["0", "", "", ""]]
    assert all(np.isfinite([float(cell) for cell in row]).all()
               for row in body if row not in failed)
