"""End-to-end command-line tests, run in process through main(argv)."""

import argparse
import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import urllib.request
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import line_end_scan_reads_as_csv, write_data_csv_rows
from qmatch import AlphaBeta, DesignSpec, DomainError, Gaussian, SimConfig, StudentT, simulate
from qmatch import cli
from qmatch.cli import (
    MAX_GRID_POINTS,
    UsageError,
    _grid_from_args,
    main,
    parse_target,
    parse_target_list,
    read_data_csv,
)
from qmatch.translik import family_grid


@pytest.fixture(scope="module")
def bench_csv(tmp_path_factory):
    """Standard 50 x 30 gaussian-effects dataset written once per module."""
    path = tmp_path_factory.mktemp("cli") / "bench.csv"
    assert main(["simulate", "--seed", "0", "--out", str(path)]) == 0
    return path


class TestParseTarget:
    def test_plain_names(self):
        assert parse_target("gaussian") == Gaussian()
        assert parse_target(" LOGISTIC ").kind == "logistic"
        assert parse_target("uniform").kind == "uniform"

    def test_t_parameterizations(self):
        assert parse_target("t:inv_nu=0.15") == StudentT(0.15)
        assert parse_target("student_t:nu=4") == StudentT(0.25)
        assert parse_target("t:nu=6.67").inv_nu == pytest.approx(1 / 6.67)

    def test_alpha_parameterizations(self):
        assert parse_target("alpha:a=-0.05") == AlphaBeta(-0.05, -0.05)
        assert parse_target("alpha_beta:a=0.3,b=0.2") == AlphaBeta(0.3, 0.2)
        assert parse_target("alpha:alpha=0.1,beta=0.4") == AlphaBeta(0.1, 0.4)

    @pytest.mark.parametrize(
        "spec",
        [
            "frobnicate",
            "t",                    # missing parameter
            "t:nu",                 # missing '='
            "t:nu=abc",
            "t:nu=0.5",             # nu < 1
            "t:inv_nu=1.5",
            "alpha:b=0.2",          # a= required
            "alpha:a=2.0",          # out of range
            "gaussian:mean=0",      # unknown parameter
        ],
    )
    def test_bad_specs(self, spec):
        with pytest.raises(UsageError):
            parse_target(spec)


class TestParseTargetList:
    def test_comma_continuation(self):
        dists = parse_target_list("gaussian,alpha:a=-0.1,b=0.3,t:nu=5,uniform")
        assert len(dists) == 4
        assert dists[1] == AlphaBeta(-0.1, 0.3)
        assert dists[2] == StudentT(0.2)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            parse_target_list("  ,  ")


class TestSimulateCommand:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = main(["simulate", "--seed", "3", "--nrows", "2", "--ncols", "2",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,row,col,y"
        assert len(lines) == 5
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 3
        assert manifest["config"]["nrows"] == 2
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == scipy.__version__
        system = f"{platform.system()}-{platform.release()}-{platform.machine()}"
        assert manifest["platform"].startswith(system)

    def test_manifest_starts_no_process(self, tmp_path, monkeypatch):
        # platform caches what it looked up; empty its caches so that the
        # manifest takes the path of a first call in a fresh process.
        monkeypatch.setattr(platform, "_uname_cache", None)
        monkeypatch.setattr(platform, "_platform_cache", {})

        def no_process(*args, **kwargs):
            raise AssertionError("a subprocess was started")

        # platform swallows an OSError from a subprocess; AssertionError is
        # not one.
        monkeypatch.setattr(subprocess, "Popen", no_process)
        out = tmp_path / "d.csv"
        assert main(["simulate", "--seed", "3", "--nrows", "2", "--ncols", "2",
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert manifest["platform"].startswith(platform.system())

    def test_unix_line_endings(self, bench_csv):
        assert b"\r" not in bench_csv.read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "d.csv"
        args = ["simulate", "--seed", "11", "--nrows", "6", "--ncols", "4",
                "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        first_manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert main(args) == 0
        assert out.read_bytes() == first
        second_manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        first_manifest.pop("timestamp")
        second_manifest.pop("timestamp")
        assert first_manifest == second_manifest

    def test_roundtrip_preserves_floats(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["simulate", "--seed", "7", "--nrows", "5", "--ncols", "3",
                     "--out", str(out)]) == 0
        y, design = read_data_csv(str(out))
        ref = simulate(SimConfig(nrows=5, ncols=3, seed=7))
        assert np.array_equal(y, ref.y)
        assert design == ref.design

    def test_unwritable_path(self, tmp_path):
        rc = main(["simulate", "--seed", "0",
                   "--out", str(tmp_path / "missing_dir" / "d.csv")])
        assert rc == 1

    def test_noise_sd_flag_is_gone(self, tmp_path, capsys):
        # Noise is standard normal; a caller still passing --noise-sd fails
        # with a usage error instead of having it ignored.
        out = tmp_path / "d.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--noise-sd", "1", "--seed", "0", "--out", str(out)])
        assert exc.value.code == 2
        assert "--noise-sd" in capsys.readouterr().err
        assert not out.exists()


class TestProfileCommand:
    def test_t_family_summary(self, bench_csv, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["profile", "--family", "t", "--input", str(bench_csv),
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,value,det_term,jacobian_term"
        assert len(lines) == 52
        summary = json.loads((tmp_path / "curve.csv.summary.json").read_text())
        assert summary["family"] == "t"
        assert summary["model"] == "fixed"
        assert summary["n"] == 1500
        assert summary["argmax_param"] <= 0.05
        assert "gaussian_value" in summary["comparators"]
        assert summary["warnings"] == []

    def test_alpha_family_comparators(self, bench_csv, tmp_path):
        out = tmp_path / "alpha.csv"
        rc = main(["profile", "--family", "alpha", "--input", str(bench_csv),
                   "--model", "random",
                   "--grid-start", "-0.5", "--grid-stop", "0.5",
                   "--grid-step", "0.05",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((tmp_path / "alpha.csv.summary.json").read_text())
        comp = summary["comparators"]
        assert {"gaussian_value", "logistic_value", "t_family_argmax"} <= set(comp)
        assert 0.0 <= comp["t_family_argmax"]["inv_nu"] <= 1.0
        assert summary["model"] == "random"
        assert len(out.read_text().splitlines()) == 22

    def test_custom_grid_needs_all_three_flags(self, bench_csv, tmp_path, capsys):
        rc = main(["profile", "--family", "t", "--input", str(bench_csv),
                   "--grid-start", "0.0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        # Not a target-spec error, so no grammar follows the message.
        err = capsys.readouterr().err
        assert "--grid-start, --grid-stop and --grid-step" in err
        assert "target spec grammar" not in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--grid-start", "--grid-stop", "--grid-step"])
    def test_non_finite_grid_flag(self, bench_csv, tmp_path, capsys, flag, value):
        grid = {"--grid-start": "0", "--grid-stop": "1", "--grid-step": "0.1", flag: value}
        rc = main(["profile", "--family", "t", "--input", str(bench_csv),
                   *(x for item in grid.items() for x in item),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--grid-start, --grid-stop and --grid-step must be finite" in err
        assert "target spec grammar" not in err

    @pytest.mark.parametrize("family", ["t", "boxcox"])
    @pytest.mark.parametrize("start,stop,step", [
        ("0", "1", "1e-300"),
        # (stop - start) / step is exactly MAX_GRID_POINTS: one point over.
        ("0", repr(0.5 * MAX_GRID_POINTS), "0.5"),
        # stop - start overflows to inf.
        ("-1e308", "1e308", "1"),
    ], ids=["step-1e-300", "one-over-max", "span-overflows"])
    def test_grid_over_max_points(self, tmp_path, capsys, monkeypatch, family, start, stop,
                                  step):
        # The grid is checked before the data are read; a grid let through
        # fails here instead of starting a sweep.
        def unread(path):
            raise AssertionError("grid accepted")

        monkeypatch.setattr("qmatch.cli.read_data_csv", unread)
        tracemalloc.start()
        try:
            rc = main(["profile", "--family", family, "--input", str(tmp_path / "y.csv"),
                       f"--grid-start={start}", "--grid-stop", stop, "--grid-step", step,
                       "--out", str(tmp_path / "x.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert f"grid must have at most {MAX_GRID_POINTS} points" in err
        assert "target spec grammar" not in err
        # Refused before allocating: a grid would take 8 bytes a point.
        assert peak < 4 * MAX_GRID_POINTS
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("family, grid, message", [
        ("t", ["--grid-start", "0", "--grid-stop", "2", "--grid-step", "0.5"],
         "inv_nu grid must lie in [0, 1]"),
        ("alpha", ["--grid-start=-5", "--grid-stop", "1", "--grid-step", "0.5"],
         "alpha grid must lie in [-1, 1]"),
    ])
    def test_grid_outside_family_range(self, tmp_path, capsys, monkeypatch, family, grid,
                                       message):
        # The family's range is checked with the other flags, before the
        # data are read: a missing input is never opened.
        def unread(path):
            raise AssertionError("grid accepted")

        monkeypatch.setattr("qmatch.cli.read_data_csv", unread)
        rc = main(["profile", "--family", family, "--input", str(tmp_path / "missing.csv"),
                   *grid, "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_boxcox_grid_has_no_range(self, tmp_path, monkeypatch):
        class Read(Exception):
            pass

        def read(path):
            raise Read

        monkeypatch.setattr("qmatch.cli.read_data_csv", read)
        with pytest.raises(Read):
            main(["profile", "--family", "boxcox", "--input", str(tmp_path / "y.csv"),
                  "--grid-start=-400", "--grid-stop", "400", "--grid-step", "1",
                  "--out", str(tmp_path / "x.csv")])

    @pytest.mark.parametrize("family", list(cli._sweeps()))
    def test_every_family_has_a_grid(self, family):
        grid = family_grid(family)
        assert grid.dtype == np.float64 and grid.ndim == 1 and grid.size > 0

    @pytest.mark.parametrize("start,stop,step", [
        ("0", "1", "0"), ("0", "1", "-0.1"), ("0.5", "0.1", "0.1"),
    ], ids=["zero-step", "negative-step", "stop-below-start"])
    def test_grid_without_points(self, tmp_path, capsys, start, stop, step):
        rc = main(["profile", "--family", "t", "--input", str(tmp_path / "y.csv"),
                   "--grid-start", start, "--grid-stop", stop, f"--grid-step={step}",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "grid must have positive step and stop >= start" in err
        assert "target spec grammar" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_grid_of_max_points_is_accepted(self):
        args = argparse.Namespace(grid_start=0.0, grid_stop=0.5 * (MAX_GRID_POINTS - 1),
                                  grid_step=0.5)
        assert _grid_from_args(args).size == MAX_GRID_POINTS

    def test_help_states_max_grid_points(self, capsys):
        with pytest.raises(SystemExit):
            main(["profile", "--help"])
        assert f"{MAX_GRID_POINTS} points" in " ".join(capsys.readouterr().out.split())

    def test_boxcox_refine(self, tmp_path):
        data = tmp_path / "positive.csv"
        assert main(["simulate", "--seed", "2", "--intercept", "20", "--out", str(data)]) == 0
        out = tmp_path / "x.csv"
        rc = main(["profile", "--family", "boxcox", "--input", str(data), "--refine",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((tmp_path / "x.csv.summary.json").read_text())
        # The grid argmax is 0.9; refinement moves it into the cell above.
        assert 0.9 < summary["argmax_param"] < 0.95
        assert summary["manifest"]["config"]["refine"] is True
        assert summary["warnings"] == []

    @pytest.mark.parametrize("family, start, step", [
        ("alpha", "-0.95", "0.05"),
        ("t", "0.09", "0.07"),
    ])
    def test_custom_grid_ends_at_its_stop(self, tmp_path, family, start, step):
        # start + step * k rounds to 1.0000000000000002 on these grids, which
        # lies outside the family's range unless the grid is clipped.
        data = tmp_path / "cauchy.csv"
        assert main(["simulate", "--seed", "2", "--effects", "cauchy", "--out", str(data)]) == 0
        out = tmp_path / "x.csv"
        rc = main(["profile", "--family", family, "--input", str(data),
                   f"--grid-start={start}", "--grid-stop", "1", "--grid-step", step,
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[-1].split(",")[0] == "1"

    def test_custom_grid_never_passes_its_stop(self):
        for start in np.arange(-100, 101) / 100:
            for step in np.arange(1, 12) / 100:
                args = argparse.Namespace(grid_start=float(start), grid_stop=1.0,
                                          grid_step=float(step))
                assert _grid_from_args(args).max() <= 1.0, (start, step)

    def test_boxcox_nonpositive_data(self, tmp_path):
        data = tmp_path / "neg.csv"
        data.write_text(
            "index,row,col,y\n0,0,0,1.0\n1,1,0,2.0\n2,0,1,-0.5\n3,1,1,3.0\n"
        )
        rc = main(["profile", "--family", "boxcox", "--input", str(data),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    @pytest.mark.parametrize("model", ["fixed", "random"])
    def test_boxcox_identity_value_is_the_curve_at_one(self, tmp_path, model):
        for seed in range(4):
            data = tmp_path / f"positive{seed}.csv"
            assert main(["simulate", "--seed", str(seed), "--intercept", "20",
                         "--out", str(data)]) == 0
            out = tmp_path / f"curve{seed}.csv"
            assert main(["profile", "--family", "boxcox", "--model", model,
                         "--input", str(data), "--out", str(out)]) == 0
            summary = json.loads((tmp_path / f"curve{seed}.csv.summary.json").read_text())
            with open(out, newline="") as fh:
                at_one = [row for row in csv.DictReader(fh) if float(row["param"]) == 1.0]
            assert len(at_one) == 1
            assert summary["comparators"]["identity_value"] == float(at_one[0]["value"])

    def test_boxcox_identity_value_off_the_grid(self, tmp_path):
        data = tmp_path / "positive.csv"
        assert main(["simulate", "--seed", "0", "--intercept", "20", "--out", str(data)]) == 0
        comparators = []
        for name, grid in (("default", []),
                           ("custom", ["--grid-start", "0.1", "--grid-stop", "0.5",
                                       "--grid-step", "0.1"])):
            out = tmp_path / f"{name}.csv"
            assert main(["profile", "--family", "boxcox", "--input", str(data), *grid,
                         "--out", str(out)]) == 0
            summary = json.loads((tmp_path / f"{name}.csv.summary.json").read_text())
            comparators.append(summary["comparators"])
        assert 1.0 not in [float(line.split(",")[0])
                           for line in (tmp_path / "custom.csv").read_text().splitlines()[1:]]
        assert comparators[1] == comparators[0]

    @pytest.mark.parametrize("model", ["fixed", "random"])
    @pytest.mark.parametrize("nrows, ncols", [(5, 4), (50, 30)])
    def test_boxcox_degenerate_identity_fit(self, tmp_path, capsys, model, nrows, ncols):
        # y = 10 + row + 2 col is exactly additive: its identity fit has no
        # interaction left, while the other grid exponents fit.
        data = tmp_path / "additive.csv"
        cells = [(r, c) for c in range(ncols) for r in range(nrows)]
        data.write_text("index,row,col,y\n" + "".join(
            f"{i},{r},{c},{10 + r + 2 * c}\n" for i, (r, c) in enumerate(cells)))
        out = tmp_path / "x.csv"
        rc = main(["profile", "--family", "boxcox", "--model", model, "--input", str(data),
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        assert not (tmp_path / "x.csv.summary.json").exists()

    def test_constant_response_is_numeric_failure(self, tmp_path, capsys):
        data = tmp_path / "const.csv"
        data.write_text(
            "index,row,col,y\n0,0,0,1.0\n1,1,0,1.0\n2,0,1,1.0\n3,1,1,1.0\n"
        )
        rc = main(["profile", "--family", "t", "--input", str(data),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 4
        assert "numeric failure" in capsys.readouterr().err


class TestCompareCommand:
    def run_json(self, argv, capsys):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_same_target_gives_zero(self, bench_csv, capsys):
        report = self.run_json(
            ["compare", "--a", "t:inv_nu=0.3", "--b", "t:inv_nu=0.3",
             "--input", str(bench_csv)], capsys)
        assert report["lr"] == 0.0
        assert report["a"]["value"] == report["b"]["value"]

    def test_gaussian_uniform_diagnostics(self, bench_csv, capsys):
        report = self.run_json(
            ["compare", "--a", "gaussian", "--b", "uniform",
             "--input", str(bench_csv)], capsys)
        diag = report["gaussian_uniform_diagnostics"]
        assert diag["det_term_linear"] == -0.5 * math.log(12) * 1500
        assert diag["correction_linear"] == 1500 * Gaussian().entropy()
        assert diag["lr"] == report["lr"]
        approx = report["entropy_approximation"]
        assert approx["jacobian_b"] == 0.0

    def test_reversed_gaussian_uniform_orientation(self, bench_csv, capsys):
        report = self.run_json(
            ["compare", "--a", "uniform", "--b", "gaussian",
             "--input", str(bench_csv)], capsys)
        assert list(report) == ["lr", "a", "b", "entropy_approximation",
                                "gaussian_uniform_diagnostics", "manifest"]
        diag = report["gaussian_uniform_diagnostics"]
        assert diag["orientation"] == "gaussian_minus_uniform"
        assert diag["det_term"] == report["b"]["det_term"] - report["a"]["det_term"]
        assert diag["correction_term"] == report["b"]["jacobian_term"]
        assert diag["correction_linear"] == report["entropy_approximation"]["jacobian_b"]
        assert report["lr"] == -diag["lr"]

    def test_entropy_approximation_for_logistic(self, bench_csv, capsys):
        report = self.run_json(
            ["compare", "--a", "logistic", "--b", "uniform",
             "--input", str(bench_csv)], capsys)
        assert report["entropy_approximation"]["jacobian_a"] == 2.0 * 1500
        assert report["entropy_approximation"]["lr"] == pytest.approx(
            report["lr"], abs=0.02 * 1500)

    def test_output_file_matches_stdout(self, bench_csv, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        report = self.run_json(
            ["compare", "--a", "gaussian", "--b", "logistic",
             "--input", str(bench_csv), "--out", str(out)], capsys)
        assert json.loads(out.read_text()) == report

    def test_entropy_approximation_near_the_gaussian(self, bench_csv, capsys):
        # At inv_nu = 1e-16 the t entropy is the Gaussian's to 1e-16.
        report = self.run_json(
            ["compare", "--a", "t:inv_nu=1e-16", "--b", "gaussian",
             "--input", str(bench_csv)], capsys)
        assert abs(report["entropy_approximation"]["lr"]) < 1e-9

    def test_bad_target_spec(self, bench_csv, capsys):
        rc = main(["compare", "--a", "frobnicate", "--b", "uniform",
                   "--input", str(bench_csv)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "target spec grammar" in err

    @pytest.mark.parametrize("spec", ["t:nu=4,inv_nu=0.25", "alpha:a=0.1,alpha=0.2"])
    def test_field_given_twice(self, bench_csv, capsys, spec):
        rc = main(["compare", "--a", spec, "--b", "gaussian", "--input", str(bench_csv)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "given twice" in err
        assert "target spec grammar" in err


class TestOneRankingPerCommand:
    """A command ranks its response once and hands the ranking to every
    rank-based call; Box-Cox reads the data values and ranks nothing."""

    @pytest.mark.parametrize("argv", [
        ["compare", "--a", "gaussian", "--b", "uniform"],
        ["profile", "--family", "t", "--refine"],
        ["profile", "--family", "alpha", "--refine"],
    ], ids=["compare", "profile-t", "profile-alpha"])
    def test_one_sort(self, bench_csv, tmp_path, capsys, sorts, argv):
        assert main([*argv, "--input", str(bench_csv), "--out", str(tmp_path / "x")]) == 0
        assert len(sorts) == 1

    def test_boxcox_sorts_nothing(self, tmp_path, sorts):
        data = str(tmp_path / "positive.csv")
        assert main(["simulate", "--seed", "3", "--intercept", "20", "--out", data]) == 0
        assert main(["profile", "--family", "boxcox", "--input", data,
                     "--out", str(tmp_path / "x.csv")]) == 0
        assert sorts == []


class TestCorrelateCommand:
    def test_uniform_column_matches_rank_correlation(self, bench_csv, capsys):
        assert main(["correlate", "--input", str(bench_csv),
                     "--targets", "uniform"]) == 0
        line = capsys.readouterr().out.strip()
        label, value = line.split()
        assert label == "uniform"
        y, _ = read_data_csv(str(bench_csv))
        from qmatch import percentiles
        expect = np.corrcoef(y, percentiles(y).p)[0, 1]
        assert float(value) == pytest.approx(expect, abs=5e-5)

    def test_csv_output(self, bench_csv, tmp_path, capsys):
        out = tmp_path / "cors.csv"
        rc = main(["correlate", "--input", str(bench_csv),
                   "--targets", "gaussian,t:nu=5,alpha:a=-0.1,b=-0.1",
                   "--out", str(out)])
        assert rc == 0
        import csv
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["target", "correlation"]
        assert len(rows) == 4
        values = [float(row[1]) for row in rows[1:]]
        assert all(-1.0 <= v <= 1.0 for v in values)
        assert (tmp_path / "cors.csv.manifest.json").exists()
        text_lines = capsys.readouterr().out.strip().splitlines()
        assert len(text_lines) == 3

    def test_empty_targets(self, bench_csv):
        assert main(["correlate", "--input", str(bench_csv),
                     "--targets", " , "]) == 2


def _outputs(monkeypatch, workdir):
    """profile, compare and correlate output files on workdir/data.csv, minus timestamps."""
    monkeypatch.chdir(workdir)
    assert main(["profile", "--family", "t", "--model", "random", "--refine",
                 "--input", "data.csv", "--out", "curve.csv"]) == 0
    assert main(["compare", "--a", "t:nu=4", "--b", "logistic",
                 "--input", "data.csv", "--out", "compare.json"]) == 0
    assert main(["correlate", "--input", "data.csv",
                 "--targets", "gaussian,t:nu=6.67,alpha:a=-0.05", "--out", "corr.csv"]) == 0
    return {
        name: [line for line in Path(name).read_text().splitlines() if '"timestamp"' not in line]
        for name in ("curve.csv", "curve.csv.summary.json", "compare.json", "corr.csv")
    }


def _subparser(command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


class TestManifest:
    """Each manifest records every flag of its command as parsed."""

    @pytest.mark.parametrize("argv, manifest_of", [
        (["simulate", "--seed", "3", "--nrows", "3", "--ncols", "2", "--effects", "cauchy",
          "--intercept", "-1.5", "--out", "{tmp}/d.csv"],
         lambda tmp: json.loads((tmp / "d.csv.manifest.json").read_text())),
        (["compare", "--a", "t:nu=4", "--b", "logistic", "--model", "random",
          "--input", "{bench}", "--out", "{tmp}/lr.json"],
         lambda tmp: json.loads((tmp / "lr.json").read_text())["manifest"]),
        (["compare", "--a", "gaussian", "--b", "uniform", "--input", "{bench}"], None),
        (["correlate", "--input", "{bench}", "--targets", "gaussian,t:nu=5",
          "--out", "{tmp}/cors.csv"],
         lambda tmp: json.loads((tmp / "cors.csv.manifest.json").read_text())),
    ])
    def test_every_flag_is_recorded(self, bench_csv, tmp_path, capsys, argv, manifest_of):
        argv = [a.format(tmp=tmp_path, bench=bench_csv) for a in argv]
        assert main(argv) == 0
        if manifest_of is None:
            manifest = json.loads(capsys.readouterr().out)["manifest"]
        else:
            manifest = manifest_of(tmp_path)
        parsed = vars(cli.build_parser().parse_args(argv))
        assert manifest["command"] == argv[0]
        assert manifest["seed"] == parsed.get("seed")
        for action in _subparser(argv[0])._actions:
            if action.dest != "help":
                assert manifest["config"][action.dest] == parsed[action.dest], action.dest

    @pytest.mark.parametrize("grid", [
        [],
        ["--grid-start", "0.1", "--grid-stop", "0.5", "--grid-step", "0.15"],
    ])
    def test_profile_records_the_resolved_grid(self, bench_csv, tmp_path, grid):
        argv = ["profile", "--family", "t", "--model", "random", "--refine", *grid,
                "--input", str(bench_csv), "--out", str(tmp_path / "c.csv")]
        assert main(argv) == 0
        config = json.loads((tmp_path / "c.csv.summary.json").read_text())["manifest"]["config"]
        parsed = vars(cli.build_parser().parse_args(argv))
        params = [float(line.split(",")[0])
                  for line in (tmp_path / "c.csv").read_text().splitlines()[1:]]
        resolved = {"grid_start": params[0], "grid_stop": params[-1],
                    "grid_points": len(params)}
        for action in _subparser("profile")._actions:
            if action.dest != "help":
                assert action.dest in config
                assert config[action.dest] == resolved.get(action.dest, parsed[action.dest])
        assert {k: config[k] for k in resolved} == resolved


class TestCellOrder:
    def test_line_order_and_indexing_do_not_change_results(self, tmp_path, monkeypatch):
        # The same cells, indexed row-major and listed in shuffled order,
        # must give the same bytes as the column-major file.
        col_major, row_major = tmp_path / "col_major", tmp_path / "row_major"
        col_major.mkdir()
        row_major.mkdir()
        data = col_major / "data.csv"
        assert main(["simulate", "--seed", "2", "--effects", "cauchy", "--out", str(data)]) == 0
        header, *lines = data.read_text().splitlines()
        recs = [line.split(",") for line in lines]
        ncols = max(int(rec[2]) for rec in recs) + 1
        reindexed = [f"{int(r) * ncols + int(c)},{r},{c},{y}" for _, r, c, y in recs]
        np.random.default_rng(0).shuffle(reindexed)
        (row_major / "data.csv").write_text("\n".join([header, *reindexed]) + "\n")
        assert _outputs(monkeypatch, row_major) == _outputs(monkeypatch, col_major)

    @settings(max_examples=50, deadline=None)
    @given(shape=st.tuples(st.integers(2, 6), st.integers(2, 6)), data=st.data())
    def test_reader_ignores_line_order_and_index_labels(self, tmp_path_factory, shape, data):
        nrows, ncols = shape
        n = nrows * ncols
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=n, max_size=n))
        lines = data.draw(st.permutations(range(n)))
        labels = data.draw(st.permutations(range(n)))
        body = [f"{labels[i]},{k % nrows},{k // nrows},{values[k]!r}"
                for i, k in enumerate(lines)]
        path = tmp_path_factory.mktemp("cells") / "data.csv"
        path.write_text("\n".join(["index,row,col,y", *body]) + "\n")
        got, design = read_data_csv(str(path))
        assert got.tobytes() == np.array(values).tobytes()
        assert design == DesignSpec(nrows, ncols)


def _read_outcome(path):
    """(y bytes, design) of a data file, or ("error", message)."""
    try:
        y, design = read_data_csv(str(path))
    except DomainError as exc:
        return "error", str(exc)
    return y.tobytes(), design


def _row_loop_outcome(path):
    """``_read_outcome`` with every file read by the csv-module row loop."""
    with mock.patch.object(cli, "_read_columns", return_value=None):
        return _read_outcome(path)


def _assert_reads_as_row_loop(path, capsys, row_loop):
    """The file reads as the row loop reads it, through the row loop or not
    as ``row_loop`` says, and ``compare`` exits on it accordingly: 0 on
    finite data, 3 on a non-finite y or a read error."""
    with mock.patch.object(cli, "_read_rows", wraps=cli._read_rows) as rows:
        got = _read_outcome(path)
    assert rows.called == row_loop
    want = _row_loop_outcome(path)
    assert got == want
    rc = main(["compare", "--a", "gaussian", "--b", "uniform", "--input", str(path)])
    if want[0] == "error":
        assert rc == 3
        assert want[1] in capsys.readouterr().err
    else:
        assert rc == (0 if np.isfinite(np.frombuffer(want[0])).all() else 3)


GRID_2X2 = ["0,0,0,1.5", "1,1,0,-2.25", "2,0,1,0.125", "3,1,1,3.0"]
GRID_3X4 = [f"{k},{k % 3},{k // 3},{(k * 7) % 12 / 8}" for k in range(12)]


def _data_file(lines, header="index,row,col,y", end="\n"):
    return end.join([header, *lines]) + end


class TestDataFileFormat:
    @pytest.mark.parametrize("effects", ["gaussian", "cauchy"])
    # 256 x 256 is exactly one write block; 1000 x 300 ends in a partial one.
    @pytest.mark.parametrize("nrows, ncols", [(2, 2), (50, 30), (256, 256), (1000, 300)])
    def test_writer_matches_row_writer(self, tmp_path, nrows, ncols, effects):
        data, rows = tmp_path / "data.csv", tmp_path / "rows.csv"
        assert main(["simulate", "--nrows", str(nrows), "--ncols", str(ncols),
                     "--effects", effects, "--seed", "5", "--out", str(data)]) == 0
        out = simulate(SimConfig(nrows=nrows, ncols=ncols, effect_dist=effects, seed=5))
        write_data_csv_rows(rows, out.y, out.design)
        assert data.read_bytes() == rows.read_bytes()

    def test_simulated_file_skips_row_loop(self, bench_csv, monkeypatch):
        def row_loop(reader, path):
            raise AssertionError("row loop entered")
        monkeypatch.setattr(cli, "_read_rows", row_loop)
        y, design = read_data_csv(str(bench_csv))
        assert y.tobytes() == simulate(SimConfig(seed=0)).y.tobytes()
        assert design == DesignSpec(50, 30)

    @pytest.mark.parametrize("text, row_loop", [
        pytest.param(_data_file(['"%s"' % line.replace(",", '","') for line in GRID_2X2],
                                header='"index","row","col","y"'), False, id="quoted"),
        pytest.param(_data_file(["+0, 0 ,0,  1.5", "1,+1,0,\t-2.25 ", "2,0,+1,+0.125",
                                 " 3,1 ,1,3.0\u00a0"]), False, id="signed-and-padded"),
        pytest.param(_data_file(GRID_2X2[:2] + [""] + GRID_2X2[2:], end="\r\n"), False,
                     id="crlf-and-blank-line"),
        pytest.param(_data_file(GRID_3X4[:10] + ["1_0" + GRID_3X4[10][2:]] + GRID_3X4[11:]),
                     True, id="underscore-in-index"),
        pytest.param(_data_file(["0,0,0,1.5", "1,\u0661,0,-2.25", *GRID_2X2[2:]]), True,
                     id="non-ascii-digit"),
        pytest.param(_data_file(["0,1.0,0,1.5", "1,0,0,-2.25", *GRID_2X2[2:]]), True,
                     id="float-spelled-row"),
        pytest.param(_data_file(["0,0,0,1.5", "1,1,0.5,-2.25", *GRID_2X2[2:]]), True,
                     id="fractional-col"),
        pytest.param(_data_file(["1e0,1,0,-2.25", "0,0,0,1.5", *GRID_2X2[2:]]), True,
                     id="exponent-in-index"),
        pytest.param(_data_file([*GRID_2X2[:3], "3,1,1,inf"]), True, id="inf-y"),
        pytest.param(_data_file([GRID_2X2[0], "# a comment", *GRID_2X2[1:]]), True,
                     id="comment-line"),
        pytest.param(_data_file([GRID_2X2[0], "  \t", *GRID_2X2[1:]]), True,
                     id="whitespace-only-line"),
        pytest.param(_data_file([*GRID_2X2[:3], "3,1,1,3.0\x1c"]), True,
                     id="separator-after-y"),
        pytest.param(_data_file([*GRID_2X2[:3], "3,1,1,3." + "0" * 140000]), True,
                     id="long-finite-y"),
        pytest.param(_data_file([*GRID_2X2[:3], '3,1,1,"' + "\n" * 140000 + '3.0"']), True,
                     id="long-quoted-y-across-lines"),
        pytest.param(_data_file(GRID_2X2, header='"index\n",row,col,y'), False,
                     id="quoted-header-across-lines"),
        pytest.param(_data_file(GRID_2X2, end="\r"), False, id="cr-line-ends"),
        pytest.param(_data_file([*GRID_2X2[:3], '3,1,1,"3.0\r"']), False, id="cr-in-quoted-y"),
    ])
    def test_reads_as_row_loop(self, tmp_path, capsys, text, row_loop):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        _assert_reads_as_row_loop(path, capsys, row_loop)

    # numpy opens a path with a lower-case compressed-file suffix through a
    # decompressor; a plain-text file so named, in any case, is the row loop's.
    @pytest.mark.parametrize("name", ["data.csv.gz", "data.csv.bz2", "data.csv.xz",
                                      "data.csv.lzma", "data.csv.GZ"])
    def test_compressed_suffix_reads_as_row_loop(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_text(_data_file(GRID_2X2))
        _assert_reads_as_row_loop(path, capsys, row_loop=True)

    def test_url_like_name_reads_as_row_loop(self, tmp_path, capsys, monkeypatch):
        # numpy takes a relative name holding "://" for a URL and would fetch
        # it; the file on disk at that name is the row loop's to read.
        def no_network(*args, **kwargs):
            raise AssertionError("a URL was opened")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        path = "http://host/data.csv"
        Path(path).write_text(_data_file(GRID_2X2))
        _assert_reads_as_row_loop(path, capsys, row_loop=True)

    def test_float_to_int_warning_sends_file_to_row_loop(self, tmp_path, capsys):
        # numpy before 2.0 truncates "1.0" read as an integer and only warns.
        path = tmp_path / "data.csv"
        path.write_text(_data_file(["0,0,0,1.5", "1,1.0,0,-2.25", *GRID_2X2[2:]]))
        loadtxt = np.loadtxt

        def truncating_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return loadtxt(io.StringIO("\n".join(GRID_2X2)), *args[1:], **kwargs)

        with mock.patch.object(cli.np, "loadtxt", truncating_loadtxt):
            assert _read_outcome(path) == ("error", f"{path}:3: malformed row")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_perturbed_fields_read_as_row_loop(self, tmp_path_factory, data):
        affix = st.sampled_from(["", "", "", " ", "\t", "+", "-", "0", "_", '"', ".", "e",
                                 "#", "\x1c", "\x1f", "\u00a0", "\u2003", "\u0661", "\r"])
        lines = []
        for line in GRID_2X2:
            fields = [data.draw(affix) + f + data.draw(affix) for f in line.split(",")]
            lines.append(",".join(fields))
        path = tmp_path_factory.mktemp("fields") / "data.csv"
        path.write_bytes(_data_file(lines).encode("utf-8"))
        assert _read_outcome(path) == _row_loop_outcome(path)

    @settings(max_examples=300, deadline=None)
    @given(lengths=st.lists(st.integers(0, 40), min_size=1, max_size=40),
           trailing=st.integers(0, 40), block=st.integers(1, 64),
           limit=st.integers(1, 32), quote=st.booleans())
    def test_line_scan_matches_line_end_oracle(self, tmp_path_factory, lengths, trailing,
                                               block, limit, quote):
        # Small csv field limits and scan blocks put long lines across
        # block boundaries; each file goes where locating every line end
        # sends it.
        text = b"".join(b"1" * k + b"\n" for k in lengths) + b"2" * trailing
        if quote:
            text = b'"' + text
        path = tmp_path_factory.mktemp("scan") / "data.csv"
        path.write_bytes(text)
        old_limit = csv.field_size_limit(limit)
        try:
            with mock.patch.object(cli, "_SCAN_BLOCK", block):
                got = cli._numpy_reads_as_csv(path)
            assert got == line_end_scan_reads_as_csv(path, block)
        finally:
            csv.field_size_limit(old_limit)


class TestInputValidation:
    def test_wrong_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c,d\n0,0,0,1.0\n")
        rc = main(["profile", "--family", "t", "--input", str(bad),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_index_gap(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("index,row,col,y\n0,0,0,1.0\n2,1,0,2.0\n3,0,1,0.5\n4,1,1,3.0\n")
        rc = main(["compare", "--a", "gaussian", "--b", "uniform",
                   "--input", str(bad)])
        assert rc == 3

    @pytest.mark.parametrize("text", ["index,row,col,y\n", "index,row,col,y",
                                      "index,row,col,y\n\n"])
    def test_header_only(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        rc = main(["compare", "--a", "gaussian", "--b", "uniform", "--input", str(bad)])
        assert rc == 3
        assert f"{bad}: no data rows" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        rc = main(["profile", "--family", "t",
                   "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    @pytest.mark.parametrize("row", ["1,1,0", "1,1,0,2.0,9", "1,1,0,2.0,"])
    def test_row_without_four_fields(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"index,row,col,y\n0,0,0,1.0\n{row}\n2,0,1,0.5\n3,1,1,3.0\n")
        rc = main(["compare", "--a", "gaussian", "--b", "uniform", "--input", str(bad)])
        assert rc == 3
        assert f"{bad}:3: malformed row" in capsys.readouterr().err

    # A record may span physical lines; a malformed row is named by the
    # physical line it ends on.
    @pytest.mark.parametrize("text, line", [
        (_data_file([GRID_2X2[0], "1,1,0,x", *GRID_2X2[2:]], header='"index\n",row,col,y'), 4),
        (_data_file([GRID_2X2[0], '1,1,0,"-2.25\n"', "2,0,1,x", GRID_2X2[3]]), 5),
    ], ids=["after-two-line-header", "after-two-line-record"])
    def test_malformed_row_names_its_physical_line(self, tmp_path, capsys, text, line):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(text.encode("utf-8"))
        assert _read_outcome(bad) == ("error", f"{bad}:{line}: malformed row")
        rc = main(["compare", "--a", "gaussian", "--b", "uniform", "--input", str(bad)])
        assert rc == 3
        assert f"{bad}:{line}: malformed row" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, grammar", [
        (["compare", "--a", "frob", "--b", "gaussian"], True),
        (["correlate", "--targets", "gaussian,frob"], True),
        (["profile", "--family", "t", "--grid-start", "0"], False),
    ])
    def test_flags_checked_before_input_is_read(self, tmp_path, capsys, argv, grammar):
        rc = main([*argv, "--input", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 2
        assert ("target spec grammar" in capsys.readouterr().err) == grammar

    def test_non_utf8_byte(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"index,row,col,y\n0,0,0,\xff\xfe1.0\n")
        rc = main(["profile", "--family", "t", "--input", str(bad),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err

    def test_field_over_csv_limit(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("index,row,col,y\n0,0,0,1.0\n1,1,0," + "1" * 140000 + "\n")
        rc = main(["compare", "--a", "gaussian", "--b", "uniform", "--input", str(bad)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{bad}:3: " in err and "field larger than field limit" in err

    def test_duplicate_cell(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("index,row,col,y\n0,0,0,1.0\n1,1,0,2.0\n2,1,0,0.5\n3,1,1,3.0\n")
        rc = main(["compare", "--a", "gaussian", "--b", "uniform", "--input", str(bad)])
        assert rc == 3
        assert "each (row, col) cell must appear exactly once" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("-1", "layout indices out of range"),
        # Too large for a C long: the grid it implies is larger than the data.
        (str(10**30), "layout index length must equal nrows*ncols"),
    ])
    def test_row_index_outside_grid(self, tmp_path, capsys, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"index,row,col,y\n0,{row},0,1.0\n1,1,0,2.0\n2,0,1,0.5\n3,1,1,3.0\n")
        rc = main(["compare", "--a", "gaussian", "--b", "uniform", "--input", str(bad)])
        assert rc == 3
        assert message in capsys.readouterr().err


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("qmatch ")

    def test_import_leaves_out_scipy_stats_and_optimize(self):
        # Together these two more than doubled the import time of qmatch.cli.
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, qmatch.cli; "
                "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert out.stdout.strip() == "[]"

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
