"""Command-line frontend.

Subcommands:

* ``simulate``  -- draw a benchmark dataset, write it as CSV plus a manifest.
* ``profile``   -- sweep a transformation family over a grid and write the
  curve as CSV plus a summary JSON.
* ``compare``   -- log-likelihood ratio between two targets, as JSON.
* ``correlate`` -- correlations of the response with each transformed
  version, as CSV and an aligned text table.

Target specs are read by ``targetdist.parse_target``; their grammar is
``targetdist.TARGET_GRAMMAR``.  The label each result reports is a spec
that parses back to the same target.

Exit codes: 0 success, 2 usage error, 3 domain/data error, 4 numeric
failure, 1 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import warnings
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np
import scipy

from . import __version__
from .errors import DomainError, NumericError, TargetSpecError, UsageError
from .linmodel import DesignSpec, ModelKind
from .percentile import percentiles
from .simdesign import EFFECTS, SimConfig, simulate
from .targetdist import (
    TARGET_GRAMMAR,
    parse_target,
    parse_target_list,
)
from .translik import (
    boxcox_profile,
    correlation_report,
    family_evaluator,
    family_grid,
    gaussian_uniform_diagnostics,
    profile_alpha,
    profile_student_t,
    reduced_profile_loglik,
)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _platform() -> str:
    """``platform.platform()``'s Linux form without its processor field, whose
    first lookup runs ``uname -p`` in a subprocess; none of these calls
    starts a process."""
    libc = "".join(platform.libc_ver())
    return "-".join(filter(None, [platform.system(), platform.release(), platform.machine(),
                                  libc and "with-" + libc]))


def _manifest(args, **resolved) -> dict:
    """The run's record: every flag as parsed, with ``resolved`` replacing
    the flags a command resolves further, and the versions behind it."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    return {
        "command": args.command,
        "config": {**config, **resolved},
        "tool_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": _platform(),
        "seed": getattr(args, "seed", None),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_curve(path, curve):
    """Write a profile curve as CSV (param,value,det_term,jacobian_term).

    A failed grid point is written as empty cells.
    """

    def cell(v):
        return _fmt(v) if np.isfinite(v) else ""

    _write_csv(
        path,
        ["param", "value", "det_term", "jacobian_term"],
        (
            [_fmt(curve.grid[i]), cell(curve.values[i]),
             cell(curve.det_terms[i]), cell(curve.jacobian_terms[i])]
            for i in range(curve.grid.size)
        ),
    )


def write_correlations(path, report):
    """Write a correlation report as CSV (target,correlation)."""
    _write_csv(
        path,
        ["target", "correlation"],
        ([label, _fmt(c)] for label, c in zip(report.labels, report.correlations)),
    )


# The data columns as numpy parses them.  numpy refuses an integer beyond
# int64, `_` between digits and non-ASCII digits, which int() and float()
# read; the row loop then reads the file.
_DATA_DTYPE = np.dtype([("index", np.int64), ("row", np.int64), ("col", np.int64),
                        ("y", np.float64)])

# numpy strips these ASCII separators from a number as whitespace; int() and
# float() do not.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


# numpy opens a path with one of these suffixes through a decompressor; a
# plain-text file so named is the row loop's to read.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")

# Bytes per read of the scan in ``_numpy_reads_as_csv``.
_SCAN_BLOCK = 1 << 20


def _numpy_reads_as_csv(path) -> bool:
    """Whether numpy, given the path, reads the file as the row loop does.

    numpy opens a name with a compressed-file suffix (any letter case, see
    ``_COMPRESSED_SUFFIXES``) through a decompressor and a name holding
    ``://`` as a URL.  Its parse can disagree on a file holding an ASCII
    separator character (see ``_SEPARATORS``) or a field longer than the
    csv module's field limit.  An unquoted field lies within one line,
    while a quoted one may span lines, so a file longer than the limit must
    hold no quote character and no line longer than the limit.
    """
    name = os.fsdecode(path)
    if name.lower().endswith(_COMPRESSED_SUFFIXES) or "://" in name:
        return False
    limit = csv.field_size_limit()
    with open(path, "rb") as fb:
        short = os.fstat(fb.fileno()).st_size <= limit
        run = 0  # the length so far of the line the last block ends in
        while block := fb.read(_SCAN_BLOCK):
            # Four memchr-speed searches, one per separator, cost less than
            # one regex character-class or numpy range-test pass.
            if any(sep in block for sep in _SEPARATORS):
                return False
            if short:
                continue
            if b'"' in block:
                return False
            # Hop from line end to line end.  While a byte follows the
            # ``limit`` bytes after the last line end, the next line end
            # must lie among them, and the last one there is the next hop.
            # Then the block's last line end starts the carried run.
            last = -1 - run  # the last line end, relative to this block
            while last + limit < len(block) - 1:
                end = block.rfind(b"\n", max(last + 1, 0), last + limit + 1)
                if end < 0:
                    return False
                last = end
            end = block.rfind(b"\n", max(last + 1, 0))
            run = len(block) - 1 - (last if end < 0 else end)
            if run > limit:
                return False
    return True


def _read_columns(path, header_lines):
    """The data rows after the first ``header_lines`` lines as (index, row,
    col, y) arrays from one numpy parse of the file by path, or None when the
    row loop must read them instead: the file fails ``_numpy_reads_as_csv``,
    numpy rejects a line or finds no rows, or a y is not finite (the row loop
    keeps its reading of those).

    numpy reads a path in chunks in C, where it would iterate a handle line
    by line in Python.  It opens the file with newline translation, so a CR
    or CRLF inside a quoted field reaches the parser as LF; int() and
    float() strip either as whitespace.
    """
    if not _numpy_reads_as_csv(path):
        return None
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy before 2.0 reads an integer field written as a float (1.0,
        # 0.9, 1e0) by truncating it, with a DeprecationWarning; as an error
        # that warning fails the parse, and the row loop rejects the line.
        warnings.filterwarnings("error", category=DeprecationWarning)
        try:
            table = np.loadtxt(os.fsdecode(path), dtype=_DATA_DTYPE, delimiter=",",
                               comments=None, quotechar='"', skiprows=header_lines,
                               encoding="utf-8", ndmin=1)
        except (ValueError, DeprecationWarning):  # also UnicodeDecodeError
            return None
    if table.size == 0 or not np.all(np.isfinite(table["y"])):
        return None
    return table["index"], table["row"], table["col"], table["y"]


def _read_rows(reader, path):
    """The data rows the reader has left as (index, row, col, y) arrays, one
    csv record at a time; a malformed row is reported by the physical line
    it ends on."""
    recs = []
    for fields in reader:
        if not fields:
            continue
        try:
            index, row, col, y = fields
            recs.append((int(index), int(row), int(col), float(y)))
        except ValueError:  # also a row without exactly four fields
            raise DomainError(f"{path}:{reader.line_num}: malformed row") from None
    if not recs:
        raise DomainError(f"{path}: no data rows")
    return tuple(np.array(field) for field in zip(*recs))


def read_data_csv(path):
    """Read a data file (columns index,row,col,y) into a response and design.

    Lines may list the cells in any order: each y is placed by its cell.
    The csv module reads the header; numpy then parses the file by path,
    column-wise, skipping the physical lines the header took.  For a file
    that parse declines, the csv-module row loop reads on from the header,
    which gives the same values for every file both accept.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["index", "row", "col", "y"]:
                raise DomainError(f"{path}: expected header index,row,col,y")
            # line_num counts the physical lines the header took.
            columns = _read_columns(path, reader.line_num)
            if columns is None:
                columns = _read_rows(reader, path)
        except UnicodeDecodeError:
            raise DomainError(f"{path}: not UTF-8 text") from None
        except csv.Error as exc:
            raise DomainError(f"{path}:{reader.line_num}: {exc}") from None
    idx, rows, cols, y = columns
    if not np.array_equal(np.sort(idx), np.arange(idx.size)):
        raise DomainError(f"{path}: index column must be 0..n-1 without gaps")
    design, y = DesignSpec.from_cells(rows, cols, y)
    return y, design


# Rows per write of a simulated data file: one string per block keeps the
# whole file out of memory.  A block's Python ints, floats and strings take
# about 160 bytes a row, so 8192 rows hold about 1.3 MB at once; the write
# takes no longer than with larger blocks.
_WRITE_BLOCK_ROWS = 8192


def _write_data_csv(path, y, design):
    """Write a response as a data file (index,row,col,y), cells column-major.

    Each block of rows is one %-format call over its interleaved fields,
    which writes the same bytes as formatting each row on its own.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,row,col,y\n")
        for start in range(0, design.n, _WRITE_BLOCK_ROWS):
            block = slice(start, start + _WRITE_BLOCK_ROWS)
            m = len(y[block])
            cols, rows = np.divmod(np.arange(start, start + m), design.nrows)
            fields = [None] * (4 * m)
            fields[0::4] = range(start, start + m)
            fields[1::4] = rows.tolist()
            fields[2::4] = cols.tolist()
            fields[3::4] = y[block].tolist()
            fh.write(("%d,%d,%d,%.17g\n" * m) % tuple(fields))


def cmd_simulate(args) -> int:
    out = simulate(SimConfig(nrows=args.nrows, ncols=args.ncols, effect_dist=args.effects,
                             intercept=args.intercept, seed=args.seed))
    _write_data_csv(args.out, out.y, out.design)
    _write_json(args.out + ".manifest.json", _manifest(args))
    return 0


# Each grid point is one likelihood evaluation; a grid larger than this is
# refused before it is allocated.
MAX_GRID_POINTS = 100_000


def _grid_from_args(args):
    """The grid the flags give, or None (the family's default grid)."""
    given = [args.grid_start is not None, args.grid_stop is not None,
             args.grid_step is not None]
    if not any(given):
        return None
    if not all(given):
        raise UsageError("--grid-start, --grid-stop and --grid-step must be given together")
    if not all(map(math.isfinite, (args.grid_start, args.grid_stop, args.grid_step))):
        raise UsageError("--grid-start, --grid-stop and --grid-step must be finite")
    if args.grid_step <= 0 or args.grid_stop < args.grid_start:
        raise UsageError("grid must have positive step and stop >= start")
    span = (args.grid_stop - args.grid_start) / args.grid_step + 1e-9
    if span >= MAX_GRID_POINTS:  # more than MAX_GRID_POINTS points, or an overflow to inf
        raise UsageError(f"grid must have at most {MAX_GRID_POINTS} points; "
                         "use a larger --grid-step")
    grid = args.grid_start + args.grid_step * np.arange(int(math.floor(span)) + 1)
    # Rounding can put the last point just past the stop, and so outside a
    # family's range.
    return np.minimum(grid, args.grid_stop)


def _sweeps():
    """Each --family's sweep; all take (data, design, grid, refine), the
    data being the raw response for Box-Cox and its ranking otherwise.  The
    table is built when called, so a sweep rebound on this module
    (bench/spans.py wraps them to trace them) is the one that runs."""
    return {"t": profile_student_t, "alpha": profile_alpha, "boxcox": boxcox_profile}


# Each --family's comparators: summary key -> the family member, by its
# --family name and parameter, whose value is reported.  Each is evaluated
# directly, not as a one-point sweep, so a degenerate fit stays a domain
# error (exit 3), and it is reported also on a grid without its point.
_COMPARATORS = {
    "t": {"gaussian_value": ("t", 0.0)},
    "alpha": {"gaussian_value": ("t", 0.0), "logistic_value": ("alpha", 0.0)},
    "boxcox": {"identity_value": ("boxcox", 1.0)},
}


def cmd_profile(args) -> int:
    grid = family_grid(args.family, _grid_from_args(args))
    y, design = read_data_csv(args.input)
    design = design.with_model(args.model)
    # Box-Cox transforms the data values; every other sweep and comparator
    # reads only the ranking, made once.
    data = y if args.family == "boxcox" else percentiles(y)
    curve = _sweeps()[args.family](data, design, grid, refine=args.refine)
    comparators = {key: family_evaluator(family, data, design)(x).value
                   for key, (family, x) in _COMPARATORS[args.family].items()}
    if args.family == "alpha":
        t_curve = profile_student_t(data, design, refine=args.refine)
        comparators["t_family_argmax"] = {"inv_nu": t_curve.argmax_param,
                                          "value": t_curve.argmax_value}

    write_curve(args.out, curve)
    summary = {
        "family": args.family,
        "model": design.model.value,
        "n": int(design.n),
        "argmax_param": curve.argmax_param,
        "argmax_value": curve.argmax_value,
        "comparators": comparators,
        "warnings": list(curve.warnings),
        "manifest": _manifest(args, grid_start=float(curve.grid[0]),
                              grid_stop=float(curve.grid[-1]),
                              grid_points=int(curve.grid.size)),
    }
    _write_json(args.out + ".summary.json", summary)
    return 0


def cmd_compare(args) -> int:
    dists = {"a": parse_target(args.a), "b": parse_target(args.b)}
    y, design = read_data_csv(args.input)
    design = design.with_model(args.model)
    ranked = percentiles(y)
    sides = {key: reduced_profile_loglik(ranked, dist, design) for key, dist in dists.items()}
    report = {"lr": sides["a"].value - sides["b"].value,
              **{key: asdict(side) for key, side in sides.items()}}
    n = design.n
    entropy = {key: dist.entropy() for key, dist in dists.items()}
    if None not in entropy.values():
        # Replace each jacobian term by n times the target's entropy.
        report["entropy_approximation"] = {
            "jacobian_a": n * entropy["a"],
            "jacobian_b": n * entropy["b"],
            "lr": (sides["a"].det_term - sides["b"].det_term)
                  + n * (entropy["a"] - entropy["b"]),
        }
    by_kind = {dist.kind: sides[key] for key, dist in dists.items()}
    if by_kind.keys() == {"gaussian", "uniform"}:
        diag = gaussian_uniform_diagnostics(by_kind["gaussian"], by_kind["uniform"], n)
        report["gaussian_uniform_diagnostics"] = {
            "orientation": "gaussian_minus_uniform", **asdict(diag),
        }
    report["manifest"] = _manifest(args)
    if args.out:
        _write_json(args.out, report)
    print(json.dumps(report, indent=2))
    return 0


def cmd_correlate(args) -> int:
    dists = parse_target_list(args.targets)
    y, design = read_data_csv(args.input)
    report = correlation_report(y, dists)
    if args.out:
        write_correlations(args.out, report)
        _write_json(args.out + ".manifest.json", _manifest(args))
    width = max(len(label) for label in report.labels)
    for label, c in zip(report.labels, report.correlations):
        print(f"{label:<{width}}  {c:8.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmatch",
        description="Select quantile-matching transformations by profile log likelihood.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a row-column benchmark dataset")
    p.add_argument("--nrows", type=int, default=50)
    p.add_argument("--ncols", type=int, default=30)
    p.add_argument("--effects", choices=list(EFFECTS), default="gaussian")
    p.add_argument("--intercept", type=float, default=5.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("profile", help="profile a transformation family over a grid")
    p.add_argument("--family", choices=list(_sweeps()), required=True)
    p.add_argument("--model", choices=[m.value for m in ModelKind], default="fixed")
    p.add_argument("--input", required=True)
    p.add_argument("--grid-start", type=float)
    p.add_argument("--grid-stop", type=float)
    p.add_argument("--grid-step", type=float,
                   help="with --grid-start and --grid-stop, a custom grid of at most "
                        f"{MAX_GRID_POINTS} points")
    p.add_argument("--refine", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("compare", help="log-likelihood ratio between two targets")
    p.add_argument("--a", required=True, help="target spec, e.g. t:nu=6.67")
    p.add_argument("--b", required=True)
    p.add_argument("--model", choices=[m.value for m in ModelKind], default="fixed")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("correlate", help="correlation of y with its transformed versions")
    p.add_argument("--input", required=True)
    p.add_argument("--targets", required=True, help="comma-separated target specs")
    p.add_argument("--out")
    p.set_defaults(func=cmd_correlate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, TargetSpecError):
            print(TARGET_GRAMMAR, file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
