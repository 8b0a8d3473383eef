#!/usr/bin/env python3
"""qmatch benchmark: one workload, one run, one JSON result line.

Usage, from the root of a qmatch checkout:

    python3 bench/run.py --workload {cli_paper,study_paper,grid_large} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same operations with every layer entry point wrapped
in a span (see ``spans.py``) and reports per-layer metrics instead.  The
last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The lines before it give the environment, every metric with its unit, and
in traced runs each layer's share of operation time.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

now = time.perf_counter

SETUP_SAMPLES = 3       # fresh set-ups per run; setup_s is their median
CLI_SETUP_SAMPLES = 5   # cli_paper's set-up takes ~20 ms, so take more
IMPORT_SAMPLES = 3      # fresh interpreters per traced run for import metrics
TAIL_BEYOND = 10        # the tail percentile keeps this many samples above it
LAYERS = ("cli", "simdesign", "percentile", "targetdist", "linmodel", "translik")

# Run in a fresh interpreter (cwd: the run's work directory) to time one
# in-process set-up: import qmatch and generate the inputs.
SETUP_PROBE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
t0 = time.perf_counter()
w = workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]))
w.load()
w.generate()
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    pass


def median(xs):
    return statistics.median(xs)


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it; the median when there are too few samples for that."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return median(xs), 50.0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n


# ---------------------------------------------------------------- environment
def _git_commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src):
    h = hashlib.sha256()
    for path in sorted((src / "qmatch").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(root, src, args):
    import numpy
    import scipy
    return {
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "platform": platform.platform(), "git_commit": _git_commit(root),
        "src_sha256": _source_digest(src), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


# ------------------------------------------------------------------ probes
def _run_child(argv, env, what):
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{what} failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return proc


def setup_probe(args, env):
    proc = _run_child([sys.executable, "-c", SETUP_PROBE, env["PYTHONPATH"],
                       str(BENCH), args.workload, str(args.seed)], env, "set-up probe")
    return float(proc.stdout.strip().splitlines()[-1])


def _importtime_tree(text):
    """Parse ``-X importtime`` output into (name, cumulative_us, children) roots."""
    pending = defaultdict(list)
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        try:
            cum = int(fields[1])
        except ValueError:
            continue                      # the header line
        label = fields[2]
        depth = (len(label) - len(label.lstrip(" ")) - 1) // 2
        node = (label.strip(), cum, pending.pop(depth + 1, []))
        pending[depth].append(node)
    return pending[0]


def _cumulative_us(nodes, prefix):
    """Cumulative import time of the outermost modules named prefix[.*]."""
    total = 0
    for name, cum, children in nodes:
        if name == prefix or name.startswith(prefix + "."):
            total += cum
        else:
            total += _cumulative_us(children, prefix)
    return total


def import_probe(env):
    """Median import metrics over fresh interpreters, in ms."""
    samples = defaultdict(list)
    for _ in range(IMPORT_SAMPLES):
        t0 = now()
        _run_child([sys.executable, "-c", "pass"], env, "interpreter start")
        samples["import.python_ms"].append((now() - t0) * 1e3)
        proc = _run_child([sys.executable, "-X", "importtime", "-c", "import qmatch"],
                          env, "import qmatch")
        tree = _importtime_tree(proc.stderr)
        for metric, module in (("import.qmatch_ms", "qmatch"),
                               ("import.scipy_stats_ms", "scipy.stats"),
                               ("import.scipy_optimize_ms", "scipy.optimize")):
            samples[metric].append(_cumulative_us(tree, module) / 1e3)
    return {k: median(v) for k, v in samples.items()}


# --------------------------------------------------------------- operations
def run_op(wl, op, cal=None):
    """Run one operation's steps: (step seconds, mismatches).

    With ``cal``, the calibration kernel runs after each step, outside the
    timed region.  Output checks are not timed either."""
    results, times = [], []
    for step in op.steps:
        t0 = now()
        try:
            results.append(step())
        except Exception as exc:                 # counted as a failed operation
            times.append(now() - t0)
            return times, [f"{op.label}: raised {exc!r}"]
        times.append(now() - t0)
        if cal is not None:
            cal.after_op(times[-1])
    try:
        return times, wl.check(op, op.read(results))
    except (OSError, ValueError, TypeError, KeyError, StopIteration) as exc:
        return times, [f"{op.label}: unreadable output {exc!r}"]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, mismatches, what):
        self.attempted += 1
        if mismatches:
            self.failed += 1
            print(f"MISMATCH {what}: " + "; ".join(mismatches[:5]), file=sys.stderr)


def timed_loop(wl, seconds, tally, cal):
    """Closed loop over whole cycles until ``seconds`` have passed.

    Returns measured and calibration-scaled latencies, and the pinned
    evaluation count of the operations run."""
    cycle = wl.cycle()
    latencies, steps, owner, evals = [], [], [], 0
    start = now()
    while True:
        for op in cycle:
            times, bad = run_op(wl, op, cal)
            owner += [len(latencies)] * len(times)
            steps += times
            latencies.append(sum(times))
            evals += wl.evals(op)
            tally.add(bad, f"{op.label} seed {op.data_seed}")
        if now() - start >= seconds:
            break
    scaled = [0.0] * len(latencies)
    for i, t in zip(owner, cal.scaled(steps)):
        scaled[i] += t
    return latencies, scaled, evals


def rank_spot_check(wl, tally):
    tally.add([] if wl.rank_check() else ["value changed under relabeling"],
              "rank invariance")


def measure(args, env):
    """Untraced run: the end-to-end metrics."""
    wl = workloads.WORKLOADS[args.workload](args.seed, reference(args), env)
    kernel = wl.kernel(env)
    setup_cal = calibrate.Calibration(kernel)
    setups = []
    if wl.in_process:
        for _ in range(SETUP_SAMPLES):
            setups.append(setup_probe(args, env))
            setup_cal.after_op(setups[-1])
        wl.load()
        wl.generate()
        wl.cycle()[0].steps[0]()                 # warm caches and lazy imports
    else:
        wl.load()
        for _ in range(CLI_SETUP_SAMPLES):
            t0 = now()
            wl.generate()
            setups.append(now() - t0)
            setup_cal.after_op(setups[-1])
    cal = calibrate.Calibration(kernel)
    tally = Tally()
    latencies, scaled, evals = timed_loop(wl, args.seconds, tally, cal)
    rank_spot_check(wl, tally)

    def summary(lat, setup):
        tail_value, _ = tail(lat)
        return {
            "setup_s": setup,
            "op_p50_ms": median(lat) * 1e3,
            "op_tail_ms": tail_value * 1e3,
            "ops_per_s": len(lat) / sum(lat),
            "evals_per_s": evals / sum(lat),
        }

    raw = summary(latencies, median(setups))
    values = summary(scaled, median(setup_cal.scaled(setups)))
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    _, tail_pct = tail(scaled)
    notes = [
        f"op_tail_ms is p{tail_pct:.1f} of {len(latencies)} operations",
        f"evals: {evals} pinned reduced-profile evaluations in {len(latencies)} operations",
        f"error_rate = {tally.failed / tally.attempted:.6g} ratio "
        f"({tally.failed} of {tally.attempted}, rank spot-check included)",
        _calibration_note(cal) + "; unscaled: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
    ]
    return tally, values, notes


def _calibration_note(cal):
    return (f"calibration: {type(cal.kernel).__name__}, reference "
            f"{cal.kernel.reference_s * 1e3:g} ms, run median "
            f"{statistics.median(cal.samples) * 1e3:.3f} ms over {len(cal.samples)} samples")


# ------------------------------------------------------------------ tracing
def _out_bytes():
    return sum(p.stat().st_size for p in Path("out").iterdir() if p.is_file())


def _clear_out():
    for p in Path("out").iterdir():
        p.unlink()


def _bytes_read(cycle):
    """Bytes of the data files the cycle's CLI commands read."""
    return sum(os.path.getsize(path) for op in cycle for path in op.reads)


def _traced_pass(wl, cycle, tally, tracer=None):
    if tracer is not None:
        tracer.reset()
        spans.install(tracer, wl.m)
    _clear_out()
    t0 = now()
    try:
        for op in cycle:
            _, bad = run_op(wl, op)
            tally.add(bad, f"{op.label} seed {op.data_seed}")
    finally:
        wall = now() - t0
        if tracer is not None:
            tracer.unpatch()
    return wall


def layer_metrics(summary, setup_summary, wall, startup, bytes_read, bytes_written):
    """Per-layer metrics of one traced pass that took ``wall`` seconds.

    ``startup`` is interpreter start-up plus import time the pass's
    operations pay outside the traced process (cli_paper only).
    """
    calls = defaultdict(int, summary["calls"])
    self_s = defaultdict(float, summary["self_s"])

    def pick(table, pred):
        return sum(v for k, v in table.items() if pred(k))

    q_calls = pick(calls, lambda k: k.startswith("targetdist.") and k.endswith(".quantile"))
    evals = calls["translik._reduced"]
    fits = calls["linmodel.fit"]
    layer_self = {layer: pick(self_s, lambda k, layer=layer: k.startswith(layer + "."))
                  for layer in LAYERS}
    m = {
        "cli.read_data_csv_ms": self_s["cli.read_data_csv"] * 1e3,
        "cli.self_ms": self_s["cli.main"] * 1e3,
        "cli.bytes_read": bytes_read,
        "cli.bytes_written": bytes_written,
        "simdesign.simulate_ms": (self_s["simdesign.simulate"]
                                  + setup_summary["self_s"].get("simdesign.simulate", 0.0)) * 1e3,
        "percentile.percentiles_calls": calls["percentile.percentiles"],
        "percentile.percentiles_ms": self_s["percentile.percentiles"] * 1e3,
        "targetdist.quantile_calls": q_calls,
        "targetdist.quantile_self_ms": pick(self_s, lambda k: k.startswith("targetdist.")
                                            and k.endswith(".quantile")) * 1e3,
        "targetdist.lqd_calls": pick(calls, lambda k: k.startswith("targetdist.")
                                     and k.endswith(".lqd")),
        "targetdist.lqd_self_ms": pick(self_s, lambda k: k.startswith("targetdist.")
                                       and k.endswith(".lqd")) * 1e3,
        "targetdist.quantile_calls_per_eval": q_calls / evals if evals else 0.0,
        "linmodel.fit_calls": fits,
        "linmodel.fit_fixed_self_ms": self_s["linmodel.fit_fixed"] * 1e3,
        "linmodel.fit_random_self_ms": self_s["linmodel.fit_random_balanced"] * 1e3,
        "linmodel.decompose_calls_per_fit":
            calls["linmodel.decompose"] / fits if fits else 0.0,
        "linmodel.fit_failures": summary["failures"].get("linmodel.fit", 0),
        "translik.evals": evals,
        "translik.refine_evals": summary["refine_evals"],
        "translik.sweep_self_ms": layer_self["translik"] * 1e3,
        "translik.failed_points": summary["counters"].get("translik.failed_points", 0),
    }
    total = wall + startup
    shares = {"import": startup / total}
    shares.update({layer: s / total for layer, s in layer_self.items()})
    shares["other"] = 1.0 - sum(shares.values())
    m.update({f"share.{k}": v for k, v in shares.items()})
    return m


def measure_traced(args, env):
    """Traced run: per-layer metrics from alternating untraced/traced passes."""
    wl = workloads.WORKLOADS[args.workload](args.seed, reference(args), env)
    imports = import_probe(env)
    wl.load()
    tracer = spans.Tracer()
    spans.install(tracer, wl.m)
    try:
        wl.generate()
    finally:
        tracer.unpatch()
    setup_summary = tracer.summary()
    cycle = wl.cycle(in_process=True)
    # A cli_paper operation is a fresh process, so each command also pays
    # interpreter start-up and import, measured by the import probe.
    startup = 0.0 if wl.in_process else \
        len(cycle) * (imports["import.python_ms"] + imports["import.qmatch_ms"]) / 1e3
    cal = calibrate.Calibration(wl.kernel(env))
    tally = Tally()
    run_op(wl, cycle[0])                         # warm-up, not counted
    plain, traced, per_pass = [], [], []
    start = now()
    while True:
        plain.append(_traced_pass(wl, cycle, tally))
        cal.after_op(plain[-1])
        traced.append(_traced_pass(wl, cycle, tally, tracer))
        cal.after_op(traced[-1])
        per_pass.append(layer_metrics(tracer.summary(), setup_summary, traced[-1], startup,
                                      _bytes_read(cycle), _out_bytes()))
        if now() - start >= args.seconds:
            break
    rank_spot_check(wl, tally)
    values = dict(imports)
    for name, value in per_pass[0].items():
        # Counts repeat exactly from pass to pass; times take the median.
        values[name] = value if isinstance(value, int) else median(p[name] for p in per_pass)
    f = cal.factor()
    values = {k: v * f if k.endswith("_ms") else v for k, v in values.items()}
    values["trace.overhead_frac"] = (median(traced) - median(plain)) / median(plain)
    shares = ", ".join(f"{k[6:]} {v:.3f}" for k, v in values.items() if k.startswith("share."))
    notes = [
        f"{len(per_pass)} traced and {len(plain)} untraced passes of {len(cycle)} operations",
        f"layer shares of operation time: {shares}",
        _calibration_note(cal),
    ]
    return tally, values, notes


# -------------------------------------------------------------------- main
def bench_spec():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def reference(args):
    return workloads.load_reference(BENCH / "reference.json")[args.workload]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # Run everything, child processes included, on one CPU: on a shared
    # machine the CPUs' speeds differ from moment to moment, and the
    # calibration kernel has to run where the operations run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "qmatch" / "__init__.py").is_file():
        print(f"error: no qmatch sources under {src}; run from a qmatch checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    compileall.compile_dir(str(src), quiet=1)
    env = dict(os.environ, PYTHONPATH=str(src))

    work = workloads.chdir_work(root, args.workload)
    try:
        run = measure_traced if args.trace else measure
        tally, values, notes = run(args, env)
        import qmatch
        if not Path(qmatch.__file__).resolve().is_relative_to(src):
            raise BenchError(f"qmatch imported from {qmatch.__file__}, not {src}")
        section = bench_spec()["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in section if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in section}
        print("env " + json.dumps(environment(root, src, args), sort_keys=True))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        workloads.leave_work(root, work)
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
