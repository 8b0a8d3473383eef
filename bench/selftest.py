#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the root of a qmatch checkout:

    python3 bench/selftest.py

Checks, each workload at a tiny run length:

* the untraced run prints every end-to-end metric of BENCHMARK.json with
  its unit and a nonzero value, and no operation fails;
* two traced runs with the same seed print every per-layer metric with its
  unit, and their count metrics are identical;
* the tracer's counts on one refined t sweep, and the layer shares that
  motivated each workload (asserted only while ``src/`` is the code the
  references were pinned from, reported otherwise);
* run.py exits nonzero without a result where there are no qmatch sources.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SECONDS = "1"
COUNT_SUFFIXES = ("_calls", ".evals", ".refine_evals", ".bytes_read", ".bytes_written",
                  ".fit_failures", ".failed_points")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, cwd="."):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600, check=False)
    if proc.returncode != 0:
        check(False, f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-800:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, section, what):
    expected = {m["name"]: m["unit"] for m in section}
    got = result["metrics"]
    check(set(got) == set(expected), f"{what}: exactly the metrics of BENCHMARK.json")
    check(all(got[k]["unit"] == u for k, u in expected.items() if k in got),
          f"{what}: units match BENCHMARK.json")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{what}: error_rate 0 ({result['failed']} of {result['attempted']})")


def seed_facts(strict):
    """Counts and shares measured at the pinned commit."""
    def fact(ok, what):
        if strict:
            check(ok, what)
        else:
            print(("holds " if ok else "moved ") + what)

    root = Path.cwd()
    work = workloads.chdir_work(root, "selftest")
    try:
        wl = workloads.StudyPaper(0)
        wl.load()
        out = wl.simulate(seed=2, effect_dist="cauchy")
        design = out.design.with_model(wl.m["linmodel"].ModelKind.FIXED_EFFECTS)
        tracer = spans.Tracer()
        spans.install(tracer, wl.m)
        try:
            wl.m["translik"].profile_student_t(out.y, design, refine=True)
        finally:
            tracer.unpatch()
        s = tracer.summary()
        q, n = s["calls"].get("targetdist.StudentT.quantile"), s["calls"].get("translik._reduced")
        fact((q, n) == (135, 68),
             f"refined cauchy seed-2 t sweep: {q} StudentT.quantile calls for {n} evaluations")
        sweep = s["total_s"]["translik.profile_student_t"]
        td = sum(v for k, v in s["self_s"].items() if k.startswith("targetdist."))
        fact(td > 0.5 * sweep, f"targetdist self time is {td / sweep:.2f} of that t sweep")
    finally:
        workloads.leave_work(root, work)
    return fact


def main():
    sys.path.insert(0, str(Path.cwd() / "src"))
    spec = run.bench_spec()
    pinned = workloads.load_reference(BENCH / "reference.json")["_pinned_from"]["src_sha256"]
    strict = run._source_digest(Path.cwd() / "src") == pinned
    print(f"sources {'are' if strict else 'are not'} the pinned ones; "
          f"seed-commit facts are {'asserted' if strict else 'reported'}")
    fact = seed_facts(strict)
    shares = {}
    for name in workloads.WORKLOADS:
        result = bench(name, 0)
        if result:
            check_result(result, spec["end_to_end"], f"{name} untraced")
            check(all(v["value"] != 0 for v in result["metrics"].values()),
                  f"{name} untraced: no end-to-end metric is 0")
        traced = [bench(name, 1) for _ in range(2)]
        if all(traced):
            for r in traced:
                check_result(r, spec["per_layer"], f"{name} traced")
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if k.endswith(COUNT_SUFFIXES)} for r in traced]
            check(counts[0] == counts[1], f"{name} traced: count metrics repeat exactly")
            shares[name] = {k[6:]: v["value"] for k, v in traced[0]["metrics"].items()
                            if k.startswith("share.")}
    if len(shares) == len(workloads.WORKLOADS):
        cli = shares["cli_paper"]["import"]
        grid = sum(shares["grid_large"][k] for k in ("cli", "percentile", "linmodel"))
        fact(cli > 0.5, f"import is {cli:.2f} of cli_paper operation time")
        fact(grid > 0.5, f"cli + percentile + linmodel are {grid:.2f} of grid_large time")

    bare = Path.cwd() / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name)
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "study_paper", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180, check=False)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"without sources: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
