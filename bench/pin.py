#!/usr/bin/env python3
"""Regenerate ``reference.json``: pinned outputs and evaluation counts.

For every data seed in every workload's bank, runs each operation once in
process with the tracer installed and records its checked outputs and its
number of reduced-profile evaluations (``translik._reduced`` calls).  The
benchmark compares every operation against these values, and its
``evals_per_s`` uses the pinned counts, so the reference is pinned once
from a commit whose outputs are trusted and kept fixed afterwards.

Usage, from the root of a qmatch checkout:  python3 bench/pin.py
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def pin_dataset(cls, data_seed):
    wl = cls(0)
    wl.data_seeds = [data_seed]
    wl.load()
    wl.generate()
    tracer = spans.Tracer()
    entry = {}
    for op in wl.cycle(in_process=True):
        tracer.reset()
        spans.install(tracer, wl.m)
        try:
            results = [step() for step in op.steps]
        finally:
            tracer.unpatch()
        outputs = op.read(results)
        codes = outputs.get("exit_codes", [outputs.get("exit_code", 0)])
        if any(codes):
            raise SystemExit(f"{cls.name} seed {data_seed} {op.label}: exit codes {codes}")
        entry[op.label] = {
            "evals": tracer.summary()["calls"].get("translik._reduced", 0),
            "outputs": outputs,
        }
    return entry


def main():
    root = Path.cwd().resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    table = {"_pinned_from": {
        "src_sha256": run._source_digest(src), "git_commit": run._git_commit(root),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }}
    work = workloads.chdir_work(root, "pin")
    try:
        for name, cls in workloads.WORKLOADS.items():
            table[name] = {str(s): pin_dataset(cls, s) for s in cls.bank}
            print(f"pinned {name}: {len(cls.bank)} datasets", flush=True)
    finally:
        workloads.leave_work(root, work)
    with open(BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
