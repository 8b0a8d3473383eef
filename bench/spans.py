"""Span tracer for the benchmark's traced runs.

The tracer wraps public entry points of each qmatch layer by rebinding the
name at the place it is called (a module global or a class attribute), so
the package itself is untouched and the untraced runs pay nothing.  Each
call records one span ``[name, start, end, parent]`` in memory; the
summary turns spans into per-name call counts, total time and self time
(a span's duration minus the time covered by its direct children).

Span names are ``<layer>.<entry>``; the layer is the part before the first
dot and matches a module of the package (``cli``, ``simdesign``,
``percentile``, ``targetdist``, ``linmodel``, ``translik``).
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.failures = defaultdict(int)
        self.counters = defaultdict(int)
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------
    def wrap(self, name, fn, observe=None):
        """``observe(result) -> (counter, amount)`` adds to a named counter."""
        spans, stack, failures, counters = self.spans, self._stack, self.failures, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, _now(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    counter, amount = observe(result)
                    counters[counter] += amount
                return result
            except Exception:
                failures[name] += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = _now()

        return traced

    def patch(self, owner, attr, name, observe=None):
        """Rebind ``owner.attr`` to a traced wrapper; no-op if it is absent."""
        original = owner.__dict__.get(attr)
        if original is None:
            return
        setattr(owner, attr, self.wrap(name, original, observe))
        self._undo.append((owner, attr, original))

    def unpatch(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset(self):
        self.spans.clear()
        self.failures.clear()
        self.counters.clear()

    # -- summary -------------------------------------------------------
    def summary(self):
        """Per span name: calls, total seconds and self seconds.

        Also counts ``translik._reduced`` spans nested inside
        ``translik._golden_max`` as ``refine_evals``.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_time[i]
        refine = 0
        for name, _, _, parent in spans:
            if name != "translik._reduced":
                continue
            while parent >= 0:
                if spans[parent][0] == "translik._golden_max":
                    refine += 1
                    break
                parent = spans[parent][3]
        return {
            "calls": dict(calls), "total_s": dict(total), "self_s": dict(self_s),
            "refine_evals": refine, "failures": dict(self.failures),
            "counters": dict(self.counters),
        }


def _failed_points(curve):
    return "translik.failed_points", sum(1 for v in curve.values if not math.isfinite(v))


def install(tracer, qmatch_modules):
    """Wrap every traced entry point of the package in ``tracer``."""
    cli, linmodel, simdesign, targetdist, translik = (
        qmatch_modules[k] for k in ("cli", "linmodel", "simdesign", "targetdist", "translik")
    )
    sweeps = ("reduced_profile_loglik", "loglik_ratio", "lr_diagnostics_gaussian_uniform",
              "profile_student_t", "profile_alpha", "boxcox_profile", "correlation_report")
    # Names as the package's own callers see them.
    tracer.patch(translik, "fit", "linmodel.fit")
    tracer.patch(cli, "fit", "linmodel.fit")
    tracer.patch(translik, "percentiles", "percentile.percentiles")
    tracer.patch(linmodel, "decompose", "linmodel.decompose")
    tracer.patch(linmodel, "fit_fixed", "linmodel.fit_fixed")
    tracer.patch(linmodel, "fit_random_balanced", "linmodel.fit_random_balanced")
    tracer.patch(translik, "_reduced", "translik._reduced")
    tracer.patch(translik, "_golden_max", "translik._golden_max")
    for fn in sweeps:
        observe = _failed_points if fn.startswith(("profile_", "boxcox_")) else None
        tracer.patch(translik, fn, f"translik.{fn}", observe)
        tracer.patch(cli, fn, f"translik.{fn}", observe)
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "read_data_csv", "cli.read_data_csv")
    tracer.patch(cli, "simulate", "simdesign.simulate")
    tracer.patch(simdesign, "simulate", "simdesign.simulate")
    for cls in vars(targetdist).values():
        if (isinstance(cls, type) and issubclass(cls, targetdist.TargetDistribution)
                and cls is not targetdist.TargetDistribution):
            tracer.patch(cls, "quantile", f"targetdist.{cls.__name__}.quantile")
            tracer.patch(cls, "log_quantile_derivative", f"targetdist.{cls.__name__}.lqd")
