"""Machine-speed calibration for the benchmark's timings.

The benchmark shares its machine with other tenants.  On the 2-core
machine it was written on, the same operation ran 20-50% slower for
stretches of tens of seconds to minutes, so a whole run could land in a
slow or a fast stretch and no statistic within the run could tell.  After
every operation the run therefore times a fixed calibration kernel and
scales the operation's latency to the kernel's reference speed:

    scaled latency = latency * kernel.reference_s / median(kernel times near it)

The kernels use only the interpreter, the standard library, numpy and
scipy.special, never qmatch, so a change to qmatch cannot move them.  Each
workload has the kernel whose slowdowns track its own: compute-bound code
on small arrays slowed more than parsing- and memory-bound code on arrays
beyond the L2 cache, and process start-up more than either, so one kernel
would over- or under-correct some workload.

The reference times are the kernels' median times on that machine
(x86-64, Python 3.11.7, numpy 2.4.6, scipy 1.17.1) in a fast stretch, so
scaled times read as times on that machine when it is not contended.
"""

from __future__ import annotations

import csv
import io
import statistics
import subprocess
import sys
import time

SHARE = 0.08        # kernel time after each operation, as a share of its latency
WINDOW = 1          # neighbouring operations whose kernel times also count


class ImportNumpy:
    """A fresh interpreter that imports numpy: start-up and import work
    like a command's, without qmatch."""

    reference_s = 0.160

    def __init__(self, env):
        self.argv = [sys.executable, "-c", "import numpy"]
        self.env = env

    def __call__(self):
        subprocess.run(self.argv, env=self.env, check=True, timeout=60)


class SmallArrays:
    """t quantiles on a 1500-point grid, 50x30 reductions, interpreter loop."""

    reference_s = 0.0065

    def __init__(self, env=None):
        import numpy as np
        from scipy import special
        self.stdtrit = special.stdtrit
        self.p = (np.arange(1500) + 0.5) / 1500
        self.grid = np.random.default_rng(0).standard_normal((50, 30))

    def __call__(self):
        for k in range(8):
            self.stdtrit(3.0 + k, self.p)
        for _ in range(100):
            self.grid.mean(axis=0)
            self.grid.mean(axis=1)
        acc = 0
        for i in range(20_000):
            acc += i * i


class LargeArrays:
    """CSV text round trip and whole-array passes over 300000 floats."""

    reference_s = 0.060

    def __init__(self, env=None):
        import numpy as np
        from scipy import special
        rng = np.random.default_rng(2)
        self.np, self.special = np, special
        self.v = rng.standard_normal(300_000)
        self.rows = [[str(k), str(k % 1000), str(k // 1000), format(float(x), ".17g")]
                     for k, x in enumerate(rng.standard_normal(8000))]

    def __call__(self):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(self.rows)
        buf.seek(0)
        [(int(a), int(b), int(c), float(d)) for a, b, c, d in csv.reader(buf)]
        self.np.argsort(self.v, kind="stable")
        self.special.ndtri(self.special.ndtr(self.v))
        self.np.log1p(self.v * self.v).sum()


class Calibration:
    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []
        self.after_ops = []       # kernel times taken after each operation

    def sample(self):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def after_op(self, latency):
        """Time the kernel right after an operation, for SHARE of its latency."""
        taken = [self.sample()]
        while sum(taken) < SHARE * latency:
            taken.append(self.sample())
        self.after_ops.append(taken)

    def scaled(self, latencies):
        """Each operation's latency scaled by the median kernel time taken
        after it and after its WINDOW neighbours on either side."""
        out = []
        for i, latency in enumerate(latencies):
            near = [t for taken in self.after_ops[max(0, i - WINDOW):i + WINDOW + 1]
                    for t in taken]
            out.append(latency * self.kernel.reference_s / statistics.median(near))
        return out

    def factor(self):
        """Scale for times not tied to one operation, from the whole run."""
        return self.kernel.reference_s / statistics.median(self.samples)
