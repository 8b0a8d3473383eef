import functools
import importlib

import numpy as np
import pytest

from qmatch import ModelKind, SimConfig, simulate


@functools.lru_cache(maxsize=64)
def bench(seed, effects="gaussian"):
    """Benchmark dataset at the standard 50 x 30 scale (cached per seed)."""
    return simulate(SimConfig(effect_dist=effects, seed=seed))


def fixed_design(out):
    return out.design.with_model(ModelKind.FIXED_EFFECTS)


def random_design(out):
    return out.design.with_model(ModelKind.RANDOM_EFFECTS)


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


@pytest.fixture
def no_held_ranking(monkeypatch):
    """Drops the ranking ``percentiles`` holds, with the targets' states it
    keeps, so the test's first ranking of any input is a fresh one.  Called
    inside a test, it drops the ranking held then."""
    module = importlib.import_module("qmatch.percentile")

    def drop():
        monkeypatch.setattr(module, "_held", None)

    drop()
    return drop


@pytest.fixture
def sorts(monkeypatch, no_held_ranking):
    """A list that grows by one for each sort ``percentiles`` makes, under
    whatever name it is called, starting with no ranking held; a ranking
    passed back in, or the held one returned for an input with its ranks,
    adds nothing."""
    calls = []
    module = importlib.import_module("qmatch.percentile")

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def argsort(self, *args, **kwargs):
            calls.append(1)
            return np.argsort(*args, **kwargs)

    monkeypatch.setattr(module, "np", CountingNumpy())
    return calls


@pytest.fixture
def fresh_grid(monkeypatch, no_held_ranking):
    """A function of n that makes the shared rankit grid of n afresh, with
    an empty store of the targets' transforms, and returns it.  Rankings
    made later in the test share it; those made before keep the grid they
    hold, whose store no longer serves them.  Each grid made lives until
    the test ends.  No ranking is held at the start, and the grids of the
    test are put back after it."""
    module = importlib.import_module("qmatch.percentile")
    made = []

    def make(n):
        p = np.arange(1.0, 2.0 * n, 2.0)
        p /= 2.0 * n
        p.flags.writeable = False
        grid = module._Grid(p, {})
        made.append(grid)
        monkeypatch.setitem(module._grids, n, grid)
        return grid

    return make
