import functools
import importlib
from collections import OrderedDict

import numpy as np
import pytest

from qmatch import ModelKind, SimConfig, simulate, targetdist


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
    passed back in, or the held one returned for its input's bits, adds
    nothing."""
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
def empty_memo(monkeypatch):
    """The targets' transform memo, empty for the test; its entries are
    put back after it."""
    memo = targetdist._grid_memo
    monkeypatch.setattr(memo, "entries", OrderedDict())
    monkeypatch.setattr(memo, "held", 0)
    return memo
