"""Simulator reproducibility and distributional sanity checks."""

import numpy as np
import pytest
from scipy import special as sc
from scipy import stats

from conftest import bench
from qmatch import DomainError, SimConfig, simulate
from qmatch.simdesign import EFFECTS

CAUCHY_Q_090 = 3.077683537175253402570291  # tan(0.4 pi) to 25 digits


class TestReproducibility:
    def test_same_seed_is_bit_equal(self):
        a = simulate(SimConfig(nrows=7, ncols=4, seed=123))
        b = simulate(SimConfig(nrows=7, ncols=4, seed=123))
        assert np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = simulate(SimConfig(seed=0))
        b = simulate(SimConfig(seed=1))
        assert not np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("effects", ["gaussian", "cauchy"])
    @pytest.mark.parametrize("nrows, ncols", [(5, 3), (1000, 300)])
    def test_stream_reconstruction(self, nrows, ncols, effects):
        # Re-derive the exact output from the documented draw protocol:
        # PCG64(seed), uniforms (k + 0.5)/2^53, inverse CDF, order
        # rows -> cols -> noise, column-major layout.
        cfg = SimConfig(nrows=nrows, ncols=ncols, effect_dist=effects, intercept=2.0, seed=42)
        out = simulate(cfg)
        rng = np.random.default_rng(42)

        def unif(size):
            return (rng.integers(0, 1 << 53, size=size) + 0.5) * 2.0**-53

        def effect(u):
            return sc.ndtri(u) if effects == "gaussian" else sc.tandg(180.0 * (u - 0.5))

        row_eff = effect(unif(nrows))
        col_eff = effect(unif(ncols))
        noise = sc.ndtri(unif(nrows * ncols))
        k = np.arange(nrows * ncols)
        mu = row_eff[k % nrows] + col_eff[k // nrows]
        assert np.array_equal(out.y.view(np.int64), (2.0 + mu + noise).view(np.int64))

    def test_true_mu_excludes_intercept(self):
        a = simulate(SimConfig(nrows=4, ncols=4, intercept=0.0, seed=5))
        b = simulate(SimConfig(nrows=4, ncols=4, intercept=100.0, seed=5))
        np.testing.assert_allclose(b.y, a.y + 100.0, rtol=0, atol=1e-12)


class TestCauchyDraw:
    def test_special_points_are_exact(self):
        assert EFFECTS["cauchy"].quantile(0.5) == 0.0
        assert EFFECTS["cauchy"].quantile(0.75) == 1.0
        assert EFFECTS["cauchy"].quantile(0.25) == -1.0

    def test_oracle_value(self):
        assert abs(EFFECTS["cauchy"].quantile(0.9) - CAUCHY_Q_090) < 1e-14

    def test_boundaries_rejected(self):
        for u in (0.0, 1.0):
            with pytest.raises(DomainError):
                EFFECTS["cauchy"].quantile(u)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nrows=1),
            dict(ncols=0),
            dict(effect_dist="laplace"),
            dict(intercept=float("inf")),
            dict(intercept="5"),
            dict(intercept=None),
            dict(intercept=True),
            dict(intercept=10**400),
            dict(intercept=float("nan")),
            dict(effect_dist=["gaussian"]),
            dict(seed=-1),
            dict(seed=2**64),
            dict(nrows=2.5),
            dict(ncols=30.0),
            dict(seed=2.5),
            dict(seed=True),
            dict(seed="3"),
        ],
    )
    def test_bad_configs(self, kwargs):
        with pytest.raises(DomainError):
            SimConfig(**kwargs)

    def test_numpy_integer_seed_accepted(self):
        a = simulate(SimConfig(nrows=4, ncols=3, seed=np.uint64(7)))
        assert a.y.tobytes() == simulate(SimConfig(nrows=4, ncols=3, seed=7)).y.tobytes()


class TestDistributionalShape:
    def test_gaussian_variance_band(self):
        # var(y) = var(row) + var(col) + 1 has expectation 3; the sample
        # variance at 50 x 30 concentrates but the row/col effects only
        # contribute 50 and 30 draws, so the band is wide.
        hits = 0
        for seed in range(200):
            y = simulate(SimConfig(seed=seed)).y
            hits += 2.3 <= y.var(ddof=1) <= 3.8
        assert hits >= 190

    def test_cauchy_effects_fatten_tails(self):
        # Paired by seed: excess kurtosis of the heavy-tailed design
        # exceeds the gaussian design's essentially always.
        wins = 0
        for seed in range(200):
            g = simulate(SimConfig(seed=seed, effect_dist="gaussian")).y
            c = simulate(SimConfig(seed=seed, effect_dist="cauchy")).y
            wins += stats.kurtosis(c) > stats.kurtosis(g)
        assert wins >= 190

    def test_benchmark_scale(self):
        out = bench(0)
        assert out.y.shape == (1500,)
        assert out.design.nrows == 50 and out.design.ncols == 30
        assert abs(out.y.mean() - 5.0) < 0.5
