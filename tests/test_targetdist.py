"""Target distribution contracts.

Reference values marked "mpmath" were computed independently at 40-digit
working precision with mpmath 1.3 (erfinv for the normal quantile, findroot
on the regularized incomplete beta for t quantiles, quad for entropies) and
frozen here.
"""

import gc
import math
import sys
import threading
import warnings
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc

from conftest import bench, fixed_design
from oracles import Affine, log_quantile_derivative, transform
from qmatch import (
    AlphaBeta,
    DesignSpec,
    DomainError,
    Gaussian,
    Logistic,
    StudentT,
    Uniform,
    percentiles,
)
from qmatch import percentile, targetdist, translik
from qmatch.errors import TargetSpecError
from qmatch.targetdist import TARGET_GRAMMAR, TARGETS, parse_target, parse_target_list
from qmatch.translik import family_grid, profile_alpha, profile_student_t

# mpmath oracles.
NDTRI_ORACLE = {
    1e-8: -5.612001244174788731549725,
    0.001: -3.0902323061678135415404,
    0.025: -1.959963984540054235524594,
    0.3: -0.5244005127080407840382893,
    0.5: 0.0,
    0.7: 0.5244005127080407840382893,
    0.975: 1.959963984540054235524594,
    0.999: 3.0902323061678135415404,
    # evaluated at the float64 nearest to the nominal probability
    0.9999999999: 6.361340889697421864155442,
}
CAUCHY_Q_090 = 3.077683537175253402570291
CAUCHY_Q_099 = 31.82051595377395803933955
CAUCHY_LOGPDF_0 = -1.144729885849400174143427
CAUCHY_LOGPDF_1 = -1.837877066409345483560659
T5_LOGPDF_15 = -2.083310258352173225831501
T_QUANTILES = {  # (nu, p) -> quantile
    (5.0, 0.95): 2.015048373333024237840722,
    (2.0, 0.99): 6.964556734283274187082299,
    (6.67, 0.9): 1.422212444973106208080013,
}
AB_LQD_03_02 = 1.447913752313474510905088  # alpha=beta=0.3 at p=0.2
GAUSS_ENTROPY = 1.41893853320467274178033
CAUCHY_ENTROPY = 2.531024246969290792977892  # log(4 pi)
T5_ENTROPY = 1.627502672414395981090749     # mpmath quad of -f log f
T667_ENTROPY = 1.573881667165713649688635
# Student-t entropy by inv_nu, from mpmath's digamma and beta at 50 digits.
T_ENTROPY_MPMATH = {
    1e-16: 1.41893853320467284178033,
    1e-12: 1.41893853320567274178033,
    1e-8: 1.41893854320467276678033,
    1e-4: 1.419038535704506062616663,
    1e-3: 1.419938783037881375362448,
    0.15: 1.573961339555948073789996,
    1.0: 2.531024246969290792977892,
}

ALL_KINDS = [
    Gaussian(), Uniform(), Logistic(),
    StudentT(0.0), StudentT(0.15), StudentT(1.0),
    AlphaBeta(0.0, 0.0), AlphaBeta(0.3, 0.3), AlphaBeta(-0.5, 0.7),
]
# Test ids keep the text of the labels these tests were first named by, so
# the test names stay the same now that labels are parseable specs.
ALL_KIND_IDS = [
    "gaussian", "uniform", "logistic",
    "t(inv_nu=0)", "t(nu=6.66667)", "t(nu=1)",
    "alpha_beta(alpha=0,beta=0)", "alpha_beta(alpha=0.3,beta=0.3)",
    "alpha_beta(alpha=-0.5,beta=0.7)",
]


class TestQuantiles:
    def test_gaussian_against_oracle(self):
        g = Gaussian()
        for p, expect in NDTRI_ORACLE.items():
            assert abs(g.quantile(p) - expect) < 1e-9

    def test_gaussian_median_is_zero(self):
        assert Gaussian().quantile(0.5) == 0.0

    def test_cauchy_quartile_exact(self):
        assert StudentT(1.0).quantile(0.75) == 1.0
        assert StudentT(1.0).quantile(0.25) == -1.0

    def test_cauchy_against_oracle(self):
        c = StudentT(1.0)
        assert abs(c.quantile(0.9) - CAUCHY_Q_090) < 1e-13
        assert abs(c.quantile(0.99) - CAUCHY_Q_099) < 1e-11

    def test_t_quantiles_against_oracle(self):
        for (nu, p), expect in T_QUANTILES.items():
            q = StudentT.from_nu(nu).quantile(p)
            assert abs(q - expect) < 1e-9 * max(1.0, abs(expect))

    def test_inv_nu_zero_is_the_gaussian_code_path(self):
        p = np.linspace(0.001, 0.999, 57)
        assert np.array_equal(StudentT(0.0).quantile(p), Gaussian().quantile(p))
        assert np.array_equal(transform(StudentT(0.0), p)[1], transform(Gaussian(), p)[1])

    def test_subnormal_inv_nu_is_the_gaussian_code_path(self):
        # At the smallest subnormal, nu = 1/inv_nu overflows to inf.
        p = np.linspace(0.001, 0.999, 57)
        t = StudentT(5e-324)
        assert np.array_equal(t.quantile(p), Gaussian().quantile(p))
        assert np.array_equal(transform(t, p)[1], transform(Gaussian(), p)[1])
        assert t.entropy() == Gaussian().entropy()

    def test_alpha_beta_linear_case(self):
        # alpha = beta = 1 is Q(p) = 2p - 1 up to the affine shift used here.
        assert abs(AlphaBeta(1.0, 1.0).quantile(0.25) - (-0.5)) < 1e-12

    def test_alpha_beta_zero_is_the_logistic_code_path(self):
        p = np.linspace(0.001, 0.999, 57)
        ab = AlphaBeta(0.0, 0.0)
        assert np.array_equal(ab.quantile(p), Logistic().quantile(p))
        assert np.array_equal(transform(ab, p)[1], transform(Logistic(), p)[1])

    def test_uniform_is_identity(self):
        p = np.linspace(0.01, 0.99, 23)
        assert np.array_equal(Uniform().quantile(p), p)

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=ALL_KIND_IDS)
    def test_strictly_increasing(self, dist):
        p = np.linspace(0.001, 0.999, 999)
        q = dist.quantile(p)
        assert np.all(np.diff(q) > 0.0)

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=ALL_KIND_IDS)
    def test_domain_errors(self, dist):
        for p in [0.0, 1.0, -0.2, 1.3, float("nan")]:
            with pytest.raises(DomainError):
                dist.quantile(p)
            with pytest.raises(DomainError):
                transform(dist, p)


class TestLogQuantileDerivative:
    def test_uniform_is_zero(self):
        assert transform(Uniform(), 0.123)[1] == 0.0

    def test_logistic_at_half(self):
        assert abs(transform(Logistic(), 0.5)[1] - math.log(4.0)) < 1e-14

    def test_gaussian_at_half(self):
        # -log phi(0) = log sqrt(2 pi)
        expect = 0.5 * math.log(2.0 * math.pi)
        assert abs(transform(Gaussian(), 0.5)[1] - expect) < 1e-14

    def test_gaussian_at_09(self):
        assert abs(transform(Gaussian(), 0.9)[1] - 1.740125740779581) < 1e-12

    def test_alpha_beta_closed_form(self):
        got = transform(AlphaBeta(0.3, 0.3), 0.2)[1]
        assert abs(got - AB_LQD_03_02) < 1e-12

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=ALL_KIND_IDS)
    def test_matches_finite_difference_of_quantile(self, dist):
        for p in np.linspace(0.01, 0.99, 25):
            h = 1e-7 * min(p, 1.0 - p)
            slope = (dist.quantile(p + h) - dist.quantile(p - h)) / (2.0 * h)
            got = transform(dist, p)[1]
            assert got == pytest.approx(math.log(slope), rel=1e-5, abs=1e-7)

    @given(
        inv_nu=st.floats(0.01, 1.0),
        p=st.floats(0.01, 0.99),
    )
    @settings(max_examples=40, deadline=None)
    def test_student_t_derivative_property(self, inv_nu, p):
        dist = StudentT(inv_nu)
        h = 1e-7 * min(p, 1.0 - p)
        slope = (dist.quantile(p + h) - dist.quantile(p - h)) / (2.0 * h)
        assert transform(dist, p)[1] == pytest.approx(math.log(slope), rel=1e-5)

    def test_finite_at_extreme_percentiles(self):
        # Smallest percentile reachable for n up to 10^6.
        p_min = 1.0 / (2.0 * 10**6)
        for dist in ALL_KINDS:
            assert np.isfinite(transform(dist, p_min)[1])
            assert np.isfinite(transform(dist, 1.0 - p_min)[1])


TRANSFORM_KINDS = [
    Gaussian(), Uniform(), Logistic(),
    StudentT(0.0), StudentT(1e-12), StudentT(0.2), StudentT(1.0),
    AlphaBeta(0.0, 0.0), AlphaBeta(-1.0, -1.0), AlphaBeta(1.0, 1.0), AlphaBeta(-0.05, 0.3),
]


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=float)).view(np.int64)


def _hex(r):
    """The bits of a reduced value's three terms."""
    return [float.hex(v) for v in (r.value, r.det_term, r.jacobian_term)]


class TestTransform:
    """The likelihood's pair, ``quantile(p)`` and ``_lqd_at`` at that Q(p)
    (``oracles.transform``), is bit for bit the values of the separate
    quantile and closed-form log Q' routes."""

    RANKITS = (2.0 * np.arange(1, 1501) - 1.0) / 3000.0

    @pytest.mark.parametrize("dist", TRANSFORM_KINDS, ids=lambda d: d.label())
    @pytest.mark.parametrize("p", [RANKITS, 0.3, 0.975], ids=["rankits", "0.3", "0.975"])
    def test_bit_identical_to_separate_routes(self, dist, p):
        z, lqd = transform(dist, p)
        assert np.array_equal(_bits(z), _bits(dist.quantile(p)))
        assert np.array_equal(_bits(lqd), _bits(log_quantile_derivative(dist, p)))
        if np.ndim(p) == 0:
            assert type(z) is float and type(lqd) is float
        else:
            assert z.shape == lqd.shape == p.shape

    @pytest.mark.parametrize("dist", TRANSFORM_KINDS, ids=lambda d: d.label())
    def test_domain_errors(self, dist):
        for p in [0.0, 1.0, float("nan"), np.array([0.5, 1.0])]:
            with pytest.raises(DomainError):
                transform(dist, p)


def _rankits(n):
    """The rankit grid of n as a caller's own array, not the shared one."""
    return np.arange(1.0, 2.0 * n, 2.0) / (2.0 * n)


def _grid(n):
    """The shared rankit grid of n: the percentiles of a tie-free sample."""
    return percentiles(np.arange(float(n))).p_sorted


# Degrees of freedom stdtrit serves on the default t grid (its two ends
# are the Gaussian and the Cauchy closed forms).
DEFAULT_GRID_DFS = [1.0 / float(g) for g in family_grid("t")[1:-1]]

PAIRED_INPUTS = {
    "rankits-1": _rankits(1),
    "rankits-2": _rankits(2),
    "rankits-3": _rankits(3),
    "rankits-1499": _rankits(1499),
    "rankits-1500": _rankits(1500),
    # A tie run over the middle positions, off 1/2 and at 1/2.
    "ties-straddle-half": percentiles([1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0, 4.0, 5.0, 6.0]).p_sorted,
    "ties-at-half": percentiles([1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 4.0, 5.0]).p_sorted,
    "all-equal": percentiles(np.full(7, 2.5)).p_sorted,
    "reversed": _rankits(1500)[::-1],
    "shuffled": np.random.default_rng(17).permutation(_rankits(1499)),
    "empty": np.empty(0),
}


INV_NUS, INV_NU_IDS = [0.02, 0.15, 0.98, 1.0 / 6.67], ["0.02", "0.15", "0.98", "nu=6.67"]


def _cold_then_warm(p, inv_nu):
    """Two t quantiles of p, each checked to keep stdtrit's bits and p's."""
    p_before = p.copy()
    want = _bits(sc.stdtrit(1.0 / inv_nu, p))
    for _ in range(2):
        z = StudentT(inv_nu).quantile(p)
        assert z.shape == p.shape
        assert np.array_equal(_bits(z), want)
        assert np.array_equal(_bits(p), _bits(p_before))


class TestPairedStdtrit:
    """The t quantile evaluates stdtrit once per exactly mirrored pair of
    percentiles and keeps the bits of one stdtrit call per point."""

    @settings(max_examples=500, deadline=None)
    @given(df=st.one_of(st.floats(1.0, 1e6), st.sampled_from(DEFAULT_GRID_DFS),
                        # df = 1/inv_nu up to where it overflows, log-uniform
                        st.floats(-307.0, 0.0).map(lambda e: 1.0 / 10.0 ** e)),
           p=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
    def test_stdtrit_is_odd_at_exact_complements(self, df, p):
        # 1 - p is exact for p in (1/2, 1); the pairing rests on this.
        assert np.array_equal(_bits(sc.stdtrit(df, p)), _bits(-sc.stdtrit(df, 1.0 - p)))

    @pytest.mark.parametrize("inv_nu", INV_NUS, ids=INV_NU_IDS)
    @pytest.mark.parametrize("name", list(PAIRED_INPUTS))
    def test_quantile_keeps_stdtrit_bits(self, name, inv_nu, fresh_grid):
        # None of these is a shared grid (the rankits are a caller's own
        # arrays), so each call computes and nothing is stored.
        p = PAIRED_INPUTS[name]
        grid = fresh_grid(p.size) if p.size else None
        _cold_then_warm(p, inv_nu)
        assert grid is None or grid.store == {}

    @pytest.mark.parametrize("inv_nu", INV_NUS, ids=INV_NU_IDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 1499, 1500])
    def test_shared_grid_keeps_stdtrit_bits(self, n, inv_nu, fresh_grid):
        # The second call is served from the grid's store.
        grid = fresh_grid(n)
        _cold_then_warm(grid.p, inv_nu)
        assert list(grid.store) == [StudentT(inv_nu)]

    def test_median_is_positive_zero(self):
        z = StudentT(0.15).quantile(PAIRED_INPUTS["all-equal"])
        assert np.array_equal(_bits(z), np.zeros(7, dtype=np.int64))

    def test_scalar_gives_a_float(self):
        for p in (0.3, 0.5, 0.7):
            z = StudentT(0.15).quantile(p)
            assert type(z) is float
            assert np.array_equal(_bits(z), _bits(sc.stdtrit(1.0 / 0.15, p)))


@pytest.fixture
def stdtrit_dfs(monkeypatch):
    """A list that grows by the df of each ``sc.stdtrit`` call the t
    quantile makes."""
    calls = []

    class CountingSpecial:
        def __getattr__(self, name):
            return getattr(sc, name)

        def stdtrit(self, df, *args, **kwargs):
            calls.append(df)
            return sc.stdtrit(df, *args, **kwargs)

    monkeypatch.setattr(targetdist, "sc", CountingSpecial())
    return calls


class TestGridMemo:
    """A repeat quantile of one target on the shared rankit grid of one n
    is served from that grid's store, once a second ranking of n has given
    it one, as a fresh array with the same bits; any other p is computed
    and not held.  The store stops storing when full and dies with the
    grid."""

    N = 1500

    def test_repeat_evaluates_once(self, stdtrit_dfs, fresh_grid):
        grid, t = fresh_grid(self.N), StudentT(0.15)
        t.quantile(grid.p)
        cold = len(stdtrit_dfs)
        assert cold > 0
        t.quantile(grid.p)
        t.quantile(percentiles(np.random.default_rng(3).normal(size=self.N)).p_sorted)
        assert len(stdtrit_dfs) == cold
        StudentT(0.2).quantile(grid.p)
        assert len(stdtrit_dfs) > cold
        assert list(grid.store) == [t, StudentT(0.2)]

    def test_ties_and_a_callers_own_grid_are_computed_and_not_held(self, stdtrit_dfs, fresh_grid):
        grid = fresh_grid(self.N)
        y = np.round(bench(0).y, 1)
        assert np.unique(y).size < y.size
        t = StudentT(0.15)
        for p in (percentiles(y).p_sorted, _rankits(self.N), grid.p.copy()):
            assert p is not _grid(p.size)
            del stdtrit_dfs[:]
            first = t.quantile(p)
            cold = len(stdtrit_dfs)
            assert cold > 0
            assert np.array_equal(_bits(t.quantile(p)), _bits(first))
            assert len(stdtrit_dfs) == 2 * cold
        assert grid.store == {}

    @pytest.mark.parametrize("bad", [math.nan, 0.0, 1.0])
    @pytest.mark.parametrize("dist", ALL_KINDS, ids=ALL_KIND_IDS)
    def test_a_copy_of_the_grid_is_checked(self, dist, bad, fresh_grid):
        # Only the shared grid object, in range by construction, skips the
        # range check; a copy of it holding a point outside (0, 1) raises.
        grid = fresh_grid(self.N)
        message = r"^probabilities must lie strictly inside \(0, 1\)$"
        for k in (0, self.N // 2, self.N - 1):
            p = grid.p.copy()
            p[k] = bad
            with pytest.raises(DomainError, match=message):
                dist.quantile(p)
        assert grid.store == {}
        dist.quantile(grid.p)
        assert list(grid.store) == [dist]

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=ALL_KIND_IDS)
    def test_a_quantile_alone_holds_the_whole_entry(self, dist, fresh_grid):
        # The first quantile on the shared grid stores z and its jacobian
        # together, the jacobian with the bits transform sums on a
        # caller's copy of the grid.
        grid = fresh_grid(self.N)
        dist.quantile(grid.p)
        (z, jacobian), = grid.store.values()
        assert not z.flags.writeable and type(jacobian) is float
        assert float.hex(jacobian) == float.hex(float(np.sum(transform(dist, grid.p.copy())[1])))

    def test_a_correlation_report_holds_whole_entries(self, fresh_grid):
        grid = fresh_grid(self.N)
        targets = [Gaussian(), Uniform(), Logistic(), StudentT(0.15), AlphaBeta(-0.5, 0.7)]
        translik.correlation_report(np.random.default_rng(5).normal(size=self.N), targets)
        p = _rankits(self.N)
        for dist in targets:
            z, jacobian = grid.store[dist]
            assert float.hex(jacobian) == float.hex(float(np.sum(transform(dist, p)[1])))

    def test_a_second_ranking_creates_the_store(self, stdtrit_dfs, no_held_ranking):
        # One ranking of n alone is served by the states it keeps, and its
        # grid stores nothing; a second ranking of n gives the grid its
        # store, which then serves every ranking of n.
        n, t = 1238, StudentT(0.15)
        assert n not in percentile._grids
        first = percentiles(np.random.default_rng(7).normal(size=n))
        assert first._grid.store is None
        want = _bits(t.quantile(first.p_sorted))
        cold = len(stdtrit_dfs)
        assert np.array_equal(_bits(t.quantile(first.p_sorted)), want)
        assert len(stdtrit_dfs) == 2 * cold
        second = percentiles(np.random.default_rng(8).normal(size=n))
        assert second._grid is first._grid and first._grid.store == {}
        for pc in (first, second, first):
            assert np.array_equal(_bits(t.quantile(pc.p_sorted)), want)
        assert len(stdtrit_dfs) == 3 * cold and list(first._grid.store) == [t]

    def test_a_grid_lives_while_a_ranking_holds_it(self, stdtrit_dfs, no_held_ranking):
        # A size's grid, and its store, leave with the last ranking of the
        # size, and ``percentiles`` holds the last one it made until it
        # ranks another sample; the next grid of n starts without a store.
        n, t = 1237, StudentT(0.15)
        pcs = [percentiles(np.random.default_rng(seed).normal(size=n)) for seed in (7, 8)]
        want = _bits(t.quantile(pcs[0].p_sorted))
        cold = len(stdtrit_dfs)
        assert cold > 0 and list(pcs[0]._grid.store) == [t]
        grid = weakref.ref(pcs[0]._grid)
        del pcs
        gc.collect()
        assert percentile._grids[n] is grid()
        percentiles(np.random.default_rng(7).normal(size=n - 1))
        gc.collect()
        assert grid() is None and n not in percentile._grids
        pc = percentiles(np.random.default_rng(9).normal(size=n))
        assert pc._grid.store is None
        assert np.array_equal(_bits(t.quantile(pc.p_sorted)), want)
        assert len(stdtrit_dfs) == 2 * cold

    def test_mutating_a_result_leaves_the_next_intact(self, fresh_grid):
        t, p = StudentT(0.15), fresh_grid(self.N).p
        want = _bits(sc.stdtrit(1.0 / 0.15, p))
        for _ in range(3):  # the cold result, then two served from the store
            z = t.quantile(p)
            assert np.array_equal(_bits(z), want)
            z[:] = 7.0

    def test_one_ulp_off_misses(self, stdtrit_dfs, fresh_grid):
        t = StudentT(0.15)
        t.quantile(fresh_grid(self.N).p)
        cold = len(stdtrit_dfs)
        p = _grid(self.N).copy()
        p[700] = np.nextafter(p[700], 1.0)
        z = t.quantile(p)
        assert len(stdtrit_dfs) > cold
        assert np.array_equal(_bits(z), _bits(sc.stdtrit(1.0 / 0.15, p)))

    def test_held_bytes_stay_within_budget(self, stdtrit_dfs, fresh_grid):
        # The store keeps its first _MEMO_BUDGET // p.nbytes targets and
        # computes every later one without storing it.
        grid = fresh_grid(self.N)
        fits = targetdist._MEMO_BUDGET // grid.p.nbytes
        targets = [StudentT(1.0 / df) for df in np.linspace(2.0, 50.0, fits + 20)]
        for t in targets:
            t.quantile(grid.p)
        assert list(grid.store) == targets[:fits]
        assert sum(z.nbytes for z, _ in grid.store.values()) <= targetdist._MEMO_BUDGET
        calls = len(stdtrit_dfs)
        targets[0].quantile(grid.p)
        targets[fits - 1].quantile(grid.p)
        assert len(stdtrit_dfs) == calls
        z = targets[-1].quantile(grid.p)
        assert len(stdtrit_dfs) > calls and len(grid.store) == fits
        assert np.array_equal(_bits(z), _bits(sc.stdtrit(1.0 / targets[-1].inv_nu, grid.p)))

    @pytest.mark.parametrize("n", [8001, 300000])
    def test_a_large_grid_is_shared_and_its_store_kept_within_budget(self, n, no_held_ranking):
        # Every tie-free ranking of n holds its n's one read-only grid, at
        # any n: the next ranking picks up the held ranking's p and gives
        # the grid its store, bounded by the budget alone (65 targets at
        # 8001 points, 1 at 300000).
        pc = percentiles(np.arange(float(n)))
        p = pc.p_sorted
        assert not p.flags.writeable and percentile._grids[n] is pc._grid and pc._grid.p is p
        assert pc._grid.store is None
        no_held_ranking()
        assert p is percentiles(np.arange(float(n))).p_sorted and pc._grid.store == {}
        z = StudentT(0.15).quantile(p)
        assert list(pc._grid.store) == [StudentT(0.15)]
        assert targetdist._MEMO_BUDGET // p.nbytes == (65 if n == 8001 else 1)
        assert np.array_equal(_bits(z), _bits(sc.stdtrit(1.0 / 0.15, p)))

    def test_rankings_of_8001_points_share_one_grid_and_its_bounded_store(self, no_held_ranking):
        # Two tie-free rankings of 8001 points share one grid, and the
        # second gives it a store that keeps _MEMO_BUDGET // p.nbytes
        # targets.  A sample's values are cold on its first ranking (no
        # store) and warm on a later one, served from the entries the
        # second ranking stored, with the same bits.
        n, design = 8001, DesignSpec(63, 127)
        y = np.random.default_rng(7).normal(size=n)
        first = percentiles(y)
        grid = first._grid
        targets = [AlphaBeta(a, a) for a in np.linspace(-0.9, 0.9, 70)]

        def values(pc):
            return [_hex(translik.reduced_profile_loglik(pc, t, design)) for t in targets[:3]]

        cold = values(first)
        assert grid.store is None
        second = percentiles(np.random.default_rng(8).normal(size=n))
        assert second._grid is grid and second.p_sorted is first.p_sorted is grid.p
        assert grid.store == {}
        values(second)
        assert list(grid.store) == targets[:3]
        warm = percentiles(y)
        assert warm is not first and warm._grid is grid
        assert values(warm) == cold
        fits = targetdist._MEMO_BUDGET // grid.p.nbytes
        assert fits == 65
        for t in targets:
            z = t.quantile(grid.p)
            assert np.array_equal(_bits(z), _bits(t.quantile(grid.p.copy())))
        assert list(grid.store) == targets[:fits]

    def test_a_budget_below_one_entry_stores_nothing(self, fresh_grid, monkeypatch):
        # A store keeps no entry where one z exceeds the budget, as from
        # 524289 points at the real budget; the quantile is computed each
        # time with the same bits.
        grid, t = fresh_grid(8001), StudentT(0.15)
        monkeypatch.setattr(targetdist, "_MEMO_BUDGET", grid.p.nbytes - 1)
        want = _bits(sc.stdtrit(1.0 / 0.15, grid.p))
        for _ in range(2):
            assert np.array_equal(_bits(t.quantile(grid.p)), want)
        assert grid.store == {}

    def test_the_largest_held_result(self, fresh_grid):
        grid = fresh_grid(8000)
        assert not grid.p.flags.writeable
        StudentT(0.15).quantile(grid.p)
        (z, _), = grid.store.values()
        assert z.nbytes == grid.p.nbytes == 64000
        # A refined sweep's 51 grid points and about 10 refinement points
        # stay in the store together.
        assert targetdist._MEMO_BUDGET // grid.p.nbytes >= 61

    def test_a_named_target_and_its_family_member_take_separate_entries(self, fresh_grid):
        grid = fresh_grid(self.N)
        for named, member in ((Gaussian(), StudentT(0.0)), (Logistic(), AlphaBeta(0.0, 0.0))):
            assert np.array_equal(_bits(named.quantile(grid.p)), _bits(member.quantile(grid.p)))
        assert [type(dist) for dist in grid.store] == [Gaussian, StudentT, Logistic, AlphaBeta]

    @pytest.mark.parametrize("plus, minus", [
        (StudentT(0.0), StudentT(-0.0)),
        (AlphaBeta(0.0, 0.0), AlphaBeta(-0.0, -0.0)),
        (AlphaBeta(0.0, 0.3), AlphaBeta(-0.0, 0.3)),
        (AlphaBeta(0.3, 0.0), AlphaBeta(0.3, -0.0)),
    ], ids=["t", "logistic", "alpha", "beta"])
    def test_signed_zero_parameters_give_equal_bits(self, plus, minus, fresh_grid):
        # The two compare equal and so share one entry: each computes the
        # other's bits.
        grid = fresh_grid(self.N)
        p = grid.p
        computed = [[_bits(v) for v in transform(d, p.copy())] for d in (plus, minus)]
        for a, b in zip(*computed):
            assert np.array_equal(a, b)
        for d in (minus, plus):  # the second served from the first's entry
            for got, want in zip(transform(d, p), computed[0]):
                assert np.array_equal(_bits(got), want)
        assert len(grid.store) == 1

    @pytest.mark.parametrize("family", ["t", "alpha"])
    def test_second_sample_of_one_size_evaluates_only_refinement_points(
            self, family, fresh_grid, monkeypatch):
        # Two tie-free samples of one size have the same percentiles, so the
        # second sweep finds every grid point's z and jacobian in the
        # grid's store:
        # no special function, logarithm or product of the targets runs
        # there.  Each is recorded with the family parameter of the target
        # being transformed, whether the sweep prepares it before its loop
        # or at the point it evaluates.
        current, evaluated, points = [None], set(), []
        family_terms, z_and_jacobian = translik._family_terms, translik._z_and_jacobian
        field = translik._FAMILIES[family][1]

        def recording_terms(family, data, design, grid=()):
            at, evaluate = family_terms(family, data, design, grid)

            def recorded_at(i):
                points.append(grid[i])
                return at(i)

            def recorded_evaluate(x):
                points.append(x)
                return evaluate(x)

            return recorded_at, recorded_evaluate

        def recording_z_and_jacobian(dist, p):
            current[0] = getattr(dist, field)
            return z_and_jacobian(dist, p)

        class Recording:
            def __init__(self, module, names=None):
                self.module, self.names = module, names

            def __getattr__(self, name):
                fn = getattr(self.module, name)
                if self.names is not None and name not in self.names:
                    return fn

                def recorded(*args, **kwargs):
                    evaluated.add(current[0])
                    return fn(*args, **kwargs)

                return recorded

        monkeypatch.setattr(translik, "_family_terms", recording_terms)
        monkeypatch.setattr(translik, "_z_and_jacobian", recording_z_and_jacobian)
        monkeypatch.setattr(targetdist, "sc", Recording(sc))
        monkeypatch.setattr(targetdist, "np", Recording(np, {"log", "log1p", "multiply"}))
        profile = profile_student_t if family == "t" else profile_alpha
        fresh_grid(1500)
        grid = set(family_grid(family).tolist())
        first, second = bench(0), bench(1, "cauchy")
        profile(first.y, fixed_design(first), refine=True)
        assert grid <= evaluated
        evaluated.clear()
        del points[:]
        profile(second.y, fixed_design(second), refine=True)
        assert set(points) - grid  # the second sweep refined
        assert evaluated and not evaluated & grid

    def test_threads_keep_the_accounting(self, fresh_grid):
        # More threads than cores, switching often, fill one store past its
        # bound, each hitting the entries another has just stored: a torn
        # entry or a wrong hit changes the bits, and the check-then-store
        # lets each thread pass the bound by one entry at most.
        grid = fresh_grid(512)
        bound = targetdist._MEMO_BUDGET // grid.p.nbytes
        inv_nus = np.linspace(0.02, 0.5, bound + 100)
        want = {x: _bits(sc.stdtrit(1.0 / x, grid.p)) for x in inv_nus[::7]}
        wrong, done = [], []

        def work(k):
            for x in np.tile(np.roll(inv_nus, k * inv_nus.size // 6), 2):
                z = StudentT(x).quantile(grid.p)
                if x in want and not np.array_equal(_bits(z), want[x]):
                    wrong.append(x)
            done.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(done) == list(range(len(threads))) and not wrong
        assert bound <= len(grid.store) <= bound + len(threads)
        for dist, (z, jacobian) in grid.store.items():
            assert isinstance(z, np.ndarray) and z.shape == grid.p.shape
            assert not z.flags.writeable and type(jacobian) is float
            if dist.inv_nu in want:
                assert np.array_equal(_bits(z), want[dist.inv_nu])


class TestFreshResults:
    """quantile returns a new array: a caller may write into it."""

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=ALL_KIND_IDS)
    def test_shares_memory_with_neither_p_nor_the_last_result(self, dist, fresh_grid):
        grid = fresh_grid(1500)
        p = grid.p
        first = dist.quantile(p)   # computed
        second = dist.quantile(p)  # served from the grid's store
        (kept, _), = grid.store.values()
        for z in (first, second):
            assert z.flags.writeable and not np.may_share_memory(z, p)
            assert not np.may_share_memory(z, kept)
        assert not np.may_share_memory(first, second)

    def test_every_kind_is_covered(self):
        assert {type(d) for d in ALL_KINDS} == set(TARGETS.values())


class TestFamilyMembers:
    """Gaussian is the t family's inv_nu = 0 member and Logistic the
    alpha-beta family's alpha = beta = 0 member, each under its own label."""

    MEMBERS = [(Gaussian(), StudentT(0.0)), (Logistic(), AlphaBeta(0.0, 0.0))]
    MEMBER_IDS = ["gaussian", "logistic"]

    def test_subclasses_at_the_fixed_parameters(self):
        assert isinstance(Gaussian(), StudentT) and Gaussian().inv_nu == 0.0
        assert isinstance(Logistic(), AlphaBeta)
        assert (Logistic().alpha, Logistic().beta) == (0.0, 0.0)
        # The t family's constructor from nu builds a t member on any class.
        assert type(Gaussian.from_nu(4.0)) is StudentT

    def test_parameters_cannot_be_given(self):
        with pytest.raises(TypeError):
            Gaussian(0.5)
        with pytest.raises(TypeError):
            Logistic(0.1)
        with pytest.raises(TargetSpecError):
            parse_target("gaussian:inv_nu=0.5")

    @pytest.mark.parametrize("named, member", MEMBERS, ids=MEMBER_IDS)
    def test_unequal_to_the_family_member(self, named, member):
        assert named != member and member != named
        assert named.label() != member.label()

    @pytest.mark.parametrize("p", [
        _rankits(1), _rankits(2), _rankits(1500), PAIRED_INPUTS["ties-straddle-half"],
    ], ids=["rankits-1", "rankits-2", "rankits-1500", "ties"])
    @pytest.mark.parametrize("named, member", MEMBERS, ids=MEMBER_IDS)
    def test_bit_equal_to_the_family_member(self, named, member, p):
        for got, want in zip(transform(named, p), transform(member, p)):
            assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(_bits(named.entropy()), _bits(member.entropy()))


class TestRoundTrip:
    CDF_KINDS = [Gaussian(), Uniform(), Logistic(), StudentT(0.0),
                 StudentT(0.15), StudentT(0.5), StudentT(1.0)]
    CDF_KIND_IDS = ["gaussian", "uniform", "logistic", "t(inv_nu=0)",
                    "t(nu=6.66667)", "t(nu=2)", "t(nu=1)"]

    @pytest.mark.parametrize("dist", CDF_KINDS, ids=CDF_KIND_IDS)
    def test_cdf_of_quantile(self, dist):
        p = np.arange(1, 100) / 100.0
        back = dist.cdf(dist.quantile(p))
        assert np.max(np.abs(back - p)) < 1e-10


class TestFamilyContinuity:
    def test_t_family_approaches_gaussian(self):
        p = np.linspace(0.01, 0.99, 99)
        gap = StudentT(1e-6).quantile(p) - Gaussian().quantile(p)
        assert np.max(np.abs(gap)) < 1e-3
        # sum log Q' on the n = 1500 rankit grid departs from its Gaussian
        # value by about 1.5e3 inv_nu, all the way down to inv_nu = 1e-15.
        rankits = (2.0 * np.arange(1, 1501) - 1.0) / 3000.0
        gauss = np.sum(transform(Gaussian(), rankits)[1])
        for inv_nu in 10.0 ** -np.arange(5, 16):
            gap = np.sum(transform(StudentT(inv_nu), rankits)[1]) - gauss
            assert abs(gap) <= 2e3 * inv_nu + 1e-10, (inv_nu, gap)

    def test_alpha_family_approaches_logistic(self):
        p = np.linspace(0.01, 0.99, 99)
        gap = AlphaBeta(1e-6, 1e-6).quantile(p) - Logistic().quantile(p)
        assert np.max(np.abs(gap)) < 1e-3
        # To first order in a both gaps are at most |a| log(0.01)^2 / 2 = 10.6 |a|.
        for a in [s * 10.0 ** -k for k in range(6, 16) for s in (1, -1)]:
            ab = AlphaBeta(a, a)
            gap_q = ab.quantile(p) - Logistic().quantile(p)
            gap_lqd = transform(ab, p)[1] - transform(Logistic(), p)[1]
            assert np.max(np.abs(gap_q)) <= 11.0 * abs(a) + 1e-14, a
            assert np.max(np.abs(gap_lqd)) <= 11.0 * abs(a) + 1e-14, a


class TestTargetSpecs:
    @given(
        inv_nu=st.floats(0.0, 1.0),
        alpha=st.floats(-1.0, 1.0),
        beta=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_labels_parse_back(self, inv_nu, alpha, beta):
        dists = [Gaussian(), Uniform(), Logistic(), StudentT(inv_nu), AlphaBeta(alpha, beta)]
        for d in dists:
            assert parse_target(d.label()) == d
        assert parse_target_list(",".join(d.label() for d in dists)) == dists

    def test_grammar_names_every_kind_and_field(self):
        for kind, cls in TARGETS.items():
            assert kind in TARGET_GRAMMAR
            for field in fields(cls):
                assert f"{field.name}=" in TARGET_GRAMMAR


class TestStudentTLogDensity:
    """The t log density log f(Q(p)) = -log Q'(p), read from ``transform``."""

    def test_cauchy_values(self):
        # Q is exactly 0 at p = 1/2 and exactly 1 at p = 3/4.
        assert StudentT(1.0).quantile(0.75) == 1.0
        assert abs(-transform(StudentT(1.0), 0.5)[1] - CAUCHY_LOGPDF_0) < 1e-14
        assert abs(-transform(StudentT(1.0), 0.75)[1] - CAUCHY_LOGPDF_1) < 1e-14

    def test_t5_against_oracle(self):
        z, lqd = transform(StudentT(0.2), sc.stdtr(5, 1.5))
        assert abs(z - 1.5) < 1e-14
        assert abs(-lqd - T5_LOGPDF_15) < 1e-12

    def test_continuity_toward_gaussian(self):
        z, lqd = transform(StudentT(1e-8), sc.ndtr(0.7))
        gauss = -0.5 * math.log(2.0 * math.pi) - 0.5 * z * z
        assert abs(-lqd - gauss) < 1e-6

    @pytest.mark.parametrize("inv_nu", [5e-324, 1e-310])
    def test_subnormal_inv_nu_is_the_gaussian_log_density(self, inv_nu):
        # nu = 1/inv_nu overflows to inf: the Gaussian, with no inf * 0.
        p = sc.ndtr(np.array([-3.0, -0.5, 0.0, 1.0, 8.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, got = transform(StudentT(inv_nu), p)
            scalar = transform(StudentT(inv_nu), 0.5)[1]
        assert np.array_equal(_bits(got), _bits(0.5 * targetdist.LOG_2PI + 0.5 * z * z))
        assert type(scalar) is float
        assert scalar == 0.5 * targetdist.LOG_2PI


class TestEntropy:
    def test_closed_forms(self):
        assert abs(Gaussian().entropy() - GAUSS_ENTROPY) < 1e-14
        assert Uniform().entropy() == 0.0
        assert Logistic().entropy() == 2.0
        assert abs(StudentT(1.0).entropy() - CAUCHY_ENTROPY) < 1e-12

    def test_t_entropy_against_integration_oracle(self):
        assert abs(StudentT(0.2).entropy() - T5_ENTROPY) < 1e-12
        assert abs(StudentT.from_nu(6.67).entropy() - T667_ENTROPY) < 1e-12

    @pytest.mark.parametrize("inv_nu, exact", sorted(T_ENTROPY_MPMATH.items()))
    def test_t_entropy_against_mpmath(self, inv_nu, exact):
        # The digamma form alone is off by 0.5 at 1e-16 and 1.6e-12 at 1e-4.
        assert abs(StudentT(inv_nu).entropy() - exact) <= 1e-12

    @pytest.mark.parametrize("inv_nu", [targetdist._T_ENTROPY_SERIES_BELOW, 0.15, 0.5, 1.0])
    def test_t_entropy_digamma_form_from_series_cut_over(self, inv_nu):
        nu = 1.0 / inv_nu
        digamma_form = float(
            (nu + 1.0) / 2.0 * (sc.digamma((nu + 1.0) / 2.0) - sc.digamma(nu / 2.0))
            + 0.5 * math.log(nu)
            + sc.betaln(0.5, nu / 2.0)
        )
        assert StudentT(inv_nu).entropy() == digamma_form

    def test_unknown_for_general_alpha_beta(self):
        assert AlphaBeta(0.3, -0.2).entropy() is None
        assert AlphaBeta(0.0, 0.0).entropy() == 2.0


class TestAffine:
    def test_quantile_and_cdf(self):
        d = Affine(Gaussian(), shift=2.0, scale=3.0)
        assert abs(d.quantile(0.975) - (2.0 + 3.0 * NDTRI_ORACLE[0.975])) < 1e-12
        assert abs(d.cdf(2.0) - 0.5) < 1e-14

    def test_negative_scale_still_a_distribution(self):
        d = Affine(Logistic(), shift=0.0, scale=-2.0)
        p = np.linspace(0.05, 0.95, 19)
        q = d.quantile(p)
        assert np.all(np.diff(q) > 0.0)
        assert np.max(np.abs(d.cdf(q) - p)) < 1e-12

    def test_entropy_shift(self):
        d = Affine(Gaussian(), shift=-1.0, scale=4.0)
        assert abs(d.entropy() - (GAUSS_ENTROPY + math.log(4.0))) < 1e-14

    def test_zero_scale_rejected(self):
        with pytest.raises(DomainError):
            Affine(Gaussian(), shift=0.0, scale=0.0)


class TestParameterValidation:
    # Every field must be a real number in its range: a string, None, an
    # array or a bool is refused like a value out of range.
    @pytest.mark.parametrize("inv_nu", [-0.1, 1.5, "0.3", None, True, np.array([0.1, 0.2])])
    def test_inv_nu_range(self, inv_nu):
        with pytest.raises(DomainError, match=r"^inv_nu must lie in \[0, 1\]$"):
            StudentT(inv_nu)

    @pytest.mark.parametrize("nu", [0.5, "5", None, True])
    def test_nu_range(self, nu):
        with pytest.raises(DomainError, match=r"^nu must be >= 1"):
            StudentT.from_nu(nu)

    @pytest.mark.parametrize("alpha, beta", [
        (1.2, 0.0), (0.0, -1.01), (0.1, [0.1]), (np.array([0.1, 0.2]), 0.1), (False, 0.0),
    ])
    def test_alpha_beta_range(self, alpha, beta):
        with pytest.raises(DomainError, match=r"^(alpha|beta) must lie in \[-1, 1\]$"):
            AlphaBeta(alpha, beta)

    def test_numpy_reals_accepted(self):
        assert StudentT(np.float64(0.25)) == StudentT(0.25)
        assert AlphaBeta(np.float32(0.5), np.int64(0)) == AlphaBeta(0.5, 0.0)
        assert StudentT.from_nu(np.int64(4)) == StudentT(0.25)
