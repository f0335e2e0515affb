"""Simulation engine: reproducibility contract, forked path shards,
martingale property, moment agreement with the closed-form maps, exactness
of the jump-model scheme, agreement with the path-major reference kernels
and the memory held."""

import errno
import functools
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from covhedge import _shards, matcalc, models, simulate

import oracles
from conftest import (A_REF, ALPHA_REF, M_REF, RHO_REF, S0_3, S0_REF,
                      SIGMA0_3, SIGMA0_REF, STEPS_REF, basis_at,
                      three_asset_params)

N_PATHS = 6000
N_STEPS = 200

# the three-asset sets: the simulation factors 3 x 3 states by the same
# elimination as 2 x 2 ones, and psd_repair repairs the wasc states by eigh
STATE_3 = models.MarketState.from_spot(t=0.0, spot=S0_3, cov=SIGMA0_3)
WASC_3 = three_asset_params("wasc")
BNS_3 = three_asset_params("bns")


@pytest.fixture(scope="module")
def wasc_sim(wasc_ref, state_ref):
    return simulate.simulate(wasc_ref, state_ref, 1.0, N_STEPS, N_PATHS,
                             seed=101)


@pytest.fixture(scope="module")
def bns_sim(bns_ref, state_ref):
    return simulate.simulate(bns_ref, state_ref, 1.0, N_STEPS, N_PATHS,
                             seed=202)


def _se(x):
    return x.std(axis=0, ddof=1) / np.sqrt(x.shape[0])


class TestBasics:
    def test_grid_and_initial_conditions(self, wasc_sim, state_ref):
        assert wasc_sim.times.shape == (N_STEPS + 1,)
        assert wasc_sim.times[0] == 0.0 and wasc_sim.times[-1] == 1.0
        assert np.allclose(wasc_sim.log_spot[:, 0], state_ref.log_spot)
        assert np.allclose(wasc_sim.cov[:, 0], state_ref.cov)
        assert np.all(wasc_sim.integrated_cov[:, 0] == 0.0)

    def test_covariance_stays_psd(self, wasc_sim):
        sub = wasc_sim.cov[:500]
        lmin = np.linalg.eigvalsh(sub)[..., 0]
        assert lmin.min() > -1e-12

    def test_input_validation(self, wasc_ref, bns_ref, state_ref):
        with pytest.raises(ValueError):
            simulate.simulate(wasc_ref, state_ref, 0.0, 10, 10, seed=1)
        with pytest.raises(ValueError):
            simulate.simulate(wasc_ref, state_ref, 1.0, 0, 10, seed=1)
        with pytest.raises(ValueError):
            simulate.simulate(wasc_ref, state_ref, 1.0, 10, 10, seed=-1)
        with pytest.raises(ValueError):
            simulate.simulate(bns_ref, state_ref, 1.0, 10, 10, seed=1,
                              path_start=-1)

    def test_rejects_a_state_of_another_dimension(self, wasc_ref, bns_ref):
        # a 3-asset state under d = 2 params used to fail inside numpy
        for params in (wasc_ref, bns_ref):
            with pytest.raises(ValueError, match="3 assets, the params d = 2"):
                simulate.simulate(params, STATE_3, 1.0, 3, 2, seed=1)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf])
    def test_rejects_non_finite_horizon(self, horizon, wasc_ref, bns_ref,
                                        state_ref):
        # nothing downstream rejects a nan horizon: the panels come out nan
        for params in (wasc_ref, bns_ref):
            with pytest.raises(ValueError, match="finite"):
                simulate.simulate(params, state_ref, horizon, 3, 2, seed=1)


class TestDeterminism:
    @pytest.mark.parametrize("model", ["wasc", "bns"])
    def test_bitwise_reproducible(self, model, wasc_ref, bns_ref, state_ref):
        params = wasc_ref if model == "wasc" else bns_ref
        a = simulate.simulate(params, state_ref, 1.0, 40, 50, seed=9)
        b = simulate.simulate(params, state_ref, 1.0, 40, 50, seed=9)
        assert np.array_equal(a.log_spot, b.log_spot)
        assert np.array_equal(a.cov, b.cov)
        assert np.array_equal(a.integrated_cov, b.integrated_cov)

    @pytest.mark.parametrize("model", ["wasc", "bns"])
    def test_partition_invariance(self, model, wasc_ref, bns_ref, state_ref):
        params = wasc_ref if model == "wasc" else bns_ref
        full = simulate.simulate(params, state_ref, 1.0, 40, 40, seed=9)
        lo = simulate.simulate(params, state_ref, 1.0, 40, 17, seed=9,
                               path_start=0)
        hi = simulate.simulate(params, state_ref, 1.0, 40, 23, seed=9,
                               path_start=17)
        assert np.array_equal(full.log_spot,
                              np.concatenate([lo.log_spot, hi.log_spot]))
        assert np.array_equal(full.integrated_cov,
                              np.concatenate([lo.integrated_cov,
                                              hi.integrated_cov]))

    @pytest.mark.parametrize("model", ["wasc", "bns"])
    def test_seed_and_path_start_must_be_integers(self, model, wasc_ref,
                                                  bns_ref, state_ref):
        # unchecked, the Philox key truncates them: seed 1.5 draws seed 1
        # and path_start 2.7 path 2; numpy integers keep their bits
        params = wasc_ref if model == "wasc" else bns_ref
        for seed, path_start in ((1.5, 0), (1.9999, 0), (1, 2.7),
                                 (np.float64(1.0), 0)):
            with pytest.raises(TypeError, match="integer"):
                simulate.simulate(params, state_ref, 1.0, 3, 4, seed=seed,
                                  path_start=path_start)
        want = simulate.simulate(params, state_ref, 1.0, 3, 4, seed=1,
                                 path_start=2)
        got = simulate.simulate(params, state_ref, 1.0, 3, 4,
                                seed=np.int64(1), path_start=np.uint8(2))
        assert np.array_equal(got.log_spot, want.log_spot)
        assert np.array_equal(got.cov, want.cov)

    def test_seed_changes_paths(self, wasc_ref, state_ref):
        a = simulate.simulate(wasc_ref, state_ref, 1.0, 40, 50, seed=9)
        b = simulate.simulate(wasc_ref, state_ref, 1.0, 40, 50, seed=10)
        assert not np.array_equal(a.log_spot, b.log_spot)


def shards(monkeypatch, n):
    monkeypatch.setattr(_shards, "count", lambda work, min_work: n)


def count_forks(monkeypatch) -> list:
    """Record every fork this process makes from now on."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_same_panels(got, want):
    for field in ("log_spot", "cov", "integrated_cov", "clip_count"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


class TestShards:
    """Path shards swept in forked children write into the panel that the
    parent returns; the panel must not depend on the shard count.  Three
    steps at three times the reference mean reversion make the wasc
    diffusion step repair many paths, so the children's clip counts are
    merged too."""

    @pytest.fixture(params=["wasc", "bns"])
    def params(self, request, bns_ref):
        if request.param == "bns":
            return bns_ref
        return models.WascParams(d=2, mean_rev=3.0 * M_REF,
                                 vol_of_vol=A_REF, leverage=RHO_REF,
                                 alpha=ALPHA_REF)

    def run(self, params, state_ref, n_paths=130):
        return simulate.simulate(params, state_ref, 1.0, 3, n_paths, seed=9,
                                 path_start=5)

    def test_panels_independent_of_the_shard_count(self, params, state_ref,
                                                   monkeypatch):
        # 130 paths in 3 shards is a ragged 43 / 43 / 44 split
        forks = count_forks(monkeypatch)
        runs = []
        for n in (1, 2, 3):
            shards(monkeypatch, n)
            runs.append(self.run(params, state_ref))
        assert len(forks) == 0 + 1 + 2
        for run in runs[1:]:
            assert_same_panels(run, runs[0])
        if params.kind == "wasc":
            assert runs[0].clip_count > 0

    def test_failures_are_raised_and_every_child_reaped(self, params,
                                                        state_ref,
                                                        monkeypatch):
        # the second of two shards, paths [65, 130), runs in a child
        name = "_wasc_kernel" if params.kind == "wasc" else "_bns_kernel"
        kernel = getattr(simulate, name)

        def failing(*args):
            idx0 = args[-4]
            if idx0 >= 5 + 65:
                raise ValueError(f"shown path {idx0}")
            return kernel(*args)

        monkeypatch.setattr(simulate, name, failing)
        shards(monkeypatch, 2)
        with pytest.raises(ValueError, match="shown path 70") as err:
            self.run(params, state_ref)
        assert "simulate shard process of rows [65, 130)" in str(
            err.value.__cause__)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_a_failed_fork_runs_the_shard_here(self, params, state_ref,
                                               monkeypatch):
        shards(monkeypatch, 2)
        want = self.run(params, state_ref)

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        fds = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            assert_same_panels(self.run(params, state_ref), want)
        assert len(os.listdir("/proc/self/fd")) == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_threaded_caller_forks_nothing(self, params, state_ref,
                                             monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(simulate, "_MIN_SHARD_PATH_STEPS", 1)
        assert _shards.count(130 * 3, simulate._MIN_SHARD_PATH_STEPS) == 2
        want = self.run(params, state_ref)

        def fork():
            raise AssertionError("forked while another thread runs")

        monkeypatch.setattr(os, "fork", fork)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            got = self.run(params, state_ref)
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert_same_panels(got, want)

    def test_fork_raises_no_warning(self, params, state_ref, monkeypatch):
        # Python 3.12 on warns when a process with more than one thread
        # forks; OpenBLAS's own fork handler stops its threads first
        shards(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        big = np.ones((512, 512))
        big @ big                      # large enough to wake OpenBLAS's pool
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.run(params, state_ref)
        assert len(forks) == 1


class TestStreams:
    """A kernel call re-keys one generator per path; each path must still draw
    exactly its own fresh stream, in the documented order."""

    SEED, IDX0, N, STEPS = 2**40 + 3, 1000, 100, 6

    def test_wasc_draws_match_fresh_streams(self):
        for i, rng in enumerate(simulate._path_streams(self.SEED, self.IDX0,
                                                       self.N)):
            ref = oracles.path_rng(self.SEED, self.IDX0 + i)
            for shape in ((self.STEPS, 2, 2), (self.STEPS, 2)):
                assert np.array_equal(rng.standard_normal(shape),
                                      ref.standard_normal(shape))

    def bns_draws(self, params):
        xi = np.empty((self.STEPS, params.d, self.N))
        draws = simulate._draw_jumps(params, 1.0, self.SEED, self.IDX0, xi)
        return draws, xi

    def test_bns_draws_match_fresh_streams(self, bns_ref):
        (ev_path, ev_time, chi2, gauss), xi = self.bns_draws(bns_ref)
        df = bns_ref.wishart_shape - np.arange(2)
        want = {"time": [], "chi2": [], "gauss": []}
        counts = []
        for i in range(self.N):
            ref = oracles.path_rng(self.SEED, self.IDX0 + i)
            n_jumps = int(ref.poisson(bns_ref.jump_intensity))
            counts.append(n_jumps)
            want["time"].append(np.sort(ref.random(n_jumps)))
            want["chi2"].append(ref.chisquare(np.broadcast_to(df,
                                                              (n_jumps, 2))))
            want["gauss"].append(ref.standard_normal((n_jumps, 2, 2)))
            assert np.array_equal(xi[..., i],
                                  ref.standard_normal((self.STEPS, 2)))
        # a path without jumps must not shift the next path's draws
        assert 0 in counts[:-1]
        assert np.array_equal(ev_path, np.repeat(np.arange(self.N), counts))
        assert np.array_equal(ev_time, np.concatenate(want["time"]))
        assert np.array_equal(chi2, np.concatenate(want["chi2"]))
        assert np.array_equal(gauss, np.concatenate(want["gauss"]))

    def test_bns_jump_times_ascend_within_each_path(self, bns_ref):
        (ev_path, ev_time, _, _), _ = self.bns_draws(bns_ref)
        same_path = np.diff(ev_path) == 0
        assert same_path.any() and not same_path.all()
        assert np.all(np.diff(ev_time)[same_path] >= 0.0)
        assert np.all((ev_time >= 0.0) & (ev_time < 1.0))


class TestLayout:
    @pytest.mark.parametrize("model", ["wasc", "bns"])
    def test_each_date_is_one_contiguous_block(self, model, wasc_ref,
                                               bns_ref, state_ref):
        params = wasc_ref if model == "wasc" else bns_ref
        sim = simulate.simulate(params, state_ref, 1.0, 5, 7, seed=9)
        assert sim.log_spot.shape == (7, 6, 2)
        assert sim.cov.shape == sim.integrated_cov.shape == (7, 6, 2, 2)
        for k in range(6):
            for panel in (sim.log_spot, sim.cov, sim.integrated_cov):
                assert panel[:, k].flags.c_contiguous


class TestWascStatistics:
    def test_spot_martingale(self, wasc_sim):
        st = np.exp(wasc_sim.log_spot[:, -1])
        dev = np.abs(st.mean(axis=0) - S0_REF)
        assert np.all(dev <= 3.0 * _se(st))

    def test_terminal_covariance_mean(self, wasc_ref, wasc_sim):
        exact = models.wasc_mean_cov(wasc_ref, SIGMA0_REF, 1.0)
        samp = wasc_sim.cov[:, -1]
        dev = np.abs(samp.mean(axis=0) - exact)
        assert np.all(dev <= 3.0 * _se(samp) + 1e-12)

    def test_integrated_covariance_mean(self, wasc_ref, wasc_sim):
        imap = models.wasc_integrated_mean(wasc_ref, 0.0, 1.0)
        exact = matcalc.mat(imap.map @ matcalc.vec(SIGMA0_REF) + imap.offset)
        samp = wasc_sim.integrated_cov[:, -1]
        dev = np.abs(samp.mean(axis=0) - exact)
        assert np.all(dev <= 3.0 * _se(samp) + 1e-12)

    def test_transform_against_paths(self, wasc_ref, wasc_sim, state_ref):
        u = np.array([1.5 + 0.7j, 1.5 - 1.3j])
        closed = basis_at(wasc_ref, state_ref, 1.0, u)
        assert np.isfinite(closed)
        vals = np.exp(wasc_sim.log_spot[:, -1] @ u)
        dev_r = abs(vals.real.mean() - closed.real)
        dev_i = abs(vals.imag.mean() - closed.imag)
        assert dev_r <= 3.0 * _se(vals.real)
        assert dev_i <= 3.0 * _se(vals.imag)


class TestBnsStatistics:
    def test_spot_martingale(self, bns_sim):
        st = np.exp(bns_sim.log_spot[:, -1])
        dev = np.abs(st.mean(axis=0) - S0_REF)
        assert np.all(dev <= 3.0 * _se(st))

    def test_terminal_covariance_mean(self, bns_ref, bns_sim):
        exact = oracles.bns_mean_cov(bns_ref, SIGMA0_REF, 1.0)
        samp = bns_sim.cov[:, -1]
        dev = np.abs(samp.mean(axis=0) - exact)
        assert np.all(dev <= 3.0 * _se(samp) + 1e-12)

    def test_bracket_mean_with_jump_products(self, bns_ref, bns_sim):
        cont = models.bns_integrated_mean(bns_ref, SIGMA0_REF, 1.0)
        n = bns_ref.wishart_shape
        th = bns_ref.wishart_scale
        rho = bns_ref.leverage_diag
        pair_mom = (n * n * np.outer(np.diag(th), np.diag(th))
                    + 2.0 * n * th * th)
        jumps = bns_ref.jump_intensity * 1.0 * np.outer(rho, rho) * pair_mom
        samp = bns_sim.integrated_cov[:, -1]
        dev = np.abs(samp.mean(axis=0) - (cont + jumps))
        assert np.all(dev <= 3.0 * _se(samp) + 1e-12)

    def test_transform_against_paths(self, bns_ref, bns_sim, state_ref):
        u = np.array([1.5 + 0.7j, 1.5 - 1.3j])
        closed = basis_at(bns_ref, state_ref, 1.0, u)
        assert np.isfinite(closed)
        vals = np.exp(bns_sim.log_spot[:, -1] @ u)
        assert abs(vals.real.mean() - closed.real) <= 3.0 * _se(vals.real)
        assert abs(vals.imag.mean() - closed.imag) <= 3.0 * _se(vals.imag)


class TestSchemes:
    def test_splitting_repairs_are_rare(self, wasc_sim):
        share = wasc_sim.clip_count / (wasc_sim.n_paths * wasc_sim.n_steps)
        assert 0.0 <= share < 0.01

    # (d, h): the reference sets at 250 and 100 steps a year, one step of
    # 5 years, where ||M||_inf h / 2 = 10 takes lift_flows' scaling and
    # squaring, and the three-asset sets
    @pytest.mark.parametrize("d,h", [(2, 1 / STEPS_REF), (2, 0.01),
                                     (2, 5.0), (3, 1 / STEPS_REF)])
    def test_drift_flows_against_expm(self, d, h, wasc_ref, bns_ref):
        # E of both schemes' step maps, exp(M h / 2) and exp(M h), within a
        # few ulps of the largest entry of scipy's expm
        wasc, bns = (wasc_ref, bns_ref) if d == 2 else (WASC_3, BNS_3)
        for e, want in ((simulate._wasc_maps(wasc, h)[1],
                         scipy.linalg.expm(wasc.mean_rev * (0.5 * h))),
                        (simulate._bns_maps(bns, h)[2],
                         scipy.linalg.expm(bns.mean_rev * h))):
            assert e.shape == (d, d, 1)
            assert (np.max(np.abs(e[..., 0] - want))
                    <= 8 * np.finfo(float).eps * np.max(np.abs(want)))


class TestBnsExactness:
    def test_deterministic_flow_without_jumps(self, state_ref):
        # vanishing jump intensity: the path is the pure covariance flow
        quiet = models.BnsParams(d=2,
                                 mean_rev=np.array([[-2.5, -1.5],
                                                    [-1.5, -2.5]]),
                                 jump_intensity=1e-12, wishart_shape=3.0,
                                 wishart_scale=0.02 * np.eye(2),
                                 leverage_diag=np.array([-0.5, -0.5]))
        sim = simulate.simulate(quiet, state_ref, 1.0, 25, 3, seed=1)
        lift = matcalc.kron_lift(quiet.mean_rev)
        for k, t in enumerate(sim.times):
            flow = scipy.linalg.expm(quiet.mean_rev * t)
            exact = flow @ SIGMA0_REF @ flow.T
            assert np.max(np.abs(sim.cov[0, k] - exact)) < 1e-10
            exact_int = matcalc.mat(
                np.linalg.solve(lift, matcalc.vec(exact - SIGMA0_REF)))
            assert np.max(np.abs(sim.integrated_cov[0, k] - exact_int)) < 1e-10

    def test_singular_state_keeps_its_diffusion(self):
        # Sigma_0 = diag(0, 0.1) under a diagonal drift and no jumps: every
        # step integral has a zero first pivot, and the second asset must
        # still diffuse with the integral's variance
        quiet = models.BnsParams(d=2, mean_rev=np.diag([-2.5, -2.0]),
                                 jump_intensity=1e-12, wishart_shape=3.0,
                                 wishart_scale=0.02 * np.eye(2),
                                 leverage_diag=np.array([-0.5, -0.5]))
        state = models.MarketState.from_spot(t=0.0, spot=S0_REF,
                                             cov=np.diag([0.0, 0.1]))
        sim = simulate.simulate(quiet, state, 1.0, 4, 2000, seed=1)
        y = sim.log_spot[:, -1]
        assert np.all(y[:, 0] == y[0, 0]) and np.all(np.isfinite(y))
        var = sim.integrated_cov[0, -1, 1, 1]
        assert abs(y[:, 1].var(ddof=1) / var - 1.0) < 0.15

    def test_jump_steps_preserve_partition_invariance(self, bns_ref,
                                                      state_ref):
        # coarse grid forces several jumps per step; the per-path stream
        # must still be independent of how paths are batched
        full = simulate.simulate(bns_ref, state_ref, 1.0, 5, 60, seed=42)
        parts = [simulate.simulate(bns_ref, state_ref, 1.0, 5, hi - lo,
                                   seed=42, path_start=lo)
                 for lo, hi in ((0, 11), (11, 60))]
        for field in ("log_spot", "integrated_cov"):
            assert np.array_equal(getattr(full, field), np.concatenate(
                [getattr(part, field) for part in parts]))


class TestCoarseGrid:
    """One step over the whole horizon with three times the reference mean
    reversion: the flow series must scale (||lift|| * h = 24)."""

    @pytest.fixture(scope="class")
    def fast_bns(self):
        return models.BnsParams(
            d=2, mean_rev=3.0 * M_REF, jump_intensity=3.0, wishart_shape=3.0,
            wishart_scale=np.array([[0.02, 0.008], [0.008, 0.02]]),
            leverage_diag=np.array([-0.8, -0.5]))

    def test_bns_exact_scheme_mean(self, fast_bns, state_ref):
        sim = simulate.simulate(fast_bns, state_ref, 1.0, 1, 4096, seed=3)
        exact = oracles.bns_mean_cov(fast_bns, SIGMA0_REF, 1.0)
        samp = sim.cov[:, -1]
        dev = np.abs(samp.mean(axis=0) - exact)
        assert np.all(dev <= 3.0 * _se(samp) + 1e-12)

    def test_bns_one_step_law(self, fast_bns, state_ref):
        # every jump lands inside the one step, so the step's diffusive
        # variance must carry the integrals of the flowed marks
        sim = simulate.simulate(fast_bns, state_ref, 1.0, 1, 6000, seed=3)
        u = np.array([1.5 + 0.7j, 1.5 - 1.3j])
        closed = basis_at(fast_bns, state_ref, 1.0, u)
        assert np.isfinite(closed)
        vals = np.exp(sim.log_spot[:, -1] @ u)
        assert abs(vals.real.mean() - closed.real) <= 3.0 * _se(vals.real)
        assert abs(vals.imag.mean() - closed.imag) <= 3.0 * _se(vals.imag)
        st = np.exp(sim.log_spot[:, -1])
        assert np.all(np.abs(st.mean(axis=0) - S0_REF) <= 3.0 * _se(st))

    def test_splitting_flow_exact_without_vol_of_vol(self, state_ref):
        # zero vol-of-vol leaves only the two half-step drift flows, whose
        # composition is the exact mean flow
        frozen = models.WascParams(d=2, mean_rev=3.0 * M_REF,
                                   vol_of_vol=np.zeros((2, 2)),
                                   leverage=RHO_REF,
                                   omega=ALPHA_REF * A_REF.T @ A_REF)
        sim = simulate.simulate(frozen, state_ref, 1.0, 1, 2, seed=3)
        exact = models.wasc_mean_cov(frozen, SIGMA0_REF, 1.0)
        assert np.max(np.abs(sim.cov[:, -1] - exact)) < 1e-12 * np.abs(
            exact).max()

    def test_splitting_scheme_mean(self, state_ref):
        params = models.WascParams(d=2, mean_rev=3.0 * M_REF,
                                   vol_of_vol=A_REF, leverage=RHO_REF,
                                   alpha=ALPHA_REF)
        sim = simulate.simulate(params, state_ref, 1.0, 1, 4096, seed=3)
        exact = models.wasc_mean_cov(params, SIGMA0_REF, 1.0)
        # a one-step Euler diffusion needs PSD repair on most paths, and the
        # clipping lifts the mean by about 1%; the bound allows that bias
        dev = np.abs(sim.cov[:, -1].mean(axis=0) - exact)
        assert sim.clip_count > 0
        assert np.all(dev <= 0.02 * np.abs(exact).max())


class TestThreeAssets:
    @pytest.mark.parametrize("params,mean_cov", [
        (WASC_3, models.wasc_mean_cov), (BNS_3, oracles.bns_mean_cov)],
        ids=["wasc", "bns"])
    def test_terminal_covariance_mean(self, params, mean_cov):
        sim = simulate.simulate(params, STATE_3, 1.0, 50, 2000, seed=17)
        exact = mean_cov(params, SIGMA0_3, 1.0)
        samp = sim.cov[:, -1]
        dev = np.abs(samp.mean(axis=0) - exact)
        assert np.all(dev <= 4.0 * _se(samp) + 1e-12)
        # the Wishart run repairs states, so the eigen repair branch ran
        assert (sim.clip_count > 0) == (params.kind == "wasc")

    # the law of the simulation factor as the spots see it: 16,000 paths,
    # 20 wasc steps and 2 bns steps.  The jump scheme is exact on any grid;
    # on a coarse one a bns factor of the wrong scale shows in E[S_T], while
    # on a fine one the log-price variance it adds grows with the step
    # count until the sample SE of S_T hides the bias.  Along U_3,
    # u'(L'L - LL')u is near its largest relative to u'Sigma u for SIGMA0_3
    # and its Cholesky L, so a transposed factor moves the transform there
    U_3 = np.array([-3.0, 0.5, 0.0])

    @pytest.fixture(scope="class", params=["wasc", "bns"])
    def law_sim(self, request):
        params = three_asset_params(request.param)
        n_steps = 20 if request.param == "wasc" else 2
        return params, simulate.simulate(params, STATE_3, 1.0, n_steps,
                                         16_000, seed=17)

    def test_spot_martingale(self, law_sim):
        _, sim = law_sim
        st = np.exp(sim.log_spot[:, -1])
        assert np.all(np.abs(st.mean(axis=0) - S0_3) <= 4.0 * _se(st))

    def test_transform_at_a_real_u(self, law_sim):
        params, sim = law_sim
        closed = basis_at(params, STATE_3, 1.0, self.U_3)
        assert np.isfinite(closed)
        vals = np.exp(sim.log_spot[:, -1] @ self.U_3)
        assert abs(vals.mean() - closed.real) <= 4.0 * _se(vals)


REF_PATHS = 40
REF_SEED = 77
REF_START = 3


@pytest.fixture(scope="module")
def model_sets(wasc_ref, bns_ref, state_ref):
    """(params, state) by (kind, d)."""
    return {("wasc", 2): (wasc_ref, state_ref), ("bns", 2): (bns_ref, state_ref),
            ("wasc", 3): (WASC_3, STATE_3), ("bns", 3): (BNS_3, STATE_3)}


class TestReferenceKernels:
    """The paths-last kernels against the path-major reference kernels of
    ``oracles``, the reference range simulated in calls of ``width`` paths:
    one path, a ragged split and one call.  Five steps put several jumps
    into some steps; one step puts every jump into the last step."""

    @pytest.fixture(scope="class")
    def reference(self, model_sets):
        @functools.cache
        def paths(kind, d, n_steps):
            params, state = model_sets[kind, d]
            run = (oracles.reference_wasc_paths if kind == "wasc"
                   else oracles.reference_bns_paths)
            return run(params, state, 1.0, n_steps, REF_PATHS, REF_SEED,
                       REF_START)
        return paths

    @pytest.mark.parametrize("width", [1, 7, REF_PATHS])
    @pytest.mark.parametrize("kind,d,n_steps", [
        ("wasc", 2, 30), ("wasc", 3, 30), ("bns", 2, 30), ("bns", 3, 30),
        ("bns", 2, 5), ("bns", 2, 1)])
    def test_matches_reference(self, kind, d, n_steps, width, model_sets,
                               reference):
        params, state = model_sets[kind, d]
        ys, covs, intcov, clip = reference(kind, d, n_steps)
        clips = 0
        for lo in range(0, REF_PATHS, width):
            sim = simulate.simulate(params, state, 1.0, n_steps,
                                    min(width, REF_PATHS - lo),
                                    seed=REF_SEED, path_start=REF_START + lo)
            rows = slice(lo, lo + width)
            assert np.max(np.abs(sim.log_spot - ys[rows])) <= 1e-12
            assert np.max(np.abs(sim.cov - covs[rows])) <= 1e-12
            assert np.max(np.abs(sim.integrated_cov - intcov[rows])) <= 1e-12
            clips += sim.clip_count
        assert clips == clip


class TestMemory:
    """simulate's kernels write straight into the panel it returns: the
    traced peak stays within the panel, half a panel of working set and the
    per-path draws.  Holding the panel twice (a shard built in its own
    arrays, then copied) breaks the bound.  When it forks, the panel sits in
    a shared mapping that tracemalloc does not see, and this process sweeps
    one shard: its peak stays within that shard's working set and draws, so
    a copy of the child's half of the panel breaks the bound.  The
    reference grid is used because the jump model's per-call jump terms
    scale with the number of jumps, not of steps."""

    N_PATHS, D = 1024, 2
    PANEL = N_PATHS * (STEPS_REF + 1) * (D + 2 * D * D) * 8

    def traced_peak(self, params, state_ref) -> tuple[int, int]:
        """The traced peak of a reference-grid simulation and its draws."""
        # first-call allocations (imports, caches) are not the kernels'
        simulate.simulate(params, state_ref, 1.0, 2, 2, seed=1)
        tracemalloc.start()
        try:
            sim = simulate.simulate(params, state_ref, 1.0, STEPS_REF,
                                    self.N_PATHS, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sim.n_paths == self.N_PATHS
        per_step = (self.D * self.D + self.D if params.kind == "wasc"
                    else self.D)
        return peak, self.N_PATHS * STEPS_REF * per_step * 8

    @pytest.mark.parametrize("model", ["wasc", "bns"])
    def test_peak_within_panel_and_draws(self, model, wasc_ref, bns_ref,
                                         state_ref):
        params = wasc_ref if model == "wasc" else bns_ref
        peak, draws = self.traced_peak(params, state_ref)
        assert peak <= 1.5 * self.PANEL + draws

    @pytest.mark.parametrize("model", ["wasc", "bns"])
    def test_forked_peak_within_a_shard(self, model, wasc_ref, bns_ref,
                                        state_ref, monkeypatch):
        params = wasc_ref if model == "wasc" else bns_ref
        shards(monkeypatch, 2)
        peak, draws = self.traced_peak(params, state_ref)
        # half the paths: half the draws, and a quarter of that half panel
        # of working set
        assert peak <= 0.125 * self.PANEL + 0.5 * draws


def log_return_bracket(sim):
    """Sum of dY dY' over the grid: the discrete bracket of log prices."""
    inc = np.diff(sim.log_spot, axis=1)
    return np.einsum("pki,pkj->pij", inc, inc)


class TestRealizedQuadratics:
    def test_log_kernel_tracks_bracket(self, wasc_sim):
        diff = log_return_bracket(wasc_sim) - wasc_sim.integrated_cov[:, -1]
        dev = np.abs(diff.mean(axis=0))
        assert np.all(dev <= 4.0 * _se(diff) + 1e-4)

    def test_log_kernel_tracks_bracket_with_jumps(self, bns_sim):
        diff = log_return_bracket(bns_sim) - bns_sim.integrated_cov[:, -1]
        dev = np.abs(diff.mean(axis=0))
        assert np.all(dev <= 4.0 * _se(diff) + 1e-4)
