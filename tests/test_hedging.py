"""Hedging layer: the basis kernel against complex exp, the batched hedge
engines against the scalar covariation oracles, backtest sweeps over
Fourier row blocks and shards against one block and one shard, the oracles' own
identities, Fourier prices against Monte Carlo and parity, and covariance
swaps: strikes against closed forms, values as martingales and the hedged
variance against Monte Carlo."""

import errno
import os
import re
import threading
import warnings

import numpy as np
import pytest

from covhedge import (_shards, gbm, matcalc, models, payoffs, simulate,
                      transforms)
from covhedge.hedging import backtest, covswap, pricing

import oracles
from conftest import (A_REF, ALPHA_REF, M_REF, RHO_REF, S0_3, S0_REF,
                      SIGMA0_3, SIGMA0_REF, inadmissible_params,
                      three_asset_params)

N_PATHS = 12
N_STEPS = 4
STATE_3 = models.MarketState.from_spot(t=0.0, spot=S0_3, cov=SIGMA0_3)


def prepared_hedge(params, state, strikes):
    """A prepared FourierHedge of a cc quadrant on assets (0, 1) on a small
    panel."""
    kernel = payoffs.quadrant_option(params.d, "cc", (0, 1), strikes)
    rate = pricing.integrated_cov_rate(params, state, 1.0)
    contour = payoffs.build_contour(
        kernel, nodes_per_dim=4,
        decay=payoffs.suggest_decay(kernel, rate, 1.0, 4))
    sim = simulate.simulate(params, state, 1.0, N_STEPS, N_PATHS, seed=5)
    cache = backtest.BasisCache(params, contour.model_args, 1.0)
    cache.prepare(sim)
    hedge = backtest.FourierHedge(params, cache, contour.weights)
    hedge.prepare(sim)
    return params, sim, cache, hedge, cache.weight_mask(contour.weights)


@pytest.fixture(params=["wasc", "bns"])
def hedged(request, wasc_ref, bns_ref, state_ref):
    """A prepared FourierHedge of an ATM cc quadrant on a small panel."""
    params = wasc_ref if request.param == "wasc" else bns_ref
    return prepared_hedge(params, state_ref, (100.0, 100.0))


@pytest.fixture(params=["wasc", "bns", "wasc-d3", "bns-d3"])
def hedged_any_d(request, wasc_ref, bns_ref, state_ref):
    """The hedge of ``hedged``, and the ATM cc quadrant on assets (0, 1) of
    the three-asset sets, whose positions solve d = 3 systems."""
    kind, _, three = request.param.partition("-")
    if three:
        return prepared_hedge(three_asset_params(kind), STATE_3,
                              (S0_3[0], S0_3[1]))
    return prepared_hedge(wasc_ref if kind == "wasc" else bns_ref, state_ref,
                          (100.0, 100.0))


def lattice_phi(cache, sim):
    """phi on the cache's (date, node) lattice, 0 at invalid nodes as the
    cache holds it."""
    grid = transforms.transform_grid(cache.params,
                                     cache.horizon - sim.times[:-1],
                                     cache.model_args)
    return np.where(grid.valid, grid.phi, 0.0)


def exploding_call():
    """d = 1, zero drift and leverage: the order-1.5 moment that an ATM
    call's damping needs explodes at tau* = pi / sqrt(3) ~ 1.81."""
    params = models.WascParams(d=1, mean_rev=np.zeros((1, 1)),
                               vol_of_vol=np.eye(1), leverage=np.zeros(1),
                               alpha=1.0)
    state = models.MarketState.from_spot(0.0, [100.0], [[0.04]])
    return params, state, payoffs.call_option(1, 0, 100.0)


def complex_exp_basis(cache, sim, k, log_spot, cov):
    """H = exp(phi + u'Y + Tr(psi Sigma)) by complex exp, node by node."""
    expo = (lattice_phi(cache, sim)[k] + log_spot @ cache.model_args.T
            + np.einsum("mab,pab->pm", cache.psi[k], cov))
    return np.exp(expo), expo.real


class TestBasisCache:
    @pytest.mark.parametrize("k", [0, N_STEPS - 1])
    def test_matches_complex_exp_across_blocks(self, hedged, monkeypatch, k):
        # the basis of all 12 paths against complex exp; then the positions
        # over row blocks of 5, 5 and 2 paths (a budget of 5 rows) against
        # the positions over one block
        _, sim, cache, hedge, _ = hedged
        state = (sim.log_spot[:, k], sim.cov[:, k])
        got = cache.basis(k, *state)
        want, _ = complex_exp_basis(cache, sim, k, *state)
        assert got.shape == (N_PATHS, cache.model_args.shape[0])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

        spot = np.exp(sim.log_spot[:, k])
        basis, blocks = cache.basis, []

        def counted(k, log_spot, cov):
            blocks.append(log_spot.shape[0])
            return basis(k, log_spot, cov)

        monkeypatch.setattr(cache, "basis", counted)
        one = hedge.positions(k, spot, *state)
        monkeypatch.setattr(backtest, "BASIS_BLOCK_POINTS",
                            5 * cache.model_args.shape[0] + 3)
        split = hedge.positions(k, spot, *state)
        assert blocks == [N_PATHS, 5, 5, 2]
        np.testing.assert_array_equal(split, one)
        assert np.all(np.isfinite(one)) and np.ptp(one) > 0

    def test_overflow_is_refused_past_a_nan_row(self, hedged):
        # rows below the overflow rule are evaluated; one row past it
        # refuses the date's basis, though the nan row before it makes the
        # largest real exponent nan
        _, sim, cache, _, _ = hedged
        k = 1
        log_spot = sim.log_spot[:, k].copy()
        cov = sim.cov[:, k]
        log_spot[:2] += np.array([[150.0], [200.0]])
        want, re_part = complex_exp_basis(cache, sim, k, log_spot, cov)
        assert re_part.max() < models.OVERFLOW_RE
        # the shifted rows' angles reach thousands of radians, so rounding
        # in the exponent alone moves H by |b| eps relative
        np.testing.assert_allclose(cache.basis(k, log_spot, cov), want,
                                   rtol=1e-11, atol=0)
        log_spot[2, 0] = np.nan
        log_spot[3] += 500.0
        with np.errstate(over="ignore"):
            _, re_part = complex_exp_basis(cache, sim, k, log_spot, cov)
        assert np.isnan(re_part.max())
        assert np.any(re_part > models.OVERFLOW_RE)
        date = f"OVERFLOW_RE at rebalancing date {k} (t = {sim.times[k]:.6g})"
        with pytest.raises(ValueError, match=re.escape(date)):
            cache.basis(k, log_spot, cov)

    def test_invalid_nodes_are_skipped_not_refused(self):
        # past the moment explosion of u = 20, that node is invalid: its
        # exponent is 0 whatever u'Y, so a state that would take u'Y past
        # the overflow rule is not refused, and its weight is 0
        params, state, _ = exploding_call()
        sim = simulate.simulate(params, state, 1.0, 2, 3, seed=5)
        cache = backtest.BasisCache(params, [[1.5 + 0.5j], [20.0]], 1.0)
        cache.prepare(sim)
        assert np.all(cache.valid == [True, False])
        log_spot = np.full((3, 1), 40.0)
        got = cache.basis(0, log_spot, sim.cov[:, 0])
        assert np.all(got[:, 1] == 1.0)
        with np.errstate(over="ignore"):
            want, _ = complex_exp_basis(cache, sim, 0, log_spot,
                                        sim.cov[:, 0])
        np.testing.assert_allclose(got[:, 0], want[:, 0], rtol=1e-13, atol=0)
        np.testing.assert_array_equal(cache.weight_mask(np.array([1.0, 1e-4])),
                                      [[1.0, 0.0], [1.0, 0.0]])

    def test_nan_state_propagates(self, hedged):
        _, sim, cache, _, _ = hedged
        k = 2
        log_spot = sim.log_spot[:, k].copy()
        cov = sim.cov[:, k].copy()
        log_spot[3, 0] = np.nan
        cov[5, 0, 1] = cov[5, 1, 0] = np.nan
        got = cache.basis(k, log_spot, cov)
        want, _ = complex_exp_basis(cache, sim, k, log_spot, cov)
        nan_rows = np.isin(np.arange(N_PATHS), [3, 5])
        assert np.all(np.isnan(got[nan_rows].real))
        assert np.all(np.isnan(got[nan_rows].imag))
        np.testing.assert_allclose(got[~nan_rows], want[~nan_rows],
                                   rtol=1e-13, atol=0)

    def test_prepare_forgets_the_last_panel(self, wasc_ref, state_ref):
        # a cache prepared again on a second panel of the same dates must
        # give that panel's hedge, not the first's
        kernel = payoffs.quadrant_option(2, "cc", (0, 1), (100.0, 100.0))
        panels = []
        for spot, seed in (((100.0, 100.0), 3), ((110.0, 95.0), 4)):
            state = models.MarketState.from_spot(0.0, spot, SIGMA0_REF)
            panels.append(simulate.simulate(wasc_ref, state, 1.0, 1, 256,
                                            seed=seed))
        rate = pricing.integrated_cov_rate(wasc_ref, state_ref, 1.0)
        contour = payoffs.build_contour(
            kernel, nodes_per_dim=12,
            decay=payoffs.suggest_decay(kernel, rate, 1.0, 12))

        def pnl(cache, sim):
            cache.prepare(sim)
            job = backtest.HedgeJob("fourier", backtest.FourierHedge(
                wasc_ref, cache, contour.weights), kernel.payoff, 0.0)
            return backtest.run_backtest(sim, [job])[0].pnl

        reused = backtest.BasisCache(wasc_ref, contour.model_args, 1.0)
        pnl(reused, panels[0])
        fresh = backtest.BasisCache(wasc_ref, contour.model_args, 1.0)
        np.testing.assert_array_equal(pnl(reused, panels[1]),
                                      pnl(fresh, panels[1]))


class TestScaledCis:
    @staticmethod
    def cis(b, scale=None):
        b = np.asarray(b, dtype=float)
        scale = np.ones_like(b) if scale is None else scale
        out = np.empty(b.shape, dtype=complex)
        matcalc.scaled_cis(b, scale, out)
        return out

    def test_against_complex_exp(self):
        rng = np.random.default_rng(11)
        step = 2.0 * np.pi / matcalc.CIS_TABLE
        j = np.arange(-3 * matcalc.CIS_TABLE, 3 * matcalc.CIS_TABLE)
        b = np.concatenate([
            rng.uniform(-1e4, 1e4, (200, 50)).ravel(),
            rng.uniform(-3.0, 3.0, 5000),
            j * step, (j + 0.5) * step,             # table points, midpoints
            [0.0, -0.0, np.pi, -np.pi, 1e4, -1e4],
        ])
        scale = np.exp(rng.uniform(-30.0, 30.0, b.size))
        got = self.cis(b, scale)
        err = np.abs(got - scale * np.exp(1j * b)) / scale
        assert err.max() < 1e-15

    def test_extreme_arguments_within_the_split(self):
        edge = matcalc.CIS_MAX_ARG
        b = np.array([edge, -edge, np.nextafter(edge, 0.0)])
        assert np.abs(self.cis(b) - np.exp(1j * b)).max() < 1e-15

    def test_non_finite_angles_give_nan(self):
        with np.errstate(invalid="ignore"):
            got = self.cis([np.inf, -np.inf, np.nan, 0.5])
        assert np.all(np.isnan(got[:3].real))
        assert np.all(np.isnan(got[:3].imag))
        assert got[3] == pytest.approx(np.exp(0.5j), abs=1e-15)

    def test_entry_independent_of_batch(self):
        # one element must round as it does inside a longer call
        rng = np.random.default_rng(12)
        b = rng.uniform(-50.0, 50.0, 300)
        scale = np.exp(rng.uniform(-5.0, 5.0, b.size))
        batch = self.cis(b, scale)
        for k in range(b.size):
            np.testing.assert_array_equal(
                self.cis(b[k:k + 1], scale[k:k + 1]), batch[k:k + 1])

    @pytest.mark.parametrize("angle", [1.01 * matcalc.CIS_MAX_ARG,
                                       -1.01 * matcalc.CIS_MAX_ARG,
                                       1e9, -1e300])
    def test_angle_past_the_split_raises(self, angle):
        with pytest.raises(ValueError, match="argument reduction"):
            self.cis([0.25, angle, np.nan])


class TestFourierHedge:
    @pytest.mark.parametrize("k", [0, N_STEPS - 1])
    def test_positions_sum_gkw_theta_over_contour(self, hedged_any_d, k):
        params, sim, cache, hedge, weights = hedged_any_d
        spot = np.exp(sim.log_spot[:, k])
        got = hedge.positions(k, spot, sim.log_spot[:, k], sim.cov[:, k])
        tau = 1.0 - sim.times[k]
        phi = lattice_phi(cache, sim)
        for p in range(N_PATHS):
            state = models.MarketState(sim.times[k], sim.log_spot[p, k],
                                       sim.cov[p, k])
            want = sum(
                weights[k, m] * oracles.gkw_theta(
                    params, state, oracles.TransformEval(
                        tau=tau, u=cache.model_args[m], phi=phi[k, m],
                        psi=cache.psi[k, m], valid=True))
                for m in np.flatnonzero(cache.valid[k]))
            np.testing.assert_allclose(got[p], want.real, rtol=1e-9,
                                       atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("horizon,refused", [(1.7, False), (1.9, True)])
    def test_prepare_refuses_past_the_moment_explosion(self, horizon,
                                                       refused):
        # the first rebalance date sees the whole horizon as time to
        # maturity, so past tau* its contour loses the nodes near the axis
        params, state, call = exploding_call()
        rate = pricing.integrated_cov_rate(params, state, horizon)
        contour = payoffs.build_contour(
            call, nodes_per_dim=12,
            decay=payoffs.suggest_decay(call, rate, horizon, 12))
        sim = simulate.simulate(params, state, horizon, 4, 2, seed=5)
        cache = backtest.BasisCache(params, contour.model_args, horizon)
        cache.prepare(sim)
        hedge = backtest.FourierHedge(params, cache, contour.weights)
        if refused:
            with pytest.raises(ValueError, match="invalid transform nodes"):
                hedge.prepare(sim)
        else:
            hedge.prepare(sim)

    @pytest.mark.parametrize("n_steps", [N_STEPS // 2, 2 * N_STEPS])
    def test_prepare_refuses_a_cache_of_another_grid(self, hedged,
                                                     state_ref, n_steps):
        # unchecked, the cache's lattice is read at the wrong times to
        # maturity on a panel of the same span
        params, _, _, hedge, _ = hedged
        other = simulate.simulate(params, state_ref, 1.0, n_steps, N_PATHS,
                                  seed=5)
        with pytest.raises(ValueError, match="grid must match the simulation"):
            hedge.prepare(other)

    def test_prepare_refuses_an_unprepared_cache(self, hedged):
        params, sim, cache, hedge, _ = hedged
        unprepared = backtest.BasisCache(params, cache.model_args, 1.0)
        with pytest.raises(ValueError, match="grid must match the simulation"):
            backtest.FourierHedge(params, unprepared,
                                  hedge.weights).prepare(sim)

    @pytest.mark.parametrize("weights", ["scalar", "one", "twice"])
    def test_refuses_weights_not_one_per_node(self, hedged, weights):
        # a scalar or a length-1 vector used to be broadcast over every
        # node, and twice the nodes failed in a numpy broadcast
        params, _, cache, _, _ = hedged
        m = cache.model_args.shape[0]
        weights = {"scalar": 1.0, "one": np.ones(1),
                   "twice": np.ones(2 * m)}[weights]
        with pytest.raises(ValueError, match=re.escape(
                f"weights of shape {np.shape(weights)} do not match the "
                f"cache's ({m},) nodes")):
            backtest.FourierHedge(params, cache, weights)

    @pytest.mark.parametrize("other", ["bns", "wasc_omega"])
    def test_refuses_a_cache_of_other_params(self, wasc_ref, bns_ref,
                                             state_ref, other):
        # unchecked, a wasc hedge on a cache built for the bns params ran and
        # hedged with the jump model's lattice
        _, sim, cache, _, _ = prepared_hedge(wasc_ref, state_ref,
                                             (100.0, 100.0))
        params = {"bns": bns_ref, "wasc_omega": models.WascParams(
            d=2, mean_rev=M_REF, vol_of_vol=wasc_ref.vol_of_vol,
            leverage=RHO_REF, omega=0.9 * wasc_ref.omega)}[other]
        weights = np.ones(cache.model_args.shape[0])
        with pytest.raises(ValueError, match=f"other params \\(wasc\\) "
                                             f"cannot serve {params.kind}"):
            backtest.FourierHedge(params, cache, weights)
        # equal params as another object serve, and so does a panel
        # simulated under another model
        twin = models.WascParams(d=2, mean_rev=M_REF, vol_of_vol=A_REF,
                                 leverage=RHO_REF, alpha=ALPHA_REF)
        assert twin is not wasc_ref
        hedge = backtest.FourierHedge(twin, cache, weights)
        hedge.prepare(simulate.simulate(bns_ref, state_ref, 1.0, N_STEPS,
                                        N_PATHS, seed=5))

    @pytest.mark.parametrize("kind", ["wasc", "bns"])
    def test_three_assets_beat_cash(self, kind):
        # a (0, 2) quadrant and the (1, 2) exchange in one sweep: 2048 paths
        # x 50 dates x 210 nodes carry two shards' _MIN_SHARD_BASIS_POINTS
        params = three_asset_params(kind)
        sim = simulate.simulate(params, STATE_3, 1.0, 50, 2048, seed=5)
        rate = pricing.integrated_cov_rate(params, STATE_3, 1.0)
        jobs = []
        for kernel in (payoffs.quadrant_option(3, "cc", (0, 2),
                                               (100.0, 110.0)),
                       payoffs.exchange_option(3, 1, 2)):
            contour = payoffs.build_contour(
                kernel, nodes_per_dim=10,
                decay=payoffs.suggest_decay(kernel, rate, 1.0, 10))
            cache = backtest.BasisCache(params, contour.model_args, 1.0)
            cache.prepare(sim)
            hedge = backtest.FourierHedge(params, cache, contour.weights)
            price = pricing.fourier_price(params, STATE_3, 1.0, kernel,
                                          nodes_per_dim=10)
            jobs += [backtest.HedgeJob("fourier", hedge, kernel.payoff, price),
                     backtest.HedgeJob("cash", None, kernel.payoff, price)]
        results = backtest.run_backtest(sim, jobs)
        for fourier, cash in zip(results[::2], results[1::2]):
            gain = cash.pnl ** 2 - fourier.pnl ** 2
            assert gain.mean() > 3.0 * gain.std(ddof=1) / np.sqrt(gain.size)


class TestSpotSolve:
    @pytest.mark.parametrize("d", [2, 3])
    def test_one_path_alone_has_its_bits_in_the_batch(self, bns_ref, d):
        # (Sigma + J) theta = c, with J the jump covariation of the model:
        # one path alone and inside a batch of 300, against a (P, d) and a
        # shared (d,) right-hand side, and the solution solves the system
        params = three_asset_params("bns") if d == 3 else bns_ref
        jump = backtest._jump_cov(params)
        rng = np.random.default_rng(20 + d)
        x = rng.standard_normal((300, d, d + 2))
        cov = 0.05 * x @ x.swapaxes(1, 2)
        for rhs in (rng.standard_normal((300, d)), rng.standard_normal(d)):
            batch = backtest._spot_solve(cov, jump, rhs)
            for p in (0, 117, 299):
                alone = backtest._spot_solve(cov[p:p + 1], jump,
                                             rhs[p:p + 1] if rhs.ndim == 2
                                             else rhs)
                assert np.array_equal(alone[0], batch[p])
            want = np.broadcast_to(rhs, batch.shape)
            np.testing.assert_allclose(
                np.einsum("pab,pb->pa", cov + jump, batch), want,
                rtol=1e-12, atol=1e-12 * np.abs(want).max())


class Recorder:
    """A strategy that holds nothing and records the row count of every
    call it is shown at the first date."""

    def prepare(self, sim):
        self.rows = []

    def positions(self, k, spot, log_spot, cov):
        if k == 0:
            self.rows.append(spot.shape[0])
        return np.zeros_like(spot)


class Raiser:
    """A strategy that holds nothing and raises once it is shown one given
    path, which it knows by that path's log spot after the first date (at
    the first, every path has the same)."""

    def __init__(self, path):
        self.path = path

    def prepare(self, sim):
        self.marks = sim.log_spot[self.path, :, 0]

    def positions(self, k, spot, log_spot, cov):
        if k > 0 and np.any(log_spot[:, 0] == self.marks[k]):
            raise ValueError(f"shown path {self.path}")
        return np.zeros_like(spot)


@pytest.fixture(params=["wasc", "bns"])
def sweep_case(request, wasc_ref, bns_ref, state_ref):
    """A 700-path panel and a builder of its Fourier, covariance-swap and
    GBM-delta jobs, with a fresh basis cache for each call."""
    params = wasc_ref if request.param == "wasc" else bns_ref
    n_steps = 10
    sim = simulate.simulate(params, state_ref, 1.0, n_steps, 700, seed=9)
    kernel = payoffs.quadrant_option(2, "cc", (0, 1), (100.0, 100.0))
    rate = pricing.integrated_cov_rate(params, state_ref, 1.0)
    contour = payoffs.build_contour(
        kernel, nodes_per_dim=4,
        decay=payoffs.suggest_decay(kernel, rate, 1.0, 4))
    build = (covswap.wasc_covswap_system if params.kind == "wasc"
             else covswap.bns_covswap_system)
    system = build(params, SIGMA0_REF, 1.0, (0, 1), n_steps)
    vols = np.sqrt(np.diag(rate))
    corr = rate[0, 1] / (vols[0] * vols[1])

    def jobs():
        cache = backtest.BasisCache(params, contour.model_args, 1.0)
        cache.prepare(sim)
        return [
            backtest.HedgeJob("fourier", backtest.FourierHedge(
                params, cache, contour.weights), kernel.payoff, 10.0),
            backtest.HedgeJob("covswap", backtest.CovswapHedge(
                system, params), covswap.covswap_payoff(
                    system, sim.integrated_cov), 0.0),
            backtest.HedgeJob("gbm_delta", backtest.GbmDeltaHedge(
                "cc", (100.0, 100.0), vols, corr, 1.0), kernel.payoff,
                10.0),
            backtest.HedgeJob("cash", None, kernel.payoff, 10.0),
        ]
    return sim, jobs


def shards(monkeypatch, n):
    monkeypatch.setattr(backtest, "_shard_count", lambda *args: n)


class TestRunBacktest:
    def test_pnl_independent_of_the_row_blocks(self, sweep_case,
                                               monkeypatch):
        # the Fourier hedge's rows in blocks of 97 paths (seven and one of
        # 21) and of 1 path, against the default budget; every strategy is
        # shown the whole 700-path shard at each date.  The recorders see
        # the sweeping process only, so one shard.
        sim, jobs = sweep_case
        shards(monkeypatch, 1)
        basis = backtest.BasisCache.basis
        blocks = []

        def counted(cache, k, log_spot, cov):
            if k == 0:
                blocks.append(log_spot.shape[0])
            return basis(cache, k, log_spot, cov)

        monkeypatch.setattr(backtest.BasisCache, "basis", counted)

        def sweep(rows=None):
            run = jobs()
            if rows is not None:
                nodes = run[0].strategy.cache.model_args.shape[0]
                monkeypatch.setattr(backtest, "BASIS_BLOCK_POINTS",
                                    rows * nodes)
            recorder = Recorder()
            run.append(backtest.HedgeJob("recorder", recorder,
                                         np.zeros(sim.n_paths), 0.0))
            blocks.clear()
            pnl = [r.pnl for r in backtest.run_backtest(sim, run)]
            assert recorder.rows == [sim.n_paths]
            return pnl, list(blocks)

        want, default = sweep()
        assert sum(default) == sim.n_paths
        for rows, split in ((97, [97] * 7 + [21]), (1, [1] * 700)):
            got, seen = sweep(rows)
            assert seen == split
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        fourier, swap, gbm_delta, cash, _ = want
        assert all(np.ptp(pnl) > 0 for pnl in (fourier, swap, gbm_delta,
                                                cash))

    def test_pnl_independent_of_the_shard_count(self, sweep_case,
                                                monkeypatch):
        sim, jobs = sweep_case
        runs = []
        for n in (1, 2, 3):
            shards(monkeypatch, n)
            runs.append([r.pnl for r in backtest.run_backtest(sim, jobs())])
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                np.testing.assert_array_equal(got, want)
        assert all(np.ptp(pnl) > 0 for pnl in runs[0])

    @pytest.mark.parametrize("form", ["array", "callable"])
    @pytest.mark.parametrize("shape", ["column", "scalar"])
    def test_payoff_not_one_per_path_is_refused(self, wasc_ref, state_ref,
                                                form, shape):
        # unchecked, a callable giving a (P, 1) column made a (P, P) P&L
        # and one giving a scalar paid every path alike
        sim = simulate.simulate(wasc_ref, state_ref, 1.0, N_STEPS, N_PATHS,
                                seed=5)
        pay = {"column": np.zeros((N_PATHS, 1)), "scalar": 1.0}[shape]
        job = backtest.HedgeJob("cash", None, (lambda spot: pay)
                                if form == "callable" else pay, 0.0)
        with pytest.raises(ValueError, match=re.escape(
                f"payoff of cash has shape {np.shape(pay)}, not "
                f"({N_PATHS},)")):
            backtest.run_backtest(sim, [job])

    @pytest.mark.parametrize("n", [1, 2, "rule"])
    def test_an_overflow_in_any_shard_is_raised(self, hedged, monkeypatch, n):
        # the last path sits in the last shard, so with two shards its
        # overflow is raised in the child and again here; "rule" takes the
        # shard count from the CPUs, one in the one-CPU CI step
        _, sim, _, hedge, _ = hedged
        sim.log_spot[-1, :, 0] += 500.0
        if n == "rule":
            monkeypatch.setattr(backtest, "_MIN_SHARD_BASIS_POINTS", 1)
        else:
            shards(monkeypatch, n)
        with pytest.raises(ValueError, match="OVERFLOW_RE at rebalancing "
                           "date 0 ") as err:
            backtest.run_backtest(sim, [backtest.HedgeJob(
                "fourier", hedge, np.zeros(sim.n_paths), 0.0)])
        if n == 2:
            assert "backtest shard process" in str(err.value.__cause__)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("path", [0, -1])
    def test_failures_are_raised_and_every_child_reaped(self, wasc_ref,
                                                        state_ref,
                                                        monkeypatch, path):
        # path 0 fails in this process's own shard, path -1 in a child's
        sim = simulate.simulate(wasc_ref, state_ref, 1.0, N_STEPS, N_PATHS,
                                seed=5)
        shards(monkeypatch, 2)
        run = [backtest.HedgeJob(name, strategy, np.zeros(N_PATHS), 0.0)
               for name, strategy in (("recorder", Recorder()),
                                      ("raiser", Raiser(path)))]
        with pytest.raises(ValueError, match=f"shown path {path}") as err:
            backtest.run_backtest(sim, run)
        if path == -1:
            assert "backtest shard process" in str(err.value.__cause__)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_a_failed_fork_sweeps_the_shard_here(self, sweep_case,
                                                 monkeypatch):
        sim, jobs = sweep_case
        shards(monkeypatch, 2)
        want = [r.pnl for r in backtest.run_backtest(sim, jobs())]

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        fds = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            got = [r.pnl for r in backtest.run_backtest(sim, jobs())]
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        assert len(os.listdir("/proc/self/fd")) == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_shard_count_rule(self, hedged, monkeypatch):
        _, _, cache, hedge, _ = hedged
        fourier = [backtest.HedgeJob("fourier", hedge, np.zeros(N_PATHS),
                                     0.0)]
        cash = [backtest.HedgeJob("cash", None, np.zeros(N_PATHS), 0.0)]
        # N_STEPS + 1 dates, so N_STEPS rebalancing dates
        points = N_PATHS * N_STEPS * cache.model_args.shape[0]

        def count(jobs, cpus, min_points):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)))
            monkeypatch.setattr(backtest, "_MIN_SHARD_BASIS_POINTS",
                                min_points)
            return backtest._shard_count(jobs, N_PATHS, N_STEPS + 1)

        assert count(fourier, 8, 1) == _shards._MAX_SHARDS == 2
        assert count(fourier, 1, 1) == 1
        assert count(fourier, 8, points // 2) == 2
        assert count(fourier, 8, points // 2 + 1) == 1
        assert count(cash, 8, 1) == 1

    def test_a_threaded_caller_forks_nothing(self, hedged, monkeypatch):
        _, sim, _, hedge, _ = hedged
        jobs = [backtest.HedgeJob("fourier", hedge, np.zeros(N_PATHS), 0.0)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(backtest, "_MIN_SHARD_BASIS_POINTS", 1)
        assert backtest._shard_count(jobs, N_PATHS, N_STEPS + 1) == 2
        want = backtest.run_backtest(sim, jobs)[0].pnl

        def fork():
            raise AssertionError("forked while another thread runs")

        monkeypatch.setattr(os, "fork", fork)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            got = backtest.run_backtest(sim, jobs)[0].pnl
        finally:
            stop.set()
            other.join()
        np.testing.assert_array_equal(got, want)

    def test_fork_raises_no_warning(self, hedged, monkeypatch):
        # Python 3.12 on warns when a process with more than one thread
        # forks; OpenBLAS's own fork handler stops its threads first
        _, sim, _, hedge, _ = hedged
        shards(monkeypatch, 2)
        big = np.ones((512, 512))
        big @ big                      # large enough to wake OpenBLAS's pool
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backtest.run_backtest(sim, [backtest.HedgeJob(
                "fourier", hedge, np.zeros(N_PATHS), 0.0)])


ORACLE_NODES = np.array([[1.5 + 0.7j, 1.5 - 1.3j], [1.5 + 3.2j, 1.5 + 0.4j],
                         [-0.5 - 2.1j, -0.5 + 5.0j], [1.0, 0.0], [0.0, 1.0]])
ORACLE_STATES = [SIGMA0_REF, np.array([[0.05, -0.01], [-0.01, 0.2]])]


def oracle_evals(params, tau=0.6):
    """Transform evaluations at the oracle nodes; the last two are the spot
    claims u = e_0 and u = e_1."""
    grid = transforms.transform_grid(params, [tau], ORACLE_NODES)
    assert np.all(grid.valid)
    return [oracles.TransformEval(tau=tau, u=u, phi=grid.phi[0, m],
                                  psi=grid.psi[0, m], valid=True)
            for m, u in enumerate(ORACLE_NODES)]


class TestCovariationOracles:
    @pytest.mark.parametrize("cov", ORACLE_STATES)
    def test_wasc_residual_closed_form_is_the_schur_complement(
            self, wasc_ref, cov):
        # 4 H1 H2 Tr(psi1 Sigma psi2 A'(I - rho rho')A) against the generic
        # claim_claim - c1' css^-1 c2
        state = models.MarketState.from_spot(0.4, S0_REF, cov)
        evals = oracle_evals(wasc_ref)[:3]
        css = oracles.spot_spot_rate(wasc_ref, state)
        for ev1 in evals:
            for ev2 in evals:
                c1 = oracles.claim_spot_rate(wasc_ref, state, ev1)
                c2 = oracles.claim_spot_rate(wasc_ref, state, ev2)
                schur = (oracles.claim_claim_rate(wasc_ref, state, ev1, ev2)
                         - c1 @ np.linalg.solve(css, c2))
                got = oracles.residual_rate(wasc_ref, state, ev1, ev2)
                np.testing.assert_allclose(got, schur, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("kind", ["wasc", "bns"])
    def test_spot_claims_leave_no_residual(self, wasc_ref, bns_ref, state_ref,
                                           kind):
        # H(e_k) is the spot itself, which the spot hedge replicates exactly
        params = wasc_ref if kind == "wasc" else bns_ref
        evals = oracle_evals(params)
        values = [oracles.basis_from_eval(ev, state_ref) for ev in evals]
        for k in (3, 4):
            assert abs(values[k]) == pytest.approx(S0_REF[k - 3], rel=1e-6)
            for ev, h in zip(evals, values):
                res = oracles.residual_rate(params, state_ref, evals[k], ev)
                assert abs(res) <= 1e-12 * abs(values[k]) * abs(h)

    def test_bns_jump_cov_matches_scalar_loop(self, bns_ref):
        # R = marks[l] gives the spots' jump covariation matrix
        cov, ok = models.jump_covariation(bns_ref, bns_ref.marks)
        assert np.all(ok)
        np.testing.assert_allclose(cov.real, oracles.bns_jump_cov(bns_ref),
                                   rtol=1e-13, atol=0)

    def test_bns_jump_cov_rejects_mark_outside_strip(self, bns_ref,
                                                     state_ref):
        # admissible (1 - 2 rho_0 Theta_00 = 0.2 > 0), but the doubled mark
        # 2 rho_0 E^00 of the (0, 0) entry leaves the strip: flagged by the
        # model, refused by the hedge
        wild = models.BnsParams(d=2, mean_rev=bns_ref.mean_rev,
                                jump_intensity=3.0, wishart_shape=3.0,
                                wishart_scale=bns_ref.wishart_scale,
                                leverage_diag=np.array([20.0, -0.5]))
        cov, ok = models.jump_covariation(wild, wild.marks)
        np.testing.assert_array_equal(ok, [[False, True], [True, True]])
        assert np.isnan(cov[0, 0])
        sim = simulate.simulate(bns_ref, state_ref, 1.0, N_STEPS, 2, seed=5)
        system = covswap.bns_covswap_system(wild, SIGMA0_REF, 1.0, (0, 1),
                                            N_STEPS)
        with pytest.raises(ValueError, match="convergence strip"):
            backtest.CovswapHedge(system, wild).prepare(sim)

    @pytest.mark.parametrize("system_kind, params_kind",
                             [("bns", "wasc"), ("wasc", "bns")])
    def test_covswap_hedge_refuses_params_of_another_model(
            self, wasc_ref, bns_ref, system_kind, params_kind):
        # unchecked, a bns system under wasc params failed inside the sweep
        # (maybe in a child) and a wasc system under bns params gave a P&L
        params = {"wasc": wasc_ref, "bns": bns_ref}
        build = (covswap.wasc_covswap_system if system_kind == "wasc"
                 else covswap.bns_covswap_system)
        system = build(params[system_kind], SIGMA0_REF, 1.0, (0, 1), N_STEPS)
        with pytest.raises(ValueError,
                           match=f"{system_kind} swap system .* "
                                 f"{params_kind} params"):
            backtest.CovswapHedge(system, params[params_kind])


class TestCovswapStrikes:
    @pytest.mark.parametrize("pair", [(0, 1), (0, 0), (1, 1)])
    def test_bns_strike_matches_closed_form(self, bns_ref, pair):
        # expected bracket: the integrated covariance mean plus the jump
        # products lam T rho_i rho_j E[X_ii X_jj] of the Wishart mark
        i, j = pair
        system = covswap.bns_covswap_system(bns_ref, SIGMA0_REF, 1.0, pair, 50)
        n, th = bns_ref.wishart_shape, bns_ref.wishart_scale
        rho = bns_ref.leverage_diag
        pair_mom = n * n * th[i, i] * th[j, j] + 2.0 * n * th[i, j] ** 2
        closed = (models.bns_integrated_mean(bns_ref, SIGMA0_REF, 1.0)[i, j]
                  + bns_ref.jump_intensity * rho[i] * rho[j] * pair_mom)
        assert system.fair_strike == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("pair", [(0, 1), (0, 0), (1, 1)])
    def test_bns_jump_core_matches_per_asset_loop(self, bns_ref, pair):
        # lam E[(e^{rho_k X_kk} - 1) dV] for each asset k, date by date:
        # under the mark law tilted by rho_k E^kk, X is Wishart with scale
        # (Theta^{-1} - 2 rho_k E^kk)^{-1} and weight mgf(rho_k E^kk)
        i, j = pair
        system = covswap.bns_covswap_system(bns_ref, SIGMA0_REF, 1.0, pair, 7)
        lam, n = bns_ref.jump_intensity, bns_ref.wishart_shape
        theta, rho = bns_ref.wishart_scale, bns_ref.leverage_diag

        def jump_move_mean(scale, g):
            # E[rho_i rho_j X_ii X_jj + Tr(G X)] for X ~ Wishart(n, scale)
            return (rho[i] * rho[j] * (n * n * scale[i, i] * scale[j, j]
                                       + 2.0 * n * scale[i, j] ** 2)
                    + n * np.trace(g @ scale))

        for t, g in enumerate(system.g_mats):
            for k in range(2):
                r_k = np.zeros((2, 2))
                r_k[k, k] = rho[k]
                mgf, ok = models.wishart_mgf(theta, n, r_k)
                tilted = np.linalg.inv(np.linalg.inv(theta) - 2.0 * r_k)
                want = lam * (mgf.real * jump_move_mean(tilted, g)
                              - jump_move_mean(theta, g))
                assert ok
                assert system.theta_core[t, k] == pytest.approx(
                    want, rel=1e-13, abs=1e-16)

    @pytest.mark.parametrize("horizon", [-1.0, 0.0, np.nan, np.inf])
    def test_rejects_bad_horizon(self, wasc_ref, bns_ref, horizon):
        # a negative horizon gives negative strikes and a negative variance
        with pytest.raises(ValueError, match="horizon"):
            covswap.wasc_covswap_system(wasc_ref, SIGMA0_REF, horizon,
                                        (0, 1), 3)
        with pytest.raises(ValueError, match="horizon"):
            covswap.bns_covswap_system(bns_ref, SIGMA0_REF, horizon, (0, 1), 3)
        with pytest.raises(ValueError, match="horizon"):
            covswap.wasc_covswap_variance(wasc_ref, SIGMA0_REF, horizon,
                                          (0, 1))


# a matrix that is not symmetric, one with a negative eigenvalue (-0.1),
# one of another dimension and two that are not finite: MarketState refuses
# all five
NOT_A_STATE = {"asymmetric": ([[0.1, 0.5], [-0.3, 0.1]], "symmetric"),
               "indefinite": ([[0.1, 0.2], [0.2, 0.1]], "eigenvalue"),
               "3 x 3": (SIGMA0_3, r"expected shape \(2, 2\)"),
               "nan": ([[0.1, np.nan], [np.nan, 0.1]], "cov must be finite"),
               "inf": ([[np.inf, 0.0], [0.0, 0.1]], "cov must be finite")}


class TestCovarianceStateRule:
    """The entry points that take a raw covariance state refuse what
    MarketState refuses, and those that take a MarketState refuse one of
    another dimension than the params."""

    @pytest.mark.parametrize("case", NOT_A_STATE)
    def test_wasc_covswap_system(self, wasc_ref, case):
        # the asymmetric matrix used to give a fair strike of 0.0554
        cov, match = NOT_A_STATE[case]
        with pytest.raises(ValueError, match=match):
            covswap.wasc_covswap_system(wasc_ref, cov, 1.0, (0, 1), 10)

    @pytest.mark.parametrize("case", NOT_A_STATE)
    def test_bns_covswap_system(self, bns_ref, case):
        cov, match = NOT_A_STATE[case]
        with pytest.raises(ValueError, match=match):
            covswap.bns_covswap_system(bns_ref, cov, 1.0, (0, 1), 10)

    @pytest.mark.parametrize("case", NOT_A_STATE)
    def test_wasc_covswap_variance(self, wasc_ref, case):
        cov, match = NOT_A_STATE[case]
        with pytest.raises(ValueError, match=match):
            covswap.wasc_covswap_variance(wasc_ref, cov, 1.0, (0, 1))

    @pytest.mark.parametrize("kind", ["wasc", "bns"])
    def test_fourier_price_refuses_another_dimension(self, wasc_ref, bns_ref,
                                                     kind):
        params = wasc_ref if kind == "wasc" else bns_ref
        with pytest.raises(ValueError, match="3 assets, the params d = 2"):
            pricing.fourier_price(params, STATE_3, 1.0,
                                  payoffs.call_option(2, 0, 100.0))


@pytest.mark.parametrize("horizon", [np.nan, np.inf])
class TestNonFiniteHorizon:
    """A nan or infinite horizon is refused where it enters, by name;
    unchecked, a nan one reaches the transform engine or passes the span
    check."""

    def test_integrated_cov_rate(self, wasc_ref, bns_ref, state_ref, horizon):
        for params in (wasc_ref, bns_ref):
            with pytest.raises(ValueError, match="horizon must be finite"):
                pricing.integrated_cov_rate(params, state_ref, horizon)

    def test_fourier_price(self, wasc_ref, bns_ref, state_ref, horizon):
        for params in (wasc_ref, bns_ref):
            with pytest.raises(ValueError, match="horizon must be finite"):
                pricing.fourier_price(params, state_ref, horizon,
                                      payoffs.call_option(2, 0, 100.0))

    def test_basis_cache(self, wasc_ref, state_ref, horizon):
        sim = simulate.simulate(wasc_ref, state_ref, 1.0, N_STEPS, N_PATHS,
                                seed=5)
        cache = backtest.BasisCache(wasc_ref, [[1.5 + 1.0j, 1.5 - 1.0j]],
                                    horizon)
        with pytest.raises(ValueError, match="horizon must be finite"):
            cache.prepare(sim)


INADMISSIBLE = "invalid model parameters"


class TestInadmissibleParams:
    """The sets of conftest.inadmissible_params cannot be built, so a call of
    any entry point that evaluates a model on one raises with the set's
    diagnostics instead of giving a number."""

    VIOLATION = {"wasc": "leverage norm", "bns": "jump_intensity"}

    @pytest.mark.parametrize("kind", ["wasc", "bns"])
    def test_construction_raises(self, kind):
        with pytest.raises(ValueError, match=INADMISSIBLE) as err:
            inadmissible_params(kind)
        assert self.VIOLATION[kind] in str(err.value)

    @pytest.mark.parametrize("kind", ["wasc", "bns"])
    def test_fourier_price(self, state_ref, kind):
        with pytest.raises(ValueError, match=INADMISSIBLE) as err:
            pricing.fourier_price(inadmissible_params(kind), state_ref, 1.0,
                                  payoffs.call_option(2, 0, 100.0))
        assert self.VIOLATION[kind] in str(err.value)

    @pytest.mark.parametrize("kind", ["wasc", "bns"])
    def test_integrated_cov_rate(self, state_ref, kind):
        with pytest.raises(ValueError, match=INADMISSIBLE) as err:
            pricing.integrated_cov_rate(inadmissible_params(kind), state_ref,
                                        1.0)
        assert self.VIOLATION[kind] in str(err.value)

    @pytest.mark.parametrize("kind", ["wasc", "bns"])
    def test_basis_cache(self, wasc_ref, state_ref, kind):
        sim = simulate.simulate(wasc_ref, state_ref, 1.0, N_STEPS, N_PATHS,
                                seed=5)
        with pytest.raises(ValueError, match=INADMISSIBLE) as err:
            backtest.BasisCache(inadmissible_params(kind),
                                [[1.5 + 1.0j, 1.5 - 1.0j]], 1.0).prepare(sim)
        assert self.VIOLATION[kind] in str(err.value)

    def test_wasc_covswap_system(self):
        with pytest.raises(ValueError, match="leverage norm"):
            covswap.wasc_covswap_system(inadmissible_params("wasc"),
                                        SIGMA0_REF, 1.0, (0, 1), 3)

    def test_bns_covswap_system(self):
        with pytest.raises(ValueError, match="jump_intensity"):
            covswap.bns_covswap_system(inadmissible_params("bns"),
                                       SIGMA0_REF, 1.0, (0, 1), 3)

    def test_wasc_covswap_variance(self):
        with pytest.raises(ValueError, match="leverage norm"):
            covswap.wasc_covswap_variance(inadmissible_params("wasc"),
                                          SIGMA0_REF, 1.0, (0, 1))


class TestGbmDeltaHedge:
    def test_prepare_refuses_a_panel_of_another_span(self, wasc_ref,
                                                     state_ref):
        # unchecked, a horizon-2 claim hedged on a 1-year panel takes
        # deltas at the wrong time to maturity
        sim = simulate.simulate(wasc_ref, state_ref, 1.0, N_STEPS, N_PATHS,
                                seed=5)
        for horizon in (2.0, 0.5):
            hedge = backtest.GbmDeltaHedge("cc", (100.0, 100.0), (0.3, 0.3),
                                           0.5, horizon)
            with pytest.raises(ValueError, match="simulation span"):
                hedge.prepare(sim)
        backtest.GbmDeltaHedge("cc", (100.0, 100.0), (0.3, 0.3), 0.5,
                               1.0).prepare(sim)


class TestGridTolerance:
    """Every strategy compares the panel's grid with its own by one
    absolute rule, 1e-12: the 50 dates of a horizon-1.000005 panel lie up
    to 5e-6 off the horizon-1 grid, inside np.allclose's rtol of 1e-5,
    and all four refuse them."""

    def strategies(self, params, state, sim):
        """The four strategies of an ATM cc quadrant and a (0, 1) swap
        with horizon 1 on 50 dates, the basis cache prepared on sim."""
        kernel = payoffs.quadrant_option(2, "cc", (0, 1), (100.0, 100.0))
        rate = pricing.integrated_cov_rate(params, state, 1.0)
        contour = payoffs.build_contour(
            kernel, nodes_per_dim=4,
            decay=payoffs.suggest_decay(kernel, rate, 1.0, 4))
        cache = backtest.BasisCache(params, contour.model_args, 1.0)
        cache.prepare(sim)
        system = covswap.wasc_covswap_system(params, SIGMA0_REF, 1.0, (0, 1),
                                             50)
        return [backtest.BasisCache(params, contour.model_args, 1.0),
                backtest.FourierHedge(params, cache, contour.weights),
                backtest.GbmDeltaHedge("cc", (100.0, 100.0), (0.3, 0.3), 0.5,
                                       1.0),
                backtest.CovswapHedge(system, params)]

    def test_a_grid_5e6_off_is_refused_by_all(self, wasc_ref, state_ref):
        on, off = (simulate.simulate(wasc_ref, state_ref, horizon, 50, 2,
                                     seed=5) for horizon in (1.0, 1.000005))
        assert np.allclose(off.times, on.times)
        for strategy in self.strategies(wasc_ref, state_ref, on):
            with pytest.raises(ValueError,
                               match="must match the simulation"):
                strategy.prepare(off)
        for strategy in self.strategies(wasc_ref, state_ref, on):
            strategy.prepare(on)


SWAP_PATHS = 4096
SWAP_STEPS = 100
PAIRS = [(0, 1), (0, 0), (1, 1)]


@pytest.fixture(scope="module")
def swap_panels(wasc_ref, bns_ref, state_ref):
    """Per model: a simulated panel and the three swap systems on its grid."""
    out = {}
    for params, seed in ((wasc_ref, 101), (bns_ref, 202)):
        sim = simulate.simulate(params, state_ref, 1.0, SWAP_STEPS,
                                SWAP_PATHS, seed=seed)
        build = (covswap.wasc_covswap_system if params.kind == "wasc"
                 else covswap.bns_covswap_system)
        out[params.kind] = (params, sim, [
            build(params, SIGMA0_REF, 1.0, pair, SWAP_STEPS)
            for pair in PAIRS])
    return out


class TestCovswapValues:
    @pytest.mark.parametrize("kind", ["wasc", "bns"])
    def test_zero_at_inception(self, swap_panels, kind):
        _, sim, systems = swap_panels[kind]
        for system in systems:
            values = covswap.covswap_values(system, sim.integrated_cov,
                                            sim.cov)
            assert np.max(np.abs(values[:, 0])) <= 1e-15

    @pytest.mark.parametrize("kind", ["wasc", "bns"])
    def test_mean_zero_at_every_date(self, swap_panels, kind):
        _, sim, systems = swap_panels[kind]
        for system in systems:
            values = covswap.covswap_values(system, sim.integrated_cov,
                                            sim.cov)[:, 1:]
            se = values.std(axis=0, ddof=1) / np.sqrt(SWAP_PATHS)
            assert np.all(np.abs(values.mean(axis=0)) <= 3.0 * se)

    def test_wasc_hedged_variance_matches_closed_form(self, swap_panels):
        params, sim, systems = swap_panels["wasc"]
        jobs = [backtest.HedgeJob(str(s.pair), backtest.CovswapHedge(s, params),
                                  covswap.covswap_payoff(s, sim.integrated_cov),
                                  0.0) for s in systems]
        for system, result in zip(systems, backtest.run_backtest(sim, jobs)):
            err = result.pnl - result.pnl.mean()
            mc = err @ err / (SWAP_PATHS - 1)
            se = np.std(err * err, ddof=1) / np.sqrt(SWAP_PATHS)
            closed = covswap.wasc_covswap_variance(params, SIGMA0_REF, 1.0,
                                                   system.pair)
            assert abs(mc - closed) <= 3.0 * se


PRICE_KERNELS = [payoffs.quadrant_option(2, "cc", (0, 1), (100.0, 100.0)),
                 payoffs.exchange_option(2, 0, 1),
                 payoffs.call_option(2, 0, 100.0),
                 payoffs.put_option(2, 0, 100.0)]
PRICE_KERNELS_3 = [payoffs.call_option(3, 2, 110.0),
                   payoffs.put_option(3, 1, 90.0),
                   payoffs.quadrant_option(3, "cc", (0, 2), (100.0, 110.0)),
                   payoffs.exchange_option(3, 1, 2),
                   payoffs.geometric_option(3, np.full(3, 1.0 / 3.0), 100.0),
                   payoffs.spread_option(3, 2, 0, 10.0)]


@pytest.fixture(scope="module")
def price_panels(swap_panels, state_ref):
    """Per model and d: params, state and a SWAP_PATHS x SWAP_STEPS panel;
    the swap panels at d = 2, the three-asset sets at d = 3."""
    out = {}
    for kind, seed in (("wasc", 101), ("bns", 202)):
        params, sim, _ = swap_panels[kind]
        out[kind, 2] = (params, state_ref, sim)
        three = three_asset_params(kind)
        out[kind, 3] = (three, STATE_3, simulate.simulate(
            three, STATE_3, 1.0, SWAP_STEPS, SWAP_PATHS, seed=seed))
    return out


class TestFourierPrice:
    @pytest.mark.parametrize("kind", ["wasc", "bns"])
    @pytest.mark.parametrize(
        "kernel", PRICE_KERNELS + PRICE_KERNELS_3,
        ids=lambda k: k.name if k.loading.shape[0] == 2 else f"d3_{k.name}")
    def test_matches_monte_carlo(self, price_panels, kind, kernel):
        params, state, sim = price_panels[kind, kernel.loading.shape[0]]
        price = pricing.fourier_price(params, state, 1.0, kernel)
        pay = kernel.payoff(np.exp(sim.log_spot[:, -1]))
        se = pay.std(ddof=1) / np.sqrt(SWAP_PATHS)
        assert abs(price - pay.mean()) <= 3.0 * se

    @pytest.mark.parametrize("kind", ["wasc", "bns"])
    def test_put_call_parity(self, wasc_ref, bns_ref, state_ref, kind):
        params = wasc_ref if kind == "wasc" else bns_ref
        call, put = (pricing.fourier_price(params, state_ref, 1.0, k)
                     for k in PRICE_KERNELS[2:])
        assert abs(call - put - (S0_REF[0] - 100.0)) <= 1e-4

    @pytest.mark.parametrize("claim", ["cc", "cp", "pc", "pp", "exchange",
                                       "geometric"])
    def test_frozen_set_matches_lognormal_closed_forms(self, state_ref,
                                                       claim):
        # zero vol-of-vol: Sigma_t = e^{Mt} Sigma_0 e^{M't} is deterministic,
        # log prices are Gaussian with covariance C = int_0^T Sigma_t dt, and
        # the lattice takes the closed form with G = 0; the 24-node contour
        # error is at most 1e-4 of each price
        frozen = models.WascParams(d=2, mean_rev=M_REF,
                                   vol_of_vol=np.zeros((2, 2)),
                                   leverage=RHO_REF, alpha=ALPHA_REF)
        imap = models.wasc_integrated_mean(frozen, 0.0, 1.0)
        cov = matcalc.mat(imap.map @ matcalc.vec(SIGMA0_REF) + imap.offset)
        vols = np.sqrt(np.diag(cov))
        rho = cov[0, 1] / (vols[0] * vols[1])
        if claim == "exchange":
            kernel = payoffs.exchange_option(2, 0, 1)
            ref = oracles.margrabe_exchange(*S0_REF, *vols, rho, 1.0)
        elif claim == "geometric":
            w = np.array([0.5, 0.5])
            kernel = payoffs.geometric_option(2, w, 100.0, "call")
            var = w @ cov @ w
            fwd = np.exp(w @ (np.log(S0_REF) - 0.5 * np.diag(cov))
                         + 0.5 * var)
            ref = oracles.black_scholes_call(fwd, 100.0, np.sqrt(var), 1.0)
        else:
            kernel = payoffs.quadrant_option(2, claim, (0, 1), (96.0, 104.0))
            ref = gbm.lognormal_quadrant_price(claim, S0_REF, (96.0, 104.0),
                                               vols, rho, 1.0)
        price = pricing.fourier_price(frozen, state_ref, 1.0, kernel)
        assert price == pytest.approx(ref, rel=5e-4)

    def test_refuses_past_the_moment_explosion(self):
        params, state, call = exploding_call()
        assert 0.0 < pricing.fourier_price(params, state, 1.7, call) < 100.0
        with pytest.raises(ValueError, match="invalid transform nodes"):
            pricing.fourier_price(params, state, 1.9, call)

    @pytest.mark.parametrize("kind", ["wasc", "bns"])
    def test_an_overflowing_valid_node_is_refused(self, wasc_ref, bns_ref,
                                                  kind):
        # at log S_0 = 470 the call's damped exponent passes the overflow
        # rule on valid nodes, which the skipped-mass rule would blame on
        # invalid transform nodes
        params = wasc_ref if kind == "wasc" else bns_ref
        state = models.MarketState(0.0, [470.0, np.log(100.0)], SIGMA0_REF)
        call = payoffs.call_option(2, 0, 100.0)
        with pytest.raises(ValueError, match=re.escape(
                f"the transform of {call.name} overflows")):
            pricing.fourier_price(params, state, 1.0, call)
