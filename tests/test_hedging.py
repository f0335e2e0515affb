"""Hedging layer: the basis kernel against complex exp, the batched hedge
engines against the scalar covariation kernels, and covariance swaps: strikes
against closed forms, values as martingales and the hedged variance against
Monte Carlo."""

import numpy as np
import pytest

from covhedge import models, payoffs, simulate
from covhedge.hedging import backtest, covswap, kernels, pricing
from covhedge.transforms import TransformEval

from conftest import SIGMA0_REF

N_PATHS = 12
N_STEPS = 4


@pytest.fixture(params=["wasc", "bns"])
def hedged(request, wasc_ref, bns_ref, state_ref):
    """A prepared FourierHedge of an ATM cc quadrant on a small panel."""
    params = wasc_ref if request.param == "wasc" else bns_ref
    kernel = payoffs.quadrant_option(2, "cc", (0, 1), (100.0, 100.0))
    rate = pricing.integrated_cov_rate(params, state_ref, 1.0)
    contour = payoffs.build_contour(
        kernel, nodes_per_dim=4,
        decay=payoffs.suggest_decay(kernel, rate, 1.0, 4))
    sim = simulate.simulate(params, state_ref, 1.0, N_STEPS, N_PATHS, seed=5)
    cache = backtest.BasisCache(params, contour.model_args, 1.0)
    cache.prepare(sim)
    hedge = backtest.FourierHedge(params, cache, contour.weights)
    hedge.prepare(sim)
    return params, sim, cache, hedge, cache.weight_mask(contour.weights)


def complex_exp_basis(cache, k, log_spot, cov):
    """H = exp(phi + u'Y + Tr(psi Sigma)) by complex exp, node by node."""
    expo = (cache.phi[k] + log_spot @ cache.model_args.T
            + np.einsum("mab,pab->pm", cache.psi[k], cov))
    return np.exp(expo), expo.real


class TestBasisCache:
    @pytest.mark.parametrize("k", [0, N_STEPS - 1])
    def test_matches_complex_exp_across_blocks(self, hedged, monkeypatch, k):
        # a budget of 5 rows splits the 12 paths into blocks of 5, 5 and 2
        _, sim, cache, _, _ = hedged
        monkeypatch.setattr(backtest, "BASIS_BLOCK_POINTS",
                            5 * cache.model_args.shape[0] + 3)
        got = cache.basis(0, k, sim.log_spot[:, k], sim.cov[:, k])
        want, _ = complex_exp_basis(cache, k, sim.log_spot[:, k],
                                    sim.cov[:, k])
        assert got.shape == (N_PATHS, cache.model_args.shape[0])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        assert cache.overflow_count == 0

    def test_overflow_entries_are_zero_and_counted(self, hedged):
        _, sim, cache, _, _ = hedged
        k = 1
        log_spot = sim.log_spot[:, k].copy()
        cov = sim.cov[:, k]
        log_spot[:4] += np.array([[150.0], [200.0], [300.0], [500.0]])
        with np.errstate(over="ignore"):
            want, re = complex_exp_basis(cache, k, log_spot, cov)
        bad = re > models.OVERFLOW_RE
        assert 0 < bad.sum() < bad.size
        got = cache.basis(0, k, log_spot, cov)
        assert cache.overflow_count == bad.sum()
        assert np.all(got[bad] == 0)
        np.testing.assert_allclose(got[4:], want[4:], rtol=1e-13, atol=0)
        # the shifted rows' angles reach thousands of radians, so rounding
        # in the exponent alone moves H by |b| eps relative
        kept = ~bad[:4]
        assert kept.any()
        np.testing.assert_allclose(got[:4][kept], want[:4][kept], rtol=1e-11,
                                   atol=0)

    def test_nan_state_propagates(self, hedged):
        _, sim, cache, _, _ = hedged
        k = 2
        log_spot = sim.log_spot[:, k].copy()
        cov = sim.cov[:, k].copy()
        log_spot[3, 0] = np.nan
        cov[5, 0, 1] = cov[5, 1, 0] = np.nan
        got = cache.basis(0, k, log_spot, cov)
        want, _ = complex_exp_basis(cache, k, log_spot, cov)
        nan_rows = np.isin(np.arange(N_PATHS), [3, 5])
        assert np.all(np.isnan(got[nan_rows].real))
        assert np.all(np.isnan(got[nan_rows].imag))
        np.testing.assert_allclose(got[~nan_rows], want[~nan_rows],
                                   rtol=1e-13, atol=0)
        assert cache.overflow_count == 0


class TestScaledCis:
    @staticmethod
    def cis(b, scale=None):
        b = np.asarray(b, dtype=float)
        scale = np.ones_like(b) if scale is None else scale
        out = np.empty(b.shape, dtype=complex)
        backtest._scaled_cis(b, scale, out)
        return out

    def test_against_complex_exp(self):
        rng = np.random.default_rng(11)
        step = 2.0 * np.pi / backtest.CIS_TABLE
        j = np.arange(-3 * backtest.CIS_TABLE, 3 * backtest.CIS_TABLE)
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
        edge = backtest._CIS_MAX_ARG
        b = np.array([edge, -edge, np.nextafter(edge, 0.0)])
        assert np.abs(self.cis(b) - np.exp(1j * b)).max() < 1e-15

    def test_non_finite_angles_give_nan(self):
        with np.errstate(invalid="ignore"):
            got = self.cis([np.inf, -np.inf, np.nan, 0.5])
        assert np.all(np.isnan(got[:3].real))
        assert np.all(np.isnan(got[:3].imag))
        assert got[3] == pytest.approx(np.exp(0.5j), abs=1e-15)

    @pytest.mark.parametrize("angle", [1.01 * backtest._CIS_MAX_ARG,
                                       -1.01 * backtest._CIS_MAX_ARG,
                                       1e9, -1e300])
    def test_angle_past_the_split_raises(self, angle):
        with pytest.raises(ValueError, match="argument reduction"):
            self.cis([0.25, angle, np.nan])


class TestFourierHedge:
    @pytest.mark.parametrize("k", [0, N_STEPS - 1])
    def test_positions_sum_gkw_theta_over_contour(self, hedged, k):
        params, sim, cache, hedge, weights = hedged
        spot = np.exp(sim.log_spot[:, k])
        got = hedge.positions(0, k, spot, sim.log_spot[:, k], sim.cov[:, k])
        tau = 1.0 - sim.times[k]
        for p in range(N_PATHS):
            state = models.MarketState.from_log(sim.times[k],
                                                sim.log_spot[p, k],
                                                sim.cov[p, k])
            want = sum(
                weights[k, m] * kernels.gkw_theta(params, state, TransformEval(
                    tau=tau, u=cache.model_args[m], phi=cache.phi[k, m],
                    psi=cache.psi[k, m], valid=True))
                for m in np.flatnonzero(cache.valid[k]))
            np.testing.assert_allclose(got[p], want.real, rtol=1e-9,
                                       atol=1e-12 * np.abs(want).max())


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
