"""Hedging layer: the basis kernel against complex exp, the batched hedge
engines against the scalar covariation oracles, the oracles' own identities,
Fourier prices against Monte Carlo and parity, and covariance swaps: strikes
against closed forms, values as martingales and the hedged variance against
Monte Carlo."""

import numpy as np
import pytest

from covhedge import gbm, matcalc, models, payoffs, simulate, transforms
from covhedge.hedging import backtest, covswap, pricing

import oracles
from conftest import ALPHA_REF, M_REF, RHO_REF, S0_REF, SIGMA0_REF

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
                weights[k, m] * oracles.gkw_theta(
                    params, state, oracles.TransformEval(
                        tau=tau, u=cache.model_args[m], phi=cache.phi[k, m],
                        psi=cache.psi[k, m], valid=True))
                for m in np.flatnonzero(cache.valid[k]))
            np.testing.assert_allclose(got[p], want.real, rtol=1e-9,
                                       atol=1e-12 * np.abs(want).max())


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
        np.testing.assert_allclose(models.bns_jump_cov(bns_ref),
                                   oracles.bns_jump_cov(bns_ref),
                                   rtol=1e-13, atol=0)

    def test_bns_jump_cov_rejects_mark_outside_strip(self, bns_ref):
        # admissible (1 - 2 rho_0 Theta_00 = 0.2 > 0), but the doubled mark
        # 2 rho_0 E^00 of the (0, 0) entry leaves the strip
        wild = models.BnsParams(d=2, mean_rev=bns_ref.mean_rev,
                                jump_intensity=3.0, wishart_shape=3.0,
                                wishart_scale=bns_ref.wishart_scale,
                                leverage_diag=np.array([20.0, -0.5]))
        with pytest.raises(ValueError, match="convergence strip"):
            models.bns_jump_cov(wild)


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


PRICE_KERNELS = [payoffs.quadrant_option(2, "cc", (0, 1), (100.0, 100.0)),
                 payoffs.exchange_option(2, 0, 1),
                 payoffs.call_option(2, 0, 100.0),
                 payoffs.put_option(2, 0, 100.0)]


class TestFourierPrice:
    @pytest.mark.parametrize("kind", ["wasc", "bns"])
    @pytest.mark.parametrize("kernel", PRICE_KERNELS, ids=lambda k: k.name)
    def test_matches_monte_carlo(self, swap_panels, state_ref, kind, kernel):
        params, sim, _ = swap_panels[kind]
        price = pricing.fourier_price(params, state_ref, 1.0, kernel)
        pay = kernel.payoff(sim.terminal_spot)
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
        # d = 1, zero drift and leverage: the order-1.5 moment the call's
        # damping needs explodes at tau* = pi / sqrt(3) ~ 1.81
        params = models.WascParams(d=1, mean_rev=np.zeros((1, 1)),
                                   vol_of_vol=np.eye(1),
                                   leverage=np.zeros(1), alpha=1.0)
        state = models.MarketState.from_spot(0.0, [100.0], [[0.04]])
        call = payoffs.call_option(1, 0, 100.0)
        assert 0.0 < pricing.fourier_price(params, state, 1.7, call) < 100.0
        with pytest.raises(ValueError, match="invalid transform nodes"):
            pricing.fourier_price(params, state, 1.9, call)
