"""Hedging layer: the batched hedge engines against the scalar covariation
kernels, and covariance-swap strikes against closed forms."""

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
