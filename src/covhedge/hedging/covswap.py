"""Covariance swap valuation and hedging systems.

The swap pays the realized quadratic covariation of a log-price pair over
[0, T] minus the fair strike.  Under both affine models the conditional
expectation of the remaining covariation is linear in the current covariance
state, so the swap value decomposes as

    value_t = realized_t + Tr(G(t) Sigma_t) + c(t) - strike

with deterministic matrix/scalar coefficients built from drift flows of the
covariance process.  Everything deterministic is precomputed on the
rebalancing grid; pathwise values then come straight from the simulated
covariance panel and its integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import matcalc, models

__all__ = [
    "CovswapSystem",
    "wasc_covswap_system",
    "bns_covswap_system",
    "covswap_values",
    "covswap_payoff",
    "wasc_covswap_variance",
]

# composite Simpson intervals of the time integral in wasc_covswap_variance
_SIMPSON_INTERVALS = 128


def _pair_matrix(d: int, pair: tuple[int, int]) -> np.ndarray:
    i, j = pair
    if not (0 <= i < d and 0 <= j < d):
        raise ValueError(f"pair {pair} out of range for d={d}")
    e = np.zeros((d, d))
    e[i, j] += 0.5
    e[j, i] += 0.5
    return e


@dataclass(frozen=True)
class CovswapSystem:
    """Deterministic coefficients of one covariance swap on a time grid.

    theta_core is the precomputed state-free part of the hedge: for the
    continuous model the spot positions are theta_core[k] / S_t directly;
    for the jump model theta_core[k] is the jump covariation vector that
    still must be solved against the pathwise spot covariation matrix.
    """

    kind: str
    pair: tuple[int, int]
    times: np.ndarray          # (K+1,)
    g_mats: np.ndarray         # (K+1, d, d)
    c_vals: np.ndarray         # (K+1,)
    fair_strike: float
    theta_core: np.ndarray     # (K+1, d)


def _time_grid(horizon: float, n_steps: int) -> np.ndarray:
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be positive and finite")
    if n_steps < 1:
        raise ValueError("need at least one step")
    return np.linspace(0.0, horizon, n_steps + 1)


def _coefficients(mean_rev: np.ndarray, e_pair: np.ndarray,
                  drive: np.ndarray, taus: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """G = mat(int flow' vec E_pair) and c = vec(E_pair)' iint flow vec(drive)
    at each remaining time tau, for the covariance flow of X -> M X + X M'
    driven by the constant drift ``drive``: the cached flows of M, which one
    model's pair systems on one grid share (``models._mean_flows``)."""
    _, int1, int2 = models._mean_flows(mean_rev, taus, 3)
    g_mats = np.array([matcalc.mat(a.T @ matcalc.vec(e_pair)) for a in int1])
    c_vals = np.einsum("a,kab,b->k", matcalc.vec(e_pair), int2,
                       matcalc.vec(drive))
    return g_mats, c_vals


def wasc_covswap_system(params: models.WascParams, sigma0: np.ndarray,
                        horizon: float, pair: tuple[int, int],
                        n_steps: int) -> CovswapSystem:
    sigma0 = models.covariance_state(sigma0, params.d)
    times = _time_grid(horizon, n_steps)
    g_mats, c_vals = _coefficients(params.mean_rev,
                                   _pair_matrix(params.d, pair),
                                   params.omega, horizon - times)
    strike = float(np.trace(g_mats[0] @ sigma0) + c_vals[0])
    a_rho = params.vol_of_vol.T @ params.leverage
    theta_core = 2.0 * np.einsum("kab,b->ka", g_mats, a_rho)
    return CovswapSystem(kind="wasc", pair=tuple(pair), times=times,
                         g_mats=g_mats, c_vals=c_vals, fair_strike=strike,
                         theta_core=theta_core)


# ---------------------------------------------------------------------------
# Wishart mark moments (used by the jump model's swap coefficients); n is
# the shape, theta the scale matrix
# ---------------------------------------------------------------------------

def _wishart_pair_mean(theta: np.ndarray, n: float, i: int, j: int):
    """E[X_ii X_jj], for one scale matrix or a (..., d, d) stack of them."""
    return (n * n * theta[..., i, i] * theta[..., j, j]
            + 2.0 * n * theta[..., i, j] ** 2)


def bns_covswap_system(params: models.BnsParams, sigma0: np.ndarray,
                       horizon: float, pair: tuple[int, int],
                       n_steps: int) -> CovswapSystem:
    sigma0 = models.covariance_state(sigma0, params.d)
    i, j = pair
    times = _time_grid(horizon, n_steps)
    drive = params.jump_mean()                    # covariance drift from jumps
    g_mats, c_vals = _coefficients(params.mean_rev,
                                   _pair_matrix(params.d, pair), drive,
                                   horizon - times)

    lam = params.jump_intensity
    n = params.wishart_shape
    theta = params.wishart_scale
    rho = params.leverage_diag
    a_ij = rho[i] * rho[j]
    pair_base = a_ij * _wishart_pair_mean(theta, n, i, j)
    c_vals = c_vals + (horizon - times) * lam * pair_base
    strike = float(np.trace(g_mats[0] @ sigma0) + c_vals[0])

    # jump covariation of each spot k with the swap value, per grid time:
    # the mark law tilted by the price jump marks[k] has scale
    # (Theta^{-1} - 2 marks[k])^{-1}, inside the strip since the
    # compensator is finite
    mgf, _ = models.wishart_mgf(theta, n, params.marks)
    tilted = np.linalg.inv(np.linalg.inv(theta) - 2.0 * params.marks)
    base = pair_base + n * np.einsum("tab,ba->t", g_mats, theta)
    tilt = (a_ij * _wishart_pair_mean(tilted, n, i, j)
            + n * np.einsum("tab,kba->tk", g_mats, tilted))
    theta_core = lam * (mgf.real * tilt - base[:, None])
    return CovswapSystem(kind="bns", pair=tuple(pair), times=times,
                         g_mats=g_mats, c_vals=c_vals, fair_strike=strike,
                         theta_core=theta_core)


def covswap_values(system: CovswapSystem, integrated_cov: np.ndarray,
                   cov: np.ndarray) -> np.ndarray:
    """Pathwise swap values on the grid: (P, K+1) from the simulated
    covariance panel (P, K+1, d, d) and its running integral."""
    i, j = system.pair
    realized = 0.5 * (integrated_cov[..., i, j] + integrated_cov[..., j, i])
    remaining = np.einsum("kab,pkab->pk", system.g_mats, cov)
    return realized + remaining + system.c_vals - system.fair_strike


def covswap_payoff(system: CovswapSystem, integrated_cov: np.ndarray
                   ) -> np.ndarray:
    i, j = system.pair
    final = integrated_cov[:, -1]
    return (0.5 * (final[:, i, j] + final[:, j, i])
            - system.fair_strike)


def wasc_covswap_variance(params: models.WascParams, sigma0: np.ndarray,
                          horizon: float, pair: tuple[int, int]) -> float:
    """Residual variance of the dynamically hedged swap, in closed form up
    to a one-dimensional time integral (composite Simpson).

    The swap's covariance exposure orthogonal to the spot moves carries
    variance rate 4 Tr(G Sigma G V_perp); taking expectations moves the
    mean covariance flow inside the trace.
    """
    sigma0 = models.covariance_state(sigma0, params.d)
    ts = _time_grid(horizon, _SIMPSON_INTERVALS)
    g_mats, _ = _coefficients(params.mean_rev, _pair_matrix(params.d, pair),
                              params.omega, horizon - ts)
    mean_cov = models.wasc_mean_cov(params, sigma0, ts)
    vperp = (params.vol_of_vol.T
             @ (np.eye(params.d) - np.outer(params.leverage, params.leverage))
             @ params.vol_of_vol)
    vals = 4.0 * np.trace(g_mats @ mean_cov @ g_mats @ vperp, axis1=-2,
                          axis2=-1)
    h = horizon / _SIMPSON_INTERVALS
    weights = np.ones(_SIMPSON_INTERVALS + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * weights @ vals)
