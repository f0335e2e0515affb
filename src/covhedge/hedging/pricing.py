"""Fourier pricing of transform-catalog payoffs under the affine models."""

from __future__ import annotations

import numpy as np

from .. import matcalc, models, payoffs, transforms

__all__ = ["integrated_cov_rate", "fourier_price"]


def integrated_cov_rate(params, state: models.MarketState,
                        horizon: float) -> np.ndarray:
    """Mean integrated covariance over [t, T], divided by the span: the
    covariance-per-unit-time proxy used to adapt contour decay."""
    tau = horizon - state.t
    if not (np.isfinite(horizon) and tau > 0):
        raise ValueError("horizon must be finite and exceed the state time")
    if params.kind == "wasc":
        imap = models.wasc_integrated_mean(params, state.t, horizon)
        total = matcalc.mat(imap.map @ matcalc.vec(state.cov) + imap.offset)
    else:
        total = models.bns_integrated_mean(params, state.cov, tau)
    return total / tau


def fourier_price(params, state: models.MarketState, horizon: float,
                  kernel: payoffs.PayoffKernel,
                  nodes_per_dim: int = 24) -> float:
    """E[payoff(S_T)] by contour quadrature against the moment transform,
    on the kernel's default damping with ``payoffs.suggest_decay``.

    Nodes that fail a transform-domain check are skipped, and the price is
    refused when they carry more than payoffs.MAX_SKIP_MASS of the contour
    weight; a valid node whose real exponent passes models.OVERFLOW_RE
    refuses it outright, as it would dominate the sum at any weight.
    """
    models.require_dimension(params, state)
    tau = horizon - state.t
    decay = payoffs.suggest_decay(
        kernel, integrated_cov_rate(params, state, horizon), tau,
        nodes_per_dim)
    ct = payoffs.build_contour(kernel, nodes_per_dim=nodes_per_dim,
                               decay=decay)
    grid = transforms.transform_grid(params, np.array([tau]), ct.model_args)
    expo = (grid.phi[0]
            + ct.model_args @ state.log_spot
            + np.einsum("mab,ab->m", grid.psi[0], state.cov))
    valid = grid.valid[0]
    if np.any(valid & (expo.real > models.OVERFLOW_RE)):
        raise ValueError(f"the transform of {kernel.name} overflows at a "
                         "valid node (models.OVERFLOW_RE)")
    hv = np.where(valid, np.exp(np.where(valid, expo, 0.0)), np.nan)
    return payoffs.contour_price(ct, hv, valid=valid)
