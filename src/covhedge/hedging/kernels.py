"""Instantaneous covariation rates between spots and exponential claims.

Scalar reference layer: everything here works on one market state and one or
two transform evaluations at a time.  The streaming engines in backtest.py
reimplement the hot paths with batched array code and are tested against
these functions.

Conventions: a "basis claim" is H_t(u) = exp(phi + u'Y_t + Tr(psi Sigma_t)),
a conditional expectation of exp(u'Y_T).  Rates are coefficients of dt in
predictable covariations:

    spot_spot_rate   d<S, S'>        (d, d)    real
    claim_spot_rate  d<S, H(u)>      (d,)      complex
    claim_claim_rate d<H(u1), H(u2)> scalar    complex
    residual_rate    d<L(u1), L(u2)> scalar    complex

where L(u) is the part of H(u) orthogonal to the span of the spot moves,
i.e. the error left by the locally variance-optimal spot hedge.
"""

from __future__ import annotations

import numpy as np

from .. import matcalc, models
from ..transforms import TransformEval

__all__ = [
    "basis_from_eval",
    "spot_spot_rate",
    "claim_spot_rate",
    "claim_claim_rate",
    "residual_rate",
    "gkw_theta",
    "constrained_asset_theta",
    "bns_jump_cov",
    "bns_jump_cross",
    "wasc_orthogonal_vol",
]


def basis_from_eval(ev: TransformEval, state: models.MarketState) -> complex:
    """H_t(u) from a precomputed (phi, psi) pair at the market state."""
    if not ev.valid:
        return complex(np.nan, np.nan)
    expo = ev.phi + ev.u @ state.log_spot + np.trace(ev.psi @ state.cov)
    if expo.real > models.OVERFLOW_RE:
        return complex(np.nan, np.nan)
    return complex(np.exp(expo))


def wasc_orthogonal_vol(params: models.WascParams) -> np.ndarray:
    """A'(I - rho rho')A: the covariance factor loading unspanned by the
    return Brownian motion."""
    a = params.vol_of_vol
    rho = params.leverage
    return a.T @ (np.eye(params.d) - np.outer(rho, rho)) @ a


def bns_jump_cov(params: models.BnsParams) -> np.ndarray:
    """Jump covariation rate of the log spots: entry (k, l) collects
    lam * E[(exp(rho_k X_kk) - 1)(exp(rho_l X_ll) - 1)] over the mark law."""
    d = params.d
    lam = params.jump_intensity
    out = np.empty((d, d))
    for k in range(d):
        rk = _spot_mark_matrix(params, k)
        for l in range(k, d):
            rl = _spot_mark_matrix(params, l)
            m_kl = _mgf(params, rk + rl)
            m_k = _mgf(params, rk)
            m_l = _mgf(params, rl)
            out[k, l] = out[l, k] = lam * (m_kl - m_k - m_l + 1.0).real
    return out


def bns_jump_cross(params: models.BnsParams, ev: TransformEval) -> np.ndarray:
    """Jump covariation rate between each spot and the claim kernel exp(u'Y
    + Tr(psi Sigma)), divided by the claim value H (a (d,) complex vector):
    lam * E[(e^{rho_k X_kk} - 1)(e^{Tr(R(u) X)} - 1)] with R(u) = psi +
    Diag(rho * u)."""
    d = params.d
    lam = params.jump_intensity
    r_u = ev.psi + np.diag(params.leverage_diag * ev.u)
    m_u = _mgf(params, r_u)
    out = np.empty(d, dtype=complex)
    for k in range(d):
        rk = _spot_mark_matrix(params, k)
        out[k] = lam * (_mgf(params, r_u + rk) - m_u
                        - _mgf(params, rk) + 1.0)
    return out


def _spot_mark_matrix(params: models.BnsParams, k: int) -> np.ndarray:
    r = np.zeros((params.d, params.d))
    r[k, k] = params.leverage_diag[k]
    return r


def _mgf(params: models.BnsParams, r: np.ndarray) -> complex:
    val, ok = models.wishart_mgf(params.wishart_scale, params.wishart_shape, r)
    if not ok:
        raise ValueError("mark transform argument outside the convergence "
                         "strip; the claim kernel is too aggressive for the "
                         "jump size law")
    return val


def spot_spot_rate(params, state: models.MarketState) -> np.ndarray:
    """d<S,S>/dt = diag(S) (Sigma + jump part) diag(S)."""
    inner = state.cov
    if params.kind == "bns":
        inner = inner + bns_jump_cov(params)
    return np.outer(state.spot, state.spot) * inner


def claim_spot_rate(params, state: models.MarketState,
                    ev: TransformEval) -> np.ndarray:
    """d<S, H(u)>/dt as a (d,) complex vector."""
    h = basis_from_eval(ev, state)
    if params.kind == "wasc":
        g = ev.u + 2.0 * ev.psi @ (params.vol_of_vol.T @ params.leverage)
        return h * state.spot * (state.cov @ g)
    cross = state.cov @ ev.u + bns_jump_cross(params, ev)
    return h * state.spot * cross


def claim_claim_rate(params, state: models.MarketState, ev1: TransformEval,
                     ev2: TransformEval) -> complex:
    """d<H(u1), H(u2)>/dt."""
    h1 = basis_from_eval(ev1, state)
    h2 = basis_from_eval(ev2, state)
    sig = state.cov
    diff = ev1.u @ sig @ ev2.u
    if params.kind == "wasc":
        a_rho = params.vol_of_vol.T @ params.leverage
        aa = params.vol_of_vol.T @ params.vol_of_vol
        diff = (diff
                + 2.0 * ev1.u @ sig @ ev2.psi @ a_rho
                + 2.0 * ev2.u @ sig @ ev1.psi @ a_rho
                + 4.0 * np.trace(ev1.psi @ sig @ ev2.psi @ aa))
        return h1 * h2 * diff
    lam = params.jump_intensity
    r1 = ev1.psi + np.diag(params.leverage_diag * ev1.u)
    r2 = ev2.psi + np.diag(params.leverage_diag * ev2.u)
    jump = lam * (_mgf(params, r1 + r2) - _mgf(params, r1)
                  - _mgf(params, r2) + 1.0)
    return h1 * h2 * (diff + jump)


def residual_rate(params, state: models.MarketState, ev1: TransformEval,
                  ev2: TransformEval) -> complex:
    """d<L(u1), L(u2)>/dt: covariation left after projecting both claims on
    the spot moves.

    For the continuous model this has its own closed form (the unspanned
    covariance factor); for the jump model it is the Schur complement of the
    spot block.  The two agree with the generic subtraction, which is what
    the tests pin down.
    """
    if params.kind == "wasc":
        h1 = basis_from_eval(ev1, state)
        h2 = basis_from_eval(ev2, state)
        vperp = wasc_orthogonal_vol(params)
        return 4.0 * h1 * h2 * np.trace(
            ev1.psi @ state.cov @ ev2.psi @ vperp)
    css = spot_spot_rate(params, state)
    c1 = claim_spot_rate(params, state, ev1)
    c2 = claim_spot_rate(params, state, ev2)
    return (claim_claim_rate(params, state, ev1, ev2)
            - c1 @ np.linalg.solve(css, c2))


def gkw_theta(params, state: models.MarketState, ev: TransformEval
              ) -> np.ndarray:
    """Locally variance-optimal spot positions for one basis claim:
    theta = <S,S>^+ <S,H(u)> (complex; combine over contour nodes and take
    the real part for an actual position)."""
    css = spot_spot_rate(params, state)
    csh = claim_spot_rate(params, state, ev)
    return matcalc.pinv_psd(css, rcond=1e-12) @ csh


def constrained_asset_theta(params, state: models.MarketState,
                            ev: TransformEval, asset: int) -> complex:
    """Best hedge when trading is restricted to a single spot: the ratio of
    the claim-spot covariation to that spot's own quadratic variation."""
    css = spot_spot_rate(params, state)
    csh = claim_spot_rate(params, state, ev)
    denom = css[asset, asset]
    if denom <= 0:
        return 0.0j
    return csh[asset] / denom
