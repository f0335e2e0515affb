"""Constant-covariance lognormal benchmark model.

Used as the misspecified hedging proxy: quadrant prices and deltas under a
two-asset Black-Scholes model with a fixed instantaneous covariance.

The bivariate normal orthant probability follows Genz's hybrid quadrature
(plain Gauss-Legendre on the arcsine representation for moderate correlation,
a singularity-split form near |rho| = 1), which is accurate to near machine
precision and vectorizes over the limits.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = [
    "bvn_upper",
    "lognormal_quadrant_price",
    "quadrant_spot_delta",
]

_GL20_X, _GL20_W = np.polynomial.legendre.leggauss(20)


def bvn_upper(h, k, rho: float):
    """P(X > h, Y > k) for a standard bivariate normal pair with correlation
    rho.  h and k may be arrays (broadcast together); rho is scalar."""
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    h, k = np.broadcast_arrays(h, k)
    rho = float(rho)
    if not -1.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")

    if abs(rho) <= 0.925:
        # Gauss-Legendre on the arcsine angular representation
        hk = h * k
        hs = 0.5 * (h * h + k * k)
        asr = np.arcsin(rho)
        sn = np.sin(0.5 * asr * (_GL20_X + 1.0))          # (20,)
        terms = np.exp((np.multiply.outer(hk, sn) - hs[..., None])
                       / (1.0 - sn * sn))
        # an elementwise product and a per-row sum, not a matrix-vector
        # product: BLAS gemv rounds by the row count, the row sum does not
        bvn = (terms * _GL20_W).sum(axis=-1) * asr / (4.0 * np.pi)
        out = bvn + ndtr(-h) * ndtr(-k)
        return out if out.ndim else float(out)

    # near-singular correlation: integrate the difference against the
    # perfectly correlated case, then add the degenerate endpoint
    sgn = 1.0 if rho > 0 else -1.0
    kk = sgn * k
    hk = h * kk
    bvn = np.zeros_like(h)
    if abs(rho) < 1.0:
        ash = (1.0 - rho) * (1.0 + rho)
        a = np.sqrt(ash)
        bs = (h - kk) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr = -0.5 * (bs / ash + hk)
        mask = asr > -100.0
        bvn = np.where(
            mask,
            a * np.exp(asr) * (1.0 - c * (bs - ash) * (1.0 - d * bs / 5.0)
                               / 3.0 + c * d * ash * ash / 5.0),
            0.0)
        small = -hk < 100.0
        b = np.sqrt(bs)
        sp = np.sqrt(2.0 * np.pi) * ndtr(-b / a)
        bvn = bvn - np.where(
            small,
            np.exp(np.where(small, -0.5 * hk, 0.0)) * sp * b
            * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
            0.0)
        half = 0.5 * a
        for xi, wi in zip(_GL20_X, _GL20_W):
            xs = (half * (xi + 1.0)) ** 2
            rs = np.sqrt(1.0 - xs)
            asr = -0.5 * (bs / xs + hk)
            mask = asr > -100.0
            sp = 1.0 + c * xs * (1.0 + d * xs)
            ep = np.exp(-0.5 * hk * (1.0 - rs) / (1.0 + rs)) / rs
            bvn = bvn + np.where(mask, half * wi * np.exp(asr) * (ep - sp),
                                 0.0)
        bvn = -bvn / (2.0 * np.pi)
    if rho > 0:
        out = bvn + ndtr(-np.maximum(h, kk))
    else:
        out = -bvn + np.maximum(0.0, ndtr(-h) - ndtr(-kk))
    return out if out.ndim else float(out)


def _tilted_terms(kind: str, forwards, strikes, vols, rho: float,
                  tau: float, powers) -> tuple[float, list]:
    """e1 e2 and T(c1, c2) = E[S1^c1 S2^c2 1{quadrant}] for each (c1, c2) in
    powers, where the quadrant is {e1 (S1 - K1) > 0, e2 (S2 - K2) > 0} and
    e = +1 for a call leg, -1 for a put leg."""
    if kind not in ("cc", "cp", "pc", "pp"):
        raise ValueError("kind must be one of cc, cp, pc, pp")
    if tau <= 0:
        raise ValueError("tau must be positive")
    f1, f2 = np.asarray(forwards[0], float), np.asarray(forwards[1], float)
    k1, k2 = float(strikes[0]), float(strikes[1])
    s1 = float(vols[0]) * np.sqrt(tau)
    s2 = float(vols[1]) * np.sqrt(tau)
    if not all(np.isfinite(x) and x > 0 for x in (k1, k2, s1, s2)):
        raise ValueError("strikes and vols must be positive and finite")
    e1 = 1.0 if kind[0] == "c" else -1.0
    e2 = 1.0 if kind[1] == "c" else -1.0
    mu1 = np.log(f1) - 0.5 * s1 * s1
    mu2 = np.log(f2) - 0.5 * s2 * s2
    c12 = rho * s1 * s2

    def term(c1, c2):
        # E[exp(c.X) 1{quadrant}] = M(c) * P(tilted quadrant)
        m1 = mu1 + c1 * s1 * s1 + c2 * c12
        m2 = mu2 + c2 * s2 * s2 + c1 * c12
        mgf = np.exp(c1 * mu1 + c2 * mu2
                     + 0.5 * (c1 * c1 * s1 * s1 + c2 * c2 * s2 * s2)
                     + c1 * c2 * c12)
        hh = e1 * (np.log(k1) - m1) / s1
        kk = e2 * (np.log(k2) - m2) / s2
        return mgf * bvn_upper(hh, kk, e1 * e2 * rho)

    return e1 * e2, [term(c1, c2) for c1, c2 in powers]


def lognormal_quadrant_price(kind: str, forwards, strikes, vols, rho: float,
                             tau: float):
    """E[leg1 * leg2] for a product of one-sided legs under joint lognormal
    martingales.  kind in {'cc','cp','pc','pp'}: 'c' legs pay (S-K)^+, 'p'
    legs (K-S)^+.  forwards may be arrays (vectorized over scenarios)."""
    sign, (t11, t10, t01, t00) = _tilted_terms(
        kind, forwards, strikes, vols, rho, tau,
        ((1, 1), (1, 0), (0, 1), (0, 0)))
    k1, k2 = float(strikes[0]), float(strikes[1])
    out = sign * (t11 - k2 * t10 - k1 * t01 + k1 * k2 * t00)
    return out if np.ndim(out) else float(out)


def quadrant_spot_delta(kind: str, spots, strikes, vols, rho: float,
                        tau: float) -> np.ndarray:
    """Spot deltas of the quadrant price, in closed form.

    Each leg's derivative is e 1{leg in the money}, so with the spots as
    forwards delta_1 = e1 e2 (T11 - K2 T10) / S1 and
    delta_2 = e1 e2 (T11 - K1 T01) / S2 in the terms of the price.
    spots has shape (2,) or (n, 2); the result matches with a trailing
    axis of length 2.
    """
    spots = np.asarray(spots, dtype=float)
    s = np.atleast_2d(spots)
    sign, (t11, t10, t01) = _tilted_terms(
        kind, (s[:, 0], s[:, 1]), strikes, vols, rho, tau,
        ((1, 1), (1, 0), (0, 1)))
    k1, k2 = float(strikes[0]), float(strikes[1])
    out = sign * np.stack([(t11 - k2 * t10) / s[:, 0],
                           (t11 - k1 * t01) / s[:, 1]], axis=-1)
    return out[0] if spots.ndim == 1 else out
