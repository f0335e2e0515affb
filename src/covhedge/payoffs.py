"""Payoff transform catalog and damped Fourier contours.

Transform orientation used throughout the package:

    hhat(u) = int exp(-u'x) h(x) dx         (x = log prices, u complex)
    h(x)    = (2 pi)^-M int exp((R+iv)'x) hhat(R+iv) dv

so a price is E[h(X)] = (2 pi)^-M int hhat(u) E[exp(u'X)] dv over the damped
contour u = R + iv.  Every kernel records the admissible damping region and
exposes the pathwise payoff for Monte Carlo use.

Kernels are defined in their own argument space (dimension n_args) and carry
an affine map into model log-price space: a transform argument u maps to
loading @ u + offset.  Selection payoffs use plain selection columns; payoffs
on log-linear combinations (geometric baskets, exchange ratios) use general
loadings.

Catalog (strikes positive and finite), two transforms:
    one-sided legs     prod_m K_m^{1-u_m} / (u_m (u_m - 1)), a call leg on
                       Re u_m > 1 and a put leg on Re u_m < 0 (the damped
                       call transform of Carr & Madan 1999).  Calls and puts
                       are one leg on an asset, geometric options one leg
                       along the weight vector, quadrants two legs, and the
                       exchange option a call leg of strike 1 on the log
                       ratio, its short leg in the offset.
    spread             K^{1-u1-u2} G(u1+u2-1) G(-u2) / G(u1+1)

with G the gamma function (Hurd & Zhou 2010), evaluated as one exp of a sum
of logs of G from a Lanczos sum.  The strip Re u1+u2 > 1, Re u2 < 0 keeps
every argument of G in the right half plane, where the sum holds without
reflection.  These are the static legs of a strip: vanillas,
products and spreads.  Vanillas and products, the claims that Bakshi &
Madan 2000 span payoffs with, are all products of one-sided legs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PayoffKernel",
    "Contour",
    "call_option",
    "put_option",
    "quadrant_option",
    "spread_option",
    "exchange_option",
    "geometric_option",
    "build_contour",
    "suggest_decay",
    "contour_price",
]

_POLE_MARGIN = 1e-6
# largest share of a contour's absolute weight that may sit on skipped nodes
# (transform-domain failures or overflow) before a price or hedge is refused;
# check_skipped_mass applies it for contour_price and backtest.BasisCache
MAX_SKIP_MASS = 1e-3

# Godfrey's Lanczos coefficients for g = 607/128, 15 terms
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEF = np.array([
    0.999999999999997092, 57.1562356658629235, -59.5979603554754912,
    14.1360979747417471, -0.491913816097620199, 0.339946499848118887e-4,
    0.465236289270485756e-4, -0.983744753048795646e-4,
    0.158088703224912494e-3, -0.210264441724104883e-3,
    0.217439618115212643e-3, -0.164318106536763890e-3,
    0.844182239838527433e-4, -0.261908384015814087e-4,
    0.368991826595316234e-5])
_LANCZOS_POLES = np.arange(1.0, _LANCZOS_COEF.size)
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass(frozen=True)
class PayoffKernel:
    """One payoff: its transform, damping region, and pathwise evaluator."""

    name: str
    n_args: int
    loading: np.ndarray                       # (d, n_args)
    offset: np.ndarray                        # (d,)
    default_damping: np.ndarray               # (n_args,)
    transform: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    payoff: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    strip_margin: Callable[[np.ndarray], float] = field(repr=False)

    def model_args(self, args: np.ndarray) -> np.ndarray:
        """Map transform arguments (n, n_args) to model space (n, d)."""
        return np.atleast_2d(args) @ self.loading.T + self.offset


def _selection(d: int, assets: Sequence[int]) -> np.ndarray:
    out = np.zeros((d, len(assets)))
    for col, a in enumerate(assets):
        if not 0 <= a < d:
            raise ValueError(f"asset index {a} out of range for d={d}")
        out[a, col] = 1.0
    return out


def _require_strike(strike: float) -> float:
    if not (np.isfinite(strike) and strike > 0):
        raise ValueError("strike must be positive and finite")
    return float(strike)


def _legs(name: str, loading: np.ndarray, offset: np.ndarray,
          strikes: Sequence[float], calls: Sequence[bool],
          payoff: Callable[[np.ndarray], np.ndarray]) -> PayoffKernel:
    """Product over legs m of K_m^{1-u_m} / (u_m (u_m - 1)), the damped
    transform of a call leg (Re u_m > 1, damping 1.5) or a put leg
    (Re u_m < 0, damping -0.5) (Carr & Madan 1999); the strip margin is
    the smallest over the legs."""
    log_k = np.log(np.asarray(strikes, dtype=float))
    calls = np.asarray(calls, dtype=bool)

    def transform(u):
        legs = np.exp((1.0 - u) * log_k) / (u * (u - 1.0))
        # leg by leg: np.prod rounds complex products differently
        return functools.reduce(np.multiply, np.moveaxis(legs, -1, 0))

    return PayoffKernel(
        name=name, n_args=calls.size, loading=loading, offset=offset,
        default_damping=np.where(calls, 1.5, -0.5), transform=transform,
        payoff=payoff,
        strip_margin=lambda r: float(np.min(np.where(calls, r - 1.0, -r))))


def _log_gamma(z: np.ndarray) -> np.ndarray:
    """log G(z) for complex z with Re z > 0, continuous in z (the branch of
    scipy.special.loggamma), by the Lanczos sum; no reflection, so the left
    half plane is out of its domain."""
    z = np.asarray(z, dtype=complex)
    t = z + (_LANCZOS_G + 0.5)
    # sum c_j / (z + j) in real arithmetic, c_j conj(z + j) / |z + j|^2,
    # with the poles on a leading axis
    lead = (-1,) + (1,) * z.ndim
    re = z.real + _LANCZOS_POLES.reshape(lead)
    coef = _LANCZOS_COEF[1:].reshape(lead) / (re * re + z.imag * z.imag)
    ser = np.empty(z.shape, dtype=complex)
    ser.real = _LANCZOS_COEF[0] + np.sum(coef * re, axis=0)
    ser.imag = -np.sum(coef * z.imag, axis=0)
    # two logs: the log of ser / z would cross the cut near Re z = 0
    return ((z + 0.5) * np.log(t) - t + _LOG_SQRT_2PI + np.log(ser)
            - np.log(z))


# ---------------------------------------------------------------------------
# kernels: one-sided legs (vanillas, geometric options, quadrants and the
# exchange), then the spread
# ---------------------------------------------------------------------------

def call_option(d: int, asset: int, strike: float) -> PayoffKernel:
    k = _require_strike(strike)

    def payoff(spot):
        return np.maximum(spot[:, asset] - k, 0.0)

    return _legs(f"call_{asset}_{k:g}", _selection(d, [asset]), np.zeros(d),
                 [k], [True], payoff)


def put_option(d: int, asset: int, strike: float) -> PayoffKernel:
    k = _require_strike(strike)

    def payoff(spot):
        return np.maximum(k - spot[:, asset], 0.0)

    return _legs(f"put_{asset}_{k:g}", _selection(d, [asset]), np.zeros(d),
                 [k], [False], payoff)


def geometric_option(d: int, weights: Sequence[float], strike: float,
                     kind: str = "call") -> PayoffKernel:
    """Call or put on the geometric composite prod_m S_m^{w_m}."""
    k = _require_strike(strike)
    w = np.asarray(weights, dtype=float)
    if w.shape != (d,):
        raise ValueError("weights must have one entry per asset")
    if kind not in ("call", "put"):
        raise ValueError("kind must be 'call' or 'put'")
    sign = 1.0 if kind == "call" else -1.0

    def payoff(spot):
        comp = np.exp(np.log(spot) @ w)
        return np.maximum(sign * (comp - k), 0.0)

    tag = "x".join(f"{x:g}" for x in w)
    return _legs(f"geo{kind}_{tag}_{k:g}", w.reshape(d, 1), np.zeros(d),
                 [k], [kind == "call"], payoff)


def quadrant_option(d: int, kind: str, assets: Sequence[int],
                    strikes: Sequence[float]) -> PayoffKernel:
    """Product payoff leg1 * leg2, kind in {'cc','cp','pc','pp'} where 'c'
    is (S-K)^+ and 'p' is (K-S)^+ for the corresponding asset."""
    if kind not in ("cc", "cp", "pc", "pp"):
        raise ValueError("kind must be one of cc, cp, pc, pp")
    i, j = assets
    k1, k2 = (_require_strike(s) for s in strikes)

    def payoff(spot):
        a = spot[:, i] - k1 if kind[0] == "c" else k1 - spot[:, i]
        b = spot[:, j] - k2 if kind[1] == "c" else k2 - spot[:, j]
        return np.maximum(a, 0.0) * np.maximum(b, 0.0)

    return _legs(f"{kind}_{k1:g}_{k2:g}", _selection(d, [i, j]), np.zeros(d),
                 [k1, k2], [kind[0] == "c", kind[1] == "c"], payoff)


def exchange_option(d: int, long_asset: int, short_asset: int) -> PayoffKernel:
    """(S_long - S_short)^+: a call leg of strike 1 on the log ratio, with
    the short leg folded into the affine offset."""
    if long_asset == short_asset:
        raise ValueError("long and short asset must differ")

    def payoff(spot):
        return np.maximum(spot[:, long_asset] - spot[:, short_asset], 0.0)

    loading = _selection(d, [long_asset]) - _selection(d, [short_asset])
    return _legs(f"exchange_{long_asset}m{short_asset}", loading,
                 _selection(d, [short_asset])[:, 0], [1.0], [True], payoff)

def spread_option(d: int, long_asset: int, short_asset: int,
                  strike: float) -> PayoffKernel:
    """(S_long - S_short - K)^+ with K > 0.

    build_contour refuses dampings outside the strip r1 + r2 > 1, r2 < 0
    before it calls the transform, and inside it every argument of G has a
    positive real part: Re(s-1) = r1+r2-1, Re(-u2) = -r2 and Re(u1+1) > 2,
    so _log_gamma needs no reflection.
    """
    k = _require_strike(strike)
    if long_asset == short_asset:
        raise ValueError("long and short asset must differ")
    log_k = np.log(k)

    def transform(u):
        u1, u2 = u[..., 0], u[..., 1]
        s = u1 + u2
        lg = _log_gamma(np.stack([s - 1.0, -u2, u1 + 1.0]))
        return np.exp((1.0 - s) * log_k + lg[0] + lg[1] - lg[2])

    def payoff(spot):
        return np.maximum(spot[:, long_asset] - spot[:, short_asset] - k, 0.0)

    def margin(r):
        return float(min(-r[1], r[0] + r[1] - 1.0))

    return PayoffKernel(
        name=f"spread_{long_asset}m{short_asset}_{k:g}", n_args=2,
        loading=_selection(d, [long_asset, short_asset]), offset=np.zeros(d),
        default_damping=np.array([2.5, -1.0]), transform=transform,
        payoff=payoff, strip_margin=margin)


# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Contour:
    """Damped Fourier quadrature rule for one payoff.

    Conjugate symmetry halves the node count: only nodes whose leading
    imaginary coordinate is positive are kept and the real part of the
    weighted sum is doubled (the factor 2 is folded into the weights).
    """

    model_args: np.ndarray    # (n_nodes, d) complex
    weights: np.ndarray       # (n_nodes,) complex, include hhat and 2/(2pi)^M


@functools.lru_cache(maxsize=None)
def _laguerre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Laguerre nodes and weights for int_0^inf f(v) dv (the
    weights carry the e^x), built once per node count and read-only."""
    x, w = np.polynomial.laguerre.laggauss(n)
    w = np.exp(np.log(w) + x)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def build_contour(kernel: PayoffKernel, nodes_per_dim: int = 16,
                  decay=1.0) -> Contour:
    """Tensorized Gauss-Laguerre rule along the contour at the kernel's
    default damping.

    decay rescales the node spread, scalar or one entry per transform
    dimension; larger values concentrate nodes near the real axis, which
    pays off when the moment transform decays fast along the contour.
    """
    m = kernel.n_args
    damping = np.asarray(kernel.default_damping, dtype=float)
    if damping.shape != (m,):
        raise ValueError(f"damping must have {m} entries")
    if not 4 <= nodes_per_dim <= 64:
        raise ValueError("nodes_per_dim must be between 4 and 64")
    decay = np.broadcast_to(np.asarray(decay, dtype=float), (m,))
    if not np.all(np.isfinite(decay) & (decay > 0)):
        raise ValueError("decay must be positive and finite")
    margin = kernel.strip_margin(damping)
    if margin <= _POLE_MARGIN:
        raise ValueError(
            f"damping {damping} leaves margin {margin:.2e} to the admissible "
            f"region boundary of {kernel.name}; need more than {_POLE_MARGIN}")

    x, w = _laguerre(nodes_per_dim)
    vg = np.meshgrid(*[np.concatenate([x, -x]) / g for g in decay],
                     indexing="ij")
    wg = np.meshgrid(*[np.concatenate([w, w]) / g for g in decay],
                     indexing="ij")
    v = np.stack([g.ravel() for g in vg], axis=-1)          # ((2n)^M, M)
    wprod = np.prod(np.stack([g.ravel() for g in wg]), axis=0)
    keep = v[:, 0] > 0.0
    args = damping + 1j * v[keep]
    hhat = kernel.transform(args)
    if not np.all(np.isfinite(hhat)):
        raise ValueError(f"transform of {kernel.name} is not finite on the "
                         "contour; move the damping away from the boundary")
    weights = wprod[keep] * hhat * (2.0 / (2.0 * np.pi) ** m)
    return Contour(model_args=kernel.model_args(args), weights=weights)


def suggest_decay(kernel: PayoffKernel, cov_rate: np.ndarray, horizon: float,
                  nodes_per_dim: int) -> np.ndarray:
    """Per-dimension decay matched to the moment transform's falloff.

    The transform magnitude along the contour drops roughly like a Gaussian
    whose per-dimension scale is the total log volatility seen through the
    kernel loading, so the outermost Laguerre node is placed five of those
    scales out.  cov_rate is a covariance-per-unit-time proxy (for
    stochastic covariance models, the mean integrated covariance divided by
    the horizon works well).
    """
    cov_rate = np.asarray(cov_rate, dtype=float)
    x_max = _laguerre(nodes_per_dim)[0][-1]
    seff = np.sqrt(np.einsum("am,ab,bm->m", kernel.loading, cov_rate,
                             kernel.loading) * horizon)
    return np.maximum(1.0, x_max * seff / 5.0)


def check_skipped_mass(weights: np.ndarray, valid: np.ndarray) -> None:
    """Refuse a contour whose skipped nodes carry too much weight.

    weights holds the M node weights and valid a (..., M) mask of the nodes
    kept; each row of the mask is checked, and a ValueError reports the
    worst row's share of the absolute weight mass when it passes
    MAX_SKIP_MASS.
    """
    mass = np.abs(weights)
    total = float(mass.sum())
    skipped = float(np.max(np.where(valid, 0.0, mass).sum(axis=-1)))
    if total > 0 and skipped > MAX_SKIP_MASS * total:
        raise ValueError(
            f"{skipped / total:.2%} of contour weight mass is on invalid "
            "transform nodes")


def contour_price(contour: Contour, transform_values: np.ndarray,
                  valid: np.ndarray | None = None) -> float:
    """Collapse transform values at the contour nodes into a price.

    Invalid nodes (transform-domain failures) are treated as missing data:
    they are skipped, and check_skipped_mass refuses the evaluation when
    they carry too much of the weight.
    """
    w = contour.weights
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        check_skipped_mass(w, valid)
        w = w[valid]
        transform_values = transform_values[valid]
    return float(np.real(np.sum(w * transform_values)))
