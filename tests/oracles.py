"""Independent reference implementations used as test oracles.

Everything in this file is deliberately written *without* importing the
package's own numerics for the quantity under test, so closed forms are never
checked against themselves:

* ``series_expm``        -- truncated power series with scaling and squaring
* ``integrate_riccati``  -- adaptive Runge-Kutta integration of the matrix
                            Riccati system for the exponential-affine transform
* ``bns_phi_quadrature`` -- jump-model transform: psi from a Kronecker-lifted
                            Lyapunov identity, phi by adaptive quadrature
                            (``scipy.integrate.quad_vec``) of the Levy exponent
* ``wishart_strip_margin`` / ``wishart_mgf_eig`` -- Wishart MGF from the
                            eigenvalues of I - 2 R scale, flagged by the
                            smallest eigenvalue of scale^{-1} - 2 Re R
* ``heston_cf``          -- textbook one-dimensional Heston characteristic
                            function (the d=1 reduction of the matrix model)
* ``bns_mean_cov``       -- jump-model covariance mean from the drift flow
                            of ``matcalc.lift_flows``
* ``black_scholes_call`` / ``margrabe_exchange`` -- closed forms for frozen
                            lognormal checks
* ``gbm_transform``      -- moment transform of a constant-covariance
                            lognormal law, the frozen law of the payoff
                            tests
* ``spread_transform``   -- Hurd & Zhou's spread transform as one exp of
                            ``scipy.special.loggamma`` values
* ``bvn_quadrature``     -- bivariate normal CDF by direct 2-D quadrature
* ``quadrant_price_quadrature`` -- bivariate lognormal quadrant option price
                            by high-order Gauss-Hermite quadrature
* covariation rates      -- ``spot_spot_rate``, ``claim_spot_rate``,
                            ``claim_claim_rate`` and ``residual_rate``: the
                            scalar formulas for one market state and one or
                            two transform evaluations, with ``gkw_theta``
                            and the scalar-loop ``bns_jump_cov``; the
                            batched hedge engines are checked against them

The covariation rates take (phi, psi) from the package's transform engine as
input and use ``models.wishart_mgf`` and ``scipy.linalg.pinvh``: what they
check is the covariation algebra, not the transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.integrate import quad_vec, solve_ivp
from scipy.special import loggamma
from scipy.stats import norm

from covhedge import matcalc, models


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

def series_expm(m: np.ndarray, terms: int = 40) -> np.ndarray:
    """e^M by scaling-and-squaring of a truncated power series."""
    a = np.asarray(m)
    # scale so that the norm is < 0.5, sum the series, square back
    nrm = np.linalg.norm(a, np.inf)
    s = max(0, int(np.ceil(np.log2(max(nrm, 1e-300) / 0.5))))
    b = a / (2.0 ** s)
    out = np.eye(a.shape[0], dtype=a.dtype)
    term = np.eye(a.shape[0], dtype=a.dtype)
    for k in range(1, terms + 1):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


# ---------------------------------------------------------------------------
# Riccati ODE for the conditional exponential-affine transform
# ---------------------------------------------------------------------------

def wasc_riccati_rhs(psi: np.ndarray, u: np.ndarray, aa: np.ndarray,
                     mr: np.ndarray, a_rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the matrix Riccati equation solved by the state
    coefficient of log E[exp(u'Y_T)].

    d psi/d tau = 2 psi (A'A) psi + psi F + F' psi + (u u' - diag u)/2,
    with F = M + (A'rho) u'.  Derived from the generator of the model:
    the quadratic term carries the factor 2.
    """
    f = mr + np.outer(a_rho, u)
    dmat = 0.5 * (np.outer(u, u) - np.diag(u))
    return 2.0 * psi @ aa @ psi + psi @ f + f.T @ psi + dmat


def integrate_riccati(tau: float, u: np.ndarray, vol_of_vol: np.ndarray,
                      mean_rev: np.ndarray, leverage: np.ndarray,
                      v0: np.ndarray | None = None,
                      rtol: float = 1e-11, atol: float = 1e-12) -> np.ndarray:
    """Integrate the matrix Riccati system with an adaptive RK (DOP853).

    Complex symmetric matrices are flattened to interleaved real/imag vectors
    because solve_ivp integrates real systems only.
    """
    u = np.asarray(u, dtype=complex)
    d = u.size
    aa = np.asarray(vol_of_vol).T @ np.asarray(vol_of_vol)
    a_rho = np.asarray(vol_of_vol).T @ np.asarray(leverage, dtype=float)
    if v0 is None:
        v0 = np.zeros((d, d), dtype=complex)
    v0 = np.asarray(v0, dtype=complex)

    def rhs(_t, y):
        psi = (y[: d * d] + 1j * y[d * d:]).reshape(d, d)
        dpsi = wasc_riccati_rhs(psi, u, aa, mean_rev, a_rho)
        return np.concatenate([dpsi.real.ravel(), dpsi.imag.ravel()])

    y0 = np.concatenate([v0.real.ravel(), v0.imag.ravel()])
    if tau == 0.0:
        return v0
    sol = solve_ivp(rhs, (0.0, tau), y0, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"Riccati ODE integration failed: {sol.message}")
    y = sol.y[:, -1]
    return (y[: d * d] + 1j * y[d * d:]).reshape(d, d)


def integrate_phi(tau: float, u: np.ndarray, omega: np.ndarray,
                  vol_of_vol: np.ndarray, mean_rev: np.ndarray,
                  leverage: np.ndarray, v0: np.ndarray | None = None
                  ) -> complex:
    """phi(tau) = int_0^tau Tr(Omega psi(s)) ds, integrated along with the
    Riccati system from psi(0) = v0 (default 0)."""
    u = np.asarray(u, dtype=complex)
    d = u.size
    aa = np.asarray(vol_of_vol).T @ np.asarray(vol_of_vol)
    a_rho = np.asarray(vol_of_vol).T @ np.asarray(leverage, dtype=float)
    v0 = np.zeros((d, d), dtype=complex) if v0 is None else np.asarray(
        v0, dtype=complex)

    def rhs(_t, y):
        psi = (y[: d * d] + 1j * y[d * d: 2 * d * d]).reshape(d, d)
        dpsi = wasc_riccati_rhs(psi, u, aa, mean_rev, a_rho)
        tr = np.trace(np.asarray(omega) @ psi)
        return np.concatenate([dpsi.real.ravel(), dpsi.imag.ravel(),
                               [tr.real, tr.imag]])

    y0 = np.concatenate([v0.real.ravel(), v0.imag.ravel(), [0.0, 0.0]])
    sol = solve_ivp(rhs, (0.0, tau), y0, method="DOP853", rtol=1e-11, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"phi ODE integration failed: {sol.message}")
    return complex(sol.y[-2, -1], sol.y[-1, -1])


# ---------------------------------------------------------------------------
# Wishart moment generating function
# ---------------------------------------------------------------------------

def wishart_strip_margin(scale: np.ndarray, r: np.ndarray):
    """Smallest eigenvalue of scale^{-1} - 2 Re(R); positive inside the
    convergence strip of the Wishart MGF.  Batched over a stack of R."""
    r_re = np.asarray(r).real
    m = (np.linalg.inv(np.asarray(scale, dtype=float))
         - (r_re + r_re.swapaxes(-1, -2)))
    margin = np.linalg.eigvalsh(m)[..., 0]
    return float(margin) if r_re.ndim == 2 else margin


def wishart_mgf_eig(scale: np.ndarray, shape: float, r: np.ndarray):
    """det(I - 2 R scale)^(-shape/2) as exp(-shape/2 sum_k Log lam_k) over
    the eigenvalues lam_k of I - 2 R scale, flagged by the eigenvalue strip
    margin; nan outside the strip.  Batched like ``models.wishart_mgf``."""
    r = np.asarray(r)
    scale = np.asarray(scale, dtype=float)
    ok = np.asarray(wishart_strip_margin(scale, r)) > 0.0
    eigs = np.linalg.eigvals(np.eye(scale.shape[0]) - 2.0 * r @ scale)
    logdet = np.sum(np.log(np.where(ok[..., None], eigs, 1.0)), axis=-1
                    ).astype(complex)
    val = np.where(ok, np.exp(-0.5 * shape * logdet), complex(np.nan, np.nan))
    return val, ok


# ---------------------------------------------------------------------------
# jump-driven covariance transform
# ---------------------------------------------------------------------------

def bns_phi_quadrature(tau: float, u: np.ndarray, mean_rev: np.ndarray,
                       jump_intensity: float, wishart_shape: float,
                       wishart_scale: np.ndarray, leverage_diag: np.ndarray,
                       v0: np.ndarray | None = None
                       ) -> tuple[complex, np.ndarray]:
    """(phi(tau), psi(tau)) of the jump model started from psi(0) = v0
    (default 0).

    psi(s) = e^{M's} v0 e^{Ms} + int_0^s e^{M'r} D e^{Mr} dr; the integral
    solves M'X + X M = e^{M's} D e^{Ms} - D, here as a Kronecker system
    with ``series_expm``.  phi is
    int_0^tau lam (E[exp(Tr(R_s X))] - 1) ds - tau u'kappa with R_s = psi(s)
    + Diag(rho u), the Wishart MGF det(I - 2 R Theta)^(-n/2) taken on the
    branch that sums the principal logs of the eigenvalues, and kappa_k =
    lam ((1 - 2 rho_k Theta_kk)^(-n/2) - 1).
    """
    u = np.asarray(u, dtype=complex)
    d = u.size
    m = np.asarray(mean_rev, dtype=float)
    scale = np.asarray(wishart_scale, dtype=float)
    rho = np.asarray(leverage_diag, dtype=float)
    eye = np.eye(d)
    lift = np.kron(eye, m.T) + np.kron(m.T, eye)     # column-stacking vec
    dmat = 0.5 * (np.outer(u, u) - np.diag(u))

    v0 = np.zeros((d, d)) if v0 is None else np.asarray(v0, dtype=complex)

    def psi(s: float) -> np.ndarray:
        e = series_expm(m * s)
        rhs = (e.T @ dmat @ e - dmat).reshape(-1, order="F")
        return (e.T @ v0 @ e
                + np.linalg.solve(lift, rhs).reshape(d, d, order="F"))

    def levy(s: float) -> np.ndarray:
        r = psi(s) + np.diag(rho * u)
        logdet = np.sum(np.log(np.linalg.eigvals(eye - 2.0 * r @ scale)))
        val = jump_intensity * (np.exp(-0.5 * wishart_shape * logdet) - 1.0)
        return np.array([val.real, val.imag])

    kappa = jump_intensity * (
        (1.0 - 2.0 * rho * np.diag(scale)) ** (-0.5 * wishart_shape) - 1.0)
    integ, _ = quad_vec(levy, 0.0, tau, epsabs=1e-13, epsrel=1e-12)
    return complex(integ[0], integ[1]) - tau * (u @ kappa), psi(tau)


# ---------------------------------------------------------------------------
# one-dimensional Heston reduction
# ---------------------------------------------------------------------------

def heston_cf(u: complex, tau: float, y0: float, v0: float,
              kappa: float, theta: float, sigma: float, rho: float) -> complex:
    """E[exp(u Y_tau)] for dY = -v/2 dt + sqrt(v) dB, dv = kappa(theta - v)dt
    + sigma sqrt(v) dW, d<B,W> = rho dt.  Standard closed form (the branch-safe
    'little Heston trap' variant)."""
    b = kappa - rho * sigma * u
    dsc = np.sqrt(b * b - sigma * sigma * (u * u - u))
    g = (b - dsc) / (b + dsc)
    e = np.exp(-dsc * tau)
    big_c = (kappa * theta / sigma ** 2) * (
        (b - dsc) * tau - 2.0 * np.log((1.0 - g * e) / (1.0 - g))
    )
    big_d = ((b - dsc) / sigma ** 2) * (1.0 - e) / (1.0 - g * e)
    return np.exp(big_c + big_d * v0 + u * y0)


# ---------------------------------------------------------------------------
# jump-model covariance mean
# ---------------------------------------------------------------------------

def bns_mean_cov(params: models.BnsParams, sigma0: np.ndarray,
                 t: float) -> np.ndarray:
    """E[Sigma_t | Sigma_0] under pure-jump covariance with linear decay:
    flow vec Sigma_0 + (int flow) vec(jump mean)."""
    flow, int1 = matcalc.lift_flows(matcalc.kron_lift(params.mean_rev),
                                    np.array(float(t)), 2)
    return matcalc.sym_part(matcalc.mat(
        flow @ matcalc.vec(np.asarray(sigma0, dtype=float))
        + int1 @ matcalc.vec(params.jump_mean())))


# ---------------------------------------------------------------------------
# lognormal closed forms
# ---------------------------------------------------------------------------

def black_scholes_call(s0: float, k: float, sigma: float, tau: float) -> float:
    """Zero-rate Black-Scholes call."""
    if tau <= 0 or sigma <= 0:
        return max(s0 - k, 0.0)
    sq = sigma * np.sqrt(tau)
    d1 = (np.log(s0 / k) + 0.5 * sigma * sigma * tau) / sq
    return s0 * norm.cdf(d1) - k * norm.cdf(d1 - sq)


def black_scholes_put(s0: float, k: float, sigma: float, tau: float) -> float:
    return black_scholes_call(s0, k, sigma, tau) - s0 + k


def margrabe_exchange(s1: float, s2: float, sig1: float, sig2: float,
                      rho: float, tau: float) -> float:
    """E[(S1_T - S2_T)^+] for joint lognormal martingales."""
    sig = np.sqrt(sig1 * sig1 - 2.0 * rho * sig1 * sig2 + sig2 * sig2)
    if sig * np.sqrt(tau) < 1e-14:
        return max(s1 - s2, 0.0)
    d1 = (np.log(s1 / s2) + 0.5 * sig * sig * tau) / (sig * np.sqrt(tau))
    return s1 * norm.cdf(d1) - s2 * norm.cdf(d1 - sig * np.sqrt(tau))


def gbm_transform(u: np.ndarray, log_spot: np.ndarray, cov: np.ndarray,
                  tau: float) -> np.ndarray:
    """E[exp(u'Y_{t+tau})] given Y_t = log_spot under constant-covariance
    martingale dynamics, for a batch of complex argument vectors u (n, d)."""
    u = np.atleast_2d(np.asarray(u, dtype=complex))
    log_spot = np.asarray(log_spot, dtype=float)
    cov = np.asarray(cov, dtype=float)
    drift = -0.5 * np.diag(cov)
    quad = 0.5 * np.einsum("na,ab,nb->n", u, cov, u)
    return np.exp(u @ (log_spot + tau * drift) + tau * quad)


def spread_transform(u: np.ndarray, strike: float) -> np.ndarray:
    """K^{1-s} G(s-1) G(-u2) / G(u1+1), s = u1 + u2, at nodes u (..., 2),
    summed in logs so that no factor over- or underflows on its own."""
    u1, u2 = u[..., 0], u[..., 1]
    s = u1 + u2
    return np.exp((1.0 - s) * np.log(strike) + loggamma(s - 1.0)
                  + loggamma(-u2) - loggamma(u1 + 1.0))


def bvn_quadrature(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k) for standard bivariate normal, by conditioning and
    1-D adaptive quadrature (independent of the package's Genz evaluator)."""
    from scipy.integrate import quad

    if abs(rho) < 1e-15:
        return norm.cdf(h) * norm.cdf(k)
    s = np.sqrt(1.0 - rho * rho)

    def integrand(x):
        return norm.pdf(x) * norm.cdf((k - rho * x) / s)

    lo = min(-40.0, h - 5)
    val, _err = quad(integrand, lo, h, epsabs=1e-13, epsrel=1e-12, limit=400)
    return val


def quadrant_price_quadrature(kind: str, s1: float, s2: float, k1: float,
                              k2: float, sig1: float, sig2: float,
                              rho: float, tau: float) -> float:
    """E[(±(S1-K1))^+ (±(S2-K2))^+] under joint lognormal martingale dynamics.
    Conditions on the first log return, so the inner expectation is a smooth
    Black-Scholes value and the outer integral (adaptive, split at the kink)
    converges to near machine precision.  kind in {'cc','cp','pc','pp'}."""
    from scipy.integrate import quad

    sq1 = sig1 * np.sqrt(tau)
    sq2 = sig2 * np.sqrt(tau)
    mu2 = np.log(s2) - 0.5 * sq2 * sq2
    resid = np.sqrt(max(1.0 - rho * rho, 0.0)) * sq2
    zstar = (np.log(k1 / s1) + 0.5 * sq1 * sq1) / sq1

    def cond_leg2(z: float) -> float:
        fwd = np.exp(mu2 + rho * sq2 * z + 0.5 * resid * resid)
        if resid < 1e-13:
            diff = fwd - k2
            return max(diff, 0.0) if kind[1] == "c" else max(-diff, 0.0)
        d1 = (np.log(fwd / k2) + 0.5 * resid * resid) / resid
        d2 = d1 - resid
        if kind[1] == "c":
            return fwd * norm.cdf(d1) - k2 * norm.cdf(d2)
        return k2 * norm.cdf(-d2) - fwd * norm.cdf(-d1)

    def integrand(z: float) -> float:
        s1z = s1 * np.exp(-0.5 * sq1 * sq1 + sq1 * z)
        leg1 = s1z - k1 if kind[0] == "c" else k1 - s1z
        return leg1 * cond_leg2(z) * norm.pdf(z)

    if kind[0] == "c":
        lo, hi = zstar, max(zstar, 0.0) + 45.0
    else:
        lo, hi = min(zstar, 0.0) - 45.0, zstar
    val, _err = quad(integrand, lo, hi, epsabs=1e-11, epsrel=1e-11, limit=500)
    return float(val)


# ---------------------------------------------------------------------------
# instantaneous covariation rates between spots and exponential claims
# ---------------------------------------------------------------------------
#
# A "basis claim" is H_t(u) = exp(phi + u'Y_t + Tr(psi Sigma_t)), a
# conditional expectation of exp(u'Y_T).  Rates are coefficients of dt in
# predictable covariations:
#
#     spot_spot_rate   d<S, S'>        (d, d)    real
#     claim_spot_rate  d<S, H(u)>      (d,)      complex
#     claim_claim_rate d<H(u1), H(u2)> scalar    complex
#     residual_rate    d<L(u1), L(u2)> scalar    complex
#
# where L(u) is the part of H(u) orthogonal to the span of the spot moves,
# i.e. the error left by the locally variance-optimal spot hedge.

@dataclass(frozen=True)
class TransformEval:
    """(phi, psi) at one (tau, u) together with a domain-validity flag."""

    tau: float
    u: np.ndarray
    phi: complex
    psi: np.ndarray
    valid: bool


def basis_from_eval(ev: TransformEval, state: models.MarketState) -> complex:
    """H_t(u) from a precomputed (phi, psi) pair at the market state; nan
    where the transform is invalid or the exponent passes the overflow
    rule (the package's evaluators skip the first and refuse the second)."""
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
    spot = np.exp(state.log_spot)
    return np.outer(spot, spot) * inner


def claim_spot_rate(params, state: models.MarketState,
                    ev: TransformEval) -> np.ndarray:
    """d<S, H(u)>/dt as a (d,) complex vector."""
    h = basis_from_eval(ev, state)
    if params.kind == "wasc":
        g = ev.u + 2.0 * ev.psi @ (params.vol_of_vol.T @ params.leverage)
        return h * np.exp(state.log_spot) * (state.cov @ g)
    cross = state.cov @ ev.u + bns_jump_cross(params, ev)
    return h * np.exp(state.log_spot) * cross


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
    return scipy.linalg.pinvh(css, rtol=1e-12) @ csh


# ---------------------------------------------------------------------------
# path-major simulation kernels
# ---------------------------------------------------------------------------
#
# The simulator's schemes written path-major, (P, d, d) stacks stepped with
# einsum, drawing from the per-path Philox streams in the order that the
# ``simulate`` module docstring documents.  They return (log_spot, cov,
# integrated_cov, clip_count) in the layout of ``simulate.SimResult``.  Their
# step matrices are positive definite, so they factor them with numpy's
# Cholesky, the factor ``matcalc.psd_factor_last`` gives there, rather than
# with the code under test.

def path_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def reference_wasc_paths(params: models.WascParams, state: models.MarketState,
                         horizon: float, n_steps: int, n_paths: int,
                         seed: int, path_start: int = 0):
    """Strang splitting: exact half-step drift flows around an Euler
    diffusion step, with the PSD repair of ``matcalc.psd_repair``."""
    d = params.d
    h = (horizon - state.t) / n_steps
    a_mat = params.vol_of_vol
    rho = params.leverage
    resid = float(np.sqrt(max(1.0 - rho @ rho, 0.0)))
    sqh = np.sqrt(h)
    w_norm = np.empty((n_paths, n_steps, d, d))
    z_norm = np.empty((n_paths, n_steps, d))
    for i in range(n_paths):
        rng = path_rng(seed, path_start + i)
        w_norm[i] = rng.standard_normal((n_steps, d, d))
        z_norm[i] = rng.standard_normal((n_steps, d))

    ys = np.empty((n_paths, n_steps + 1, d))
    covs = np.empty((n_paths, n_steps + 1, d, d))
    intcov = np.empty((n_paths, n_steps + 1, d, d))
    ys[:, 0] = state.log_spot
    covs[:, 0] = state.cov
    intcov[:, 0] = 0.0
    clip = 0
    e_half = scipy.linalg.expm(params.mean_rev * (0.5 * h))
    lift = matcalc.kron_lift(params.mean_rev)
    _, k_half = matcalc.lift_flows(lift, np.array(0.5 * h), 2)
    c_half = matcalc.mat(k_half @ matcalc.vec(params.omega))
    sig = np.repeat(state.cov[None], n_paths, axis=0)
    y = np.repeat(state.log_spot[None], n_paths, axis=0)
    for k in range(n_steps):
        sa = np.einsum("ab,pbc,dc->pad", e_half, sig, e_half) + c_half
        q = np.linalg.cholesky(sa)
        dw = sqh * w_norm[:, k]
        shock = np.einsum("pab,pb->pa",
                          q, dw @ rho + resid * sqh * z_norm[:, k])
        y = y - 0.5 * h * np.diagonal(sa, axis1=1, axis2=2) + shock
        term = np.einsum("pab,pbc,cd->pad", q, dw, a_mat)
        sb = sa + term + term.transpose(0, 2, 1)
        sb, n_bad = matcalc.psd_repair(sb)
        clip += n_bad
        sig = np.einsum("ab,pbc,dc->pad", e_half, sb, e_half) + c_half
        ys[:, k + 1] = y
        covs[:, k + 1] = sig
        intcov[:, k + 1] = intcov[:, k] + 0.5 * h * (covs[:, k] + sig)
    return ys, covs, intcov, clip


def reference_bns_paths(params: models.BnsParams, state: models.MarketState,
                        horizon: float, n_steps: int, n_paths: int,
                        seed: int, path_start: int = 0):
    """Exact scheme: every path flows from event to event (step ends and
    jumps) in time order; a jump adds its Wishart mark to Sigma, rho *
    diag(mark) to the log prices and the square of that to the bracket.
    The step's Brownian vector enters through the Cholesky factor of the
    covariance integral summed over the step's flow segments."""
    d = params.d
    span = horizon - state.t
    h = span / n_steps
    rho = params.leverage_diag
    kappa = params.drift_comp
    chol_theta = np.linalg.cholesky(params.wishart_scale)
    m = params.mean_rev
    lift = matcalc.kron_lift(m)
    df = params.wishart_shape - np.arange(d)
    ys = np.empty((n_paths, n_steps + 1, d))
    covs = np.empty((n_paths, n_steps + 1, d, d))
    intcov = np.empty((n_paths, n_steps + 1, d, d))
    for i in range(n_paths):
        rng = path_rng(seed, path_start + i)
        n_jumps = int(rng.poisson(params.jump_intensity * span))
        times = np.sort(rng.random(n_jumps)) * span
        chi2 = rng.chisquare(np.broadcast_to(df, (n_jumps, d)))
        bart = np.tril(rng.standard_normal((n_jumps, d, d)), -1)
        bart[:, np.arange(d), np.arange(d)] = np.sqrt(chi2)
        half = chol_theta @ bart
        marks = np.einsum("jab,jcb->jac", half, half)
        b_norm = rng.standard_normal((n_steps, d))
        steps = np.minimum((times / h).astype(np.int64), n_steps - 1)

        y, sig, bracket = state.log_spot.copy(), state.cov.copy(), 0.0
        ys[i, 0], covs[i, 0], intcov[i, 0] = y, sig, 0.0
        for k in range(n_steps):
            cursor = k * h
            int_step = np.zeros((d, d))
            for j in np.flatnonzero(steps == k).tolist() + [None]:
                end = (k * h + h) if j is None else times[j]
                tau = end - cursor
                flow = matcalc.lift_flows(m, np.array([tau]), 1)[0][0]
                kint = matcalc.lift_flows(lift, np.array([tau]), 2)[1][0]
                int_seg = matcalc.mat(kint @ matcalc.vec(sig))
                y = y - 0.5 * np.diag(int_seg) - tau * kappa
                sig = np.einsum("ab,bc,dc->ad", flow, sig, flow)
                bracket = bracket + int_seg
                int_step = int_step + int_seg
                if j is not None:
                    jump_y = rho * np.diag(marks[j])
                    sig = sig + marks[j]
                    y = y + jump_y
                    bracket = bracket + np.outer(jump_y, jump_y)
                    cursor = times[j]
            y = y + np.linalg.cholesky(int_step) @ b_norm[k]
            ys[i, k + 1], covs[i, k + 1], intcov[i, k + 1] = y, sig, bracket
    return ys, covs, intcov, 0
