"""Output checks of the covhedge benchmark.

Every check compares a workload output with an independent computation
(a closed form, a Monte Carlo estimate with its standard error, scipy
quadrature) or with a property the method must have (parity, monotonicity,
convexity, variance reduction).  None compares with a saved copy of an
earlier output.  Each check is one benchmark operation.

`CHECKS[workload](case name, case, outputs, oracle)` returns the checks of
one case; `oracle` memoizes reference values that do not depend on the
pass, so repeated passes do not recompute them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, linalg
from scipy.special import ndtr

from covhedge import gbm, matcalc, models
from covhedge.hedging import covswap

import workloads as wl

Z_MC = 5.0            # Monte Carlo checks allow this many standard errors
PARITY_TOL = 1e-4     # put-call parity, share of the spot
SHAPE_TOL = 1e-4      # monotonicity/convexity slack, share of the spot
FROZEN_RTOL = 2e-3    # zero vol-of-vol prices against lognormal closed forms
FROZEN_ATOL = 1e-3
QUADRANT_TOL = 1e-5   # quadrant parity, share of S1 * S2

BNS_STRIKE_FAULT = ("hedging/covswap.py bns_covswap_system multiplies the "
                    "jump drift by the intensity twice")


@dataclass
class Check:
    name: str
    ok: bool
    detail: dict = field(default_factory=dict)
    known_fault: str | None = None   # the program fault that makes it fail

    def __post_init__(self):
        self.ok = bool(self.ok)


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    return float(np.mean(x)), float(np.std(x, ddof=1) / np.sqrt(x.size))


def _rmse(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x * x)))


# ---------------------------------------------------------------------------
# fourier_hedge
# ---------------------------------------------------------------------------

def price_vs_control_variate(kind: str, price: float, payoff: np.ndarray,
                             pnl: np.ndarray) -> Check:
    """The Fourier price against mean(payoff - hedge gains).  The hedge
    starts from the price, so payoff - gains = price - pnl pathwise."""
    est, se = _mean_se(price - pnl)
    plain, plain_se = _mean_se(payoff)
    ok = bool(np.isfinite(price) and abs(price - est) <= Z_MC * se)
    return Check(f"{kind}/price_vs_cv_mc", ok,
                 {"price": price, "cv_mc": est, "cv_se": se,
                  "plain_mc": plain, "plain_se": plain_se})


def hedge_ranking(kind: str, pnl: dict) -> Check:
    """Hedge RMSE must rank Fourier < GBM delta < cash."""
    rmse = {name: _rmse(x) for name, x in pnl.items()}
    ok = rmse["fourier"] < rmse["gbm_delta"] < rmse["cash"]
    return Check(f"{kind}/hedge_rmse_rank", bool(ok), {"rmse": rmse})


# ---------------------------------------------------------------------------
# covswap_hedge
# ---------------------------------------------------------------------------

def closed_form_strike(params, sigma0: np.ndarray, horizon: float,
                       pair: tuple[int, int]) -> float:
    """E[<Y_i, Y_j>_T]: the models' integrated-mean closed form, plus for
    the jump model the expected jump products lam T rho_i rho_j E[X_ii X_jj]
    of a Wishart(n, theta) mark."""
    i, j = pair
    if params.kind == "wasc":
        imap = models.wasc_integrated_mean(params, 0.0, horizon)
        total = matcalc.mat(imap.map @ matcalc.vec(sigma0) + imap.offset)
        return float(total[i, j])
    n, th = params.wishart_shape, params.wishart_scale
    pair_mean = n * n * th[i, i] * th[j, j] + 2.0 * n * th[i, j] ** 2
    jumps = (params.jump_intensity * horizon * params.leverage_diag[i]
             * params.leverage_diag[j] * pair_mean)
    return float(models.bns_integrated_mean(params, sigma0, horizon)[i, j]
                 + jumps)


def fair_strike(kind: str, pair, strike: float, closed: float,
                bracket: np.ndarray) -> Check:
    """The swap's fair strike against the closed form and against the
    simulated terminal bracket."""
    mc, se = _mean_se(bracket)
    ok = (abs(strike - closed) <= 1e-6 * abs(closed)
          and abs(strike - mc) <= Z_MC * se)
    return Check(f"{kind}/fair_strike{pair}", bool(ok),
                 {"strike": strike, "closed_form": closed, "mc": mc,
                  "mc_se": se},
                 BNS_STRIKE_FAULT if kind == "bns" else None)


def swap_value_at_start(kind: str, pair, value0: np.ndarray) -> Check:
    worst = float(np.max(np.abs(value0)))
    return Check(f"{kind}/value_at_start{pair}", worst <= 1e-12,
                 {"max_abs": worst})


def variance_reduced(kind: str, pair, hedged: np.ndarray,
                     unhedged: np.ndarray) -> Check:
    vh, vu = float(np.var(hedged)), float(np.var(unhedged))
    return Check(f"{kind}/variance_reduced{pair}", vh < vu,
                 {"hedged_var": vh, "unhedged_var": vu})


def residual_variance(kind: str, pair, hedged: np.ndarray,
                      target: float) -> Check:
    """Sample variance of the hedged residual against the closed form, with
    the standard error of a sample variance."""
    dev2 = (hedged - hedged.mean()) ** 2
    var, se = _mean_se(dev2)
    ok = abs(var - target) <= Z_MC * se
    return Check(f"{kind}/residual_variance{pair}", bool(ok),
                 {"mc_var": var, "mc_se": se, "closed_form": target})


# ---------------------------------------------------------------------------
# price_strip
# ---------------------------------------------------------------------------

def _by_kind(prices: dict, kind: str) -> dict:
    return {label[1:]: v for label, v in prices.items() if label[0] == kind}


def _shape(values: np.ndarray, strikes: np.ndarray, tol: float) -> bool:
    """Decreasing and convex in the strike, up to tol."""
    slope = np.diff(values) / np.diff(strikes)
    return bool(np.all(slope <= tol) and np.all(np.diff(slope) >= -tol))


def strip_properties(kind: str, prices: dict, spot: np.ndarray) -> list:
    out = []
    calls, puts = _by_kind(prices, "call"), _by_kind(prices, "put")
    for a in (0, 1):
        strikes = np.array(sorted(k for asset, k in calls if asset == a))
        c = np.array([calls[(a, k)] for k in strikes])
        p = np.array([puts[(a, k)] for k in strikes])
        for k, ck, pk in zip(strikes, c, p):
            gap = float(ck - pk - (spot[a] - k))
            out.append(Check(f"{kind}/put_call_parity[{a},{k:.4g}]",
                             abs(gap) <= PARITY_TOL * spot[a],
                             {"call": float(ck), "put": float(pk),
                              "gap": gap}))
        bounds = bool(np.all(c >= np.maximum(spot[a] - strikes, 0.0))
                      and np.all(c <= spot[a]))
        out.append(Check(f"{kind}/call_shape[{a}]",
                         bounds and _shape(c, strikes, SHAPE_TOL),
                         {"strikes": strikes.tolist(), "calls": c.tolist()}))

    quads = _by_kind(prices, "quadrant")
    pairs = sorted({ks for _, ks in quads})
    # cc - cp - pc + pp = E[(S1-K1)(S2-K2)], so adding back the linear
    # terms gives E[S1 S2] whatever the strike pair
    prod = []
    for k1, k2 in pairs:
        q = {kd: quads[(kd, (k1, k2))] for kd in ("cc", "cp", "pc", "pp")}
        prod.append(q["cc"] - q["cp"] - q["pc"] + q["pp"]
                    + k2 * spot[0] + k1 * spot[1] - k1 * k2)
    nonneg = all(v >= 0.0 for v in quads.values())
    spread_of_prod = float(np.ptp(prod))
    out.append(Check(f"{kind}/quadrant_parity",
                     nonneg and spread_of_prod <= QUADRANT_TOL
                     * spot[0] * spot[1],
                     {"e_s1s2": [float(v) for v in prod]}))

    spreads = _by_kind(prices, "spread")
    ks = np.array(sorted(k for (k,) in spreads))
    sp = np.array([spreads[(k,)] for k in ks])
    ex = prices[("exchange",)]
    # (x - K)^+ <= x^+ <= (x - K)^+ + K for K > 0
    ok = (_shape(sp, ks, SHAPE_TOL) and np.all(sp <= ex + SHAPE_TOL)
          and np.all(sp >= ex - ks - SHAPE_TOL))
    out.append(Check(f"{kind}/spread_shape", bool(ok),
                     {"strikes": ks.tolist(), "spreads": sp.tolist(),
                      "exchange": ex}))

    (k_geo, geo), = _by_kind(prices, "geometric").items()
    k_geo = k_geo[0]
    # sqrt(S1 S2) <= (S1 + S2)/2 and (S1 - S2)^+ <= (S1 - K)^+ + (K - S2)^+
    cap_geo = 0.5 * (calls[(0, k_geo)] + calls[(1, k_geo)])
    cap_ex = calls[(0, k_geo)] + puts[(1, k_geo)]
    ok = 0.0 <= geo <= cap_geo + SHAPE_TOL and 0.0 <= ex <= cap_ex + SHAPE_TOL
    out.append(Check(f"{kind}/geometric_exchange_bounds", bool(ok),
                     {"geometric": geo, "geometric_cap": cap_geo,
                      "exchange": ex, "exchange_cap": cap_ex}))
    return out


def frozen_integrated_cov(mean_rev: np.ndarray, sigma0: np.ndarray,
                          horizon: float) -> np.ndarray:
    """int_0^T e^{Mt} Sigma_0 e^{M't} dt by adaptive quadrature: the
    integrated covariance when the vol-of-vol (hence omega) is zero."""
    def cov_at(t):
        e = linalg.expm(mean_rev * t)
        return e @ sigma0 @ e.T
    return integrate.quad_vec(cov_at, 0.0, horizon, epsabs=1e-14,
                              epsrel=1e-12)[0]


def _close(name: str, value: float, ref: float) -> Check:
    ok = abs(value - ref) <= FROZEN_RTOL * abs(ref) + FROZEN_ATOL
    return Check(name, bool(ok), {"fourier": value, "closed_form": ref,
                                  "rel_err": (value - ref) / ref})


def frozen_prices(prices: dict, spot: np.ndarray, cov: np.ndarray) -> list:
    """Zero vol-of-vol prices against lognormal closed forms on the
    integrated covariance cov (horizon folded in: vols are per unit time
    at tau = 1)."""
    vols = np.sqrt(np.diag(cov))
    rho = cov[0, 1] / (vols[0] * vols[1])
    out = []
    for (kind, ks), v in _by_kind(prices, "quadrant").items():
        ref = gbm.lognormal_quadrant_price(kind, spot, ks, vols, rho, 1.0)
        out.append(_close(f"frozen/quadrant_{kind}", v, ref))

    # Margrabe: the log ratio has variance w'Cw with w = (1, -1)
    s = np.sqrt(cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1])
    d1 = np.log(spot[0] / spot[1]) / s + 0.5 * s
    ref = spot[0] * ndtr(d1) - spot[1] * ndtr(d1 - s)
    out.append(_close("frozen/exchange", prices[("exchange",)], ref))

    # Black on the geometric composite
    (k,), geo = next(iter(_by_kind(prices, "geometric").items()))
    w = np.array(wl.GEO_WEIGHTS)
    var = float(w @ cov @ w)
    fwd = float(np.exp(w @ (np.log(spot) - 0.5 * np.diag(cov)) + 0.5 * var))
    d1 = (np.log(fwd / k) + 0.5 * var) / np.sqrt(var)
    ref = fwd * ndtr(d1) - k * ndtr(d1 - np.sqrt(var))
    out.append(_close("frozen/geometric", geo, ref))
    return out


# ---------------------------------------------------------------------------
# per-workload glue
# ---------------------------------------------------------------------------

def check_fourier_hedge(kind: str, case, out: dict, oracle: dict) -> list:
    return [price_vs_control_variate(kind, out["price"], out["payoff"],
                                     out["pnl"]["fourier"]),
            hedge_ranking(kind, out["pnl"])]


def check_covswap_hedge(kind: str, case, out: dict, oracle: dict) -> list:
    res = []
    for n, pair in enumerate(wl.CS_PAIRS):
        if ("strike", kind, pair) not in oracle:
            oracle["strike", kind, pair] = closed_form_strike(
                case.params, case.state.cov, wl.HORIZON, pair)
        res.append(fair_strike(kind, pair, out["strike"][n],
                               oracle["strike", kind, pair],
                               out["bracket"][n]))
        res.append(swap_value_at_start(kind, pair, out["value0"][n]))
        res.append(variance_reduced(kind, pair, out["hedged"][n],
                                    out["unhedged"][n]))
        if kind == "wasc":
            if ("variance", pair) not in oracle:
                oracle["variance", pair] = covswap.wasc_covswap_variance(
                    case.params, case.state.cov, wl.HORIZON, pair)
            res.append(residual_variance(kind, pair, out["hedged"][n],
                                         oracle["variance", pair]))
    return res


def check_price_strip(kind: str, case, out: dict, oracle: dict) -> list:
    if kind != "frozen":
        return strip_properties(kind, out, wl.S0_REF)
    if "frozen_cov" not in oracle:
        oracle["frozen_cov"] = frozen_integrated_cov(wl.M_REF, wl.SIGMA0_REF,
                                                     wl.HORIZON)
    return frozen_prices(out, wl.S0_REF, oracle["frozen_cov"])


CHECKS = {
    "fourier_hedge": check_fourier_hedge,
    "covswap_hedge": check_covswap_hedge,
    "price_strip": check_price_strip,
}
