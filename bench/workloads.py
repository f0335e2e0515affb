"""The three workloads of the covhedge benchmark.

Each workload has a set-up step (parameter sets, market states, payoff
kernels and contours) that returns one case per model, and a timed step
run once per case; `checks.py` holds the check step.  The timed step is a
generator that yields between phases and returns its outputs, so that a
pass in `run.py` can interleave the cases: on a machine whose speed
changes every few seconds, the model shares then sample the same
conditions instead of one taking the start of the pass and the other its
end.  The traced and untraced runs call the same functions: tracing only
swaps attributes of covhedge for timing proxies, so every call here goes
through a module or class attribute (``simulate.simulate``, never a name
bound at import).

Inputs derive from the seed alone: simulation seeds for the two hedging
workloads, the strike grids for ``price_strip``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from covhedge import models, payoffs, simulate
from covhedge.hedging import backtest, covswap, pricing

Steps = Generator[None, None, dict]

MODELS = ("wasc", "bns")
HORIZON = 1.0

# two-asset reference set of the test suite (tests/conftest.py)
A_REF = np.array([[0.21, 0.14], [0.14, 0.21]])
M_REF = np.array([[-2.5, -1.5], [-1.5, -2.5]])
RHO_REF = np.array([-0.6, -0.3])
ALPHA_REF = 7.14283
SIGMA0_REF = np.array([[0.10, 0.07], [0.07, 0.10]])
S0_REF = np.array([100.0, 100.0])
BNS_SCALE = np.array([[0.02, 0.008], [0.008, 0.02]])
BNS_LEVERAGE = np.array([-0.8, -0.5])

# fourier_hedge
FH_PATHS = 2048
FH_DATES = 100
FH_NODES = 12          # per dimension: M = (2 * 12)^2 / 2 = 288 contour nodes
FH_STRIKES = (100.0, 100.0)

# covswap_hedge
CS_PATHS = 4096
CS_DATES = 250
CS_PAIRS = ((0, 1), (0, 0), (1, 1))

# price_strip: fourier_price's default 24 nodes per dimension
VANILLA_MONEYNESS = (0.8, 0.9, 1.0, 1.1, 1.2)
SPREAD_STRIKES = (2.0, 5.0, 10.0)
GEO_WEIGHTS = (0.5, 0.5)


def reference_params(kind: str):
    if kind == "wasc":
        return models.WascParams(d=2, mean_rev=M_REF, vol_of_vol=A_REF,
                                 leverage=RHO_REF, alpha=ALPHA_REF)
    return models.BnsParams(d=2, mean_rev=M_REF, jump_intensity=3.0,
                            wishart_shape=3.0, wishart_scale=BNS_SCALE,
                            leverage_diag=BNS_LEVERAGE)


def frozen_wasc():
    """The wasc reference set with zero vol-of-vol: the covariance path is
    deterministic and log prices are jointly Gaussian."""
    return models.WascParams(d=2, mean_rev=M_REF, vol_of_vol=np.zeros((2, 2)),
                             leverage=RHO_REF, alpha=ALPHA_REF)


def reference_state() -> models.MarketState:
    return models.MarketState.from_spot(t=0.0, spot=S0_REF, cov=SIGMA0_REF)


def _sim_seed(seed: int, kind: str) -> int:
    return int(np.random.SeedSequence([seed, MODELS.index(kind)])
               .generate_state(1)[0])


# ---------------------------------------------------------------------------
# fourier_hedge
# ---------------------------------------------------------------------------

@dataclass
class HedgeCase:
    params: object
    state: models.MarketState
    kernel: payoffs.PayoffKernel
    contour: payoffs.Contour
    gbm_vols: tuple
    gbm_corr: float
    sim_seed: int


def setup_fourier_hedge(seed: int) -> dict:
    state = reference_state()
    kernel = payoffs.quadrant_option(2, "cc", (0, 1), FH_STRIKES)
    cases = {}
    for kind in MODELS:
        params = reference_params(kind)
        rate = pricing.integrated_cov_rate(params, state, HORIZON)
        decay = payoffs.suggest_decay(kernel, rate, HORIZON, FH_NODES)
        contour = payoffs.build_contour(kernel, nodes_per_dim=FH_NODES,
                                        decay=decay)
        vols = tuple(np.sqrt(np.diag(rate)))
        corr = float(rate[0, 1] / (vols[0] * vols[1]))
        cases[kind] = HedgeCase(params, state, kernel, contour, vols, corr,
                                _sim_seed(seed, kind))
    return cases


def run_fourier_hedge(case: HedgeCase) -> Steps:
    p = case.params
    price = pricing.fourier_price(p, case.state, HORIZON, case.kernel,
                                  nodes_per_dim=FH_NODES)
    yield
    sim = simulate.simulate(p, case.state, HORIZON, FH_DATES, FH_PATHS,
                            seed=case.sim_seed)
    yield
    cache = backtest.BasisCache(p, case.contour.model_args, HORIZON)
    cache.prepare(sim)
    yield
    jobs = [
        backtest.HedgeJob("fourier", backtest.FourierHedge(
            p, cache, case.contour.weights), case.kernel.payoff, price),
        backtest.HedgeJob("gbm_delta", backtest.GbmDeltaHedge(
            "cc", FH_STRIKES, case.gbm_vols, case.gbm_corr, HORIZON),
            case.kernel.payoff, price),
        backtest.HedgeJob("cash", None, case.kernel.payoff, price),
    ]
    results = backtest.run_backtest(sim, jobs)
    return {"price": price, "pnl": {r.name: r.pnl for r in results},
            "payoff": results[0].payoff}


# ---------------------------------------------------------------------------
# covswap_hedge
# ---------------------------------------------------------------------------

@dataclass
class SwapCase:
    params: object
    state: models.MarketState
    sim_seed: int


def setup_covswap_hedge(seed: int) -> dict:
    state = reference_state()
    return {kind: SwapCase(reference_params(kind), state,
                           _sim_seed(seed, kind))
            for kind in MODELS}


def run_covswap_hedge(case: SwapCase) -> Steps:
    p = case.params
    sim = simulate.simulate(p, case.state, HORIZON, CS_DATES, CS_PATHS,
                            seed=case.sim_seed)
    yield
    build = (covswap.wasc_covswap_system if p.kind == "wasc"
             else covswap.bns_covswap_system)
    systems = [build(p, case.state.cov, HORIZON, pair, CS_DATES)
               for pair in CS_PAIRS]
    values = [covswap.covswap_values(s, sim.integrated_cov, sim.cov)
              for s in systems]
    pays = [covswap.covswap_payoff(s, sim.integrated_cov) for s in systems]
    jobs = ([backtest.HedgeJob(f"hedge{s.pair}", backtest.CovswapHedge(s, p),
                               pay, 0.0) for s, pay in zip(systems, pays)]
            + [backtest.HedgeJob(f"cash{s.pair}", None, pay, 0.0)
               for s, pay in zip(systems, pays)])
    results = backtest.run_backtest(sim, jobs)
    n = len(systems)
    # copies, so that no panel outlives the call and inflates peak memory
    return {
        "strike": [s.fair_strike for s in systems],
        "value0": [v[:, 0].copy() for v in values],
        "bracket": [sim.integrated_cov[:, -1, i, j].copy()
                    for i, j in CS_PAIRS],
        "hedged": [r.pnl for r in results[:n]],
        "unhedged": [r.pnl for r in results[n:]],
    }


# ---------------------------------------------------------------------------
# price_strip
# ---------------------------------------------------------------------------

@dataclass
class StripCase:
    params: object
    state: models.MarketState
    instruments: dict          # label tuple -> payoff kernel


def _strip_strikes(seed: int) -> tuple[np.ndarray, list, np.ndarray]:
    rng = np.random.default_rng([seed, 7])
    centre = 100.0 * np.exp(rng.uniform(-0.05, 0.05))
    vanilla = centre * np.array(VANILLA_MONEYNESS)
    pairs = [tuple(100.0 * np.exp(rng.uniform(-0.05, 0.05, 2))),
             tuple(100.0 * np.exp(rng.uniform(-0.05, 0.05, 2))
                   * np.array([1.1, 0.92]))]
    spreads = np.array(SPREAD_STRIKES) * np.exp(rng.uniform(-0.1, 0.1))
    return vanilla, pairs, spreads


def _strip_kernels(vanilla, pairs, spreads, geo_strike: float) -> dict:
    kern = {}
    for a in (0, 1):
        for k in vanilla:
            kern[("call", a, k)] = payoffs.call_option(2, a, k)
            kern[("put", a, k)] = payoffs.put_option(2, a, k)
    for kind in ("cc", "cp", "pc", "pp"):
        for ks in pairs:
            kern[("quadrant", kind, ks)] = payoffs.quadrant_option(
                2, kind, (0, 1), ks)
    for k in spreads:
        kern[("spread", k)] = payoffs.spread_option(2, 0, 1, k)
    kern[("exchange",)] = payoffs.exchange_option(2, 0, 1)
    kern[("geometric", geo_strike)] = payoffs.geometric_option(
        2, GEO_WEIGHTS, geo_strike)
    return kern


def setup_price_strip(seed: int) -> dict:
    state = reference_state()
    vanilla, pairs, spreads = _strip_strikes(seed)
    cases = {kind: StripCase(reference_params(kind), state,
                             _strip_kernels(vanilla, pairs, spreads,
                                            vanilla[2]))
             for kind in MODELS}
    # the frozen set prices one quadrant pair, the exchange and the geometric
    # option under the wasc engine; it is part of the wasc share
    cases["frozen"] = StripCase(frozen_wasc(), state,
                                _strip_kernels((), pairs[:1], (), vanilla[2]))
    return cases


def run_price_strip(case: StripCase) -> Steps:
    prices = {}
    for label, k in case.instruments.items():
        prices[label] = pricing.fourier_price(case.params, case.state,
                                              HORIZON, k)
        yield
    return prices


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], dict]       # seed -> {case name: case}
    run: Callable[[object], Steps]     # case -> steps returning outputs
    share: Callable[[str], str]        # case name -> model share it counts to


WORKLOADS = {
    "fourier_hedge": Workload(setup_fourier_hedge, run_fourier_hedge, str),
    "covswap_hedge": Workload(setup_covswap_hedge, run_covswap_hedge, str),
    "price_strip": Workload(setup_price_strip, run_price_strip,
                            lambda case: "wasc" if case == "frozen" else case),
}
