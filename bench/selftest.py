"""Self-test of the benchmark's checks: each must reject a wrong output.

    python3 bench/selftest.py

Computes real outputs with the workload code (the wasc price strip, the
wasc Fourier hedge, a small bns covariance-swap run), confirms that the
checks accept them, then feeds the checks corrupted copies: a price
shifted by 1%, a swapped hedge ranking, and the fair strike that
`bns_covswap_system` computes today.  Exits 1 if a true output is
rejected or a wrong one accepted.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np                                          # noqa: E402

import checks                                               # noqa: E402
import workloads as wl                                      # noqa: E402
from covhedge import simulate                               # noqa: E402
from covhedge.hedging import covswap                        # noqa: E402

FAILURES: list[str] = []


def expect(label: str, found: list, name: str, ok: bool) -> None:
    (check,) = [c for c in found if c.name == name]
    verdict = "accepts" if check.ok else "rejects"
    print(f"{label:<48} {name:<40} {verdict}")
    if check.ok != ok:
        FAILURES.append(f"{label}: {name}")


def run_to_end(steps) -> dict:
    """Run a workload's timed step to its end and return its outputs."""
    try:
        while True:
            next(steps)
    except StopIteration as done:
        return done.value


def expect_all_pass(label: str, found: list) -> None:
    bad = [c.name for c in found if not c.ok]
    print(f"{label:<48} {len(found)} checks, {len(bad)} rejected {bad}")
    FAILURES.extend(f"{label}: {name}" for name in bad)


def shifted(prices: dict, label: tuple, factor: float = 1.01) -> dict:
    out = dict(prices)
    out[label] *= factor
    return out


def strip_cases() -> None:
    cases = wl.setup_price_strip(seed=0)
    spot = wl.S0_REF
    prices = run_to_end(wl.run_price_strip(cases["wasc"]))
    expect_all_pass("wasc strip as computed",
                    checks.strip_properties("wasc", prices, spot))
    atm = sorted(k for kind, a, k in (lbl for lbl in prices
                                      if lbl[0] == "call") if a == 0)[2]
    bad = checks.strip_properties("wasc", shifted(prices, ("call", 0, atm)),
                                  spot)
    expect("ATM call +1%", bad, f"wasc/put_call_parity[0,{atm:.4g}]", False)
    cc = next(lbl for lbl in prices if lbl[:2] == ("quadrant", "cc"))
    bad = checks.strip_properties("wasc", shifted(prices, cc), spot)
    expect("cc quadrant +1%", bad, "wasc/quadrant_parity", False)

    frozen = run_to_end(wl.run_price_strip(cases["frozen"]))
    cov = checks.frozen_integrated_cov(wl.M_REF, wl.SIGMA0_REF, wl.HORIZON)
    expect_all_pass("zero vol-of-vol strip as computed",
                    checks.frozen_prices(frozen, spot, cov))
    for kind in ("cc", "cp", "pc", "pp"):
        lbl = next(lbl for lbl in frozen if lbl[:2] == ("quadrant", kind))
        expect(f"zero vol-of-vol {kind} quadrant -1%",
               checks.frozen_prices(shifted(frozen, lbl, 0.99), spot, cov),
               f"frozen/quadrant_{kind}", False)


def hedge_cases() -> None:
    case = wl.setup_fourier_hedge(seed=0)["wasc"]
    out = run_to_end(wl.run_fourier_hedge(case))
    found = checks.check_fourier_hedge("wasc", case, out, {})
    expect_all_pass("wasc Fourier hedge as computed", found)
    pnl = dict(out["pnl"])
    pnl["fourier"], pnl["gbm_delta"] = pnl["gbm_delta"], pnl["fourier"]
    expect("Fourier and GBM-delta P&L swapped",
           [checks.hedge_ranking("wasc", pnl)], "wasc/hedge_rmse_rank", False)
    # a hedge started from a wrong price carries the error into every
    # path's wealth, so the P&L shifts with it
    price, se = out["price"], np.std(out["pnl"]["fourier"]) / np.sqrt(
        wl.FH_PATHS)
    wrong = checks.price_vs_control_variate(
        "wasc", price + 8.0 * se, out["payoff"],
        out["pnl"]["fourier"] + 8.0 * se)
    expect("Fourier price 8 SE too high", [wrong], "wasc/price_vs_cv_mc",
           False)


def strike_cases() -> None:
    state = wl.reference_state()
    for kind in wl.MODELS:
        params = wl.reference_params(kind)
        sim = simulate.simulate(params, state, wl.HORIZON, 50, 4096,
                                seed=11)
        build = (covswap.wasc_covswap_system if kind == "wasc"
                 else covswap.bns_covswap_system)
        for pair in wl.CS_PAIRS:
            closed = checks.closed_form_strike(params, state.cov, wl.HORIZON,
                                               pair)
            bracket = sim.integrated_cov[:, -1, pair[0], pair[1]]
            strike = build(params, state.cov, wl.HORIZON, pair, 50).fair_strike
            name = f"{kind}/fair_strike{pair}"
            expect(f"{kind} closed-form strike", [checks.fair_strike(
                kind, pair, closed, closed, bracket)], name, True)
            expect(f"{kind} strike of {build.__name__}", [checks.fair_strike(
                kind, pair, strike, closed, bracket)], name, kind == "wasc")


def main() -> int:
    strip_cases()
    hedge_cases()
    strike_cases()
    if FAILURES:
        print("self-test FAILED:", *FAILURES, sep="\n  ")
        return 1
    print("self-test passed: every check accepts the true output and "
          "rejects each wrong one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
