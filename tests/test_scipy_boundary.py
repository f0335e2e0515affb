"""Where covhedge needs scipy: every module but ``gbm`` imports without it,
and so do simulation, the covariance-swap hedge, Fourier prices of the
one-sided legs and of the spread, the Fourier hedge and the transform
engine's flow fallback for a node off the eigen route.  Only the GBM
comparator's normal law loads it, where it is called.

The suite's oracles have loaded scipy into this process, so the checks run
in a fresh interpreter with scipy refused by a meta path finder."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

import covhedge
from covhedge import models

from conftest import S0_3, SIGMA0_3, three_asset_params

SCRIPT = r'''
import importlib
import json
import pickle
import pkgutil
import sys


class RefuseScipy:
    """A meta path finder that refuses scipy and all its submodules."""

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused", name=name)
        return None


sys.meta_path.insert(0, RefuseScipy())

import numpy as np

import covhedge
from covhedge import payoffs, simulate, transforms
from covhedge.hedging import backtest, covswap, pricing

wasc, bns, state, wasc_3, state_3, jordan, nodes = pickle.load(sys.stdin.buffer)

# every step below must run without scipy
for info in pkgutil.walk_packages(covhedge.__path__, prefix="covhedge."):
    if info.name != "covhedge.gbm":
        importlib.import_module(info.name)
sims = {params.kind: simulate.simulate(params, state, 1.0, 10, 64, seed=3)
        for params in (wasc, bns)}
simulate.simulate(wasc_3, state_3, 1.0, 10, 64, seed=3)
for params, build in ((wasc, covswap.wasc_covswap_system),
                      (bns, covswap.bns_covswap_system)):
    sim = sims[params.kind]
    system = build(params, state.cov, 1.0, (0, 1), 10)
    backtest.run_backtest(sim, [backtest.HedgeJob(
        "covswap", backtest.CovswapHedge(system, params),
        covswap.covswap_payoff(system, sim.integrated_cov), 0.0)])
quadrant = payoffs.quadrant_option(2, "cc", (0, 1), (100.0, 100.0))
spread = payoffs.spread_option(2, 0, 1, 5.0)
for params in (wasc, bns):
    pricing.fourier_price(params, state, 1.0, payoffs.call_option(2, 0, 100.0))
    pricing.fourier_price(params, state, 1.0, quadrant)
    pricing.fourier_price(params, state, 1.0, spread)
    contour = payoffs.build_contour(quadrant, nodes_per_dim=4)
    cache = backtest.BasisCache(params, contour.model_args, 1.0)
    cache.prepare(sims[params.kind])
    backtest.run_backtest(sims[params.kind], [backtest.HedgeJob(
        "fourier", backtest.FourierHedge(params, cache, contour.weights),
        quadrant.payoff, 10.0)])
assert transforms.transform_grid(jordan, [0.3, 1.0], nodes).valid.all()


def refused_import(call):
    """The module whose import failed in call, or None if none did."""
    try:
        call()
    except ImportError as exc:
        return exc.name
    return None


refused = {
    "import gbm": refused_import(
        lambda: importlib.import_module("covhedge.gbm")),
    "GbmDeltaHedge": refused_import(
        lambda: backtest.GbmDeltaHedge("cc", (100.0, 100.0), (0.3, 0.3),
                                       0.5, 1.0)),
}
print(json.dumps(refused))
'''


def test_scipy_loads_only_where_it_is_called(wasc_ref, bns_ref, state_ref):
    # the Jordan-block set of test_defective_hamiltonian_falls_back_to_expm,
    # whose fallback flow comes from matcalc.lift_flows: every node of it is
    # off the eigen route
    jordan = models.WascParams(d=2, mean_rev=np.array([[-1.0, 1.0],
                                                       [0.0, -1.0]]),
                               vol_of_vol=np.zeros((2, 2)),
                               leverage=np.zeros(2), omega=0.05 * np.eye(2))
    nodes = np.array([[1.5 + 0.7j, 1.5 - 1.3j], [1.5 + 3.2j, 1.5 + 0.4j]])
    inputs = pickle.dumps((
        wasc_ref, bns_ref, state_ref, three_asset_params("wasc"),
        models.MarketState.from_spot(t=0.0, spot=S0_3, cov=SIGMA0_3),
        jordan, nodes))
    src = str(Path(covhedge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", SCRIPT], input=inputs,
                          capture_output=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    refused = json.loads(done.stdout.decode().strip().splitlines()[-1])
    assert refused == {"import gbm": "scipy", "GbmDeltaHedge": "scipy"}
