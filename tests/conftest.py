"""Shared fixtures: the two-asset reference parameter set used across the
test suite (matrix vol-of-vol A, mean reversion M, leverage rho, Wishart
shape alpha, initial covariance and spots), ``three_asset_params``, a
three-asset set per model, ``inadmissible_params``, which builds one
rejected set per model, ``basis_at``, the basis claim H at one market state
through the lattice engine, and a derandomized hypothesis profile."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

# the property tests check the same examples on every run and interpreter
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# Two-asset reference parameter set (used by most integration-level tests).
A_REF = np.array([[0.21, 0.14], [0.14, 0.21]])
M_REF = np.array([[-2.5, -1.5], [-1.5, -2.5]])
RHO_REF = np.array([-0.6, -0.3])
ALPHA_REF = 7.14283
SIGMA0_REF = np.array([[0.10, 0.07], [0.07, 0.10]])
S0_REF = np.array([100.0, 100.0])
HORIZON_REF = 1.0
STEPS_REF = 250

# a three-asset set of each model: d > 2 takes the eigendecomposition
# branches of the diffusion transform and of psd_repair in the simulation
M_3 = np.array([[-2.5, -0.5, -0.3], [-0.5, -2.0, -0.4], [-0.3, -0.4, -3.0]])
SIGMA0_3 = np.array([[0.10, 0.03, 0.02], [0.03, 0.09, 0.025],
                     [0.02, 0.025, 0.12]])
S0_3 = np.array([100.0, 90.0, 110.0])


@pytest.fixture(scope="session")
def wasc_ref():
    from covhedge import models

    return models.WascParams(
        d=2,
        mean_rev=M_REF.copy(),
        vol_of_vol=A_REF.copy(),
        leverage=RHO_REF.copy(),
        alpha=ALPHA_REF,
    )


@pytest.fixture(scope="session")
def bns_ref():
    from covhedge import models

    return models.BnsParams(
        d=2,
        mean_rev=M_REF.copy(),
        jump_intensity=3.0,
        wishart_shape=3.0,
        wishart_scale=np.array([[0.02, 0.008], [0.008, 0.02]]),
        leverage_diag=np.array([-0.8, -0.5]),
    )


@pytest.fixture(scope="session")
def state_ref():
    from covhedge import models

    return models.MarketState.from_spot(t=0.0, spot=S0_REF.copy(),
                                        cov=SIGMA0_REF.copy())


def inadmissible_params(kind: str):
    """Build a set outside the model's admissible domain, one per model,
    which raises at construction: the wasc reference set with leverage
    (0.9, 0.9), so rho'rho = 1.62 > 1, and the bns reference set with jump
    intensity -3.  Unchecked, both give plausible wrong numbers: the first
    priced the ATM call on asset 0 at 10.553 (10.311 at the reference set)
    and gave a hedged swap variance of -1.03e-4; the second priced that call
    at 0.0."""
    from covhedge import models

    if kind == "wasc":
        return models.WascParams(d=2, mean_rev=M_REF, vol_of_vol=A_REF,
                                 leverage=[0.9, 0.9], alpha=ALPHA_REF)
    return models.BnsParams(d=2, mean_rev=M_REF, jump_intensity=-3.0,
                            wishart_shape=3.0,
                            wishart_scale=np.array([[0.02, 0.008],
                                                    [0.008, 0.02]]),
                            leverage_diag=np.array([-0.8, -0.5]))


def three_asset_params(kind: str):
    """The three-asset set of a model (M_3 above)."""
    from covhedge import models

    if kind == "wasc":
        return models.WascParams(
            d=3, mean_rev=M_3,
            vol_of_vol=np.array([[0.15, 0.03, 0.02], [0.03, 0.14, 0.03],
                                 [0.02, 0.03, 0.16]]),
            leverage=np.array([-0.5, -0.3, -0.2]), alpha=8.0)
    return models.BnsParams(
        d=3, mean_rev=M_3, jump_intensity=3.0, wishart_shape=4.0,
        wishart_scale=np.array([[0.02, 0.006, 0.004], [0.006, 0.018, 0.005],
                                [0.004, 0.005, 0.022]]),
        leverage_diag=np.array([-0.6, -0.5, -0.4]))


def basis_at(params, state, horizon: float, u) -> complex:
    """H_t(u) = E[exp(u'Y_T) | F_t] from a 1 x 1 transform lattice and
    ``oracles.basis_from_eval``; nan where the transform is invalid or the
    exponent passes the overflow guard."""
    import oracles
    from covhedge import transforms

    u = np.asarray(u, dtype=complex)
    tau = horizon - state.t
    grid = transforms.transform_grid(params, [tau], u[None])
    ev = oracles.TransformEval(tau=tau, u=u, phi=grid.phi[0, 0],
                               psi=grid.psi[0, 0],
                               valid=bool(grid.valid[0, 0]))
    return oracles.basis_from_eval(ev, state)
