"""Transform layer: the lattice engine against independent ODE and
quadrature oracles, model reductions, flow identities and domain-validity
flags."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from covhedge import models, payoffs, transforms
from covhedge.hedging import pricing

import oracles
from conftest import (ALPHA_REF, A_REF, M_REF, RHO_REF, S0_3, S0_REF,
                      SIGMA0_3, SIGMA0_REF, basis_at, inadmissible_params,
                      three_asset_params)

# complex arguments typical of a damped Fourier contour
CONTOUR_NODES = [
    np.array([1.5 + 0.7j, 1.5 - 1.3j]),
    np.array([1.5 + 3.2j, 1.5 + 0.4j]),
    np.array([-0.5 - 2.1j, -0.5 + 5.0j]),
]
TAUS = [0.1, 0.35, 1.0]


def at(params, tau, u):
    """(psi, phi, valid) at one (tau, u) from a 1 x 1 lattice."""
    grid = transforms.transform_grid(params, [tau], np.asarray(u)[None])
    return grid.psi[0, 0], grid.phi[0, 0], bool(grid.valid[0, 0])


def wasc_flow_map(params, s, u, v):
    """psi after s more units of time from psi = v: (Theta_22 + v Theta_12)
    ^{-1} (Theta_21 + v Theta_11) with Theta = expm(s Ham) from scipy."""
    d = params.d
    theta = scipy.linalg.expm(s * transforms.wasc_hamiltonian(params, u))
    return np.linalg.solve(theta[d:, d:] + v @ theta[:d, d:],
                           theta[d:, :d] + v @ theta[:d, :d])


class TestWascPsi:
    def test_zero_tau_returns_initial(self, wasc_ref):
        psi, phi, ok = at(wasc_ref, 0.0, np.array([1.0, 2.0]))
        assert ok and np.all(psi == 0) and phi == 0

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("node", range(len(CONTOUR_NODES)))
    def test_matches_ode_oracle(self, wasc_ref, tau, node):
        u = CONTOUR_NODES[node]
        psi, _, ok = at(wasc_ref, tau, u)
        assert ok
        ref = oracles.integrate_riccati(tau, u, A_REF, M_REF, RHO_REF)
        assert np.max(np.abs(psi - ref)) < 1e-8

    def test_matches_ode_oracle_nonzero_initial(self, wasc_ref):
        # the ODE restarted at the lattice's psi(0.6) reaches its psi(1.2)
        u = CONTOUR_NODES[0]
        grid = transforms.transform_grid(wasc_ref, [0.6, 1.2], u[None])
        assert np.all(grid.valid)
        ref = oracles.integrate_riccati(0.6, u, A_REF, M_REF, RHO_REF,
                                        v0=grid.psi[0, 0])
        assert np.max(np.abs(grid.psi[1, 0] - ref)) < 1e-8

    @pytest.mark.parametrize("k", [0, 1])
    def test_unit_vector_argument_vanishes(self, wasc_ref, k):
        # u = e_k makes the quadratic source term vanish identically
        u = np.zeros(2)
        u[k] = 1.0
        psi, _, ok = at(wasc_ref, 1.0, u)
        assert ok
        assert np.max(np.abs(psi)) < 1e-12

    def test_flow_property(self, wasc_ref):
        # psi(0.75) is the Hamiltonian flow map over 0.35 applied to psi(0.4)
        u = CONTOUR_NODES[1]
        grid = transforms.transform_grid(wasc_ref, [0.4, 0.75], u[None])
        assert np.all(grid.valid)
        moved = wasc_flow_map(wasc_ref, 0.35, u, grid.psi[0, 0])
        assert np.max(np.abs(moved - grid.psi[1, 0])) < 1e-8

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-4, 4), min_size=4, max_size=4),
           st.floats(0.05, 1.2))
    def test_conjugate_symmetry(self, parts, tau):
        params = models.WascParams(d=2, mean_rev=M_REF, vol_of_vol=A_REF,
                                   leverage=RHO_REF, alpha=7.14283)
        u = np.array([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])
        grid = transforms.transform_grid(params, [tau], np.stack([u, u.conj()]))
        assert grid.valid[0, 0] == grid.valid[0, 1]
        if grid.valid[0, 0]:
            assert np.max(np.abs(grid.psi[0, 1] - grid.psi[0, 0].conj())) < 1e-12

    def test_invalid_at_singular_flow_crossing(self):
        # zero drift, zero leverage, d = 1: the flow blocks are sine/cosine
        # and the denominator crosses zero at tau = pi / (2 sqrt(2)) for u = 2
        params = models.WascParams(d=1, mean_rev=np.zeros((1, 1)),
                                   vol_of_vol=np.eye(1),
                                   leverage=np.zeros(1), alpha=0.0)
        tau_star = np.pi / (2.0 * np.sqrt(2.0))
        psi, phi, ok = at(params, tau_star, np.array([2.0]))
        assert not ok
        assert np.all(np.isnan(psi.real)) and np.isnan(phi.real)
        # just before the crossing the evaluation is fine
        psi, _, ok = at(params, 0.9 * tau_star, np.array([2.0]))
        assert ok and np.all(np.isfinite(psi))

    @pytest.mark.parametrize("tau", [50.0, 400.0])
    def test_long_maturity_solves_algebraic_riccati(self, wasc_ref, tau):
        # no companion of these nodes explodes, so they stay valid; far out
        # psi has settled on the stationary point of the Riccati equation,
        # 2 psi G psi + psi F + F' psi + D = 0, where Theta_22 itself is
        # singular to working precision (tau = 50) or overflows (tau = 400)
        nodes = np.stack(CONTOUR_NODES)
        grid = transforms.transform_grid(wasc_ref, [tau], nodes)
        assert np.all(grid.valid)
        ham = transforms.wasc_hamiltonian(wasc_ref, nodes)
        f, g, src = ham[:, :2, :2], -0.5 * ham[:, :2, 2:], ham[:, 2:, :2]
        psi = grid.psi[0]
        resid = (2.0 * psi @ g @ psi + psi @ f + f.swapaxes(1, 2) @ psi
                 + src)
        assert np.max(np.abs(resid)) < 1e-12

    def test_rejects_negative_tau(self, wasc_ref):
        with pytest.raises(ValueError):
            transforms.transform_grid(wasc_ref, [-0.1], [[1.0, 0.0]])


class TestWascPhi:
    def test_zero_tau(self, wasc_ref):
        _, phi, ok = at(wasc_ref, 0.0, CONTOUR_NODES[0])
        assert ok and phi == 0

    @pytest.mark.parametrize("node", range(len(CONTOUR_NODES)))
    def test_matches_ode_oracle(self, wasc_ref, node):
        u = CONTOUR_NODES[node]
        _, phi, ok = at(wasc_ref, 0.8, u)
        assert ok
        ref = oracles.integrate_phi(0.8, u, wasc_ref.omega, A_REF, M_REF,
                                    RHO_REF)
        assert abs(phi - ref) < 1e-8

    def test_additive_along_the_flow(self, wasc_ref):
        # phi(0.8) - phi(0.5) is phi over 0.3 from the initial value psi(0.5)
        u = CONTOUR_NODES[0]
        grid = transforms.transform_grid(wasc_ref, [0.5, 0.8], u[None])
        assert np.all(grid.valid)
        rest = oracles.integrate_phi(0.3, u, wasc_ref.omega, A_REF, M_REF,
                                     RHO_REF, v0=grid.psi[0, 0])
        assert abs((grid.phi[0, 0] + rest) - grid.phi[1, 0]) < 1e-8

    def test_unit_vector_argument_vanishes(self, wasc_ref):
        _, phi, ok = at(wasc_ref, 1.0, np.array([0.0, 1.0]))
        assert ok and abs(phi) < 1e-12


class TestBnsTransforms:
    def test_zero_tau(self, bns_ref):
        psi, phi, ok = at(bns_ref, 0.0, np.array([1.0 + 1j, -0.5]))
        assert ok and np.all(psi == 0) and phi == 0

    def test_psi_linear_in_time_without_mean_reversion(self):
        params = models.BnsParams(d=2, mean_rev=np.zeros((2, 2)),
                                  jump_intensity=2.0, wishart_shape=3.0,
                                  wishart_scale=np.eye(2) * 0.02,
                                  leverage_diag=np.array([-0.5, -0.5]))
        u = np.array([1.2 + 0.3j, -0.7 + 1.1j])
        dmat = 0.5 * (np.outer(u, u) - np.diag(u))
        grid = transforms.transform_grid(params, [0.2, 1.0], u[None])
        assert np.all(grid.valid)
        for k, tau in enumerate((0.2, 1.0)):
            assert np.max(np.abs(grid.psi[k, 0] - tau * dmat)) < 1e-12

    def test_psi_closed_form_vs_quadrature(self, bns_ref):
        u = np.array([0.8 - 1.4j, 1.5 + 0.2j])
        tau = 0.7
        psi, _, ok = at(bns_ref, tau, u)
        assert ok
        dmat = 0.5 * (np.outer(u, u) - np.diag(u))
        x, w = np.polynomial.legendre.leggauss(200)
        s = 0.5 * tau * (x + 1.0)
        ws = 0.5 * tau * w
        ref = np.zeros((2, 2), dtype=complex)
        for si, wi in zip(s, ws):
            es = oracles.series_expm(bns_ref.mean_rev * si)
            ref += wi * (es.T @ dmat @ es)
        assert np.max(np.abs(psi - ref)) < 1e-10

    def test_flow_property(self, bns_ref):
        # psi(0.75) = e^{0.3 M'} psi(0.45) e^{0.3 M} + psi(0.3), and phi(0.75)
        # - phi(0.45) is phi over 0.3 from the initial value psi(0.45)
        u = np.array([1.5 + 2.0j, 1.5 - 0.8j])
        grid = transforms.transform_grid(bns_ref, [0.3, 0.45, 0.75], u[None])
        assert np.all(grid.valid)
        e = scipy.linalg.expm(0.3 * bns_ref.mean_rev)
        moved = e.T @ grid.psi[1, 0] @ e + grid.psi[0, 0]
        assert np.max(np.abs(moved - grid.psi[2, 0])) < 1e-10
        rest, _ = oracles.bns_phi_quadrature(
            0.3, u, M_REF, bns_ref.jump_intensity, bns_ref.wishart_shape,
            bns_ref.wishart_scale, bns_ref.leverage_diag, v0=grid.psi[1, 0])
        assert abs((grid.phi[1, 0] + rest) - grid.phi[2, 0]) < 1e-9

    def test_conjugate_symmetry(self, bns_ref):
        u = np.array([0.9 + 1.7j, -0.4 - 0.6j])
        grid = transforms.transform_grid(bns_ref, [0.6], np.stack([u, u.conj()]))
        assert np.max(np.abs(grid.psi[0, 1] - grid.psi[0, 0].conj())) < 1e-12
        assert abs(grid.phi[0, 1] - np.conj(grid.phi[0, 0])) < 1e-12

    def test_strip_violation_flags_invalid(self, bns_ref):
        _, phi, ok = at(bns_ref, 1.0, np.array([25.0, 0.0]))
        assert not ok
        assert np.isnan(phi.real)


class TestBasisValue:
    @pytest.mark.parametrize("k", [0, 1])
    def test_martingale_normalization_wasc(self, wasc_ref, state_ref, k):
        u = np.zeros(2)
        u[k] = 1.0
        val = basis_at(wasc_ref, state_ref, 1.0, u)
        assert abs(val - S0_REF[k]) < 1e-6

    @pytest.mark.parametrize("k", [0, 1])
    def test_martingale_normalization_bns(self, bns_ref, state_ref, k):
        u = np.zeros(2)
        u[k] = 1.0
        val = basis_at(bns_ref, state_ref, 1.0, u)
        assert abs(val - S0_REF[k]) < 1e-6

    def test_zero_argument_gives_one(self, wasc_ref, state_ref):
        val = basis_at(wasc_ref, state_ref, 1.0, np.zeros(2))
        assert abs(val - 1.0) < 1e-12

    def test_heston_reduction_one_dimension(self):
        params = models.WascParams(d=1, mean_rev=np.array([[-1.2]]),
                                   vol_of_vol=np.array([[0.3]]),
                                   leverage=np.array([-0.7]), alpha=2.5)
        v0 = 0.09
        y0 = float(np.log(100.0))
        state = models.MarketState(0.0, np.array([y0]), np.array([[v0]]))
        kappa, sigma = 2.4, 0.6
        theta = params.omega[0, 0] / kappa
        for u in (1.5 + 2.0j, 0.5 - 1.0j, -0.5 + 0.3j):
            for tau in (0.25, 0.8):
                val = basis_at(params, state, tau, np.array([u]))
                ref = oracles.heston_cf(u, tau, y0, v0, kappa, theta, sigma,
                                        -0.7)
                assert abs(val - ref) / abs(ref) < 1e-8

    def test_overflow_guard(self, wasc_ref):
        state = models.MarketState(0.0, np.array([705.0, 0.0]),
                                   SIGMA0_REF)
        val = basis_at(wasc_ref, state, 1.0, np.array([1.0, 0.0]))
        assert np.isnan(val.real)
        state = models.MarketState(0.0, np.array([600.0, 0.0]),
                                   SIGMA0_REF)
        val = basis_at(wasc_ref, state, 1.0, np.array([1.0, 0.0]))
        assert np.isfinite(val.real)


class TestTransformGrid:
    TAU_GRID = np.array([0.0, 0.2, 0.55, 1.0])

    def test_wasc_grid_matches_scalar(self, wasc_ref):
        # every lattice entry against the pointwise ODE oracles
        nodes = np.stack(CONTOUR_NODES)
        grid = transforms.transform_grid(wasc_ref, self.TAU_GRID, nodes)
        assert grid.phi.shape == (4, 3)
        assert grid.psi.shape == (4, 3, 2, 2)
        assert np.all(grid.valid)
        for k, tau in enumerate(self.TAU_GRID):
            for m in range(3):
                psi = oracles.integrate_riccati(tau, nodes[m], A_REF, M_REF,
                                                RHO_REF)
                phi = (oracles.integrate_phi(tau, nodes[m], wasc_ref.omega,
                                             A_REF, M_REF, RHO_REF)
                       if tau > 0 else 0.0)
                assert np.max(np.abs(grid.psi[k, m] - psi)) < 1e-8
                assert abs(grid.phi[k, m] - phi) < 1e-8

    def test_bns_grid_matches_scalar(self, bns_ref):
        # every lattice entry against the pointwise quadrature oracle
        nodes = np.stack(CONTOUR_NODES)
        grid = transforms.transform_grid(bns_ref, self.TAU_GRID, nodes)
        assert np.all(grid.valid)
        for k, tau in enumerate(self.TAU_GRID):
            for m in range(3):
                phi, psi = oracles.bns_phi_quadrature(
                    tau, nodes[m], M_REF, bns_ref.jump_intensity,
                    bns_ref.wishart_shape, bns_ref.wishart_scale,
                    bns_ref.leverage_diag)
                assert np.max(np.abs(grid.psi[k, m] - psi)) < 1e-8
                assert abs(grid.phi[k, m] - phi) < 1e-8

    # three assets, off the real axis in every coordinate
    NODES_3 = np.array([[1.5 + 0.7j, -0.5 - 1.3j, 0.4 + 0.9j],
                        [0.8 - 2.1j, 1.2 + 0.4j, -0.3 - 0.6j],
                        [-0.5 + 3.0j, 0.6 - 0.2j, 1.1 + 1.7j]])

    @pytest.mark.parametrize("kind", ["wasc", "bns"])
    def test_three_asset_grid_matches_oracles(self, kind):
        # the engine's entry loops run at d = 3 as at d = 2 (the diffusion
        # eigen-split takes np.linalg.eig there)
        params = three_asset_params(kind)
        taus = [0.4, 1.0]
        grid = transforms.transform_grid(params, taus, self.NODES_3)
        assert np.all(grid.valid)
        for k, tau in enumerate(taus):
            for m, u in enumerate(self.NODES_3):
                if kind == "wasc":
                    model = (params.vol_of_vol, params.mean_rev,
                             params.leverage)
                    psi = oracles.integrate_riccati(tau, u, *model)
                    phi = oracles.integrate_phi(tau, u, params.omega, *model)
                else:
                    phi, psi = oracles.bns_phi_quadrature(
                        tau, u, params.mean_rev, params.jump_intensity,
                        params.wishart_shape, params.wishart_scale,
                        params.leverage_diag)
                assert np.max(np.abs(grid.psi[k, m] - psi)) < 1e-8
                assert abs(grid.phi[k, m] - phi) < 1e-8

    def test_zero_tau_row_is_trivial(self, wasc_ref):
        grid = transforms.transform_grid(wasc_ref, [0.0],
                                         np.stack(CONTOUR_NODES))
        assert np.all(grid.valid)
        assert np.all(grid.phi == 0) and np.all(grid.psi == 0)

    def test_invalid_column_marked(self, bns_ref):
        nodes = np.array([[1.5 + 1j, 1.5], [25.0, 0.0]])
        grid = transforms.transform_grid(bns_ref, [1.0], nodes)
        assert np.all(grid.valid[:, 0])
        assert not np.any(grid.valid[:, 1])

    def test_rejects_negative_tau(self, wasc_ref):
        with pytest.raises(ValueError):
            transforms.transform_grid(wasc_ref, [-0.5],
                                      np.stack(CONTOUR_NODES))

    @pytest.mark.parametrize("model", ["wasc", "bns"])
    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_rejects_non_finite_tau(self, model, tau, wasc_ref, bns_ref):
        # the panel rule would otherwise fail on it with a numpy shape error
        params = wasc_ref if model == "wasc" else bns_ref
        with pytest.raises(ValueError, match="finite and nonnegative"):
            transforms.transform_grid(params, [0.5, tau],
                                      np.stack(CONTOUR_NODES))

    @pytest.mark.parametrize("model", ["wasc", "bns"])
    def test_no_nodes_give_an_empty_lattice(self, model, wasc_ref, bns_ref):
        params = wasc_ref if model == "wasc" else bns_ref
        grid = transforms.transform_grid(params, [0.0, 0.5, 1.0],
                                         np.zeros((0, 2), dtype=complex))
        assert grid.phi.shape == grid.valid.shape == (3, 0)
        assert grid.psi.shape == (3, 0, 2, 2)
        assert grid.phi_quadrature.shape == (0,)

    @pytest.mark.parametrize("kind", ["wasc", "bns"])
    def test_rejects_inadmissible_params(self, kind):
        # the set raises when built, before any lattice is evaluated on it
        with pytest.raises(ValueError, match="invalid model parameters"):
            transforms.transform_grid(inadmissible_params(kind), [0.5],
                                      np.stack(CONTOUR_NODES))

    @pytest.mark.parametrize("width", [1, 3])
    def test_rejects_nodes_of_wrong_width(self, width, wasc_ref):
        with pytest.raises(ValueError, match="2 columns"):
            transforms.transform_grid(wasc_ref, [0.5],
                                      np.full((4, width), 1.5 + 0j))

    # unsorted, with a repeat and a zero: rows come back in the given order
    MIXED_TAUS = np.array([0.7, 0.0, 0.25, 0.7, 1.3, 0.05])

    def test_wasc_unsorted_grid_matches_ode(self, wasc_ref):
        nodes = np.stack(CONTOUR_NODES)
        grid = transforms.transform_grid(wasc_ref, self.MIXED_TAUS, nodes)
        assert np.all(grid.valid)
        assert np.array_equal(grid.phi[0], grid.phi[3])
        assert np.all(grid.phi[1] == 0) and np.all(grid.psi[1] == 0)
        for k, tau in enumerate(self.MIXED_TAUS):
            if tau == 0.0 or k == 3:
                continue
            for m, u in enumerate(nodes):
                psi = oracles.integrate_riccati(tau, u, A_REF, M_REF, RHO_REF)
                phi = oracles.integrate_phi(tau, u, wasc_ref.omega, A_REF,
                                            M_REF, RHO_REF)
                assert np.max(np.abs(grid.psi[k, m] - psi)) < 1e-8
                assert abs(grid.phi[k, m] - phi) < 1e-8

    def test_bns_unsorted_grid_matches_quadrature(self, bns_ref):
        nodes = np.stack(CONTOUR_NODES)
        grid = transforms.transform_grid(bns_ref, self.MIXED_TAUS, nodes)
        assert np.all(grid.valid)
        assert np.array_equal(grid.psi[0], grid.psi[3])
        assert np.all(grid.phi[1] == 0) and np.all(grid.psi[1] == 0)
        for k, tau in enumerate(self.MIXED_TAUS):
            if tau == 0.0 or k == 3:
                continue
            for m, u in enumerate(nodes):
                phi, psi = oracles.bns_phi_quadrature(
                    tau, u, M_REF, bns_ref.jump_intensity,
                    bns_ref.wishart_shape, bns_ref.wishart_scale,
                    bns_ref.leverage_diag)
                assert np.max(np.abs(grid.psi[k, m] - psi)) < 1e-10
                assert abs(grid.phi[k, m] - phi) < 1e-8

    def test_validity_propagates_forward_in_tau(self):
        # d = 1, zero drift and leverage, u = 2: the flow crosses a pole at
        # tau* = pi / (2 sqrt 2); past it the closed form is finite again
        params = models.WascParams(d=1, mean_rev=np.zeros((1, 1)),
                                   vol_of_vol=np.eye(1),
                                   leverage=np.zeros(1), alpha=0.0)
        tau_star = np.pi / (2.0 * np.sqrt(2.0))
        taus = np.array([2.0, 0.5, tau_star, 1.0, 1.2])
        grid = transforms.transform_grid(params, taus, np.array([[2.0]]))
        assert grid.valid[:, 0].tolist() == [False, True, False, True, False]
        assert np.isfinite(wasc_flow_map(params, 2.0, np.array([2.0]),
                                         np.zeros((1, 1)))).all()
        assert np.all(np.isnan(grid.psi[~grid.valid].real))
        assert np.all(np.isnan(grid.phi[~grid.valid].real))

    def test_wasc_phi_matches_log_det_closed_form(self, wasc_ref):
        # dTheta/dtau = Theta Ham gives phi = -alpha/2 [log det Theta_22(tau)
        # + tau Tr F]; the log branch is followed along a fine tau grid
        d = wasc_ref.d
        fine = np.linspace(0.0, 1.0, 401)
        grid = transforms.transform_grid(wasc_ref, fine[40::40],
                                         np.stack(CONTOUR_NODES))
        assert np.all(grid.valid)
        for m, u in enumerate(CONTOUR_NODES):
            ham = transforms.wasc_hamiltonian(wasc_ref, u)
            dets = np.array([np.linalg.det(scipy.linalg.expm(s * ham)[d:, d:])
                             for s in fine])
            logdet = np.log(np.abs(dets)) + 1j * np.unwrap(np.angle(dets))
            tr_f = np.trace(ham[:d, :d])
            closed = -0.5 * ALPHA_REF * (logdet + fine * tr_f)
            assert np.max(np.abs(grid.phi[:, m] - closed[40::40])) < 1e-10

    def test_long_span_matches_oracles(self, wasc_ref, bns_ref):
        # one 2-year span at a fast-turning node: the panel rule holds 1e-14
        # where a single 8-point panel over the span is off by about 6e-7
        u = np.array([1.5 + 6.0j, 1.5 - 4.0j])
        wasc = transforms.transform_grid(wasc_ref, [2.0], u[None])
        bns = transforms.transform_grid(bns_ref, [2.0], u[None])
        assert wasc.valid[0, 0] and bns.valid[0, 0]
        ref = oracles.integrate_phi(2.0, u, wasc_ref.omega, A_REF, M_REF,
                                    RHO_REF)
        assert abs(wasc.phi[0, 0] - ref) < 1e-10
        ref, _ = oracles.bns_phi_quadrature(
            2.0, u, M_REF, bns_ref.jump_intensity, bns_ref.wishart_shape,
            bns_ref.wishart_scale, bns_ref.leverage_diag)
        assert abs(bns.phi[0, 0] - ref) < 1e-10

    def test_defective_hamiltonian_falls_back_to_expm(self):
        # a Jordan-block drift without vol-of-vol makes the Hamiltonian
        # defective: its eigenvector basis is singular to working precision
        params = models.WascParams(d=2, mean_rev=np.array([[-1.0, 1.0],
                                                           [0.0, -1.0]]),
                                   vol_of_vol=np.zeros((2, 2)),
                                   leverage=np.zeros(2), omega=0.05 * np.eye(2))
        nodes = np.stack(CONTOUR_NODES[:2])
        _, q = np.linalg.eig(transforms.wasc_hamiltonian(params, nodes))
        assert np.all(np.linalg.cond(q) > 1e10)
        grid = transforms.transform_grid(params, [0.3, 1.0], nodes)
        assert np.all(grid.valid)
        # references from scipy's expm: psi = Theta_22^{-1} Theta_21, and
        # phi by a 64-point Gauss-Legendre rule on Tr(Omega psi(s))
        x, w = np.polynomial.legendre.leggauss(64)
        for k, tau in enumerate([0.3, 1.0]):
            for m, u in enumerate(nodes):
                psi = wasc_flow_map(params, tau, u, np.zeros((2, 2)))
                phi = sum(0.5 * tau * wi * np.trace(params.omega @ wasc_flow_map(
                    params, 0.5 * tau * (xi + 1.0), u, np.zeros((2, 2))))
                    for xi, wi in zip(x, w))
                assert np.max(np.abs(grid.psi[k, m] - psi)) < 1e-12
                assert abs(grid.phi[k, m] - phi) < 1e-12

    def test_defective_hamiltonian_valid_at_long_maturity(self):
        # without vol-of-vol the covariance is deterministic and every
        # moment is finite; at tau = 600 the rows of the fallback's flow
        # (matcalc.lift_flows) reach 1e261, so det Theta_22 itself
        # overflows, yet psi is the flow map's
        params = models.WascParams(d=2, mean_rev=np.array([[-1.0, 1.0],
                                                           [0.0, -1.0]]),
                                   vol_of_vol=np.zeros((2, 2)),
                                   leverage=np.zeros(2), omega=0.05 * np.eye(2))
        nodes = np.stack(CONTOUR_NODES[:2])
        grid = transforms.transform_grid(params, [600.0], nodes)
        assert np.all(grid.valid)
        for m, u in enumerate(nodes):
            psi = wasc_flow_map(params, 600.0, u, np.zeros((2, 2)))
            assert np.max(np.abs(grid.psi[0, m] - psi)) < 1e-12

    @pytest.mark.parametrize("u", [2.0, 2.0 + 0.5j])
    def test_pole_between_evaluated_points(self, u):
        # the real companion u = 2 explodes at tau* = pi / (2 sqrt 2) ~ 1.11,
        # between the evaluated tau = 1 and tau = 2, where the flow itself
        # is finite and well conditioned again
        params = models.WascParams(d=1, mean_rev=np.zeros((1, 1)),
                                   vol_of_vol=np.eye(1),
                                   leverage=np.zeros(1), alpha=1.0)
        grid = transforms.transform_grid(params, [1.0, 2.0], [[u]])
        assert grid.valid[:, 0].tolist() == [True, False]
        assert np.isnan(grid.phi[1, 0].real)
        ref = oracles.integrate_phi(1.0, np.array([u]), params.omega,
                                    np.eye(1), np.zeros((1, 1)), np.zeros(1))
        assert abs(grid.phi[0, 0] - ref) < 1e-8


def atm_cc_nodes(params, state, nodes_per_dim):
    """The contour fourier_price builds for the ATM cc quadrant at T = 1,
    on the first and the last asset."""
    kernel = payoffs.quadrant_option(params.d, "cc", (0, params.d - 1),
                                     (100.0, 100.0))
    rate = pricing.integrated_cov_rate(params, state, 1.0)
    decay = payoffs.suggest_decay(kernel, rate, 1.0, nodes_per_dim)
    return payoffs.build_contour(kernel, nodes_per_dim=nodes_per_dim,
                                 decay=decay).model_args


def marched_flow(params, tau, nodes, panels, order=16):
    """(phi, psi) at tau: psi carried from panel to panel of equal width by
    the flow map of scipy's expm, and phi by a composite Gauss-Legendre rule
    on Tr(Omega psi(s)) over the offsets within each panel."""
    d = params.d
    width = tau / panels
    x, w = np.polynomial.legendre.leggauss(order)
    offsets = np.append(0.5 * width * (x + 1.0), width)
    theta = scipy.linalg.expm(offsets[:, None, None, None]
                              * transforms.wasc_hamiltonian(params, nodes))
    psi = np.zeros((nodes.shape[0], d, d), dtype=complex)
    phi = np.zeros(nodes.shape[0], dtype=complex)
    for _ in range(panels):
        moved = np.linalg.solve(theta[..., d:, d:] + psi @ theta[..., :d, d:],
                                theta[..., d:, :d] + psi @ theta[..., :d, :d])
        phi += 0.5 * width * np.einsum("p,ab,pmba->m", w, params.omega,
                                       moved[:-1])
        psi = moved[-1]
    return phi, psi


class TestClosedFormPhi:
    """phi = -alpha/2 [log det Theta_22 + tau Tr F] at the knots alone, with
    the log taken from the eigen-split of the Hamiltonian."""

    def test_branch_safe_log_at_two_years(self, wasc_ref, state_ref):
        # the principal log of the plain det Theta_22 jumps branch on a
        # large share of the 1,152 nodes at tau = 2; the factored log keeps
        # phi on the ODE solution
        nodes = atm_cc_nodes(wasc_ref, state_ref, 24)
        grid = transforms.transform_grid(wasc_ref, [2.0], nodes)
        assert np.all(grid.valid) and not np.any(grid.phi_quadrature)
        ham = transforms.wasc_hamiltonian(wasc_ref, nodes)
        theta22 = scipy.linalg.expm(2.0 * ham)[:, 2:, 2:]
        plain = -0.5 * ALPHA_REF * (np.log(np.linalg.det(theta22))
                                    + 2.0 * np.trace(ham[:, :2, :2], axis1=1,
                                                     axis2=2))
        wrong = np.flatnonzero(np.abs(plain - grid.phi[0]) > 1.0)
        assert wrong.size > 100
        for m in wrong[::20]:
            ref = oracles.integrate_phi(2.0, nodes[m], wasc_ref.omega, A_REF,
                                        M_REF, RHO_REF)
            assert abs(grid.phi[0, m] - ref) < 1e-8

    def test_long_maturity_matches_marched_reference(self, wasc_ref,
                                                     state_ref):
        # the factored flow keeps every node of the contour: cond(Theta_22)
        # reaches 1e16 here, and a solve against it loses psi's digits
        nodes = atm_cc_nodes(wasc_ref, state_ref, 24)
        grid = transforms.transform_grid(wasc_ref, [5.0], nodes)
        assert np.all(grid.valid) and not np.any(grid.phi_quadrature)
        phi, psi = marched_flow(wasc_ref, 5.0, nodes, panels=100)
        assert np.max(np.abs(grid.psi[0] - psi)) < 1e-12
        assert np.max(np.abs(grid.phi[0] - phi)) < 1e-7

    def test_closed_form_and_remainder_routes_agree(self, wasc_ref,
                                                    state_ref):
        # the same model built from alpha takes the closed form, built from
        # omega = alpha A'A the remainder quadrature, on the 100 tau x 288
        # node lattice of a hedge on 100 dates
        by_omega = models.WascParams(d=2, mean_rev=M_REF, vol_of_vol=A_REF,
                                     leverage=RHO_REF,
                                     omega=ALPHA_REF * A_REF.T @ A_REF)
        nodes = atm_cc_nodes(wasc_ref, state_ref, 12)
        taus = 1.0 - np.arange(100) / 100.0
        closed = transforms.transform_grid(wasc_ref, taus, nodes)
        quad = transforms.transform_grid(by_omega, taus, nodes)
        assert nodes.shape[0] == 288
        assert not np.any(closed.phi_quadrature)
        assert np.all(quad.phi_quadrature)
        assert np.array_equal(closed.valid, quad.valid)
        ok = closed.valid
        assert np.max(np.abs(closed.psi[ok] - quad.psi[ok])) < 1e-12
        assert np.max(np.abs(closed.phi[ok] - quad.phi[ok])) < 1e-9

    def test_defective_frozen_set_falls_back_with_zero_alpha(self):
        # a Jordan-block drift without vol-of-vol: every node takes the
        # lift_flows fallback, where alpha counts as 0, and the remainder
        # omega - 0 A'A = alpha A'A is zero, so no node needs the panel rule
        params = models.WascParams(d=2, mean_rev=np.array([[-1.0, 1.0],
                                                           [0.0, -1.0]]),
                                   vol_of_vol=np.zeros((2, 2)),
                                   leverage=np.zeros(2), alpha=ALPHA_REF)
        nodes = np.stack(CONTOUR_NODES[:2])
        _, q = np.linalg.eig(transforms.wasc_hamiltonian(params, nodes))
        assert np.all(np.linalg.cond(q) > 1e10)
        grid = transforms.transform_grid(params, [0.3, 1.0], nodes)
        assert np.all(grid.valid) and not np.any(grid.phi_quadrature)
        assert np.max(np.abs(grid.phi)) < 1e-12
        for k, tau in enumerate([0.3, 1.0]):
            for m, u in enumerate(nodes):
                psi = wasc_flow_map(params, tau, u, np.zeros((2, 2)))
                assert np.max(np.abs(grid.psi[k, m] - psi)) < 1e-12

    def test_routes_of_the_reference_sets(self, wasc_ref, bns_ref,
                                          state_ref):
        frozen = models.WascParams(d=2, mean_rev=M_REF,
                                   vol_of_vol=np.zeros((2, 2)),
                                   leverage=RHO_REF, alpha=ALPHA_REF)
        nodes = atm_cc_nodes(wasc_ref, state_ref, 24)
        for params in (wasc_ref, frozen):
            grid = transforms.transform_grid(params, [0.5, 1.0], nodes)
            assert not np.any(grid.phi_quadrature)
        grid = transforms.transform_grid(bns_ref, [0.5, 1.0], nodes)
        assert np.all(grid.phi_quadrature)


class TestPhiPanels:
    """The panel rule of the phi quadrature: one 8-point panel on a span no
    wider than 1/8, equal 16-point panels no wider than 1/2 on a longer
    one."""

    @pytest.mark.parametrize("knots,sizes", [
        # the 100-date hedge lattice: every span one 8-point panel
        (np.arange(1, 101) / 100.0, [8] * 100),
        ([0.125], [8]),
        ([0.1, 0.35, 1.0, 3.0], [8, 16, 32, 64]),
        ([1.0, 1.05, 1.6], [32, 8, 32]),
    ])
    def test_points_and_weights_per_span(self, knots, sizes):
        knots = np.asarray(knots)
        pts, wts, starts = transforms._phi_panels(knots)
        lo = np.concatenate([[0.0], knots[:-1]])
        assert np.diff(np.append(starts, pts.size)).tolist() == sizes
        np.testing.assert_allclose(np.add.reduceat(wts, starts), knots - lo,
                                   rtol=1e-14)
        for k, first in enumerate(starts):
            span = slice(first, first + sizes[k])
            assert np.all((pts[span] > lo[k]) & (pts[span] < knots[k]))
            assert np.all(np.diff(pts[span]) > 0)
            # equal panels of one Gauss-Legendre rule each
            n = 8 if sizes[k] == 8 else 16
            x, w = np.polynomial.legendre.leggauss(n)
            panels = sizes[k] // n
            width = (knots[k] - lo[k]) / panels
            assert width <= (0.125 if n == 8 else 0.5)
            left = lo[k] + width * np.arange(panels)[:, None]
            np.testing.assert_allclose(
                pts[span], (left + 0.5 * width * (x + 1.0)).ravel(),
                rtol=1e-15, atol=1e-15)
            np.testing.assert_allclose(wts[span], np.tile(0.5 * width * w,
                                                          panels), rtol=1e-14)

    def test_bns_unit_span_far_on_the_contour(self, bns_ref, state_ref):
        # the 8 nodes farthest out on the 24-node ATM cc contour, where the
        # jump model's phi turns fastest in s
        nodes = atm_cc_nodes(bns_ref, state_ref, 24)
        far = nodes[np.argsort(-np.abs(nodes.imag).sum(axis=1))[:8]]
        grid = transforms.transform_grid(bns_ref, [1.0], far)
        assert np.all(grid.valid)
        for m, u in enumerate(far):
            ref, _ = oracles.bns_phi_quadrature(
                1.0, u, M_REF, bns_ref.jump_intensity, bns_ref.wishart_shape,
                bns_ref.wishart_scale, bns_ref.leverage_diag)
            assert abs(grid.phi[0, m] - ref) <= 1e-8 * abs(ref)

    def test_wasc_from_omega_on_a_unit_span(self, wasc_ref, state_ref):
        # built from omega the diffusion takes the panel route
        by_omega = models.WascParams(d=2, mean_rev=M_REF, vol_of_vol=A_REF,
                                     leverage=RHO_REF,
                                     omega=ALPHA_REF * A_REF.T @ A_REF)
        nodes = atm_cc_nodes(wasc_ref, state_ref, 24)
        nodes = np.concatenate([
            np.stack(CONTOUR_NODES),
            nodes[np.argsort(-np.abs(nodes.imag).sum(axis=1))[:4]]])
        grid = transforms.transform_grid(by_omega, [1.0], nodes)
        assert np.all(grid.valid) and np.all(grid.phi_quadrature)
        for m, u in enumerate(nodes):
            ref = oracles.integrate_phi(1.0, u, by_omega.omega, A_REF, M_REF,
                                        RHO_REF)
            assert abs(grid.phi[0, m] - ref) <= 1e-8 * abs(ref)


def eig_spectrum(params, nodes):
    """The eigen-split of the Hamiltonians from LAPACK eig and inv, dominant
    modes first, as transforms takes it for d > 2."""
    d = params.d
    ham = transforms.wasc_hamiltonian(params, nodes)
    lam, q = np.linalg.eig(ham)
    dom = np.argsort(-lam.real, axis=-1)
    lam = np.take_along_axis(lam, dom, axis=-1)
    q = np.take_along_axis(q, dom[:, None, :], axis=-1)
    ok = ((np.linalg.cond(q, 1) <= 1e10)
          & (np.linalg.cond(q[:, d:, :d], 1) <= 1e10))
    return transforms._Spectrum(ham, lam, q, np.linalg.inv(q), ok)


def strip_nodes(params, state):
    """The contour nodes fourier_price builds for a strip of one-sided,
    spread, exchange and geometric claims at T = 1, then fixed nodes far
    out on the contours, where the source block D of Ham is large."""
    d = params.d
    if d == 1:
        kernels = [payoffs.call_option(1, 0, 100.0),
                   payoffs.put_option(1, 0, 90.0)]
        far = [[1.5 + 80.0j], [-0.5 - 150.0j]]
    else:
        kernels = [payoffs.call_option(2, 0, 90.0),
                   payoffs.put_option(2, 1, 110.0),
                   payoffs.quadrant_option(2, "cp", (0, 1), (95.0, 105.0)),
                   payoffs.spread_option(2, 0, 1, 5.0),
                   payoffs.exchange_option(2, 0, 1),
                   payoffs.geometric_option(2, (0.5, 0.5), 100.0)]
        far = [[1.5 + 60.0j, 1.5 - 45.0j], [-0.5 + 80.0j, 1.5 + 0.3j],
               [1.5 + 0.2j, -0.5 - 120.0j], [1.5 + 90.0j, -0.5 + 90.0j]]
    rate = pricing.integrated_cov_rate(params, state, 1.0)
    nodes = [payoffs.build_contour(
        k, nodes_per_dim=24,
        decay=payoffs.suggest_decay(k, rate, 1.0, 24)).model_args
        for k in kernels]
    return np.concatenate(nodes + [np.array(far, dtype=complex)])


class TestClosedFormSpectrum:
    """For d = 2 the eigenpairs of Ham come in closed form from the roots
    mu = lam^2 and the spectral projectors, with no LAPACK eig; psi and
    log det Theta_22 of the factored flow agree with the eig route."""

    S_VALUES = np.array([0.05, 0.5, 1.0])

    @pytest.mark.parametrize("case", ["reference", "frozen"])
    def test_matches_eig_route(self, case, wasc_ref, state_ref):
        params, state = {
            "reference": (wasc_ref, state_ref),
            "frozen": (models.WascParams(d=2, mean_rev=M_REF,
                                         vol_of_vol=np.zeros((2, 2)),
                                         leverage=RHO_REF, alpha=ALPHA_REF),
                       state_ref)}[case]
        nodes = strip_nodes(params, state)
        closed = transforms._spectrum(params, nodes)
        ref = eig_spectrum(params, nodes)
        assert np.array_equal(closed.ok, ref.ok)
        assert np.all(closed.ok)
        psi, log_det, _ = transforms._flow(closed, self.S_VALUES)
        psi_ref, log_det_ref, _ = transforms._flow(ref, self.S_VALUES)
        size = np.maximum(1.0, np.max(np.abs(psi_ref), axis=(-2, -1)))
        assert np.max(np.max(np.abs(psi - psi_ref), axis=(-2, -1))
                      / size) < 1e-12
        assert np.max(np.abs(log_det - log_det_ref)
                      / np.maximum(1.0, np.abs(log_det_ref))) < 1e-12

    @pytest.mark.parametrize("case", ["reference", "frozen"])
    def test_left_rows_invert_the_basis(self, case, wasc_ref, state_ref):
        # row j of q^{-1} is J x_p of the paired mode p over (J x_p)' x_j;
        # it inverts the closed-form basis as closely as LAPACK's inverse
        # inverts eig's
        params, state = {
            "reference": (wasc_ref, state_ref),
            "frozen": (models.WascParams(d=2, mean_rev=M_REF,
                                         vol_of_vol=np.zeros((2, 2)),
                                         leverage=RHO_REF, alpha=ALPHA_REF),
                       state_ref)}[case]
        nodes = strip_nodes(params, state)
        closed = transforms._spectrum(params, nodes)
        ref = eig_spectrum(params, nodes)
        eye = np.eye(2 * params.d)
        err = np.abs(closed.qinv @ closed.q - eye).max(axis=(-2, -1))
        err_ref = np.abs(ref.qinv @ ref.q - eye).max(axis=(-2, -1))
        assert np.all(closed.ok)
        assert err.max() < 1e-12
        assert err.max() < 4.0 * err_ref.max()

    def test_defective_basis_still_falls_back(self):
        # the Jordan-block set of test_defective_hamiltonian_falls_back_to_
        # expm, whose fallback flow comes from matcalc.lift_flows: its basis
        # is singular to working precision, and every node leaves the eigen
        # route
        params = models.WascParams(d=2, mean_rev=np.array([[-1.0, 1.0],
                                                           [0.0, -1.0]]),
                                   vol_of_vol=np.zeros((2, 2)),
                                   leverage=np.zeros(2), omega=0.05 * np.eye(2))
        with np.errstate(divide="ignore", invalid="ignore"):
            spec = transforms._spectrum(params, np.stack(CONTOUR_NODES))
        assert not np.any(spec.ok)

    @pytest.mark.parametrize("n", [2, 4])
    def test_condition_check_matches_lapack(self, n):
        # random complex stacks with one small singular value, as a basis
        # with two nearly parallel eigenvectors has, and 1-norm condition
        # numbers from 1 to 1e16; exactly singular ones; the eigenvector
        # bases of the Jordan-block set.  None lies within 10% of the
        # limit, where rounding may decide either way.  (With several
        # small singular values det A falls below the rounding of its
        # cofactor sum, and the check is not meant for such a basis.)
        rng = np.random.default_rng(40 + n)
        count = 600
        u, _ = np.linalg.qr(rng.standard_normal((count, n, n))
                            + 1j * rng.standard_normal((count, n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((count, n, n)))
        sv = np.ones((count, n))
        sv[:, -1] = np.exp(-rng.uniform(0.0, 37.0, count))
        mats = (u * sv[:, None, :]) @ v
        mats[:20, :, -1] = mats[:20, :, 0]                # singular
        if n == 4:
            params = models.WascParams(
                d=2, mean_rev=np.array([[-1.0, 1.0], [0.0, -1.0]]),
                vol_of_vol=np.zeros((2, 2)), leverage=np.zeros(2),
                omega=0.05 * np.eye(2))
            _, q = np.linalg.eig(transforms.wasc_hamiltonian(
                params, np.stack(CONTOUR_NODES)))
            mats = np.concatenate([mats, q])
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.linalg.cond(mats, 1)
        clear = ~((cond > 0.9e10) & (cond < 1.1e10))
        assert np.count_nonzero(clear) > 0.95 * mats.shape[0]
        want = cond <= transforms._EIGVEC_COND_MAX
        assert 0 < np.count_nonzero(want) < mats.shape[0]
        got = transforms._cond_ok(mats.transpose(1, 2, 0))
        np.testing.assert_array_equal(got[clear], want[clear])

    def test_no_eig_for_d_up_to_2(self, wasc_ref, bns_ref, monkeypatch):
        def refuse(name):
            def call(*_):
                raise AssertionError(f"np.linalg.{name} called")
            return call

        for name in ("eig", "det"):
            monkeypatch.setattr(np.linalg, name, refuse(name))
        for params in (wasc_ref, bns_ref):
            grid = transforms.transform_grid(params, [0.5, 1.0],
                                             np.stack(CONTOUR_NODES))
            assert np.all(grid.valid)
        three = models.WascParams(d=3, mean_rev=-2.0 * np.eye(3),
                                  vol_of_vol=0.2 * np.eye(3),
                                  leverage=np.zeros(3), alpha=3.0)
        with pytest.raises(AssertionError, match="eig called"):
            transforms.transform_grid(three, [1.0],
                                      [[1.5 + 1.0j, 0.5, -0.5 + 2.0j]])


class TestBlockPartition:
    """The lattice does not depend on how its nodes are cut into blocks of
    BLOCK_POINTS (node, s) points: every entry, valid or not, is bitwise the
    same from one node per block to the whole route in one block.  Two
    nodes with large real parts fail their checks, so invalid entries are
    compared too."""

    HEDGE_TAUS = 1.0 - np.linspace(0.0, 1.0, 21)[:-1]

    @pytest.mark.parametrize("taus", ["multi", "single"])
    @pytest.mark.parametrize("model", ["wasc", "wasc_omega", "bns", "wasc_3",
                                       "bns_3"])
    def test_bitwise_across_budgets(self, model, taus, wasc_ref, bns_ref,
                                    state_ref, monkeypatch):
        params = {"wasc": wasc_ref, "bns": bns_ref,
                  "wasc_omega": models.WascParams(
                      d=2, mean_rev=M_REF, vol_of_vol=A_REF, leverage=RHO_REF,
                      omega=ALPHA_REF * A_REF.T @ A_REF),
                  "wasc_3": three_asset_params("wasc"),
                  "bns_3": three_asset_params("bns")}[model]
        taus = self.HEDGE_TAUS if taus == "multi" else [1.0]
        if params.d == 2:
            state, far = state_ref, [[60.0, 0.0], [30.0 + 1j, 30.0 - 1j]]
        else:
            state = models.MarketState.from_spot(0.0, S0_3, SIGMA0_3)
            far = [[60.0, 0.0, 0.0], [30.0 + 1j, 0.0, 30.0 - 1j]]
        nodes = np.concatenate([atm_cc_nodes(params, state, 8), far])
        grids = []
        for budget in (1, 512, transforms.BLOCK_POINTS, 2 ** 20):
            monkeypatch.setattr(transforms, "BLOCK_POINTS", budget)
            grids.append(transforms.transform_grid(params, taus, nodes))
        assert not np.all(grids[0].valid) and np.any(grids[0].valid)
        assert (np.all(grids[0].phi_quadrature)
                == (model in ("wasc_omega", "bns", "bns_3")))
        for grid in grids[1:]:
            for field in ("phi", "psi", "valid", "phi_quadrature"):
                np.testing.assert_array_equal(getattr(grid, field),
                                              getattr(grids[0], field))


class TestMemory:
    """transform_grid holds the lattice once (each block is written into
    the returned rows), lattice-wide tables (the nodes' spectra, the s
    grid, the jump model's operator; with the smallest blocks the traced
    peak is 1.1 to 1.2 MB above the lattice) and one node block of about
    BLOCK_POINTS (node, s) points.  The bound allows 0.5 MB and 1.5 times
    BYTES_PER_POINT a point.  The largest slope of the traced peak against
    the budget on this lattice, for budgets up to 65,536, is 445 bytes a
    point for the diffusion and 270 for the jump model (it was 523 and 408
    before the engine held its entries first).
    A budget change moves the bound by the same rule, and a block that
    outgrows its budget, or an engine that evaluates a whole route at once,
    breaks it.  The lattice is the hedge one: 100 tau x 288 nodes, with 900
    s values per node on the panel route."""

    BYTES_PER_POINT = 370

    @pytest.mark.parametrize("model", ["wasc", "bns"])
    def test_peak_within_lattice_and_one_block(self, model, wasc_ref, bns_ref,
                                               state_ref):
        params = wasc_ref if model == "wasc" else bns_ref
        taus = 1.0 - np.arange(100) / 100.0
        nodes = atm_cc_nodes(params, state_ref, 12)
        # first-call allocations (imports, caches) are not the engine's
        transforms.transform_grid(params, [0.5], nodes[:2])
        tracemalloc.start()
        try:
            grid = transforms.transform_grid(params, taus, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lattice = grid.phi.nbytes + grid.psi.nbytes + grid.valid.nbytes
        assert grid.phi.shape == (100, 288)
        assert peak <= (lattice + 0.5e6 + 1.5 * self.BYTES_PER_POINT
                        * transforms.BLOCK_POINTS)
