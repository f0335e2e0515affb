"""Payoff transform catalog and contour quadrature.

Every kernel is priced under a frozen two-asset lognormal law (for which the
moment transform is elementary) and compared against independent closed forms
or adaptive quadrature of the raw payoff, so the Laplace transform formulas
and the contour construction are validated end to end.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma, loggamma
from scipy.stats import norm

import oracles
from covhedge import payoffs
from covhedge.hedging import pricing

Y0 = np.log(np.array([100.0, 95.0]))
VOLS = np.array([0.25, 0.32])
RHO = 0.45
COV = np.array([
    [VOLS[0] ** 2, RHO * VOLS[0] * VOLS[1]],
    [RHO * VOLS[0] * VOLS[1], VOLS[1] ** 2],
])
TAU = 0.75
SPOTS = np.exp(Y0)


def fourier_price(kernel, nodes_per_dim=32):
    decay = payoffs.suggest_decay(kernel, COV, TAU, nodes_per_dim)
    ct = payoffs.build_contour(kernel, nodes_per_dim=nodes_per_dim,
                               decay=decay)
    hv = oracles.gbm_transform(ct.model_args, Y0, COV, TAU)
    return payoffs.contour_price(ct, hv)


def conditional_forward(z):
    """E[S2 | first log shock z] pieces under the frozen lognormal law."""
    sq2 = VOLS[1] * np.sqrt(TAU)
    resid = np.sqrt(1.0 - RHO * RHO) * sq2
    fwd = np.exp(np.log(SPOTS[1]) - 0.5 * sq2 ** 2 + RHO * sq2 * z
                 + 0.5 * resid ** 2)
    return fwd, resid


def cond_call(fwd, strike, vol):
    if strike <= 0:
        return fwd - strike
    d1 = (np.log(fwd / strike) + 0.5 * vol * vol) / vol
    return fwd * norm.cdf(d1) - strike * norm.cdf(d1 - vol)


def lognormal_expect(inner):
    """Integrate inner(z) * pdf(z) where z drives the first asset's log."""
    val, _ = quad(lambda z: inner(z) * norm.pdf(z), -12.0, 12.0,
                  epsabs=1e-11, epsrel=1e-11, limit=500)
    return val


def spot1(z):
    sq1 = VOLS[0] * np.sqrt(TAU)
    return SPOTS[0] * np.exp(-0.5 * sq1 ** 2 + sq1 * z)


class TestVanillaKernels:
    def test_call_matches_black_scholes(self):
        ker = payoffs.call_option(2, 0, 112.0)
        ref = oracles.black_scholes_call(SPOTS[0], 112.0, VOLS[0], TAU)
        assert fourier_price(ker) == pytest.approx(ref, rel=1e-8)

    def test_put_matches_black_scholes(self):
        ker = payoffs.put_option(2, 1, 82.0)
        ref = oracles.black_scholes_put(SPOTS[1], 82.0, VOLS[1], TAU)
        assert fourier_price(ker) == pytest.approx(ref, rel=1e-8)

    def test_put_call_parity(self):
        strike = 97.0
        call = fourier_price(payoffs.call_option(2, 0, strike))
        put = fourier_price(payoffs.put_option(2, 0, strike))
        assert call - put == pytest.approx(SPOTS[0] - strike, abs=1e-6)

    def test_nonpositive_strike_rejected(self):
        with pytest.raises(ValueError, match="strike"):
            payoffs.call_option(2, 0, 0.0)
        with pytest.raises(ValueError, match="strike"):
            payoffs.spread_option(2, 0, 1, -3.0)

    @pytest.mark.parametrize("strike", [np.nan, np.inf])
    def test_non_finite_strike_rejected(self, strike):
        # a nan strike would otherwise surface in build_contour as a
        # damping error
        with pytest.raises(ValueError, match="strike"):
            payoffs.put_option(2, 0, strike)
        with pytest.raises(ValueError, match="strike"):
            payoffs.geometric_option(2, [0.5, 0.5], strike)
        with pytest.raises(ValueError, match="strike"):
            payoffs.quadrant_option(2, "cc", (0, 1), (100.0, strike))
        with pytest.raises(ValueError, match="strike"):
            payoffs.spread_option(2, 0, 1, strike)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_geometric_weight_rejected(self, weight):
        # unchecked, a nan weight surfaces at pricing as a decay error
        with pytest.raises(ValueError, match="weights must be finite"):
            payoffs.geometric_option(2, [0.5, weight], 100.0)

    def test_bad_asset_index_rejected(self):
        with pytest.raises(ValueError, match="asset index"):
            payoffs.put_option(2, 5, 90.0)

    def test_geometric_call_closed_form(self):
        w = np.array([0.5, 0.5])
        ker = payoffs.geometric_option(2, w, 92.0, "call")
        vol = np.sqrt(w @ COV @ w)
        fwd = np.exp(w @ (Y0 - 0.5 * TAU * np.diag(COV))
                     + 0.5 * TAU * vol ** 2)
        ref = oracles.black_scholes_call(fwd, 92.0, vol, TAU)
        assert fourier_price(ker) == pytest.approx(ref, rel=1e-8)

    def test_geometric_parity(self):
        w = np.array([0.7, 0.3])
        call = fourier_price(payoffs.geometric_option(2, w, 90.0, "call"))
        put = fourier_price(payoffs.geometric_option(2, w, 90.0, "put"))
        vol2 = w @ COV @ w
        fwd = np.exp(w @ (Y0 - 0.5 * TAU * np.diag(COV)) + 0.5 * TAU * vol2)
        assert call - put == pytest.approx(fwd - 90.0, rel=1e-9)


class TestTwoAssetKernels:
    @pytest.mark.parametrize("kind,k1,k2", [
        ("cc", 112.0, 118.0), ("cp", 108.0, 79.0),
        ("pc", 86.0, 116.0), ("pp", 71.0, 68.0),
    ])
    def test_quadrant_matches_quadrature(self, kind, k1, k2):
        ker = payoffs.quadrant_option(2, kind, (0, 1), (k1, k2))
        ref = oracles.quadrant_price_quadrature(
            kind, SPOTS[0], SPOTS[1], k1, k2, VOLS[0], VOLS[1], RHO, TAU)
        assert fourier_price(ker, nodes_per_dim=24) == pytest.approx(
            ref, rel=2e-4, abs=1e-5)

    def test_same_asset_rejected(self):
        # on one asset both payoffs are identically 0, yet the transform
        # prices the spread at -0.55 under the wasc reference set
        with pytest.raises(ValueError, match="differ"):
            payoffs.spread_option(2, 0, 0, 5.0)
        with pytest.raises(ValueError, match="differ"):
            payoffs.exchange_option(2, 1, 1)

    def test_quadrant_transform_is_the_product_of_its_legs(self):
        args = np.array([[1.5 + 0.4j, -0.5 - 2.0j], [1.5 - 3.0j, -0.5 + 0.1j]])
        quad = payoffs.quadrant_option(2, "cp", (0, 1), (105.0, 88.0))
        call = payoffs.call_option(2, 0, 105.0)
        put = payoffs.put_option(2, 1, 88.0)
        np.testing.assert_array_equal(
            quad.transform(args),
            call.transform(args[:, :1]) * put.transform(args[:, 1:]))
        np.testing.assert_array_equal(quad.default_damping, [1.5, -0.5])
        assert quad.strip_margin(np.array([1.2, -0.1])) == pytest.approx(0.1)

    def test_quadrant_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            payoffs.quadrant_option(2, "cx", (0, 1), (100.0, 100.0))

    def test_exchange_matches_margrabe(self):
        ker = payoffs.exchange_option(2, 0, 1)
        ref = oracles.margrabe_exchange(SPOTS[0], SPOTS[1], VOLS[0], VOLS[1],
                                        RHO, TAU)
        assert fourier_price(ker) == pytest.approx(ref, rel=1e-7)

    def test_spread_matches_conditioning_quadrature(self):
        strike = 8.0
        ker = payoffs.spread_option(2, 0, 1, strike)

        def inner(z):
            fwd, resid = conditional_forward(z)
            kk = spot1(z) - strike
            if kk <= 0:
                return 0.0
            # (kk - S2)^+ via parity from the conditional call
            return cond_call(fwd, kk, resid) - fwd + kk

        ref = lognormal_expect(inner)
        assert fourier_price(ker, nodes_per_dim=48) == pytest.approx(
            ref, rel=1e-3)


class TestSpreadGamma:
    """The spread transform's log-gamma, against closed forms, scipy and
    scipy's gamma product on the contours that price the spread."""

    @staticmethod
    def grid(seed=11, size=4000):
        """Seeded points with Re z in [1e-3, 40] (log-uniform, so the
        imaginary axis is approached) and |Im z| <= 500."""
        rng = np.random.default_rng(seed)
        re = np.exp(rng.uniform(np.log(1e-3), np.log(40.0), size))
        return re + 1j * rng.uniform(-500.0, 500.0, size)

    def test_log_gamma_at_half_and_integers(self):
        assert abs(np.exp(payoffs._log_gamma(0.5)) / math.sqrt(math.pi)
                   - 1.0) <= 1e-15
        n = np.arange(1, 21)
        lg = payoffs._log_gamma(n.astype(float))
        exact = np.array([math.log(math.factorial(k - 1)) for k in n])
        # relative to the log: exp of a log near 39 rounds Gamma(20) to
        # about 8e-15 relative whatever the log-gamma's accuracy
        np.testing.assert_array_less(
            np.abs(lg.real - exact) / np.maximum(1.0, exact), 1e-15)
        assert np.all(lg.imag == 0.0)

    def test_log_gamma_conjugate_symmetry(self):
        z = self.grid()
        lg = payoffs._log_gamma(z)
        np.testing.assert_array_equal(payoffs._log_gamma(np.conj(z)),
                                      np.conj(lg))
        np.testing.assert_array_equal(
            np.exp(payoffs._log_gamma(np.conj(z))), np.conj(np.exp(lg)))

    def test_log_gamma_matches_scipy(self):
        z = self.grid()
        scale = np.maximum(1.0, np.abs(z) * np.log(np.abs(z)))
        err = np.abs(payoffs._log_gamma(z) - loggamma(z)) / scale
        assert err.max() <= 1e-14

    @pytest.mark.parametrize("u", [
        # Gamma(3.5+480i) and Gamma(1.5+480.5i) underflow, so their ratio
        # used to overflow; the transform itself is about 1.5e-9
        [2.5 + 480j, -1.0 + 0.5j],
        # the transform itself underflows to 0
        [2.5 + 300j, -1.0 + 300j],
    ])
    def test_spread_transform_far_on_the_contour(self, u):
        u = np.array([u])
        got = payoffs.spread_option(2, 0, 1, 5.0).transform(u)
        ref = oracles.spread_transform(u, 5.0)
        assert np.all(np.isfinite(got))
        # log-gammas near 2.5e3 in modulus cancel in the exponent, so one
        # ulp of any of them (4.5e-13) is that much relative in the value
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("nodes", [12, 24, 48])
    @pytest.mark.parametrize("model", ["wasc", "bns"])
    def test_spread_transform_matches_gamma_product(self, model, nodes,
                                                    request, state_ref):
        params = request.getfixturevalue(f"{model}_ref")
        rate = pricing.integrated_cov_rate(params, state_ref, 1.0)
        for strike in (2.0, 5.0, 8.0, 10.0):
            ker = payoffs.spread_option(2, 0, 1, strike)
            decay = payoffs.suggest_decay(ker, rate, 1.0, nodes)
            # the (0, 1) spread's loading is the identity: its model
            # arguments are its transform arguments
            u = payoffs.build_contour(ker, nodes, decay).model_args
            u1, u2 = u[:, 0], u[:, 1]
            ref = (strike ** (1.0 - u1 - u2) * gamma(u1 + u2 - 1.0)
                   * gamma(-u2) / gamma(u1 + 1.0))
            np.testing.assert_allclose(ker.transform(u), ref, rtol=1e-12,
                                       atol=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_payoff_identities(seed):
    """Pathwise payoff algebra on random spot panels."""
    rng = np.random.default_rng(seed)
    spots = np.exp(rng.uniform(np.log(40.0), np.log(250.0), size=(32, 2)))
    k = float(rng.uniform(60.0, 160.0))
    # product quadrants multiply one-sided legs
    cc = payoffs.quadrant_option(2, "cc", (0, 1), (k, 0.9 * k)).payoff(spots)
    np.testing.assert_allclose(
        cc, np.maximum(spots[:, 0] - k, 0) * np.maximum(spots[:, 1] - 0.9 * k, 0),
        rtol=1e-13, atol=0)


class TestContourConstruction:
    def test_full_grid_agrees_with_halved(self):
        ker = payoffs.quadrant_option(2, "cp", (0, 1), (105.0, 88.0))
        n = 12
        decay = payoffs.suggest_decay(ker, COV, TAU, n)
        ct = payoffs.build_contour(ker, nodes_per_dim=n, decay=decay)
        half = payoffs.contour_price(
            ct, oracles.gbm_transform(ct.model_args, Y0, COV, TAU))

        x, w = np.polynomial.laguerre.laggauss(n)
        w = np.exp(np.log(w) + x)
        grids = np.meshgrid(np.concatenate([x, -x]) / decay[0],
                            np.concatenate([x, -x]) / decay[1], indexing="ij")
        wg = np.meshgrid(np.concatenate([w, w]) / decay[0],
                         np.concatenate([w, w]) / decay[1], indexing="ij")
        v = np.stack([g.ravel() for g in grids], axis=-1)
        wprod = wg[0].ravel() * wg[1].ravel()
        args = ker.default_damping + 1j * v
        hv = oracles.gbm_transform(ker.model_args(args), Y0, COV, TAU)
        total = np.sum(wprod * ker.transform(args) * hv) / (2 * np.pi) ** 2
        assert abs(total.imag) < 1e-12 * abs(total.real)
        assert half == pytest.approx(float(total.real), rel=1e-12)

    def test_node_count_bounds(self):
        ker = payoffs.call_option(2, 0, 100.0)
        with pytest.raises(ValueError, match="nodes_per_dim"):
            payoffs.build_contour(ker, nodes_per_dim=3)
        with pytest.raises(ValueError, match="nodes_per_dim"):
            payoffs.build_contour(ker, nodes_per_dim=65)

    def test_decay_validation(self):
        ker = payoffs.call_option(2, 0, 100.0)
        with pytest.raises(ValueError, match="decay"):
            payoffs.build_contour(ker, decay=0.0)

    def test_non_finite_decay_rejected(self):
        # a negative rate makes suggest_decay return nan; unchecked, the nan
        # and an infinite decay each gave a contour of 0 nodes, priced at 0.0
        ker = payoffs.call_option(2, 0, 100.0)
        with np.errstate(invalid="ignore"):
            nan_decay = payoffs.suggest_decay(ker, -0.01 * np.eye(2), 1.0, 24)
        assert np.isnan(nan_decay).all()
        for decay in (nan_decay, np.inf):
            with pytest.raises(ValueError, match="finite"):
                payoffs.build_contour(ker, nodes_per_dim=24, decay=decay)

    def test_damping_shape_checked(self):
        ker = dataclasses.replace(payoffs.spread_option(2, 0, 1, 5.0),
                                  default_damping=np.array([2.5]))
        with pytest.raises(ValueError, match="entries"):
            payoffs.build_contour(ker)

    @pytest.mark.parametrize("ker,damping", [
        (payoffs.call_option(2, 0, 100.0), [1.0 + 1e-9]),
        (payoffs.put_option(2, 0, 100.0), [0.0]),
        (payoffs.spread_option(2, 0, 1, 5.0), [2.0, -1.0]),
        (payoffs.spread_option(2, 0, 1, 5.0), [2.5, 0.0]),
        (payoffs.quadrant_option(2, "cp", (0, 1), (1e2, 1e2)), [1.5, 0.5]),
    ])
    def test_boundary_damping_rejected(self, ker, damping):
        ker = dataclasses.replace(ker, default_damping=np.array(damping))
        with pytest.raises(ValueError, match="margin"):
            payoffs.build_contour(ker)

    def test_suggest_decay_scales_with_vol(self):
        ker = payoffs.quadrant_option(2, "cc", (0, 1), (100.0, 100.0))
        lo = payoffs.suggest_decay(ker, COV, TAU, 24)
        hi = payoffs.suggest_decay(ker, 4.0 * COV, TAU, 24)
        assert lo.shape == (2,)
        assert np.all(hi >= lo)
        # the floor keeps tiny-vol contours usable
        tiny = payoffs.suggest_decay(ker, 1e-8 * COV, TAU, 24)
        np.testing.assert_allclose(tiny, 1.0)

    def test_skip_mass_guard(self):
        ker = payoffs.quadrant_option(2, "cp", (0, 1), (105.0, 88.0))
        ct = payoffs.build_contour(
            ker, nodes_per_dim=24,
            decay=payoffs.suggest_decay(ker, COV, TAU, 24))
        hv = oracles.gbm_transform(ct.model_args, Y0, COV, TAU)
        full = payoffs.contour_price(ct, hv)

        mass = np.abs(ct.weights)
        order = np.argsort(mass)
        cum = np.cumsum(mass[order]) / mass.sum()
        n_small = int(np.searchsorted(cum, 5e-4))
        assert n_small >= 1          # the far tail really is negligible
        drop_small = np.ones(ct.weights.size, dtype=bool)
        drop_small[order[:n_small]] = False
        assert payoffs.contour_price(ct, hv, valid=drop_small) == \
            pytest.approx(full, rel=1e-4, abs=1e-8)

        drop_big = np.ones(ct.weights.size, dtype=bool)
        drop_big[order[-4:]] = False
        with pytest.raises(ValueError, match="invalid transform nodes"):
            payoffs.contour_price(ct, hv, valid=drop_big)

    def test_model_args_affine_map(self):
        ker = payoffs.exchange_option(3, 2, 0)
        args = np.array([[1.5 + 0.3j], [1.5 - 2.0j]])
        got = ker.model_args(args)
        expect = np.zeros((2, 3), dtype=complex)
        expect[:, 2] = args[:, 0]
        expect[:, 0] = 1.0 - args[:, 0]
        np.testing.assert_allclose(got, expect, rtol=1e-15)
