"""Lognormal benchmark model: orthant probabilities, quadrant closed forms,
closed-form deltas, and the constant-covariance moment transform of the
oracles."""

import numpy as np
import pytest
from scipy.stats import norm

import oracles
from covhedge import gbm


def upper_from_oracle(h, k, rho):
    lower = oracles.bvn_quadrature(h, k, rho)
    return 1.0 - norm.cdf(h) - norm.cdf(k) + lower


class TestBvnUpper:
    @pytest.mark.parametrize("rho", [-0.99, -0.924, -0.6, 0.0, 0.3, 0.69,
                                     0.926, 0.99])
    def test_against_quadrature(self, rho):
        for h in (-2.0, -0.5, 0.0, 1.0, 2.3):
            for k in (-1.7, 0.0, 0.8, 2.0):
                assert gbm.bvn_upper(h, k, rho) == pytest.approx(
                    upper_from_oracle(h, k, rho), abs=5e-13)

    def test_independent_case_factorizes(self):
        assert gbm.bvn_upper(0.4, -1.1, 0.0) == pytest.approx(
            norm.sf(0.4) * norm.sf(-1.1), abs=1e-15)

    def test_degenerate_correlations(self):
        assert gbm.bvn_upper(0.3, -0.2, 1.0) == pytest.approx(
            norm.sf(max(0.3, -0.2)), abs=1e-14)
        assert gbm.bvn_upper(0.3, -0.2, -1.0) == pytest.approx(
            max(0.0, norm.cdf(-0.3) - norm.cdf(-0.2)), abs=1e-14)
        assert gbm.bvn_upper(-1.0, 0.4, -1.0) == pytest.approx(
            max(0.0, norm.cdf(1.0) - norm.cdf(0.4)), abs=1e-14)

    def test_vectorized_limits(self):
        h = np.linspace(-2, 2, 7)
        k = np.linspace(1, -1, 7)
        got = gbm.bvn_upper(h, k, 0.7)
        assert got.shape == (7,)
        for i in range(7):
            assert got[i] == pytest.approx(gbm.bvn_upper(h[i], k[i], 0.7),
                                           abs=1e-15)

    def test_correlation_bounds_checked(self):
        with pytest.raises(ValueError, match="correlation"):
            gbm.bvn_upper(0.0, 0.0, 1.2)


class TestQuadrantClosedForm:
    @pytest.mark.parametrize("kind,k1,k2", [
        ("cc", 116.0, 128.0), ("cp", 110.0, 81.0),
        ("pc", 88.0, 122.0), ("pp", 69.0, 69.0),
    ])
    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.69])
    def test_against_quadrature(self, kind, k1, k2, rho):
        got = gbm.lognormal_quadrant_price(
            kind, (100.0, 100.0), (k1, k2), (0.27, 0.27), rho, 1.0)
        ref = oracles.quadrant_price_quadrature(
            kind, 100.0, 100.0, k1, k2, 0.27, 0.27, rho, 1.0)
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-11)

    def test_vectorized_over_forwards(self):
        f1 = np.array([90.0, 100.0, 115.0])
        f2 = np.array([105.0, 95.0, 100.0])
        got = gbm.lognormal_quadrant_price(
            "pp", (f1, f2), (95.0, 99.0), (0.2, 0.3), 0.4, 0.5)
        assert got.shape == (3,)
        for i in range(3):
            single = gbm.lognormal_quadrant_price(
                "pp", (f1[i], f2[i]), (95.0, 99.0), (0.2, 0.3), 0.4, 0.5)
            assert got[i] == pytest.approx(single, rel=1e-14)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="kind"):
            gbm.lognormal_quadrant_price("xx", (100, 100), (1, 1),
                                         (0.2, 0.2), 0.0, 1.0)
        with pytest.raises(ValueError, match="tau"):
            gbm.lognormal_quadrant_price("cc", (100, 100), (1, 1),
                                         (0.2, 0.2), 0.0, 0.0)

    @pytest.mark.parametrize("strikes, vols", [
        ((100.0, 100.0), (-0.2, 0.25)),
        ((100.0, 100.0), (0.2, 0.0)),
        ((100.0, 100.0), (np.nan, 0.25)),
        ((100.0, 100.0), (0.2, np.inf)),
        ((-100.0, 100.0), (0.2, 0.25)),
        ((100.0, 0.0), (0.2, 0.25)),
        ((np.nan, 100.0), (0.2, 0.25)),
    ])
    def test_refuses_bad_vols_and_strikes(self, strikes, vols):
        # a vol of -0.2 used to price the cc quadrant at -120.82 (129.89
        # at +0.2) and to give deltas of the wrong sign
        with pytest.raises(ValueError, match="strikes and vols"):
            gbm.lognormal_quadrant_price("cc", (100.0, 100.0), strikes,
                                         vols, 0.3, 1.0)
        with pytest.raises(ValueError, match="strikes and vols"):
            gbm.quadrant_spot_delta("cc", (100.0, 100.0), strikes, vols,
                                    0.3, 1.0)


class TestQuadrantDelta:
    def test_factorizes_when_independent(self):
        # with rho = 0 and a negligible second strike the product splits into
        # BS(S1) * S2, so the deltas are (BS delta * S2, BS price)
        spots = np.array([103.0, 97.0])
        strikes = (100.0, 1e-6)
        vols = (0.27, 0.24)
        delta = gbm.quadrant_spot_delta("cc", spots, strikes, vols, 0.0, 1.0)
        eps = 1e-4
        bs_up = oracles.black_scholes_call(spots[0] + eps, 100.0, 0.27, 1.0)
        bs_dn = oracles.black_scholes_call(spots[0] - eps, 100.0, 0.27, 1.0)
        bs_delta = (bs_up - bs_dn) / (2 * eps)
        bs_price = oracles.black_scholes_call(spots[0], 100.0, 0.27, 1.0)
        assert delta[0] == pytest.approx(bs_delta * spots[1], rel=1e-5)
        assert delta[1] == pytest.approx(bs_price, rel=1e-7)

    def test_step_size_robust(self):
        # the closed form against central differences of the price at two
        # step sizes, for every leg combination
        spots = np.array([98.0, 104.0])
        for kind, strikes in [("cc", (116.0, 128.0)), ("cp", (110.0, 81.0)),
                              ("pc", (88.0, 122.0)), ("pp", (101.0, 107.0))]:
            got = gbm.quadrant_spot_delta(kind, spots, strikes, (0.27, 0.27),
                                          0.69, 0.6)
            for rel_step in (1e-4, 1e-6):
                fd = np.empty(2)
                for i in range(2):
                    step = rel_step * spots[i]
                    up, dn = spots.copy(), spots.copy()
                    up[i] += step
                    dn[i] -= step
                    fd[i] = (gbm.lognormal_quadrant_price(
                        kind, up, strikes, (0.27, 0.27), 0.69, 0.6)
                        - gbm.lognormal_quadrant_price(
                            kind, dn, strikes, (0.27, 0.27), 0.69, 0.6)
                    ) / (2.0 * step)
                np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-10)

    def test_batched_spots(self):
        rng = np.random.default_rng(3)
        spots = rng.uniform(80.0, 120.0, size=(9, 2))
        got = gbm.quadrant_spot_delta("pp", spots, (90.0, 95.0), (0.3, 0.25),
                                      0.4, 0.8)
        assert got.shape == (9, 2)
        row = gbm.quadrant_spot_delta("pp", spots[4], (90.0, 95.0),
                                      (0.3, 0.25), 0.4, 0.8)
        np.testing.assert_allclose(got[4], row, rtol=1e-12)

    def test_put_legs_have_negative_deltas(self):
        delta = gbm.quadrant_spot_delta("pp", np.array([100.0, 100.0]),
                                        (100.0, 100.0), (0.27, 0.27), 0.69,
                                        1.0)
        assert np.all(delta < 0)


class TestGbmTransform:
    Y0 = np.log(np.array([100.0, 95.0]))
    COV = np.array([[0.0625, 0.036], [0.036, 0.1024]])

    def test_martingale_property(self):
        for k, s0 in [(0, 100.0), (1, 95.0)]:
            u = np.zeros((1, 2))
            u[0, k] = 1.0
            got = oracles.gbm_transform(u, self.Y0, self.COV, 0.8)
            assert complex(got[0]) == pytest.approx(s0, rel=1e-13)

    def test_against_hermite_quadrature(self):
        tau = 0.6
        x, w = np.polynomial.hermite_e.hermegauss(80)
        chol = np.linalg.cholesky(self.COV * tau)
        z1, z2 = np.meshgrid(x, x, indexing="ij")
        logs = (self.Y0 - 0.5 * tau * np.diag(self.COV)
                + np.stack([z1, z2], -1) @ chol.T)
        ww = np.multiply.outer(w, w) / (2 * np.pi)
        u = np.array([[1.5 + 0.7j, -0.5 - 1.3j], [0.3 - 2.0j, 1.1 + 0.2j]])
        got = oracles.gbm_transform(u, self.Y0, self.COV, tau)
        for i in range(2):
            ref = np.sum(np.exp(logs @ u[i]) * ww)
            assert got[i] == pytest.approx(ref, rel=1e-10)
