"""Tests for parameter containers, their admissibility checks, and
covariance first moments."""

import warnings

import numpy as np
import pytest
import scipy.stats
from scipy.integrate import quad_vec

from covhedge import matcalc, models, simulate

import oracles
from conftest import (ALPHA_REF, A_REF, M_REF, RHO_REF, S0_REF, SIGMA0_REF)


class TestValidation:
    """Parameter sets check their own admissible domain at construction and
    name every violation in one ValueError."""

    def test_reference_params_ok(self, wasc_ref):
        assert wasc_ref.leverage @ wasc_ref.leverage <= 1.0

    def test_leverage_norm_violation(self):
        with pytest.raises(ValueError, match="invalid model parameters") as e:
            models.WascParams(d=2, mean_rev=M_REF, vol_of_vol=A_REF,
                              leverage=[0.8, 0.8], alpha=ALPHA_REF)
        assert "1.28" in str(e.value)

    def test_drift_admissibility_violation(self):
        with pytest.raises(ValueError, match="admissibility"):
            models.WascParams(d=2, mean_rev=M_REF, vol_of_vol=A_REF,
                              leverage=RHO_REF, omega=np.zeros((2, 2)))

    def test_require_valid_raises(self):
        with pytest.raises(ValueError, match="invalid model parameters") as e:
            models.WascParams(d=2, mean_rev=M_REF, vol_of_vol=A_REF,
                              leverage=[0.9, 0.9], alpha=ALPHA_REF)
        assert "1.62" in str(e.value)

    def test_every_violation_is_named(self):
        with pytest.raises(ValueError) as e:
            models.WascParams(d=2, mean_rev=M_REF, vol_of_vol=A_REF,
                              leverage=[0.8, 0.8], omega=np.zeros((2, 2)))
        assert "1.28" in str(e.value) and "admissibility" in str(e.value)

    def test_alpha_materializes_omega(self, wasc_ref):
        np.testing.assert_allclose(wasc_ref.omega, ALPHA_REF * A_REF.T @ A_REF,
                                   rtol=1e-12)

    def test_conflicting_alpha_omega_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            models.WascParams(d=2, mean_rev=M_REF, vol_of_vol=A_REF,
                              leverage=RHO_REF, alpha=ALPHA_REF, omega=np.eye(2))

    def test_bns_shape_bound(self):
        with pytest.raises(ValueError, match="wishart_shape"):
            models.BnsParams(d=2, mean_rev=M_REF, jump_intensity=1.0,
                             wishart_shape=0.5, wishart_scale=0.01 * np.eye(2),
                             leverage_diag=[-0.5, -0.5])

    def test_bns_scale_not_positive_definite(self):
        scale = np.array([[0.01, 0.02], [0.02, 0.01]])
        with pytest.raises(ValueError) as e:
            models.BnsParams(d=2, mean_rev=M_REF, jump_intensity=1.0,
                             wishart_shape=3.0, wishart_scale=scale,
                             leverage_diag=[-0.5, -0.5])
        assert "positive definite" in str(e.value)
        assert "compensator undefined" in str(e.value)
        val, ok = models.wishart_mgf(scale, 3.0, -np.eye(2))
        assert not ok and np.isnan(val.real)

    def test_every_bns_violation_is_named(self):
        # a singular scale has no inverse for the MGF; the other violations
        # are still named
        with pytest.raises(ValueError) as e:
            models.BnsParams(d=2, mean_rev=M_REF, jump_intensity=-1.0,
                             wishart_shape=0.5, wishart_scale=np.zeros((2, 2)),
                             leverage_diag=[-0.5, -0.5])
        for part in ("jump_intensity", "wishart_shape", "positive definite",
                     "compensator undefined"):
            assert part in str(e.value)

    @pytest.mark.parametrize("intensity", [0.0, np.nan])
    def test_bns_intensity_must_be_positive(self, intensity):
        with pytest.raises(ValueError, match="jump_intensity"):
            models.BnsParams(d=2, mean_rev=M_REF, jump_intensity=intensity,
                             wishart_shape=3.0, wishart_scale=0.01 * np.eye(2),
                             leverage_diag=[-0.5, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["mean_rev", "vol_of_vol", "leverage",
                                       "alpha", "omega"])
    def test_wasc_rejects_non_finite_entries(self, field, bad):
        # a nan vol_of_vol used to fail inside LAPACK, and a nan mean_rev
        # built a set
        fields = dict(d=2, mean_rev=M_REF.copy(), vol_of_vol=A_REF.copy(),
                      leverage=np.array(RHO_REF, dtype=float))
        fields["omega" if field == "omega" else "alpha"] = (
            ALPHA_REF * A_REF.T @ A_REF if field == "omega" else ALPHA_REF)
        if np.ndim(fields[field]):
            fields[field].flat[0] = bad
        else:
            fields[field] = bad
        with pytest.raises(ValueError, match="invalid model parameters") as e:
            models.WascParams(**fields)
        assert f"{field} must be finite" in str(e.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["mean_rev", "jump_intensity",
                                       "wishart_shape", "wishart_scale",
                                       "leverage_diag"])
    def test_bns_rejects_non_finite_entries(self, field, bad):
        fields = dict(d=2, mean_rev=M_REF.copy(), jump_intensity=3.0,
                      wishart_shape=3.0, wishart_scale=0.01 * np.eye(2),
                      leverage_diag=np.array([-0.5, -0.5]))
        if np.ndim(fields[field]):
            fields[field].flat[0] = bad
        else:
            fields[field] = bad
        with pytest.raises(ValueError, match="invalid model parameters") as e:
            models.BnsParams(**fields)
        assert f"{field} must be finite" in str(e.value)

    def test_bns_reference_ok(self, bns_ref):
        assert np.all(np.isfinite(bns_ref.drift_comp))
        # marks[k] = rho_k E^kk, read-only like every array field
        want = np.zeros((2, 2, 2))
        want[[0, 1], [0, 1], [0, 1]] = bns_ref.leverage_diag
        np.testing.assert_array_equal(bns_ref.marks, want)
        assert not bns_ref.marks.flags.writeable

    def test_market_state_consistency(self):
        st = models.MarketState.from_spot(0.0, S0_REF, SIGMA0_REF)
        np.testing.assert_allclose(st.log_spot, np.log(S0_REF), atol=1e-15)


class TestMarketStateInput:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            models.MarketState.from_spot(0.0, S0_REF, np.eye(3))
        with pytest.raises(ValueError, match="shape"):
            models.MarketState.from_spot(0.0, S0_REF, np.ones(4))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            models.MarketState.from_spot(0.0, S0_REF,
                                         np.array([[0.10, 0.07], [0.0, 0.10]]))

    @pytest.mark.parametrize("cov", [[[0.1, np.nan], [np.nan, 0.1]],
                                     [[np.inf, 0.0], [0.0, 0.1]]])
    def test_rejects_non_finite_cov(self, cov):
        # unchecked, a nan is reported as an asymmetry and an inf warns in
        # the symmetry test
        with pytest.raises(ValueError, match="cov must be finite"):
            models.MarketState.from_spot(0.0, S0_REF, cov)
        with pytest.raises(ValueError, match="cov must be finite"):
            models.covariance_state(cov, 2)

    def test_rejects_negative_eigenvalue(self):
        # eigenvalues 0.3 and -0.1
        with pytest.raises(ValueError, match="eigenvalue"):
            models.MarketState.from_spot(0.0, S0_REF,
                                         np.array([[0.1, 0.2], [0.2, 0.1]]))

    @pytest.mark.parametrize("spot", [[-100.0, 100.0], [0.0, 100.0],
                                      [np.inf, 100.0], [np.nan, 100.0]])
    def test_rejects_spot_without_finite_log(self, spot):
        # a nan log spot would reach pricing, which blames the contour, and
        # simulate, which returns a nan asset
        with pytest.raises(ValueError, match="log_spot must be finite"):
            models.MarketState.from_spot(0.0, spot, SIGMA0_REF)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_rejects_non_finite_time(self, t):
        # simulate and fourier_price would blame the horizon instead
        with pytest.raises(ValueError, match="t must be finite"):
            models.MarketState.from_spot(t, S0_REF, SIGMA0_REF)

    @pytest.mark.parametrize("log_spot", [[np.nan, 4.6], [4.6, np.inf]])
    def test_rejects_non_finite_log_spot(self, log_spot):
        with pytest.raises(ValueError, match="log_spot must be finite"):
            models.MarketState(0.0, log_spot, SIGMA0_REF)

    def test_accepts_rounding_below_zero(self):
        # -1e-13 is inside the tolerance 1e-10 * ||cov||_2 = 1e-11
        cov = np.diag([0.1, -1e-13])
        state = models.MarketState.from_spot(0.0, S0_REF, cov)
        np.testing.assert_array_equal(state.cov, cov)

    @pytest.mark.parametrize("model", ["wasc", "bns"])
    def test_accepts_simulated_states(self, model, wasc_ref, bns_ref,
                                      state_ref):
        params = wasc_ref if model == "wasc" else bns_ref
        sim = simulate.simulate(params, state_ref, 1.0, 4, 200, seed=5)
        for p in range(sim.n_paths):
            for k in range(sim.n_steps + 1):
                models.MarketState(sim.times[k], sim.log_spot[p, k],
                                   sim.cov[p, k])


class TestWishartMgf:
    def test_rank_one_closed_form(self, bns_ref):
        # R = rho_k E^{kk} has the scalar closed form (1 - 2 rho_k Theta_kk)^(-n/2)
        theta = bns_ref.wishart_scale
        n = bns_ref.wishart_shape
        for k, rho_k in enumerate(bns_ref.leverage_diag):
            r = np.zeros((2, 2))
            r[k, k] = rho_k
            val, ok = models.wishart_mgf(theta, n, r)
            assert ok
            want = (1.0 - 2.0 * rho_k * theta[k, k]) ** (-n / 2.0)
            assert val.real == pytest.approx(want, rel=1e-12)
            assert abs(val.imag) < 1e-15

    def test_against_sampling_real_and_complex(self, bns_ref):
        theta = bns_ref.wishart_scale
        n = bns_ref.wishart_shape
        rng = np.random.default_rng(42)
        draws = scipy.stats.wishart.rvs(df=n, scale=theta, size=100_000,
                                        random_state=rng)
        for r in (np.array([[0.5, 0.2], [0.2, -0.3]]),
                  np.array([[0.5 + 1.0j, 0.0], [0.0, -0.2j]])):
            vals = np.exp(np.einsum("ij,kji->k", r, draws))
            mc = vals.mean()
            se = max(vals.real.std(), vals.imag.std()) / np.sqrt(vals.size)
            exact, ok = models.wishart_mgf(theta, n, r)
            assert ok
            assert abs(mc.real - exact.real) < 3 * se
            assert abs(mc.imag - exact.imag) < 3 * se

    def test_outside_strip_is_data(self, bns_ref):
        theta = bns_ref.wishart_scale
        big = np.eye(2) * (0.51 / theta[0, 0])
        val, ok = models.wishart_mgf(theta, bns_ref.wishart_shape, big)
        assert not ok and np.isnan(val.real)
        assert oracles.wishart_strip_margin(theta, big) <= 0.0

    @staticmethod
    def _random_cases(d, rng, count=400):
        """A PD scale and complex symmetric R: real parts on both sides of
        the strip edge, imaginary parts of mixed sign or semidefinite ones,
        which turn every eigenvalue argument alike (their sum can pass pi)."""
        g = rng.standard_normal((d, d))
        scale = 0.1 * (g @ g.T / d + 0.2 * np.eye(d))
        inv = np.linalg.inv(scale)
        rs = np.empty((count, d, d), dtype=complex)
        for c in range(count):
            a, b = rng.standard_normal((2, d, d))
            re = 0.5 * inv * rng.uniform(0.0, 1.5) + 0.3 * (a + a.T)
            if c % 2:
                im = (rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 20.0)
                      * inv.max() * (b @ b.T))
            else:
                im = rng.uniform(0.0, 10.0) * (a @ b + b.T @ a.T)
            rs[c] = re + 1j * im
        return scale, rs

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_against_eigenvalue_oracle(self, d):
        rng = np.random.default_rng(100 + d)
        scale, rs = self._random_cases(d, rng)
        n = d + 1.5
        val, ok = models.wishart_mgf(scale, n, rs)
        want, want_ok = oracles.wishart_mgf_eig(scale, n, rs)
        np.testing.assert_array_equal(
            ok, oracles.wishart_strip_margin(scale, rs) > 0.0)
        np.testing.assert_array_equal(ok, want_ok)
        assert 0 < np.count_nonzero(ok) < ok.size
        np.testing.assert_allclose(val[ok], want[ok], rtol=1e-12, atol=0.0)
        assert np.all(np.isnan(val[~ok]))
        # some arguments sum past pi, where the principal log of the
        # determinant would leave the branch that matched above
        if d >= 3:
            eigs = np.linalg.eigvals(np.eye(d) - 2.0 * rs @ scale)
            assert np.any(ok & (np.abs(np.angle(eigs).sum(axis=-1)) > np.pi))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batch_entry_equals_single(self, d):
        rng = np.random.default_rng(7 + d)
        scale, rs = self._random_cases(d, rng, count=40)
        val, ok = models.wishart_mgf(scale, 4.5, rs.reshape(4, 10, d, d))
        assert 0 < np.count_nonzero(ok) < ok.size
        for c in range(rs.shape[0]):
            one, one_ok = models.wishart_mgf(scale, 4.5, rs[c])
            assert one_ok == ok.reshape(-1)[c]
            np.testing.assert_array_equal(one, val.reshape(-1)[c])
            # a stack of one entry, as well as a single matrix
            one, one_ok = models.wishart_mgf(scale, 4.5, rs[c:c + 1])
            assert one_ok.shape == (1,) and one_ok[0] == ok.reshape(-1)[c]
            np.testing.assert_array_equal(one[0], val.reshape(-1)[c])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_shape_past_the_cis_range(self, d):
        # -shape/2 times the argument sum can pass matcalc.CIS_MAX_ARG only
        # for a shape of order 1e6; such a shape takes complex exp
        scale = 0.05 * np.eye(d)
        shape = 2.5 * matcalc.CIS_MAX_ARG
        # a small imaginary part keeps the modulus near 1; a large one
        # turns the angle past the cis range, where the value underflows
        rs = np.stack([1e-7j * np.eye(d), 1e-7j * np.ones((d, d)),
                       -30.0j * np.eye(d)])
        val, ok = models.wishart_mgf(scale, shape, rs)
        want, want_ok = oracles.wishart_mgf_eig(scale, shape, rs)
        np.testing.assert_array_equal(ok, want_ok)
        assert np.all(ok)
        np.testing.assert_allclose(val, want, rtol=1e-8, atol=1e-300)
        assert abs(val[0]) == pytest.approx(1.0, abs=1e-3)
        assert val[2] == 0.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    def test_pivot_arguments_summing_near_pi(self, sign, eps):
        # N / 2 = scale^{-1} / 2 - R = L C L' with pivots c_k = eps_k +- i:
        # both arguments lie within about eps of +-pi/2, so their sum lies
        # within about 2 eps of +-pi, next to the cut of the principal Log
        scale = np.array([[0.02, 0.008], [0.008, 0.03]])
        shape = 4.5
        low = np.array([[1.0, 0.0], [0.7, 1.0]])
        c = np.array([eps * 3.0 + sign * 1j, eps * 5.0 + sign * 2j])
        r = 0.5 * np.linalg.inv(scale) - low @ np.diag(c) @ low.T
        val, ok = models.wishart_mgf(scale, shape, r)
        assert ok
        # the branch of sum_k Log c_k, against det(scale^{-1} / 2)
        log_det = np.log(c).sum() - np.log(np.linalg.det(
            0.5 * np.linalg.inv(scale)))
        assert abs(np.log(c).imag.sum()) > np.pi - 9.0 * eps
        assert val == pytest.approx(np.exp(-0.5 * shape * log_det),
                                    rel=1e-10)
        want, _ = oracles.wishart_mgf_eig(scale, shape, r)
        assert val == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_entries_first_layout_gives_the_same_bits(self, d):
        # the jump transform passes R as a view of entries stored first
        rng = np.random.default_rng(30 + d)
        scale, rs = self._random_cases(d, rng, count=500)
        entries = np.ascontiguousarray(rs.transpose(1, 2, 0))
        val, ok = models.wishart_mgf(scale, 4.5, rs)
        val_e, ok_e = models.wishart_mgf(scale, 4.5,
                                         entries.transpose(2, 0, 1))
        assert 0 < np.count_nonzero(ok) < ok.size
        np.testing.assert_array_equal(ok_e, ok)
        np.testing.assert_array_equal(val_e, val)

    @pytest.mark.parametrize("d", [1, 2])
    def test_off_strip_entries_are_quiet(self, d):
        # far off the strip, a zero leading pivot of N and a singular N
        scale = 0.05 * np.eye(d)
        rs = np.empty((4, d, d), dtype=complex)
        rs[0] = 50.0 * np.eye(d)
        rs[1] = 10.0 * np.eye(d) + 3j
        rs[2] = 1e300 * np.ones((d, d))
        rs[3] = 10.0 * np.eye(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, ok = models.wishart_mgf(scale, 3.0, rs)
        assert not np.any(ok)
        assert np.all(np.isnan(val.real) & np.isnan(val.imag))

    def test_zero_pivot_is_quiet(self):
        # scale^{-1} - 2R has a zero leading entry, so the elimination
        # divides by zero in both P and N; the entry is flagged, not warned
        scale = np.eye(3)
        rs = np.zeros((3, 3, 3), dtype=complex)
        rs[0, 0, 0] = 0.5
        rs[1, 0, 0] = 0.5 + 0.3j
        rs[1, 1, 2] = rs[1, 2, 1] = 0.1j
        rs[2] = 0.1j * np.eye(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, ok = models.wishart_mgf(scale, 3.0, rs)
        np.testing.assert_array_equal(ok, [False, False, True])
        assert np.all(np.isnan(val[:2]))
        want, _ = oracles.wishart_mgf_eig(scale, 3.0, rs[2])
        assert val[2] == pytest.approx(want, rel=1e-14)

    def test_drift_comp_closed_form(self, bns_ref):
        lam, n = bns_ref.jump_intensity, bns_ref.wishart_shape
        theta = bns_ref.wishart_scale
        want = lam * ((1.0 - 2.0 * bns_ref.leverage_diag * np.diag(theta)) ** (-n / 2) - 1.0)
        np.testing.assert_allclose(bns_ref.drift_comp, want, rtol=1e-12)


class TestWascMoments:
    def test_initial_condition(self, wasc_ref):
        np.testing.assert_allclose(models.wasc_mean_cov(wasc_ref, SIGMA0_REF, 0.0),
                                   SIGMA0_REF, atol=1e-14)

    def test_pure_drift(self):
        p = models.WascParams(d=2, mean_rev=np.zeros((2, 2)), vol_of_vol=A_REF,
                              leverage=[0.0, 0.0], omega=np.eye(2))
        out = models.wasc_mean_cov(p, SIGMA0_REF, 0.7)
        np.testing.assert_allclose(out, SIGMA0_REF + 0.7 * np.eye(2), rtol=1e-9)

    def test_mean_stays_psd_on_grid(self, wasc_ref):
        for t in np.linspace(0.0, 2.0, 50):
            m = models.wasc_mean_cov(wasc_ref, SIGMA0_REF, float(t))
            assert matcalc.min_eigenvalue(m) > -matcalc.psd_tolerance(m)

    def test_array_of_times_matches_single_times(self, wasc_ref):
        ts = np.linspace(0.0, 2.0, 12).reshape(3, 4)
        batch = models.wasc_mean_cov(wasc_ref, SIGMA0_REF, ts)
        assert batch.shape == (3, 4, 2, 2)
        single = [[models.wasc_mean_cov(wasc_ref, SIGMA0_REF, float(t))
                   for t in row] for row in ts]
        np.testing.assert_allclose(batch, single, rtol=1e-14, atol=0)

    def test_integrated_mean_empty_interval(self, wasc_ref):
        imap = models.wasc_integrated_mean(wasc_ref, 1.0, 1.0)
        assert np.all(imap.map == 0.0) and np.all(imap.offset == 0.0)

    def test_integrated_mean_singular_lift_fallback(self):
        # a singular lift (no mean reversion) needs no special case; with
        # Omega = 0 the set is admissible only for A = 0, and the mean does
        # not depend on A
        p = models.WascParams(d=2, mean_rev=np.zeros((2, 2)),
                              vol_of_vol=np.zeros((2, 2)),
                              leverage=[0.0, 0.0], omega=np.zeros((2, 2)))
        imap = models.wasc_integrated_mean(p, 0.0, 0.75)
        np.testing.assert_allclose(imap.map, 0.75 * np.eye(4), atol=1e-10)
        np.testing.assert_allclose(imap.offset, 0.0, atol=1e-12)

    def test_integrated_mean_differentiates_to_mean(self, wasc_ref):
        # d/dT (map vec(Sigma0) + offset) == vec(E[Sigma_T])
        T, h = 0.8, 1e-5
        up = models.wasc_integrated_mean(wasc_ref, 0.0, T + h)
        dn = models.wasc_integrated_mean(wasc_ref, 0.0, T - h)
        v0 = matcalc.vec(SIGMA0_REF)
        fd = ((up.map - dn.map) @ v0 + (up.offset - dn.offset)) / (2 * h)
        want = matcalc.vec(models.wasc_mean_cov(wasc_ref, SIGMA0_REF, T))
        np.testing.assert_allclose(fd, want, rtol=1e-6)

    def test_integrated_mean_matches_quadrature_of_mean(self, wasc_ref):
        T = 1.0
        imap = models.wasc_integrated_mean(wasc_ref, 0.0, T)
        got = imap.map @ matcalc.vec(SIGMA0_REF) + imap.offset
        want, _ = quad_vec(lambda t: matcalc.vec(
            models.wasc_mean_cov(wasc_ref, SIGMA0_REF, t)), 0.0, T,
            epsabs=1e-15, epsrel=1e-13)
        np.testing.assert_allclose(got, want, rtol=1e-10)


class TestBnsMoments:
    def test_no_jump_no_decay_constant(self):
        # no decay: the mean grows by the jump mean per unit time
        p = models.BnsParams(d=2, mean_rev=np.zeros((2, 2)), jump_intensity=3.0,
                             wishart_shape=3.0,
                             wishart_scale=np.array([[0.02, 0.008],
                                                     [0.008, 0.02]]),
                             leverage_diag=[-0.8, -0.5])
        np.testing.assert_allclose(oracles.bns_mean_cov(p, SIGMA0_REF, 0.9),
                                   SIGMA0_REF + 0.9 * p.jump_mean(),
                                   atol=1e-12)

    def test_initial_condition(self, bns_ref):
        np.testing.assert_allclose(oracles.bns_mean_cov(bns_ref, SIGMA0_REF, 0.0),
                                   SIGMA0_REF, atol=1e-13)

    def test_jump_mean_vs_sampling(self, bns_ref):
        rng = np.random.default_rng(5)
        draws = scipy.stats.wishart.rvs(df=bns_ref.wishart_shape,
                                        scale=bns_ref.wishart_scale,
                                        size=100_000, random_state=rng)
        mc = draws.mean(axis=0) * bns_ref.jump_intensity
        se = draws.std(axis=0) * bns_ref.jump_intensity / np.sqrt(draws.shape[0])
        assert np.all(np.abs(mc - bns_ref.jump_mean()) < 3 * se + 1e-12)

    def test_integrated_mean_lyapunov_vs_quadrature(self, bns_ref):
        got = models.bns_integrated_mean(bns_ref, SIGMA0_REF, 1.0)
        want, _ = quad_vec(lambda t: oracles.bns_mean_cov(
            bns_ref, SIGMA0_REF, t), 0.0, 1.0, epsabs=1e-15, epsrel=1e-13)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_mean_psd_on_grid(self, bns_ref):
        for t in np.linspace(0.0, 2.0, 25):
            m = oracles.bns_mean_cov(bns_ref, SIGMA0_REF, float(t))
            assert matcalc.min_eigenvalue(m) > -matcalc.psd_tolerance(m)
