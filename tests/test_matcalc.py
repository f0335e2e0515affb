"""Tests for the dense matrix utilities."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec

from covhedge import matcalc

from conftest import M_REF, SIGMA0_REF


def rand_psd(d, rng, rank=None):
    rank = d if rank is None else rank
    b = rng.standard_normal((d, rank))
    return b @ b.T


# ---------------------------------------------------------------------------
# vec / mat / kron_lift
# ---------------------------------------------------------------------------

class TestVecMat:
    def test_vec_identity(self):
        np.testing.assert_array_equal(matcalc.vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])

    def test_vec_is_column_stacking(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matcalc.vec(m), [1.0, 3.0, 2.0, 4.0])

    def test_round_trip_symmetrized_basis(self):
        e12 = np.zeros((2, 2))
        e12[0, 1] = e12[1, 0] = 0.5
        np.testing.assert_array_equal(matcalc.mat(matcalc.vec(e12)), e12)

    def test_vec_reference_cov(self):
        np.testing.assert_array_equal(
            matcalc.vec(SIGMA0_REF), [0.10, 0.07, 0.07, 0.10]
        )

    def test_mat_rejects_bad_length(self):
        with pytest.raises(ValueError, match="perfect square"):
            matcalc.mat(np.arange(3.0))

    @pytest.mark.parametrize("m", [np.zeros((2, 3)), np.zeros(4),
                                   np.array([[np.nan, 0.0], [0.0, 1.0]])])
    def test_kron_lift_rejects_non_square_or_non_finite(self, m):
        with pytest.raises(ValueError, match="finite square"):
            matcalc.kron_lift(m)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_bitwise(self, d, seed):
        m = np.random.default_rng(seed).standard_normal((d, d))
        back = matcalc.mat(matcalc.vec(m))
        assert np.array_equal(back, m)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_kron_lift_realizes_two_sided_drift(self, d, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((d, d))
        x = rng.standard_normal((d, d))
        lhs = matcalc.mat(matcalc.kron_lift(m) @ matcalc.vec(x))
        rhs = m @ x + x @ m.T
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kron_lift_is_the_kronecker_sum_bitwise(self, d):
        m = np.random.default_rng(d).standard_normal((d, d))
        eye = np.eye(d)
        want = np.kron(eye, m) + np.kron(m, eye)
        got = matcalc.kron_lift(m)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# psd_factor_last / psd_repair
# ---------------------------------------------------------------------------

def factor_stack(d, rng):
    """(d, d, 7) paths-last: four full-rank PSD matrices, a rank-one one,
    the zero matrix and a PSD one whose first pivot is zero."""
    edge = np.zeros((d, d))
    edge[1:, 1:] = rand_psd(d - 1, rng)
    mats = ([rand_psd(d, rng) for _ in range(4)]
            + [rand_psd(d, rng, rank=1), np.zeros((d, d)), edge])
    return np.stack(mats, axis=-1)


class TestPsdFactor:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lower_factor_of_every_matrix(self, d):
        stack = factor_stack(d, np.random.default_rng(20 + d))
        before = stack.copy()
        fac = matcalc.psd_factor_last(stack)
        assert np.array_equal(stack, before)
        assert fac.shape == stack.shape
        for k in range(stack.shape[-1]):
            low, m = fac[..., k], stack[..., k]
            assert np.all(np.triu(low, 1) == 0.0)
            scale = max(np.max(np.abs(m)), 1.0)
            assert np.max(np.abs(low @ low.T - m)) <= 1e-12 * scale
        assert np.all(fac[..., 5] == 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cholesky_on_positive_definite_matrices(self, d):
        stack = factor_stack(d, np.random.default_rng(30 + d))[..., :4]
        fac = np.moveaxis(matcalc.psd_factor_last(stack), -1, 0)
        want = np.linalg.cholesky(np.moveaxis(stack, -1, 0))
        for got, chol in zip(fac, want):
            assert np.max(np.abs(got - chol)) <= 1e-14 * np.max(np.abs(chol))

    def test_zero_column_at_a_negative_pivot(self):
        # rounding just outside the cone: no nan and no warning (the suite
        # turns RuntimeWarning into an error)
        fac = matcalc.psd_factor_last(np.diag([1.0, -1e-12])[..., None])
        assert np.array_equal(fac[..., 0], np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_entry_independent_of_the_batch(self, d):
        stack = factor_stack(d, np.random.default_rng(40 + d))
        fac = matcalc.psd_factor_last(stack)
        for k in range(stack.shape[-1]):
            alone = matcalc.psd_factor_last(stack[..., k:k + 1])
            assert np.array_equal(alone[..., 0], fac[..., k])


class TestPsd:
    def test_project_reports_clip(self):
        m = np.diag([1.0, -0.25])
        proj, material = matcalc.psd_repair(m)
        np.testing.assert_allclose(proj, np.diag([1.0, 0.0]), atol=1e-14)
        assert material == 1

    def test_project_noop_on_psd(self):
        rng = np.random.default_rng(3)
        m = np.stack([rand_psd(3, rng) for _ in range(4)])
        proj, material = matcalc.psd_repair(m)
        assert material == 0
        assert proj is m

    @pytest.mark.parametrize("d", [2, 3])
    def test_repair_counts_material_clips_and_copies(self, d):
        # a PSD matrix, one whose negative eigenvalue is rounding noise
        # (below PSD_RTOL times its largest entry) and one well below it
        rng = np.random.default_rng(40 + d)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        spectra = [np.linspace(1.0, 2.0, d),
                   np.r_[-1e-13, np.linspace(1.0, 2.0, d - 1)],
                   np.r_[-0.25, np.linspace(1.0, 2.0, d - 1)]]
        stack = np.stack([matcalc.sym_part((q * w) @ q.T) for w in spectra])
        before = stack.copy()
        fixed, material = matcalc.psd_repair(stack)
        assert material == 1
        assert np.array_equal(stack, before)
        assert fixed is not stack
        assert np.array_equal(fixed[0], stack[0])
        for f, w in zip(fixed[1:], spectra[1:]):
            want = (q * np.clip(w, 0.0, None)) @ q.T
            np.testing.assert_allclose(f, want, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_repair_where_sylvester_and_lambda_min_disagree(self, d):
        # PSD-singular matrices fail Sylvester's criterion (a zero pivot)
        # with lambda_min = 0, and a nan matrix fails it with lambda_min
        # nan: none may be repaired, and the all-nan 3 x 3 one, on which
        # eigh may not converge, must not reach it.  The repaired set and
        # the material count are those of the rule lambda_min < 0 by
        # eigvalsh
        rng = np.random.default_rng(50 + d)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        rest = np.linspace(1.0, 2.0, d - 1)
        singular = {2: [np.diag([0.0, 1.0])],
                    3: [np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                                  [0.0, 0.0, 0.0]])]}[d]
        nan = {2: np.array([[np.nan, 0.0], [0.0, 1.0]]),
               3: np.full((3, 3), np.nan)}[d]
        unrepaired = [rand_psd(d, rng)] + singular + [nan]
        indefinite = [matcalc.sym_part((q * np.r_[w, rest]) @ q.T)
                      for w in (-1e-13, -0.25)]
        stack = np.stack(unrepaired + indefinite)
        for m in singular + [nan]:
            assert not np.all(np.array(matcalc.elimination(m)[0]) > 0.0)

        finite = np.all(np.isfinite(stack), axis=(1, 2))
        lmin = np.full(len(stack), np.nan)
        lmin[finite] = np.linalg.eigvalsh(stack[finite])[:, 0]
        want = lmin < 0.0
        assert np.array_equal(want, np.arange(len(stack)) >= len(unrepaired))
        scale = np.abs(stack).max(axis=(1, 2))
        fixed, material = matcalc.psd_repair(stack)
        assert material == np.count_nonzero(-lmin > matcalc.PSD_RTOL * scale)
        assert np.array_equal(fixed[~want], stack[~want], equal_nan=True)
        for f, m in zip(fixed[want], stack[want]):
            assert not np.array_equal(f, m)
            w, v = np.linalg.eigh(m)
            np.testing.assert_allclose(f, (v * np.clip(w, 0.0, None)) @ v.T,
                                       atol=1e-12)

        same = stack[~want]
        kept, none = matcalc.psd_repair(same)
        assert kept is same and none == 0

    def test_tolerance_scales_with_norm(self):
        assert matcalc.psd_tolerance(np.eye(2)) == pytest.approx(1e-10)
        assert matcalc.psd_tolerance(100.0 * np.eye(2)) == pytest.approx(1e-8)
        # the largest absolute entry, as psd_repair counts: 1, where the
        # spectral norm is 2
        assert matcalc.psd_tolerance(np.ones((2, 2))) == pytest.approx(1e-10)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

class TestEliminationPivots:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_pivots_are_ratios_of_leading_minors(self, d):
        rng = np.random.default_rng(60 + d)
        stack = (rng.standard_normal((5, 2, d, d))
                 + 1j * rng.standard_normal((5, 2, d, d)))
        before = stack.copy()
        piv = np.stack(matcalc.elimination(
            [[stack[..., i, j] for j in range(d)] for i in range(d)])[0],
            axis=-1)
        assert np.array_equal(stack, before)
        assert piv.shape == (5, 2, d)
        minors = np.stack([np.linalg.det(stack[..., :k, :k])
                           for k in range(1, d + 1)], axis=-1)
        np.testing.assert_allclose(np.cumprod(piv, axis=-1), minors,
                                   rtol=1e-12)

    def test_real_stack_and_sylvester(self):
        rng = np.random.default_rng(5)
        pd = np.stack([rand_psd(3, rng) + 0.1 * np.eye(3) for _ in range(3)])
        piv = np.array(matcalc.elimination(
            [[pd[:, i, j] for j in range(3)] for i in range(3)])[0])
        assert piv.dtype == float and np.all(piv > 0.0)
        indefinite = np.diag([1.0, -1.0, 2.0])
        assert np.any(np.array(matcalc.elimination(indefinite)[0]) <= 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_multipliers_rebuild_the_matrix(self, d):
        # L U = M with L the unit-lower multipliers and U the eliminated
        # rows; for a symmetric matrix U = D L', so M = L D L'
        rng = np.random.default_rng(80 + d)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for mat in (m, m + m.T):
            piv, rows = matcalc.elimination(mat)
            low = np.eye(d, dtype=complex)
            upper = np.zeros((d, d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    (low if j < i else upper)[i, j] = rows[i][j]
            assert np.array_equal(np.diag(upper), piv)
            np.testing.assert_allclose(low @ upper, mat, atol=1e-12)
        np.testing.assert_allclose((low * piv) @ low.T, mat, atol=1e-12)

    def test_zero_pivot_is_quiet(self):
        # a zero pivot gets zero multipliers, so the later pivots stay
        # finite: those of the trailing block as it stands
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            piv, rows = matcalc.elimination(m)
        assert piv[0] == 0.0 and rows[1][0] == 0.0 and piv[1] == 0.0


# ---------------------------------------------------------------------------
# stacks stored batch last
# ---------------------------------------------------------------------------

class TestBatchLast:
    # orders 1-6: up to the 6 x 6 eigenbasis of a d = 3 diffusion node
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_products_determinants_and_adjugates(self, d):
        rng = np.random.default_rng(70 + d)
        a = rng.standard_normal((d, d, 6)) + 1j * rng.standard_normal((d, d, 6))
        b = rng.standard_normal((d, d, 6)) + 1j * rng.standard_normal((d, d, 6))
        mats = np.moveaxis(a, -1, 0)
        np.testing.assert_allclose(
            np.moveaxis(matcalc.matmul_last(a, b), -1, 0),
            mats @ np.moveaxis(b, -1, 0), rtol=1e-13)
        det = matcalc.det_last(a)
        np.testing.assert_allclose(det, np.linalg.det(mats), rtol=1e-12)
        adj, det_adj = matcalc.inverse_last(a)
        np.testing.assert_allclose(
            np.moveaxis(adj, -1, 0),
            np.linalg.inv(mats) * det[:, None, None], rtol=1e-12)
        assert np.array_equal(det_adj, det)

    def test_inverse_from_entries(self):
        # a shifted symmetric matrix given by its upper triangle, each entry
        # formed once, has the bits of the same matrix built whole
        rng = np.random.default_rng(11)
        for d in (2, 3, 4):
            x = rng.standard_normal((40, d, d))
            mats = x @ x.swapaxes(1, 2)
            shift = np.eye(d) + 0.1
            upper = {(i, j): mats[:, i, j] + shift[i, j]
                     for i in range(d) for j in range(i, d)}
            rows = [[upper[min(i, j), max(i, j)] for j in range(d)]
                    for i in range(d)]
            whole = np.moveaxis(mats + shift, 0, -1)
            for got, want in zip(matcalc.inverse_last(rows),
                                 matcalc.inverse_last(whole)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("fn,d", [
        ("matmul_last", 3), ("det_last", 3), ("inverse_last", 3),
        ("inverse_last", 4), ("inverse_last", 6)],
        ids=["matmul_last", "det_last", "inverse_last", "inverse_last_4",
             "inverse_last_6"])
    def test_entries_bitwise_independent_of_the_stack(self, fn, d):
        # 20,000 complex entries a row: numpy reuses a temporary of that
        # size for the result, and its complex product is not bitwise
        # commutative, so a swapped product would change bits here
        rng = np.random.default_rng(9)
        a = (rng.standard_normal((d, d, 20000))
             + 1j * rng.standard_normal((d, d, 20000)))
        op = getattr(matcalc, fn)
        args = (a, a[::-1]) if fn == "matmul_last" else (a,)
        whole = op(*args)
        part = op(*(x[..., 7:12] for x in args))
        if fn == "inverse_last":
            for w, p in zip(whole, part):
                assert np.array_equal(w[..., 7:12], p)
        else:
            assert np.array_equal(whole[..., 7:12], part)


# ---------------------------------------------------------------------------
# lift_flows
# ---------------------------------------------------------------------------

class TestLiftFlows:
    # ||lift||_inf = 24: every delta past 1/24 is scaled and squared
    LIFT = matcalc.kron_lift(3.0 * M_REF)
    DELTAS = np.array([0.0, 0.01, 0.3, 1.0, 2.5])

    def test_against_expm_and_quadrature(self):
        flow, int1, int2 = matcalc.lift_flows(self.LIFT, self.DELTAS, 3)
        for k, delta in enumerate(self.DELTAS):
            want = [scipy.linalg.expm(delta * self.LIFT)]
            for weight in (lambda s: 1.0, lambda s: delta - s):
                val, _ = quad_vec(
                    lambda s: weight(s) * scipy.linalg.expm(s * self.LIFT),
                    0.0, delta, epsabs=1e-15, epsrel=1e-13)
                want.append(val)
            for got, ref in zip((flow[k], int1[k], int2[k]), want):
                assert np.max(np.abs(got - ref)) <= 1e-12 * max(
                    np.max(np.abs(ref)), 1e-3)

    @pytest.mark.parametrize("count", [1, 2])
    def test_leading_series_alone_are_the_same_bits(self, count):
        # a caller reading only the flow (and its integral) skips the rest
        full = matcalc.lift_flows(self.LIFT, self.DELTAS, 3)
        part = matcalc.lift_flows(self.LIFT, self.DELTAS, count)
        assert len(part) == count
        for got, want in zip(part, full):
            assert np.array_equal(got, want)

    def test_entry_independent_of_batch(self):
        batch = matcalc.lift_flows(self.LIFT, self.DELTAS, 3)
        for k, delta in enumerate(self.DELTAS):
            alone = matcalc.lift_flows(self.LIFT, np.array(delta), 3)
            for b, a in zip(batch, alone):
                assert np.array_equal(b[k], a)
