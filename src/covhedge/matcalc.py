"""Dense matrix utilities shared by every other module.

All covariance-state algebra in this package runs through the helpers below:
column-stacking ``vec``/``mat``, the Kronecker lift of a linear matrix drift,
the PSD repair and factor (``psd_repair``, ``psd_factor_last``) that the
simulator applies to covariance states at every step, the one elimination
(``elimination``) behind that factor, the Sylvester test and the Wishart
MGF, the one cofactor expansion (``_minor_det``), behind both
``det_last`` and the cofactor inverse (``inverse_last``) of small matrices
stacked over nodes or paths, and the one cis kernel (``scaled_cis``).  The
module needs numpy only.
Any factor L L' = Sigma serves the simulator: L = Sigma^{1/2} O with O
orthogonal given the state, and O dW has the law of dW.

``lift_flows``, the flow of a lifted linear drift with as many of its
integral and double integral (Van Loan 1978) as a caller reads, is the one
matrix-flow helper and the package's only matrix exponential: moments, the
simulation's step maps, the jump-model transform, the swap coefficients and
the flow of a diffusion transform node off the eigen route
(``transforms._flow``, whose lift is complex) all use it.

Conventions
-----------
* ``vec`` stacks *columns* (Fortran order). Every formula of the form
  ``lift(M) @ vec(X)`` in this package assumes that convention.
* Positive semidefiniteness is relative to ``PSD_RTOL`` = 1e-10:
  discretization of covariance dynamics produces harmless eigenvalues of
  that relative size below zero.  One scale serves every use: each
  matrix's largest absolute entry, in ``psd_tolerance(M)``, in the count
  of material repairs in ``psd_repair`` and, floored at 1, in the
  symmetry test ``is_symmetric``.

``scaled_cis`` writes s e^{ib} for real s and b with no trigonometric
call per element; the basis claims of a Fourier hedge and the Wishart MGF
use it, where complex exp spends nearly all its time in cos and sin.  It
rounds b / (2 pi / CIS_TABLE) to the nearest integer k with the 1.5 * 2**52
trick, reads exp(i 2 pi k / CIS_TABLE) from a table indexed by the low bits
of k, and multiplies it by cos r + i sin r for the remainder r = b - k 2 pi
/ CIS_TABLE, |r| <= pi / CIS_TABLE, taken as the Taylor polynomials of
degree 4 (cos) and 3 (sin).  r is exact up to rounding: 2 pi / CIS_TABLE is
split Cody-Waite style into a 24-bit head, whose product with any |k| <
2**29 is exact, and a tail carrying the next 53 bits.  The polynomials'
truncation error is below 8e-17 and the table entries are within 1.3e-16,
so the computed exp(i b) is off by a few units in the last place, whatever
|b| the split covers (at most 2.7e-16 absolute against a long double
reference up to the largest |b| allowed, CIS_MAX_ARG = 1.65e6).  Larger
finite |b| raise ValueError; nan or infinite b give nan.

All functions are pure and never mutate their inputs; ``scaled_cis``
writes only its ``out`` argument.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PSD_RTOL",
    "lift_flows",
    "vec",
    "mat",
    "kron_lift",
    "sym_part",
    "matmul_last",
    "det_last",
    "inverse_last",
    "is_symmetric",
    "psd_tolerance",
    "min_eigenvalue",
    "psd_repair",
    "psd_factor_last",
    "elimination",
    "CIS_TABLE",
    "CIS_MAX_ARG",
    "scaled_cis",
]

# Relative PSD and symmetry tolerance; the module docstring gives its scale.
PSD_RTOL = 1e-10
# power-series terms of lift_flows, whose series runs on ||lift|| delta <= 1
_FLOW_TERMS = 20
# scaled_cis: the table size, chosen from the sweeps recorded in CHANGES.md
CIS_TABLE = 2048
# adding it to a float64 |x| < 2**51 rounds x to the nearest integer, which
# then sits in the low bits of the sum's mantissa
_ROUND_MAGIC = 1.5 * 2.0 ** 52
# pi/2 split into its leading 33 bits and the rest, as in fdlibm's rem_pio2
_PIO2_HI = 1.57079632673412561417e+00
_PIO2_LO = 6.07710050650619224932e-11
_CIS_STEP = _PIO2_HI * (4.0 / CIS_TABLE)      # 2 pi / CIS_TABLE to 33 bits
_CIS_C1 = float(np.float32(_CIS_STEP))      # 24-bit head: k * _CIS_C1 exact
_CIS_C2 = (_CIS_STEP - _CIS_C1) + _PIO2_LO * (4.0 / CIS_TABLE)
# the largest |b| of scaled_cis: |k| < 2**29 keeps k * _CIS_C1 exact
CIS_MAX_ARG = (2.0 ** 29 - 1.0) * _CIS_STEP


def lift_flows(lift: np.ndarray, deltas: np.ndarray, count: int) -> tuple:
    """The first count (1 to 3) of Van Loan's triple for a linear drift:
    exp(lift * delta), its time integral over [0, delta] and the double
    integral int_0^delta (delta - s) exp(lift * s) ds, batched over deltas.
    A later series is built only when it is asked for, and an earlier one
    has the same bits whatever count is.

    A 20-term power series, run on delta itself when ||lift|| * delta <= 1
    and otherwise on delta / 2^k followed by k squarings.  The scaling is
    chosen per delta, so one entry never depends on the others in the batch.
    """
    n = lift.shape[0]
    deltas = np.asarray(deltas, dtype=float)
    nrm = np.linalg.norm(lift, np.inf) * deltas
    doublings = np.ceil(np.log2(np.maximum(nrm, 1.0))).astype(int)
    scaled = deltas / 2.0 ** doublings
    # term j of series i: delta^(j+i) lift^j / (j+i)!, in the lift's dtype
    dtype = np.result_type(lift, float)
    mats = np.empty((_FLOW_TERMS, count, n, n), dtype=dtype)
    ej = np.eye(n)                                   # lift^j / j!
    for j in range(_FLOW_TERMS):
        mats[j, 0] = ej
        ej = ej @ lift / (j + 1.0)
    order = np.arange(1.0, _FLOW_TERMS + 1.0)[:, None, None]
    for i in range(1, count):
        mats[:, i] = mats[:, i - 1] / (order + (i - 1.0))
    # series i takes term j with (delta / 2^k)^(j+i); one running power
    # keeps the working set at one series term per batch entry
    acc = np.zeros((count,) + deltas.shape + (n, n), dtype=dtype)
    power = np.ones(deltas.shape + (1, 1))
    for t in range(_FLOW_TERMS + count - 1):
        for i in range(max(0, t - _FLOW_TERMS + 1), min(t, count - 1) + 1):
            acc[i] += power * mats[t - i, i]
        power = power * scaled[..., None, None]
    flow, *ints = acc
    for i in range(int(doublings.max(initial=0))):
        more = (doublings > i)[..., None, None]
        step = scaled[..., None, None]
        if count > 2:
            ints[1] = np.where(more, ints[1] + step * ints[0]
                               + flow @ ints[1], ints[1])
        if count > 1:
            ints[0] = np.where(more, ints[0] + flow @ ints[0], ints[0])
        flow = np.where(more, flow @ flow, flow)
        scaled = np.where(doublings > i, 2.0 * scaled, scaled)
    return (flow, *ints)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec(M)[i + d*j] = M[i, j]."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"vec: expected a matrix, got shape {a.shape}")
    return a.reshape(-1, order="F")


def mat(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a length-d^2 vector to d x d, column-major."""
    a = np.asarray(v)
    if a.ndim != 1:
        raise ValueError(f"mat: expected a vector, got shape {a.shape}")
    d = int(round(np.sqrt(a.size)))
    if d * d != a.size:
        raise ValueError(f"mat: length {a.size} is not a perfect square")
    return a.reshape((d, d), order="F")


def kron_lift(m: np.ndarray) -> np.ndarray:
    """Kronecker lift of the linear matrix map X -> M X + X M^T.

    Returns the d^2 x d^2 matrix L with L @ vec(X) == vec(M X + X M^T)
    in the column-stacking convention, i.e. L = I (x) M + M (x) I.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
        raise ValueError("kron_lift: expected a finite square matrix")
    d = a.shape[0]
    eye = np.eye(d)
    # entry (i d + k, j d + l) is eye_ij a_kl + a_ij eye_kl
    lift = (eye[:, None, :, None] * a[None, :, None, :]
            + a[:, None, :, None] * eye[None, :, None, :])
    return lift.reshape(d * d, d * d)


def sym_part(m: np.ndarray) -> np.ndarray:
    """Symmetric part (M + M^T) / 2; for complex input this is the
    transpose-symmetrization, not the Hermitian part."""
    a = np.asarray(m)
    return 0.5 * (a + a.swapaxes(-1, -2))


def is_symmetric(m: np.ndarray) -> bool:
    """True when ||M - M^T|| <= PSD_RTOL * max(||M||, 1), both norms the
    largest absolute entry."""
    a = np.asarray(m)
    scale = max(float(np.max(np.abs(a))), 1.0)
    return bool(np.max(np.abs(a - a.swapaxes(-1, -2))) <= PSD_RTOL * scale)


def psd_tolerance(m: np.ndarray) -> float:
    """Absolute PSD tolerance for a symmetric matrix: PSD_RTOL times its
    largest absolute entry, the scale ``psd_repair`` counts by."""
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        return 0.0
    return PSD_RTOL * float(np.max(np.abs(a)))


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric real matrix."""
    return float(np.linalg.eigvalsh(np.asarray(m, dtype=float))[0])


def psd_repair(mats: np.ndarray) -> tuple[np.ndarray, int]:
    """Clip the negative eigenvalues of a (..., d, d) stack of symmetric
    matrices to zero, the nearest PSD matrix in Frobenius norm.

    Sylvester's criterion, every elimination pivot positive
    (``elimination``), clears the positive definite matrices without
    an eigendecomposition.  Only the others go to eigh, and of those only
    the ones with a negative eigenvalue are repaired; a matrix with a
    non-finite entry is passed through as it is.

    Returns:
        (repaired, material): the input itself when no matrix has a negative
        eigenvalue, otherwise a repaired copy; and the number of matrices
        whose most negative eigenvalue is below -PSD_RTOL times their
        largest absolute entry, i.e. repairs beyond floating-point noise.
    """
    d = mats.shape[-1]
    flat = mats.reshape(-1, d, d)
    pivots = np.array(elimination(flat.transpose(1, 2, 0))[0])
    test = np.flatnonzero(~np.all(pivots > 0.0, axis=0)
                          & np.all(np.isfinite(flat), axis=(1, 2)))
    w, v = np.linalg.eigh(flat[test])
    neg = w[:, 0] < 0.0
    if not np.any(neg):
        return mats, 0
    bad, w, v = test[neg], w[neg], v[neg]
    scale = np.maximum(np.abs(flat[bad]).max(axis=(1, 2)), 1e-300)
    material = int(np.count_nonzero(-w[:, 0] > PSD_RTOL * scale))
    out = flat.copy()
    out[bad] = np.einsum("...ij,...j,...kj->...ik", v, np.clip(w, 0.0, None),
                         v)
    return out.reshape(mats.shape), material


def matmul_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a_p b_p of (m, n, P) and (n, k, P) stacks stored batch last;
    a constant factor is passed as an (m, n, 1) or (n, k, 1) stack.

    n sums of length-P ufunc products, so an entry never depends on how
    many others share the call (BLAS products over the batch axis can).
    """
    out = a[:, :1] * b[0]
    for j in range(1, a.shape[1]):
        out += a[:, j:j + 1] * b[j]
    return out


def _minor_det(a, rows: tuple, cols: tuple, memo: dict):
    """Determinant of the submatrix of rows x cols of a matrix given entry
    by entry (a[i][j]), by cofactor expansion along its first row, each
    minor computed once per memo; 1 for an empty one.  Each product takes
    the minor as its left factor: numpy's complex product is not bitwise
    commutative, and it may swap the factors to reuse a large right-hand
    temporary, which would make an entry's bits depend on the stack size."""
    if len(rows) <= 1:
        return a[rows[0]][cols[0]] if rows else 1.0
    out = memo.get((rows, cols))
    if out is None:
        top, rest = a[rows[0]], rows[1:]
        for k, c in enumerate(cols):
            term = _minor_det(a, rest, cols[:k] + cols[k + 1:], memo) * top[c]
            out = term if k == 0 else out - term if k % 2 else out + term
        memo[rows, cols] = out
    return out


def det_last(a: np.ndarray) -> np.ndarray:
    """Determinants of a (d, d, ...) stack stored batch last, by cofactor
    expansion: unrolled ufunc arithmetic, so each entry is independent of
    the others.  Its cost grows like 2^d d, so it serves small d only."""
    idx = tuple(range(a.shape[0]))
    return _minor_det([list(row) for row in a], idx, idx, {})


def inverse_last(rows) -> tuple[np.ndarray, np.ndarray]:
    """The cofactor inverse of a d x d matrix given entry by entry as in
    ``elimination``, a (d, d, ...) stack serving as its own rows: adj A =
    det A A^{-1}, a (d, d, ...) array, and det A, with det_last's bits.
    Every minor, det A's included, comes from the one expansion of
    ``_minor_det`` through one memo.  Unrolled ufunc arithmetic, each entry
    independent of the others; a shifted or symmetric matrix is never built
    whole."""
    rows = [list(row) for row in rows]
    d = len(rows)
    idx, memo = tuple(range(d)), {}
    det = _minor_det(rows, idx, idx, memo)
    # every entry enters det, so it has the batch shape and the dtype
    adj = np.empty((d, d) + np.shape(det), dtype=np.result_type(det))
    for i in idx:
        for j in idx:
            sign = np.negative if (i + j) % 2 else np.positive
            sign(_minor_det(rows, idx[:j] + idx[j + 1:], idx[:i] + idx[i + 1:],
                            memo), out=adj[i, j])
    return adj, det


def elimination(rows) -> tuple[list, list]:
    """Gaussian elimination without row exchanges on a d x d matrix given
    entry by entry: rows[i][j] is entry (i, j), a number or a real or
    complex array over a batch (a (d, d, ...) array serves as its own
    rows).  Returns (pivots, rows), entries of the batch shape: rows[i][k],
    k < i, is the multiplier of row k subtracted from row i.  For a
    symmetric matrix they are the unit lower L of M = L D L', D the pivots.

    Pivot k is the ratio of the leading principal minors of orders k + 1
    and k, so the pivots multiply to the determinant.  The d steps are
    ufunc arithmetic on whole entries, so each batch entry is independent
    of the others.  The caller forms each entry, so a row of a stack
    stored entries first is used in place, and a shifted matrix is never
    built whole.  A zero pivot gets zero multipliers, quietly: exact for a
    PSD matrix, whose column under a zero pivot is zero.
    """
    rows = [list(row) for row in rows]
    d = len(rows)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(d - 1):
            piv = rows[k][k]
            for i in range(k + 1, d):
                f = rows[i][k] = np.where(piv == 0, 0.0, rows[i][k] / piv)
                for j in range(k + 1, d):
                    rows[i][j] = rows[i][j] - f * rows[k][j]
    return [rows[k][k] for k in range(d)], rows


def psd_factor_last(a: np.ndarray) -> np.ndarray:
    """A lower triangular L with L L' = A for each symmetric PSD matrix of
    a (d, d, ...) stack stored batch last: the Cholesky factor L sqrt(D) of
    ``elimination``, with a zero column wherever a pivot is not positive
    (PSD-singular, or rounding just outside the cone).  Unrolled ufunc
    arithmetic, so each entry is independent of the others."""
    pivots, lower = elimination(a)
    out = np.zeros_like(a)
    for k, p in enumerate(pivots):
        root = np.sqrt(np.where(p > 0.0, p, 0.0))
        out[k, k] = root
        for i in range(k + 1, a.shape[0]):
            out[i, k] = lower[i][k] * root
    return out


def _cis_table() -> np.ndarray:
    """exp(i 2 pi j / CIS_TABLE) for j < CIS_TABLE: the first quadrant from
    exp, whose angles below pi/2 round by at most 1.1e-16, and the others by
    the exact rotations i, -1 and -i."""
    j = np.arange(CIS_TABLE // 4)
    quad = np.exp(1j * (j * _CIS_C1 + j * _CIS_C2))
    return np.concatenate([quad, 1j * quad, -quad, -1j * quad])


_CIS = _cis_table()


def scaled_cis(b: np.ndarray, scale: np.ndarray, out: np.ndarray) -> None:
    """Write scale * exp(i b) into the complex array out, elementwise, for
    real b and scale of out's shape, with no trigonometric call per element
    (see the module docstring for the method and its error).  Each entry is
    independent of the others."""
    lo, hi = b.min(initial=np.inf), b.max(initial=-np.inf)
    if not (-CIS_MAX_ARG <= lo and hi <= CIS_MAX_ARG):
        # nan skips the fast test; only finite angles past the split raise
        if np.any(np.isfinite(b) & (np.abs(b) > CIS_MAX_ARG)):
            raise ValueError(f"angle beyond +-{CIS_MAX_ARG:.4g}, where the "
                             "argument reduction stops being exact")
    t = b * (CIS_TABLE / (2.0 * np.pi))
    t += _ROUND_MAGIC
    k = t - _ROUND_MAGIC
    # masking keeps the index in bounds whatever t holds, nan included
    idx = np.bitwise_and(t.view(np.int64), CIS_TABLE - 1)
    r = np.multiply(k, _CIS_C1)
    np.subtract(b, r, out=r)
    k *= _CIS_C2
    r -= k
    r2 = np.multiply(r, r, out=t)
    cos_r = np.multiply(r2, 1.0 / 24.0, out=k)
    cos_r -= 0.5
    cos_r *= r2
    cos_r += 1.0
    # the last product into out, not in place: numpy rounds an in-place
    # complex product on one element differently from its array loop
    near = np.empty(b.shape, dtype=complex)
    np.multiply(cos_r, scale, out=near.real)
    sin_r = np.multiply(r2, -1.0 / 6.0, out=r2)
    sin_r += 1.0
    sin_r *= r
    np.multiply(sin_r, scale, out=near.imag)
    np.multiply(near, _CIS[idx], out=out)
