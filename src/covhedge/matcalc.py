"""Dense matrix utilities shared by every other module.

All covariance-state algebra in this package runs through the helpers below:
column-stacking ``vec``/``mat``, the Kronecker lift of a linear matrix drift,
the batched PSD square root and repair (``sqrt_psd``, ``psd_repair``) that
the simulator applies to discretized covariance states at every step, and
the batched elimination pivots (``elimination_pivots``) behind the Wishart
MGF.  Plain matrix exponentials and pseudoinverses are scipy's
(``scipy.linalg.expm``, ``scipy.linalg.pinvh``), called directly.

``lift_flows``, the flow of a lifted linear drift with its integral and
double integral (Van Loan 1978), is the one matrix-flow helper: moments,
simulation, the jump-model transform and the swap coefficients all use it.

Conventions
-----------
* ``vec`` stacks *columns* (Fortran order). Every formula of the form
  ``lift(M) @ vec(X)`` in this package assumes that convention.
* Positive semidefiniteness is relative to ``PSD_RTOL`` = 1e-10:
  discretization of covariance dynamics produces harmless eigenvalues of
  that relative size below zero.  ``psd_tolerance(M)`` scales it by the
  spectral norm; ``psd_repair`` scales it by each matrix's largest absolute
  entry when it counts material repairs.

All functions are pure and never mutate their inputs.
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
    "adj_last",
    "is_symmetric",
    "psd_tolerance",
    "min_eigenvalue",
    "sqrt_psd",
    "psd_repair",
    "elimination_pivots",
]

# Relative PSD tolerance; the module docstring gives the scale of each use.
PSD_RTOL = 1e-10
# power-series terms of lift_flows, whose series runs on ||lift|| delta <= 1
_FLOW_TERMS = 20


def lift_flows(lift: np.ndarray, deltas: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Van Loan's triple for a linear drift: exp(lift * delta), its time
    integral over [0, delta] and the double integral int_0^delta (delta - s)
    exp(lift * s) ds, batched over deltas.

    A 20-term power series, run on delta itself when ||lift|| * delta <= 1
    and otherwise on delta / 2^k followed by k squarings.  The scaling is
    chosen per delta, so one entry never depends on the others in the batch.
    """
    n = lift.shape[0]
    deltas = np.asarray(deltas, dtype=float)
    nrm = np.linalg.norm(lift, np.inf) * deltas
    doublings = np.ceil(np.log2(np.maximum(nrm, 1.0))).astype(int)
    scaled = deltas / 2.0 ** doublings
    # term j of the three series: delta^(j+i) lift^j / (j+i)! for i = 0, 1, 2
    mats = np.empty((_FLOW_TERMS, 3, n, n))
    ej = np.eye(n)                                   # lift^j / j!
    for j in range(_FLOW_TERMS):
        mats[j, 0] = ej
        ej = ej @ lift / (j + 1.0)
    order = np.arange(1.0, _FLOW_TERMS + 1.0)[:, None, None]
    mats[:, 1] = mats[:, 0] / order
    mats[:, 2] = mats[:, 1] / (order + 1.0)
    # series i takes term j with (delta / 2^k)^(j+i); one running power
    # keeps the working set at one series term per batch entry
    acc = np.zeros((3,) + deltas.shape + (n, n))
    power = np.ones(deltas.shape + (1, 1))
    for t in range(_FLOW_TERMS + 2):
        for i in range(max(0, t - _FLOW_TERMS + 1), min(t, 2) + 1):
            acc[i] += power * mats[t - i, i]
        power = power * scaled[..., None, None]
    flow, int1, int2 = acc
    for i in range(int(doublings.max(initial=0))):
        more = (doublings > i)[..., None, None]
        step = scaled[..., None, None]
        int2 = np.where(more, int2 + step * int1 + flow @ int2, int2)
        int1 = np.where(more, int1 + flow @ int1, int1)
        flow = np.where(more, flow @ flow, flow)
        scaled = np.where(doublings > i, 2.0 * scaled, scaled)
    return flow, int1, int2


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
    eye = np.eye(a.shape[0])
    return np.kron(eye, a) + np.kron(a, eye)


def sym_part(m: np.ndarray) -> np.ndarray:
    """Symmetric part (M + M^T) / 2; for complex input this is the
    transpose-symmetrization, not the Hermitian part."""
    a = np.asarray(m)
    return 0.5 * (a + a.swapaxes(-1, -2))


def is_symmetric(m: np.ndarray, rtol: float = 1e-12) -> bool:
    """True when ||M - M^T|| <= rtol * max(||M||, 1) entrywise."""
    a = np.asarray(m)
    scale = max(float(np.max(np.abs(a))), 1.0)
    return bool(np.max(np.abs(a - a.swapaxes(-1, -2))) <= rtol * scale)


def psd_tolerance(m: np.ndarray) -> float:
    """Absolute PSD tolerance for a symmetric matrix: 1e-10 x spectral norm."""
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        return 0.0
    # symmetric input: spectral norm equals the largest |eigenvalue|
    return PSD_RTOL * float(np.linalg.norm(a, 2))


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric real matrix."""
    return float(np.linalg.eigvalsh(np.asarray(m, dtype=float))[0])


def sqrt_psd(mats: np.ndarray) -> np.ndarray:
    """Principal square roots of a (..., d, d) stack of symmetric PSD
    matrices: closed form for d <= 2, eigendecomposition above.  Negative
    eigenvalues (for d = 2, a negative determinant) are clipped to zero, so
    rounding just outside the PSD cone is harmless."""
    d = mats.shape[-1]
    if d == 1:
        return np.sqrt(np.clip(mats, 0.0, None))
    if d == 2:
        a, b, c = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]
        det = np.clip(a * c - b * b, 0.0, None)
        s = np.sqrt(det)
        t = np.sqrt(np.clip(a + c + 2.0 * s, 0.0, None))
        safe = np.where(t > 0.0, t, 1.0)
        out = mats + s[..., None, None] * np.eye(2)
        out = out / safe[..., None, None]
        return np.where((t > 0.0)[..., None, None], out, 0.0)
    w, v = np.linalg.eigh(mats)
    w = np.sqrt(np.clip(w, 0.0, None))
    return np.einsum("...ij,...j,...kj->...ik", v, w, v)


def psd_repair(mats: np.ndarray) -> tuple[np.ndarray, int]:
    """Clip the negative eigenvalues of a (..., d, d) stack of symmetric
    matrices to zero, the nearest PSD matrix in Frobenius norm.

    Returns:
        (repaired, material): the input itself when no matrix has a negative
        eigenvalue, otherwise a repaired copy; and the number of matrices
        whose most negative eigenvalue is below -PSD_RTOL times their
        largest absolute entry, i.e. repairs beyond floating-point noise.
    """
    d = mats.shape[-1]
    if d == 2:
        a, b, c = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]
        half_tr = 0.5 * (a + c)
        det = a * c - b * b
        disc = np.sqrt(np.clip(half_tr * half_tr - det, 0.0, None))
        lmin = half_tr - disc
    else:
        lmin = np.linalg.eigvalsh(mats)[..., 0]
    bad = lmin < 0.0
    if not np.any(bad):
        return mats, 0
    scale = np.maximum(np.abs(mats).max(axis=(-1, -2)), 1e-300)
    material = int(np.count_nonzero(bad & (-lmin > PSD_RTOL * scale)))
    w, v = np.linalg.eigh(mats[bad])
    w = np.clip(w, 0.0, None)
    out = mats.copy()
    out[bad] = np.einsum("...ij,...j,...kj->...ik", v, w, v)
    return out, material


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


def _minor_det(a: np.ndarray, rows: tuple, cols: tuple, memo: dict):
    """Determinant of the submatrix of rows x cols, by cofactor expansion
    along its first row, each minor computed once per memo; 1 for an empty
    one.

    Each product takes the minor as its left factor: numpy's complex
    product is not bitwise commutative, and it may swap the factors to
    reuse a large temporary on the right, so a right temporary would make
    an entry's bits depend on the size of the stack."""
    if len(rows) <= 1:
        return a[rows[0], cols[0]] if rows else 1.0
    if (rows, cols) not in memo:
        out = None
        for k, c in enumerate(cols):
            minor = _minor_det(a, rows[1:], cols[:k] + cols[k + 1:], memo)
            term = minor * a[rows[0], c]
            out = term if out is None else out - term if k % 2 else out + term
        memo[rows, cols] = out
    return memo[rows, cols]


def det_last(a: np.ndarray) -> np.ndarray:
    """Determinants of a (d, d, ...) stack stored batch last, by cofactor
    expansion: unrolled ufunc arithmetic, so each entry is independent of
    the others.  Its cost grows like 2^d d, so it serves small d only."""
    idx = tuple(range(a.shape[0]))
    return _minor_det(a, idx, idx, {})


def adj_last(a: np.ndarray) -> np.ndarray:
    """Adjugates of a (d, d, ...) stack stored batch last (adj A = det A
    A^{-1}), by cofactors as in det_last."""
    d = a.shape[0]
    idx = tuple(range(d))
    adj = np.empty_like(a)
    memo = {}
    for i in range(d):
        for j in range(d):
            minor = _minor_det(a, idx[:j] + idx[j + 1:], idx[:i] + idx[i + 1:],
                               memo)
            adj[i, j] = -minor if (i + j) % 2 else minor
    return adj


def elimination_pivots(mats: np.ndarray) -> np.ndarray:
    """Diagonal pivots of Gaussian elimination without row exchanges on a
    (..., d, d) stack, real or complex, as a (..., d) array.

    Pivot k is the ratio of the leading principal minors of orders k + 1
    and k, so the pivots multiply to the determinant.  The d steps are
    unrolled into ufunc arithmetic along the batch, so each entry is
    independent of the others.  Each entry is read as mats[..., i, j], so a
    stack stored entries first is used in place.  A zero pivot leaves the
    later pivots of its entry non-finite, without a warning.
    """
    d = mats.shape[-1]
    # one batch axis even for one matrix: numpy's scalar arithmetic can
    # round a complex product differently from its array loops
    stack = mats[None] if mats.ndim == 2 else mats
    rows = [[stack[..., i, j] for j in range(d)] for i in range(d)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(d - 1):
            for i in range(k + 1, d):
                f = rows[i][k] / rows[k][k]
                for j in range(k + 1, d):
                    rows[i][j] = rows[i][j] - f * rows[k][j]
    # pivot k of every entry is one contiguous row of the storage
    piv = np.stack([rows[k][k] for k in range(d)])
    return piv.transpose(tuple(range(1, piv.ndim)) + (0,)
                         ).reshape(mats.shape[:-1])
