"""Dense matrix utilities shared by every other module.

All covariance-state algebra in this package runs through the helpers below:
column-stacking ``vec``/``mat``, the Kronecker lift of a linear matrix drift,
matrix exponentials, eigendecomposition-based pseudoinverses and PSD square
roots, and the PSD projection used to repair discretized covariance states.

Conventions
-----------
* ``vec`` stacks *columns* (Fortran order). Every formula of the form
  ``lift(M) @ vec(X)`` in this package assumes that convention.
* Positive semidefiniteness is always relative to ``psd_tolerance(M)``,
  i.e. ``1e-10`` times the spectral norm: discretization of covariance
  dynamics produces harmless eigenvalues of that size below zero.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "PSD_RTOL",
    "mat_exp",
    "lift_flows",
    "vec",
    "mat",
    "kron_lift",
    "sym_part",
    "is_symmetric",
    "psd_tolerance",
    "min_eigenvalue",
    "psd_project",
    "sqrt_psd",
    "pinv_psd",
    "gauss_legendre",
]

# Relative PSD tolerance: eigenvalues above -PSD_RTOL * ||M||_2 count as >= 0.
PSD_RTOL = 1e-10


def _require_square(m: np.ndarray, who: str, stack: bool = False
                    ) -> np.ndarray:
    a = np.asarray(m)
    if (a.ndim < 2 or (a.ndim > 2 and not stack)
            or a.shape[-1] != a.shape[-2]):
        raise ValueError(f"{who}: expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float) if np.iscomplexobj(a) else a)):
        raise ValueError(f"{who}: input contains NaN or infinity")
    return a


def mat_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real or complex square matrix, or of each
    matrix in a (..., n, n) stack.

    Uses the scaling-and-squaring Pade approximant; relative accuracy is
    ~1e-12 or better for well-conditioned inputs.

    Args:
        m: square matrix or stack of them, real or complex.

    Returns:
        e^m with the same dtype kind as the input.

    Raises:
        ValueError: non-square input or non-finite entries.
    """
    a = _require_square(m, "mat_exp", stack=True)
    return scipy.linalg.expm(a)


def lift_flows(lift: np.ndarray, deltas: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(lift * delta), its time integral over [0, delta], and the double
    time integral, batched over deltas.  Power series with scaling and
    squaring, so large mean-reversion norms stay accurate."""
    n = lift.shape[0]
    deltas = np.asarray(deltas, dtype=float)
    dmax = float(deltas.max(initial=0.0))
    nrm = np.linalg.norm(lift, np.inf) * dmax
    doublings = max(0, int(np.ceil(np.log2(max(nrm, 1e-300))))) if nrm > 1 \
        else 0
    scaled = deltas / (2.0 ** doublings)

    eye = np.eye(n)
    flow = np.zeros(deltas.shape + (n, n))
    int1 = np.zeros_like(flow)
    int2 = np.zeros_like(flow)
    ej = eye.copy()                       # lift^j / j!
    tp = np.ones_like(scaled)             # delta^j
    for j in range(30):
        flow += tp[..., None, None] * ej
        int1 += (tp * scaled)[..., None, None] * (ej / (j + 1))
        int2 += (tp * scaled * scaled)[..., None, None] * (
            ej / ((j + 1) * (j + 2)))
        ej = ej @ lift / (j + 1)
        tp = tp * scaled
    for _ in range(doublings):
        step = scaled[..., None, None]
        int2 = int2 + step * int1 + flow @ int2
        int1 = int1 + flow @ int1
        flow = flow @ flow
        scaled = 2.0 * scaled
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
    a = _require_square(m, "kron_lift")
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


def psd_project(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Project a symmetric matrix onto the PSD cone by eigenvalue clipping.

    Args:
        m: symmetric real matrix (symmetrized defensively before the eig).

    Returns:
        (projection, clipped): the nearest PSD matrix in Frobenius norm and
        the magnitude of the most negative eigenvalue that was clipped
        (0.0 when the input was already PSD).
    """
    a = sym_part(np.asarray(m, dtype=float))
    w, q = np.linalg.eigh(a)
    clipped = max(0.0, -float(w[0]))
    if clipped == 0.0:
        return a, 0.0
    w = np.clip(w, 0.0, None)
    return (q * w) @ q.T, clipped


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root R with R @ R == M.

    Eigenvalues in [-tol, 0) with tol = psd_tolerance(M) are clipped to zero;
    anything more negative is treated as an invalid covariance state.

    Raises:
        ValueError: asymmetric input, or an eigenvalue below -tol.
    """
    a = np.asarray(m, dtype=float)
    if not is_symmetric(a, rtol=1e-10):
        raise ValueError("sqrt_psd: input must be symmetric")
    tol = psd_tolerance(a)
    w, q = np.linalg.eigh(sym_part(a))
    if w[0] < -tol:
        raise ValueError(
            f"sqrt_psd: eigenvalue {w[0]:.3e} below -{tol:.3e}; not a covariance state"
        )
    w = np.clip(w, 0.0, None)
    return (q * np.sqrt(w)) @ q.T


def pinv_psd(m: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix.

    Computed from the eigendecomposition (the package never needs an SVD
    here: every pseudoinverted matrix is symmetric PSD by construction).
    Eigenvalues below ``rcond * max(eigenvalue)`` are treated as zero.

    Raises:
        ValueError: asymmetric input.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"pinv_psd: expected square matrix, got {a.shape}")
    if not is_symmetric(a, rtol=1e-10):
        raise ValueError("pinv_psd: input must be symmetric")
    w, q = np.linalg.eigh(sym_part(a))
    wmax = float(w[-1])
    if wmax <= 0.0:
        return np.zeros_like(a)
    inv = np.where(w > rcond * wmax, 1.0 / np.where(w > 0, w, 1.0), 0.0)
    return (q * inv) @ q.T


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    if n < 1:
        raise ValueError("gauss_legendre: need at least one node")
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w
