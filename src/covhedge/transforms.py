"""Conditional exponential-affine transforms for both covariance classes.

For a model state (Y, Sigma) the conditional transform of the terminal log
price is exponential-affine,

    E[exp(u' Y_T) | F_t] = exp(phi(tau, u) + u' Y_t + Tr(psi(tau, u) Sigma_t)),

with tau = T - t.  This module computes (phi, psi):

* Wishart diffusion: psi solves a matrix Riccati equation whose flow
  linearizes through a 2d x 2d Hamiltonian matrix.  With
  F = M + (A'rho) u', G = A'A and D = (u u' - diag u)/2 the Riccati is

      d psi / d tau = 2 psi G psi + psi F + F' psi + D,  psi(0) = V,

  and with Theta = expm(tau * Ham), Ham = [[F, -2G], [D, -F']], the flow is

      psi(tau) = (Theta_22 + V Theta_12)^{-1} (Theta_21 + V Theta_11).

  (Left inverse: substituting the first-order expansion of Theta shows this
  and only this block pairing reproduces the Riccati right-hand side.)

* Pure-jump covariance: the Riccati is linear,
  psi(tau) = e^{M' tau} V e^{M tau} + int_0^tau e^{M's} D e^{Ms} ds,
  and phi integrates the Levy exponent of the leveraged jumps through the
  Wishart MGF at the shifted argument R_s(u) = psi(s, u) + Diag(rho * u).

Transform-domain failures (blown-up flows, MGF strip violations, overflow in
the final exponential) are reported through a ``valid`` flag, never raised:
contour integration treats invalid nodes as missing data and accounts for
the skipped mass.

The scalar functions below integrate phi on [0, tau] with their own
PHI_QUAD_NODES-point rule.  ``transform_grid``, the engine behind pricing
and hedging, evaluates a whole (times-to-maturity) x (contour nodes)
lattice at once:

* Cumulative phi along tau.  The distinct positive tau are sorted, each
  span between neighbours is cut into equal panels no wider than
  PHI_PANEL_WIDTH, and a PHI_PANEL_NODES-point Gauss-Legendre rule runs on
  every panel, so phi(tau_k) = phi(tau_{k-1}) + the integral over
  [tau_{k-1}, tau_k].  Each quadrature point serves every later tau.
* Node blocks.  Nodes are taken in blocks of about BLOCK_POINTS (node, s)
  points, which bounds the working set.  For the diffusion, one batched
  eigendecomposition of the block's Hamiltonians gives the lower block rows
  of Theta at every s (a node whose eigenvector basis has condition number
  above 1e10 falls back to expm), followed by one batched condition,
  solve, blow-up and asymmetry check.  For the jump model the operator
  int_0^s e^{M'r} (x) e^{M'r} dr mapping D(u) to psi(s, u) does not depend
  on the node and is built once; each block then needs one batched strip
  margin and log-determinant.
* Forward validity.  A node is valid at tau only if every check passed at
  every evaluated point in [0, tau]: the quadrature points and the tau of
  the grid up to it.  Once a node fails it stays invalid for every later
  tau, and its phi and psi hold nan there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcalc, models

__all__ = [
    "TransformEval",
    "TransformGrid",
    "wasc_hamiltonian",
    "wasc_psi",
    "wasc_phi",
    "bns_psi",
    "bns_phi",
    "transform",
    "basis_value",
    "transform_grid",
]

PHI_QUAD_NODES = 64
# lattice engine: the phi panel rule along the tau grid, and the (node, s)
# points evaluated per node block, which bounds the working set; chosen from
# the error-versus-cost and memory curves recorded in CHANGES.md
PHI_PANEL_NODES = 8
PHI_PANEL_WIDTH = 0.125
BLOCK_POINTS = 512
_EIG_COND_LIMIT = 1e10
_COND_LIMIT = 1e12
_BLOWUP_LIMIT = 1e12
_ASYM_TOL = 1e-6


@dataclass(frozen=True)
class TransformEval:
    """(phi, psi) at one (tau, u) together with a domain-validity flag."""

    tau: float
    u: np.ndarray
    phi: complex
    psi: np.ndarray
    valid: bool


def _nan_mat(d: int) -> np.ndarray:
    return np.full((d, d), np.nan + 1j * np.nan)


def _as_cvec(u, d: int) -> np.ndarray:
    a = np.asarray(u, dtype=complex).reshape(-1)
    if a.size != d:
        raise ValueError(f"u: expected length {d}, got {a.size}")
    return a


def _source(u: np.ndarray) -> np.ndarray:
    """The Riccati source term D = (u u' - diag u) / 2, batched over u."""
    d = u.shape[-1]
    return 0.5 * (u[..., :, None] * u[..., None, :]
                  - np.eye(d) * u[..., None, :])


# ---------------------------------------------------------------------------
# Wishart diffusion transform
# ---------------------------------------------------------------------------

def wasc_hamiltonian(params: models.WascParams, u) -> np.ndarray:
    """The 2d x 2d linearization matrix [[F, -2A'A], [(uu'-diag u)/2, -F']];
    a (B, d) stack of arguments gives a (B, 2d, 2d) stack."""
    d = params.d
    u = np.asarray(u, dtype=complex)
    u = _as_cvec(u, d) if u.ndim != 2 else u
    a_rho = params.vol_of_vol.T @ params.leverage
    f = params.mean_rev + a_rho[:, None] * u[..., None, :]
    ham = np.zeros(u.shape[:-1] + (2 * d, 2 * d), dtype=complex)
    ham[..., :d, :d] = f
    ham[..., :d, d:] = -2.0 * params.vol_of_vol.T @ params.vol_of_vol
    ham[..., d:, :d] = _source(u)
    ham[..., d:, d:] = -f.swapaxes(-1, -2)
    return ham


def _flow_solve(lhs: np.ndarray, rhs: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """psi = lhs^{-1} rhs for a stack of flow blocks, with the checks that
    flag a blown-up or numerically singular flow.  Returns psi (0 where a
    check failed) and the per-entry flags."""
    ok = np.all(np.isfinite(lhs), axis=(-2, -1))
    ok[ok] = np.linalg.cond(lhs[ok]) < _COND_LIMIT
    sol = np.linalg.solve(lhs[ok], rhs[ok])
    scale = np.maximum(np.max(np.abs(sol), axis=(-2, -1)), 1.0)
    asym = np.max(np.abs(sol - sol.swapaxes(-1, -2)), axis=(-2, -1))
    # magnitude guard: near a singular flow crossing the solve stays
    # well conditioned for d = 1 yet the solution itself diverges
    sol_ok = (np.all(np.isfinite(sol), axis=(-2, -1))
              & (scale <= _BLOWUP_LIMIT) & (asym <= _ASYM_TOL * scale))
    psi = np.zeros(lhs.shape, dtype=complex)
    psi[ok] = np.where(sol_ok[:, None, None], matcalc.sym_part(sol), 0.0)
    ok[ok] = sol_ok
    return psi, ok


def wasc_psi(params: models.WascParams, tau: float, u, v=None
             ) -> tuple[np.ndarray, bool]:
    """State coefficient psi(tau, u, V) of the Wishart-diffusion transform.

    Closed form through the Hamiltonian matrix exponential; the returned flag
    is False when the flow inverse is numerically singular (transform
    blow-up), in which case callers should shrink the damping strip.
    """
    d = params.d
    u = _as_cvec(u, d)
    if v is not None:
        v = np.asarray(v, dtype=complex)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        return (np.zeros((d, d), dtype=complex) if v is None else v.copy()), True
    theta = matcalc.mat_exp(tau * wasc_hamiltonian(params, u))
    lhs, rhs = theta[d:, d:], theta[d:, :d]
    if v is not None:
        lhs, rhs = lhs + v @ theta[:d, d:], rhs + v @ theta[:d, :d]
    with np.errstate(invalid="ignore"):
        psi, ok = _flow_solve(lhs[None], rhs[None])
    return (psi[0] if ok[0] else _nan_mat(d)), bool(ok[0])


def wasc_phi(params: models.WascParams, tau: float, u, v=None
             ) -> tuple[complex, bool]:
    """phi(tau, u, V) = int_0^tau Tr(Omega psi(s)) ds by Gauss-Legendre."""
    u = _as_cvec(u, params.d)
    if tau == 0.0:
        return 0.0 + 0.0j, True
    x, w = matcalc.gauss_legendre(0.0, tau, PHI_QUAD_NODES)
    total = 0.0 + 0.0j
    for s, ws in zip(x, w):
        psi, ok = wasc_psi(params, float(s), u, v)
        if not ok:
            return complex(np.nan, np.nan), False
        total += ws * np.trace(params.omega @ psi)
    return complex(total), True


# ---------------------------------------------------------------------------
# pure-jump covariance transform
# ---------------------------------------------------------------------------

def bns_psi(params: models.BnsParams, tau: float, u, v=None
            ) -> tuple[np.ndarray, bool]:
    """psi(tau,u,V) = e^{M'tau} V e^{M tau} + int_0^tau e^{M's} D e^{Ms} ds."""
    d = params.d
    u = _as_cvec(u, d)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    # vec of the integral: int_0^tau e^{M's} (x) e^{M's} ds applied to vec D
    lift = matcalc.kron_lift(params.mean_rev.T)
    flow, integ, _ = matcalc.lift_flows(lift, np.array(float(tau)))
    psi = matcalc.mat(integ @ matcalc.vec(_source(u)))
    if v is not None:
        v = np.asarray(v, dtype=complex)
        psi = psi + matcalc.mat(flow @ matcalc.vec(v))
    return matcalc.sym_part(psi), True


def bns_phi(params: models.BnsParams, tau: float, u, v=None
            ) -> tuple[complex, bool]:
    """phi(tau,u,V): integrated Levy exponent of the leveraged jumps minus
    the martingale drift, int_0^tau lam*(mgf(R_s(u)) - 1) ds - tau * u'kappa.

    The MGF strip condition is checked at every quadrature node; the first
    violation invalidates the whole evaluation.
    """
    u = _as_cvec(u, params.d)
    if tau == 0.0:
        return 0.0 + 0.0j, True
    x, w = matcalc.gauss_legendre(0.0, tau, PHI_QUAD_NODES)
    r_s = np.stack([bns_psi(params, float(s), u, v)[0] for s in x])
    mgf, ok = models.wishart_mgf(params.wishart_scale, params.wishart_shape,
                                 r_s + np.diag(params.leverage_diag * u))
    if not np.all(ok):
        return complex(np.nan, np.nan), False
    total = w @ (params.jump_intensity * (mgf - 1.0))
    return complex(total - tau * (u @ params.drift_comp)), True


# ---------------------------------------------------------------------------
# dispatch and basis-claim evaluation
# ---------------------------------------------------------------------------

def transform(params, tau: float, u, v=None) -> TransformEval:
    """(phi, psi) bundle for either model class."""
    u = _as_cvec(u, params.d)
    if params.kind == "wasc":
        psi, ok1 = wasc_psi(params, tau, u, v)
        phi, ok2 = (wasc_phi(params, tau, u, v) if ok1
                    else (complex(np.nan, np.nan), False))
    else:
        psi, ok1 = bns_psi(params, tau, u, v)
        phi, ok2 = (bns_phi(params, tau, u, v) if ok1
                    else (complex(np.nan, np.nan), False))
    return TransformEval(tau=tau, u=u, phi=phi, psi=psi, valid=ok1 and ok2)


def basis_value(params, state: models.MarketState, horizon: float, u
                ) -> tuple[complex, bool]:
    """H_t(u) = E[exp(u'Y_T) | F_t] evaluated at the given market state.

    Returns (nan, False) on transform-domain failure or when the real part of
    the exponent exceeds the overflow guard.
    """
    tau = horizon - state.t
    ev = transform(params, tau, u)
    if not ev.valid:
        return complex(np.nan, np.nan), False
    expo = ev.phi + ev.u @ state.log_spot + np.trace(ev.psi @ state.cov)
    if expo.real > models.OVERFLOW_RE:
        return complex(np.nan, np.nan), False
    return complex(np.exp(expo)), True


# ---------------------------------------------------------------------------
# batched evaluation on a (time grid) x (contour nodes) lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformGrid:
    """(phi, psi) for V = 0 on a lattice of times-to-maturity and u nodes.

    phi has shape (K, M), psi has shape (K, M, d, d), valid (K, M); row k
    corresponds to taus[k] and column m to nodes[m].
    """

    taus: np.ndarray
    nodes: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    valid: np.ndarray


def _phi_panels(knots: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule along sorted positive knots: each span
    [knots[k-1], knots[k]] (from 0 for k = 0) is cut into equal panels no
    wider than PHI_PANEL_WIDTH.  Returns the points, the weights and the
    index of each span's first point; the points run in span order."""
    x, w = np.polynomial.legendre.leggauss(PHI_PANEL_NODES)
    lo = np.concatenate([[0.0], knots[:-1]])
    count = np.ceil((knots - lo) / PHI_PANEL_WIDTH).astype(int)
    first = np.cumsum(count) - count
    span = np.repeat(np.arange(knots.size), count)
    width = ((knots - lo) / count)[span]
    left = lo[span] + (np.arange(span.size) - first[span]) * width
    pts = left[:, None] + 0.5 * width[:, None] * (x + 1.0)
    wts = 0.5 * width[:, None] * w
    return pts.ravel(), wts.ravel(), PHI_PANEL_NODES * first


def _wasc_block(params: models.WascParams, svals: np.ndarray):
    """Block evaluator: (B, d) nodes -> psi (B, S, d, d), the phi integrand
    Tr(Omega psi) (B, S) and the validity checks (B, S) at every s."""
    d = params.d

    def block(u: np.ndarray):
        ham = wasc_hamiltonian(params, u)                  # (B, 2d, 2d)
        lam, q = np.linalg.eig(ham)
        eig_ok = np.linalg.cond(q) <= _EIG_COND_LIMIT
        # lower block rows [Theta_21, Theta_22] of expm(s Ham), (B, S, d, 2d),
        # as sum_j e^{s lam_j} q[d:, j] (x) q^{-1}[j, :]: one batched product
        # with no temporary the size of the result
        modes = np.zeros((u.shape[0], 2 * d, 2 * d * d), dtype=complex)
        modes[eig_ok] = (q[eig_ok, d:, :].swapaxes(-1, -2)[..., None]
                         * np.linalg.inv(q[eig_ok])[:, :, None, :]
                         ).reshape(-1, 2 * d, 2 * d * d)
        low = (np.exp(svals[:, None] * lam[:, None, :]) @ modes).reshape(
            u.shape[0], svals.size, d, 2 * d)
        for b in np.flatnonzero(~eig_ok):
            low[b] = matcalc.mat_exp(svals[:, None, None] * ham[b])[:, d:, :]
        psi, ok = _flow_solve(low[..., d:], low[..., :d])
        return psi, np.einsum("ab,...ba->...", params.omega, psi), ok

    return block


def _bns_block(params: models.BnsParams, svals: np.ndarray):
    """Block evaluator as in _wasc_block; the phi integrand is
    lam (mgf(R_s(u)) - 1) - u'kappa and the check is the mark strip."""
    d = params.d
    # psi(s, u) = mat(ops[s] @ vec D(u)): ops[s] = int_0^s e^{M'r} (x) e^{M'r}
    # dr does not depend on the node
    _, ops, _ = matcalc.lift_flows(matcalc.kron_lift(params.mean_rev.T), svals)

    def block(u: np.ndarray):
        dvec = _source(u).reshape(u.shape[0], d * d)       # symmetric: = vec
        psi = np.einsum("sij,bj->bsi", ops, dvec)
        psi = matcalc.sym_part(psi.reshape(psi.shape[:2] + (d, d)))
        lev = np.eye(d) * (params.leverage_diag * u)[:, None, :]
        r_u = psi + lev[:, None]
        mgf, ok = models.wishart_mgf(params.wishart_scale,
                                     params.wishart_shape, r_u)
        rate = (np.where(ok, params.jump_intensity * (mgf - 1.0), 0.0)
                - (u @ params.drift_comp)[:, None])
        return psi, rate, ok

    return block


def transform_grid(params, taus, nodes) -> TransformGrid:
    """Evaluate (phi, psi) with V = 0 on a times x nodes lattice.

    taus: array (K,) of nonnegative times-to-maturity, in any order, with
    repeats and 0 allowed.
    nodes: array (M, d) of complex arguments.

    Entries that fail a domain check hold nan in phi and psi.
    """
    taus = np.asarray(taus, dtype=float).reshape(-1)
    nodes = np.atleast_2d(np.asarray(nodes, dtype=complex))
    if np.any(taus < 0):
        raise ValueError("times-to-maturity must be nonnegative")
    m_nodes, d = nodes.shape[0], params.d
    knots, row = np.unique(taus, return_inverse=True)
    lead = int(knots.size > 0 and knots[0] == 0.0)    # the tau = 0 row
    n_k = knots.size - lead
    phi = np.zeros((knots.size, m_nodes), dtype=complex)
    psi = np.zeros((knots.size, m_nodes, d, d), dtype=complex)
    valid = np.ones((knots.size, m_nodes), dtype=bool)
    if n_k:
        pts, wts, starts = _phi_panels(knots[lead:])
        svals = np.concatenate([knots[lead:], pts])
        block = (_wasc_block if params.kind == "wasc" else _bns_block)(
            params, svals)
        width = max(1, BLOCK_POINTS // svals.size)
        for lo in range(0, m_nodes, width):
            cols = slice(lo, lo + width)
            with np.errstate(over="ignore", invalid="ignore"):
                ps, rate, ok = block(nodes[cols])
            # a node stays valid up to the first failed check along [0, tau]
            bad = ~ok[:, :n_k] | np.logical_or.reduceat(~ok[:, n_k:], starts,
                                                         axis=1)
            good = ~np.logical_or.accumulate(bad, axis=1)      # (B, K)
            ph = np.cumsum(np.add.reduceat(rate[:, n_k:] * wts, starts,
                                           axis=1), axis=1)
            phi[lead:, cols] = np.where(good, ph, np.nan).T
            psi[lead:, cols] = np.where(good[..., None, None], ps[:, :n_k],
                                        np.nan).swapaxes(0, 1)
            valid[lead:, cols] = good.T
    return TransformGrid(taus=taus, nodes=nodes, phi=phi[row], psi=psi[row],
                         valid=valid[row])
