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
  This module evaluates V = 0, psi = Theta_22^{-1} Theta_21, and
  phi = int_0^tau Tr(Omega psi(s)) ds.

* Pure-jump covariance: the Riccati is linear,
  psi(tau) = int_0^tau e^{M's} D e^{Ms} ds,
  and phi integrates the Levy exponent of the leveraged jumps through the
  Wishart MGF at the shifted argument R_s(u) = psi(s, u) + Diag(rho * u).

Transform-domain failures (blown-up flows, moment explosions, MGF strip
violations) are reported through a ``valid`` flag, never raised: contour
integration treats invalid nodes as missing data and accounts for the
skipped mass.

``transform_grid`` is the one engine, for V = 0.  It evaluates a whole
(times-to-maturity) x (contour nodes) lattice at once:

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
* Moment explosion (diffusion).  The checks above only fire close to a
  Riccati pole, so a pole between two evaluated points would pass.  For
  each distinct real part a = Re(u) among the nodes, the real companion
  node u = a is evaluated too: det Theta_22(s) is real for it, starts at 1
  and vanishes exactly where its flow explodes.  From the first evaluated
  s where it is not positive, E[exp(a'Y)] is infinite and every node with
  real part a is invalid (Keller-Ressel 2011).
* Forward validity.  A node is valid at tau only if every check passed at
  every evaluated point in [0, tau]: the quadrature points and the tau of
  the grid up to it.  Once a node fails it stays invalid for every later
  tau, and its phi and psi hold nan there.

Single evaluations go through the same engine as a 1 x 1 lattice.  H at a
market state is formed by the callers, ``hedging.pricing.fourier_price`` and
``hedging.backtest.BasisCache.basis``, under the overflow rule stated at
``models.OVERFLOW_RE``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcalc, models

__all__ = [
    "TransformGrid",
    "wasc_hamiltonian",
    "transform_grid",
]

# lattice engine: the phi panel rule along the tau grid, and the (node, s)
# points evaluated per node block, which bounds the working set; chosen from
# the error-versus-cost and memory curves recorded in CHANGES.md
PHI_PANEL_NODES = 8
PHI_PANEL_WIDTH = 0.125
BLOCK_POINTS = 512
_EIGVEC_COND_MAX = 1e10
_BLOWUP_LIMIT = 1e12
_ASYM_TOL = 1e-6


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
    ok[ok] = np.linalg.cond(lhs[ok]) < models.COND_LIMIT
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


def _theta_low(params: models.WascParams, u: np.ndarray, svals: np.ndarray
               ) -> np.ndarray:
    """Lower block rows [Theta_21, Theta_22] of expm(s Ham(u)) for (B, d)
    nodes at every s, shape (B, S, d, 2d)."""
    d = params.d
    ham = wasc_hamiltonian(params, u)                      # (B, 2d, 2d)
    lam, q = np.linalg.eig(ham)
    eig_ok = np.linalg.cond(q) <= _EIGVEC_COND_MAX
    # sum_j e^{s lam_j} q[d:, j] (x) q^{-1}[j, :]: one batched product with
    # no temporary the size of the result
    modes = np.zeros((u.shape[0], 2 * d, 2 * d * d), dtype=complex)
    modes[eig_ok] = (q[eig_ok, d:, :].swapaxes(-1, -2)[..., None]
                     * np.linalg.inv(q[eig_ok])[:, :, None, :]
                     ).reshape(-1, 2 * d, 2 * d * d)
    low = (np.exp(svals[:, None] * lam[:, None, :]) @ modes).reshape(
        u.shape[0], svals.size, d, 2 * d)
    for b in np.flatnonzero(~eig_ok):
        low[b] = matcalc.mat_exp(svals[:, None, None] * ham[b])[:, d:, :]
    return low


def _wasc_block(params: models.WascParams, svals: np.ndarray,
                nodes: np.ndarray):
    """Block evaluator: node columns -> psi (B, S, d, d), the phi integrand
    Tr(Omega psi) (B, S) and the validity checks (B, S) at every s."""
    d = params.d
    # det Theta_22 of each distinct real part's companion node, in blocks
    reals, which = np.unique(nodes.real, axis=0, return_inverse=True)
    which = which.reshape(-1)
    width = max(1, BLOCK_POINTS // svals.size)
    sign = np.concatenate([
        np.linalg.slogdet(_theta_low(params, reals[lo:lo + width]
                                     .astype(complex), svals)[..., d:].real)[0]
        for lo in range(0, reals.shape[0], width)])
    pole_free = sign > 0                                   # (R, S)

    def block(cols: slice):
        low = _theta_low(params, nodes[cols], svals)
        psi, ok = _flow_solve(low[..., d:], low[..., :d])
        ok &= pole_free[which[cols]]
        return psi, np.einsum("ab,...ba->...", params.omega, psi), ok

    return block


def _bns_block(params: models.BnsParams, svals: np.ndarray,
               nodes: np.ndarray):
    """Block evaluator as in _wasc_block; the phi integrand is
    lam (mgf(R_s(u)) - 1) - u'kappa and the check is the mark strip."""
    d = params.d
    # psi(s, u) = mat(ops[s] @ vec D(u)): ops[s] = int_0^s e^{M'r} (x) e^{M'r}
    # dr does not depend on the node
    _, ops, _ = matcalc.lift_flows(matcalc.kron_lift(params.mean_rev.T), svals)

    def block(cols: slice):
        u = nodes[cols]
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
        width = max(1, BLOCK_POINTS // svals.size)
        with np.errstate(over="ignore", invalid="ignore"):
            block = (_wasc_block if params.kind == "wasc" else _bns_block)(
                params, svals, nodes)
            for lo in range(0, m_nodes, width):
                cols = slice(lo, lo + width)
                ps, rate, ok = block(cols)
                # a node stays valid up to the first failed check on [0, tau]
                bad = ~ok[:, :n_k] | np.logical_or.reduceat(
                    ~ok[:, n_k:], starts, axis=1)
                good = ~np.logical_or.accumulate(bad, axis=1)  # (B, K)
                ph = np.cumsum(np.add.reduceat(rate[:, n_k:] * wts, starts,
                                               axis=1), axis=1)
                phi[lead:, cols] = np.where(good, ph, np.nan).T
                psi[lead:, cols] = np.where(good[..., None, None],
                                            ps[:, :n_k], np.nan).swapaxes(0, 1)
                valid[lead:, cols] = good.T
    return TransformGrid(taus=taus, nodes=nodes, phi=phi[row], psi=psi[row],
                         valid=valid[row])
