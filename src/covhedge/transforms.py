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
  This module evaluates V = 0, psi = Theta_22^{-1} Theta_21.  Since
  dTheta/dtau = Theta Ham, Tr(G psi) = -(1/2) d/dtau [log det Theta_22 +
  tau Tr F], so with alpha the scalar of Omega = alpha A'A (0 for a model
  built from omega)

      phi(tau) = -alpha/2 [log det Theta_22(tau) + tau Tr F]
                 + int_0^tau Tr((Omega - alpha A'A) psi(s)) ds.

  The log is taken from the eigen-split of Ham: with the d dominant modes
  (largest real parts) factored out, det Theta_22 = e^{tau sum lam_D}
  det Y(tau) where no entry of Y grows with tau, so the principal log of
  det Y stays on the branch continuous from tau = 0 (the Wishart form of
  the "little Heston trap": Albrecher, Mayer, Schoutens & Tistaert 2007;
  Gnoatto & Grasselli 2014).

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

* Two routes for phi.  A node whose remainder Omega - alpha A'A is zero
  (every node of a model built from alpha) is evaluated at the distinct
  tau alone and takes the closed form.  A node with a non-zero remainder,
  and every node of the jump model, integrates it cumulatively along tau:
  the distinct positive tau are sorted, each span between neighbours is
  cut into equal panels no wider than PHI_PANEL_WIDTH, and a
  PHI_PANEL_NODES-point Gauss-Legendre rule runs on every panel, so
  phi(tau_k) = phi(tau_{k-1}) + the integral over [tau_{k-1}, tau_k].  A
  diffusion node whose eigenvector basis, or dominant block of it, has
  condition number above 1e10 counts alpha as 0 and integrates Tr(Omega
  psi).  ``TransformGrid.phi_quadrature`` marks the nodes of the panel
  route.
* Node blocks.  Each route takes its nodes in blocks of about
  BLOCK_POINTS (node, s) points, which bounds the working set.  For the
  diffusion, one batched eigendecomposition of every node's Hamiltonian
  gives the lower block rows of Theta at every s of its route (a node
  whose eigenvector basis has condition number above 1e10 falls back to
  expm), followed by one batched condition, solve, blow-up and asymmetry
  check.  For the jump model the operator
  int_0^s e^{M'r} (x) e^{M'r} dr mapping D(u) to psi(s, u) does not depend
  on the node and is built once; each block then needs one batched strip
  margin and log-determinant.
* Moment explosion (diffusion).  The checks above only fire close to a
  Riccati pole, so a pole between two evaluated points would pass.  For
  each distinct real part a = Re(u) among the nodes, the real companion
  node u = a is evaluated too: det Theta_22(s) is real for it, starts at 1
  and vanishes exactly where its flow explodes.  From the first evaluated
  s where it is not positive, E[exp(a'Y)] is infinite and every node with
  real part a is invalid (Keller-Ressel 2011).  The companion nodes are
  sampled at the tau of the grid and the panel points, whichever route
  their nodes take; there is one per distinct real part, so a few rows.
* Forward validity.  A node is valid at tau only if its companion passed
  on [0, tau] and its own checks passed at every point it was evaluated at
  in [0, tau]: the tau of the grid up to it, and the panel points too on
  the panel route.  Once a node fails it stays invalid for every later
  tau, and its phi and psi hold nan there.

Single evaluations go through the same engine as a 1 x 1 lattice.  H at a
market state is formed by the callers, ``hedging.pricing.fourier_price`` and
``hedging.backtest.BasisCache.basis``, under the overflow rule stated at
``models.OVERFLOW_RE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matcalc, models

__all__ = [
    "TransformGrid",
    "wasc_hamiltonian",
    "transform_grid",
]

# lattice engine: the panel rule along the tau grid, which integrates the
# phi of the panel route and places the companion pole checks, and the
# (node, s) points evaluated per node block, which bounds the working set;
# chosen from the error-versus-cost and memory curves recorded in CHANGES.md
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
    corresponds to taus[k] and column m to nodes[m].  phi_quadrature (M,)
    marks the nodes whose phi took the panel rule (none when every tau is
    0).
    """

    taus: np.ndarray
    nodes: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    valid: np.ndarray
    phi_quadrature: np.ndarray


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


def _span_any(flags: np.ndarray, n_k: int, starts: np.ndarray) -> np.ndarray:
    """Per knot: flags (..., S) at the knot or at any panel point of its
    span, shape (..., n_k)."""
    return flags[..., :n_k] | np.logical_or.reduceat(flags[..., n_k:], starts,
                                                     axis=-1)


class _Spectrum(NamedTuple):
    """Eigen-split of Ham(u) for a stack of nodes.  ok is False where the
    eigenvector basis has condition number above 1e10 (the expm fallback);
    dom lists the modes by descending real part, the first d dominant;
    closed is ok with a well-conditioned dominant block Q_2D as well."""

    ham: np.ndarray
    lam: np.ndarray
    q: np.ndarray
    qinv: np.ndarray
    ok: np.ndarray
    dom: np.ndarray
    closed: np.ndarray

    def take(self, cols) -> "_Spectrum":
        return _Spectrum(*(a[cols] for a in self))


def _spectrum(params: models.WascParams, u: np.ndarray) -> _Spectrum:
    d = params.d
    ham = wasc_hamiltonian(params, u)                      # (B, 2d, 2d)
    lam, q = np.linalg.eig(ham)
    ok = np.linalg.cond(q) <= _EIGVEC_COND_MAX
    qinv = np.zeros_like(q)
    qinv[ok] = np.linalg.inv(q[ok])
    dom = np.argsort(-lam.real, axis=-1)
    q2d = np.take_along_axis(q[:, d:, :], dom[:, None, :d], axis=-1)
    closed = ok & (np.linalg.cond(q2d) <= _EIGVEC_COND_MAX)
    return _Spectrum(ham, lam, q, qinv, ok, dom, closed)


def _theta_low(spec: _Spectrum, svals: np.ndarray) -> np.ndarray:
    """Lower block rows [Theta_21, Theta_22] of expm(s Ham(u)) for B nodes
    at every s, shape (B, S, d, 2d)."""
    n, d = spec.lam.shape[0], spec.lam.shape[1] // 2
    ok = spec.ok
    # sum_j e^{s lam_j} q[d:, j] (x) q^{-1}[j, :]: one batched product with
    # no temporary the size of the result
    modes = np.zeros((n, 2 * d, 2 * d * d), dtype=complex)
    modes[ok] = (spec.q[ok, d:, :].swapaxes(-1, -2)[..., None]
                 * spec.qinv[ok][:, :, None, :]).reshape(-1, 2 * d, 2 * d * d)
    low = (np.exp(svals[:, None] * spec.lam[:, None, :]) @ modes).reshape(
        n, svals.size, d, 2 * d)
    for b in np.flatnonzero(~ok):
        low[b] = matcalc.mat_exp(svals[:, None, None] * spec.ham[b])[:, d:, :]
    return low


def _log_det(spec: _Spectrum, svals: np.ndarray) -> np.ndarray:
    """log det Theta_22(s) + s Tr F for B closed-form nodes at every s,
    shape (B, S), on the branch continuous from s = 0.

    With the dominant modes D split from the sub-dominant S,
    det Theta_22(s) = e^{s sum lam_D} det Y(s) where
    Y(s) = Q_2D [P_D2 + e^{-s Lam_D} Q_2D^{-1} Q_2S e^{s Lam_S} P_S2] and
    P = Q^{-1}.  No entry of the bracket grows with s, so the principal log
    of det Y stays on one branch (the Wishart form of the little Heston
    trap)."""
    n, d = spec.lam.shape[0], spec.lam.shape[1] // 2
    lam = np.take_along_axis(spec.lam, spec.dom, axis=-1)
    q2 = np.take_along_axis(spec.q[:, d:, :], spec.dom[:, None, :], axis=-1)
    p2 = np.take_along_axis(spec.qinv[:, :, d:], spec.dom[:, :, None],
                            axis=-2)
    q2d, q2s = q2[..., :d], q2[..., d:]
    # Y(s) = Q_2D P_D2 + sum_ij e^{s (lam_Sj - lam_Di)} Q_2D[:, i] K_ij
    # P_S2[j, :] with K = Q_2D^{-1} Q_2S; every exponent has real part <= 0
    terms = np.einsum("bri,bij,bjc->bijrc", q2d, np.linalg.solve(q2d, q2s),
                      p2[:, d:]).reshape(n, d * d, d * d)
    gaps = (lam[:, None, d:] - lam[:, :d, None]).reshape(n, 1, d * d)
    y = ((q2d @ p2[:, :d]).reshape(n, 1, d * d)
         + np.exp(svals[:, None] * gaps) @ terms).reshape(
             n, svals.size, d, d)
    slope = lam[:, :d].sum(axis=-1) + np.trace(spec.ham[:, :d, :d],
                                              axis1=-2, axis2=-1)
    return svals * slope[:, None] + np.log(np.linalg.det(y))


def _wasc_block(params: models.WascParams, full: np.ndarray,
                starts: np.ndarray, nodes: np.ndarray):
    """Block evaluator for the lattice on the s values full: the n_k knots,
    then the panel points, span k's from starts[k] on.  Returns the (M,)
    mask of nodes whose phi needs the panel rule, and a function mapping
    node columns and a count S of leading s values of full to psi (B, S, d,
    d), the closed-form part of phi (B, S), the remainder integrand (B, S)
    and the validity checks (B, S), whose knot entries carry the companion
    check over the knot's span.

    phi = -alpha/2 [log det Theta_22 + s Tr F] + int Tr((Omega - alpha A'A)
    psi) ds, with alpha = 0 for params built from omega and for nodes off
    the closed form; models.WascParams builds omega by the expression below,
    so with alpha given the remainder of a closed-form node is exactly 0."""
    d, n_k = params.d, starts.size
    alpha = 0.0 if params.alpha is None else float(params.alpha)
    rem = params.omega - alpha * params.vol_of_vol.T @ params.vol_of_vol
    spec = _spectrum(params, nodes)
    node_alpha = np.where(spec.closed, alpha, 0.0)
    node_rem = np.where(spec.closed[:, None, None], rem, params.omega)
    quad = np.any(node_rem != 0, axis=(-2, -1))
    # det Theta_22 of each distinct real part's companion node at every
    # point, in blocks; a non-positive value anywhere in a knot's span
    # fails that knot
    reals, which = np.unique(nodes.real, axis=0, return_inverse=True)
    which = which.reshape(-1)
    width = max(1, BLOCK_POINTS // full.size)
    sign = np.concatenate([
        np.linalg.slogdet(_theta_low(_spectrum(params, reals[lo:lo + width]
                                               .astype(complex)), full)
                          [..., d:].real)[0]
        for lo in range(0, reals.shape[0], width)])
    pole_ok = ~_span_any(~(sign > 0), n_k, starts)        # (R, n_k)

    def block(cols: np.ndarray, n_s: int):
        svals = full[:n_s]
        sp = spec.take(cols)
        low = _theta_low(sp, svals)
        psi, ok = _flow_solve(low[..., d:], low[..., :d])
        ok[:, :n_k] &= pole_ok[which[cols]]
        phi_cf = np.zeros(ok.shape, dtype=complex)
        on = node_alpha[cols] != 0
        if np.any(on):
            phi_cf[on] = (-0.5 * node_alpha[cols][on, None]
                          * _log_det(sp.take(on), svals))
        return psi, phi_cf, np.einsum("bij,bsji->bs", node_rem[cols], psi), ok

    return quad, block


def _bns_block(params: models.BnsParams, full: np.ndarray,
               starts: np.ndarray, nodes: np.ndarray):
    """Block evaluator as in _wasc_block: every node takes the panel rule,
    the phi integrand is lam (mgf(R_s(u)) - 1) - u'kappa and the check is
    the mark strip."""
    d = params.d
    # psi(s, u) = mat(ops[s] @ vec D(u)): ops[s] = int_0^s e^{M'r} (x) e^{M'r}
    # dr does not depend on the node
    _, ops, _ = matcalc.lift_flows(matcalc.kron_lift(params.mean_rev.T), full)

    def block(cols: np.ndarray, n_s: int):
        u = nodes[cols]
        dvec = _source(u).reshape(u.shape[0], d * d)       # symmetric: = vec
        psi = np.einsum("sij,bj->bsi", ops[:n_s], dvec)
        psi = matcalc.sym_part(psi.reshape(psi.shape[:2] + (d, d)))
        lev = np.eye(d) * (params.leverage_diag * u)[:, None, :]
        r_u = psi + lev[:, None]
        mgf, ok = models.wishart_mgf(params.wishart_scale,
                                     params.wishart_shape, r_u)
        rate = (np.where(ok, params.jump_intensity * (mgf - 1.0), 0.0)
                - (u @ params.drift_comp)[:, None])
        return psi, np.zeros(rate.shape, dtype=complex), rate, ok

    return np.ones(nodes.shape[0], dtype=bool), block


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
    quad = np.zeros(m_nodes, dtype=bool)
    if n_k:
        pts, wts, starts = _phi_panels(knots[lead:])
        full = np.concatenate([knots[lead:], pts])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            quad, block = (_wasc_block if params.kind == "wasc" else
                           _bns_block)(params, full, starts, nodes)
            # closed-form nodes at the knots only, the rest on the panels too
            for n_s, route in ((n_k, ~quad), (full.size, quad)):
                width = max(1, BLOCK_POINTS // n_s)
                chosen = np.flatnonzero(route)
                for lo in range(0, chosen.size, width):
                    cols = chosen[lo:lo + width]
                    ps, phi_cf, rate, ok = block(cols, n_s)
                    ph = phi_cf[:, :n_k]
                    bad = ~ok[:, :n_k]
                    if n_s > n_k:
                        ph = ph + np.cumsum(np.add.reduceat(
                            rate[:, n_k:] * wts, starts, axis=1), axis=1)
                        bad = _span_any(~ok, n_k, starts)
                    # a node stays valid up to the first failed check on
                    # [0, tau]
                    good = ~np.logical_or.accumulate(bad, axis=1)  # (B, K)
                    phi[lead:, cols] = np.where(good, ph, np.nan).T
                    psi[lead:, cols] = np.where(
                        good[..., None, None], ps[:, :n_k], np.nan
                    ).swapaxes(0, 1)
                    valid[lead:, cols] = good.T
    return TransformGrid(taus=taus, nodes=nodes, phi=phi[row], psi=psi[row],
                         valid=valid[row], phi_quadrature=quad)
