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

  Both come from one factoring of the eigen-split of Ham (Kenney &
  Leipnik 1985): with the d dominant modes (largest real parts) taken out,
  [Theta_21, Theta_22] = Q_2D e^{tau Lam_D} Z(tau) where no entry of Z
  grows with tau.  So psi = Z_2^{-1} Z_1 never solves against the
  ill-conditioned Theta_22, and det Theta_22 = e^{tau sum lam_D}
  det(Q_2D Z_2), whose principal log stays on the branch continuous from
  tau = 0 (the Wishart form of the "little Heston trap": Albrecher, Mayer,
  Schoutens & Tistaert 2007; Gnoatto & Grasselli 2014).

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
  the distinct positive tau are sorted, and phi(tau_k) = phi(tau_{k-1}) +
  the integral over the span [tau_{k-1}, tau_k] by a Gauss-Legendre rule.
  A span no wider than PHI_SHORT_SPAN (a hedge lattice's date step) is one
  PHI_SHORT_NODES-point panel.  A wider span is cut into equal
  PHI_LONG_NODES-point panels no wider than PHI_PANEL_WIDTH: the
  integrand is analytic in s, so the higher order on a wider panel gives
  the same error with fewer points (on the benchmark's jump-model strip,
  33 points a node on the unit span where 8-point panels of 1/8 took 65,
  at a worst relative phi error of 6.3e-9 against 5.6e-9; CHANGES.md).  A
  diffusion node off the eigen route (below) counts alpha as 0 and
  integrates Tr(Omega psi).  ``TransformGrid.phi_quadrature`` marks the
  nodes of the panel route.
* Node blocks.  Each route takes its nodes in blocks of about
  BLOCK_POINTS (node, s) points, which bounds the working set; every entry
  is bitwise the same whatever the partition.  A block costs a fixed
  overhead (one Wishart MGF call for the jump model) plus about 450 bytes
  a point for the diffusion and 270 for the jump model (the largest slopes
  of the traced peak on the hedge lattice of 100 tau x 288 nodes).  At
  4096 points a jump-model block of the single-tau strip lattice holds 124
  nodes of 33 s values, and a jump-model pass of the benchmark's 33-claim
  strip makes 132 MGF calls (231 with 8-point panels of 1/8 on the unit
  span); larger budgets grow the working set.  For the diffusion, one
  batched eigendecomposition of every node's Hamiltonian gives Z, and from
  it psi, the log-determinant and the sign of det Theta_22, at every s of
  its route (``_flow``).  A node whose eigenvector basis, or its dominant
  lower block Q_2D, has 1-norm condition number above 1e10 is off the
  eigen route and takes the lower rows of its flow exp(s Ham) from
  ``matcalc.lift_flows`` as Z; no benchmark lattice has such a node.  For
  d = 2 the eigendecomposition is closed-form: the eigenvalues of a
  Hamiltonian matrix come in pairs +-lam (Van Loan 1984), so lam^2 solves
  a quadratic, and the eigenvectors come from the spectral projectors
  (``_eigenpairs``).  LAPACK eig took about 18 us a node; without it the
  benchmark's diffusion strip share went from 0.71 to 0.45 s (medians of
  10 paired runs, 2-core VM).  Every other d takes np.linalg.eig.  At
  every d, q^{-1} and Q_2D^{-1} are cofactor inverses that their condition
  tests read (``_checked_inverse``).  For the jump model the operator
  int_0^s e^{M'r} (x) e^{M'r} dr mapping D(u) to psi(s, u) does not depend
  on the node and is built once; each block then needs the Wishart MGF
  at every (node, s), whose strip flag and log-determinant come from the
  elimination pivots of scale^{-1} - 2 R, batched with ufunc arithmetic
  (``models.wishart_mgf``).
* Entries first.  The small matrices of a node stack are held one entry
  per contiguous row over the nodes (and the s values): a d x d stack is a
  (d, d, B) array, or a (B, d, d) view of one.  Products, determinants and
  inverses are unrolled sums of ufunc products over those rows
  (``matcalc.matmul_last``, ``det_last``, ``inverse_last``), so no
  batched @ or einsum runs on the node axis, and no LAPACK call but the
  eigendecomposition for d != 2; the flow of a node off the eigen route
  is the other exception.
  numpy's complex product is not bitwise commutative, and numpy may swap
  its factors to reuse a right-hand temporary of 256 KiB or more, so a
  product whose right factor could be such a temporary would make an
  entry's bits depend on the block size: those products take the
  temporary on the left.
* Moment explosion (diffusion).  Validity is decided by the real part of
  a node: |E[exp(u'Y)]| <= E[exp(Re(u)'Y)], and the transform formula
  holds for complex u wherever that moment is finite (Keller-Ressel 2011;
  Keller-Ressel & Mayerhofer 2015).  For each distinct real part a among
  the nodes, the real companion node u = a is evaluated too: det
  Theta_22(s) is real for it, starts at 1 and vanishes exactly where its
  flow explodes.  From the first evaluated s where it is not positive,
  E[exp(a'Y)] is infinite and every node with real part a is invalid.
  The companion nodes are sampled at the tau of the grid and the panel
  points, whichever route their nodes take, so a pole between two grid
  tau is caught; there is one per distinct real part, so a few rows.
  Beyond that a node's own point fails only where its psi is not finite
  or exceeds 1e12 in modulus: a grid tau that lands on a pole to rounding
  leaves a finite but huge psi, and the companion's det there (about
  -1.6e-16 for d = 1, u = 2 at tau = pi / (2 sqrt 2)) may round to either
  sign.
* Forward validity.  A node is valid at tau only if its companion passed
  on [0, tau] and its psi passed at every point it was evaluated at in
  [0, tau]: the tau of the grid up to it, and the panel points too on the
  panel route.  Once a node fails it stays invalid for every later tau,
  and its phi and psi hold nan there.

Single evaluations go through the same engine as a 1 x 1 lattice.  H at a
market state is formed by the callers, ``hedging.pricing.fourier_price`` and
``hedging.backtest.BasisCache.basis``, which skip an invalid node and refuse
a valid one past the one overflow rule, ``models.OVERFLOW_RE``.
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

# lattice engine: the panel rules along the tau grid, which integrate the
# phi of the panel route and place the companion pole checks ("Two routes
# for phi" above), and the (node, s) points evaluated per node block ("Node
# blocks"); chosen from the error, cost and memory curves recorded in
# CHANGES.md
PHI_SHORT_SPAN = 0.125
PHI_SHORT_NODES = 8
PHI_LONG_NODES = 16
PHI_PANEL_WIDTH = 0.5
BLOCK_POINTS = 4096
_PANEL_RULES = {n: np.polynomial.legendre.leggauss(n)
                for n in (PHI_SHORT_NODES, PHI_LONG_NODES)}
# 1-norm condition numbers of the eigen route, read off each matrix's one
# cofactor inverse (an n x n matrix's lies within a factor n of the 2-norm
# one); singular input fails
_EIGVEC_COND_MAX = 1e10
# largest |psi| entry of a valid point ("Moment explosion" above)
_BLOWUP_LIMIT = 1e12


def _source(u: np.ndarray) -> np.ndarray:
    """The Riccati source term D = (u u' - diag u) / 2, batched over u."""
    d = u.shape[-1]
    return 0.5 * (u[..., :, None] * u[..., None, :]
                  - np.eye(d) * u[..., None, :])


# ---------------------------------------------------------------------------
# Wishart diffusion transform
# ---------------------------------------------------------------------------

def wasc_hamiltonian(params: models.WascParams, u) -> np.ndarray:
    """The 2d x 2d linearization matrix [[F, -2A'A], [(uu'-diag u)/2, -F']]
    for a (d,) argument; a (B, d) stack of arguments gives a (B, 2d, 2d)
    stack, stored entries first (each entry one contiguous (B,) row)."""
    d = params.d
    u = np.asarray(u, dtype=complex)
    stack = u.reshape(-1, d)
    a_rho = params.vol_of_vol.T @ params.leverage
    f = params.mean_rev + a_rho[:, None] * stack[:, None, :]
    ham = np.zeros((2 * d, 2 * d, stack.shape[0]), dtype=complex)
    ham[:d, :d] = f.transpose(1, 2, 0)
    ham[:d, d:] = (-2.0 * params.vol_of_vol.T @ params.vol_of_vol)[..., None]
    ham[d:, :d] = _source(stack).transpose(1, 2, 0)
    ham[d:, d:] = -f.transpose(2, 1, 0)
    return ham.transpose(2, 0, 1).reshape(u.shape[:-1] + (2 * d, 2 * d))


# ---------------------------------------------------------------------------
# batched evaluation on a (time grid) x (contour nodes) lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformGrid:
    """(phi, psi) for V = 0 on a lattice of times-to-maturity and u nodes.

    phi has shape (K, M), psi has shape (K, M, d, d), valid (K, M); row k
    corresponds to the k-th time-to-maturity given to transform_grid and
    column m to its m-th node.  phi_quadrature (M,) marks the nodes whose
    phi took the panel rule (none when every tau is 0).
    """

    phi: np.ndarray
    psi: np.ndarray
    valid: np.ndarray
    phi_quadrature: np.ndarray


def _phi_panels(knots: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule along sorted positive knots: a span
    [knots[k-1], knots[k]] (from 0 for k = 0) no wider than PHI_SHORT_SPAN
    is one PHI_SHORT_NODES-point panel, and a wider one is cut into equal
    PHI_LONG_NODES-point panels no wider than PHI_PANEL_WIDTH.  Returns the
    points, the weights and the index of each span's first point; the
    points run in span order."""
    lo = np.concatenate([[0.0], knots[:-1]])
    gap = knots - lo
    long = gap > PHI_SHORT_SPAN
    count = np.where(long, np.ceil(gap / PHI_PANEL_WIDTH), 1.0).astype(int)
    first = np.cumsum(count) - count
    span = np.repeat(np.arange(knots.size), count)
    width = (gap / count)[span]
    left = lo[span] + (np.arange(span.size) - first[span]) * width
    # points per panel, and the index of each panel's first point
    size = np.where(long, PHI_LONG_NODES, PHI_SHORT_NODES)[span]
    at = np.cumsum(size) - size
    pts, wts = np.empty(size.sum()), np.empty(size.sum())
    for n, (x, w) in _PANEL_RULES.items():
        sel = size == n
        idx = at[sel, None] + np.arange(n)
        pts[idx] = left[sel, None] + 0.5 * width[sel, None] * (x + 1.0)
        wts[idx] = 0.5 * width[sel, None] * w
    return pts, wts, at[first]


def _span_any(flags: np.ndarray, n_k: int, starts: np.ndarray) -> np.ndarray:
    """Per knot: flags (..., S) at the knot or at any panel point of its
    span, shape (..., n_k)."""
    return flags[..., :n_k] | np.logical_or.reduceat(flags[..., n_k:], starts,
                                                     axis=-1)


class _Spectrum(NamedTuple):
    """Eigen-split of Ham(u) for a stack of nodes: eigenvalues lam (B, 2d)
    with the d dominant modes (largest real parts) first, eigenvectors q
    (B, 2d, 2d) as columns of unit 2-norm in the same order, qinv = q^{-1},
    and the adjugate (B, d, d) and determinant (B,) of the dominant lower
    block Q_2D.  ok is False where the basis is not finite, or it or Q_2D
    has 1-norm condition number above 1e10 (the flow fallback); there Q_2D's
    adjugate and determinant are those of I."""

    ham: np.ndarray
    lam: np.ndarray
    q: np.ndarray
    qinv: np.ndarray
    q2d_adj: np.ndarray
    q2d_det: np.ndarray
    ok: np.ndarray

    def take(self, cols) -> "_Spectrum":
        return _Spectrum(*(a[cols] for a in self))


def _eigenpairs(ham: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (lam, q) of a (B, 4, 4) stack of Hamiltonian matrices,
    d = 2.

    The eigenvalues come in pairs +-lam with mu = lam^2 a root of
    mu^2 - (tr(Ham^2)/2) mu + det Ham, the larger root from the sign that
    avoids cancellation and the smaller as det Ham over it.  lam is the
    principal root sqrt(mu), so the d modes of real part >= 0 come first.
    The spectral projector of lam_j is
    (Ham + lam_j)(Ham^2 - mu') / (2 lam_j (mu_j - mu')), with mu' the other
    root.  It is x_j y_j' with y_j' x_j = 1, so its column c of
    largest diagonal entry scaled to unit 2-norm is the eigenvector (as
    LAPACK scales it, up to a phase).  A repeated root or lam = 0 gives
    non-finite entries.

    All of this runs on Ham balanced as LAPACK balances before eig: the
    exact similarity by S = diag(I, I / r), with r a power of 2, scales the
    source block D by r and -2A'A by 1 / r to about the size of F.  Far out
    on a contour D grows like |u|^2, and unbalanced it costs det Ham, and
    so mu, digits that eig keeps.

    Entries first: every entry of Ham, of Ham^2 and of the projector
    columns is one (B,) row, and products, det Ham (``matcalc.det_last``)
    and the projector entries are unrolled sums of ufunc products; q is
    returned as a (B, 2d, 2d) view of such rows."""
    n, m = ham.shape[0], ham.shape[-1]
    d = m // 2
    h = ham.transpose(1, 2, 0)                            # (2d, 2d, B)
    f_n, g_n, d_n = (np.abs(blk).max(axis=(0, 1)) for blk in
                     (h[:d, :d], h[:d, d:], h[d:, :d]))
    target = np.maximum(f_n, np.sqrt(g_n * d_n))
    r = np.where((target > 0) & (d_n > 0),
                 target / np.where(d_n > 0, d_n, 1.0), 1.0)
    r = np.exp2(np.round(np.log2(r)))
    h = h.copy()
    h[d:, :d] *= r
    h[:d, d:] /= r
    h2 = matcalc.matmul_last(h, h)
    diag = np.arange(m)
    half = 0.5 * sum(h2[i, i] for i in diag)
    det = matcalc.det_last(h)
    disc = np.sqrt(half * half - 4.0 * det)
    disc = np.where((half.conj() * disc).real < 0.0, -disc, disc)
    big = 0.5 * (half + disc)
    mu = np.stack([big, det / big])
    root = np.sqrt(mu)
    lam = np.concatenate([root, -root])
    mu_o = np.tile(mu[::-1], (2, 1))[:, None]
    scale = 2.0 * lam * (np.tile(mu, (2, 1)) - mu_o[:, 0])
    # (Ham + lam)(Ham^2 - mu') = Ham^3 + lam Ham^2 - mu' Ham - lam mu'
    h3d = sum(h2[:, i] * h[i] for i in diag)              # Ham^3[r, r]
    pdiag = (h3d + lam[:, None] * h2[diag, diag]
             - (h[diag, diag] + lam[:, None]) * mu_o)
    pdiag /= scale[:, None]                               # P_j[r, r]
    c = np.argmax(np.abs(pdiag), axis=1)                  # (2d, B)
    # column c_j of a (2d, 2d, B) stack per mode j, gathered from its flat
    # entries; e[j, i] is 1 where i = c_j
    at = (c * n + np.arange(n))[:, None] + diag[:, None] * (m * n)
    e = c[:, None] == diag[:, None]
    # P_j e_c = (Ham + lam) v / scale with v = (Ham^2 - mu') e_c
    v = np.take(h2, at) - mu_o * e
    col = matcalc.matmul_last(v, h.swapaxes(0, 1)) + lam[:, None] * v
    col /= scale[:, None]
    # P_j of Ham is S P_j S^{-1} of the balanced one
    col[:, d:] /= r
    abs2 = (col.conj() * col).real
    q = col / np.sqrt(sum(abs2[:, i] for i in diag))[:, None]
    return lam.T, q.transpose(2, 1, 0)


def _checked_inverse(a: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """adj A and det A of an (n, n, B) stack (``matcalc.inverse_last``),
    and whether each 1-norm condition number |A|_1 |adj A|_1 / |det A| is
    at most _EIGVEC_COND_MAX; a singular matrix fails."""
    n = a.shape[0]
    adj, det = matcalc.inverse_last(a)
    norm = sum(np.abs(a[i]) for i in range(n)).max(axis=0)
    norm_adj = sum(np.abs(adj[i]) for i in range(n)).max(axis=0)
    ok = (det != 0) & (norm * norm_adj <= _EIGVEC_COND_MAX * np.abs(det))
    return adj, det, ok


def _spectrum(params: models.WascParams, u: np.ndarray) -> _Spectrum:
    """The eigen-split of Ham(u), closed-form for d = 2 and from
    np.linalg.eig otherwise, with the inverses of q and Q_2D by cofactors
    at every d (see _Spectrum)."""
    d = params.d
    ham = wasc_hamiltonian(params, u)                      # (B, 2d, 2d)
    if d == 2:
        lam, q = _eigenpairs(ham)
    else:
        lam, q = np.linalg.eig(ham)
        dom = np.argsort(-lam.real, axis=-1)
        lam = np.take_along_axis(lam, dom, axis=-1)
        q = np.take_along_axis(q, dom[:, None, :], axis=-1)
    rows = q.transpose(1, 2, 0)                            # (2d, 2d, B)
    (adj, det, ok), (adj_2d, det_2d, ok_2d) = (
        _checked_inverse(a) for a in (rows, rows[d:, :d]))
    ok &= ok_2d & np.all(np.isfinite(q), axis=(-2, -1))
    adj_2d = np.where(ok, adj_2d, np.eye(d)[..., None])
    return _Spectrum(ham, lam, q,
                     (adj / np.where(ok, det, 1.0)).transpose(2, 0, 1),
                     adj_2d.transpose(2, 0, 1), np.where(ok, det_2d, 1.0), ok)


def _flow(spec: _Spectrum, svals: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi(s), log det Theta_22(s) + s Tr F and the sign of Re det
    Theta_22(s) for B nodes at every s, shapes (B, S, d, d), (B, S) and
    (B, S); psi is nan where Z_2 below is singular or not finite, and it is
    a view of entries stored first.

    With the dominant modes D split from the sub-dominant S and P = Q^{-1},
    the lower block rows of Theta = Q e^{s Lam} P are [Theta_21, Theta_22]
    = Q_2D e^{s Lam_D} Z(s), with
    Z(s) = P_D + e^{-s Lam_D} Q_2D^{-1} Q_2S e^{s Lam_S} P_S, whose entries
    do not grow with s.  So psi = Z_2^{-1} Z_1, free of the conditioning
    of e^{s Lam_D}, and det Theta_22 = e^{s sum lam_D} det(Q_2D Z_2), where
    det(Q_2D Z_2) is 1 at s = 0 and its principal log stays on the branch
    continuous from there (the Wishart form of the little Heston trap).
    A node off the eigen route takes the rows of exp(s Ham) as Z, with
    Q_2D = I and Lam_D = 0; its log is plain principal.

    Entries first: each entry of Z is one (B, S) row, and Z_2 is inverted
    by cofactors (``matcalc.inverse_last``), as Q_2D was."""
    n, d = spec.lam.shape[0], spec.lam.shape[1] // 2
    ok = spec.ok
    lam_d = np.where(ok[:, None], spec.lam[:, :d], 0.0)
    q = np.where(ok, spec.q.transpose(1, 2, 0), 0.0)      # (2d, 2d, B)
    qinv = np.where(ok, spec.qinv.transpose(1, 2, 0), 0.0)
    det_q = spec.q2d_det
    # Z(s)[i, :] = P_D[i, :] + sum_j e^{s (lam_Sj - lam_Di)} K_ij P_S[j, :]
    # with K = Q_2D^{-1} Q_2S; every exponent has real part <= 0
    k = matcalc.matmul_last(spec.q2d_adj.transpose(1, 2, 0),
                            q[d:, d:]) / det_q
    gaps = spec.lam.T[d:] - lam_d.T[:, None]              # (d, d, B)
    z = np.empty((d, 2 * d, n, svals.size), dtype=complex)
    for i in range(d):
        z[i] = qinv[i, :, :, None]
        for j in range(d):
            z[i] += (np.exp(gaps[i, j, :, None] * svals)
                     * (k[i, j] * qinv[d + j])[:, :, None])
    # a node off the eigen route: its flow's lower rows, each scaled by a
    # power of 2 (exact; psi does not change) so det Z_2 cannot overflow
    log_scale = np.zeros((n, svals.size))
    for b in np.flatnonzero(~ok):
        rows = matcalc.lift_flows(spec.ham[b], svals, 1)[0][:, d:]
        top = np.abs(rows).max(axis=-1, keepdims=True)
        exp2 = np.where(top > 0, np.ceil(np.log2(top)), 0.0)
        z[:, :, b] = (rows * np.exp2(-exp2)).transpose(1, 2, 0)
        log_scale[b] = np.log(2.0) * exp2.sum(axis=(-2, -1))
    adj_z, det_z = matcalc.inverse_last(z[:, d:])
    good = np.all(np.isfinite(z[:, d:]), axis=(0, 1)) & (det_z != 0)
    safe = np.where(good, det_z, 1.0)
    psi = matcalc.matmul_last(adj_z, z[:, :d]) / safe
    psi = np.where(good, 0.5 * (psi + psi.swapaxes(0, 1)), np.nan)
    # det(Q_2D Z_2): its phase, and its log modulus from the two factors
    det = det_z * det_q[:, None]
    lead = lam_d.sum(axis=-1)[:, None]
    slope = lead + np.trace(spec.ham[:, :d, :d], axis1=-2, axis2=-1)[:, None]
    sign = np.sign((np.exp(1j * svals * lead.imag) * det).real)
    log_det = (svals * slope + np.log(np.abs(det_z)) + log_scale
               + np.log(np.abs(det_q))[:, None] + 1j * np.angle(det))
    return psi.transpose(2, 3, 0, 1), log_det, sign


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
    the eigen route; models.WascParams builds omega by the expression below,
    so with alpha given the remainder of a node on that route is exactly
    0."""
    d, n_k = params.d, starts.size
    alpha = 0.0 if params.alpha is None else float(params.alpha)
    rem = params.omega - alpha * params.vol_of_vol.T @ params.vol_of_vol
    # the nodes, then each distinct real part's companion node
    reals, which = np.unique(nodes.real, axis=0, return_inverse=True)
    which = which.reshape(-1)
    spec = _spectrum(params, np.concatenate([nodes, reals]))
    companion = spec.take(slice(nodes.shape[0], None))
    spec = spec.take(slice(0, nodes.shape[0]))
    node_alpha = np.where(spec.ok, alpha, 0.0)
    node_rem = np.where(spec.ok[:, None, None], rem, params.omega)
    quad = np.any(node_rem != 0, axis=(-2, -1))
    # det Theta_22 of the companions at every point, in blocks; a
    # non-positive value anywhere in a knot's span fails that knot
    width = max(1, BLOCK_POINTS // full.size)
    sign = np.concatenate([
        _flow(companion.take(slice(lo, lo + width)), full)[2]
        for lo in range(0, reals.shape[0], width)])
    pole_ok = ~_span_any(~(sign > 0), n_k, starts)        # (R, n_k)

    def block(cols: np.ndarray, n_s: int):
        psi, log_det, _ = _flow(spec.take(cols), full[:n_s])
        # a grid point on a pole, to rounding, gives a finite but huge psi
        ok = np.max(np.abs(psi), axis=(-2, -1)) <= _BLOWUP_LIMIT
        ok[:, :n_k] &= pole_ok[which[cols]]
        phi_cf = -0.5 * node_alpha[cols, None] * log_det
        rem = node_rem[cols]
        rate = sum(rem[:, i, j, None] * psi[..., j, i]
                   for i in range(d) for j in range(d))
        return psi, phi_cf, rate, ok

    return quad, block


def _bns_block(params: models.BnsParams, full: np.ndarray,
               starts: np.ndarray, nodes: np.ndarray):
    """Block evaluator as in _wasc_block: every node takes the panel rule,
    the phi integrand is lam (mgf(R_s(u)) - 1) - u'kappa and the check is
    the mark strip.  psi is returned at the knots only.

    Entries first: each entry of psi and R is one contiguous (node, s) row,
    and R goes to the MGF as a (node, s, d, d) view of those rows."""
    d, n_k = params.d, starts.size
    # psi(s, u) = mat(ops[s] @ vec D(u)): ops[s] = int_0^s e^{M'r} (x) e^{M'r}
    # dr does not depend on the node.  Symmetrised, entry (p, q) is the sum
    # over the entries k <= l of D (symmetric) of coef[p, q, k, l](s) D_kl
    _, ops = matcalc.lift_flows(matcalc.kron_lift(params.mean_rev.T),
                                full, 2)
    ops = ops.reshape(full.size, d, d, d, d)
    coef = 0.5 * (ops + ops.swapaxes(1, 2))
    coef = coef + np.where(np.eye(d, dtype=bool), 0.0,
                           coef.swapaxes(3, 4))
    coef = np.ascontiguousarray(coef.transpose(1, 2, 3, 4, 0))
    tri = list(zip(*np.triu_indices(d)))

    def block(cols: np.ndarray, n_s: int):
        u = nodes[cols]
        src = _source(u)
        lev = params.leverage_diag * u
        r_u = np.empty((d, d, cols.size, n_s), dtype=complex)
        psi = np.empty((d, d, cols.size, n_k), dtype=complex)
        for p, q in tri:
            ent = np.multiply(src[:, 0, 0, None], coef[p, q, 0, 0, :n_s],
                              out=r_u[p, q])
            for k, l in tri[1:]:
                ent += src[:, k, l, None] * coef[p, q, k, l, :n_s]
            psi[p, q] = psi[q, p] = ent[:, :n_k]
            if p == q:
                ent += lev[:, p, None]
            else:
                r_u[q, p] = ent
        mgf, ok = models.wishart_mgf(params.wishart_scale,
                                     params.wishart_shape,
                                     r_u.transpose(2, 3, 0, 1))
        # u'kappa by a ufunc sum: a BLAS product's bits depend on the
        # block's node count
        rate = (np.where(ok, params.jump_intensity * (mgf - 1.0), 0.0)
                - (u * params.drift_comp).sum(axis=-1)[:, None])
        return (psi.transpose(2, 3, 0, 1), np.zeros((cols.size, n_k), complex),
                rate, ok)

    return np.ones(nodes.shape[0], dtype=bool), block


def transform_grid(params, taus, nodes) -> TransformGrid:
    """Evaluate (phi, psi) with V = 0 on a times x nodes lattice.

    taus: array (K,) of finite nonnegative times-to-maturity, in any order,
    with repeats and 0 allowed.
    nodes: array (M, d) of complex arguments.

    Entries that fail a domain check hold nan in phi and psi.
    """
    taus = np.asarray(taus, dtype=float).reshape(-1)
    nodes = np.atleast_2d(np.asarray(nodes, dtype=complex))
    if not np.all(np.isfinite(taus) & (taus >= 0)):
        raise ValueError("times-to-maturity must be finite and nonnegative")
    m_nodes, d = nodes.shape[0], params.d
    if nodes.shape[1] != d:
        raise ValueError(f"nodes must have {d} columns, got {nodes.shape[1]}")
    knots, row = np.unique(taus, return_inverse=True)
    lead = int(knots.size > 0 and knots[0] == 0.0)    # the tau = 0 knot
    n_k = knots.size - lead
    # the rows with tau > 0 and the positive knot each one reads; every
    # block is gathered into them, so a repeated tau costs block-size work
    at = np.flatnonzero(row >= lead)
    knot = row[at] - lead
    phi = np.zeros((taus.size, m_nodes), dtype=complex)
    psi = np.zeros((taus.size, m_nodes, d, d), dtype=complex)
    valid = np.ones((taus.size, m_nodes), dtype=bool)
    quad = np.zeros(m_nodes, dtype=bool)
    if n_k and m_nodes:
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
                    good = ~np.logical_or.accumulate(bad, axis=1)[:, knot]
                    cells = np.ix_(at, cols)
                    phi[cells] = np.where(good, ph[:, knot], np.nan).T
                    psi[cells] = np.where(good[..., None, None], ps[:, knot],
                                          np.nan).swapaxes(0, 1)
                    valid[cells] = good.T
    return TransformGrid(phi=phi, psi=psi, valid=valid, phi_quadrature=quad)
