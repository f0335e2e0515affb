"""Path simulation for both covariance model classes.

Reproducibility contract: path i draws from its own Philox stream keyed by
(seed, path_index), and every path consumes its variates in a fixed,
documented order.  Results are therefore bitwise independent of chunk sizes
and of how a path range is split across calls: simulating paths [0, P) in one
call equals concatenating [0, P1) and [P1, P) simulated separately with
path_start set accordingly.

Draw order per path, Wishart diffusion:
    1. matrix Brownian increments, standard normals of shape (n_steps, d, d)
    2. idiosyncratic increments, standard normals of shape (n_steps, d)

Draw order per path, pure-jump covariance:
    1. Poisson jump count over the horizon
    2. uniform jump times (unsorted draw, then sorted)
    3. Bartlett chi-square variates, shape (n_jumps, d)
    4. Bartlett off-diagonal normals, shape (n_jumps, d, d)
    5. price Brownian increments, shape (n_steps + n_jumps, d); one vector
       is consumed per deterministic-flow segment in time order

Schemes
-------
wasc:  Strang splitting: exact half-step drift flow, Euler diffusion step,
       exact half-step flow.  The one-step conditional spot mean is exact, so
       discrete martingale tests are unbiased.  A diffusion step that leaves
       the PSD cone is repaired by ``matcalc.psd_repair``; repairs beyond
       floating-point noise are counted in ``clip_count``.
bns:   exact: piecewise-deterministic flow between jumps with jumps applied
       at their exact times; the state, the integrated covariance and the
       price bracket are exact in distribution on the grid.

The integrated covariance accumulates the continuous-monitoring bracket of
log prices: the trapezoid rule on the covariance skeleton for the diffusion
model, and the exact pathwise integral plus jump products for the jump model.

Kernels
-------
The chunk kernels hold the state paths last: log prices as (d, P), Sigma and
the running bracket as (d, d, P).  Every matrix product in a step, with a
constant or per path, is a d-term sum of length-P ufunc products
(``_pmul``); the (..., d, d) stack routines of ``matcalc`` take the
transposed (P, d, d) view.  BLAS is kept off the path axis because its
results for one column can depend on how many columns share the call, which
would break chunk invariance.  In the jump model every path takes the
jump-free step, and the paths with a jump in the step are then recomputed
from their pre-step state through their flow segments.  All segment lengths
follow from the draws, so their flows come from one ``lift_flows`` batch
per chunk.  Each step is written straight into the slices of the returned
panel; no chunk-sized copy of the panel exists.

The reference kernels in ``tests/oracles.py`` step the same schemes path
major with einsum; the two agree to about 1e-14, because their sums run in
different orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcalc, models

__all__ = [
    "SimResult",
    "simulate",
    "realized_quadratic_covariation",
    "dump_paths",
    "load_paths",
]

_MAGIC = b"CVHPATH1"


@dataclass
class SimResult:
    """Simulated path panel on a uniform time grid."""

    params: object
    times: np.ndarray            # (N+1,)
    log_spot: np.ndarray         # (P, N+1, d)
    cov: np.ndarray              # (P, N+1, d, d)
    integrated_cov: np.ndarray   # (P, N+1, d, d), cumulative price bracket
    seed: int
    path_start: int
    clip_count: int              # covariance repairs beyond fp tolerance
    clip_fraction: float

    @property
    def n_paths(self) -> int:
        return self.log_spot.shape[0]

    @property
    def n_steps(self) -> int:
        return self.log_spot.shape[1] - 1

    @property
    def spot(self) -> np.ndarray:
        return np.exp(self.log_spot)

    @property
    def terminal_spot(self) -> np.ndarray:
        return np.exp(self.log_spot[:, -1])

    @property
    def realized_cov(self) -> np.ndarray:
        """Full-horizon realized covariance (the continuous bracket)."""
        return self.integrated_cov[:, -1]


# ---------------------------------------------------------------------------
# small-matrix batched primitives, paths last
# ---------------------------------------------------------------------------

def _chol_psd_batch(mats: np.ndarray) -> np.ndarray:
    """A factor L with L L' = X for a stack of PSD matrices (lower for d<=2,
    eigenvector-based for larger d; semidefinite input is fine)."""
    d = mats.shape[-1]
    if d == 1:
        return np.sqrt(np.clip(mats, 0.0, None))
    if d == 2:
        a = np.clip(mats[..., 0, 0], 0.0, None)
        l11 = np.sqrt(a)
        l21 = np.where(l11 > 0.0, mats[..., 1, 0] / np.where(l11 > 0, l11, 1.0),
                       0.0)
        l22 = np.sqrt(np.clip(mats[..., 1, 1] - l21 * l21, 0.0, None))
        out = np.zeros_like(mats)
        out[..., 0, 0] = l11
        out[..., 1, 0] = l21
        out[..., 1, 1] = l22
        return out
    w, v = np.linalg.eigh(mats)
    w = np.sqrt(np.clip(w, 0.0, None))
    return v * w[..., None, :]


def _per_path(fn, mats: np.ndarray) -> np.ndarray:
    """Apply a (..., d, d) stack routine to a (d, d, P) paths-last stack."""
    return fn(mats.transpose(2, 0, 1)).transpose(1, 2, 0)


def _pmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pathwise products a_p b_p of (m, n, P) and (n, k, P) stacks; a
    constant factor is passed as an (m, n, 1) or (n, k, 1) stack.

    n sums of length-P products, so a path's value never depends on how
    many paths share the call (BLAS products over the path axis do).
    """
    out = a[:, :1] * b[0]
    for j in range(1, a.shape[1]):
        out += a[:, j:j + 1] * b[j]
    return out


def _sandwich(e: np.ndarray, s: np.ndarray) -> np.ndarray:
    """E_p S_p E_p' for (d, d, P) stacks, or (d, d, 1) for a constant E."""
    return _pmul(_pmul(e, s), e.transpose(1, 0, 2))


def _philox(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _start(out_y: np.ndarray, out_cov: np.ndarray, out_int: np.ndarray,
           y0: np.ndarray, sigma0: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Write the initial state into the chunk's panel views and return the
    paths-last state: y (d, P), Sigma (d, d, P) and the bracket (d, d, P)."""
    n = out_y.shape[0]
    out_y[:, 0] = y0
    out_cov[:, 0] = sigma0
    out_int[:, 0] = 0.0
    y = np.repeat(y0[:, None], n, axis=1)
    sig = np.repeat(sigma0[..., None], n, axis=2)
    return y, sig, np.zeros_like(sig)


# ---------------------------------------------------------------------------
# Wishart diffusion, splitting scheme
# ---------------------------------------------------------------------------

def _simulate_wasc_chunk(params: models.WascParams, y0: np.ndarray,
                         sigma0: np.ndarray, h: float, seed: int, idx0: int,
                         out_y: np.ndarray, out_cov: np.ndarray,
                         out_int: np.ndarray) -> int:
    """Fill the chunk's panel views; returns the material repair count."""
    n, n_steps = out_y.shape[0], out_y.shape[1] - 1
    d = params.d
    rho = params.leverage
    resid = float(np.sqrt(max(1.0 - rho @ rho, 0.0)))
    sqh = np.sqrt(h)

    w_norm = np.empty((n_steps, d, d, n))
    z_norm = np.empty((n_steps, d, n))
    for i in range(n):
        rng = _philox(seed, idx0 + i)
        w_norm[..., i] = rng.standard_normal((n_steps, d, d))
        z_norm[..., i] = rng.standard_normal((n_steps, d))

    clip = 0
    e_half = matcalc.mat_exp(params.mean_rev * (0.5 * h))[..., None]
    a_mat = params.vol_of_vol[..., None]
    lift = matcalc.kron_lift(params.mean_rev)
    _, k_half, _ = matcalc.lift_flows(lift, np.array(0.5 * h))
    c_half = matcalc.mat(k_half @ matcalc.vec(params.omega))[..., None]
    y, sig, bracket = _start(out_y, out_cov, out_int, y0, sigma0)
    for k in range(n_steps):
        sa = _sandwich(e_half, sig) + c_half
        q = _per_path(matcalc.sqrt_psd, sa)
        dw = sqh * w_norm[k]
        v = _pmul(dw, rho[:, None, None]) + resid * sqh * z_norm[k][:, None]
        y = y - 0.5 * h * np.diagonal(sa).T + _pmul(q, v)[:, 0]
        term = _pmul(_pmul(q, dw), a_mat)
        sb, n_bad = matcalc.psd_repair(
            (sa + term + term.transpose(1, 0, 2)).transpose(2, 0, 1))
        clip += n_bad
        sig_next = _sandwich(e_half, sb.transpose(1, 2, 0)) + c_half
        bracket = bracket + 0.5 * h * (sig + sig_next)
        sig = sig_next
        out_y[:, k + 1] = y.T
        out_cov[:, k + 1] = sig.transpose(2, 0, 1)
        out_int[:, k + 1] = bracket.transpose(2, 0, 1)
    return clip


# ---------------------------------------------------------------------------
# pure-jump covariance, exact scheme
# ---------------------------------------------------------------------------

def _draw_jumps(rng: np.random.Generator, params: models.BnsParams,
                horizon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draws 1-4 of the documented order for one path: sorted jump times,
    Bartlett chi-square variates (n_jumps, d) and normals (n_jumps, d, d)."""
    d = params.d
    n_jumps = int(rng.poisson(params.jump_intensity * horizon))
    jump_times = np.sort(rng.random(n_jumps)) * horizon
    df = params.wishart_shape - np.arange(d)
    chi2 = rng.chisquare(np.broadcast_to(df, (n_jumps, d)))
    return jump_times, chi2, rng.standard_normal((n_jumps, d, d))


def _wishart_marks(chol_theta: np.ndarray, chi2: np.ndarray,
                   gauss: np.ndarray) -> np.ndarray:
    """Wishart jump marks L B B' L' from Bartlett factors B, paths last."""
    d = chol_theta.shape[0]
    bart = np.tril(gauss, -1)
    bart[:, np.arange(d), np.arange(d)] = np.sqrt(chi2)
    half = _pmul(chol_theta[..., None], bart.transpose(1, 2, 0))
    return _pmul(half, half.transpose(1, 0, 2))


def _flow_segment(sig: np.ndarray, y: np.ndarray, bracket: np.ndarray,
                  flow: np.ndarray, kint: np.ndarray, taus, xi: np.ndarray,
                  kappa: np.ndarray) -> np.ndarray:
    """Jump-free flow over one segment for every column of a paths-last
    state: adds the segment's bracket to ``bracket`` and its log-price
    increment, driven by the Brownian vectors xi, to ``y`` (both in place),
    and returns the flowed covariance.  flow and kint are the segments'
    exp(M tau) and lifted covariance integral, or (.., 1) constants.

    The lifted integral commutes with transposition, so applying it to the
    row-stacked reshape of Sigma equals the column-stacked vec/mat."""
    d, _, n = sig.shape
    int_seg = _pmul(kint, sig.reshape(d * d, 1, n)).reshape(d, d, n)
    chol = _per_path(_chol_psd_batch, int_seg)
    y += (-0.5 * np.diagonal(int_seg).T - kappa * taus
          + _pmul(chol, xi[:, None])[:, 0])
    bracket += int_seg
    return _sandwich(flow, sig)


def _simulate_bns_chunk(params: models.BnsParams, y0: np.ndarray,
                        sigma0: np.ndarray, h: float, horizon: float,
                        seed: int, idx0: int, out_y: np.ndarray,
                        out_cov: np.ndarray, out_int: np.ndarray) -> None:
    """Fill the chunk's panel views.

    Every path takes the jump-free step; the paths with a jump in the step
    are then recomputed from their pre-step state through their flow
    segments (one per jump, plus one to the step's end) and overwrite it.
    All segment lengths are known from the draws, so their flows are
    computed once for the chunk.
    """
    n, n_steps = out_y.shape[0], out_y.shape[1] - 1
    d = params.d
    rho = params.leverage_diag[:, None]
    kappa = params.drift_comp[:, None]
    m = params.mean_rev
    lift = matcalc.kron_lift(m)
    e_h = matcalc.mat_exp(m * h)[..., None]
    k_h = matcalc.lift_flows(lift, np.array(h))[1][..., None]

    # fixed-order draws: the jumps of every path first, so that the Brownian
    # normals, drawn last, go straight into an array padded to the most jumps
    rngs = [_philox(seed, idx0 + i) for i in range(n)]
    jumps = [_draw_jumps(rng, params, horizon) for rng in rngs]
    counts = np.array([jt.size for jt, _, _ in jumps])
    b_norm = np.zeros((d, n_steps + counts.max(), n))
    for i, rng in enumerate(rngs):
        b_norm[:, : n_steps + counts[i], i] = rng.standard_normal(
            (n_steps + counts[i], d)).T
    ev_time, chi2, gauss = (np.concatenate(x) for x in zip(*jumps))
    ev_mark = _wishart_marks(np.linalg.cholesky(params.wishart_scale), chi2,
                             gauss)
    del rngs, jumps, chi2, gauss

    # jump events in path-then-time order: step, rank within the step, and
    # the Brownian index of the flow segment that ends at the jump
    n_ev = ev_time.size
    ev_path = np.repeat(np.arange(n), counts)
    ev_step = np.minimum((ev_time / h).astype(np.int64), n_steps - 1)
    first = np.ones(n_ev, dtype=bool)
    first[1:] = (ev_path[1:] != ev_path[:-1]) | (ev_step[1:] != ev_step[:-1])
    ev_rank = np.arange(n_ev) - np.maximum.accumulate(
        np.where(first, np.arange(n_ev), 0))
    ev_ptr = ev_step + np.arange(n_ev) - np.repeat(np.cumsum(counts) - counts,
                                                   counts)
    # (path, step) groups with a jump, each closed by a segment from its
    # last jump to the end of the step; an event is last when the next one
    # starts a group (the roll wraps the final event onto first[0] = True)
    last = np.flatnonzero(np.roll(first, -1))

    # segment flows, events first and then group ends, in one batch each; a
    # segment starts at the step start or at the group's previous jump
    cursor = np.where(ev_rank == 0, ev_step * h, np.roll(ev_time, 1))
    taus = np.concatenate([ev_time - cursor,
                           (ev_step[last] * h + h) - ev_time[last]])
    seg_flow = matcalc.lift_flows(m, taus)[0].transpose(1, 2, 0).copy()
    seg_int = matcalc.lift_flows(lift, taus)[1].transpose(1, 2, 0).copy()

    g_order = np.lexsort((ev_path[last], ev_step[last]))
    g_path = ev_path[last][g_order]
    g_seg = n_ev + g_order
    g_ptr = ev_ptr[last][g_order] + 1
    g_bounds = np.searchsorted(ev_step[last][g_order], np.arange(n_steps + 1))
    by_step = np.lexsort((ev_path, ev_rank, ev_step))
    ev_bounds = np.searchsorted(ev_step[by_step], np.arange(n_steps + 1))

    y, sig, bracket = _start(out_y, out_cov, out_int, y0, sigma0)
    ptr = np.zeros(n, dtype=np.int64)
    cols = np.arange(n)
    for k in range(n_steps):
        gsel = slice(g_bounds[k], g_bounds[k + 1])
        jumped = g_path[gsel]
        y_j, sig_j = y[:, jumped], sig[:, :, jumped]
        step = np.zeros_like(sig)
        sig = _flow_segment(sig, y, step, e_h, k_h, h, b_norm[:, ptr, cols],
                            kappa)
        ptr += 1
        if jumped.size:
            step_j = np.zeros_like(sig_j)
            evs = by_step[ev_bounds[k]:ev_bounds[k + 1]]
            for r in range(ev_rank[evs[-1]] + 1):
                sel = evs[ev_rank[evs] == r]
                pos = np.searchsorted(jumped, ev_path[sel])
                y_r, step_r = y_j[:, pos], step_j[:, :, pos]
                sig_r = _flow_segment(
                    sig_j[:, :, pos], y_r, step_r, seg_flow[:, :, sel],
                    seg_int[:, :, sel], taus[sel],
                    b_norm[:, ev_ptr[sel], ev_path[sel]], kappa)
                mark = ev_mark[:, :, sel]
                jump_y = rho * np.diagonal(mark).T
                sig_j[:, :, pos] = sig_r + mark
                y_j[:, pos] = y_r + jump_y
                step_j[:, :, pos] = step_r + jump_y[:, None] * jump_y[None]
            segs = g_seg[gsel]
            sig[:, :, jumped] = _flow_segment(
                sig_j, y_j, step_j, seg_flow[:, :, segs], seg_int[:, :, segs],
                taus[segs], b_norm[:, g_ptr[gsel], jumped], kappa)
            y[:, jumped] = y_j
            step[:, :, jumped] = step_j
            ptr[jumped] = g_ptr[gsel] + 1
        bracket = bracket + step
        out_y[:, k + 1] = y.T
        out_cov[:, k + 1] = sig.transpose(2, 0, 1)
        out_int[:, k + 1] = bracket.transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def simulate(params, state: models.MarketState, horizon: float, n_steps: int,
             n_paths: int, seed: int, path_start: int = 0, chunk_paths: int = 8192) -> SimResult:
    """Simulate n_paths over [state.t, horizon] on a uniform n_steps grid."""
    models.require_valid(params)
    if horizon <= state.t:
        raise ValueError("horizon must exceed the state time")
    if n_steps < 1 or n_paths < 1 or chunk_paths < 1:
        raise ValueError("n_steps, n_paths and chunk_paths must be positive")
    if seed < 0 or path_start < 0:
        raise ValueError("seed and path_start must be nonnegative")
    span = horizon - state.t
    h = span / n_steps

    d = params.d
    log_spot = np.empty((n_paths, n_steps + 1, d))
    cov = np.empty((n_paths, n_steps + 1, d, d))
    intcov = np.empty((n_paths, n_steps + 1, d, d))
    clip = 0
    for lo in range(0, n_paths, chunk_paths):
        sl = slice(lo, min(lo + chunk_paths, n_paths))
        views = (log_spot[sl], cov[sl], intcov[sl])
        if params.kind == "wasc":
            clip += _simulate_wasc_chunk(params, state.log_spot, state.cov, h,
                                         seed, path_start + lo, *views)
        else:
            _simulate_bns_chunk(params, state.log_spot, state.cov, h, span,
                                seed, path_start + lo, *views)

    frac = clip / float(n_paths * n_steps)
    times = state.t + h * np.arange(n_steps + 1)
    return SimResult(params=params, times=times, log_spot=log_spot, cov=cov,
                     integrated_cov=intcov, seed=seed, path_start=path_start,
                     clip_count=clip, clip_fraction=frac)


def realized_quadratic_covariation(sim: SimResult, kind: str = "log"
                                   ) -> np.ndarray:
    """Discrete quadratic covariation of the sampled paths, (P, d, d).

    kind "log":    sum_k dY_k dY_k'
    kind "simple": sum_k (dS_k / S_{k-1}) (dS_k / S_{k-1})'
    """
    if kind == "log":
        inc = np.diff(sim.log_spot, axis=1)
    elif kind == "simple":
        spot = sim.spot
        inc = np.diff(spot, axis=1) / spot[:, :-1]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return np.einsum("pki,pkj->pij", inc, inc)


def dump_paths(sim: SimResult, path: str) -> None:
    """Write the panel to a little-endian binary file.

    Layout: 8-byte magic, int64 fields (d, n_steps, n_paths, seed,
    path_start), float64 horizon, then times, log_spot, cov and
    integrated_cov as little-endian float64 in C order.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        head = np.array([sim.log_spot.shape[2], sim.n_steps, sim.n_paths,
                         sim.seed, sim.path_start], dtype="<i8")
        fh.write(head.tobytes())
        fh.write(np.array([sim.times[-1]], dtype="<f8").tobytes())
        for arr in (sim.times, sim.log_spot, sim.cov, sim.integrated_cov):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_paths(path: str) -> SimResult:
    """Read a panel written by dump_paths; params are not stored and come
    back as None."""
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise ValueError("not a path panel file")
        d, n_steps, n_paths, seed, path_start = np.frombuffer(
            fh.read(5 * 8), dtype="<i8")
        _horizon = np.frombuffer(fh.read(8), dtype="<f8")[0]
        k = n_steps + 1
        times = np.frombuffer(fh.read(8 * k), dtype="<f8").copy()
        n1 = n_paths * k * d
        n2 = n_paths * k * d * d
        log_spot = np.frombuffer(fh.read(8 * n1), dtype="<f8").reshape(
            n_paths, k, d).copy()
        cov = np.frombuffer(fh.read(8 * n2), dtype="<f8").reshape(
            n_paths, k, d, d).copy()
        intcov = np.frombuffer(fh.read(8 * n2), dtype="<f8").reshape(
            n_paths, k, d, d).copy()
    return SimResult(params=None, times=times, log_spot=log_spot, cov=cov,
                     integrated_cov=intcov, seed=int(seed),
                     path_start=int(path_start), clip_count=0, clip_fraction=0.0)
