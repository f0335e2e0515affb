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
# small-matrix batched primitives
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


def _philox(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# Wishart diffusion, splitting scheme
# ---------------------------------------------------------------------------

def _simulate_wasc_chunk(params: models.WascParams, y0: np.ndarray,
                         sigma0: np.ndarray, h: float, n_steps: int,
                         seed: int, idx0: int, n_chunk: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    d = params.d
    a_mat = params.vol_of_vol
    rho = params.leverage
    resid = float(np.sqrt(max(1.0 - rho @ rho, 0.0)))
    sqh = np.sqrt(h)

    w_norm = np.empty((n_chunk, n_steps, d, d))
    z_norm = np.empty((n_chunk, n_steps, d))
    for i in range(n_chunk):
        rng = _philox(seed, idx0 + i)
        w_norm[i] = rng.standard_normal((n_steps, d, d))
        z_norm[i] = rng.standard_normal((n_steps, d))

    ys = np.empty((n_chunk, n_steps + 1, d))
    covs = np.empty((n_chunk, n_steps + 1, d, d))
    intcov = np.empty((n_chunk, n_steps + 1, d, d))
    ys[:, 0] = y0
    covs[:, 0] = sigma0
    intcov[:, 0] = 0.0

    clip = 0
    e_half = matcalc.mat_exp(params.mean_rev * (0.5 * h))
    lift = matcalc.kron_lift(params.mean_rev)
    _, k_half, _ = matcalc.lift_flows(lift, np.array(0.5 * h))
    c_half = matcalc.mat(k_half @ matcalc.vec(params.omega))
    sig = np.repeat(sigma0[None], n_chunk, axis=0)
    y = np.repeat(y0[None], n_chunk, axis=0)
    for k in range(n_steps):
        sa = np.einsum("ab,pbc,dc->pad", e_half, sig, e_half) + c_half
        q = matcalc.sqrt_psd(sa)
        dw = sqh * w_norm[:, k]
        shock = np.einsum("pab,pb->pa",
                          q, dw @ rho + resid * sqh * z_norm[:, k])
        y = y - 0.5 * h * np.diagonal(sa, axis1=1, axis2=2) + shock
        term = np.einsum("pab,pbc,cd->pad", q, dw, a_mat)
        sb = sa + term + term.transpose(0, 2, 1)
        sb, n_bad = matcalc.psd_repair(sb)
        clip += n_bad
        sig = np.einsum("ab,pbc,dc->pad", e_half, sb, e_half) + c_half
        ys[:, k + 1] = y
        covs[:, k + 1] = sig
        intcov[:, k + 1] = intcov[:, k] + 0.5 * h * (covs[:, k] + sig)
    return ys, covs, intcov, clip


# ---------------------------------------------------------------------------
# pure-jump covariance, exact scheme
# ---------------------------------------------------------------------------

def _draw_bns_path(rng: np.random.Generator, params: models.BnsParams,
                   horizon: float, n_steps: int, chol_theta: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jump times, jump marks and Brownian normals for one path, drawn in the
    documented order."""
    d = params.d
    lam_total = params.jump_intensity * horizon
    n_jumps = int(rng.poisson(lam_total))
    jump_times = np.sort(rng.random(n_jumps)) * horizon
    df = params.wishart_shape - np.arange(d)
    chi2 = rng.chisquare(np.broadcast_to(df, (n_jumps, d)))
    gauss = rng.standard_normal((n_jumps, d, d))
    bart = np.tril(gauss, -1)
    ii = np.arange(d)
    bart[:, ii, ii] = np.sqrt(chi2)
    half = chol_theta @ bart
    marks = half @ half.transpose(0, 2, 1)
    b_norm = rng.standard_normal((n_steps + n_jumps, d))
    return jump_times, marks, b_norm


def _simulate_bns_chunk(params: models.BnsParams, y0: np.ndarray,
                        sigma0: np.ndarray, h: float, n_steps: int,
                        horizon: float, seed: int, idx0: int, n_chunk: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d = params.d
    rho = params.leverage_diag
    kappa = params.drift_comp
    chol_theta = np.linalg.cholesky(params.wishart_scale)
    m = params.mean_rev
    lift = matcalc.kron_lift(m)
    e_h = matcalc.mat_exp(m * h)
    _, k_h, _ = matcalc.lift_flows(lift, np.array(h))

    # fixed-order draws, then a per-path padding so steps can be vectorized
    times_l, marks_l, bnorm_l = [], [], []
    max_jumps = 0
    for i in range(n_chunk):
        rng = _philox(seed, idx0 + i)
        jt, mk, bn = _draw_bns_path(rng, params, horizon, n_steps, chol_theta)
        times_l.append(jt)
        marks_l.append(mk)
        bnorm_l.append(bn)
        max_jumps = max(max_jumps, jt.size)
    b_norm = np.zeros((n_chunk, n_steps + max_jumps, d))
    for i, bn in enumerate(bnorm_l):
        b_norm[i, : bn.shape[0]] = bn

    # jump bookkeeping: step index and within-step rank of every jump
    jstep_l, jrank_l = [], []
    for jt in times_l:
        steps = np.minimum((jt / h).astype(np.int64), n_steps - 1)
        ranks = np.zeros(jt.size, dtype=np.int64)
        for r in range(1, jt.size):
            ranks[r] = ranks[r - 1] + 1 if steps[r] == steps[r - 1] else 0
        jstep_l.append(steps)
        jrank_l.append(ranks)

    ys = np.empty((n_chunk, n_steps + 1, d))
    covs = np.empty((n_chunk, n_steps + 1, d, d))
    intcov = np.empty((n_chunk, n_steps + 1, d, d))
    ys[:, 0] = y0
    covs[:, 0] = sigma0
    intcov[:, 0] = 0.0

    sig = np.repeat(sigma0[None], n_chunk, axis=0)
    y = np.repeat(y0[None], n_chunk, axis=0)
    ptr = np.zeros(n_chunk, dtype=np.int64)
    rows = np.arange(n_chunk)

    # flat arrays of jump events for fast per-step selection
    ev_path = np.concatenate([np.full(t.size, i) for i, t in enumerate(times_l)]
                             ) if max_jumps else np.empty(0, dtype=np.int64)
    ev_time = np.concatenate(times_l) if max_jumps else np.empty(0)
    ev_step = np.concatenate(jstep_l) if max_jumps else np.empty(0, dtype=np.int64)
    ev_rank = np.concatenate(jrank_l) if max_jumps else np.empty(0, dtype=np.int64)
    ev_mark = (np.concatenate(marks_l, axis=0) if max_jumps
               else np.empty((0, d, d)))
    ev_path = ev_path.astype(np.int64)

    def _advance(idx, taus):
        """Deterministic flow over a tau-long segment for the given paths:
        updates sig, y and the step integral; consumes one Brownian vector."""
        flow, _, _ = matcalc.lift_flows(m, taus)
        _, kint_l, _ = matcalc.lift_flows(lift, taus)
        vecsig = sig[idx].transpose(1, 2, 0).reshape(d * d, -1, order="F").T
        int_vec = np.einsum("pab,pb->pa", kint_l, vecsig)
        int_seg = int_vec.T.reshape(d, d, -1, order="F").transpose(2, 0, 1)
        chol = _chol_psd_batch(int_seg)
        xi = b_norm[idx, ptr[idx]]
        ptr[idx] += 1
        y[idx] += (-0.5 * np.einsum("paa->pa", int_seg)
                   - np.outer(taus, kappa)
                   + np.einsum("pab,pb->pa", chol, xi))
        sig[idx] = np.einsum("pab,pbc,pdc->pad", flow, sig[idx], flow)
        step_int[idx] += int_seg

    for k in range(n_steps):
        t_k = k * h
        step_int = np.zeros((n_chunk, d, d))
        in_step = ev_step == k if max_jumps else np.zeros(0, dtype=bool)
        if max_jumps and np.any(in_step):
            cursor = np.full(n_chunk, t_k)
            max_rank = int(ev_rank[in_step].max())
            for r in range(max_rank + 1):
                sel = in_step & (ev_rank == r)
                pid = ev_path[sel]
                taus = ev_time[sel] - cursor[pid]
                _advance(pid, taus)
                cursor[pid] = ev_time[sel]
                mk = ev_mark[sel]
                sig[pid] += mk
                jump_y = rho * np.einsum("paa->pa", mk)
                y[pid] += jump_y
                # jump contribution to the price bracket
                step_int[pid] += np.einsum("pa,pb->pab", jump_y, jump_y)
            jumped = np.unique(ev_path[in_step])
            taus = (t_k + h) - cursor[jumped]
            _advance(jumped, taus)
            plain = np.setdiff1d(rows, jumped, assume_unique=False)
        else:
            plain = rows
        if plain.size:
            vecsig = sig[plain].transpose(1, 2, 0).reshape(d * d, -1,
                                                           order="F").T
            int_seg = (vecsig @ k_h.T).T.reshape(d, d, -1,
                                                 order="F").transpose(2, 0, 1)
            chol = _chol_psd_batch(int_seg)
            xi = b_norm[plain, ptr[plain]]
            ptr[plain] += 1
            y[plain] += (-0.5 * np.einsum("paa->pa", int_seg)
                         - h * kappa
                         + np.einsum("pab,pb->pa", chol, xi))
            sig[plain] = np.einsum("ab,pbc,dc->pad", e_h, sig[plain], e_h)
            step_int[plain] += int_seg
        ys[:, k + 1] = y
        covs[:, k + 1] = sig
        intcov[:, k + 1] = intcov[:, k] + step_int
    return ys, covs, intcov


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def simulate(params, state: models.MarketState, horizon: float, n_steps: int,
             n_paths: int, seed: int, path_start: int = 0, chunk_paths: int = 8192) -> SimResult:
    """Simulate n_paths over [state.t, horizon] on a uniform n_steps grid."""
    models.require_valid(params)
    if horizon <= state.t:
        raise ValueError("horizon must exceed the state time")
    if n_steps < 1 or n_paths < 1:
        raise ValueError("n_steps and n_paths must be positive")
    if seed < 0 or path_start < 0:
        raise ValueError("seed and path_start must be nonnegative")
    span = horizon - state.t
    h = span / n_steps

    d = params.d
    log_spot = np.empty((n_paths, n_steps + 1, d))
    cov = np.empty((n_paths, n_steps + 1, d, d))
    intcov = np.empty((n_paths, n_steps + 1, d, d))
    clip = 0
    done = 0
    while done < n_paths:
        n_chunk = min(chunk_paths, n_paths - done)
        idx0 = path_start + done
        if params.kind == "wasc":
            ys, cs, ic, n_bad = _simulate_wasc_chunk(
                params, state.log_spot, state.cov, h, n_steps, seed, idx0,
                n_chunk)
            clip += n_bad
        else:
            ys, cs, ic = _simulate_bns_chunk(
                params, state.log_spot, state.cov, h, n_steps, span, seed,
                idx0, n_chunk)
        log_spot[done: done + n_chunk] = ys
        cov[done: done + n_chunk] = cs
        intcov[done: done + n_chunk] = ic
        done += n_chunk

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
