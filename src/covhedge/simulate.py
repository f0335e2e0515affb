"""Path simulation for both covariance model classes.

Reproducibility contract: path i draws from its own Philox stream keyed by
(seed, path_index), and every path consumes its variates in a fixed,
documented order.  Results are therefore bitwise independent of how a path
range is split across calls (simulating paths [0, P) in one call equals
concatenating [0, P1) and [P1, P) simulated separately with path_start set
accordingly) and of the shard count.

Draw order per path, Wishart diffusion:
    1. matrix Brownian increments, standard normals of shape (n_steps, d, d)
    2. idiosyncratic increments, standard normals of shape (n_steps, d)

Draw order per path, pure-jump covariance:
    1. Poisson jump count over the horizon
    2. uniform jump times, unsorted (they are sorted after the draws)
    3. Bartlett chi-square variates, shape (n_jumps, d)
    4. Bartlett off-diagonal normals, shape (n_jumps, d, d)
    5. price Brownian increments, standard normals of shape (n_steps, d);
       one vector per step

Schemes
-------
wasc:  Strang splitting: exact half-step drift flow, Euler diffusion step,
       exact half-step flow.  The one-step conditional spot mean is exact, so
       discrete martingale tests are unbiased.  A diffusion step that leaves
       the PSD cone is repaired by ``matcalc.psd_repair``; repairs beyond
       floating-point noise are counted in ``clip_count``.  The diffusion
       enters as q dW A and q (dW rho + sqrt(1 - rho'rho) z), q q' = Sigma.
bns:   exact: the covariance flow is linear between jumps, so a step's end
       state and its integral are the jump-free flow plus each jump's mark
       flowed to the end of the step; given that path the step's diffusive
       log-price increment is Gaussian with the integral as covariance.  The
       state, the integrated covariance and the price bracket are exact in
       distribution on the grid.

Every factor (q, the bns step integral's and the Wishart scale's L in the
Bartlett marks L B B' L') is the lower-triangular ``matcalc.psd_factor_last``,
not the principal root.  Any L with L L' = Sigma is Sigma^{1/2} O with O
orthogonal and a function of the state; given the state, O dW, O z and O xi
have the laws of dW, z and xi, and O B B' O' that of B B' ~ Wishart(n, I),
so each step keeps its conditional law, jointly in spots and Sigma.

The integrated covariance accumulates the continuous-monitoring bracket of
log prices: the trapezoid rule on the covariance skeleton for the diffusion
model, and the exact pathwise integral plus jump products for the jump model.

Kernels
-------
The panels are stored time major, (N+1, P, ...), and ``SimResult`` shows
them path major through a transposed view: a step of every path is one
contiguous block, written once by the kernels and read once per rebalancing
date by the backtests.  The kernels hold the state paths last: log prices
as (d, P), Sigma and the running bracket as (d, d, P).  Every matrix
product in a step is a d-term sum of length-P ufunc products
(``matcalc.matmul_last``) and the factor is ufunc arithmetic on entries,
with no transpose: BLAS is kept off the path axis because its results for
one column can depend on how many columns share the call, which would
break partition invariance.
Each step is written straight into its block of the returned panel.

``simulate`` splits the paths into contiguous shards by the rule and the
fork protocol of ``covhedge._shards``: shard 0 runs in this process and each
other shard in a forked child, and each shard makes one kernel call on its
path range.  A shard must carry _MIN_SHARD_PATH_STEPS path-steps, below
which the fork costs more than the second core saves.  When it forks, the
three panels live in an anonymous shared mapping, into which each child
writes its path range, so the parent returns them as they are; otherwise
they come from np.empty.  A child sends back its shard's ``clip_count``
only.

A kernel call draws from one Philox generator, re-keyed to each path's
stream in turn (``_path_streams``); re-keying costs about a quarter of
building a generator, and the variates are the same.  The normals of a path
are drawn path major into a buffer of _DRAW_TILE paths, which is moved into
the paths-last draw arrays a tile at a time.  The jump model's per-path
jump times are drawn unsorted and sorted once per call.  The step maps of
the schemes, the drift flow E = exp(M h) or exp(M h / 2) among them, come
from ``matcalc.lift_flows`` once per call (``_wasc_maps``, ``_bns_maps``),
before any fork.

The reference kernels in ``tests/oracles.py`` step the same schemes path
major with einsum; the two agree to about 1e-14, because their sums run in
different orders.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import _shards, matcalc, models
from .matcalc import matmul_last

__all__ = ["SimResult", "simulate"]

# paths whose draws are made path major into one buffer and then moved to
# the paths-last draw arrays together (_tiled_streams)
_DRAW_TILE = 64
# simulate forks only when each shard would take at least this many
# path-steps: the break-even of the runs recorded in CHANGES.md.  Besides
# the fork, a forked panel pays for its shared pages, which the kernel maps
# without huge pages: about 50 ms more for a 4096 x 250 panel there
_MIN_SHARD_PATH_STEPS = 400_000


@dataclass
class SimResult:
    """Simulated path panel on a uniform time grid."""

    times: np.ndarray            # (N+1,)
    # the panels are views of time-major storage: [:, k] is C-contiguous
    log_spot: np.ndarray         # (P, N+1, d)
    cov: np.ndarray              # (P, N+1, d, d)
    integrated_cov: np.ndarray   # (P, N+1, d, d), cumulative price bracket
    clip_count: int              # covariance repairs beyond fp tolerance

    @property
    def n_paths(self) -> int:
        return self.log_spot.shape[0]

    @property
    def n_steps(self) -> int:
        return self.log_spot.shape[1] - 1


# ---------------------------------------------------------------------------
# small-matrix batched primitives, paths last
# ---------------------------------------------------------------------------

def _sandwich(e: np.ndarray, s: np.ndarray) -> np.ndarray:
    """E_p S_p E_p' for (d, d, P) stacks, or (d, d, 1) for a constant E."""
    return matmul_last(matmul_last(e, s), e.transpose(1, 0, 2))


def _path_streams(seed: int, idx0: int, n: int):
    """Yield the stream of each path idx0 + i, i < n, in turn: one generator
    re-keyed per path to counter 0, key [seed, idx0 + i] and an empty buffer,
    so it draws exactly what Generator(Philox(key=[seed, idx0 + i])) draws.
    Each path's stream is used up before the next one is yielded."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, idx0], dtype=np.uint64)))
    state = rng.bit_generator.state          # a fresh stream's state
    for i in range(n):
        state["state"]["key"] = (seed, idx0 + i)
        rng.bit_generator.state = state
        yield rng


def _tiled_streams(seed: int, idx0: int, outs: tuple):
    """Yield (stream, rows) for each path i of _path_streams in turn, rows
    holding one path-major buffer row per paths-last output (..., n): the
    caller draws into them with out=, and every _DRAW_TILE paths the rows
    are transposed into outputs[..., i] at once, rather than written there
    path by path with a stride of n."""
    n = outs[0].shape[-1]
    tiles = [np.empty((_DRAW_TILE,) + out.shape[:-1]) for out in outs]
    for i, rng in enumerate(_path_streams(seed, idx0, n)):
        j = i % _DRAW_TILE
        yield rng, [tile[j] for tile in tiles]
        if j == _DRAW_TILE - 1 or i == n - 1:
            for out, tile in zip(outs, tiles):
                out[..., i - j:i + 1] = np.moveaxis(tile[:j + 1], 0, -1)


def _start(out_y: np.ndarray, out_cov: np.ndarray, out_int: np.ndarray,
           y0: np.ndarray, sigma0: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Write the initial state into the panel views and return the paths-last
    state: y (d, P), Sigma (d, d, P) and the bracket (d, d, P)."""
    n = out_y.shape[1]
    out_y[0] = y0
    out_cov[0] = sigma0
    out_int[0] = 0.0
    y = np.repeat(y0[:, None], n, axis=1)
    sig = np.repeat(sigma0[..., None], n, axis=2)
    return y, sig, np.zeros_like(sig)


# ---------------------------------------------------------------------------
# Wishart diffusion, splitting scheme
# ---------------------------------------------------------------------------

def _wasc_maps(params: models.WascParams, h: float) -> tuple:
    """(h, E, C) of the splitting scheme: Sigma -> E Sigma E' + C is the
    exact drift flow over h / 2, with E and C as (d, d, 1) constants."""
    e_half = matcalc.lift_flows(params.mean_rev, np.array(0.5 * h),
                                1)[0][..., None]
    lift = matcalc.kron_lift(params.mean_rev)
    _, k_half = matcalc.lift_flows(lift, np.array(0.5 * h), 2)
    c_half = matcalc.mat(k_half @ matcalc.vec(params.omega))[..., None]
    return h, e_half, c_half


def _wasc_kernel(params: models.WascParams, y0: np.ndarray,
                 sigma0: np.ndarray, maps: tuple, seed: int, idx0: int,
                 out_y: np.ndarray, out_cov: np.ndarray,
                 out_int: np.ndarray) -> int:
    """Fill the time-major panel views of paths idx0, idx0 + 1, ... with
    the step maps of _wasc_maps; returns the material repair count."""
    n_steps, n = out_y.shape[0] - 1, out_y.shape[1]
    d = params.d
    h, e_half, c_half = maps
    rho = params.leverage
    resid = float(np.sqrt(max(1.0 - rho @ rho, 0.0)))
    sqh = np.sqrt(h)

    w_norm = np.empty((n_steps, d, d, n))
    z_norm = np.empty((n_steps, d, n))
    for rng, (w_row, z_row) in _tiled_streams(seed, idx0, (w_norm, z_norm)):
        rng.standard_normal(out=w_row)
        rng.standard_normal(out=z_row)

    clip = 0
    a_mat = params.vol_of_vol[..., None]
    y, sig, bracket = _start(out_y, out_cov, out_int, y0, sigma0)
    for k in range(n_steps):
        sa = _sandwich(e_half, sig) + c_half
        q = matcalc.psd_factor_last(sa)
        dw = sqh * w_norm[k]
        v = (matmul_last(dw, rho[:, None, None])
             + resid * sqh * z_norm[k][:, None])
        y = y - 0.5 * h * np.diagonal(sa).T + matmul_last(q, v)[:, 0]
        term = matmul_last(matmul_last(q, dw), a_mat)
        sb, n_bad = matcalc.psd_repair(
            (sa + term + term.transpose(1, 0, 2)).transpose(2, 0, 1))
        clip += n_bad
        sig_next = _sandwich(e_half, sb.transpose(1, 2, 0)) + c_half
        bracket = bracket + 0.5 * h * (sig + sig_next)
        sig = sig_next
        out_y[k + 1] = y.T
        out_cov[k + 1] = sig.transpose(2, 0, 1)
        out_int[k + 1] = bracket.transpose(2, 0, 1)
    return clip


# ---------------------------------------------------------------------------
# pure-jump covariance, exact scheme
# ---------------------------------------------------------------------------

def _draw_jumps(params: models.BnsParams, horizon: float, seed: int,
                idx0: int, xi: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Make every draw of n paths, path by path in the documented order:
    draws 1-4 are returned and each path's price normals (draw 5) go
    to xi[..., i], of shape (n_steps, d, n), a tile of paths at a time.

    Returns their jumps in path-then-time order: each jump's path and
    time, and its Bartlett chi-square variates (n_jumps, d) and normals
    (n_jumps, d, d) in draw order.  The times are drawn unsorted and sorted
    within each path by one lexsort of them all; as the marks do not depend
    on the times, the sorted k-th time of a path goes with its k-th mark."""
    d, n_steps, n = params.d, xi.shape[0], xi.shape[-1]
    mean_count = params.jump_intensity * horizon
    df = params.wishart_shape - np.arange(d)
    counts = np.empty(n, dtype=np.int64)
    times, chi2, gauss = [], [], []
    for i, (rng, (xi_row,)) in enumerate(_tiled_streams(seed, idx0, (xi,))):
        counts[i] = n_jumps = rng.poisson(mean_count)
        times.append(rng.random(n_jumps))
        chi2.append(rng.chisquare(df, size=(n_jumps, d)))
        gauss.append(rng.standard_normal((n_jumps, d, d)))
        rng.standard_normal(out=xi_row)
    ev_path = np.repeat(np.arange(n), counts)
    ev_time = np.concatenate(times)
    ev_time = ev_time[np.lexsort((ev_time, ev_path))] * horizon
    return ev_path, ev_time, np.concatenate(chi2), np.concatenate(gauss)


def _wishart_marks(factor: np.ndarray, chi2: np.ndarray,
                   gauss: np.ndarray) -> np.ndarray:
    """Wishart jump marks L B B' L', paths last, from Bartlett factors B and
    a (d, d, 1) factor L of the scale."""
    d = factor.shape[0]
    bart = np.tril(gauss, -1)
    bart[:, np.arange(d), np.arange(d)] = np.sqrt(chi2)
    half = matmul_last(factor, bart.transpose(1, 2, 0))
    return matmul_last(half, half.transpose(1, 0, 2))


def _bns_maps(params: models.BnsParams, h: float) -> tuple:
    """(h, L, E, K): the Kronecker lift L of the mean reversion M, for the
    flows of the jumps, and the jump-free flow of one step, Sigma -> E Sigma
    E' with its integral vec I = K vec Sigma, as (d, d, 1) and (d^2, d^2, 1)
    constants."""
    lift = matcalc.kron_lift(params.mean_rev)
    e_h = matcalc.lift_flows(params.mean_rev, np.array(h), 1)[0][..., None]
    k_h = matcalc.lift_flows(lift, np.array(h), 2)[1][..., None]
    return h, lift, e_h, k_h


def _bns_kernel(params: models.BnsParams, y0: np.ndarray,
                sigma0: np.ndarray, maps: tuple, horizon: float, seed: int,
                idx0: int, out_y: np.ndarray, out_cov: np.ndarray,
                out_int: np.ndarray) -> None:
    """Fill the time-major panel views of paths idx0, idx0 + 1, ... with
    the step maps of _bns_maps.

    The covariance flow is linear between jumps, so a step's end state and
    its integral I are the jump-free flow of the step, plus each jump's mark
    flowed to the end of the step and that flow's integral.  Given the
    covariance path, the step's diffusive log-price increment is Gaussian
    with covariance I: one Brownian vector per step.  The terms of every
    jump come from one batch of ``matcalc.lift_flows``' first two series per
    call.
    """
    n_steps, n = out_y.shape[0] - 1, out_y.shape[1]
    d = params.d
    kappa = params.drift_comp[:, None]
    h, lift, e_h, k_h = maps

    xi = np.empty((n_steps, d, n))
    ev_path, ev_time, chi2, gauss = _draw_jumps(params, horizon, seed, idx0,
                                                xi)
    marks = _wishart_marks(matcalc.psd_factor_last(
        params.wishart_scale[..., None]), chi2, gauss)
    del chi2, gauss

    # per jump, in path-then-time order: the mark flowed to the end of its
    # step and that flow's integral (the lift's flow maps vec J to
    # vec(E J E'); both it and the integral commute with transposition, so
    # the row-stacked reshape serves as vec), rho * diag(J) and its square
    ev_step = np.minimum((ev_time / h).astype(np.int64), n_steps - 1)
    flow, integral = matcalc.lift_flows(lift, (ev_step + 1) * h - ev_time,
                                        2)
    vec_j = marks.reshape(d * d, 1, -1)
    ev_cov = matmul_last(flow.transpose(1, 2, 0), vec_j).reshape(d, d, -1)
    ev_int = matmul_last(integral.transpose(1, 2, 0), vec_j).reshape(d, d, -1)
    ev_y = params.leverage_diag[:, None] * np.diagonal(marks).T
    ev_sq = ev_y[:, None] * ev_y[None]
    del flow, integral, marks, vec_j
    # a stable sort by step keeps each path's jumps in time order, and
    # np.add.at adds repeated paths in index order: a path's sums never
    # depend on the other paths of the call
    by_step = np.argsort(ev_step, kind="stable")
    bounds = np.searchsorted(ev_step[by_step], np.arange(n_steps + 1))

    y, sig, bracket = _start(out_y, out_cov, out_int, y0, sigma0)
    for k in range(n_steps):
        step_int = matmul_last(k_h, sig.reshape(d * d, 1, n)).reshape(d, d, n)
        sig = _sandwich(e_h, sig)
        evs = by_step[bounds[k]:bounds[k + 1]]
        at = (slice(None), slice(None), ev_path[evs])
        np.add.at(sig, at, ev_cov[..., evs])
        np.add.at(step_int, at, ev_int[..., evs])
        np.add.at(bracket, at, ev_sq[..., evs])
        np.add.at(y, at[1:], ev_y[:, evs])
        root = matcalc.psd_factor_last(step_int)
        y += (-0.5 * np.diagonal(step_int).T - kappa * h
              + matmul_last(root, xi[k][:, None])[:, 0])
        bracket += step_int
        out_y[k + 1] = y.T
        out_cov[k + 1] = sig.transpose(2, 0, 1)
        out_int[k + 1] = bracket.transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def simulate(params, state: models.MarketState, horizon: float, n_steps: int,
             n_paths: int, seed: int, path_start: int = 0) -> SimResult:
    """Simulate n_paths over [state.t, horizon] on a uniform n_steps grid;
    path i of the panel is path path_start + i of the seed's streams."""
    models.require_dimension(params, state)
    if not (np.isfinite(horizon) and horizon > state.t):
        raise ValueError("horizon must be finite and exceed the state time")
    if n_steps < 1 or n_paths < 1:
        raise ValueError("n_steps and n_paths must be positive")
    # integers: the Philox key would truncate a float, 1.5 to seed 1
    seed, path_start = operator.index(seed), operator.index(path_start)
    if seed < 0 or path_start < 0:
        raise ValueError("seed and path_start must be nonnegative")
    span = horizon - state.t
    h = span / n_steps

    d = params.d
    n_shards = _shards.count(n_paths * n_steps, _MIN_SHARD_PATH_STEPS)
    shared = n_shards > 1
    log_spot = _shards.empty((n_steps + 1, n_paths, d), shared)
    cov = _shards.empty((n_steps + 1, n_paths, d, d), shared)
    intcov = _shards.empty((n_steps + 1, n_paths, d, d), shared)

    # the step maps are the same for every shard: made once here,
    # before any fork, and a forked shard inherits them
    maps = (_wasc_maps if params.kind == "wasc" else _bns_maps)(params, h)

    def shard(lo: int, hi: int) -> int:
        views = (log_spot[:, lo:hi], cov[:, lo:hi], intcov[:, lo:hi])
        if params.kind == "wasc":
            return _wasc_kernel(params, state.log_spot, state.cov, maps,
                                seed, path_start + lo, *views)
        _bns_kernel(params, state.log_spot, state.cov, maps, span, seed,
                    path_start + lo, *views)
        return 0

    clip = sum(_shards.run(shard, n_paths, n_shards, "simulate"))
    times = state.t + h * np.arange(n_steps + 1)
    return SimResult(times=times, log_spot=log_spot.swapaxes(0, 1),
                     cov=cov.swapaxes(0, 1),
                     integrated_cov=intcov.swapaxes(0, 1), clip_count=clip)
