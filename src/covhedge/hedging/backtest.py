"""Discrete-rebalancing hedging backtests on simulated panels.

The driver walks the simulation grid once and asks every strategy for the
spot positions of all of a shard's paths at each rebalancing date; wealth
compounds as V_{k+1} = V_k + theta_k' (S_{k+1} - S_k).  A Fourier hedge
synthesizes its positions from exponential basis claims, whose transform
lattice a ``BasisCache`` holds for one node set.  ``FourierHedge.positions``,
the sweep's one level of row blocking, asks the cache for the claims on a
row block of paths at a time and keeps no H between calls.

The basis claims H = exp(a + i b) on the (path, node) panel dominate the
cost of a Fourier hedge, and complex exp spends nearly all its time in the
per-element cos and sin.  ``BasisCache.basis`` works in real arithmetic on
the rows it is given: two real matrix products give a and b, numpy's
vectorised real exp gives e^a, and ``matcalc.scaled_cis`` gives
e^a (cos b + i sin b) from a table instead of libm trig, within a few ulps
of complex exp of the same exponent.  A real exponent past
models.OVERFLOW_RE refuses the date's basis, as it refuses a price: such a
claim would dominate any sum it entered.

``run_backtest`` evaluates the payoffs and prepares every strategy once,
then sweeps the paths in contiguous shards, the first in this process and
each other in a forked child, by the one protocol of ``covhedge._shards``;
the wealth rows live in a shared mapping, no strategy changes state during
the sweep, and a child sends back nothing but the exception it may raise,
which the parent raises.  A second process paid off only from about 1e6 to
2.5e6 basis points (paths x rebalancing dates x Fourier nodes) per shard in
the runs recorded in CHANGES.md, so a sweep takes only as many shards as
carry _MIN_SHARD_BASIS_POINTS each, and one without a Fourier hedge runs in
one.

Positions are functions of the path state only, and every product keeps its
rows apart, so wealth is bitwise independent of the row blocks and of the
shard count.  That rests on how each row is rounded: BLAS calls are matrix
products whose rows each take one dot product over the inner dimension
(``_matmul`` keeps a lone row off numpy's matrix-vector path); the jump
model's spot solve is ufunc arithmetic on cofactors (``_spot_solve``);
``gbm.bvn_upper`` sums its quadrature per row, since a matrix-vector product
rounds by the row count.  A row block holds about BASIS_BLOCK_POINTS points,
and fewer where its product with the small weights matrix would reach the size
at which OpenBLAS starts its own threads (_GEMM_SERIAL_MNK): those threads
contend with the shards for the cores, and made a two-shard ``bns`` sweep at
128 nodes ten times slower than one shard.

Whatever a strategy records during the sweep, and every span that a tracer
wrapping its methods records, covers the parent's shard only: the
children's copies end with them.  A strategy's positions must therefore
not rest on state that its own ``positions`` calls change.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .. import _shards, matcalc, models, payoffs, transforms
from .covswap import CovswapSystem

__all__ = [
    "BacktestResult",
    "HedgeJob",
    "BasisCache",
    "FourierHedge",
    "GbmDeltaHedge",
    "CovswapHedge",
    "run_backtest",
]

# FourierHedge.positions: the (path, node) points per row block of the
# basis, which keeps the block's temporaries in the L2 cache; chosen from
# the sweeps recorded in CHANGES.md
BASIS_BLOCK_POINTS = 16384
# OpenBLAS runs a zgemm on more than one thread from m n k = 65536 on (seen
# with OpenBLAS 0.3.31)
_GEMM_SERIAL_MNK = 65536
# run_backtest forks only when each shard would take at least this many
# basis points (paths x rebalancing dates x Fourier nodes): the break-even
# of the runs recorded in CHANGES.md
_MIN_SHARD_BASIS_POINTS = 4_000_000
@dataclass
class BacktestResult:
    name: str
    pnl: np.ndarray           # (P,) terminal wealth minus the claim payout
    payoff: np.ndarray        # (P,) claim payout


@dataclass
class HedgeJob:
    """One backtest: a strategy (None = hold cash), a payoff (terminal array
    or a callable on terminal spots), and the initial capital.

    A strategy has ``prepare(sim)``, called once per run, and ``positions(k,
    spot, log_spot, cov)``, called per date on all the paths of a shard.
    Positions must depend on the paths' state and on what ``prepare`` set only:
    the paths may be swept in forked processes, and state that ``positions``
    changes stays in the process that changed it.
    """

    name: str
    strategy: object | None
    payoff: np.ndarray | Callable[[np.ndarray], np.ndarray]
    initial_capital: float


class BasisCache:
    """Transform lattice of one node set.

    Holds phi/psi on the (rebalance times) x (nodes) lattice and evaluates
    H = exp(phi + u'Y + Tr(psi Sigma)) on a block of paths at one date.
    """

    def __init__(self, params, model_args: np.ndarray, horizon: float):
        self.params = params
        self.model_args = np.atleast_2d(np.asarray(model_args, dtype=complex))
        self.horizon = horizon
        self.times = None              # rebalancing times of the lattice

    def prepare(self, sim) -> None:
        _check_span(sim, self.horizon)
        d = self.params.d
        times = self.times = sim.times[:-1]
        taus = self.horizon - times
        grid = transforms.transform_grid(self.params, taus, self.model_args)
        self.valid = grid.valid                          # (K, M)
        self.psi = np.where(self.valid[..., None, None], grid.psi, 0.0)
        # exponent = state @ coeff[k] for the state row (log spots, the upper
        # triangle of Sigma with doubled off-diagonals, 1): the last
        # coefficient row is phi, and an invalid node's coefficients are 0.
        # basis needs the real and imaginary planes.
        self._iu, self._ju = np.triu_indices(d)
        self._off_scale = np.where(self._iu == self._ju, 1.0, 2.0)
        psi_flat = self.psi[:, :, self._iu, self._ju]    # (K, M, n_tri)
        u_part = np.broadcast_to(self.model_args.T[None],
                                 (times.size, d, self.model_args.shape[0]))
        coeff = np.concatenate([u_part, psi_flat.transpose(0, 2, 1),
                                grid.phi[:, None]], axis=1)
        np.copyto(coeff, 0.0, where=~self.valid[:, None])  # (K, d+n_tri+1, M)
        self.coeff_re = np.ascontiguousarray(coeff.real)
        self.coeff_im = np.ascontiguousarray(coeff.imag)

    def weight_mask(self, weights: np.ndarray) -> np.ndarray:
        """Per-step weights with invalid nodes zeroed; refuses claims whose
        contour loses more than the allowed mass at any rebalance date."""
        payoffs.check_skipped_mass(weights, self.valid)
        return np.where(self.valid, weights, 0.0)        # (K, M)

    def basis(self, k: int, log_spot: np.ndarray,
              cov: np.ndarray) -> np.ndarray:
        """H on the (P, M) panel of the given paths at date k, all rows at
        once; refused where a real exponent passes models.OVERFLOW_RE."""
        state = np.concatenate(
            [log_spot, cov[:, self._iu, self._ju] * self._off_scale,
             np.ones((log_spot.shape[0], 1))], axis=1)
        a = _matmul(state, self.coeff_re[k])
        # elementwise, so that a nan row cannot hide an overflowed one
        if (a > models.OVERFLOW_RE).any():
            raise ValueError(f"a basis exponent passes models.OVERFLOW_RE at "
                             f"rebalancing date {k} (t = {self.times[k]:.6g})")
        np.exp(a, out=a)
        h = np.empty(a.shape, dtype=complex)
        matcalc.scaled_cis(_matmul(state, self.coeff_im[k]), a, h)
        return h


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; one row goes in as two, since gemv rounds it otherwise."""
    return a @ b if a.shape[0] > 1 else (np.concatenate([a, a]) @ b)[:1]


def _check_span(sim, horizon: float) -> None:
    if not (np.isfinite(horizon) and abs(sim.times[-1] - horizon) <= 1e-12):
        raise ValueError("horizon must be finite and must match the "
                         "simulation span")


def _check_grid(times: np.ndarray | None, grid: np.ndarray,
                what: str) -> None:
    """Refuse coefficients built on other times than the panel's grid, or
    on none (times None), by the 1e-12 rule of _check_span."""
    if (times is None or times.size != grid.size
            or np.any(np.abs(times - grid) > 1e-12)):
        raise ValueError(f"{what} grid must match the simulation")


def _jump_cov(params) -> np.ndarray:
    """The spots' jump covariation matrix of a jump model (d, d)."""
    cov, ok = models.jump_covariation(params, params.marks)
    if not np.all(ok):
        raise ValueError("mark transform argument outside the convergence "
                         "strip; the leverage is too aggressive for the "
                         "jump size law")
    return cov.real


def _spot_solve(cov: np.ndarray, jump_cov: np.ndarray,
                rhs: np.ndarray) -> np.ndarray:
    """theta = adj(Sigma + J) rhs / det per path (``matcalc.inverse_last``)
    for the (P, d, d) states Sigma, read by their upper triangle, the jump
    covariation J (d, d) and (P, d) right-hand sides or one (d,) for all.
    Column by column: numpy's loop broadcast over a trailing d is slow."""
    d = cov.shape[-1]
    rows = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            rows[i][j] = rows[j][i] = cov[:, i, j] + jump_cov[i, j]
    adj, det = matcalc.inverse_last(rows)
    theta = np.empty(cov.shape[:-1])
    for i in range(d):
        acc = adj[i, 0] * rhs[..., 0]
        for j in range(1, d):
            acc += adj[i, j] * rhs[..., j]
        np.divide(acc, det, out=theta[:, i])
    return theta


class FourierHedge:
    """Locally variance-optimal positions for one transform-catalog claim.

    The hedge ratio is synthesized node by node from the claim's contour:
    for the continuous model theta(u) = H(u) diag(S)^-1 (u + 2 psi A'rho);
    for the jump model the spot covariation matrix (diffusive plus jump)
    is solved against the claim-spot covariation.
    """

    def __init__(self, params, cache: BasisCache, weights: np.ndarray):
        # equal params field by field, as distinct objects too
        if type(cache.params) is not type(params) or not all(np.array_equal(
                getattr(cache.params, f.name), getattr(params, f.name))
                for f in fields(params)):
            raise ValueError(f"a basis cache built for other params "
                             f"({cache.params.kind}) cannot serve "
                             f"{params.kind} params")
        self.params = params
        self.cache = cache
        self.weights = np.asarray(weights, dtype=complex)
        # one weight per node: a broadcast scalar would hedge another claim
        if self.weights.shape != cache.model_args.shape[:1]:
            raise ValueError(f"weights of shape {self.weights.shape} do not "
                             f"match the cache's "
                             f"{cache.model_args.shape[:1]} nodes")

    def prepare(self, sim) -> None:
        cache = self.cache
        _check_grid(cache.times, sim.times[:-1], "basis cache")
        params = self.params
        wk = cache.weight_mask(self.weights)             # (K, M)
        u = cache.model_args                             # (M, d)
        if params.kind == "wasc":
            a_rho = params.vol_of_vol.T @ params.leverage
            # (K, M, d): u + 2 psi(k, m) A'rho, weighted per step
            gv = u[None] + 2.0 * cache.psi @ a_rho
            self._w = wk[..., None] * gv
        else:
            d = params.d
            # R(u) = psi + Diag(rho * u) on the whole (K, M) lattice
            lev = np.eye(d) * (params.leverage_diag * u)[:, None, :]
            jv, ok = models.jump_covariation(params, cache.psi + lev)
            if np.any(cache.valid[..., None] & ~ok):
                raise ValueError("claim transform node leaves the mark strip")
            jv = np.where(cache.valid[..., None], jv, 0.0)
            # (K, M, 2d): the weights of H Sigma-loading u and of the jump
            # covariation, side by side so that one product serves both
            self._w = wk[..., None] * np.concatenate(
                [np.broadcast_to(u[None], jv.shape), jv], axis=-1)
            self._jump_cov = _jump_cov(params)

    def positions(self, k: int, spot: np.ndarray, log_spot: np.ndarray,
                  cov: np.ndarray) -> np.ndarray:
        # the sweep's one row blocking: H a block at a time, straight into
        # the small weights, so no (P, M) H and no threaded product
        w = self._w[k]                                    # (M, d) or (M, 2d)
        hw = np.empty((spot.shape[0], w.shape[1]), dtype=complex)
        rows = max(1, min(BASIS_BLOCK_POINTS // w.shape[0],
                          (_GEMM_SERIAL_MNK - 1) // w.size))
        for start in range(0, spot.shape[0], rows):
            sl = slice(start, start + rows)
            hw[sl] = _matmul(self.cache.basis(k, log_spot[sl], cov[sl]), w)
        if self.params.kind == "wasc":
            return hw.real / spot
        d = self.params.d
        cross = (np.einsum("pab,pb->pa", cov, hw[:, :d])
                 + hw[:, d:]).real                        # (P, d)
        return _spot_solve(cov, self._jump_cov, cross) / spot


class GbmDeltaHedge:
    """Misspecified benchmark: quadrant deltas under a frozen lognormal law
    with preset volatilities and correlation."""

    def __init__(self, kind: str, strikes, vols, corr: float, horizon: float):
        # gbm loads scipy: with the first hedge, not with covhedge, so before
        # prepare and any fork
        from .. import gbm
        self._spot_delta = gbm.quadrant_spot_delta
        self.kind = kind
        self.strikes = tuple(strikes)
        self.vols = tuple(vols)
        self.corr = corr
        self.horizon = horizon

    def prepare(self, sim) -> None:
        _check_span(sim, self.horizon)
        self._times = sim.times

    def positions(self, k: int, spot: np.ndarray, log_spot: np.ndarray,
                  cov: np.ndarray) -> np.ndarray:
        tau = self.horizon - self._times[k]
        return self._spot_delta(self.kind, spot, self.strikes, self.vols,
                                self.corr, tau)


class CovswapHedge:
    """Variance-optimal spot positions for a covariance swap."""

    def __init__(self, system: CovswapSystem, params):
        if system.kind != params.kind:
            raise ValueError(f"a {system.kind} swap system cannot hedge "
                             f"under {params.kind} params")
        self.system = system
        self.params = params

    def prepare(self, sim) -> None:
        _check_grid(self.system.times, sim.times, "swap system")
        self._jump_cov = (_jump_cov(self.params)
                          if self.params.kind == "bns" else None)

    def positions(self, k: int, spot: np.ndarray, log_spot: np.ndarray,
                  cov: np.ndarray) -> np.ndarray:
        core = self.system.theta_core[k]
        if self.system.kind == "bns":
            return _spot_solve(cov, self._jump_cov, core) / spot
        # column by column, as in _spot_solve
        theta = np.empty_like(spot)
        for a in range(spot.shape[1]):
            np.divide(core[a], spot[:, a], out=theta[:, a])
        return theta


def _shard_count(jobs: Sequence[HedgeJob], n_paths: int,
                 n_dates: int) -> int:
    """Path shards for a sweep by ``_shards.count``, each to carry
    _MIN_SHARD_BASIS_POINTS."""
    nodes = sum(job.strategy.cache.model_args.shape[0] for job in jobs
                if isinstance(job.strategy, FourierHedge))
    return _shards.count(n_paths * (n_dates - 1) * nodes,
                         _MIN_SHARD_BASIS_POINTS)


def _sweep(jobs: Sequence[HedgeJob], shard_log_spot: np.ndarray,
           shard_cov: np.ndarray, wealth: np.ndarray) -> None:
    """Write the wealth (n_jobs, P) of every job on the (P, dates, ...)
    panels of one shard's paths, every path of the shard at each date."""
    wealth[:] = np.array([job.initial_capital for job in jobs],
                         dtype=float)[:, None]
    # simulate stores its panels time major, so [:, k] is one contiguous
    # (P, d) block per date; each date's spots are taken once
    next_spot = np.exp(shard_log_spot[:, 0])
    for k in range(shard_log_spot.shape[1] - 1):
        spot, next_spot = next_spot, np.exp(shard_log_spot[:, k + 1])
        ds = next_spot - spot
        for j, job in enumerate(jobs):
            if job.strategy is None:
                continue
            th = job.strategy.positions(k, spot, shard_log_spot[:, k],
                                        shard_cov[:, k])
            # theta'ds column by column, as in _spot_solve
            gain = th[:, 0] * ds[:, 0]
            for a in range(1, th.shape[1]):
                gain += th[:, a] * ds[:, a]
            wealth[j] += gain


def run_backtest(sim, jobs: Sequence[HedgeJob]) -> list[BacktestResult]:
    """Run every job over the panel and return results in order.

    Payoffs and strategies are prepared once, here; the paths are then swept
    in shards over forked processes (``covhedge._shards``), each shard whole
    at every date: ``FourierHedge.positions`` alone blocks rows.  Every child
    has ended before this function returns or raises, and an exception
    raised in any shard is raised here.  A strategy's ``positions`` must not
    rest on state changed during the sweep: a child's changes do not come
    back.
    """
    n_paths = sim.n_paths
    payoffs_out = [np.asarray(job.payoff(np.exp(sim.log_spot[:, -1]))
                              if callable(job.payoff) else job.payoff,
                              dtype=float) for job in jobs]
    for job, pay in zip(jobs, payoffs_out):
        # either form: a (P, 1) column would broadcast the P&L to (P, P)
        if pay.shape != (n_paths,):
            raise ValueError(f"payoff of {job.name} has shape {pay.shape}, "
                             f"not ({n_paths},)")

    for job in jobs:
        if job.strategy is not None:
            job.strategy.prepare(sim)

    n_shards = _shard_count(jobs, n_paths, sim.log_spot.shape[1])
    wealth = _shards.empty((len(jobs), n_paths), shared=n_shards > 1)

    def shard(lo: int, hi: int) -> None:
        _sweep(jobs, sim.log_spot[lo:hi], sim.cov[lo:hi], wealth[:, lo:hi])

    _shards.run(shard, n_paths, n_shards, "backtest")
    return [BacktestResult(name=job.name, pnl=w - p, payoff=p)
            for job, w, p in zip(jobs, wealth, payoffs_out)]
