"""Model parameter containers, the Wishart MGF and the jump covariation
built on it, and closed-form first moments of the covariance state.

Two affine covariance classes are supported:

* ``WascParams`` -- matrix-valued Wishart covariance diffusion with vector
  correlation between return and covariance shocks.
* ``BnsParams``  -- covariance moves only by PSD jumps of a compound-Poisson
  matrix subordinator with Wishart-distributed marks and exponential decay;
  log prices jump through a diagonal leverage loading.

Parameter objects are immutable after construction, with read-only arrays,
and safe to share across threads.  Each checks its admissible domain when
it is built and raises one ValueError naming every violation, so no set
outside it reaches a formula and no entry point checks again: every entry
finite (checked first), then for the Wishart model rho'rho <= 1 and
Omega - (d-1) A'A PSD (Cuchiero, Filipovic, Mayerhofer & Teichmann 2011),
for the jump model a positive intensity, a shape above d - 1, a positive
definite mark scale and a finite compensator.
``MarketState`` rejects a covariance that is not a symmetric PSD d x d
matrix in the same way.

The mean covariance solves dS/dt = drive + M S + S M' (drive: Omega, or the
jump mean), so ``matcalc.lift_flows`` gives it for any M as flow vec Sigma_0
+ int flow vec drive, and its time integral as int flow vec Sigma_0 + double
int flow vec drive.  ``_mean_flows`` caches these flows by the value of M
and the times, read-only, so that calls at one horizon share them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import matcalc

__all__ = [
    "WascParams",
    "BnsParams",
    "MarketState",
    "covariance_state",
    "require_dimension",
    "IntegratedMeanMap",
    "wishart_mgf",
    "jump_covariation",
    "wasc_mean_cov",
    "wasc_integrated_mean",
    "bns_integrated_mean",
]

# The one overflow rule: the largest real part of a transform exponent that
# is exponentiated; beyond it e^x overflows float64 (about 709.8) or swamps
# every other contour node, so skipping it never leaves an approximation.  A
# valid node past it refuses the number: hedging.pricing.fourier_price names
# the claim, hedging.backtest.BasisCache.basis the rebalancing date.  Nodes
# invalid for domain reasons are skipped instead (payoffs.MAX_SKIP_MASS).
OVERFLOW_RE = 700.0

# distinct (M, times, count) flows kept by _mean_flows; a strip needs two
_FLOW_MEMO_SIZE = 16


def _as_matrix(x, d: int, name: str) -> np.ndarray:
    a = np.array(x, dtype=float)
    if a.shape != (d, d):
        raise ValueError(f"{name}: expected shape ({d}, {d}), got {a.shape}")
    return a


def _reject(problems: list[str]) -> None:
    """Raise the one ValueError listing every violation, if there is any."""
    if problems:
        raise ValueError("invalid model parameters: " + "; ".join(problems))


def _require_finite(params, names: tuple[str, ...]) -> None:
    """Reject every named field (array or scalar; None is skipped) that
    holds a nan or infinity, before any check factors a matrix of them."""
    _reject([f"{name} must be finite" for name in names
             if (v := getattr(params, name)) is not None
             and not np.all(np.isfinite(v))])


def _freeze(params, names: tuple[str, ...], problems: list[str]) -> None:
    """Make the named arrays read-only, then raise one ValueError listing
    every admissibility violation, if there is any."""
    for name in names:
        getattr(params, name).setflags(write=False)
    _reject(problems)


@dataclass(frozen=True)
class WascParams:
    """Wishart affine stochastic covariance parameters.

    The covariance drift is omega + mean_rev @ Sigma + Sigma @ mean_rev.T and
    the covariance noise loads through vol_of_vol; return shocks correlate
    with covariance shocks through the leverage vector.  When ``alpha`` is
    given, omega is materialized as alpha * vol_of_vol.T @ vol_of_vol at
    construction so every downstream formula sees one omega.
    """

    d: int
    mean_rev: np.ndarray
    vol_of_vol: np.ndarray
    leverage: np.ndarray
    alpha: float | None = None
    omega: np.ndarray | None = None

    def __post_init__(self):
        d = int(self.d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "mean_rev", _as_matrix(self.mean_rev, d, "mean_rev"))
        object.__setattr__(self, "vol_of_vol", _as_matrix(self.vol_of_vol, d, "vol_of_vol"))
        lev = np.array(self.leverage, dtype=float).reshape(-1)
        if lev.size != d:
            raise ValueError(f"leverage: expected length {d}, got {lev.size}")
        object.__setattr__(self, "leverage", lev)
        if self.omega is not None:
            object.__setattr__(self, "omega", _as_matrix(self.omega, d, "omega"))
        _require_finite(self, ("mean_rev", "vol_of_vol", "leverage", "alpha",
                               "omega"))
        if self.alpha is not None:
            om = float(self.alpha) * self.vol_of_vol.T @ self.vol_of_vol
            if self.omega is not None and not np.allclose(
                om, self.omega, rtol=1e-10, atol=1e-14
            ):
                raise ValueError("omega and alpha * A'A disagree; provide one of them")
        elif self.omega is not None:
            om = self.omega
        else:
            raise ValueError("provide either omega or alpha")
        object.__setattr__(self, "omega", om)
        problems = []
        rho_sq = float(lev @ lev)
        if not rho_sq <= 1.0 + 1e-12:
            problems.append(
                f"leverage norm violation: rho'rho = {rho_sq:.6g} > 1")
        gram = self.vol_of_vol.T @ self.vol_of_vol
        tol = matcalc.psd_tolerance(om) + matcalc.psd_tolerance(gram)
        lo = matcalc.min_eigenvalue(matcalc.sym_part(om - (d - 1) * gram))
        if not lo >= -tol:
            problems.append(
                "covariance-drift admissibility violated: "
                f"min eig of omega - (d-1) A'A is {lo:.6g} < -{tol:.3g}")
        if not matcalc.is_symmetric(om):
            problems.append("omega must be symmetric")
        _freeze(self, ("mean_rev", "vol_of_vol", "leverage", "omega"),
                problems)

    @property
    def kind(self) -> str:
        return "wasc"


@dataclass(frozen=True)
class BnsParams:
    """Jump-driven covariance parameters with diagonal jump leverage.

    Two fields are derived at construction: ``marks``, the price-jump
    loadings rho_k E^kk stacked over the assets k (a jump X moves log spot
    k by Tr(marks[k] X) = rho_k X_kk), and ``drift_comp``, the vector making
    each discounted asset a martingale, from the Levy exponent of the
    leveraged jumps: kappa_k = jump_intensity * (mgf(marks[k]) - 1).
    """

    d: int
    mean_rev: np.ndarray
    jump_intensity: float
    wishart_shape: float
    wishart_scale: np.ndarray
    leverage_diag: np.ndarray
    marks: np.ndarray = field(init=False)
    drift_comp: np.ndarray = field(init=False)

    def __post_init__(self):
        d = int(self.d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "mean_rev", _as_matrix(self.mean_rev, d, "mean_rev"))
        object.__setattr__(self, "jump_intensity", float(self.jump_intensity))
        object.__setattr__(self, "wishart_shape", float(self.wishart_shape))
        object.__setattr__(self, "wishart_scale",
                           _as_matrix(self.wishart_scale, d, "wishart_scale"))
        lev = np.array(self.leverage_diag, dtype=float).reshape(-1)
        if lev.size != d:
            raise ValueError(f"leverage_diag: expected length {d}, got {lev.size}")
        object.__setattr__(self, "leverage_diag", lev)
        _require_finite(self, ("mean_rev", "jump_intensity", "wishart_shape",
                               "wishart_scale", "leverage_diag"))
        marks = np.zeros((d, d, d))
        marks[np.arange(d), np.arange(d), np.arange(d)] = lev
        object.__setattr__(self, "marks", marks)
        problems = []
        if not self.jump_intensity > 0:
            problems.append(
                f"jump_intensity must be positive, got {self.jump_intensity}")
        if not self.wishart_shape > d - 1:
            problems.append(f"wishart_shape must exceed d-1 = {d - 1}, "
                            f"got {self.wishart_shape}")
        kappa = np.full(d, np.nan)
        if not matcalc.is_symmetric(self.wishart_scale):
            problems.append("wishart_scale must be symmetric")
        elif not (lo := matcalc.min_eigenvalue(self.wishart_scale)) > 0:
            # a singular scale would fail the MGF's inverse
            problems.append("wishart_scale must be positive definite "
                            f"(min eig {lo:.6g})")
        else:
            val, ok = wishart_mgf(self.wishart_scale, self.wishart_shape,
                                  marks)
            kappa = np.where(ok, self.jump_intensity * (val.real - 1.0),
                             np.nan)
        object.__setattr__(self, "drift_comp", kappa)
        if not np.all(np.isfinite(kappa)):
            bad = np.flatnonzero(~np.isfinite(kappa))
            problems.append(
                "martingale compensator undefined for assets "
                f"{bad.tolist()}: 1 - 2 rho_k Theta_kk must stay positive")
        _freeze(self, ("mean_rev", "wishart_scale", "leverage_diag", "marks",
                       "drift_comp"), problems)

    @property
    def kind(self) -> str:
        return "bns"

    def jump_mean(self) -> np.ndarray:
        """Mean of the compensator per unit time: intensity * shape * scale."""
        return self.jump_intensity * self.wishart_shape * self.wishart_scale


@dataclass(frozen=True)
class MarketState:
    """Joint market state (t, Y_t, Sigma_t) with Y = log S; ``from_spot``
    builds it from the spots."""

    t: float
    log_spot: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "log_spot", np.array(self.log_spot, dtype=float))
        object.__setattr__(self, "cov", np.array(self.cov, dtype=float))
        if not np.isfinite(self.t):
            raise ValueError("t must be finite")
        if not np.all(np.isfinite(self.log_spot)):
            raise ValueError("log_spot must be finite: every spot must be "
                             "positive and finite")
        covariance_state(self.cov, self.log_spot.size)
        for name in ("log_spot", "cov"):
            getattr(self, name).setflags(write=False)

    @classmethod
    def from_spot(cls, t: float, spot, cov) -> "MarketState":
        # a spot <= 0 has no finite log, and __post_init__ rejects it
        with np.errstate(divide="ignore", invalid="ignore"):
            log_spot = np.log(np.array(spot, dtype=float))
        return cls(t=t, log_spot=log_spot, cov=cov)


def covariance_state(cov, d: int) -> np.ndarray:
    """cov as a float (d, d) array, refused unless it is a covariance state:
    finite, symmetric to 1e-10 relative, with no eigenvalue below
    -matcalc.psd_tolerance.  MarketState and the entry points that take a
    raw state keep this one rule."""
    cov = np.array(cov, dtype=float)
    if cov.shape != (d, d):
        raise ValueError(f"cov: expected shape ({d}, {d}), got {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise ValueError("cov must be finite")
    if not matcalc.is_symmetric(cov):
        raise ValueError("cov must be symmetric")
    lo, tol = matcalc.min_eigenvalue(cov), matcalc.psd_tolerance(cov)
    if lo < -tol:
        raise ValueError(f"cov has eigenvalue {lo:.3e} below -{tol:.3e}; "
                         "not a covariance state")
    return cov


def require_dimension(params, state: MarketState) -> None:
    """Refuse a market state whose asset count is not params.d."""
    if state.log_spot.size != params.d:
        raise ValueError(f"the market state has {state.log_spot.size} "
                         f"assets, the params d = {params.d}")


# ---------------------------------------------------------------------------
# Wishart moment generating function
# ---------------------------------------------------------------------------

def _log_det_factors(half: np.ndarray, x: np.ndarray) -> list:
    """Complex factors whose principal Logs sum to log det(half - x), for a
    real (d, d) half and a complex (..., d, d) stack x with half - x of
    positive definite Hermitian part: the elimination pivots, multiplied
    into one factor for d = 2 (one Log, see ``wishart_mgf``)."""
    d = half.shape[0]
    piv, _ = matcalc.elimination(
        [[half[i, j] - x[..., i, j] for j in range(d)] for i in range(d)])
    return [piv[1] * piv[0]] if d == 2 else piv


def wishart_mgf(scale: np.ndarray, shape: float, r: np.ndarray
                ) -> tuple[complex, bool] | tuple[np.ndarray, np.ndarray]:
    """E[exp(Tr(R X))] for X ~ Wishart(shape, scale): det(I - 2 R scale)^(-shape/2).

    Accepts complex symmetric R, or a (..., d, d) stack of them, in which
    case value and flag are arrays of the stack's batch shape; each entry is
    independent of the others.  Validity requires the real part of R to lie
    in the convergence strip, where P = scale^{-1} - 2 Re R is positive
    definite: by Sylvester's criterion, where every elimination pivot of P
    is positive.  Inside it, with N = scale^{-1} - 2 R,
    log det(I - 2 R scale) = log det(N / 2) - log det(scale^{-1} / 2), taken
    from the elimination pivots c_k of N / 2 (no per-matrix LAPACK call).
    Each is divided by its value at R = 0, so the log is exactly 0 there.
    ``matcalc.elimination`` takes P and N entry by entry, each
    formed from one row R[..., i, j], so a stack stored entries first is
    read in place and neither matrix is built whole.

    Branch: the Hermitian part of N is P, and every Schur complement keeps
    a positive definite Hermitian part, so Re c_k > 0 along the whole path
    Re R + i t Im R, 0 <= t <= 1, and sum_k Log c_k is a continuous log of
    the determinant on it.  So is the sum of the principal logs of the
    eigenvalues of I - 2 R scale, whose real parts stay positive too, and
    the two agree at t = 0, so they are the same branch at every d (the
    principal log of the determinant itself wraps once the eigenvalue
    arguments sum past pi).  For d <= 2 the two pivot arguments lie in
    (-pi/2, pi/2), so their sum lies in (-pi, pi) and is the principal
    argument of the product c_0 c_1: one Log of the product serves.  Its
    imaginary part is Re c_0 Im c_1 + Im c_0 Re c_1, whose terms share the
    sign of the sum wherever it passes +-pi/2, so rounding cannot carry it
    across the cut.  The power is then one real exp times a cis
    (``matcalc.scaled_cis``): numpy's complex exp spends its time in cos
    and sin.  A shape so large that the angle may leave the cis kernel's
    range takes complex exp instead.

    Returns:
        (value, ok): ok is False when R is outside the strip, in which case
        value is nan (transform failures are data, not exceptions).
    """
    r = np.asarray(r, dtype=complex)
    # one batch axis even for one matrix: numpy's scalar arithmetic can
    # round a complex product differently from its array loops
    stack = r[None] if r.ndim == 2 else r
    inv = np.linalg.inv(np.asarray(scale, dtype=float))
    d = inv.shape[0]
    re = stack.real
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # only a positive definite scale (every pivot > 0) has a Wishart law
        ok = np.all(np.array(matcalc.elimination(inv)[0]) > 0.0)
        for p_k in matcalc.elimination(
                [[inv[i, j] - (re[..., i, j] + re[..., j, i])
                  for j in range(d)] for i in range(d)])[0]:
            ok = ok & (p_k > 0.0)
        half = 0.5 * inv
        at_zero = _log_det_factors(half, np.zeros((1, d, d), dtype=complex))
        qs = [c / c_zero.real for c, c_zero in
              zip(_log_det_factors(half, stack), at_zero)]
        # real ufuncs, as numpy's complex log is far slower; arctan2 gives
        # the principal argument of each factor, the branch above
        log_mod = sum(np.log(np.abs(q)) for q in qs)
        arg = sum(np.arctan2(q.imag, q.real) for q in qs)
        power = -0.5 * shape
        # each factor's argument lies in [-pi, pi], so only a shape past
        # about 1e6 / len(qs) can take the angle beyond the cis kernel
        if abs(power) * np.pi * len(qs) <= matcalc.CIS_MAX_ARG:
            val = np.empty(arg.shape, dtype=complex)
            matcalc.scaled_cis(arg * power, np.exp(log_mod * power), val)
        else:
            val = np.exp(log_mod * power) * np.exp(1j * (arg * power))
    val = np.where(ok, val, complex(np.nan, np.nan))
    if r.ndim == 2:
        return complex(val[0]), bool(ok[0])
    return val, ok


def jump_covariation(params: BnsParams, r: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Jump covariation rate of each log spot with exp(Tr(R Sigma)) per unit
    of that claim: entry k is lam E[(e^{rho_k X_kk} - 1)(e^{Tr(R X)} - 1)]
    over the mark law, = lam (m(R + marks[k]) - m(R)) - kappa_k with m the
    mark MGF.  R is a (..., d, d) stack and the value (..., d), with a flag
    per entry as ``wishart_mgf`` gives it: False (value nan) where R or
    R + marks[k] leaves the MGF's convergence strip.  R = marks[l] gives
    the spots' jump covariation matrix, entry (l, k).
    """
    r = np.asarray(r)
    m_r, ok_r = wishart_mgf(params.wishart_scale, params.wishart_shape, r)
    m_rk, ok_rk = wishart_mgf(params.wishart_scale, params.wishart_shape,
                              r[..., None, :, :] + params.marks)
    value = (params.jump_intensity * (m_rk - np.expand_dims(m_r, -1))
             - params.drift_comp)
    return value, ok_rk & np.expand_dims(ok_r, -1)


# ---------------------------------------------------------------------------
# first moments of the covariance state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegratedMeanMap:
    """Affine map for the conditional integrated covariance mean:
    int_t^T E[vec Sigma_s | Sigma_t] ds = map @ vec(Sigma_t) + offset.
    Both arrays are read-only: map is a cached flow."""

    map: np.ndarray
    offset: np.ndarray


def _mean_flows(mean_rev: np.ndarray, t, count: int):
    """The first count of (flow, int flow, double int flow) of the mean
    covariance ODE dS/dt = drive + M S + S M' over [0, t], in column-stacked
    form, for a finite nonnegative time or an array of them.  Cached by the
    value of M, t and count, so the arrays are read-only and shared."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise ValueError("times-to-maturity must be finite and nonnegative")
    m = np.asarray(mean_rev, dtype=float)
    return _lifted_flows(m.tobytes(), m.shape, t.tobytes(), t.shape, count)


@functools.lru_cache(maxsize=_FLOW_MEMO_SIZE)
def _lifted_flows(m_bytes, m_shape, t_bytes, t_shape, count) -> tuple:
    flows = matcalc.lift_flows(
        matcalc.kron_lift(np.frombuffer(m_bytes).reshape(m_shape)),
        np.frombuffer(t_bytes).reshape(t_shape), count)
    for f in flows:
        f.flags.writeable = False
    return flows


def wasc_mean_cov(params: WascParams, sigma0: np.ndarray, t) -> np.ndarray:
    """E[Sigma_t | Sigma_0] = flow vec Sigma_0 + (int flow) vec Omega, for a
    time t or an array of times (shape t.shape + (d, d))."""
    t = np.asarray(t, dtype=float)
    flow, int1 = _mean_flows(params.mean_rev, t, 2)
    mean = (flow @ matcalc.vec(np.asarray(sigma0, dtype=float))
            + int1 @ matcalc.vec(params.omega))
    # column-stacked, so read back in C order the matrix is transposed; the
    # symmetric part is the same
    return matcalc.sym_part(mean.reshape(t.shape + (params.d, params.d)))


def wasc_integrated_mean(params: WascParams, t: float, T: float) -> IntegratedMeanMap:
    """The (map, offset) pair with int_t^T E[vec Sigma_s|Sigma_t] ds =
    map @ vec(Sigma_t) + offset: the integrated flow, and the double
    integrated flow applied to vec Omega."""
    if T < t:
        raise ValueError("need T >= t")
    _, int1, int2 = _mean_flows(params.mean_rev, T - t, 3)
    offset = int2 @ matcalc.vec(params.omega)
    offset.flags.writeable = False
    return IntegratedMeanMap(int1, offset)


def bns_integrated_mean(params: BnsParams, sigma0: np.ndarray, T: float) -> np.ndarray:
    """int_0^T E[Sigma_s] ds = (int flow) vec Sigma_0 + (double int flow)
    vec(jump mean)."""
    _, int1, int2 = _mean_flows(params.mean_rev, T, 3)
    return matcalc.sym_part(matcalc.mat(
        int1 @ matcalc.vec(np.asarray(sigma0, dtype=float))
        + int2 @ matcalc.vec(params.jump_mean())))
