"""Timing proxies for the traced run of the covhedge benchmark.

`Tracer.install` replaces public functions and methods of covhedge with
proxies that record a span (name, start, end, parent) and a work count per
call; `Tracer.uninstall` puts the originals back.  Nothing in covhedge is
edited.  A layer's time is the self time of its spans: duration minus the
time covered by child spans, so the layer times add up to the traced pass
up to the time spent outside every span (the remainder).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from covhedge import payoffs, simulate, transforms
from covhedge.hedging import backtest, covswap, pricing


def _grid_points(args, kwargs, out) -> int:
    return int(out.phi.size)


def _path_steps(args, kwargs, out) -> int:
    return int(out.n_paths * out.n_steps)


def _one(args, kwargs, out) -> int:
    return 1


def _array_size(args, kwargs, out) -> int:
    return int(out.size)


# (owner, attribute, time metric, count metric, counter)
TARGETS = [
    (simulate, "simulate", "simulate.s", "simulate.path_steps", _path_steps),
    (transforms, "transform_grid", "transforms.grid_s",
     "transforms.grid_points", _grid_points),
    (payoffs, "build_contour", "payoffs.contour_s", None, None),
    (payoffs, "suggest_decay", "payoffs.contour_s", None, None),
    (pricing, "fourier_price", "pricing.price_s", "pricing.prices", _one),
    (backtest.BasisCache, "prepare", "backtest.cache_prepare_s", None, None),
    (backtest.FourierHedge, "prepare", "backtest.hedge_prepare_s", None, None),
    (backtest.BasisCache, "basis", "backtest.basis_s", "backtest.basis_evals",
     _array_size),
    (backtest.FourierHedge, "positions", "backtest.positions_s", None, None),
    (backtest.CovswapHedge, "positions", "backtest.positions_s", None, None),
    (backtest.GbmDeltaHedge, "positions", "gbm.delta_s", None, None),
    (backtest, "run_backtest", "backtest.wealth_s", None, None),
    (covswap, "wasc_covswap_system", "covswap.system_s", None, None),
    (covswap, "bns_covswap_system", "covswap.system_s", None, None),
    (covswap, "covswap_values", "covswap.system_s", None, None),
    (covswap, "covswap_payoff", "covswap.system_s", None, None),
]

TIME_METRICS = list(dict.fromkeys(t[2] for t in TARGETS))
COUNT_METRICS = list(dict.fromkeys(t[3] for t in TARGETS if t[3]))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _proxy(self, fn, metric: str, count_metric, counter):
        @functools.wraps(fn)
        def proxy(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([metric, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if count_metric:
                self.counts[count_metric] += counter(args, kwargs, out)
            return out
        return proxy

    def install(self) -> None:
        for owner, attr, metric, count_metric, counter in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr,
                    self._proxy(fn, metric, count_metric, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Self time per metric over all recorded spans."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[idx]
        return out
