"""Contiguous row shards, the first run in this process and every other in a
forked child: the one fork protocol of ``simulate`` and ``run_backtest``.

A caller whose output is a set of independent rows (the paths of a panel,
the wealth of a sweep) splits the rows into contiguous shards.  ``count`` is
the shard rule: one shard per CPU this process may run on, at most
_MAX_SHARDS, and only as many as carry the caller's minimum work each.  It
gives one shard where the platform has no fork or no affinity call, and
where the process runs other Python threads: a child could inherit a lock
that one of them held at the fork, and Python 3.12 on warns of it.

``run`` forks one child per shard past the first and runs shard 0 itself.
The children see the caller's state copy-on-write, and write their rows
into arrays that ``empty`` placed in an anonymous shared mapping, so no row
is copied or pickled.  A child's pipe carries back only its shard's small
return value (a counter, or None), or the exception it raised, which the parent
raises with a cause naming the shard once it has reaped every child.  A
shard whose fork fails runs in this process, with the same result.
Anything else a child changes ends with it.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import threading
import traceback
from typing import Callable

import numpy as np

# the CPU count of the 2-core machine on which every shard rule was measured
# (CHANGES.md); a larger count, or a CPU quota, is unmeasured
_MAX_SHARDS = 2


def count(work: int, min_work: int) -> int:
    """Shards for `work` units spread evenly over the rows, each to carry at
    least `min_work` of them (see the module docstring for the rule)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), _MAX_SHARDS,
                      work // min_work))


def empty(shape: tuple[int, ...], shared: bool) -> np.ndarray:
    """An uninitialised float array: in an anonymous shared mapping, which
    forked children write through to this process, when `shared`; else
    from np.empty."""
    if not shared:
        return np.empty(shape)
    n = int(np.prod(shape))
    buf = mmap.mmap(-1, max(n, 1) * np.dtype(float).itemsize)
    return np.frombuffer(buf, dtype=float, count=n).reshape(shape)


def _child(fd: int, inherited: list[int], body: Callable, lo: int,
           hi: int) -> None:
    """Body of a forked shard process: close the inherited pipe ends, run
    body(lo, hi) and write ("ok", result, "") or ("error", exception,
    traceback) to the pipe fd, then end the process without returning to
    the caller's stack, whatever happened."""
    code = 1
    try:
        for other in inherited:
            os.close(other)
        try:
            msg = ("ok", body(lo, hi), "")
            code = 0
        except BaseException as exc:   # sent to the parent, which re-raises
            msg = ("error", exc, traceback.format_exc())
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:          # an exception pickle cannot carry
                msg = ("error", RuntimeError(f"{type(exc).__name__}: {exc}"),
                       msg[2])
        with open(fd, "wb") as pipe:
            pipe.write(pickle.dumps(msg, pickle.HIGHEST_PROTOCOL))
    finally:
        os._exit(code)


def run(body: Callable[[int, int], object], n_rows: int, n_shards: int,
        name: str) -> list:
    """Call body(lo, hi) on n_shards contiguous ranges [lo, hi) of
    range(n_rows) and return the calls' results in range order.  The first
    range runs in this process and each other one in a forked child (in
    this process too if its fork fails), so body must write its rows into
    arrays from ``empty(..., shared=True)`` and return only a small
    picklable value.  `name` names the shards in errors.  Every child has
    ended before this returns or raises."""
    bounds = [n_rows * i // n_shards for i in range(n_shards + 1)]
    ranges = list(zip(bounds[:-1], bounds[1:]))
    results = [None] * n_shards
    here = [0]                     # shards run in this process
    children = []                  # (shard, pid, read end of its pipe)
    done = False
    try:
        for i in range(1, n_shards):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                here.append(i)
                continue
            if pid == 0:
                _child(w, [r] + [pipe.fileno() for _, _, pipe in children],
                       body, *ranges[i])
            os.close(w)
            children.append((i, pid, open(r, "rb")))
        for i in here:
            results[i] = body(*ranges[i])
        for i, _, pipe in children:
            data = pipe.read()
            lo, hi = ranges[i]
            where = f"the {name} shard process of rows [{lo}, {hi})"
            if not data:
                raise RuntimeError(f"{where} ended without a result")
            status, value, trace = pickle.loads(data)
            if status == "error":
                raise value from RuntimeError(f"raised in {where}:\n{trace}")
            results[i] = value
        done = True
    finally:
        for _, pid, pipe in children:
            pipe.close()
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results
