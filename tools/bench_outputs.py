"""Capture the outputs of every benchmark workload at one seed, or compare
two captures leaf by leaf.

    python3 tools/bench_outputs.py capture --seed 0 --out a.npz [--root DIR]
    python3 tools/bench_outputs.py compare a.npz b.npz [--rtol 1e-12]

``capture`` sets up every workload of ``bench/workloads.py`` and drives the
run generator of each case to completion, untraced, once.  Every output
(a price, a P&L array, one entry of a list of arrays) is one leaf, saved
under its path, for example ``fourier_hedge/bns/pnl/fourier``.  ``--root``
takes ``src/`` and ``bench/`` from another checkout, so the same tool
captures a second tree; it only reads ``bench/``.

``compare`` prints how many leaves are bitwise equal and, for the others,
the relative difference max |a - b| / max |b| of each and the largest.  It
exits 1 when a leaf is missing from either side, changes its shape, or
differs by more than ``--rtol``; without ``--rtol`` every leaf must be
bitwise equal.  ``--match`` restricts both to the leaves whose path holds
a given text.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _name(key, sep: str = " ") -> str:
    """A dict key as a path part: a label tuple's items joined by spaces,
    a tuple within it by commas, floats by repr."""
    if isinstance(key, tuple):
        return sep.join(_name(k, ",") for k in key)
    return repr(float(key)) if isinstance(key, float) else str(key)


def _leaves(prefix: str, value, out: dict) -> None:
    """Flatten nested dicts and lists of outputs into path -> array."""
    if isinstance(value, dict):
        for key, item in value.items():
            _leaves(f"{prefix}/{_name(key)}", item, out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _leaves(f"{prefix}/{i}", item, out)
    else:
        out[prefix] = np.asarray(value)


def capture(seed: int, root: Path) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads

    out = {}
    for name, workload in workloads.WORKLOADS.items():
        for case_name, case in workload.setup(seed).items():
            steps = workload.run(case)
            while True:
                try:
                    next(steps)
                except StopIteration as stop:
                    _leaves(f"{name}/{case_name}", stop.value, out)
                    break
    return out


def compare(a: dict, b: dict, rtol: float | None) -> bool:
    """Print the leaf-by-leaf comparison; True when it passes."""
    ok = True
    for key in sorted(a.keys() ^ b.keys()):
        print(f"{key}: only in {'the first' if key in a else 'the second'}")
        ok = False
    keys = sorted(a.keys() & b.keys())
    equal, worst = 0, 0.0
    for key in keys:
        x, y = a[key], b[key]
        if x.shape != y.shape or x.dtype != y.dtype:
            print(f"{key}: {x.dtype}{x.shape} against {y.dtype}{y.shape}")
            ok = False
        elif x.tobytes() == y.tobytes():
            equal += 1
        else:
            with np.errstate(invalid="ignore", divide="ignore"):
                rel = float(np.max(np.abs(x - y)) / np.max(np.abs(y)))
            rel = rel if np.isfinite(rel) else np.inf
            worst = max(worst, rel)
            bad = rtol is None or not rel <= rtol
            print(f"{key}: relative difference {rel:.3g}"
                  + ("  FAIL" if bad else ""))
            ok = ok and not bad
    print(f"{equal} of {len(keys)} leaves bitwise equal; largest relative "
          f"difference {worst:.3g}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cap = sub.add_parser("capture")
    cap.add_argument("--seed", type=int, default=0)
    cap.add_argument("--out", required=True)
    cap.add_argument("--root", type=Path, default=ROOT)
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    cmp.add_argument("--rtol", type=float, default=None)
    cmp.add_argument("--match", default="")
    args = parser.parse_args()
    if args.command == "capture":
        np.savez(args.out, **capture(args.seed, args.root.resolve()))
        return 0
    a, b = ({k: v for k, v in np.load(path).items() if args.match in k}
            for path in (args.first, args.second))
    return 0 if compare(a, b, args.rtol) else 1


if __name__ == "__main__":
    sys.exit(main())
