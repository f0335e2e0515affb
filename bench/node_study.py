"""Price error against contour nodes per dimension, for choosing the
node count of the ``fourier_hedge`` workload.

    python3 bench/node_study.py

Prices ATM cc, cp and pp quadrants under both reference models with
`fourier_price` at 6 to 16 nodes per dimension and prints each price's
relative error against the 48-node price as a Markdown table.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from covhedge import payoffs                                # noqa: E402
from covhedge.hedging import pricing                        # noqa: E402

import workloads as wl                                      # noqa: E402

NODES = (6, 8, 10, 12, 14, 16)
REFERENCE_NODES = 48


def main() -> None:
    state = wl.reference_state()
    print("| model | kind | 48-node price | "
          + " | ".join(f"{n}" for n in NODES) + " |")
    print("|---" * (3 + len(NODES)) + "|")
    for kind in wl.MODELS:
        params = wl.reference_params(kind)
        for quad in ("cc", "cp", "pp"):
            kernel = payoffs.quadrant_option(2, quad, (0, 1), wl.FH_STRIKES)
            ref = pricing.fourier_price(params, state, wl.HORIZON, kernel,
                                        nodes_per_dim=REFERENCE_NODES)
            errs = [pricing.fourier_price(params, state, wl.HORIZON, kernel,
                                          nodes_per_dim=n) / ref - 1.0
                    for n in NODES]
            print(f"| {kind} | {quad} | {ref:.4f} | "
                  + " | ".join(f"{e:+.1e}" for e in errs) + " |")


if __name__ == "__main__":
    main()
