"""covhedge: Fourier pricing and dynamic hedging of multi-asset
covariance-sensitive derivatives under affine stochastic covariance models.
The semi-static variance-optimal hedge of the source paper is planned.

matcalc     dense symmetric/PSD matrix utilities
models      parameter containers that check their admissible domain when
            built, the Wishart MGF and jump covariation, covariance first
            moments, the overflow rule
transforms  exponential-affine transforms (phi, Psi) on a times-to-maturity x
            contour-node lattice
simulate    seeded Monte Carlo path panels, bitwise independent of how the
            paths are split across calls and shards
payoffs     payoff transforms of vanilla, product and spread options, and
            their quadrature contours
gbm         lognormal quadrant prices and deltas (the misspecified hedge)
hedging     Fourier prices, dynamic hedges and their backtests, covariance
            swaps

Importing covhedge, or any module but gbm, loads numpy only; scipy loads
only with the GBM comparator.
"""

__version__ = "0.1.0"

from . import matcalc  # noqa: F401
