"""covhedge: pricing and semi-static variance-optimal hedging of multi-asset
covariance-sensitive derivatives under affine stochastic covariance models.

Subpackages and modules
-----------------------
matcalc     dense symmetric/PSD matrix utilities (vec/mat, expm, drift flows,
            pinv, the batched PSD root and repair)
models      parameter containers, admissibility checks, the Wishart MGF and
            jump covariation, covariance first moments, the overflow rule
transforms  conditional exponential-affine transforms (phi, Psi) on a
            times-to-maturity x contour-node lattice
simulate    seeded Monte Carlo path generation with common-random-number replay
payoffs     Laplace payoff kernels, damping strips, quadrature contours
gbm         bivariate lognormal benchmark analytics (Genz CDF, quadrant prices)
hedging     Fourier pricing, dynamic hedge ratios, covariance-swap systems
"""

__version__ = "0.1.0"

from . import matcalc  # noqa: F401
