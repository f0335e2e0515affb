"""Pricing and hedging on top of the transforms.

pricing    Fourier prices of transform-catalog payoffs
kernels    scalar covariation rates between spots and basis claims
covswap    covariance-swap values and variance-optimal hedge systems
backtest   discrete-rebalancing hedge backtests on simulated panels
"""
