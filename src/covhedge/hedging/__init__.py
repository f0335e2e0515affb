"""Pricing and hedging on top of the transforms.

pricing    Fourier prices of transform-catalog payoffs
covswap    covariance-swap values and variance-optimal hedge systems
backtest   discrete-rebalancing hedge backtests on simulated panels
"""
