"""Noise models, deterministic fault injection, and Monte Carlo."""
