"""Baselines: the unprotected model and von Neumann NAND multiplexing."""
