"""Statistics, sweeps, threshold search, tables, the experiment registry."""
