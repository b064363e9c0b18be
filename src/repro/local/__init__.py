"""Near-neighbour (1D/2D) fault-tolerant constructions."""
