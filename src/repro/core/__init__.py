"""Core reversible-circuit substrate: bits, gates, circuits, simulators."""
