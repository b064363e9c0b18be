"""Closed-form analysis: thresholds, recursions, blow-ups, entropy."""
