"""Reliability models: Weibull, bathtub curve, FIT arithmetic, Pecht's law."""
