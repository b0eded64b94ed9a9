"""The maintenance-oriented fault model and diagnostic core (the paper's
primary contribution)."""
