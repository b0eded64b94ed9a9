"""Time-triggered core architecture substrate (core services C1-C4)."""
