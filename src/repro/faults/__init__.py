"""Fault injection substrate: labelled fault mechanisms, rates, wearout."""
