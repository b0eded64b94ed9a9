"""Discrete-event simulation substrate: kernel, RNG streams, tracing.

The package re-exports nothing, so pure submodules — notably
:mod:`repro.sim.trace`, which the sim-free observability and storage
layers import — load without the DES kernel.
"""
