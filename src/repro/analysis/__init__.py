"""Experiment analysis: scoring metrics and report rendering.

The package re-exports nothing: the report-rendering helpers in
:mod:`repro.analysis.reports` are pure text formatting used by the
sim-free ``repro query`` path, so importing them must not pull the
simulator in via the scenario and fleet modules.
"""
