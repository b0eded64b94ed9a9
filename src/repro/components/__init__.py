"""DECOS component model: components, partitions, jobs, DASs, VNs."""
