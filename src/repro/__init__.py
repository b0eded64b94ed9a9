"""repro — reproduction of the DECOS maintenance-oriented fault model.

Peti, Obermaisser, Ademaj, Kopetz: "A Maintenance-Oriented Fault Model for
the DECOS Integrated Diagnostic Architecture", IPPS 2005.

Public API layout:

* :mod:`repro.core` — the maintenance-oriented fault model, ONAs,
  alpha-count, trust levels, classification, maintenance actions, fleet
  analysis (the paper's contribution);
* :mod:`repro.tta` — time-triggered core architecture substrate;
* :mod:`repro.components` — DECOS components, jobs, DASs, virtual networks;
* :mod:`repro.faults` — ground-truth-labelled fault injection;
* :mod:`repro.reliability` — bathtub/Weibull/FIT/Pecht models;
* :mod:`repro.diagnosis` — detection, dissemination, diagnostic DAS, OBD
  baseline;
* :mod:`repro.analysis` — scoring and report rendering;
* :mod:`repro.presets` — ready-made reference clusters (incl. Fig. 10);
* :mod:`repro.runtime` — parallel campaign runner with deterministic
  per-replica seed streams (serial-equivalent results);
* :mod:`repro.storage` — campaign result store (each run's closed
  ledger) + offline query layer (never instantiates the simulator).

The top-level names below resolve lazily (PEP 562) so that sim-free
entry points — ``repro query``, :mod:`repro.storage` — never pay for
(or depend on) the simulator import chain.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

__version__ = "1.0.0"

#: Lazily-resolved public names → defining module.
_EXPORTS = {
    "Cluster": "repro.components.cluster",
    "ClusterSpec": "repro.components.cluster",
    "FaultClass": "repro.core.fault_model",
    "FaultDescriptor": "repro.core.fault_model",
    "FruKind": "repro.core.fault_model",
    "FruRef": "repro.core.fault_model",
    "MaintenanceAction": "repro.core.maintenance",
    "DiagnosticService": "repro.diagnosis.diag_das",
    "FaultInjector": "repro.faults.injector",
    "ParallelCampaignRunner": "repro.runtime.runner",
    "ReplicaTask": "repro.runtime.runner",
    "RunMetrics": "repro.runtime.metrics",
    "avionics_cluster": "repro.presets",
    "figure10_cluster": "repro.presets",
    "gateway_cluster": "repro.presets",
    "small_cluster": "repro.presets",
}

__all__ = [*_EXPORTS, "__version__"]

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.components.cluster import Cluster, ClusterSpec
    from repro.core.fault_model import FaultClass, FaultDescriptor, FruKind, FruRef
    from repro.core.maintenance import MaintenanceAction
    from repro.diagnosis.diag_das import DiagnosticService
    from repro.faults.injector import FaultInjector
    from repro.presets import (
        avionics_cluster,
        figure10_cluster,
        gateway_cluster,
        small_cluster,
    )
    from repro.runtime.metrics import RunMetrics
    from repro.runtime.runner import ParallelCampaignRunner, ReplicaTask


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(importlib.import_module(module), name)
    try:
        return importlib.import_module(f"repro.{name}")
    except ModuleNotFoundError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
