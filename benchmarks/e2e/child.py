"""One repeat of an end-to-end benchmark workload, in a fresh interpreter.

``run.py`` launches this script once per repeat and reads
the JSON report it leaves behind.  The repeat calls
``repro.__main__.main(argv)`` in-process, which is the CLI path users
take, and observes the program at one point only: a wrapper around
``ParallelCampaignRunner.run`` records the time of the first entry and
keeps every returned ``RunOutcome``.

Modes:

``run``
    the measured repeat;
``probe``
    stops at the first ``ParallelCampaignRunner.run`` entry, so
    ``run.py`` can sample set-up time without paying for the run phase;
``trace``
    additionally wraps the layer boundaries listed in :data:`LAYERS`
    and reports each layer's self time and call count.  Class
    attributes and module globals are patched *before* ``main`` builds
    anything: the cluster captures bound methods at construction, and
    several functions are imported by name into other modules.

Usage::

    python benchmarks/e2e/child.py REPORT.json {run,probe,trace} -- ARGV...
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
sys.path.insert(0, str(SRC))

#: The ONA classes of the standard battery, one layer each.
ONA_CLASSES = (
    "MassiveTransientOna",
    "ConnectorOna",
    "WearoutOna",
    "CorrelatedJobFailureOna",
    "SingleJobOna",
    "IsolatedTransientOna",
    "ConfigurationOna",
    "TimingOna",
)

#: (layer, module, attributes) — every attribute named is wrapped and its
#: time booked to the layer.  ``Class.method`` patches the class;
#: a bare name patches the module function and every ``repro`` module
#: that imported it by name.
LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    *(
        (f"core.ona.{cls}", "repro.core.ona", (f"{cls}.evaluate",))
        for cls in ONA_CLASSES
    ),
    (
        "core.assessment",
        "repro.core.assessment",
        ("DiagnosticAssessment.submit", "DiagnosticAssessment.run_epoch"),
    ),
    (
        "core.classification",
        "repro.core.classification",
        (
            "Classifier.ingest",
            "Classifier.observe_component_epoch",
            "Classifier.verdicts",
        ),
    ),
    ("core.trust", "repro.core.trust", ("TrustBank.update",)),
    ("sim", "repro.sim.engine", ("Simulator.run_until",)),
    ("components.cluster", "repro.components.cluster", ("Cluster._on_slot",)),
    (
        "components.delivery",
        "repro.components.cluster",
        ("Cluster._process_deliveries", "Cluster._deliver_payload"),
    ),
    (
        "components.component",
        "repro.components.component",
        ("Component.build_frame",),
    ),
    ("components.job", "repro.components.job", ("Job.dispatch",)),
    ("tta.network", "repro.tta.network", ("Bus.broadcast",)),
    ("tta.tdma", "repro.tta.tdma", ("TdmaSchedule.slot_at",)),
    ("tta.guardian", "repro.tta.guardian", ("BusGuardian.check",)),
    ("tta.membership", "repro.tta.membership", ("MembershipService.observe",)),
    (
        "diagnosis.detector",
        "repro.diagnosis.detector",
        ("DetectionService._on_slot",),
    ),
    (
        "diagnosis.dissemination",
        "repro.diagnosis.dissemination",
        (
            "DiagnosticNetwork.deposit",
            "DiagnosticNetwork._contribute",
            "DiagnosticNetwork._consume",
        ),
    ),
    ("presets", "repro.presets", ("figure10_cluster",)),
    (
        "diagnosis.service",
        "repro.diagnosis.diag_das",
        ("DiagnosticService.__init__",),
    ),
    ("faults.sampling", "repro.faults.campaign", ("RandomCampaign.run",)),
    ("analysis.scoring", "repro.analysis.scenarios", ("predicted_class_for",)),
    ("runtime", "repro.runtime.runner", ("ParallelCampaignRunner.run",)),
    (
        "runtime.checkpoint",
        "repro.runtime.checkpoint",
        ("CheckpointLedger.open", "CheckpointLedger.append_chunk"),
    ),
    ("storage", "repro.storage.writer", ("write_run",)),
    ("obs.live", "repro.obs.live", ("LiveEventBus.emit",)),
    (
        "replay",
        "repro.replay.engine",
        ("affected_replicas", "whatif"),
    ),
    ("replay", "repro.replay.baseline", ("load_baseline",)),
    ("faults.reduce", "repro.faults.campaign", ("summarize_campaign",)),
    ("cli", "repro.__main__", ("main",)),
)


def layer_names() -> list[str]:
    """Every layer, in table order, without duplicates."""
    return list(dict.fromkeys(layer for layer, _module, _attrs in LAYERS))


class _SetupDone(Exception):
    """Raised at the first runner entry of a ``probe`` repeat."""


class Tracer:
    """Self time and call counts per layer, from wrappers at its boundaries.

    A layer's self time is the duration of its wrapped calls minus the
    part covered by nested wrapped calls.  ``stack[0]`` is a sentinel
    that collects the duration of outermost calls; the stack must be back
    to that sentinel alone when the program exits.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.stack: list[list[float]] = [[0.0]]
        self.missing: list[str] = []
        self.submitted = 0
        self.accepted = 0
        self.events_replayed = 0
        self.events_full = 0

    def wrap(self, layer: str, fn):
        stat = self.stats.setdefault(layer, [0.0, 0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                stat[0] += duration - frame[0]
                stat[1] += 1
                stack[-1][0] += duration

        return traced

    def _counted(self, qualname: str, fn):
        """Hooks for the derived ratios, read from return values."""
        if qualname == "DiagnosticAssessment.submit":

            def submit(assessment, symptoms):
                before = assessment.symptoms_total
                accepted = fn(assessment, symptoms)
                self.submitted += assessment.symptoms_total - before
                self.accepted += accepted
                return accepted

            return submit
        if qualname == "whatif":

            def whatif(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.events_replayed += result.replayed_events
                self.events_full += result.baseline_events
                return result

            return whatif
        return fn

    def install(self) -> None:
        for layer, module_name, attrs in LAYERS:
            self.stats.setdefault(layer, [0.0, 0])
            module = importlib.import_module(module_name)
            for qualname in attrs:
                owner_name, _, name = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                raw = vars(owner).get(name)
                if raw is None:
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self.wrap(layer, self._counted(qualname, raw.__func__))
                    )
                else:
                    wrapped = self.wrap(layer, self._counted(qualname, raw))
                setattr(owner, name, wrapped)
                if not owner_name:
                    # Rebind copies imported by name elsewhere.
                    for other in list(sys.modules.values()):
                        if (
                            getattr(other, "__name__", "").startswith("repro")
                            and vars(other).get(name) is raw
                        ):
                            setattr(other, name, wrapped)

    def report(self) -> dict:
        return {
            "layers": {k: [v[0], v[1]] for k, v in self.stats.items()},
            "stack_depth": len(self.stack) - 1,
            "missing": self.missing,
            "symptoms_submitted": self.submitted,
            "symptoms_accepted": self.accepted,
            "events_replayed": self.events_replayed,
            "events_full": self.events_full,
        }


def replica_fingerprint(value) -> str:
    """Short digest of everything one replica outcome reports."""
    text = repr(
        (
            value.index,
            value.plan_events,
            value.faults_attributed,
            value.verdicts_emitted,
            value.events_simulated,
            value.alpha_state,
            value.trust_state,
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] not in ("run", "probe", "trace") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    report_path, mode, cli_argv = argv[0], argv[1], argv[3:]
    report: dict = {
        "t_entry": None,
        "fresh_replicas": 0,
        "events": 0,
        "retries": 0,
        "replicas_failed": 0,
        "replica_s": [],
        "fingerprints": [],
        "summary": None,
    }
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()

    import repro.__main__ as cli
    from repro.runtime.runner import ParallelCampaignRunner

    traced_run = ParallelCampaignRunner.run

    def observed_run(self, specs, root_seed=0, **kwargs):
        if report["t_entry"] is None:
            report["t_entry"] = time.monotonic()
            if mode == "probe":
                raise _SetupDone
        outcome = traced_run(self, specs, root_seed, **kwargs)
        spliced = kwargs.get("preloaded") or {}
        fresh = [r for r in outcome.results if r.index not in spliced]
        report["fresh_replicas"] += len(fresh)
        report["events"] += outcome.metrics.events_simulated
        report["retries"] += outcome.metrics.retries
        report["replicas_failed"] += outcome.metrics.replicas_failed
        report["replica_s"].extend(r.elapsed_s for r in fresh)
        report["fingerprints"].extend(
            replica_fingerprint(r.value) for r in fresh
        )
        value = outcome.value
        if hasattr(value, "plan_digest"):
            report["summary"] = {
                "plan_digest": value.plan_digest,
                "events_simulated": value.events_simulated,
                "faults_injected": value.faults_injected,
                "faults_attributed": value.faults_attributed,
                "attribution_accuracy": value.attribution_accuracy,
            }
        return outcome

    ParallelCampaignRunner.run = observed_run
    report["t_main_enter"] = time.monotonic()
    try:
        report["rc"] = cli.main(cli_argv)
    except _SetupDone:
        report["rc"] = 0
    report["t_main_exit"] = time.monotonic()
    sys.stdout.flush()
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["trace"] = tracer.report()
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
