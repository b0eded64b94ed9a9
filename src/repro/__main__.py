"""Command-line front door: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the quickstart scenario (build the Fig. 10 cluster, inject two
    faults, print the health reports).
``campaign``
    Run the full scenario catalogue and print the classification score and
    the NFF comparison against the OBD baseline.
``mc``
    Run N independent stochastic fault campaigns (Monte-Carlo) through
    the parallel runner and print the attribution summary.
``fleet``
    Simulate a diagnosed vehicle fleet end-to-end and print the OEM-side
    correlation.
``scenario NAME``
    Run one named scenario from the catalogue (see ``list``).
``list``
    List the scenario catalogue.
``bathtub``
    Print the Fig. 7 bathtub curve as an ASCII series.

``resume PATH``
    Continue an interrupted campaign from its JSONL ledger: a
    ``--checkpoint`` file, a killed ``--store`` run's in-flight
    ``run-*.jsonl`` or a store part (resumed in place).  The ledger
    header records the original argv; ``resume`` re-parses it, applies
    every global flag typed to ``resume`` itself (``--workers``,
    ``--store``, ``--metrics-json``, ...), loads the already-completed
    replicas and executes the rest — the final aggregate is
    bit-identical to an uninterrupted run.  The ledger's identity check
    refuses flags that would change the campaign (``--seed``; for ``mc``
    also ``--trace``/``--provenance``).

``query [WHAT] --store DIR``
    Offline analytics over a campaign store written with
    ``--store`` (NFF ratio, per-mechanism confusion, accuracy drift
    across campaigns, provenance stage-latency percentiles) — reads the
    stored tables only and never instantiates the simulator.

``monitor PATH``
    Render live campaign telemetry from a ``--live-log`` sidecar:
    progress %, ETA, per-worker throughput, retries, stall/straggler
    flags.  ``--follow`` tails the log, ``--json`` emits the structured
    summary, ``--serve PORT`` answers one OpenMetrics scrape from the
    ``PATH.prom`` snapshot.  Tolerates a truncated tail (a killed run's
    log still renders) and never instantiates the simulator.

``obs report PATH``
    Validate a recorded JSONL obs trace and render its summary
    (``--json`` for the machine-readable form).
``obs export --format chrome PATH``
    Convert a trace to Chrome-trace/Perfetto JSON (causal flow arrows
    from schema-v2 provenance lineage).
``explain PATH [--fault ID | --fru NAME] [--json]``
    Reconstruct the causal chains of a provenance-enabled trace: injected
    fault -> symptoms -> ONA -> alpha-count -> trust -> maintenance
    action, sim-time annotated with per-stage latency deltas.

Campaign-style commands accept ``--workers N`` to fan replicas out over
the spawn-safe process pool (bit-identical results to ``--workers 1``;
see ``docs/parallel_runtime.md``) and ``--metrics-json PATH`` to write
the structured run-metrics record.  ``--checkpoint PATH`` makes the run
durable (chunk-granular JSONL ledger, resumable with ``repro resume``);
``--salvage`` degrades gracefully on retry exhaustion — the partial
aggregate is returned with an explicit completeness report instead of
the run stalling in the serial fallback.  ``--store DIR`` publishes
the run's closed ledger into the campaign store as one part file (with
``--campaign-id`` as the partition label; see ``docs/storage.md``).
``--live-log PATH`` streams in-flight lifecycle telemetry — progress,
worker heartbeats, stall/straggler flags — to a JSONL sidecar watchable
with ``repro monitor`` (plus an OpenMetrics ``PATH.prom`` snapshot);
it never affects the simulation or any canonical digest.

Observability flags (``docs/observability.md``): ``--trace PATH`` writes
a schema-v2 JSONL obs trace of the run (for ``mc`` the parent aggregates
replica-tagged records in index order and appends the merged counter
totals; ``fleet``/``campaign`` trace with ``--workers 1`` only);
``--profile`` prints the calls and self time per module of this
process; ``--provenance`` threads causal lineage through the records
(and, for ``mc``, prints the per-stage latency breakdown per fault
class).  All global flags are accepted both before and after the
subcommand.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from repro.analysis.reports import render_series, render_table


def _write_mc_trace(args: argparse.Namespace, outcome, summary) -> None:
    """Write the aggregated mc trace.

    Replica trace records arrive in-memory through the reduce (tagged
    with their replica index); the parent concatenates them in index
    order, appends the merged counter totals as a ``trace.counters``
    meta record and writes one schema-v2 JSONL file.
    """
    from repro.obs import write_jsonl
    from repro.obs.report import counters_record

    records = [
        record
        for result in outcome.results
        for record in result.value.obs_trace
    ]
    if summary.obs_counters is not None:
        records.append(counters_record(summary.obs_counters))
    path = write_jsonl(
        args.trace,
        records,
        header_attrs={
            "command": "mc",
            "root_seed": args.seed,
            "replicas": summary.replicas,
            "workers": args.workers,
        },
    )
    print(f"[obs trace written to {path} ({len(records)} records)]")


def _emit_metrics(args: argparse.Namespace, metrics) -> None:
    """Print the throughput line; write the JSON record if requested."""
    if metrics is None:
        return
    print(
        f"[{metrics.replicas} replicas, workers={metrics.workers}: "
        f"{metrics.wall_time_s:.2f} s wall, "
        f"{metrics.events_simulated:,} events, "
        f"{metrics.events_per_second:,.0f} events/s]"
    )
    if metrics.replicas_failed:
        print(
            f"[warning: {metrics.replicas_failed} replica(s) failed "
            "after retry exhaustion — partial aggregate]"
        )
    if metrics.leaked_worker_pids:
        print(
            "[warning: worker processes still alive after the bounded "
            f"shutdown wait: {list(metrics.leaked_worker_pids)}]"
        )
    if getattr(args, "metrics_json", None):
        path = metrics.write_json(args.metrics_json)
        print(f"[metrics written to {path}]")


def _emit_completeness(outcome) -> None:
    """Resume provenance + explicit salvage report for runner outcomes."""
    metrics = outcome.metrics
    if metrics.replicas_resumed:
        print(
            f"[resumed: {metrics.replicas_resumed} replica(s) loaded "
            f"from the checkpoint ledger, "
            f"{metrics.replicas - metrics.replicas_resumed} executed]"
        )
    if outcome.failures:
        report = outcome.completeness()
        print(
            f"[PARTIAL RESULT: {report['replicas_completed']}/"
            f"{report['replicas_expected']} replicas completed; "
            f"failed indices: {report['failed_indices']}]"
        )
        for line in report["failures"]:
            print(f"  - {line}")


def _run_options(args: argparse.Namespace):
    """The :class:`~repro.runtime.runner.RunOptions` of one command.

    Built once per run from the parsed namespace.  Its invocation record
    serves the ledger header, the store part header and the live log:
    ``params`` is the namespace minus the command, the checkpoint path
    and private names (``repro whatif`` rebuilds an ``mc`` spec from
    it), and ``argv`` is what ``repro resume`` re-parses.
    """
    from repro.errors import ConfigurationError
    from repro.runtime.runner import RunOptions

    _refuse_shared_paths(args)
    params = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "checkpoint") and not key.startswith("_")
    }
    try:
        return RunOptions(
            workers=args.workers,
            on_exhausted="salvage" if args.salvage else "serial",
            checkpoint=args.checkpoint,
            resume=args._resume,
            store=args.store,
            campaign_id=args.campaign_id,
            live_log=args.live_log,
            invocation={
                "command": args.command,
                "params": params,
                "argv": args._argv,
            },
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"store setup failed: {exc}") from None


def _refuse_shared_paths(args: argparse.Namespace) -> None:
    """Refuse two outputs of one run at one path, before any file exists:
    one would overwrite or corrupt the other."""
    from pathlib import Path

    from repro.errors import ConfigurationError

    prom = args.live_log and args.live_log + ".prom"
    seen: dict[Path, str] = {}
    for label, value in (
        ("--checkpoint", args.checkpoint),
        ("--store", args.store),
        ("--live-log", args.live_log),
        ("--live-log PATH.prom", prom),
        ("--metrics-json", args.metrics_json),
        ("--trace", args.trace),
    ):
        if not value:
            continue
        path = Path(value).resolve()
        if path in seen:
            raise ConfigurationError(
                f"{seen[path]} and {label} both name {path}; give each "
                "output a path of its own"
            )
        seen[path] = label


def _emit_store(args: argparse.Namespace) -> None:
    if getattr(args, "store", None):
        print(
            f"[store part published under {args.store} "
            f"(campaign {args.campaign_id!r}); inspect with "
            "`python -m repro query report --store "
            f"{args.store}`]"
        )


def cmd_demo(args: argparse.Namespace) -> int:
    from repro import DiagnosticService, FaultInjector, figure10_cluster
    from repro.units import ms, seconds

    parts = figure10_cluster(seed=args.seed)
    cluster = parts.cluster
    diagnosis = DiagnosticService(cluster, collector="comp5")
    diagnosis.add_tmr_monitor(parts.tmr_monitor)
    injector = FaultInjector(cluster)
    injector.inject_permanent_internal("comp2", at_us=ms(500))
    injector.inject_software_bohrbug("A2", at_us=seconds(1))
    cluster.run(seconds(2))
    rows = [
        [
            str(r.fru),
            f"{r.trust:.2f}",
            r.verdict.fault_class.value if r.verdict else "-",
            r.recommendation.action.value if r.recommendation else "-",
        ]
        for r in diagnosis.health_reports()
    ]
    print(
        render_table(
            ["FRU", "trust", "class", "action"],
            rows,
            title="Health reports after 2 s with two injected faults",
        )
    )
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.analysis.scenarios import CATALOGUE, run_campaign

    options = _run_options(args)
    print(
        f"running {len(CATALOGUE)} scenarios "
        f"(workers={args.workers}) ..."
    )
    result = run_campaign(seeds=(args.seed,), options=options)
    matrix = result.score.matrix
    print(
        render_table(
            ["true \\ diagnosed"] + matrix.labels(),
            matrix.rows(),
            title="Classification confusion matrix",
        )
    )
    print(
        render_table(
            ["strategy", "removals", "NFF", "ratio", "wasted $"],
            [
                [
                    "integrated",
                    result.integrated_cost.removals,
                    result.integrated_cost.nff_removals,
                    f"{result.integrated_cost.nff_ratio:.0%}",
                    f"{result.integrated_cost.wasted_cost_usd:,.0f}",
                ],
                [
                    "OBD baseline",
                    result.obd_cost.removals,
                    result.obd_cost.nff_removals,
                    f"{result.obd_cost.nff_ratio:.0%}",
                    f"{result.obd_cost.wasted_cost_usd:,.0f}",
                ],
            ],
            title="NFF economics",
        )
    )
    print(f"accuracy: {result.score.accuracy:.0%}")
    _emit_store(args)
    _emit_metrics(args, result.metrics)
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    from repro.faults.campaign import CampaignReplicaSpec
    from repro.runtime.workloads import run_random_campaigns

    options = _run_options(args)
    if args.replicas <= 0:
        print("0 replicas — nothing to run, nothing to aggregate")
        return 0
    spec = CampaignReplicaSpec.from_flags(vars(args))
    print(
        f"running {args.replicas} stochastic campaigns "
        f"(workers={args.workers}, horizon={args.horizon_ms} ms) ..."
    )
    outcome = run_random_campaigns(
        args.replicas, root_seed=args.seed, spec=spec, options=options
    )
    summary = outcome.value
    if not outcome.results:
        _emit_completeness(outcome)
        print("no replicas completed — no aggregate to report")
        return 1
    if spec.obs_trace:
        _write_mc_trace(args, outcome, summary)
    print(
        render_table(
            ["mechanism", "injected", "attributed", "accuracy"],
            [
                [
                    mechanism,
                    count,
                    dict(summary.attributed_by_mechanism).get(mechanism, 0),
                    f"{accuracy:.0%}",
                ]
                for (mechanism, count), accuracy in zip(
                    summary.injected_by_mechanism,
                    summary.mechanism_accuracy().values(),
                )
            ],
            title=(
                f"Monte-Carlo campaign: {summary.faults_injected} faults "
                f"over {summary.replicas} replicas"
            ),
        )
    )
    print(
        f"attribution accuracy: {summary.attribution_accuracy:.0%}  "
        f"(plan digest {summary.plan_digest[:16]}...)"
    )
    if args.provenance and summary.obs_counters is not None:
        _print_mc_provenance(summary.obs_counters)
    _emit_completeness(outcome)
    _emit_store(args)
    _emit_metrics(args, outcome.metrics)
    return 0


def _print_mc_provenance(obs_counters: dict) -> None:
    """Render the campaign-scale provenance aggregates.

    Per fault class and consecutive stage pair, the merged
    ``provenance.stage_latency_us`` histogram yields p50/p90 (the rows
    ``repro query latency`` computes from a store); the
    ``provenance.chains`` counters give the share of injected faults
    whose causal chain made it all the way to the maintenance leaf.
    """
    from repro.storage.query import stage_latency_rows

    rows = [
        [r["cls"], r["stage"], r["count"]]
        + [f"{r[q]:,.0f}" for q in ("p50_us", "p90_us")]
        for r in stage_latency_rows(obs_counters.get("histograms", {}))
    ]
    if rows:
        print(
            render_table(
                ["class", "stage", "n", "p50 [us]", "p90 [us]"],
                rows,
                title="Provenance stage latencies (merged over replicas)",
            )
        )
    chains = {
        key: value
        for key, value in obs_counters.get("counters", {}).items()
        if key.startswith("provenance.chains{")
    }
    if chains:
        total = int(sum(chains.values()))
        complete = int(
            sum(
                value
                for key, value in chains.items()
                if "terminal=maintenance" in key
            )
        )
        print(
            f"causal chains: {total} injected faults, {complete} complete "
            f"to a maintenance action ({complete / total:.0%})"
        )


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.analysis.fleet_sim import simulate_diagnosed_fleet
    from repro.core.fleet import analyse_fleet
    from repro.units import ms

    options = _run_options(args)
    print(
        f"simulating {args.vehicles} vehicles "
        f"(workers={args.workers}, drive={args.drive_ms} ms) ..."
    )
    result = simulate_diagnosed_fleet(
        args.vehicles,
        seed=args.seed,
        fault_probability=args.fault_prob,
        drive_duration_us=ms(args.drive_ms),
        options=options,
    )
    totals = result.report.totals()
    print(
        render_table(
            ["job type", "field reports"],
            [
                [job, int(count)]
                for job, count in zip(result.report.job_types, totals)
            ],
            title=(
                f"Fleet of {result.vehicles_simulated}: "
                f"{result.vehicles_with_fault} with latent fault, "
                f"{result.vehicles_detected} detected on-board "
                f"({result.detection_rate:.0%})"
            ),
        )
    )
    if totals.sum():
        analysis = analyse_fleet(result.report)
        print(
            "OEM correlation identifies: "
            + ", ".join(analysis.identified_hot)
            + f"  (ground truth: {', '.join(sorted(result.report.hot_types))})"
        )
    _emit_store(args)
    _emit_metrics(args, result.metrics)
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.analysis.scenarios import CATALOGUE, run_scenario

    by_name = {s.name: s for s in CATALOGUE}
    if args.name not in by_name:
        print(f"unknown scenario {args.name!r}; try: python -m repro list")
        return 2
    run = run_scenario(by_name[args.name], seed=args.seed)
    print(f"scenario {args.name}: injected {run.descriptor.fault_class.value}")
    for verdict in run.verdicts:
        print(
            f"  verdict: {verdict.fru} -> {verdict.fault_class.value} "
            f"(confidence {verdict.confidence:.2f}, "
            f"{verdict.persistence.value})"
        )
    predicted = run.predicted_class
    print(
        "  result: "
        + (
            "correct"
            if predicted is run.scenario.expected_class
            else f"expected {run.scenario.expected_class.value}, got {predicted}"
        )
    )
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    from repro.analysis.scenarios import CATALOGUE

    print(
        render_table(
            ["scenario", "true class", "duration [s]"],
            [
                [s.name, s.expected_class.value, s.duration_us / 1e6]
                for s in CATALOGUE
            ],
            title="Scenario catalogue",
        )
    )
    return 0


def cmd_bathtub(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.reliability.bathtub import BathtubModel
    from repro.units import HOURS_PER_YEAR

    model = BathtubModel()
    t, h = model.curve(30 * HOURS_PER_YEAR, points=2_000)
    idx = np.unique(np.logspace(0, np.log10(len(t) - 1), 16).astype(int))
    print(
        render_series(
            [f"{t[i] / HOURS_PER_YEAR:.2f}y" for i in idx],
            [float(h[i]) for i in idx],
            x_label="age",
            y_label="h(t) [1/h]",
            title="Bathtub curve (Fig. 7)",
            log_y=True,
        )
    )
    return 0


def _read_trace(path: str) -> list[dict] | None:
    """The records of a valid obs trace, else ``None`` (and a message)."""
    from repro.errors import ConfigurationError
    from repro.obs.tracer import read_jsonl, validate_trace

    try:
        records = read_jsonl(path)
        validate_trace(records)
    except (ConfigurationError, OSError) as exc:
        print(f"invalid obs trace {path}: {exc}")
        return None
    return records


def cmd_obs(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError

    if args.obs_command == "report" and not getattr(args, "json", False):
        from repro.obs.report import render_report

        try:
            print(render_report(args.path))
        except (ConfigurationError, OSError) as exc:
            print(f"invalid obs trace {args.path}: {exc}")
            return 1
        return 0
    if args.obs_command not in ("report", "export"):
        print("usage: python -m repro obs {report,export} PATH")
        return 2
    records = _read_trace(args.path)
    if records is None:
        return 1
    if args.obs_command == "report":
        import json

        from repro.obs.report import summarize_trace

        print(json.dumps(summarize_trace(records), sort_keys=True))
        return 0
    from repro.obs.export import write_chrome_trace

    output = args.output or f"{args.path}.chrome.json"
    path = write_chrome_trace(records, output)
    print(f"[chrome trace written to {path}]")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    import json

    from repro.obs.explain import explain, render_explain

    records = _read_trace(args.path)
    if records is None:
        return 1
    if args.json:
        result = explain(records, fault=args.fault, fru=args.fru)
        print(json.dumps(result, sort_keys=True))
    else:
        print(render_explain(records, fault=args.fault, fru=args.fru))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Offline analytics over a campaign store — never touches the sim."""
    import json

    from repro.errors import ConfigurationError
    from repro.storage import query as store_query
    from repro.storage.store import CampaignStore

    if not args.store:
        print(
            "query needs a store: python -m repro query "
            f"{args.what} --store DIR",
            file=sys.stderr,
        )
        return 2
    try:
        store = CampaignStore(args.store)
        if args.what == "scan":
            result: object = store.scan_report()
        elif args.what == "campaigns":
            result = store_query.campaign_summaries(store, args.campaign)
        elif args.what == "nff":
            result = store_query.nff_ratio(store, args.campaign)
        elif args.what == "confusion":
            result = store_query.confusion(store, args.campaign)
        elif args.what == "drift":
            result = store_query.accuracy_drift(store)
        elif args.what == "latency":
            result = store_query.stage_latency(store, args.campaign)
        else:  # report
            print(
                store_query.render_query_report(store, args.campaign),
                end="",
            )
            return 0
    except ConfigurationError as exc:
        print(f"store query failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """Render live campaign telemetry — never touches the sim.

    Reads only the ``--live-log`` JSONL sidecar (through the tolerant
    JSONL reader the checkpoint ledger uses, :mod:`repro.jsonl`) and the
    ``PATH.prom`` OpenMetrics snapshot; the one-shot report is a pure
    function of the log bytes, which the committed golden in
    ``tests/data/`` pins byte for byte.
    """
    import json
    import time

    from repro.obs.live import monitor_once, serve_metrics_once

    if args.serve is not None:

        class _Announce:
            port = 0

            def set(self) -> None:
                print(
                    "[serving OpenMetrics on "
                    f"http://127.0.0.1:{self.port}/ — one scrape]",
                    flush=True,
                )

        try:
            serve_metrics_once(args.path, port=args.serve, started=_Announce())
        except OSError as exc:
            print(f"cannot serve {args.path}: {exc}", file=sys.stderr)
            return 1
        return 0
    try:
        summary, report = monitor_once(args.path)
    except OSError as exc:
        print(f"cannot read live log {args.path}: {exc}", file=sys.stderr)
        return 1
    if args.follow:
        last = None
        try:
            while True:
                summary, report = monitor_once(args.path)
                if report != last:
                    print(report, end="", flush=True)
                    last = report
                if summary["finished"]:
                    return 0
                time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(report, end="")
    return 0


def cmd_whatif(args: argparse.Namespace) -> int:
    """Counterfactual replay of a stored campaign (docs/replay.md)."""
    import json

    from repro.errors import ConfigurationError
    from repro.replay import (
        load_baseline,
        render_scan_report,
        render_whatif_report,
        scan,
        scan_to_dict,
        whatif,
        whatif_to_dict,
    )

    without_faults = tuple(args.without_fault or ())
    without_onas = tuple(args.without_ona or ())
    if args.scan is None and not without_faults and not without_onas:
        print(
            "whatif needs a rewrite: give --without-fault SELECTOR and/or "
            "--without-ona CLASS, or sweep with --scan {faults,onas}",
            file=sys.stderr,
        )
        return 2
    if args.scan is not None and (without_faults or without_onas):
        print(
            "--scan sweeps every cause on its own; drop the explicit "
            "--without-fault/--without-ona rewrites",
            file=sys.stderr,
        )
        return 2
    try:
        baseline = load_baseline(args.baseline, campaign=args.campaign)
        if args.scan is not None:
            result = scan(baseline, mode=args.scan, workers=args.workers)
            to_dict, render = scan_to_dict, render_scan_report
        else:
            result = whatif(
                baseline,
                suppress_faults=without_faults,
                disable_onas=without_onas,
                workers=args.workers,
            )
            to_dict, render = whatif_to_dict, render_whatif_report
        if args.json:
            print(json.dumps(to_dict(result), sort_keys=True))
        else:
            print(render(result), end="")
    except ConfigurationError as exc:
        print(f"whatif failed: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    """Re-run the ledger's recorded argv plus the global flags typed here.

    The ledger is a ``--checkpoint`` file, a killed ``--store`` run's
    in-flight file or a store part, which is resumed in place.  Every
    global flag typed before or after ``resume`` wins, whatever its
    value; ``--checkpoint`` is forced to the ledger.  Flags that would
    change the campaign are refused by the ledger's identity check
    (:meth:`~repro.runtime.checkpoint.CheckpointLedger.open`): ``--seed``
    changes the root seed, and for ``mc`` ``--trace`` and
    ``--provenance`` change the spec digest.
    """
    from repro.errors import ConfigurationError
    from repro.storage.ledger import read_ledger

    meta = read_ledger(args.path, tolerant=True).header
    where = f"checkpoint ledger {args.path}"
    command, argv = meta.get("command"), meta.get("argv")
    if command not in ("mc", "fleet", "campaign"):
        raise ConfigurationError(
            f"{where} does not record a resumable command (got "
            f"{command!r}); write it with "
            "`python -m repro <mc|fleet|campaign> --checkpoint PATH`"
        )
    if argv is None:
        raise ConfigurationError(
            f"{where} predates argv replay: its header records no argv. "
            "`repro whatif` still reads it; to resume, re-run the campaign"
        )
    if not isinstance(argv, list) or not all(
        isinstance(token, str) for token in argv
    ):
        raise ConfigurationError(
            f"{where} records argv {argv!r}, not a list of strings"
        )
    try:
        resumed = _build_parser().parse_args(argv)
    except SystemExit:
        raise ConfigurationError(
            f"{where} records an argv the parser rejects: {argv!r}"
        ) from None
    if resumed.command != command:
        raise ConfigurationError(
            f"{where} records command {command!r}, but its argv runs "
            f"{resumed.command!r}"
        )
    vars(resumed).update(
        _typed_global_options(args._argv),
        checkpoint=args.path,
        _argv=argv,
        _resume=True,
    )
    print(
        f"resuming {command} campaign from {args.path} "
        f"(seed {resumed.seed}, workers={resumed.workers}) ..."
    )
    return _dispatch(resumed)


def _ranged(cast, accept, requirement: str):
    """An argparse ``type``: ``cast(text)`` when ``accept`` holds for the
    value, else a usage error stating ``requirement``.  NaN fails every
    comparison, so a range check refuses it too."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {cast.__name__} value: {text!r}"
            ) from None
        if not accept(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text}"
            )
        return value

    return parse


def _int_at_least(minimum: int):
    return _ranged(int, lambda v: v >= minimum, f">= {minimum}")


def _worker_count(text: str) -> int:
    """``--workers`` value: a worker count the runner accepts."""
    from repro.runtime.runner import MAX_WORKERS

    return _ranged(
        int, lambda v: 1 <= v <= MAX_WORKERS, f"between 1 and {MAX_WORKERS}"
    )(text)


def _fault_count(text: str) -> float:
    """``--expected-faults`` value: a mean the sampler can finish."""
    from repro.faults.campaign import MAX_EXPECTED_FAULTS

    return _ranged(
        float,
        lambda v: 0 <= v <= MAX_EXPECTED_FAULTS,
        f"in [0, {MAX_EXPECTED_FAULTS:g}]",
    )(text)


#: ``--fault-prob`` value.
_probability = _ranged(float, lambda v: 0 <= v <= 1, "in [0, 1]")
#: ``monitor --interval``: ``time.sleep`` refuses a negative or NaN
#: period, and 0 would re-render in a busy loop.
_interval = _ranged(
    float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0"
)
#: ``monitor --serve`` port (0 = ephemeral).
_port = _ranged(int, lambda v: 0 <= v <= 65535, "between 0 and 65535")


#: Global options accepted both before and after the subcommand.
_GLOBAL_OPTIONS: list[tuple[tuple[str, ...], dict]] = [
    (("--seed",), {"type": int, "default": 42}),
    (
        ("--workers",),
        {
            "type": _worker_count,
            "default": 1,
            "help": "worker processes for campaign-style commands (default 1)",
        },
    ),
    (
        ("--metrics-json",),
        {
            "metavar": "PATH",
            "default": None,
            "help": "write the structured run-metrics record to PATH",
        },
    ),
    (
        ("--trace",),
        {
            "metavar": "PATH",
            "default": None,
            "help": "write a schema-v2 JSONL obs trace of the run to PATH",
        },
    ),
    (
        ("--profile",),
        {
            "action": "store_true",
            "default": False,
            "help": (
                "run the command under cProfile and print the calls and "
                "self time per repro module of this process"
            ),
        },
    ),
    (
        ("--provenance",),
        {
            "action": "store_true",
            "default": False,
            "help": (
                "thread causal cause_id/parents lineage through the trace "
                "(enables `repro explain`; for mc also prints the "
                "per-stage latency breakdown)"
            ),
        },
    ),
    (
        ("--checkpoint",),
        {
            "metavar": "PATH",
            "default": None,
            "help": (
                "append every completed chunk to a durable JSONL ledger "
                "at PATH; continue an interrupted run with "
                "`python -m repro resume PATH`"
            ),
        },
    ),
    (
        ("--salvage",),
        {
            "action": "store_true",
            "default": False,
            "help": (
                "on retry exhaustion return the partial aggregate with an "
                "explicit completeness report instead of finishing the "
                "survivors serially in the parent"
            ),
        },
    ),
    (
        ("--store",),
        {
            "metavar": "DIR",
            "default": None,
            "help": (
                "keep the run's ledger in the campaign store rooted at "
                "DIR and publish it there as the run's part file when the "
                "run ends (docs/storage.md); query offline with "
                "`python -m repro query ... --store DIR`"
            ),
        },
    ),
    (
        ("--campaign-id",),
        {
            "metavar": "ID",
            "default": "default",
            "help": (
                "store partition label for this run (default 'default'); "
                "distinct ids make cross-campaign queries like accuracy "
                "drift meaningful"
            ),
        },
    ),
    (
        ("--store-format",),
        {
            "choices": ["auto", "json"],
            "default": "auto",
            "help": (
                "accepted for old command lines and selects nothing: a "
                "store part has one format"
            ),
        },
    ),
    (
        ("--live-log",),
        {
            "metavar": "PATH",
            "default": None,
            "help": (
                "stream in-flight lifecycle telemetry (progress, worker "
                "heartbeats, stall/straggler flags) to a schema-versioned "
                "JSONL sidecar at PATH plus an OpenMetrics PATH.prom "
                "snapshot; watch with `python -m repro monitor PATH`"
            ),
        },
    ),
]


def _add_global_options(
    parser: argparse.ArgumentParser, *, suppress: bool
) -> None:
    """Attach the global options; ``suppress`` makes absence a no-op.

    The options are declared on the main parser with their real defaults
    and on every subparser with ``argparse.SUPPRESS`` defaults: a flag
    given after the subcommand overrides the pre-subcommand value, while
    an absent flag leaves it untouched.
    """
    for flags, spec in _GLOBAL_OPTIONS:
        kwargs = dict(spec)
        if suppress:
            kwargs["default"] = argparse.SUPPRESS
        parser.add_argument(*flags, **kwargs)


def _typed_global_options(argv: list[str]) -> dict[str, object]:
    """Exactly the global options typed in ``argv``, with their values.

    A second parse with every default suppressed: an absent flag leaves
    no attribute, so a typed value counts even when it equals the
    default.  Later occurrences win, as in the main parse.
    """
    parser = argparse.ArgumentParser(add_help=False)
    _add_global_options(parser, suppress=True)
    typed, _others = parser.parse_known_args(argv)
    return vars(typed)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DECOS maintenance-oriented fault model reproduction",
    )
    _add_global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command")

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        command = sub.add_parser(name, help=help_text)
        _add_global_options(command, suppress=True)
        return command

    add_command("demo", "quickstart demo")
    add_command("campaign", "full classification campaign")
    mc = add_command(
        "mc", "Monte-Carlo stochastic campaigns via the parallel runner"
    )
    mc.add_argument("--replicas", type=_int_at_least(0), default=20)
    mc.add_argument("--expected-faults", type=_fault_count, default=3.0)
    mc.add_argument("--horizon-ms", type=_int_at_least(1), default=2_000)
    fleet = add_command("fleet", "end-to-end diagnosed fleet")
    fleet.add_argument("--vehicles", type=_int_at_least(1), default=10)
    fleet.add_argument("--fault-prob", type=_probability, default=0.6)
    fleet.add_argument("--drive-ms", type=_int_at_least(1), default=2_000)
    scenario = add_command("scenario", "run one named scenario")
    scenario.add_argument("name")
    add_command("list", "list the scenario catalogue")
    add_command("bathtub", "print the Fig. 7 curve")
    resume_cmd = add_command(
        "resume", "continue an interrupted campaign from its ledger or part"
    )
    resume_cmd.add_argument("path")
    obs_cmd = sub.add_parser("obs", help="observability artefact tools")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command")
    report = obs_sub.add_parser(
        "report", help="validate and summarize a JSONL obs trace"
    )
    _add_global_options(report, suppress=True)
    report.add_argument("path")
    report.add_argument(
        "--json",
        action="store_true",
        help="machine-readable summary instead of the text report",
    )
    export = obs_sub.add_parser(
        "export", help="convert a JSONL obs trace to another format"
    )
    _add_global_options(export, suppress=True)
    export.add_argument("path")
    export.add_argument(
        "--format",
        choices=["chrome"],
        default="chrome",
        help="output format (chrome: Chrome-trace/Perfetto JSON)",
    )
    export.add_argument(
        "-o",
        "--output",
        default=None,
        help="output path (default: PATH.chrome.json)",
    )
    explain_cmd = add_command(
        "explain", "reconstruct causal chains from a provenance trace"
    )
    explain_cmd.add_argument("path")
    explain_cmd.add_argument(
        "--fault", default=None, help="filter to one injected fault id"
    )
    explain_cmd.add_argument(
        "--fru", default=None, help="filter to chains touching one FRU"
    )
    explain_cmd.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    query_cmd = add_command(
        "query", "offline analytics over a campaign store"
    )
    query_cmd.add_argument(
        "what",
        nargs="?",
        default="report",
        choices=[
            "report",
            "campaigns",
            "nff",
            "confusion",
            "drift",
            "latency",
            "scan",
        ],
        help=(
            "aggregate to compute (default: the full byte-stable report); "
            "'scan' runs the tolerant integrity scan"
        ),
    )
    query_cmd.add_argument(
        "--campaign",
        default=None,
        help="restrict to one campaign id (drift always spans all)",
    )
    monitor_cmd = add_command(
        "monitor", "render live campaign telemetry from a --live-log sidecar"
    )
    monitor_cmd.add_argument("path")
    monitor_cmd.add_argument(
        "--json",
        action="store_true",
        help="machine-readable summary instead of the text report",
    )
    monitor_cmd.add_argument(
        "--follow",
        action="store_true",
        help="keep re-rendering until the run finishes (or Ctrl-C)",
    )
    monitor_cmd.add_argument(
        "--interval",
        type=_interval,
        default=1.0,
        metavar="SECONDS",
        help="--follow refresh period (default 1.0)",
    )
    monitor_cmd.add_argument(
        "--serve",
        type=_port,
        default=None,
        metavar="PORT",
        help=(
            "answer one OpenMetrics scrape on PORT (0 = ephemeral) from "
            "the PATH.prom snapshot, falling back to gauges derived from "
            "the log"
        ),
    )
    whatif_cmd = add_command(
        "whatif", "counterfactual replay of a stored mc campaign"
    )
    whatif_cmd.add_argument(
        "baseline",
        help=(
            "campaign baseline: the checkpoint ledger file or the store "
            "directory of an mc run (any obs flags)"
        ),
    )
    whatif_cmd.add_argument(
        "--without-fault",
        action="append",
        metavar="SELECTOR",
        help=(
            "suppress matching fault injections and replay "
            "([rN:]mechanism[@target[@at_us]]; repeatable)"
        ),
    )
    whatif_cmd.add_argument(
        "--without-ona",
        action="append",
        metavar="CLASS",
        help="disable one ONA assertion class and replay (repeatable)",
    )
    whatif_cmd.add_argument(
        "--scan",
        choices=["faults", "onas"],
        default=None,
        help=(
            "sweep every removable cause of that kind instead, ranking "
            "them by marginal diagnostic value"
        ),
    )
    whatif_cmd.add_argument(
        "--campaign",
        default=None,
        help="store campaign id when the store holds several mc parts",
    )
    whatif_cmd.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    vars(args).update(_argv=argv, _resume=False)
    return _dispatch(args)


#: Commands not traced by ``_run_observed``: ``mc`` merges per-replica
#: records through the reduce, and ``resume`` traces the command it
#: re-dispatches.
_OWN_TRACE = ("mc", "resume")

_COMMANDS = {
    "demo": cmd_demo,
    "campaign": cmd_campaign,
    "mc": cmd_mc,
    "fleet": cmd_fleet,
    "scenario": cmd_scenario,
    "list": cmd_list,
    "bathtub": cmd_bathtub,
    "obs": cmd_obs,
    "explain": cmd_explain,
    "resume": cmd_resume,
    "query": cmd_query,
    "monitor": cmd_monitor,
    "whatif": cmd_whatif,
}


def _dispatch(args: argparse.Namespace) -> int:
    """Run one parsed command; ``main()`` and ``resume`` both end here.

    A :class:`~repro.errors.ConfigurationError` the command does not
    handle itself — a store that cannot be set up, a checkpoint ledger
    that does not match the campaign — ends it with the message on
    stderr and exit status 1.  ``resume`` is profiled and traced by the
    command it re-dispatches, so a process starts one profiler at most.
    """
    from repro.errors import ConfigurationError

    command = _COMMANDS[args.command]
    if args.trace and args.command == "whatif":
        print(
            "repro whatif: --trace is refused: whatif replays under the "
            "baseline's recorded obs flags, so there is no trace of its "
            "own to write; trace the baseline run instead",
            file=sys.stderr,
        )
        return 2
    if args.trace and args.command not in _OWN_TRACE:
        if args.workers > 1 and args.command in ("fleet", "campaign"):
            print(
                f"repro {args.command}: --trace records this process "
                f"only, and --workers {args.workers} runs the replicas in "
                "worker processes; trace with --workers 1",
                file=sys.stderr,
            )
            return 2
        command = functools.partial(_run_observed, command)
    try:
        if args.profile and args.command != "resume":
            return _run_profiled(command, args)
        return command(args)
    except ConfigurationError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1


def _run_profiled(command, args: argparse.Namespace) -> int:
    """Run one command under cProfile and print its per-module table."""
    from repro.obs.profiler import profile_call

    rc, profile = profile_call(lambda: command(args))
    note = None
    # The runner took its pool path: replicas ran in worker processes.
    if profile.functions.get(("runtime.runner", "_run_pool")):
        note = (
            "[pooled run: replicas that ran in worker processes are not "
            "included; this is the parent process only]"
        )
    print(profile.render(note))
    return rc


def _run_observed(command, args: argparse.Namespace) -> int:
    """Run a command under one process-wide obs context; write its trace.

    The command runs in this process (``_dispatch`` refuses a pooled
    ``fleet`` or ``campaign``), so the context sees all of it.
    """
    from repro import obs as obs_api
    from repro.obs.report import counters_record

    o = obs_api.Observability(provenance=getattr(args, "provenance", False))
    with obs_api.activated(o):
        rc = command(args)
    records = o.trace_dicts() + [counters_record(o.snapshot())]
    path = obs_api.write_jsonl(
        args.trace,
        records,
        header_attrs={"command": args.command, "root_seed": args.seed},
    )
    print(f"[obs trace written to {path} ({len(records)} records)]")
    return rc


if __name__ == "__main__":
    sys.exit(main())
