"""End-to-end benchmark of the DECOS diagnosis reproduction, CLI to result.

Four campaign workloads (see ``README.md``) run through
``repro.__main__.main``, each repeat in a fresh interpreter
(``child.py``), one process at a time.  Set-up time is sampled by extra
probe launches that stop at the first ``ParallelCampaignRunner.run``
entry.  With ``--trace 1`` run.py alternates untraced and traced
repeats and reports per-layer self times instead of the end-to-end
metrics.  Every metric is printed as ``<workload>.<metric> = <value>
<unit>``; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Outputs are checked on every run: each repeat must reproduce the same
campaign, traced runs must equal untraced ones, the pooled durable run
must equal a serial re-execution, and at the default seed every
workload must reproduce the digests recorded in ``expected.json``.  A
failed check makes the command exit 1.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace {0,1}] [--out RESULT.json]

Without ``--workload`` every workload runs in turn and metric names carry
a ``<workload>.`` prefix in the JSON line too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"

#: Probe launches per run that measure set-up time only.  Every measured
#: repeat adds one more set-up sample.
SETUP_PROBES = 5
#: Hard limit on one child process; a run must end within 180 s.
CHILD_TIMEOUT_S = 150
#: Traced layer rows plus unattributed time must add up to the traced
#: wall within this share.
TRACE_ACCOUNTING_TOLERANCE = 0.01
#: The p95 replica latency is printed only where at least ten replicas
#: lie beyond it, and never gated: on a shared 2-CPU host, contention
#: bursts moved it by up to 43 % (quartile spread) between runs.
TAIL_MIN_REPLICAS = 200


@dataclass(frozen=True)
class Workload:
    """One set of inputs: CLI argv around a root seed.

    ``flags`` are global options besides ``--seed`` and ``argv`` is the
    subcommand with its options.  ``{out}`` is a fresh directory per
    repeat, ``{fixture}`` the replay baseline built by ``fixture`` (an
    untimed ``mc`` argv), and ``{workers}`` the pool size.  A workload
    with ``seed_shift=False`` runs its default root seed at every
    ``--seed``.  ``serial_check`` is an ``mc`` argv whose replicas the
    pooled run must reproduce exactly.
    """

    name: str
    default_seed: int
    argv: tuple[str, ...]
    flags: tuple[str, ...] = ()
    fixture: tuple[str, ...] = ()
    seed_shift: bool = True
    serial_check: tuple[str, ...] = ()

    def root_seed(self, shift: int) -> int:
        return self.default_seed + shift if self.seed_shift else self.default_seed


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's A10 configuration.  Its cost is heavy-tailed over
        # root seeds (8-45 s wall for seeds 1-6), so it always runs seed 1
        # and --seed leaves it unchanged.
        Workload(
            "a10_long",
            1,
            ("mc", "--replicas", "8", "--expected-faults", "4",
             "--horizon-ms", "8000"),
            seed_shift=False,
        ),
        Workload("mc_short", 4321, ("mc", "--replicas", "320", "--horizon-ms", "300")),
        Workload(
            "mc_pool_durable",
            4321,
            ("mc", "--replicas", "320", "--horizon-ms", "300"),
            flags=("--workers", "{workers}",
                   "--checkpoint", "{out}/led.jsonl",
                   "--store", "{out}/store", "--store-format", "json",
                   "--campaign-id", "bench",
                   "--live-log", "{out}/live.jsonl"),
            serial_check=("mc", "--replicas", "8", "--horizon-ms", "300"),
        ),
        Workload(
            "replay",
            77,
            ("whatif", "{fixture}", "--campaign", "bench", "--scan", "faults",
             "--json"),
            fixture=("--store", "{fixture}", "--store-format", "json",
                     "--campaign-id", "bench", "mc", "--replicas", "80",
                     "--horizon-ms", "300"),
        ),
    )
}  # fmt: skip


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program sources or catalogue)."""


def pool_workers() -> int:
    """Pool size of the durable workload: 2, capped at the usable CPUs."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def load_catalogue() -> dict:
    try:
        return json.loads(BENCHMARK.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {BENCHMARK}: {exc}") from None


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


# -- launching repeats --------------------------------------------------------


@dataclass
class Sample:
    """One child launch: what run.py measured and what the child reported."""

    mode: str
    wall_s: float
    setup_s: float | None
    rc: int
    stdout: str
    stderr: str
    report: dict
    out_bytes: dict


def _dir_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return 0


class Launcher:
    """Runs child repeats one at a time inside a private work directory."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.count = 0

    def launch(self, mode: str, argv: list[str], out: Path | None = None) -> Sample:
        self.count += 1
        report_path = self.work / f"report-{self.count}.json"
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
        command = [sys.executable, str(CHILD), str(report_path), mode, "--", *argv]
        t0 = time.monotonic()
        proc = subprocess.Popen(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
            stderr += f"\n[killed after {CHILD_TIMEOUT_S} s]"
        wall = time.monotonic() - t0
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = {}
        entry = report.get("t_entry")
        out_bytes = {}
        if out is not None:
            out_bytes = {
                "runtime.checkpoint.bytes": _dir_bytes(out / "led.jsonl"),
                "storage.bytes": _dir_bytes(out / "store"),
            }
        return Sample(
            mode=mode,
            wall_s=wall,
            setup_s=None if entry is None else entry - t0,
            rc=proc.returncode if report.get("rc", 1) == 0 else 1,
            stdout=stdout,
            stderr=stderr,
            report=report,
            out_bytes=out_bytes,
        )


# -- outputs and checks -------------------------------------------------------


def _scan_outputs(stdout: str) -> dict:
    """Deterministic content of a ``whatif --scan --json`` report."""
    lines = stdout.strip().splitlines()
    data = json.loads(lines[-1]) if lines else {}
    entries = data.get("entries", [])
    canonical = json.dumps(entries, sort_keys=True).encode()
    return {
        "baseline_digest": data.get("baseline_summary", {}).get("plan_digest"),
        "counterfactuals": len(entries),
        "events_replayed": sum(e["events_replayed"] for e in entries),
        "scan_digest": hashlib.sha256(canonical).hexdigest(),
    }


def sample_outputs(workload: Workload, sample: Sample) -> dict:
    """What a repeat computed, as compared across repeats and to expected."""
    report = sample.report
    if workload.fixture:
        try:
            outputs = _scan_outputs(sample.stdout)
        except (ValueError, KeyError) as exc:
            outputs = {"unparsable_output": str(exc)}
    else:
        outputs = dict(report.get("summary") or {})
    outputs["replica_fingerprints"] = hashlib.sha256(
        "\n".join(report.get("fingerprints", [])).encode()
    ).hexdigest()
    return outputs


def check_stdout(workload: Workload, sample: Sample, fixture: dict) -> list[str]:
    """The CLI's printed result must be the campaign the runner returned."""
    if workload.fixture:
        scan = sample_outputs(workload, sample)
        if scan.get("counterfactuals") != fixture.get("faults_injected"):
            return [
                f"whatif scanned {scan.get('counterfactuals')} faults, the "
                f"baseline injected {fixture.get('faults_injected')}"
            ]
        if scan.get("baseline_digest") != fixture.get("plan_digest"):
            return ["whatif baseline digest differs from the fixture's"]
        return []
    summary = sample.report.get("summary") or {}
    digest = summary.get("plan_digest", "?")
    if f"plan digest {digest[:16]}" not in sample.stdout:
        return [f"printed plan digest does not match the run's {digest[:16]}"]
    return []


def compare_expected(name: str, actual: dict, expected: dict) -> list[str]:
    return [
        f"{name}: {key} = {actual.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if actual.get(key) != value
    ]


# -- metrics ------------------------------------------------------------------


def replica_latencies_ms(samples: list[Sample]) -> list[float]:
    """Each replica's fastest time over the run's repeats of one input.

    Host contention comes in bursts shorter than a repeat, so taking the
    best of a replica's repeats removes most of it from the percentiles.
    """
    per_replica = zip(*(s.report["replica_s"] for s in samples))
    return [min(times) * 1000.0 for times in per_replica]


def tail_latency(samples: list[Sample]) -> dict:
    """p95 replica latency, printed but not gated (see TAIL_MIN_REPLICAS)."""
    latencies = replica_latencies_ms(samples)
    if len(latencies) < TAIL_MIN_REPLICAS:
        return {}
    p95 = statistics.quantiles(latencies, n=20, method="inclusive")[18]
    return {"replica_ms_p95": p95}


def end_to_end_metrics(samples: list[Sample], setups: list[float]) -> dict:
    """Medians over repeats and set-up samples; replica percentiles."""
    run_s = [s.wall_s - s.setup_s for s in samples]
    latencies = replica_latencies_ms(samples)
    return {
        "wall_s": statistics.median(s.wall_s for s in samples),
        "setup_s": statistics.median(setups),
        "events_per_s": statistics.median(
            s.report["events"] / t for s, t in zip(samples, run_s)
        ),
        "replicas_per_s": statistics.median(
            s.report["fresh_replicas"] / t for s, t in zip(samples, run_s)
        ),
        "replica_ms_p50": statistics.median(latencies),
        "peak_rss_mb": statistics.median(
            s.report["peak_rss_kb"] / 1024.0 for s in samples
        ),
    }


def per_layer_metrics(traced: list[Sample], untraced: list[Sample]) -> dict:
    """Medians over traced repeats of each layer's self time and calls."""
    metrics: dict[str, float] = {}
    layers = traced[0].report["trace"]["layers"]
    for layer in layers:
        metrics[f"{layer}.self_s"] = statistics.median(
            s.report["trace"]["layers"][layer][0] for s in traced
        )
        metrics[f"{layer}.calls"] = statistics.median(
            s.report["trace"]["layers"][layer][1] for s in traced
        )
    metrics["trace.unattributed_s"] = statistics.median(
        s.wall_s - (s.report["t_main_exit"] - s.report["t_main_enter"])
        for s in traced
    )
    metrics["trace.overhead"] = statistics.median(
        s.wall_s for s in traced
    ) / statistics.median(s.wall_s for s in untraced)
    trace = traced[0].report["trace"]
    metrics["core.assessment.accepted_ratio"] = trace["symptoms_accepted"] / max(
        1, trace["symptoms_submitted"]
    )
    metrics["replay.events_replayed_ratio"] = trace["events_replayed"] / max(
        1, trace["events_full"]
    )
    for key in ("runtime.checkpoint.bytes", "storage.bytes"):
        metrics[key] = statistics.median(s.out_bytes.get(key, 0) for s in traced)
    return metrics


def trace_checks(sample: Sample) -> list[str]:
    trace = sample.report["trace"]
    problems = []
    if trace["stack_depth"]:
        problems.append(f"wrapper stack holds {trace['stack_depth']} frames at exit")
    self_total = sum(v[0] for v in trace["layers"].values())
    main_s = sample.report["t_main_exit"] - sample.report["t_main_enter"]
    rows = self_total + (sample.wall_s - main_s)
    if abs(rows - sample.wall_s) > TRACE_ACCOUNTING_TOLERANCE * sample.wall_s:
        problems.append(
            f"layer rows add up to {rows:.3f} s, traced wall is "
            f"{sample.wall_s:.3f} s"
        )
    return problems


# -- one workload -------------------------------------------------------------


@dataclass
class WorkloadResult:
    """The full record of one workload run; metrics only if it was correct."""

    record: dict

    @property
    def correct(self) -> bool:
        return not self.record["problems"]

    @property
    def metrics(self) -> dict:
        return self.record["metrics"] if self.correct else {}

    def fail(self, problem: str) -> None:
        self.record["problems"].append(problem)


def _fill(args: tuple[str, ...], **values: str) -> list[str]:
    return [a.format(**values) for a in args]


def run_workload(
    workload: Workload,
    *,
    shift: int,
    seconds: float,
    traced: bool,
    expected: dict | None,
    work: Path,
    probes: int = SETUP_PROBES,
) -> WorkloadResult:
    launcher = Launcher(work)
    root = workload.root_seed(shift)
    fixture_dir = work / "fixture"
    out = work / "out"
    values = {"out": str(out), "fixture": str(fixture_dir), "workers": str(pool_workers())}
    argv = _fill(workload.argv, **values)
    if not workload.fixture:
        argv = ["--seed", str(root), *_fill(workload.flags, **values), *argv]
    problems: list[str] = []
    expect = (expected or {}).get(workload.name) if root == workload.default_seed else None

    # Untimed: build the replay baseline, or warm the bytecode and file
    # caches with one discarded probe.
    fixture: dict = {}
    if workload.fixture:
        built = launcher.launch(
            "run", ["--seed", str(root), *_fill(workload.fixture, **values)]
        )
        fixture = dict(built.report.get("summary") or {})
        if built.rc != 0:
            problems.append(f"fixture build failed: {built.stderr.strip()[-400:]}")
        if expect is not None:
            problems += compare_expected("fixture", fixture, expect["fixture"])
    else:
        launcher.launch("probe", argv)

    start = time.monotonic()
    setups = []
    for _ in range(probes):
        probe = launcher.launch("probe", argv)
        if probe.rc != 0 or probe.setup_s is None:
            problems.append(f"setup probe failed: {probe.stderr.strip()[-400:]}")
        else:
            setups.append(probe.setup_s)
    # Traced runs alternate untraced and traced repeats, one of each at
    # least, so the overhead and traced-equals-untraced are measured.
    modes = ["run", "trace"] if traced else ["run"]
    samples: list[Sample] = []
    while not problems and (
        len(samples) < len(modes) or time.monotonic() - start < seconds
    ):
        sample = launcher.launch(modes[len(samples) % len(modes)], argv, out)
        samples.append(sample)
        if sample.rc != 0 or sample.setup_s is None:
            problems.append(
                f"{sample.mode} repeat failed (rc {sample.rc}): "
                f"{sample.stderr.strip()[-400:]}"
            )
            break
        setups.append(sample.setup_s)

    attempted = sum(s.report.get("fresh_replicas", 0) for s in samples)
    failed = sum(
        s.report.get("replicas_failed", 0) + s.report.get("retries", 0)
        for s in samples
    ) + sum(1 for s in samples if s.rc != 0)
    outputs: dict = {}
    if not problems:
        for sample in samples:
            problems += check_stdout(workload, sample, fixture)
        outputs = sample_outputs(workload, samples[0])
        for sample in samples[1:]:
            if sample_outputs(workload, sample) != outputs:
                problems.append(
                    f"a {sample.mode} repeat computed a different result than "
                    f"the first {samples[0].mode} repeat"
                )
        if expect is not None:
            wanted = {k: v for k, v in expect.items() if k != "fixture"}
            problems += compare_expected(workload.name, outputs, wanted)
        if workload.serial_check:
            check = launcher.launch(
                "run",
                ["--seed", str(root), *_fill(workload.serial_check, **values)],
            )
            n = len(check.report.get("fingerprints", []))
            if check.rc != 0 or n == 0 or (
                check.report["fingerprints"]
                != samples[0].report["fingerprints"][:n]
            ):
                problems.append(
                    f"pooled replicas 0..{n - 1} differ from a serial re-run"
                )
    if traced and not problems:
        for sample in samples:
            if sample.mode == "trace":
                problems += trace_checks(sample)

    metrics: dict = {}
    info: dict = {}
    if not problems:
        untraced_samples = [s for s in samples if s.mode == "run"]
        if traced:
            metrics = per_layer_metrics(
                [s for s in samples if s.mode == "trace"], untraced_samples
            )
        else:
            metrics = end_to_end_metrics(untraced_samples, setups)
            info = tail_latency(untraced_samples)
    record = {
        "workload": workload.name,
        "seed": shift,
        "root_seed": root,
        "trace": int(traced),
        "seconds": seconds,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "outputs": outputs,
        "fixture": fixture,
        "metrics": metrics,
        "info": info,
        "samples": {
            "setup_s": setups,
            "repeats": [
                {
                    "mode": s.mode,
                    "wall_s": s.wall_s,
                    "setup_s": s.setup_s,
                    "events": s.report.get("events"),
                    "fresh_replicas": s.report.get("fresh_replicas"),
                    "peak_rss_kb": s.report.get("peak_rss_kb"),
                    "replica_s": s.report.get("replica_s"),
                    **(
                        {"trace": s.report["trace"], "out_bytes": s.out_bytes}
                        if s.mode == "trace"
                        else {}
                    ),
                }
                for s in samples
            ],
        },
    }
    return WorkloadResult(record)


# -- printing -----------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_workload(result: WorkloadResult, declared: list[dict]) -> None:
    name = result.record["workload"]
    for problem in result.record["problems"]:
        print(f"{name}: CHECK FAILED: {problem}")
    if not result.correct:
        return
    outputs = result.record["outputs"]
    print(f"{name}.outputs = {json.dumps(outputs, sort_keys=True)}")
    repeats = result.record["samples"]["repeats"]
    untraced = [r for r in repeats if r["mode"] == "run"]
    note = (
        f"  [n={len(untraced[0]['replica_s'])} replicas, "
        f"best of {len(untraced)} repeat(s)]"
    )
    for spec in declared:
        value = result.metrics[spec["name"]]
        suffix = note if spec["name"].startswith("replica_ms") else ""
        print(f"{name}.{spec['name']} = {_fmt(value)} {spec['unit']}{suffix}")
    for key, value in result.record["info"].items():
        print(f"{name}.{key} = {_fmt(value)} ms{note} (not gated)")
    if result.record["trace"]:
        traced = [r for r in repeats if r["mode"] == "trace"]
        wall = statistics.median(r["wall_s"] for r in traced)
        rows = sorted(
            (
                (result.metrics[f"{layer}.self_s"], layer)
                for layer in traced[0]["trace"]["layers"]
            ),
            reverse=True,
        )
        rows.append((result.metrics["trace.unattributed_s"], "(unattributed)"))
        missing = traced[0]["trace"]["missing"]
        if missing:
            print(f"{name}: warning: no such layer boundary: {', '.join(missing)}")
        print(f"{name}: layers by self time (traced wall {wall:.3f} s)")
        for self_s, layer in rows:
            print(f"  {layer:<40} {self_s:9.3f} s  {100 * self_s / wall:5.1f} %")


# -- entry point --------------------------------------------------------------


def main(
    argv: list[str] | None = None,
    *,
    workloads: dict[str, Workload] = WORKLOADS,
    expected: dict | None = None,
    probes: int = SETUP_PROBES,
) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads), default=None)
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="shift added to every workload's default root seed (default 0)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=16.0,
        help="keep starting repeats until this long after the first probe",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the full record here")
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "repro" / "__main__.py").is_file():
            raise BenchmarkError(f"no program sources under {ROOT / 'src'}")
        catalogue = load_catalogue()
        if expected is None:
            expected = load_expected()
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    declared = catalogue["per_layer" if args.trace else "end_to_end"]
    names = [args.workload] if args.workload else list(workloads)

    results: list[WorkloadResult] = []
    for name in names:
        work = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
        try:
            result = run_workload(
                workloads[name],
                shift=args.seed,
                seconds=args.seconds,
                traced=bool(args.trace),
                expected=expected,
                work=work,
                probes=probes,
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
        undeclared = set(result.metrics) ^ {d["name"] for d in declared}
        if result.correct and undeclared:
            result.fail(
                f"computed metrics differ from BENCHMARK.json: {sorted(undeclared)}"
            )
        results.append(result)
    by_name = {r.record["workload"]: r for r in results}
    serial, pooled = by_name.get("mc_short"), by_name.get("mc_pool_durable")
    if serial and pooled and serial.correct and pooled.correct:
        if serial.record["outputs"] != pooled.record["outputs"]:
            pooled.fail("result differs from mc_short's")
    for result in results:
        print_workload(result, declared)

    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {
                    "host": {"nproc": len(os.sched_getaffinity(0)),
                             "python": sys.version.split()[0]},
                    "runs": [{**r.record, "correct": r.correct} for r in results],
                },
                indent=1,
            )
            + "\n",
            encoding="utf-8",
        )  # fmt: skip
    units = {d["name"]: d["unit"] for d in declared}
    prefix = len(results) > 1
    line = {
        "correct": all(r.correct for r in results),
        "attempted": sum(r.record["attempted"] for r in results),
        "failed": sum(r.record["failed"] for r in results),
        "metrics": {
            (f"{r.record['workload']}.{k}" if prefix else k): {
                "value": v,
                "unit": units[k],
            }
            for r in results
            for k, v in r.metrics.items()
        },
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
