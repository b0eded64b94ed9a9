"""``repro whatif`` CLI tests: golden report, JSON contract, end-to-end.

The report renderer is pinned byte-for-byte by
``tests/data/golden_whatif_report.txt`` (regeneration recipe in
:func:`regenerate`) — like ``repro query``, a whatif report contains no
wall-clock values, machine identifiers or absolute paths, so the golden
pins renderer *and* replay semantics at once.  The end-to-end test runs
the real ``mc → checkpoint → whatif`` pipeline through subprocesses.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.replay import load_baseline, render_whatif_report, whatif
from tests._differential import FULL_OBS_SPEC, run_campaign

pytestmark = pytest.mark.differential

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_whatif_report.txt"

#: The golden campaign and rewrite, fixed forever.
GOLDEN_SEED = 11
GOLDEN_REPLICAS = 4
GOLDEN_SELECTOR = None  # derived from the plan: first event of replica 0


def _write_baseline(tmp_path: Path):
    ledger = tmp_path / "golden.ckpt"
    params = {
        "replicas": GOLDEN_REPLICAS,
        "expected_faults": FULL_OBS_SPEC.expected_faults,
        "horizon_ms": FULL_OBS_SPEC.horizon_us // 1000,
        "trace": True,
        "provenance": True,
    }
    run_campaign(
        replicas=GOLDEN_REPLICAS,
        seed=GOLDEN_SEED,
        spec=FULL_OBS_SPEC,
        checkpoint=ledger,
        invocation={"command": "mc", "params": params},
    )
    return ledger


def _golden_report(tmp_path: Path) -> str:
    baseline = load_baseline(_write_baseline(tmp_path))
    mechanism, target, at_us = baseline.outcome(0).plan_events[0]
    selector = f"r0:{mechanism}@{target}@{at_us}"
    return render_whatif_report(
        whatif(baseline, suppress_faults=(selector,))
    )


def test_whatif_report_matches_golden(tmp_path):
    """The rendered report is byte-stable across runs and hosts."""
    assert _golden_report(tmp_path) == GOLDEN_PATH.read_text(encoding="utf-8")


def regenerate() -> None:
    """Regenerate the golden after a *deliberate* semantic change::

        PYTHONPATH=src:. python -c \\
          "from tests.replay.test_whatif_cli import regenerate; regenerate()"
    """
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        report = _golden_report(Path(tmp))
    GOLDEN_PATH.write_text(report, encoding="utf-8")
    print(f"regenerated {GOLDEN_PATH}: {len(report.splitlines())} lines")


# -- in-process CLI contract -------------------------------------------------


def test_whatif_usage_errors(tmp_path, capsys):
    ledger = _write_baseline(tmp_path)
    # No rewrite and no scan: usage error, rc 2.
    assert main(["whatif", str(ledger)]) == 2
    assert "needs a rewrite" in capsys.readouterr().err
    # Scan and explicit rewrite are mutually exclusive: rc 2.
    assert (
        main(
            ["whatif", str(ledger), "--scan", "onas", "--without-ona", "wearout"]
        )
        == 2
    )
    # Missing baseline: rc 1 with a ConfigurationError message.
    assert main(["whatif", str(tmp_path / "no.ckpt"), "--without-fault", "seu"]) == 1
    assert "does not exist" in capsys.readouterr().err
    # Unknown ONA class: rc 1.
    assert main(["whatif", str(ledger), "--without-ona", "nope"]) == 1
    assert "nope" in capsys.readouterr().err
    # Bad selector grammar: rc 1.
    assert main(["whatif", str(ledger), "--without-fault", "r?:bad"]) == 1


@pytest.mark.parametrize("position", ["before", "after"])
def test_whatif_refuses_trace(tmp_path, capsys, position):
    """whatif writes no trace of its own, so ``--trace`` is a usage error
    before anything is read, and no trace file appears."""
    trace = tmp_path / "t.jsonl"
    command = ["whatif", str(tmp_path / "no.ckpt"), "--scan", "faults"]
    flags = ["--trace", str(trace)]
    argv = [*flags, *command] if position == "before" else [*command, *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "replays under the baseline's recorded obs flags" in captured.err
    assert captured.out == ""
    assert not trace.exists()


def test_whatif_json_contract(tmp_path, capsys):
    ledger = _write_baseline(tmp_path)
    baseline = load_baseline(ledger)
    mechanism, target, at_us = baseline.outcome(0).plan_events[0]
    selector = f"r0:{mechanism}@{target}@{at_us}"
    assert (
        main(["whatif", str(ledger), "--without-fault", selector, "--json"])
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["affected"] == [0]
    assert payload["affected_by"] == "plan"
    assert payload["spliced"] == [1, 2, 3]
    assert payload["events"]["replicas_resumed"] == 3
    assert payload["events"]["replayed"] < payload["events"]["baseline"]
    assert payload["rewrite"]["without_faults"] == [selector]
    assert set(payload["deltas"]) == {
        "faults_injected",
        "faults_attributed",
        "attribution_accuracy",
        "nff_ratio",
        "verdicts_emitted",
    }


def test_whatif_scan_json(tmp_path, capsys):
    ledger = _write_baseline(tmp_path)
    assert main(["whatif", str(ledger), "--scan", "onas", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "onas"
    assert len(payload["entries"]) == 8
    kinds = {entry["kind"] for entry in payload["entries"]}
    assert kinds == {"ona"}


def test_obs_store_and_ledger_scan_identically(tmp_path, capsys):
    """An obs-enabled run's store part replays like its ledger: both
    print the same scan entries and baseline summary."""
    store, ledger = tmp_path / "st", tmp_path / "led.jsonl"
    argv = ["--seed", "11", "--store", str(store), "--checkpoint", str(ledger)]
    assert main([*argv, "mc", "--replicas", "4", "--horizon-ms", "400", "--provenance"]) == 0
    capsys.readouterr()
    payloads = []
    for baseline in (store, ledger):
        assert main(["whatif", str(baseline), "--scan", "onas", "--json"]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    from_store, from_ledger = payloads
    assert from_store["entries"] == from_ledger["entries"]
    assert from_store["baseline_summary"] == from_ledger["baseline_summary"]
    assert [e["affected"] for e in from_store["entries"]] == [2, 1, 2, 0, 1, 0, 0, 0]


@pytest.mark.parametrize("flags", [["--profile"], ["--trace", "t.jsonl"]], ids=["profile", "trace"])
def test_profile_or_trace_alone_writes_a_replayable_baseline(tmp_path, capsys, flags):
    """``--trace`` turns the replicas' obs on, both when ``repro mc``
    builds its spec and when ``repro whatif`` rebuilds it from the
    recorded flags; ``--profile`` profiles the CLI process and leaves
    the spec alone.  Either flag alone replays."""
    ledger = tmp_path / "led.jsonl"
    flags = [str(tmp_path / flag) if flag.endswith(".jsonl") else flag for flag in flags]
    argv = ["--seed", "11", "--checkpoint", str(ledger), *flags]
    assert main([*argv, "mc", "--replicas", "2", "--horizon-ms", "300"]) == 0
    capsys.readouterr()
    baseline = load_baseline(ledger)
    traced = "--trace" in flags
    assert baseline.spec.obs_enabled is traced
    assert baseline.spec.obs_trace is traced
    assert not baseline.spec.obs_provenance
    assert main(["whatif", str(ledger), "--without-ona", "wearout", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rewrite"]["without_onas"] == ["wearout"]


# -- end-to-end subprocess pipeline -----------------------------------------


def _repro(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_mc_checkpoint_whatif_end_to_end(tmp_path):
    """The real pipeline: mc writes a ledger, whatif replays it."""
    mc = _repro(
        [
            "mc",
            "--replicas",
            "3",
            "--horizon-ms",
            "200",
            "--seed",
            "7",
            "--provenance",
            "--checkpoint",
            "camp.ckpt",
        ],
        tmp_path,
    )
    assert mc.returncode == 0, mc.stderr
    baseline = load_baseline(tmp_path / "camp.ckpt")
    mechanism, target, at_us = baseline.outcome(0).plan_events[0]
    selector = f"r0:{mechanism}@{target}@{at_us}"

    text = _repro(
        ["whatif", "camp.ckpt", "--without-fault", selector], tmp_path
    )
    assert text.returncode == 0, text.stderr
    assert "counterfactual replay (whatif)" in text.stdout
    assert f"rewrite: without-fault {selector}" in text.stdout

    as_json = _repro(
        ["whatif", "camp.ckpt", "--without-fault", selector, "--json"],
        tmp_path,
    )
    assert as_json.returncode == 0, as_json.stderr
    payload = json.loads(as_json.stdout)
    assert payload["affected"] == [0]
    assert payload["events"]["replicas_resumed"] == 2
    # Cross-process determinism: the in-process engine answers the same.
    result = whatif(baseline, suppress_faults=(selector,))
    assert payload["counterfactual_summary"] == json.loads(
        json.dumps(result.counterfactual_summary.to_dict(), sort_keys=True)
    )
