"""Tests for the ``python -m repro`` command-line front door."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.__main__ import main


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "demo" in capsys.readouterr().out


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "Scenario catalogue" in out
    assert "wearout" in out


def test_scenario_command_runs(capsys):
    assert main(["--seed", "7", "scenario", "seu"]) == 0
    out = capsys.readouterr().out
    assert "component-external" in out
    assert "correct" in out


def test_unknown_scenario_rejected(capsys):
    assert main(["scenario", "warp-core-breach"]) == 2


def test_bathtub_command(capsys):
    assert main(["bathtub"]) == 0
    assert "Bathtub" in capsys.readouterr().out


def test_demo_command(capsys):
    assert main(["--seed", "3", "demo"]) == 0
    out = capsys.readouterr().out
    assert "component:comp2" in out
    assert "replace component" in out


def test_mc_command_writes_metrics(capsys, tmp_path):
    metrics_path = tmp_path / "out" / "mc.json"
    assert (
        main(
            [
                "--seed",
                "11",
                "--metrics-json",
                str(metrics_path),
                "mc",
                "--replicas",
                "3",
                "--horizon-ms",
                "400",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Monte-Carlo campaign" in out
    assert "attribution accuracy" in out
    assert "events/s" in out
    import json

    record = json.loads(metrics_path.read_text(encoding="utf-8"))
    assert record["replicas"] == 3
    assert record["workers"] == 1


def test_mc_zero_replicas_is_a_friendly_noop(capsys):
    """``mc --replicas 0`` reports the empty campaign instead of dying
    in the reducer's empty-campaign check."""
    assert main(["mc", "--replicas", "0"]) == 0
    out = capsys.readouterr().out
    assert "0 replicas" in out
    assert "nothing to run" in out


def test_mc_expected_faults_at_the_cap_is_accepted(capsys):
    """``--expected-faults 1000`` (the cap) parses; ``--replicas 0``
    keeps the run empty."""
    assert main(["mc", "--replicas", "0", "--expected-faults", "1000"]) == 0
    assert "nothing to run" in capsys.readouterr().out


def _plan_digest_line(out: str) -> str:
    lines = [line for line in out.splitlines() if "plan digest" in line]
    assert lines, f"no plan digest in output:\n{out}"
    return lines[-1]


def test_mc_checkpoint_resume_roundtrip(capsys, tmp_path):
    """Kill-and-resume at the CLI level: a resume from a truncated
    ledger reproduces the uninterrupted run's aggregate line."""
    ledger = tmp_path / "mc.jsonl"
    args = [
        "--seed",
        "11",
        "--checkpoint",
        str(ledger),
        "mc",
        "--replicas",
        "4",
        "--horizon-ms",
        "300",
    ]
    assert main(args) == 0
    reference = _plan_digest_line(capsys.readouterr().out)

    import json

    lines = ledger.read_text(encoding="utf-8").splitlines()
    kept = []
    for line in lines:
        record = json.loads(line)
        kept.append(line)
        if record["kind"] == "chunk":
            break  # header + first completed chunk only
    assert len(kept) == 2, "expected a chunk line to truncate after"
    ledger.write_text("\n".join(kept) + "\n", encoding="utf-8")

    assert main(["resume", str(ledger)]) == 0
    out = capsys.readouterr().out
    assert "resuming mc campaign" in out
    assert "resumed:" in out
    assert _plan_digest_line(out) == reference


def test_resume_ignores_backend_recorded_by_older_builds(capsys, tmp_path):
    """Ledgers from builds that had ``--backend`` record it in the header
    params; ``repro resume`` ignores the key and still reproduces the
    uninterrupted run's aggregate line."""
    import json

    ledger = tmp_path / "mc.jsonl"
    args = [
        "--seed",
        "11",
        "--checkpoint",
        str(ledger),
        "mc",
        "--replicas",
        "4",
        "--horizon-ms",
        "300",
    ]
    assert main(args) == 0
    reference = _plan_digest_line(capsys.readouterr().out)

    header, first_chunk = ledger.read_text(encoding="utf-8").splitlines()[:2]
    record = json.loads(header)
    assert "backend" not in record["params"]
    record["params"]["backend"] = "batched"
    ledger.write_text(
        json.dumps(record, sort_keys=True) + "\n" + first_chunk + "\n",
        encoding="utf-8",
    )

    assert main(["resume", str(ledger)]) == 0
    out = capsys.readouterr().out
    assert "resumed:" in out
    assert _plan_digest_line(out) == reference


def test_resume_rejects_missing_ledger(capsys, tmp_path):
    assert main(["resume", str(tmp_path / "nope.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "nope.jsonl" in err


def test_fleet_command(capsys):
    assert (
        main(
            [
                "--seed",
                "21",
                "fleet",
                "--vehicles",
                "3",
                "--drive-ms",
                "300",
                "--fault-prob",
                "0.7",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Fleet of 3" in out
    assert "replicas, workers=1" in out


@pytest.mark.parametrize(
    "argv, option",
    [
        (["mc", "--replicas", "-3"], "--replicas"),
        (["mc", "--replicas", "2", "--horizon-ms", "0"], "--horizon-ms"),
        (["mc", "--replicas", "2", "--horizon-ms", "-5"], "--horizon-ms"),
        (["mc", "--replicas", "2", "--expected-faults", "-1"], "--expected-faults"),
        (["mc", "--replicas", "2", "--expected-faults", "nan"], "--expected-faults"),
        (["mc", "--replicas", "2", "--expected-faults", "inf"], "--expected-faults"),
        (["mc", "--replicas", "2", "--expected-faults", "1001"], "--expected-faults"),
        (["mc", "--replicas", "2", "--expected-faults", "1e9"], "--expected-faults"),
        (["fleet", "--vehicles", "0", "--drive-ms", "100"], "--vehicles"),
        (["fleet", "--vehicles", "1", "--fault-prob", "2"], "--fault-prob"),
        (["fleet", "--vehicles", "1", "--fault-prob", "-0.1"], "--fault-prob"),
        (["fleet", "--vehicles", "1", "--fault-prob", "nan"], "--fault-prob"),
        (["fleet", "--vehicles", "1", "--drive-ms", "-5"], "--drive-ms"),
        (["fleet", "--vehicles", "1", "--drive-ms", "0"], "--drive-ms"),
    ],
    ids=[
        "negative-replicas",
        "zero-horizon",
        "negative-horizon",
        "negative-faults",
        "nan-faults",
        "inf-faults",
        "faults-above-cap",
        "faults-1e9",
        "zero-vehicles",
        "fault-prob-above-one",
        "negative-fault-prob",
        "nan-fault-prob",
        "negative-drive",
        "zero-drive",
    ],
)
def test_invalid_campaign_sizes_are_usage_errors(tmp_path, capsys, argv, option):
    """A campaign size the run would fail on is refused when the command
    line is parsed: exit 2, nothing on stdout, no ledger or store."""
    ledger = tmp_path / "mc.jsonl"
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as exc:
        main(["--checkpoint", str(ledger), "--store", str(store), *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: " in captured.err
    assert not ledger.exists() and not store.exists()


#: Every output a campaign run writes: (flag, suffix added to its value).
_OUTPUTS = [
    ("--checkpoint", ""),
    ("--store", ""),
    ("--live-log", ""),
    ("--live-log", ".prom"),
    ("--metrics-json", ""),
    ("--trace", ""),
]
_PAIRS = [
    (a, b)
    for i, a in enumerate(_OUTPUTS)
    for b in _OUTPUTS[i + 1 :]
    if a[0] != b[0]  # a path and its own .prom sidecar never collide
]


@pytest.mark.parametrize(
    "first, second",
    _PAIRS,
    ids=[f"{a[0][2:]}{a[1]}-{b[0][2:]}{b[1]}" for a, b in _PAIRS],
)
def test_outputs_sharing_a_path_are_refused(tmp_path, capsys, first, second):
    """Two outputs of one run at one path would overwrite or corrupt each
    other: the run exits 1 naming both flags, before any file exists."""
    shared = str(tmp_path / "x.prom")
    argv = []
    for flag, suffix in (first, second):
        argv += [flag, shared.removesuffix(suffix)]
    rc = main([*argv, "mc", "--replicas", "2", "--horizon-ms", "100"])
    assert rc == 1
    captured = capsys.readouterr()
    assert first[0] in captured.err and second[0] in captured.err
    assert "give each output a path of its own" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


_MC = ["mc", "--replicas", "2", "--horizon-ms", "100"]
#: Command lines with one file output at the directory ``D``; ``D-.prom``
#: is ``D`` less its suffix, so that the live log's snapshot lands on it.
_DIRECTORY_OUTPUTS = {
    "checkpoint": ["--checkpoint", "D", *_MC],
    "live-log": ["--live-log", "D", *_MC],
    "live-log.prom": ["--live-log", "D-.prom", *_MC],
    "metrics-json": ["--metrics-json", "D", *_MC],
    "trace-mc": ["--trace", "D", *_MC],
    "trace-demo": ["--trace", "D", "demo"],
    "trace-scenario": ["--trace", "D", "scenario", "seu"],
    "obs-export": ["obs", "export", "TRACE", "-o", "D"],
}


@pytest.mark.parametrize(
    "argv", list(_DIRECTORY_OUTPUTS.values()), ids=list(_DIRECTORY_OUTPUTS)
)
def test_file_output_naming_a_directory_is_refused(tmp_path, capsys, argv):
    """A file output at an existing directory ends the command before it
    runs: exit 1, nothing on stdout, one line on stderr."""
    directory = tmp_path / "out.prom"
    directory.mkdir()
    trace = tmp_path / "t.jsonl"
    if "TRACE" in argv:
        assert main(["--trace", str(trace), "list"]) == 0
        capsys.readouterr()
    paths = {
        "D": str(directory),
        "D-.prom": str(directory).removesuffix(".prom"),
        "TRACE": str(trace),
    }
    rc = main([paths.get(token, token) for token in argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1, captured.err
    assert "is a directory" in captured.err
    assert "Traceback" not in captured.err
    assert list(directory.iterdir()) == []


def test_global_flags_after_trace_and_log_commands(tmp_path, capsys):
    """``explain``, ``monitor`` and ``obs`` take the global flags after
    the subcommand too, as every other command does."""
    trace = tmp_path / "t.jsonl"
    assert main(["--trace", str(trace), "list"]) == 0
    golden_log = Path(__file__).parent / "data" / "golden_live_log.jsonl"
    capsys.readouterr()
    assert main(["monitor", str(golden_log), "--profile"]) == 0
    assert "Profile: calls and self time per module" in capsys.readouterr().out
    assert main(["explain", str(trace), "--profile"]) == 0
    assert "Profile: calls and self time per module" in capsys.readouterr().out
    second = tmp_path / "y.jsonl"
    assert main(["obs", "report", str(trace), "--trace", str(second)]) == 0
    assert second.exists()
    chrome = ["-o", str(tmp_path / "c.json")]
    assert main(["obs", "export", str(trace), "--profile", *chrome]) == 0
    assert "Profile: calls and self time per module" in capsys.readouterr().out
