"""Smoke test of the end-to-end benchmark (run.py) on scaled-down workloads.

Runs the real entry point (``run.main``) with the workload table shrunk to 4
replicas of 200 ms and a 4-replica replay baseline.  Tier-1 collects only
``tests/``; run this file by path::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e.py
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
run = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SMALL_MC = ("mc", "--replicas", "4", "--horizon-ms", "200")
SMALL = {
    "a10_long": replace(run.WORKLOADS["a10_long"], argv=SMALL_MC),
    "mc_short": replace(run.WORKLOADS["mc_short"], argv=SMALL_MC),
    "mc_pool_durable": replace(
        run.WORKLOADS["mc_pool_durable"],
        argv=SMALL_MC,
        serial_check=("mc", "--replicas", "2", "--horizon-ms", "200"),
    ),
    "replay": replace(
        run.WORKLOADS["replay"],
        fixture=(
            "--store", "{fixture}", "--store-format", "json",
            "--campaign-id", "bench", *SMALL_MC,
        ),
    ),  # fmt: skip
}
CATALOGUE = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _run(capsys, argv, expected=None):
    rc = run.main(argv, workloads=SMALL, expected=expected or {}, probes=1)
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, lines, json.loads(lines[-1])


def _assert_metrics_printed(lines, result, declared):
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    for workload in SMALL:
        for spec in declared:
            key = f"{workload}.{spec['name']}"
            printed = [line for line in lines if line.startswith(f"{key} = ")]
            assert len(printed) == 1, key
            assert printed[0].split(" = ")[1].split()[1] == spec["unit"], key
            assert result["metrics"][key]["unit"] == spec["unit"]


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    rc, lines, result = _run(capsys, ["--seconds", "0", "--trace", "0"])
    assert rc == 0
    _assert_metrics_printed(lines, result, CATALOGUE["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_layer_and_adds_up(capsys, tmp_path):
    out = tmp_path / "traced.json"
    rc, lines, result = _run(
        capsys, ["--seconds", "0", "--trace", "1", "--out", str(out)]
    )
    assert rc == 0
    _assert_metrics_printed(lines, result, CATALOGUE["per_layer"])
    assert sum("layers by self time" in line for line in lines) == len(SMALL)
    for record in json.loads(out.read_text())["runs"]:
        traced = [r for r in record["samples"]["repeats"] if r["mode"] == "trace"]
        for repeat in traced:
            assert repeat["trace"]["stack_depth"] == 0
            assert repeat["trace"]["missing"] == []
    ona = result["metrics"]["mc_short.core.ona.CorrelatedJobFailureOna.calls"]
    assert ona["value"] > 0


def test_wrong_expected_digest_fails_the_run(capsys):
    rc, lines, result = _run(
        capsys,
        ["--workload", "mc_short", "--seconds", "0"],
        expected={"mc_short": {"plan_digest": "0" * 64}},
    )
    assert rc == 1
    assert result["correct"] is False
    assert any("CHECK FAILED" in line for line in lines)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "work-*"),
    )  # fmt: skip
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "mc_short"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
