"""``repro monitor`` CLI tests, including the sim-free import guarantee.

Like ``repro query``, the monitor answers from its input file alone: a
subprocess runs the real ``python -m repro monitor`` entry point against
a live log and then asserts that none of the simulator modules ever
entered ``sys.modules``.  The one-shot report is additionally pinned
byte for byte against the committed golden.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.__main__ import _build_parser, main
from tests._sim_free import REPO_ROOT, assert_sim_free

DATA = Path(__file__).parent.parent / "data"
GOLDEN_LOG = DATA / "golden_live_log.jsonl"
GOLDEN_REPORT = DATA / "golden_monitor_report.txt"


def test_monitor_subprocess_never_imports_the_simulator():
    """End-to-end ``python -m repro monitor`` on a bare interpreter."""
    out = assert_sim_free(["monitor", str(GOLDEN_LOG)])
    assert "Live campaign telemetry" in out


def test_monitor_one_shot_report_is_byte_stable(capsys):
    assert main(["monitor", str(GOLDEN_LOG)]) == 0
    assert capsys.readouterr().out == GOLDEN_REPORT.read_text(
        encoding="utf-8"
    )


def test_monitor_json_output_is_parseable(capsys):
    assert main(["monitor", str(GOLDEN_LOG), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["replicas_total"] == 8
    assert payload["finished"] is True
    assert payload["stalls"] == 1
    assert payload["replicas_resumed"] == 2
    assert payload["skipped_lines"] == 1


def test_monitor_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["monitor", str(tmp_path / "nope.jsonl")]) == 1
    assert "cannot read live log" in capsys.readouterr().err


def test_monitor_serve_refuses_an_unreadable_log_before_binding(tmp_path):
    """``--serve`` reads the log first: a missing one ends the command
    like the one-shot report does, and no port is bound or announced."""
    missing = tmp_path / "nope.jsonl"
    argv = ["monitor", str(missing), "--serve", "0"]
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"cannot read live log {missing}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, option",
    [
        (["--follow", "--interval", "-1"], "--interval"),
        (["--follow", "--interval", "nan"], "--interval"),
        (["--follow", "--interval", "inf"], "--interval"),
        (["--follow", "--interval", "0"], "--interval"),
        (["--serve", "99999"], "--serve"),
        (["--serve", "65536"], "--serve"),
        (["--serve", "-1"], "--serve"),
    ],
    ids=[
        "negative-interval",
        "nan-interval",
        "inf-interval",
        "zero-interval",
        "port-99999",
        "port-65536",
        "negative-port",
    ],
)
def test_monitor_option_out_of_range_is_a_usage_error(
    tmp_path, capsys, argv, option
):
    """An interval ``time.sleep`` refuses (or one that busy-loops) and a
    port ``bind`` refuses are usage errors: exit 2, nothing on stdout,
    even on an unfinished log that ``--follow`` would keep polling."""
    full = GOLDEN_LOG.read_text(encoding="utf-8").splitlines(keepends=True)
    unfinished = tmp_path / "unfinished.jsonl"
    unfinished.write_text("".join(full[:8]), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["monitor", str(unfinished), *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: " in captured.err


def test_monitor_option_range_limits_are_accepted():
    parser = _build_parser()
    args = parser.parse_args(
        ["monitor", "x.jsonl", "--interval", "0.001", "--serve", "65535"]
    )
    assert (args.interval, args.serve) == (0.001, 65535)
    assert parser.parse_args(["monitor", "x.jsonl", "--serve", "0"]).serve == 0


def test_monitor_renders_partial_progress_from_truncated_log(tmp_path):
    """The SIGKILL story: drop the tail of a live log mid-record and the
    monitor still renders an in-flight report (the CI smoke does the
    same against a genuinely killed run)."""
    full = GOLDEN_LOG.read_text(encoding="utf-8").splitlines(keepends=True)
    truncated = tmp_path / "truncated.jsonl"
    # Keep the first 8 records, then a torn half-line.
    truncated.write_text("".join(full[:8]) + full[8][: len(full[8]) // 2])
    from repro.obs.live import monitor_once

    summary, report = monitor_once(truncated)
    assert summary["finished"] is False
    assert summary["replicas_done"] == 2
    assert summary["skipped_lines"] == 1
    assert "IN FLIGHT" in report
    assert "tolerant tail" in report


def test_monitor_serve_announces_port_and_serves_once(tmp_path, capsys):
    """``repro monitor --serve 0`` binds an ephemeral port, announces
    it, answers one scrape and exits 0."""
    live = tmp_path / "live.jsonl"
    live.write_text(GOLDEN_LOG.read_text(encoding="utf-8"))

    rc: list[int] = []

    def _run():
        rc.append(main(["monitor", str(live), "--serve", "0"]))

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    # The announcement goes to the captured stdout; poll for it.
    import time

    deadline = time.monotonic() + 10.0
    port = None
    while time.monotonic() < deadline and port is None:
        out = capsys.readouterr().out
        for line in out.splitlines():
            if "serving OpenMetrics" in line:
                port = int(line.split("127.0.0.1:")[1].split("/")[0])
        time.sleep(0.02)
    assert port is not None, "server never announced its port"
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=10
    ) as resp:
        body = resp.read().decode("utf-8")
    thread.join(timeout=10)
    assert rc == [0]
    # Rendered from the log alone: its run_finished metrics.
    assert "repro_run_replicas 8" in body
    assert body.endswith("# EOF\n")


# -- obs report --json (satellite) -------------------------------------------


def test_obs_report_json_summarizes_a_trace(tmp_path, capsys):
    from repro.obs.report import counters_record
    from repro.obs.counters import CounterRegistry
    from repro.obs.tracer import write_jsonl

    reg = CounterRegistry()
    reg.inc("sim.events", 10)
    records = [
        {
            "seq": 0,
            "kind": "event",
            "name": "sim.run_until",
            "t_sim_us": 500,
            "t_wall_s": 0.1,
            "attrs": {},
            "replica": 0,
        },
        counters_record(reg.snapshot()),
    ]
    path = write_jsonl(tmp_path / "t.jsonl", records, header_attrs={})
    assert main(["obs", "report", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["by_name"] == {"sim.run_until": 1}
    assert payload["counters"] == {"sim.events": 10}
    # Without --json the rendered text report is unchanged.
    assert main(["obs", "report", str(path)]) == 0
    assert "sim.run_until" in capsys.readouterr().out


def test_obs_report_json_rejects_invalid_trace(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["obs", "report", str(bad), "--json"]) == 1
    assert "invalid obs trace" in capsys.readouterr().out
