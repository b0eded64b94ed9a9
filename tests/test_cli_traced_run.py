"""The CLI over one traced, pooled ``mc`` run that writes a live log.

* **One exposition path.**  The run's ``PATH.prom`` snapshot, the
  OpenMetrics rendering of its live log's fold and the body of a
  ``repro monitor PATH --serve 0`` scrape are the same text, and it
  holds the merged counters (``run_finished`` carries them).
* **A reader that closes early.**  ``repro explain T | head -1`` and
  ``repro explain T --json | head -c 10`` end quietly: exit status 1
  and nothing on stderr.
"""

from __future__ import annotations

import os
import subprocess
import sys
import urllib.request

import pytest

from repro.__main__ import main
from repro.obs.live import read_live_log, summarize_live
from repro.obs.openmetrics import render_openmetrics
from tests._sim_free import REPO_ROOT

ENV = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """``(live log, trace)`` of ``--seed 11 --workers 2 mc --replicas 6
    --horizon-ms 600`` with ``--trace`` and ``--provenance``."""
    out = tmp_path_factory.mktemp("traced-run")
    live, trace = out / "live.jsonl", out / "trace.jsonl"
    argv = ["--seed", "11", "--workers", "2", "--live-log", str(live)]
    argv += ["--trace", str(trace), "--provenance"]
    assert main([*argv, "mc", "--replicas", "6", "--horizon-ms", "600"]) == 0
    return live, trace


def _scrape_monitor_serve(live) -> str:
    """Body of the one scrape ``python -m repro monitor LIVE --serve 0``
    answers."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "monitor", str(live), "--serve", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=ENV,
    )
    try:
        announce = proc.stdout.readline()
        port = int(announce.split("127.0.0.1:")[1].split("/")[0])
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=30
        ) as resp:
            body = resp.read().decode("utf-8")
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.stdout.close()
    return body


def test_prom_snapshot_and_serve_scrape_are_one_rendering_of_the_log(
    traced_run,
):
    live, _trace = traced_run
    prom = live.with_name(live.name + ".prom").read_text(encoding="utf-8")
    summary = summarize_live(read_live_log(live)[0])
    assert summary["finished"] is True
    assert summary["counters"]["counters"]
    assert prom == render_openmetrics(summary)
    assert any(
        line.startswith("repro_provenance_chains_total{")
        for line in prom.splitlines()
    )
    assert _scrape_monitor_serve(live) == prom


@pytest.mark.parametrize(
    "flags, take, first",
    [
        ([], lambda out: out.readline(), b"F0001 "),  # | head -1
        (["--json"], lambda out: out.read(10), b'{"chains":'),  # | head -c 10
    ],
    ids=["text", "json"],
)
def test_explain_into_a_reader_that_closes_early_exits_quietly(
    traced_run, flags, take, first
):
    """The reader takes the head of the output and closes the pipe while
    ``explain`` still has more to write than the pipe holds."""
    _live, trace = traced_run
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "explain", str(trace), *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,  # unbuffered: the reader takes exactly its head
        env=ENV,
    )
    head = take(proc.stdout)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head.startswith(first)
    assert err == b""
