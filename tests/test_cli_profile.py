"""``--profile`` prints calls and self time per module for any command.

The command runs under one cProfile in the CLI process and the table
comes from :mod:`repro.obs.profiler`, the fold the call budget reads.
Its rows add up to the profiled time; a pooled run says that the
replicas in worker processes are not in it.
"""

from __future__ import annotations

import re

import pytest

from repro.__main__ import main

TITLE = "Profile: calls and self time per module"
POOLED = "[pooled run: replicas that ran in worker processes are not included"
MC = ["mc", "--replicas", "2", "--horizon-ms", "100"]


def _table(out: str) -> tuple[dict[str, tuple[int, float]], float, float]:
    """The printed rows, ``{module: (calls, self s)}``, and the title's
    row total and profiled seconds."""
    lines = out.splitlines()
    (start,) = [i for i, line in enumerate(lines) if line.startswith(TITLE)]
    total, profiled = re.search(
        r"add up to ([\d.]+) s of ([\d.]+) s profiled", lines[start]
    ).groups()
    rows = {}
    for line in lines[start + 4 :]:
        if line.startswith("+"):
            break
        module, calls, self_s, _share = (
            cell.strip() for cell in line.strip("|").split("|")
        )
        rows[module] = (int(calls), float(self_s))
    return rows, float(total), float(profiled)


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    """Ledger, store and live log of one finished mc run."""
    root = tmp_path_factory.mktemp("profile")
    argv = [
        "--seed", "5",
        "--checkpoint", str(root / "led.jsonl"),
        "--store", str(root / "st"),
        "--live-log", str(root / "live.jsonl"),
        *MC,
    ]
    assert main(argv) == 0
    return root


def test_mc_rows_add_up_to_the_profiled_time(capsys):
    assert main(["--seed", "4", "--profile", *MC]) == 0
    out = capsys.readouterr().out
    rows, total, profiled = _table(out)
    assert rows["components.cluster"][0] > 0
    assert sum(self_s for _calls, self_s in rows.values()) == pytest.approx(
        total, abs=1e-4 * len(rows)
    )
    assert total >= 0.95 * profiled
    assert POOLED not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["demo"],
        ["query", "report", "--store", "{root}/st"],
        ["monitor", "{root}/live.jsonl"],
        ["whatif", "{root}/led.jsonl", "--without-ona", "wearout"],
    ],
    ids=["demo", "query", "monitor", "whatif"],
)
def test_every_command_prints_the_table(artefacts, capsys, argv):
    """``resume`` is covered in ``tests/test_cli_resume.py``."""
    argv = [a.format(root=artefacts) for a in argv]
    assert main(["--profile", *argv]) == 0
    out = capsys.readouterr().out
    assert out.count(TITLE) == 1
    rows, total, _profiled = _table(out)
    assert total > 0 and rows


def test_pooled_run_says_the_table_is_the_parent_only(capsys):
    assert main(["--workers", "2", "--profile", *MC]) == 0
    out = capsys.readouterr().out
    assert out.count(TITLE) == 1
    assert POOLED in out
