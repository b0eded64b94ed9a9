"""A pooled ``repro mc`` parent never imports the simulator.

With ``--workers 2`` the parent only schedules chunks, appends the
checkpoint ledger and the live log, writes the store part and reduces.
The replicas run in the spawned workers, which import what they
simulate, so the parent's ``sys.modules`` must hold none of the
simulation stack when the run ends.
"""

from __future__ import annotations

from repro.__main__ import main
from tests._sim_free import assert_sim_free

MC = ["mc", "--replicas", "4", "--horizon-ms", "50"]


def _digest_line(out: str) -> str:
    (line,) = [line for line in out.splitlines() if "plan digest" in line]
    return line


def test_pooled_mc_parent_never_imports_the_simulator(tmp_path, capsys):
    ledger = tmp_path / "mc.jsonl"
    store = tmp_path / "store"
    out = assert_sim_free(
        [
            "--workers", "2",
            "--checkpoint", str(ledger),
            "--store", str(store),
            "--live-log", str(tmp_path / "live.jsonl"),
            *MC,
        ]
    )
    assert "[4 replicas, workers=2:" in out
    assert ledger.exists()
    assert len(list(store.rglob("part-*.jsonl"))) == 1
    # The sim-free parent reduced the same campaign a serial run does.
    assert main(["--workers", "1", *MC]) == 0
    assert _digest_line(out) == _digest_line(capsys.readouterr().out)
