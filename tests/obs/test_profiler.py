"""The per-module fold behind ``--profile`` and the call budget."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.obs import profiler
from repro.obs.profiler import IMPORT_ROW, OUTSIDE_ROW, fold, profile_call

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = Path(profiler.__file__).resolve().parents[1]
CLUSTER = str(PACKAGE / "components" / "cluster.py")


def _code(filename: str, name: str) -> SimpleNamespace:
    return SimpleNamespace(co_filename=filename, co_name=name)


def _entry(code, callcount: int, inlinetime: float, calls=None):
    """The shape of one ``cProfile.Profile.getstats()`` entry."""
    return SimpleNamespace(
        code=code, callcount=callcount, inlinetime=inlinetime, calls=calls
    )


def test_fold_books_builtins_to_their_callers():
    on_slot = _code(CLUSTER, "_on_slot")
    listcomp = _code(CLUSTER, "<listcomp>")
    bootstrap = _code("<frozen importlib._bootstrap>", "_load_unlocked")
    generated = _code("<string>", "__init__")
    append = "<method 'append' of 'list' objects>"
    compile_ = "<built-in method builtins.compile>"
    entries = [
        # A Python function's calls list its callees: only builtins count.
        _entry(
            on_slot, 10, 1.0, [_entry(append, 30, 0.25), _entry(listcomp, 10, 0.5)]
        ),
        _entry(listcomp, 10, 0.5),
        _entry(bootstrap, 2, 0.125, [_entry(compile_, 2, 2.0)]),
        _entry(generated, 4, 0.0625),
        # The builtins' own entries: append also ran once with no caller.
        _entry(append, 31, 0.375),
        _entry(compile_, 2, 2.0),
    ]
    profile = fold(entries, wall_s=4.0)
    assert profile.self_s == {
        "components.cluster": 1.0 + 0.25 + 0.5,
        IMPORT_ROW: 0.125 + 2.0,
        OUTSIDE_ROW: 0.0625 + 0.125,
    }
    assert sum(profile.self_s.values()) == sum(e.inlinetime for e in entries)
    # Comprehensions and builtins are not counted as calls.
    assert profile.calls == {
        "components.cluster": 10, IMPORT_ROW: 2, OUTSIDE_ROW: 4
    }
    assert profile.module_calls() == {"components.cluster": 10}
    assert profile.functions[("components.cluster", "_on_slot")] == 10
    assert ("components.cluster", "<listcomp>") not in profile.functions
    table = profile.render("[note]")
    assert "the rows add up to 4.062500 s of 4.000000 s profiled" in table
    assert table.endswith("[note]")


def test_title_total_shows_under_a_millisecond():
    """A profiled command can spend well under 1 ms of self time (a
    warm ``--profile monitor LOG``); its title total must not read 0."""
    run = _code(CLUSTER, "_on_slot")
    table = fold([_entry(run, 1, 0.0004)], wall_s=0.0005).render()
    assert "the rows add up to 0.000400 s of 0.000500 s profiled" in table


@pytest.mark.parametrize(
    "filename, row",
    [
        (CLUSTER, "components.cluster"),
        (str(PACKAGE / "__init__.py"), "repro"),
        (str(PACKAGE / "obs" / "__init__.py"), "obs"),
        ("<frozen importlib._bootstrap_external>", IMPORT_ROW),
        ("<frozen posixpath>", OUTSIDE_ROW),
        (str(Path(os.__file__).resolve()), OUTSIDE_ROW),
    ],
)
def test_rows_are_named_by_file(filename, row):
    (name,) = fold([_entry(_code(filename, "f"), 1, 0.5)], wall_s=1.0).self_s
    assert name == row


def test_profile_call_returns_the_value_and_its_rows():
    from repro.units import ms

    value, profile = profile_call(lambda: ms(3))
    assert value == ms(3)
    assert profile.functions[("units", "ms")] == 1
    assert 0 < sum(profile.self_s.values()) <= profile.wall_s


_NO_PROFILER = """\
import sys
import repro.obs
from repro.__main__ import main
assert main(['mc', '--replicas', '1', '--horizon-ms', '50']) == 0
profilers = ('cProfile', 'pstats', 'repro.obs.profiler')
loaded = [m for m in profilers if m in sys.modules]
assert not loaded, loaded
print('NO-PROFILER-OK')
"""


def test_nothing_imports_the_profiler_without_profile():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_PROFILER],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "NO-PROFILER-OK" in proc.stdout
