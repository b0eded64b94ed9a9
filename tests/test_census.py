"""Census of the code no claim needs.

The paper's claims are reproduced by the CLI's commands, the benchmarks
and the examples.  A definition in ``src/`` that none of them reaches
backs no claim.  The rule: delete a definition when no command,
benchmark or example reaches it and the only tests that name it are
tests of that definition, and delete those tests with it.  Keep, with
the reason in :data:`ALLOWED`:

- a definition that pins a paper claim;
- a fixture or accessor that tests use to drive or observe other code
  (deleting it would only move its code into the tests);
- a reference that a test compares against;
- a hook that the standard library calls by name.

The static census below is that rule's cheap half.  A definition is
*test-only* when its name occurs in ``src/``, ``benchmarks/`` and
``examples/`` only at its own definition(s); dunder methods are called
by the interpreter and are skipped.  The test requires the test-only
set to equal :data:`ALLOWED`, so a new test-only definition fails here
by name, and an entry whose definition is gone or reached fails too.

A name shared with reached code hides a dead definition from the static
census (``RunMetrics.from_dict`` hid behind ``Histogram.from_dict``).
The dynamic census finds such leads; it runs on demand, not in tier-1.
Run commands serially under the stdlib tracer, one listing each::

    PYTHONPATH=src python -m trace --listfuncs --module repro \\
        --workers 1 demo > demo.calls
    PYTHONPATH=src python -m trace --listfuncs examples/quickstart.py \\
        > quickstart.calls

then ``python tests/test_census.py *.calls`` prints each ``src/``
function that no listing names.  Pool workers are not traced, and
methods of one name in one file count as one, so confirm each lead by
grep before deleting anything.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REACHING = ("src", "benchmarks", "examples")

ALLOWED = {
    "views_consistent": (
        "pins claim C4 (consistent membership): the membership and "
        "long-run tests assert it"
    ),
    "counter_behaviour": (
        "fixture: the job, component and cluster tests drive jobs with it"
    ),
    "is_member": (
        "accessor: tests/integration/test_long_run.py observes membership "
        "through it"
    ),
    "removal_count": (
        "accessor: the membership and long-run tests observe removals "
        "through it"
    ),
    "add_link": (
        "fixture: the slot-pipeline equivalence test routes its virtual "
        "networks with it"
    ),
    "is_safety_critical": (
        "accessor: tests/test_presets.py reads the avionics preset's "
        "safety-critical DASs through it"
    ),
    "queue_length": (
        "accessor: the port and job tests observe push, drain and "
        "drain_inputs through it"
    ),
    "persisted_us": (
        "accessor: the OBD baseline test checks the record threshold of "
        "a trouble code through it"
    ),
    "do_GET": "http.server hook: the monitor's scrape handler",
    "log_message": "http.server hook: silences the monitor's access log",
}


def _definitions() -> dict[str, list[tuple[Path, int, int]]]:
    """Every function and class defined in ``src/``, by name."""
    found: dict[str, list[tuple[Path, int, int]]] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                found.setdefault(node.name, []).append(
                    (path, node.lineno, node.end_lineno)
                )
    return found


def static_census() -> set[str]:
    """Names defined in ``src/`` that nothing outside ``tests/`` names."""
    names: Counter[str] = Counter()
    for top in REACHING:
        for path in (ROOT / top).rglob("*.py"):
            names.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return {
        name
        for name, places in _definitions().items()
        if not (name.startswith("__") and name.endswith("__"))
        and names[name] <= len(places)
    }


def test_test_only_definitions_are_the_allow_list():
    found = static_census()
    unlisted = sorted(found - set(ALLOWED))
    stale = sorted(set(ALLOWED) - found)
    assert not unlisted and not stale, (
        f"test-only definitions not in ALLOWED (delete them with their "
        f"tests, or list them with a reason): {unlisted}; "
        f"ALLOWED entries that are gone or now reached: {stale}"
    )
    assert all(reason.strip() for reason in ALLOWED.values())


def _never_listed(listings: list[Path]) -> list[str]:
    """``src/`` functions that no ``trace --listfuncs`` listing names."""
    called = set()
    for listing in listings:
        called.update(
            re.findall(
                r"filename: (.+?), modulename: .+?, funcname: (\S+)",
                listing.read_text(encoding="utf-8"),
            )
        )
    # A listing names a method with or without its class.
    called = {
        (str(Path(f).resolve()), name.rpartition(".")[2]) for f, name in called
    }
    return sorted(
        f"{path.relative_to(ROOT)}:{first} {name} ({last - first + 1} lines)"
        for name, places in _definitions().items()
        for path, first, last in places
        if (str(path), name) not in called
    )


if __name__ == "__main__":
    for line in _never_listed([Path(arg) for arg in sys.argv[1:]]):
        print(line)
