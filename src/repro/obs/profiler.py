"""Calls and self time per ``repro`` module from one cProfile run.

One fold serves both profilers: the CLI's ``--profile`` prints
:meth:`ModuleProfile.render` for any command, and
``benchmarks/call_counts.py`` reads its per-module call counts for the
tier-1 call budget (``tests/perf/test_call_budget.py``).

A Python function's row is its file's: a file of this ``repro`` package
is named like ``components.cluster`` (``repro`` for the package's
``__init__``), the frozen ``importlib`` bootstrap is ``<import/compile>``
and all other code (the standard library, NumPy, the methods
``dataclasses`` and ``namedtuple`` generate) is ``<outside repro>``.  A
builtin's self time goes to the row of the function that called it, so
an import's ``compile`` lands in ``<import/compile>`` and a
``list.append`` in ``diagnosis.detector`` in that module.  Every second
of self time lands in one row: the rows add up to the profiled time.

Calls count Python functions only, and not comprehensions
(``<listcomp>``, ``<dictcomp>``, ``<setcomp>``), which CPython 3.12
inlines (PEP 709); their self time still counts.  ``cProfile`` is
imported only by :func:`profile_call`.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any, TypeVar

T = TypeVar("T")

IMPORT_ROW = "<import/compile>"
OUTSIDE_ROW = "<outside repro>"

#: Code objects CPython 3.12 inlines into their enclosing function.
INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

_IMPORT_FILES = frozenset(
    {"<frozen importlib._bootstrap>", "<frozen importlib._bootstrap_external>"}
)

#: The directory of the ``repro`` package this module belongs to.
_PACKAGE = Path(__file__).resolve().parent.parent


def _row_of(filename: str) -> str:
    """``components.cluster`` for a file of the package, else its row."""
    if filename in _IMPORT_FILES:
        return IMPORT_ROW
    path = Path(filename)
    if not path.is_absolute():
        return OUTSIDE_ROW
    try:
        parts = path.resolve().relative_to(_PACKAGE).with_suffix("").parts
    except ValueError:
        return OUTSIDE_ROW
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "repro"


@dataclass(frozen=True, slots=True)
class ModuleProfile:
    """Calls and self time per row of one profiled run."""

    #: Calls of each row's Python functions, comprehensions left out.
    calls: dict[str, int]
    #: Self seconds of each row's functions and of the builtins they call.
    self_s: dict[str, float]
    #: Calls per ``(row, function name)``, comprehensions left out.
    functions: dict[tuple[str, str], int]
    #: Wall seconds from the start of the profiler to its stop.
    wall_s: float

    def module_calls(self) -> dict[str, int]:
        """Calls per ``repro`` module: the two other rows left out."""
        return {r: n for r, n in self.calls.items() if not r.startswith("<")}

    def render(self, note: str | None = None) -> str:
        """The rows, largest self time first, then ``note``."""
        from repro.analysis.reports import render_table

        total = sum(self.self_s.values())
        whole = total or 1.0
        table = render_table(
            ["module", "calls", "self [s]", "share"],
            [
                [row, self.calls.get(row, 0), f"{s:.4f}", f"{s / whole:.1%}"]
                for row, s in sorted(self.self_s.items(), key=lambda i: -i[1])
            ],
            title=(
                f"Profile: calls and self time per module; the rows add up "
                f"to {total:.6f} s of {self.wall_s:.6f} s profiled"
            ),
        )
        return table if note is None else f"{table}\n{note}"


def fold(entries: Iterable[Any], wall_s: float) -> ModuleProfile:
    """Book every entry of ``cProfile.Profile.getstats()`` to its row.

    These are the profiler's own entries, one per code object.
    ``pstats`` keys them by file, line and name instead, so the methods
    ``dataclasses`` and ``namedtuple`` generate (all in file
    ``<string>``) would overwrite one another and drop their time.
    """
    rows: dict[str, str] = {}
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    functions: Counter[tuple[str, str]] = Counter()
    unbooked = 0.0  # builtin self time that no profiled caller took
    for entry in entries:
        code = entry.code
        if isinstance(code, str):  # a builtin: its callers book it below
            unbooked += entry.inlinetime
            continue
        row = rows.get(code.co_filename)
        if row is None:
            row = rows[code.co_filename] = _row_of(code.co_filename)
        self_s[row] += entry.inlinetime
        for callee in entry.calls or ():
            if isinstance(callee.code, str):  # a builtin called from here
                self_s[row] += callee.inlinetime
                unbooked -= callee.inlinetime
        if code.co_name not in INLINED:
            calls[row] += entry.callcount
            functions[row, code.co_name] += entry.callcount
    if unbooked > 0:
        self_s[OUTSIDE_ROW] += unbooked
    return ModuleProfile(dict(calls), dict(self_s), dict(functions), wall_s)


def profile_call(fn: Callable[[], T]) -> tuple[T, ModuleProfile]:
    """Run ``fn()`` under one ``cProfile.Profile``; its value and fold.

    A process runs one profiler at a time: on CPython 3.12 starting a
    second one while the first runs raises ``ValueError``.
    """
    import cProfile

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        value = fn()
    finally:
        profiler.disable()
    wall_s = time.perf_counter() - start
    return value, fold(profiler.getstats(), wall_s)
