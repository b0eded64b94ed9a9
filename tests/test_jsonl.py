"""The one JSON-lines reader behind the ledger, live log and obs trace."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.jsonl import read_json_lines

MIXED = b'{"a": 1}\n\n[1, 2]\nnot json\n\xff\xfe\n{"b": 2}\n{"torn": '


def test_tolerant_mode_skips_and_counts_non_objects(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_bytes(MIXED)
    entries, skipped = read_json_lines(path, tolerant=True)
    assert entries == [(1, {"a": 1}), (6, {"b": 2})]
    assert skipped == 4  # array, text, bad UTF-8, torn tail; blank ignored


@pytest.mark.parametrize(
    "raw, message",
    [
        (b'{"a": 1}\n\n{"torn": ', "line 3 is not valid JSON"),
        (b'{"a": 1}\n\xff\n', "line 2 is not valid JSON"),
    ],
    ids=["blank-lines-still-counted", "bad-utf8"],
)
def test_strict_mode_names_the_line(tmp_path, raw, message):
    """Strict mode reports the file's own line number (test_explain
    covers the non-object case), and bad UTF-8 is a ConfigurationError,
    not a UnicodeDecodeError traceback."""
    path = tmp_path / "bad.jsonl"
    path.write_bytes(raw)
    with pytest.raises(ConfigurationError, match=message):
        read_json_lines(path, tolerant=False)


def test_missing_file_is_an_os_error(tmp_path):
    for tolerant in (False, True):
        with pytest.raises(OSError):
            read_json_lines(tmp_path / "nope.jsonl", tolerant=tolerant)
