"""Durable chunk-granular checkpoint ledger for campaign runs.

Long Monte-Carlo campaigns (the regime where the paper's §III-E rates
and Fig. 11 accuracies stabilise) must survive faults in their own
runner: a killed process should cost at most the chunks in flight, not
hours of completed replicas.  The ledger is an append-only JSONL file
written next to the campaign:

* a **header** line binds the ledger to one campaign — root seed, a
  SHA-256 digest of ``(root_seed, specs)``, replica count, chunk size,
  worker count, plus optional CLI provenance (``command``/``params``)
  that lets ``python -m repro resume PATH`` rebuild the exact
  invocation;
* one **chunk** line per completed chunk — the replica indices, the
  kind of their values and the chunk's results as the declared store
  tables (:mod:`repro.storage.schema`, written by
  :func:`repro.storage.codec.encode`), guarded by a SHA-256 over the
  tables' canonical JSON.  Each replica row carries its seed-stream
  fingerprint (:func:`repro.runtime.seeds.stream_fingerprint`).  Lines
  are flushed and fsynced as they are appended, so a SIGKILL can lose at
  most the line being written;
* **resume** / **close** marker lines recording how each session of the
  campaign started and ended (ledger provenance).

Determinism contract
--------------------
The ledger stores *full per-replica values* — per-replica obs counters
and trace records included, in the declared sidecar tables — so a
resumed run hands the reduce exactly the same index-ordered value list
an uninterrupted run would: interrupted-then-resumed ≡ uninterrupted ≡
``workers=1``, bit for bit, including canonical obs digests.

Robustness
----------
Nothing in a ledger is ever unpickled: results are decoded by
:func:`repro.storage.codec.decode`, the decoder ``repro whatif`` uses
for ledgers and store parts alike.  Loading tolerates a truncated or
corrupted tail — a chunk line that is not a JSON object, fails its
checksum, breaks the declared schema or carries a replica bound to the
wrong seed stream is skipped (and counted), and the replicas it covered
are simply re-executed.  A header that does not match the campaign
being resumed raises :class:`~repro.errors.ConfigurationError` instead
of silently mixing two experiments, and so does a ledger of another
format version.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.jsonl import read_json_lines
from repro.obs import state as _obs_state
from repro.runtime.runner import ReplicaResult

# The storage codec is imported where it is used: ``repro.runtime``
# imports this module, and runs without a ledger must not pay for
# loading the storage package.

#: Ledger format version.  Version 1 ledgers held pickled results; they
#: are refused, never loaded.
LEDGER_VERSION = 2

#: Pickle protocol pinned so spec digests are stable across sessions.
_PICKLE_PROTOCOL = 4


def spec_digest(root_seed: int, specs: Sequence[Any]) -> str:
    """SHA-256 fingerprint of the campaign identity.

    Pickle is deterministic for the plain-data specs the runner accepts
    (dataclasses of scalars/tuples), and the protocol is pinned, so the
    digest is stable across interpreter sessions of the same code.  The
    bytes are only hashed, never stored or loaded.
    """
    payload = pickle.dumps(
        (int(root_seed), list(specs)), protocol=_PICKLE_PROTOCOL
    )
    return hashlib.sha256(payload).hexdigest()


def chunk_checksum(tables: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of one chunk's tables."""
    from repro.storage.codec import canonical_json

    return hashlib.sha256(canonical_json(tables).encode("utf-8")).hexdigest()


def _obs_event(name: str, **attrs: Any) -> None:
    """Emit a checkpoint span event when an obs context is active."""
    obs = _obs_state.ACTIVE
    if obs is not None and obs.enabled:
        obs.tracer.event(name, **attrs)


def _decode_chunk(
    record: dict[str, Any], root_seed: int, where: str
) -> dict[int, ReplicaResult]:
    """The results of one chunk line; ConfigurationError if untrusted."""
    from repro.storage.codec import decode
    from repro.storage.schema import PART_KINDS, check_table, tables_for_kind

    tables = record.get("tables")
    kind = record.get("value_kind")
    if not isinstance(tables, dict) or kind not in PART_KINDS:
        raise ConfigurationError(f"{where}: no tables of a declared kind")
    if record.get("sha256") != chunk_checksum(tables):
        raise ConfigurationError(f"{where}: checksum mismatch")
    if sorted(tables) != sorted(tables_for_kind(kind)):
        raise ConfigurationError(f"{where}: not the tables of kind {kind!r}")
    for name, columns in tables.items():
        check_table(name, columns, where)
    return decode(kind, tables, root_seed)


@dataclass(frozen=True, slots=True)
class LedgerState:
    """Everything a resume needs from an existing ledger file."""

    meta: dict[str, Any]
    results_by_index: dict[int, ReplicaResult]
    sessions: int
    skipped_lines: int = 0


def _read_ledger(
    path: Path,
) -> tuple[dict[str, Any], list[tuple[int, dict[str, Any]]], int]:
    """``(header, later lines, skipped lines)`` of a ledger file.

    The first line must be a header object of this format version;
    every later line is best-effort (:func:`repro.jsonl.read_json_lines`
    in tolerant mode).
    """
    try:
        entries, skipped = read_json_lines(path, tolerant=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot read ledger {path}: {exc}") from exc
    if not entries and not skipped:
        raise ConfigurationError(f"ledger {path} is empty")
    lineno, meta = entries[0] if entries else (0, {})
    if lineno != 1 or meta.get("kind") != "header":
        raise ConfigurationError(
            f"ledger {path} does not start with a header line"
        )
    version = meta.get("version")
    if version != LEDGER_VERSION:
        raise ConfigurationError(
            f"ledger {path} has format version {version!r}; this build "
            f"reads version {LEDGER_VERSION} only (version 1 ledgers hold "
            "pickled results, which are never loaded) — re-run the "
            "campaign to write a new ledger"
        )
    for key in ("root_seed", "replicas"):
        if type(meta.get(key)) is not int:
            raise ConfigurationError(
                f"ledger {path} header field {key!r} is {meta.get(key)!r}"
            )
    return meta, entries[1:], skipped


def load_ledger(path: str | Path) -> LedgerState:
    """Parse a ledger, tolerating a truncated or corrupted tail.

    The header must be the first line (a campaign cannot be identified
    without it); every later line is best-effort — bad chunk lines are
    skipped and counted, duplicate replica indices keep the first
    occurrence.
    """
    path = Path(path)
    meta, entries, skipped = _read_ledger(path)
    root_seed = meta["root_seed"]
    replicas = meta["replicas"]
    results_by_index: dict[int, ReplicaResult] = {}
    sessions = 1
    for lineno, record in entries:
        kind = record.get("kind")
        if kind == "resume":
            sessions += 1
            continue
        if kind != "chunk":
            continue
        try:
            results = _decode_chunk(record, root_seed, f"{path}:{lineno}")
        except ConfigurationError:
            skipped += 1  # untrusted chunk — its replicas re-execute
            continue
        for index, result in results.items():
            if 0 <= index < replicas and index not in results_by_index:
                results_by_index[index] = result
    return LedgerState(
        meta=meta,
        results_by_index=results_by_index,
        sessions=sessions,
        skipped_lines=skipped,
    )


def read_header(path: str | Path) -> dict[str, Any]:
    """The validated header line alone (``repro resume`` dispatch)."""
    return _read_ledger(Path(path))[0]


@dataclass(slots=True)
class CheckpointLedger:
    """Appender half of the ledger; one instance per runner session."""

    path: Path
    root_seed: int
    replicas: int
    chunks_written: int = 0
    _closed: bool = field(default=False, repr=False)
    #: Optional ``on_flush(indices)`` callback invoked *after* a chunk
    #: line is durably on disk (post-fsync) — the live event bus hangs
    #: its ``checkpoint_flushed`` record here so the telemetry can never
    #: claim durability the ledger has not delivered yet.
    on_flush: Any = field(default=None, repr=False)

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        root_seed: int,
        specs: Sequence[Any],
        chunk_size: int,
        workers: int,
        resume: bool,
        command: str | None = None,
        params: dict[str, Any] | None = None,
    ) -> tuple["CheckpointLedger", dict[int, ReplicaResult]]:
        """Open the ledger for one runner session.

        Fresh runs (or ``resume`` against a missing file) truncate and
        write a new header; resumes validate the existing header against
        the campaign and return the replica results already covered.
        """
        path = Path(path)
        digest = spec_digest(root_seed, specs)
        preloaded: dict[int, ReplicaResult] = {}
        ledger = cls(path=path, root_seed=int(root_seed), replicas=len(specs))
        if resume and path.exists():
            state = load_ledger(path)
            meta = state.meta
            mismatches = [
                f"{key}: ledger has {meta.get(key)!r}, run has {value!r}"
                for key, value in (
                    ("root_seed", int(root_seed)),
                    ("replicas", len(specs)),
                    ("spec_digest", digest),
                )
                if meta.get(key) != value
            ]
            if mismatches:
                raise ConfigurationError(
                    f"checkpoint ledger {path} does not match this "
                    "campaign — " + "; ".join(mismatches)
                )
            preloaded = state.results_by_index
            ledger._append(
                {
                    "kind": "resume",
                    "session": state.sessions + 1,
                    "loaded": len(preloaded),
                    "skipped_lines": state.skipped_lines,
                    "wall": time.time(),
                }
            )
            _obs_event(
                "checkpoint.resume",
                path=str(path),
                loaded=len(preloaded),
                skipped_lines=state.skipped_lines,
            )
        else:
            header = {
                "kind": "header",
                "version": LEDGER_VERSION,
                "root_seed": int(root_seed),
                "replicas": len(specs),
                "chunk_size": int(chunk_size),
                "workers": int(workers),
                "spec_digest": digest,
                "wall": time.time(),
            }
            if command is not None:
                header["command"] = command
            if params is not None:
                header["params"] = params
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("", encoding="utf-8")  # truncate stale ledger
            ledger._append(header)
            _obs_event(
                "checkpoint.open", path=str(path), replicas=len(specs)
            )
        return ledger, preloaded

    def append_chunk(self, results: Sequence[ReplicaResult]) -> None:
        """Durably record one completed chunk of replica results."""
        from repro.storage.codec import encode

        kind, tables = encode(results, self.root_seed)
        indices = [r.index for r in results]
        self._append(
            {
                "kind": "chunk",
                "chunk": self.chunks_written,
                "indices": indices,
                "value_kind": kind,
                "tables": tables,
                "sha256": chunk_checksum(tables),
                "wall": time.time(),
            }
        )
        self.chunks_written += 1
        if self.on_flush is not None:
            self.on_flush(indices)
        _obs_event(
            "checkpoint.chunk", path=str(self.path), indices=indices
        )

    def close(self, *, completed: int, failed: int) -> None:
        """Record how this session ended (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._append(
            {
                "kind": "close",
                "completed": int(completed),
                "failed": int(failed),
                "complete": completed >= self.replicas,
                "wall": time.time(),
            }
        )
        _obs_event(
            "checkpoint.close",
            path=str(self.path),
            completed=completed,
            failed=failed,
        )

    # -- internals --------------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        # Compact item separators keep chunk lines small; the ": " key
        # separator keeps lines greppable as '"kind": "chunk"'.
        line = json.dumps(record, sort_keys=True, separators=(",", ": "))
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
