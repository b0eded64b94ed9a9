"""Durable chunk-granular checkpoint ledger for campaign runs.

Long Monte-Carlo campaigns (the regime where the paper's §III-E rates
and Fig. 11 accuracies stabilise) must survive faults in their own
runner: a killed process should cost at most the chunks in flight, not
hours of completed replicas.  A run with ``--checkpoint PATH`` or
``--store DIR`` writes each result once, into an append-only JSONL
ledger: the ``--checkpoint`` file, or the store's in-flight file
(:func:`repro.storage.writer.inflight_path`).  With ``--store`` the
closed ledger becomes the store part (:mod:`repro.storage.writer`).

* a **header** line binds the ledger to one campaign — root seed, a
  SHA-256 digest of ``(root_seed, specs)``, replica count, chunk size,
  worker count, plus the CLI's invocation record (``command``,
  ``params`` and ``argv``); ``python -m repro resume PATH`` re-parses
  that ``argv`` to rebuild the exact invocation;
* one **chunk** line per completed chunk — the replica indices, the
  kind of their values and the chunk's results as the declared store
  tables (:mod:`repro.storage.schema`, written by
  :func:`repro.storage.codec.encode`, which only this module calls),
  guarded by a SHA-256 over the tables' canonical JSON.  Each replica
  row carries its seed-stream fingerprint
  (:func:`repro.runtime.seeds.stream_fingerprint`).  Lines are flushed
  and fsynced as they are appended, so a SIGKILL can lose at most the
  line being written;
* **resume** / **close** marker lines recording how each session of the
  campaign started and ended; the close line follows the reduce and
  carries the plan digest and the salvage failures.

Determinism contract
--------------------
The ledger stores *full per-replica values* — per-replica obs counters
and trace records included, in the declared sidecar tables — so a
resumed run hands the reduce exactly the same index-ordered value list
an uninterrupted run would: interrupted-then-resumed ≡ uninterrupted ≡
``workers=1``, bit for bit, including canonical obs digests.

Robustness
----------
The line format, its checks and its reader live in
:mod:`repro.storage.ledger`.  Nothing in a ledger is ever unpickled:
results are decoded by :func:`repro.storage.codec.decode`.  Loading
tolerates a truncated or corrupted tail — a chunk line that is not a
JSON object, fails its checksum, breaks the declared schema or carries
a replica bound to the wrong seed stream is skipped (and counted), and
the replicas it covered are simply re-executed; a resume first rewrites
the file without the skipped lines.  A header that does not match the
campaign being resumed raises :class:`~repro.errors.ConfigurationError`
instead of silently mixing two experiments, and so does a ledger of
another format version.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.runtime.runner import ReplicaFailure, ReplicaResult

# The storage package (line format, codec) is imported where it is
# used: ``repro.runtime`` imports this module, and runs without a ledger
# must not pay for loading it.

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


@dataclass(slots=True)
class CheckpointLedger:
    """Appender half of the ledger; one instance per runner session."""

    path: Path
    root_seed: int
    replicas: int
    spec_digest: str
    chunks_written: int = 0

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
        invocation: dict[str, Any] | None = None,
    ) -> tuple["CheckpointLedger", dict[int, ReplicaResult]]:
        """Open the ledger for one runner session.

        Fresh runs (or ``resume`` against a missing file) truncate and
        write a new header, which carries the ``invocation`` record's
        keys (``command``/``params``/``argv``) beside the campaign
        identity; resumes validate the existing header against the
        campaign, atomically drop the lines the tolerant read skipped
        and return the replica results already covered.
        """
        from repro.storage import ledger as line_format

        path = Path(path)
        digest = spec_digest(root_seed, specs)
        ledger = cls(path, int(root_seed), len(specs), digest)
        if resume and path.exists():
            state = line_format.read_ledger(path, tolerant=True, decode=True)
            meta = state.header
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
            if state.skipped:
                with line_format.replacing(path) as tmp:
                    line_format.append_lines(tmp, meta, *state.lines)
            sessions = 1 + sum(r.get("kind") == "resume" for r in state.lines)
            ledger._append(
                {
                    "kind": "resume",
                    "session": sessions + 1,
                    "loaded": len(state.results),
                    "skipped_lines": state.skipped,
                    "wall": time.time(),
                }
            )
            return ledger, state.results
        header = {
            **(invocation or {}),
            "kind": "header",
            "version": line_format.LEDGER_VERSION,
            "root_seed": int(root_seed),
            "replicas": len(specs),
            "chunk_size": int(chunk_size),
            "workers": int(workers),
            "spec_digest": digest,
            "wall": time.time(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("", encoding="utf-8")  # truncate stale ledger
        ledger._append(header)
        return ledger, {}

    def append_chunk(self, results: Sequence[ReplicaResult]) -> None:
        """Durably record one completed chunk of replica results."""
        from repro.storage.codec import encode
        from repro.storage.ledger import chunk_line

        kind, tables = encode(results, self.root_seed)
        self._append(
            chunk_line(
                kind,
                tables,
                chunk=self.chunks_written,
                indices=[r.index for r in results],
                wall=time.time(),
            )
        )
        self.chunks_written += 1

    def close(
        self,
        *,
        completed: int,
        failures: Sequence[ReplicaFailure] = (),
        plan_digest: str | None = None,
    ) -> None:
        """Record how this session ended, after its reduce: replicas
        with a result (resumed ones included), the salvage ``failures``
        and the reduced value's plan digest, if it has one."""
        from repro.storage.codec import encode

        _kind, tables = encode((), self.root_seed, failures)
        self._append(
            {
                "kind": "close",
                "plan_digest": plan_digest,
                "completed": int(completed),
                "failed": len(failures),
                "complete": completed == self.replicas and not failures,
                "failures": tables["failures"],
                "wall": time.time(),
            }
        )

    # -- internals --------------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        from repro.storage.ledger import append_lines

        append_lines(self.path, record)
