"""Spawn-safe parallel replica runner with deterministic reduce.

:class:`ParallelCampaignRunner` fans N independent replicas of a
simulation task out over a ``multiprocessing`` worker pool (``spawn``
start method, so it behaves identically on Linux/macOS/Windows and never
inherits a half-initialised interpreter via ``fork``) and merges the
results into one aggregate.

Determinism contract
--------------------
The aggregate is a pure function of ``(root_seed, specs)``:

* each replica's randomness derives from
  :func:`repro.runtime.seeds.replica_sequence` keyed by the replica
  index — never by worker id, chunk id or completion order;
* results are collected keyed by index and handed to the reduce
  callable sorted by index.

Hence ``workers=1`` and ``workers=64`` produce bit-identical aggregates,
which the test suite asserts (``tests/runtime/``).  The same contract
extends to interruption: a run that is killed and resumed from its
checkpoint ledger reduces to the identical aggregate (see
:mod:`repro.runtime.checkpoint`).

Fault tolerance
---------------
Work is submitted in chunks.  Three failure modes are handled:

* **Worker crash** (OOM-kill, segfault in a native extension, hard
  ``os._exit``): the pool breaks.  The runner drains every future that
  did complete — a chunk is popped from ``pending`` *before* its results
  are recorded and results are deduplicated by replica index, so a crash
  interleaved with successful siblings in the same wait batch can never
  duplicate or lose a replica — then rebuilds the pool and resubmits
  only the chunks that never reported, with exponential backoff between
  attempts.
* **Replica exception**: a task that raises inside a worker no longer
  aborts the pool.  The exception is captured as a structured
  :class:`ReplicaFailure` and the replica is retried (same bounded
  backoff schedule).
* **Retry exhaustion**: governed by ``on_exhausted`` — ``"serial"``
  (default) finishes the survivors in the parent process so a run always
  completes; ``"salvage"`` gives up on the failed replicas and returns a
  partial outcome with an explicit completeness report instead of
  stalling, which is what long unattended campaigns want.

The task callable must be defined at module top level (spawn pickles it
by reference) and must accept one :class:`ReplicaTask` argument.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback as _traceback
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as wait_exited
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import SimulationError
from repro.runtime.metrics import RunMetrics
from repro.runtime.seeds import replica_rng, replica_sequence, replica_state_seed

#: Hard ceiling on worker processes (guards against misconfiguration).
MAX_WORKERS = 64

#: Worker label of the in-process serial path (``workers=1``).
SERIAL_WORKER = "serial"

#: Worker label of the post-retry fallback executing in the parent.  It
#: is deliberately distinct from both :data:`SERIAL_WORKER` and the
#: ``pid-*`` labels of pool workers so busy-time accounting can never
#: merge parent compute with a (possibly pid-reused) pre-crash worker.
FALLBACK_WORKER = "serial-fallback"

#: Retry-exhaustion policies (see class docstring).
EXHAUSTION_POLICIES = ("serial", "salvage")


@dataclass(frozen=True, slots=True)
class RunOptions:
    """How one campaign runs: built once, passed unopened to the runner.

    The CLI builds one value from its parsed global options; the
    workload functions hand it to :class:`ParallelCampaignRunner` as is.
    Every field is validated here, so a bad value fails before any
    simulation.

    ``workers`` processes (``1`` runs serially in-process: no pool, no
    pickling); ``chunk_size`` replicas per submitted chunk (by default
    about four chunks per worker, which amortises submission overhead
    while keeping crash blast radius and tail latency small);
    ``on_exhausted`` after retry exhaustion: ``"serial"`` finishes
    unrecovered chunks in the parent, ``"salvage"`` returns a partial
    :class:`RunOutcome` with a completeness report.  The ledger
    (``checkpoint``/``resume``), store (``store``/``campaign_id``) and
    ``live_log`` are described under :meth:`ParallelCampaignRunner.run`.
    ``invocation`` is the CLI's record of the run, ``{"command",
    "params", "argv"}``: the ledger header keeps all three (``repro
    resume`` re-parses the ``argv``), the live log ``command``.
    """

    workers: int = 1
    chunk_size: int | None = None
    on_exhausted: str = "serial"
    checkpoint: str | Path | None = None
    resume: bool = False
    store: str | Path | None = None
    campaign_id: str = "default"
    live_log: str | Path | None = None
    invocation: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.workers > MAX_WORKERS:
            raise ValueError(
                f"workers must be <= {MAX_WORKERS}, got {self.workers}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.on_exhausted not in EXHAUSTION_POLICIES:
            raise ValueError(
                f"on_exhausted must be one of {EXHAUSTION_POLICIES}, "
                f"got {self.on_exhausted!r}"
            )
        if self.store is not None:
            # A bad campaign id or a store root that cannot be a
            # directory must fail now, not when write_run runs after
            # hours of simulation.
            from repro.storage.writer import prepare_store

            prepare_store(self.store, self.campaign_id)


@dataclass(frozen=True, slots=True)
class ReplicaTask:
    """One unit of work: replica index, root seed and the task spec."""

    index: int
    root_seed: int
    spec: Any = None

    def sequence(self) -> np.random.SeedSequence:
        """This replica's independent seed sequence."""
        return replica_sequence(self.root_seed, self.index)

    def rng(self) -> np.random.Generator:
        """A fresh generator on this replica's stream."""
        return replica_rng(self.root_seed, self.index)

    def state_seed(self) -> int:
        """Scalar seed for ``seed: int`` APIs (cluster presets)."""
        return replica_state_seed(self.root_seed, self.index)


@dataclass(frozen=True, slots=True)
class ReplicaResult:
    """Outcome of one replica plus execution accounting."""

    index: int
    value: Any
    events: int
    elapsed_s: float
    worker: str


@dataclass(frozen=True, slots=True)
class ReplicaFailure:
    """Structured record of a replica that produced no value.

    Either the task raised (``error_type``/``message``/``traceback``
    carry the exception) or the worker executing it died
    (``error_type == "WorkerCrash"``).  ``attempts`` counts how many
    times the replica was tried before the runner gave up on it.
    """

    index: int
    error_type: str
    message: str
    traceback: str
    attempts: int
    worker: str

    def describe(self) -> str:
        return (
            f"replica {self.index}: {self.error_type}: {self.message} "
            f"(after {self.attempts} attempt(s) on {self.worker})"
        )


@dataclass(frozen=True, slots=True)
class RunOutcome:
    """Reduced aggregate plus per-replica results and run metrics.

    ``failures`` is non-empty only under the ``"salvage"`` exhaustion
    policy: the aggregate then covers the completed replicas only and
    :meth:`completeness` states exactly what is missing.
    """

    value: Any
    results: tuple[ReplicaResult, ...]
    metrics: RunMetrics
    failures: tuple[ReplicaFailure, ...] = ()

    @property
    def complete(self) -> bool:
        """True when every requested replica produced a result."""
        return not self.failures

    def values(self) -> list[Any]:
        """Replica values in index order."""
        return [r.value for r in self.results]

    def completeness(self) -> dict[str, Any]:
        """Explicit salvage report: what completed, what was lost."""
        expected = self.metrics.replicas
        return {
            "complete": self.complete,
            "replicas_expected": expected,
            "replicas_completed": len(self.results),
            "replicas_failed": len(self.failures),
            "failed_indices": [f.index for f in self.failures],
            "failures": [f.describe() for f in self.failures],
        }


def _exit_with_parent() -> None:
    """Pool-worker initializer: the worker exits when its parent dies.

    A spawn worker waits on the executor's call queue, and every worker
    holds that queue's write end, so a SIGKILLed parent never closes it:
    the workers, and with them the resource tracker, would idle on
    forever.  A daemon thread waits on the parent's sentinel instead and
    ends the process when it fires.
    """
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        wait_exited([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _execute_chunk(
    task: Callable[[ReplicaTask], Any],
    tasks: list[ReplicaTask],
    worker_label: str | None = None,
    capture_errors: bool = False,
    heartbeat: str | None = None,
    chunk_id: int = 0,
) -> list[ReplicaResult | ReplicaFailure]:
    """Run one chunk of replicas; top-level so spawn can pickle it.

    With ``capture_errors`` a raising task yields a
    :class:`ReplicaFailure` instead of aborting the chunk, so one bad
    replica cannot take down the results of its chunk siblings.

    With ``heartbeat`` (a file path, live-telemetry runs only) the
    worker stamps progress — pid, replicas done, events simulated, rss —
    at chunk start and after every replica, feeding the parent's stall
    detector.  The disabled path pays one ``is not None`` check per
    replica.
    """
    worker = worker_label if worker_label is not None else f"pid-{os.getpid()}"
    stamp = None
    if heartbeat is not None:
        from repro.obs.live import stamp_heartbeat as stamp

        stamp(
            heartbeat, worker=worker, chunk=chunk_id, replicas_done=0, events=0
        )
    events_total = 0
    out: list[ReplicaResult | ReplicaFailure] = []
    for replica in tasks:
        t0 = time.perf_counter()
        try:
            value = task(replica)
        except Exception as exc:  # noqa: BLE001 - converted to data
            if not capture_errors:
                raise
            out.append(
                ReplicaFailure(
                    index=replica.index,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback=_traceback.format_exc(),
                    attempts=1,
                    worker=worker,
                )
            )
        else:
            elapsed = time.perf_counter() - t0
            events = int(getattr(value, "events_simulated", 0) or 0)
            events_total += events
            out.append(
                ReplicaResult(
                    index=replica.index,
                    value=value,
                    events=events,
                    elapsed_s=elapsed,
                    worker=worker,
                )
            )
        if stamp is not None:
            stamp(
                heartbeat,
                worker=worker,
                chunk=chunk_id,
                replicas_done=len(out),
                events=events_total,
            )
    return out


class ParallelCampaignRunner:
    """Deterministic map/reduce over independent simulation replicas.

    Parameters
    ----------
    task:
        Module-level callable ``task(replica: ReplicaTask) -> value``.
        If the returned value exposes an ``events_simulated`` attribute
        it feeds the throughput metrics.
    reduce:
        Optional ``reduce(values_in_index_order) -> aggregate``.  Must be
        order-deterministic; it always receives values sorted by replica
        index.  Defaults to returning the tuple of values.  Never called
        for an empty campaign — ``run([])`` short-circuits to an empty
        outcome instead of handing ``[]`` to fold reducers that reject it.
    options:
        The :class:`RunOptions` of the run: worker count (``1`` runs in
        the parent, the same code path a replica takes in a worker),
        chunk size, exhaustion policy, ledger, store and live log.
    max_retries:
        Pool rebuilds / replica retries allowed after crashes or task
        exceptions before the ``on_exhausted`` policy applies.
    retry_backoff_s:
        Base of the exponential backoff slept before resubmission
        attempt ``k`` (``retry_backoff_s * 2**(k-1)``).  ``0`` disables
        the sleep (tests).
    shutdown_timeout_s:
        Bounded wait for pool workers to exit when a pool is torn down;
        workers still alive afterwards are reported as
        ``leaked_worker_pids`` in :class:`RunMetrics` instead of being
        silently left behind while the next pool starts.
    stall_timeout_s:
        Live-telemetry runs only: a pooled chunk whose worker has not
        stamped a heartbeat for this long is suspected stalled and
        resubmitted as a duplicate chunk *without waiting for pool
        teardown* — safe because results dedupe by replica index and
        replica values are pure functions of ``(root_seed, index)``.
        ``None`` disables stall detection even with a live log.
    stall_poll_s:
        How often the parent wakes from the pool wait to fold
        heartbeats, emit progress and check stall/straggler deadlines.
        Irrelevant without a live log (the wait then has no timeout at
        all — the pre-telemetry code path, byte for byte).
    straggler_factor:
        A chunk in flight longer than this multiple of the median
        completed-chunk latency is flagged ``straggler_suspected``
        (flagged once, never resubmitted: it is making progress).
    """

    def __init__(
        self,
        task: Callable[[ReplicaTask], Any],
        reduce: Callable[[list[Any]], Any] | None = None,
        *,
        options: RunOptions = RunOptions(),
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        shutdown_timeout_s: float = 5.0,
        stall_timeout_s: float | None = 30.0,
        stall_poll_s: float = 1.0,
        straggler_factor: float = 4.0,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}"
            )
        if shutdown_timeout_s < 0:
            raise ValueError(
                f"shutdown_timeout_s must be >= 0, got {shutdown_timeout_s}"
            )
        if stall_timeout_s is not None and stall_timeout_s <= 0:
            raise ValueError(
                f"stall_timeout_s must be > 0 or None, got {stall_timeout_s}"
            )
        if stall_poll_s <= 0:
            raise ValueError(
                f"stall_poll_s must be > 0, got {stall_poll_s}"
            )
        if straggler_factor <= 1:
            raise ValueError(
                f"straggler_factor must be > 1, got {straggler_factor}"
            )
        self.task = task
        self.reduce = reduce
        self.options = options
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.shutdown_timeout_s = shutdown_timeout_s
        self.stall_timeout_s = stall_timeout_s
        self.stall_poll_s = stall_poll_s
        self.straggler_factor = straggler_factor

    # -- public API -------------------------------------------------------

    def run(
        self,
        specs: Sequence[Any],
        root_seed: int = 0,
        *,
        preloaded: dict[int, ReplicaResult] | None = None,
    ) -> RunOutcome:
        """Execute one replica per spec; reduce deterministically.

        ``specs[i]`` becomes replica ``i`` with seed stream
        ``SeedSequence(root_seed, spawn_key=(i,))``.  Pass ``range(n)``
        (or ``[spec] * n``) for homogeneous campaigns.

        With ``options.checkpoint`` every completed chunk is appended
        to a durable JSONL ledger at that path, and with
        ``options.store`` alone to the store's in-flight ledger;
        ``options.resume`` additionally loads any matching ledger first
        and re-executes only the replicas it does not cover.  The
        reduced aggregate of an interrupted-then-resumed run is
        bit-identical to an uninterrupted one (the ledger stores the
        full per-replica values, and the reduce always sees all of them
        in index order).  With ``options.store`` the ledger, closed
        after the reduce, is published as the run's part of the store
        rooted at that directory (:mod:`repro.storage.writer`).

        ``preloaded`` splices externally supplied per-replica results
        (index → :class:`ReplicaResult`) into the outcome without
        executing them — the counterfactual replay engine passes the
        unaffected baseline replicas here.  Spliced replicas behave
        exactly like ledger-resumed ones: they enter the index-ordered
        reduce unchanged, but contribute nothing to the fresh-work
        metrics (``events_simulated``, busy time) and are counted in
        ``replicas_resumed`` — which is precisely how the
        replay-equivalence battery proves only affected replicas re-ran.

        With ``options.live_log`` the run opens one
        :class:`repro.obs.live.LiveRunMonitor`, after the ledger, and
        closes it after the ledger closes.  It streams lifecycle
        telemetry — chunk submissions/completions, worker heartbeats,
        retries, checkpoint flushes, stall and straggler flags — to a
        schema-versioned JSONL sidecar and leaves an OpenMetrics
        ``<live_log>.prom`` snapshot at the end.  Live records carry
        wall-clock fields and are excluded from every canonical digest;
        the simulation itself is untouched (the telemetry-on aggregate
        is bit-identical to telemetry-off, which
        ``tests/obs/test_live.py`` asserts).  Without a live log the
        runner takes the exact pre-telemetry code path.
        """
        options = self.options
        tasks = [
            ReplicaTask(index=i, root_seed=int(root_seed), spec=spec)
            for i, spec in enumerate(specs)
        ]
        chunk_size = self._effective_chunk_size(len(tasks))
        if not tasks:
            # Short-circuit: never hand [] to fold reducers (several
            # reject empty campaigns); an explicitly empty outcome is
            # the well-defined answer.
            return RunOutcome(
                value=(),
                results=(),
                metrics=RunMetrics.from_results(
                    replicas=0,
                    workers=options.workers,
                    chunk_size=chunk_size,
                    wall_time_s=0.0,
                    retries=0,
                    events=[],
                    busy_by_worker={},
                ),
            )

        spliced: dict[int, ReplicaResult] = dict(preloaded or {})
        for index, result in spliced.items():
            if not isinstance(result, ReplicaResult):
                raise SimulationError(
                    f"preloaded[{index!r}] must be a ReplicaResult, "
                    f"got {type(result).__name__}"
                )
            if (
                not isinstance(index, int)
                or not 0 <= index < len(tasks)
                or result.index != index
            ):
                raise SimulationError(
                    f"preloaded index {index!r} is out of range "
                    f"[0, {len(tasks)}) or mismatches "
                    f"result.index={result.index!r}"
                )

        ledger = None
        preloaded = spliced
        ledger_path = options.checkpoint
        if ledger_path is None and options.store is not None:
            from repro.runtime.checkpoint import spec_digest
            from repro.storage.writer import inflight_path

            ledger_path = inflight_path(
                options.store,
                options.campaign_id,
                spec_digest(int(root_seed), specs),
            )
        if ledger_path is not None:
            from repro.runtime.checkpoint import CheckpointLedger

            ledger, resumed = CheckpointLedger.open(
                ledger_path,
                root_seed=int(root_seed),
                specs=specs,
                chunk_size=chunk_size,
                workers=options.workers,
                resume=options.resume,
                invocation=options.invocation,
            )
            # Ledger-resumed results fill the gaps; explicit splices win.
            preloaded = {**resumed, **preloaded}

        # Pool only when more than one replica is still to run: a
        # resume or splice that leaves one fresh replica runs it in the
        # parent instead of paying a pool's start-up for it.
        to_run = sum(1 for task in tasks if task.index not in preloaded)
        pooled = options.workers > 1 and to_run > 1
        monitor = None
        if options.live_log is not None:
            # Lazy import: runs without telemetry never pay for it.
            from repro.obs.live import LiveRunMonitor

            monitor = LiveRunMonitor.open(
                options.live_log,
                replicas=len(tasks),
                replicas_resumed=len(preloaded),
                workers=options.workers,
                chunk_size=chunk_size,
                command=(options.invocation or {}).get("command"),
                root_seed=int(root_seed),
                pooled=pooled,
                stall_timeout_s=self.stall_timeout_s,
                straggler_factor=self.straggler_factor,
            )
        outcome = None
        try:
            outcome = self._execute(
                tasks, chunk_size, pooled, ledger, preloaded, monitor
            )
        finally:
            if monitor is not None:
                monitor.close(outcome)
        if options.store is not None:
            from repro.storage.writer import write_run

            write_run(
                options.store,
                ledger.path,
                spec_digest=ledger.spec_digest,
                plan_digest=getattr(outcome.value, "plan_digest", None),
                campaign_id=options.campaign_id,
            )
        return outcome

    def _execute(
        self,
        tasks: list[ReplicaTask],
        chunk_size: int,
        pooled: bool,
        ledger,
        preloaded: dict[int, ReplicaResult],
        monitor,
    ) -> RunOutcome:
        """Run every replica not preloaded, reduce them all in index
        order and close the ledger."""
        options = self.options
        t0 = time.perf_counter()
        leaked: list[int] = []
        failures: dict[int, ReplicaFailure] = {}
        if not pooled:
            results, retries = self._run_serial(
                tasks, chunk_size, ledger, preloaded, failures, monitor
            )
        else:
            results, retries = self._run_pool(
                tasks, chunk_size, ledger, preloaded, failures, leaked, monitor
            )
        wall = time.perf_counter() - t0

        results.sort(key=lambda r: r.index)
        expected = set(range(len(tasks)))
        have = {r.index for r in results}
        duplicates = len(results) - len(have)
        missing = sorted(expected - have - set(failures))
        if duplicates or missing or (
            failures and options.on_exhausted != "salvage"
        ):
            # Structurally impossible after the dedup fix unless a
            # subclass or reducer misbehaves — keep the guard.
            raise SimulationError(
                "runner lost replicas: expected "
                f"{len(tasks)}, got indices {sorted(have)!r} "
                f"(missing {missing!r}, failed "
                f"{sorted(failures)!r}, duplicates {duplicates})"
            )

        busy: dict[str, float] = {}
        fresh = [r for r in results if r.index not in preloaded]
        for r in fresh:
            busy[r.worker] = busy.get(r.worker, 0.0) + r.elapsed_s
        metrics = RunMetrics.from_results(
            replicas=len(tasks),
            workers=options.workers,
            chunk_size=chunk_size,
            wall_time_s=wall,
            retries=retries,
            events=[r.events for r in fresh],
            busy_by_worker=busy,
            leaked_worker_pids=tuple(sorted(leaked)),
            replicas_failed=len(failures),
            replicas_resumed=len(preloaded),
        )
        values = [r.value for r in results]
        if not values:
            value = ()  # fully-salvaged run: nothing for fold reducers
        elif self.reduce is not None:
            value = self.reduce(values)
        else:
            value = tuple(values)
        outcome = RunOutcome(
            value=value,
            results=tuple(results),
            metrics=metrics,
            failures=tuple(failures[i] for i in sorted(failures)),
        )
        if ledger is not None:
            ledger.close(
                completed=len(results),
                failures=outcome.failures,
                plan_digest=getattr(value, "plan_digest", None),
            )
        return outcome

    # -- internals --------------------------------------------------------

    def _effective_chunk_size(self, n: int) -> int:
        if self.options.chunk_size is not None:
            return self.options.chunk_size
        if n == 0:
            return 1
        target_chunks = 4 * self.options.workers
        return max(1, -(-n // target_chunks))

    def _chunked(
        self, tasks: list[ReplicaTask], chunk_size: int
    ) -> list[list[ReplicaTask]]:
        return [
            tasks[lo : lo + chunk_size]
            for lo in range(0, len(tasks), chunk_size)
        ]

    def _backoff(self, attempt: int) -> None:
        """Exponential backoff before resubmission attempt ``attempt``."""
        if self.retry_backoff_s > 0 and attempt > 0:
            time.sleep(self.retry_backoff_s * (2 ** (attempt - 1)))

    def _complete_chunk(
        self,
        cid: int,
        out: list[ReplicaResult | ReplicaFailure],
        attempt: int,
        done: dict[int, ReplicaResult],
        failures: dict[int, ReplicaFailure],
        ledger,
        monitor,
    ) -> list[int]:
        """Record one finished chunk; returns the indices that failed.

        The runner's only completion path, shared by the serial run, the
        pool and the serial fallback.  Results and failures are deduped
        by replica index, so no interleaving of crash, retry and stall
        duplicate can count a replica twice.  Failures are stamped with
        ``attempt``; fresh results go to the ledger, and the live
        monitor hears of the flush once the ledger's append (which
        fsyncs) returns, then of the chunk under the worker that ran it.
        """
        fresh: list[ReplicaResult] = []
        failed: list[int] = []
        for r in out:
            if r.index in done:
                continue
            if isinstance(r, ReplicaFailure):
                failures[r.index] = replace(r, attempts=attempt)
                failed.append(r.index)
                if monitor is not None:
                    monitor.replica_failed(r.index, r.error_type, attempt)
            else:
                done[r.index] = r
                failures.pop(r.index, None)
                fresh.append(r)
        if ledger is not None and fresh:
            ledger.append_chunk(fresh)
            if monitor is not None:
                monitor.checkpoint_flushed(len(fresh))
        if monitor is not None:
            monitor.chunk_done(
                cid,
                worker=out[0].worker,
                replicas=len(fresh),
                events=sum(r.events for r in fresh),
            )
        return failed

    def _run_serial(
        self,
        tasks: list[ReplicaTask],
        chunk_size: int,
        ledger,
        preloaded: dict[int, ReplicaResult],
        failures: dict[int, ReplicaFailure],
        monitor=None,
    ) -> tuple[list[ReplicaResult], int]:
        """In-process execution, chunked so the ledger sees progress.

        Nothing is retried.  Exceptions propagate under the ``"serial"``
        policy (identical to the historical workers=1 behaviour); under
        ``"salvage"`` they become attempt-1 :class:`ReplicaFailure`
        records like everywhere else.
        """
        done: dict[int, ReplicaResult] = dict(preloaded)
        capture = self.options.on_exhausted == "salvage"
        for cid, chunk in enumerate(self._chunked(tasks, chunk_size)):
            # Drop already-completed replicas before running the chunk:
            # a resume with a different chunk size never runs one twice.
            todo = [t for t in chunk if t.index not in done]
            if not todo:
                continue
            if monitor is not None:
                monitor.poll()
                monitor.chunk_submitted(
                    cid, [t.index for t in todo], attempt=1
                )
            out = _execute_chunk(
                self.task,
                todo,
                worker_label=SERIAL_WORKER,
                capture_errors=capture,
            )
            self._complete_chunk(cid, out, 1, done, failures, ledger, monitor)
        return list(done.values()), 0

    def _run_pool(
        self,
        tasks: list[ReplicaTask],
        chunk_size: int,
        ledger,
        preloaded: dict[int, ReplicaResult],
        failures: dict[int, ReplicaFailure],
        leaked: list[int],
        monitor=None,
    ) -> tuple[list[ReplicaResult], int]:
        done: dict[int, ReplicaResult] = dict(preloaded)
        pending: dict[int, list[ReplicaTask]] = {}
        next_cid = 0
        for chunk in self._chunked(tasks, chunk_size):
            todo = [t for t in chunk if t.index not in done]
            if todo:
                pending[next_cid] = todo
            next_cid += 1
        retries = 0
        attempt = 0
        while pending and attempt <= self.max_retries:
            if attempt > 0:
                retries += len(pending)
                if monitor is not None:
                    monitor.retry(chunks=len(pending), attempt=attempt)
                self._backoff(attempt)
            attempt += 1
            newly_failed: list[int] = []
            ctx = multiprocessing.get_context("spawn")
            executor = ProcessPoolExecutor(
                max_workers=min(self.options.workers, len(pending)),
                mp_context=ctx,
                initializer=_exit_with_parent,
            )
            try:

                def _submit(cid: int, chunk: list[ReplicaTask]):
                    hb = (
                        monitor.heartbeat_path(cid)
                        if monitor is not None
                        else None
                    )
                    return executor.submit(
                        _execute_chunk, self.task, chunk, None, True, hb, cid
                    )

                futures = {}
                for cid, chunk in pending.items():
                    futures[_submit(cid, chunk)] = cid
                    if monitor is not None:
                        monitor.chunk_submitted(
                            cid, [t.index for t in chunk], attempt
                        )
                not_done = set(futures)
                # With a live monitor the pool wait wakes on a poll
                # timeout to fold heartbeats and run stall detection;
                # without one it blocks indefinitely — the exact
                # pre-telemetry code path.
                poll = self.stall_poll_s if monitor is not None else None
                resubmitted: set[int] = set()
                while not_done:
                    finished, not_done = wait(
                        not_done, timeout=poll, return_when=FIRST_COMPLETED
                    )
                    for future in finished:
                        cid = futures[future]
                        try:
                            out = future.result()
                        except (BrokenProcessPool, OSError):
                            # This chunk's worker died.  Leave the chunk
                            # pending for the next attempt but KEEP
                            # DRAINING the batch: sibling futures that
                            # completed before the break still hold real
                            # results, and skipping them would re-execute
                            # their chunks (historically the duplicate-
                            # resubmission bug that tripped the lost-
                            # replicas guard).
                            continue
                        # Pop before recording, so no interleaving of
                        # crash and completion can double-count a chunk.
                        # A stall-resubmitted duplicate that finishes
                        # second pops nothing and records nothing.
                        if pending.pop(cid, None) is None:
                            continue
                        newly_failed += self._complete_chunk(
                            cid, out, attempt, done, failures, ledger, monitor
                        )
                    if not pending:
                        # Every replica is accounted for; whatever is
                        # still "running" is a hung original whose
                        # duplicate already won.  Abandon it — the
                        # bounded executor shutdown reaps (or reports)
                        # its worker.
                        break
                    if monitor is not None:
                        for stalled_cid in monitor.poll():
                            # Duplicate the stalled chunk onto a free
                            # worker instead of waiting for pool
                            # teardown; at most one duplicate per chunk
                            # per attempt.  Whichever copy finishes first
                            # pops the chunk; the other records nothing.
                            if (
                                stalled_cid in pending
                                and stalled_cid not in resubmitted
                            ):
                                resubmitted.add(stalled_cid)
                                retries += 1
                                dup = _submit(
                                    stalled_cid, pending[stalled_cid]
                                )
                                futures[dup] = stalled_cid
                                not_done.add(dup)
                                monitor.chunk_submitted(
                                    stalled_cid,
                                    [
                                        t.index
                                        for t in pending[stalled_cid]
                                    ],
                                    attempt,
                                )
            except (BrokenProcessPool, OSError):
                # Raised by submit()/wait() themselves when the pool is
                # already broken; everything still pending is resubmitted
                # on a fresh pool next iteration.
                pass
            finally:
                leaked.extend(self._shutdown_executor(executor))
            # Queue raising replicas as fresh chunks; their failure
            # records stay until a retry succeeds.  After the last
            # attempt they wait here for the exhaustion policy.
            retry_tasks = [tasks[i] for i in sorted(newly_failed)]
            for chunk in self._chunked(retry_tasks, chunk_size):
                pending[next_cid] = chunk
                next_cid += 1

        if self.options.on_exhausted == "serial":
            # Last resort: finish in the parent so the run completes,
            # each leftover chunk under its own id.  Exceptions propagate
            # here — after max_retries identical failures there is no
            # point converting them again.
            for cid in sorted(pending):
                out = _execute_chunk(
                    self.task, pending[cid], worker_label=FALLBACK_WORKER
                )
                self._complete_chunk(
                    cid, out, attempt + 1, done, failures, ledger, monitor
                )
        else:
            # Salvage: replicas lost to worker crashes get a structured
            # failure record too (task exceptions already have one).
            leftovers = [t for chunk in pending.values() for t in chunk]
            for t in leftovers:
                failures.setdefault(
                    t.index,
                    ReplicaFailure(
                        index=t.index,
                        error_type="WorkerCrash",
                        message=(
                            "worker process died before the replica "
                            f"reported (after {attempt} attempt(s))"
                        ),
                        traceback="",
                        attempts=attempt,
                        worker="pool",
                    ),
                )
        return list(done.values()), retries

    def _shutdown_executor(self, executor: ProcessPoolExecutor) -> list[int]:
        """Tear a pool down with a bounded wait; report leaked workers.

        ``shutdown(wait=False, cancel_futures=True)`` alone can leave
        spawn workers alive while the next pool starts (they only exit
        once they notice the closed call queue).  Wait for every worker
        with a shared deadline and surface whoever has not exited so
        :class:`RunMetrics` can report the leak instead of hiding it.

        Exit is read from each process's sentinel, never from
        ``is_alive()``: the executor's own management thread reaps the
        same children, and a worker it reaped first reads as alive to
        ``is_alive()`` (its ``waitpid`` fails and reports no exit).
        """
        running = {
            proc.sentinel: proc.pid
            for proc in (executor._processes or {}).values()
        }
        executor.shutdown(wait=False, cancel_futures=True)
        deadline = time.monotonic() + self.shutdown_timeout_s
        while running:
            remaining = deadline - time.monotonic()
            exited = wait_exited(list(running), timeout=max(0.0, remaining))
            for sentinel in exited:
                del running[sentinel]
            if remaining <= 0:
                break
        return sorted(pid for pid in running.values() if pid is not None)
