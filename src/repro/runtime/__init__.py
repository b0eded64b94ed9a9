"""Parallel execution runtime for campaigns and fleet studies.

The :mod:`repro.runtime` package is the scaling substrate of the repro:
it fans independent simulation replicas out over a spawn-safe
``multiprocessing`` worker pool while keeping every statistical result
**bit-identical** to a serial run.

Design contract
---------------
* Every replica draws its randomness from a child of one root
  :class:`numpy.random.SeedSequence`, keyed by the replica *index* alone
  (:mod:`repro.runtime.seeds`).  Worker count, chunking and scheduling
  order therefore cannot perturb any replica's stream.
* The reduce step consumes replica results sorted by index, so the
  aggregate is a pure function of ``(root_seed, specs)``.
* Work is submitted in chunks; a crashed worker process only costs the
  chunks in flight.  Results are deduplicated by replica index and
  chunks are retired the moment they report, so no crash interleaving
  can duplicate or lose a replica; unrecovered chunks are retried with
  exponential backoff and finish serially in the parent (or are
  salvaged into an explicit partial outcome, policy-dependent).
* With a checkpoint ledger (:mod:`repro.runtime.checkpoint`) every
  completed chunk is durably appended, so an interrupted campaign
  resumes where it stopped and still reduces bit-identically.

See ``docs/parallel_runtime.md`` for the full scheme.
"""
