"""A/B CPU timing of the working tree against a git ref, on the same replicas.

Two long-lived interpreters run campaign replicas: one imports ``src/``
of the working tree, the other ``src/`` of ``--base`` (extracted with
``git archive``).  The coordinator hands both the same batches of replica
indices and alternates which side goes first in each round (ABBA...), so
slow host periods hit both sides alike.  Each side reports the CPU time
(``time.process_time``) of its batch, so only one process runs at a time
and waiting never counts.

The report gives the total CPU per side, the speedup (base / tree), and
the median and quartiles of the per-round ratios.  The run fails (exit
1) if the sides disagree on a batch's event count or plan digest.  With
``--aa`` both sides run the base ref, which measures the noise floor.

The default configuration is the ``mc_short`` workload's (root seed
4321, 300 ms horizon, 3 expected faults): 40 rounds of 8 replicas cover
its 320 replicas.  Usage, from the repository root::

    python3 benchmarks/ab_timing.py [--base REF] [--aa] [--rounds N]
                                    [--batch K] [--seed S] [--horizon-ms H]
                                    [--expected-faults F]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


# -- worker side ---------------------------------------------------------------


def worker(src: str, seed: int, horizon_ms: int, expected_faults: float) -> None:
    """Serve batches read from stdin: one ``START COUNT`` line per batch."""
    sys.path.insert(0, src)
    import repro
    from repro.faults.campaign import CampaignReplicaSpec, summarize_campaign
    from repro.runtime.runner import ReplicaTask
    from repro.runtime.workloads import run_campaign_replica
    from repro.units import ms

    if not Path(repro.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"imported {repro.__file__}, not the package in {src}")
    spec = CampaignReplicaSpec(
        expected_faults=expected_faults, horizon_us=ms(horizon_ms)
    )
    for line in sys.stdin:
        start, count = map(int, line.split())
        t0 = time.process_time()
        outcomes = [
            run_campaign_replica(ReplicaTask(i, seed, spec))
            for i in range(start, start + count)
        ]
        cpu_s = time.process_time() - t0
        summary = summarize_campaign(outcomes)
        reply = {
            "cpu_s": cpu_s,
            "events": summary.events_simulated,
            "plan_digest": summary.plan_digest,
        }
        print(json.dumps(reply), flush=True)


# -- coordinator side ----------------------------------------------------------


class Side:
    """One long-lived worker interpreter.

    Both sides run with the same ``PYTHONHASHSEED``: per-process string
    hash salts change dict and set layouts, and one ``--aa`` run without
    the pin put two interpreters of identical code 5 % apart.
    """

    def __init__(self, label: str, src: Path, args: argparse.Namespace) -> None:
        self.label = label
        self.cpu: list[float] = []
        self.proc = subprocess.Popen(
            [
                sys.executable, __file__, "--worker", str(src),
                "--seed", str(args.seed),
                "--horizon-ms", str(args.horizon_ms),
                "--expected-faults", str(args.expected_faults),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )  # fmt: skip

    def run(self, start: int, count: int) -> dict:
        self.proc.stdin.write(f"{start} {count}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.label} worker exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def extract_src(ref: str, into: Path) -> Path:
    """Write ``src/`` of git ``ref`` under ``into``; return that directory."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", ref, "src"],
        cwd=ROOT,
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def drive(args: argparse.Namespace, base_src: Path, tree_src: Path) -> int:
    base = Side(f"base ({args.base})", base_src, args)
    tree = Side(f"base ({args.base}) again" if args.aa else "tree", tree_src, args)
    sides = (base, tree)
    mismatches = []
    try:
        for side in sides:  # warm-up: imports and the cached cluster spec
            side.run(0, 1)
        for rnd in range(args.rounds):
            start = rnd * args.batch
            replies = {}
            for side in sides if rnd % 2 == 0 else sides[::-1]:
                reply = side.run(start, args.batch)
                side.cpu.append(reply["cpu_s"])
                replies[side.label] = (reply["events"], reply["plan_digest"])
            if replies[base.label] != replies[tree.label]:
                mismatches.append(start)
    finally:
        for side in sides:
            side.close()

    ratios = [b / t for b, t in zip(base.cpu, tree.cpu)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    total_base, total_tree = sum(base.cpu), sum(tree.cpu)
    replicas = args.rounds * args.batch
    print(
        f"{replicas} replicas (seed {args.seed}, {args.horizon_ms} ms, "
        f"{args.expected_faults:g} expected faults) in {args.rounds} "
        f"alternating rounds of {args.batch}"
    )
    print(f"  {base.label:<24} {total_base:8.3f} s CPU")
    print(f"  {tree.label:<24} {total_tree:8.3f} s CPU")
    print(f"  speedup (total)          {total_base / total_tree:8.3f}x")
    print(
        f"  per-round ratio          median {median:.3f}x, "
        f"IQR {q1:.3f}-{q3:.3f}x"
    )
    for start in mismatches:
        print(
            f"MISMATCH: replicas {start}..{start + args.batch - 1} differ in "
            "events or plan digest"
        )
    print(
        json.dumps(
            {
                "base": args.base,
                "aa": args.aa,
                "replicas": replicas,
                "base_cpu_s": total_base,
                "tree_cpu_s": total_tree,
                "speedup": total_base / total_tree,
                "round_ratio_median": median,
                "round_ratio_q1": q1,
                "round_ratio_q3": q3,
                "agree": not mismatches,
            }
        )
    )
    return 1 if mismatches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git ref to compare against")
    parser.add_argument(
        "--aa", action="store_true", help="run the base ref against itself"
    )
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--seed", type=int, default=4321)
    parser.add_argument("--horizon-ms", type=int, default=300)
    parser.add_argument("--expected-faults", type=float, default=3.0)
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker, args.seed, args.horizon_ms, args.expected_faults)
        return 0
    if args.rounds < 2 or args.batch < 1:
        parser.error("need --rounds >= 2 and --batch >= 1")
    with tempfile.TemporaryDirectory(prefix="ab-timing-") as tmp:
        base_src = extract_src(args.base, Path(tmp))
        tree_src = base_src if args.aa else ROOT / "src"
        return drive(args, base_src, tree_src)


if __name__ == "__main__":
    sys.exit(main())
