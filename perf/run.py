"""The repository's benchmark: one command, every metric by name.

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perf/run.py --seed N [--seconds S] [--out FILE]     # all workloads, both kinds

Each run of a workload happens in a fresh subprocess (``perf.harness``)
so that no run inherits another's heap, caches or imported modules.
With ``--trace 0`` the end-to-end metrics are measured; set-up time is
taken three times (the measuring process plus two set-up-only
processes) and the median reported.  With ``--trace 1`` the per-layer
metrics are measured under the timing shims of ``perf/trace.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out``
appends the full result of every run (digest, fingerprint, sample
counts, missing hooks) to ``FILE`` for ``perf/compare.py``.

This process never imports the program: in a directory without
``src/repro`` the first subprocess fails and so does the command.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Run as a script, sys.path[0] is this directory, where ``trace.py``
# would shadow the standard library's module of that name.
sys.path[0] = str(ROOT)

from perf import definition  # noqa: E402
from perf.workloads import WORKLOAD_NAMES  # noqa: E402

SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170


def worker(workload: str, seed: int, seconds: float, trace: int,
           *extra: str) -> dict:
    """One ``perf.harness`` subprocess; its JSON result."""
    command = [sys.executable, "-m", "perf.harness",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--spawned-at-ns", str(time.monotonic_ns()), *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perf.harness failed on {workload} "
                         f"(exit {done.returncode})")
    return json.loads(done.stdout.splitlines()[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int,
            out: Path | None) -> dict:
    extra = []
    if trace and out is not None:
        extra = ["--trace-out", str(out.with_name(f"trace-{workload}.json"))]
    result = worker(workload, seed, seconds, trace, *extra)
    if not trace:
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_REPEATS - 1):
            again = worker(workload, seed, seconds, 0, "--setup-only")
            setups.append(again["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"].update(
            value=statistics.median(setups), samples=len(setups))
    return result


def show(result: dict) -> None:
    kind = "per-layer" if result["trace"] else "end-to-end"
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{result['rounds']} rounds  {kind}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {metric['unit']:<7} "
              f"n={metric['samples']}")
    print(f"  correct={result['correct']} failed={result['failed']}"
          f"/{result['attempted']} digest={result['result_digest'][:16]} "
          f"stream={result['workload_fingerprint']['stream_sha256'][:16]}")
    if result["missing_hooks"]:
        print(f"  missing_hooks={result['missing_hooks']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def summary_line(results: list[dict]) -> str:
    """The contract's last line; metric names carry the workload only
    when more than one was run."""
    single = len({result["workload"] for result in results}) == 1
    metrics = {}
    for result in results:
        for name, metric in result["metrics"].items():
            key = name if single else f"{result['workload']}:{name}"
            metrics[key] = {"value": metric["value"], "unit": metric["unit"]}
    return json.dumps({
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    })


def append_runs(out: Path, results: list[dict]) -> None:
    runs = json.loads(out.read_text())["runs"] if out.exists() else []
    out.write_text(json.dumps({"runs": runs + results}, indent=1))


def main(argv: list[str] | None = None) -> int:
    run_seconds = definition.load()["run_seconds"]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.out is not None:
        # The workers run with the repository root as their directory.
        args.out = args.out.resolve()
        args.out.parent.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    kinds = [args.trace] if args.trace is not None \
        else [0, 1] if args.workload is None else [0]
    results = []
    for kind in kinds:
        for name in names:
            result = run_one(name, args.seed, args.seconds, kind, args.out)
            show(result)
            results.append(result)
    if args.out is not None:
        append_runs(args.out, results)
    print(summary_line(results))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
