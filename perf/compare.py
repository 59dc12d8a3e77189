"""Compare two result files of ``perf/run.py --out``.

    python3 perf/compare.py A.json B.json     # A is the parent, B the change
    python3 perf/compare.py A.json            # A's medians and quartiles as JSON

A result file holds every run appended to it; run the same command
several times (and with several seeds) into one file per commit.  For
each end-to-end metric x workload the change's median is set against
the parent's and the bound ``BENCHMARK.json`` fixes for the metric
(choosing-metrics, section 6, step 5):

* ``better``      every run of the change reads better than every run
                  of the parent;
* ``unresolved``  the spread between runs (first to third quartile, as a
                  share of the median, on either side) is wider than the
                  bound, so "no regression" cannot be shown;
* ``WORSE``       the change's median is worse than the parent's by more
                  than the bound;
* ``ok``          anything else.

Every ratio is printed with its base (the parent's median).  Per-layer
metrics have no bound and are listed side by side; a count that ought
to repeat exactly and does not is marked ``!=``.

Two files are comparable only if they ran the same work: the command
refuses (exit 2) when the workload fingerprints (statement stream and
loaded table sizes, per workload, trace kind and seed) differ.  Exit 1
if any row is ``WORSE``, also if a result digest changed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)  # see run.py

from perf import definition  # noqa: E402

# Per-layer metrics that are counts of what the statement stream made
# the program do.  Clock-driven ones are left out: preemption is the
# machine's; the monitor samples system statistics once a second, and
# whether that sample moved a high-water mark decides whether the
# daemon's next poll statement is a new text or a repeat to the rings.
_TIMES = {"us", "ms", "s"}
_NOT_EXACT = {"preempted_slices", "machine.slowdown_p50",
              "machine.slowdown_max", "core.monitor.calls_per_stmt",
              "core.ring_buffer.rows_per_stmt", "core.daemon.rows_per_stmt",
              "core.workload_db.bytes_per_row", "trace.overhead_ratio",
              "trace.attributed_ratio"}


def exact_metrics() -> set[str]:
    return {name for name, entry in definition.metrics("per_layer").items()
            if entry["unit"] not in _TIMES and name not in _NOT_EXACT}


def load_runs(path: Path) -> list[dict]:
    return json.loads(path.read_text())["runs"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a single run is its
    own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, middle, high


def summarize(runs: list[dict]) -> dict:
    """Per workload: every metric's quartiles over the runs, plus what
    identifies the work (fingerprints) and the answers (digests)."""
    summary: dict[str, dict] = {}
    for run in runs:
        entry = summary.setdefault(run["workload"], {
            "metrics": {}, "fingerprints": {}, "digests": {},
            "failed": 0})
        key = f"trace{run['trace']}:seed{run['seed']}"
        entry["fingerprints"][key] = run["workload_fingerprint"]
        entry["digests"][key] = run["result_digest"]
        entry["failed"] += run["failed"]
        for name, metric in run["metrics"].items():
            if metric["value"] is not None:
                entry["metrics"].setdefault(name, []).append(metric["value"])
    for entry in summary.values():
        for name, values in entry["metrics"].items():
            low, middle, high = quartiles(values)
            entry["metrics"][name] = {
                "median": middle, "q1": low, "q3": high, "runs": len(values),
                "values": values}
    return summary


def _spread(metric: dict) -> float:
    if not metric["median"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["median"])


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * new < sign * old
           for new in change["values"] for old in parent["values"]):
        return "better"
    if max(_spread(parent), _spread(change)) > bound:
        return "unresolved"
    worse_by = sign * (change["median"] - parent["median"]) \
        / abs(parent["median"])
    return "WORSE" if worse_by > bound else "ok"


def compare(parent: dict, change: dict) -> tuple[list[str], int, int]:
    """Report lines, number of WORSE rows, number of unresolved rows."""
    end_to_end = definition.metrics("end_to_end")
    per_layer = definition.metrics("per_layer")
    exact = exact_metrics()
    lines = []
    worse = unresolved = 0
    for workload, old in parent.items():
        new = change[workload]
        lines.append(f"== {workload}")
        lines.append(f"  {'metric':<42} {'parent (base)':>14} {'change':>14} "
                     f"{'ratio':>7} {'spread':>7} {'bound':>6}  verdict")
        for name, entry in end_to_end.items():
            if name not in old["metrics"] or name not in new["metrics"]:
                continue
            before, after = old["metrics"][name], new["metrics"][name]
            outcome = verdict(before, after, entry["better"], entry["bound"])
            worse += outcome == "WORSE"
            unresolved += outcome == "unresolved"
            lines.append(
                f"  {name:<42} {before['median']:>14.6g} "
                f"{after['median']:>14.6g} "
                f"{after['median'] / before['median']:>7.3f} "
                f"{max(_spread(before), _spread(after)):>7.3f} "
                f"{entry['bound']:>6.2f}  {outcome} "
                f"(n={before['runs']}/{after['runs']})")
        for name in per_layer:
            if name not in old["metrics"] or name not in new["metrics"]:
                continue
            before, after = old["metrics"][name], new["metrics"][name]
            ratio = after["median"] / before["median"] \
                if before["median"] else float("nan")
            mark = ""
            if name in exact:
                same = sorted(before["values"]) == sorted(after["values"])
                mark = "==" if same else "!="
            lines.append(
                f"  {name:<42} {before['median']:>14.6g} "
                f"{after['median']:>14.6g} {ratio:>7.3f} "
                f"{'':>7} {'':>6}  {mark}")
        if old["digests"] != new["digests"]:
            worse += 1
            lines.append("  WORSE result digests differ: the two sides "
                         "returned different rows")
        if old["failed"] or new["failed"]:
            lines.append(f"  failed operations: parent {old['failed']}, "
                         f"change {new['failed']}")
            worse += new["failed"] > old["failed"]
    return lines, worse, unresolved


def main(argv: list[str] | None = None) -> int:
    paths = [Path(arg) for arg in (sys.argv[1:] if argv is None else argv)]
    if len(paths) == 1:
        summary = summarize(load_runs(paths[0]))
        for entry in summary.values():
            for metric in entry["metrics"].values():
                del metric["values"]
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (summarize(load_runs(path)) for path in paths)
    for workload in sorted(set(parent) | set(change)):
        old = parent.get(workload, {}).get("fingerprints")
        new = change.get(workload, {}).get("fingerprints")
        if old != new:
            print(f"refusing to compare: {workload} ran different work "
                  f"(workload fingerprints differ: same seeds, --seconds "
                  f"and trace kinds are required on both sides)",
                  file=sys.stderr)
            return 2
    lines, worse, unresolved = compare(parent, change)
    print("\n".join(lines))
    print(f"{worse} WORSE, {unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
