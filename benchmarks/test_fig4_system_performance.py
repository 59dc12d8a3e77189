"""Figure 4 — System Performance: monitoring overhead per setup.

Paper result (relative runtime vs. the untouched instance):

* ``50`` complex queries:   Monitoring < +1 %, Daemon ~ +1 %
* ``50k`` simple joins:     both within ~1 %
* ``1m`` trivial queries:   Monitoring ~ +11 %, Daemon ~ +17 %

The shape to reproduce: overhead negligible for expensive statements
and clearly visible (but bounded) for very high statement rates, with
the daemon adding on top of the in-core monitoring.

Methodology: every (setup, workload) cell runs in a **fresh
subprocess** (see ``fig4_driver.py``), min-of-2 inside the process —
so neither heap growth nor GC state from one measurement can bleed
into another.  A cell short enough that a single original/monitoring
pair swings by tens of percent — ``50`` lasts about 0.2 s, and ``1m``
failed its shape assertion as one run per setup — is measured as
``ROUNDS[workload]`` rounds of original, monitoring and daemon runs;
each relative cell is the median of its per-round ratios to that
round's original.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys

import pytest

from conftest import format_table, write_result

DRIVER = pathlib.Path(__file__).parent / "fig4_driver.py"
SETUPS = ("original", "monitoring", "daemon")
WORKLOAD_NAMES = ("50", "50k", "1m")
ROUNDS = {"50": 5, "50k": 1, "1m": 3}


def run_cell(setup: str, workload: str) -> float:
    completed = subprocess.run(
        [sys.executable, str(DRIVER), setup, workload],
        capture_output=True, text=True, timeout=600,
        cwd=str(DRIVER.parent),
    )
    if completed.returncode != 0:
        raise AssertionError(
            f"driver failed for ({setup}, {workload}):\n{completed.stderr}")
    return json.loads(completed.stdout)["seconds"]


@pytest.fixture(scope="module")
def measurements():
    """Per workload: the original's seconds and each setup's runtime
    relative to it, over ``ROUNDS[workload]`` rounds: the seconds are
    the median original and each relative cell the median of the
    per-round ratios."""
    results = {}
    for workload in WORKLOAD_NAMES:
        rounds = [{kind: run_cell(kind, workload) for kind in SETUPS}
                  for _round in range(ROUNDS[workload])]
        results[workload] = {
            "seconds": statistics.median(r["original"] for r in rounds),
            "relative": {kind: statistics.median(r[kind] / r["original"]
                                                 for r in rounds)
                         for kind in SETUPS},
        }
    return results


def test_fig4_report_and_shape(measurements, benchmark):
    # Register one representative cell as the pytest-benchmark sample
    # (the comparative data comes from the subprocess measurements).
    benchmark.pedantic(run_cell, args=("monitoring", "50"),
                       rounds=1, iterations=1)

    rows = []
    relative = {workload: measurements[workload]["relative"]
                for workload in WORKLOAD_NAMES}
    for workload in WORKLOAD_NAMES:
        rows.append([
            workload,
            f"{measurements[workload]['seconds']:.2f}s",
            f"{relative[workload]['monitoring'] * 100:.1f}%",
            f"{relative[workload]['daemon'] * 100:.1f}%",
        ])
    table = format_table(
        ["test", "original", "monitoring (rel)", "daemon (rel)"], rows)
    paper = ("paper: 50 -> ~100%/<101%; 50k -> ~100%/~100.5%; "
             "1m -> ~111%/~117%")
    write_result("fig4_system_performance", table + "\n" + paper)

    # Shape assertions (tolerances allow wall-clock noise).
    # 1) complex statements: monitoring overhead small (paper: <1 %),
    #    judged on the median paired ratio.
    assert relative["50"]["monitoring"] < 1.20
    # 2) the 1m trivial-statement flood shows at least as much
    #    monitoring overhead as the complex set (the paper's key point).
    assert relative["1m"]["monitoring"] >= relative["50"]["monitoring"] - 0.10
    # 3) the daemon adds overhead on top of in-core monitoring for the
    #    trivial-statement flood.
    assert relative["1m"]["daemon"] >= relative["1m"]["monitoring"] - 0.05
    # 4) nothing is catastrophically slower (paper max: 117 %).
    for workload in WORKLOAD_NAMES:
        assert relative[workload]["daemon"] < 2.0
