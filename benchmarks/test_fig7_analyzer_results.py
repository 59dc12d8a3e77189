"""Figure 7 — Analyser Results: the paper's headline experiment.

Three configurations of the NREF database run the 50-query workload:

* **Unoptimised** — heaps, no statistics, no secondary indexes.
* **Manually** — the DBA baseline: every table MODIFYed to B-Tree,
  statistics on everything, the 33-index reference set.
* **Analyser** — the recommendations the analyzer derived from the
  recorded workload.

Paper result: manual optimization cuts runtime to ~60 % and grows the
database 33 GB -> 65 GB; the analyzer reaches ~62 % runtime with only
12 recommended indexes and a database of 53 GB — comparable speed,
~12 GB less disk.
"""

from __future__ import annotations

import pytest

from repro.core.analyzer import (
    Analyzer,
    apply_recommendations,
    select_recommendations,
)
from repro.core.analyzer.recommendations import RecommendationKind
from repro.setups import daemon_setup, original_setup
from repro.workloads import (
    NREF_TABLE_NAMES,
    WorkloadRunner,
    complex_query_set,
    load_nref,
    reference_indexes,
)

from conftest import BENCH_SCALE, COMPLEX_COUNT, format_table, write_result

QUERIES = complex_query_set(BENCH_SCALE, count=COMPLEX_COUNT)
REPEATS = 3


def run_workload(session) -> float:
    runner = WorkloadRunner(session, keep_per_statement=False)
    runner.run(QUERIES[:5])  # warmup
    return min(runner.run(QUERIES).total_wallclock_s
               for _ in range(REPEATS))


def rows_returned(session) -> int:
    runner = WorkloadRunner(session, keep_per_statement=False)
    return runner.run(QUERIES).rows_returned


@pytest.fixture(scope="module")
def results():
    outcome: dict[str, dict] = {}

    # -- Unoptimised -----------------------------------------------------
    setup = original_setup()
    db = setup.engine.create_database("nref")
    load_nref(db, BENCH_SCALE)
    session = setup.engine.connect("nref")
    outcome["unoptimised"] = {
        "runtime": run_workload(session),
        "bytes": db.total_bytes,
        "indexes": 0,
        "rows": rows_returned(session),
    }

    # -- Manual (reference) optimization -----------------------------------
    setup = original_setup()
    db = setup.engine.create_database("nref")
    load_nref(db, BENCH_SCALE)
    session = setup.engine.connect("nref")
    for table in NREF_TABLE_NAMES:
        session.execute(f"modify {table} to btree")
    for index in reference_indexes():
        db.create_index(index)
    for table in NREF_TABLE_NAMES:
        session.execute(f"create statistics on {table}")
    outcome["manual"] = {
        "runtime": run_workload(session),
        "bytes": db.total_bytes,
        "indexes": len(reference_indexes()),
        "rows": rows_returned(session),
    }

    # -- Analyzer-driven optimization ----------------------------------------
    setup = daemon_setup("nref")
    db = setup.engine.database("nref")
    load_nref(db, BENCH_SCALE)
    session = setup.engine.connect("nref")
    WorkloadRunner(session, keep_per_statement=False).run(QUERIES)
    setup.daemon.poll_once()
    setup.daemon.flush()
    report = Analyzer(db).analyze_workload_db(setup.workload_db)
    # The arm applies exactly what the autonomous tuner would select.
    assert select_recommendations(report.recommendations, db).dropped == []
    applied = apply_recommendations(session, report.recommendations)
    index_count = sum(
        1 for a in applied
        if a.succeeded
        and a.recommendation.kind is RecommendationKind.CREATE_INDEX)
    outcome["analyser"] = {
        "runtime": run_workload(session),
        "bytes": db.total_bytes,
        "indexes": index_count,
        "rows": rows_returned(session),
        "failed": [a.sql for a in applied if not a.succeeded],
    }
    return outcome


def test_fig7_analyser_results(results, benchmark):
    benchmark.pedantic(lambda: results, rounds=1, iterations=1)
    base = results["unoptimised"]
    rows = []
    for name in ("unoptimised", "manual", "analyser"):
        entry = results[name]
        rows.append([
            name,
            f"{entry['runtime']:.2f}s",
            f"{entry['runtime'] / base['runtime'] * 100:.0f}%",
            f"{entry['bytes'] / 1e6:.1f}MB",
            str(entry["indexes"]),
        ])
    table = format_table(
        ["configuration", "runtime", "relative", "db size", "indexes"],
        rows)
    table += ("\npaper: unoptimised 100%/33GB/0; manual ~60%/65GB/33; "
              "analyser ~62%/53GB/12")
    write_result("fig7_analyser_results", table)

    manual = results["manual"]
    analyser = results["analyser"]
    # 0) every recommendation applied cleanly.
    assert not analyser["failed"], analyser["failed"]
    # 1) correctness: all three configurations return identical volumes.
    assert base["rows"] == manual["rows"] == analyser["rows"]
    # 2) both optimizations beat the unoptimized database clearly.
    assert manual["runtime"] < base["runtime"] * 0.9
    assert analyser["runtime"] < base["runtime"] * 0.9
    # 3) the analyzer's performance is comparable to the manual DBA's
    #    (paper: 62% vs 60%; allow slack for wall-clock noise).
    assert analyser["runtime"] < manual["runtime"] * 1.4
    # 4) the analyzer recommends far fewer indexes than the reference
    #    set (paper: 12 vs 33) ...
    assert 0 < analyser["indexes"] < manual["indexes"]
    # 5) ... and therefore needs less disk than the manual configuration.
    assert analyser["bytes"] < manual["bytes"]
    # 6) both grow the database relative to unoptimized (indexes + B-Trees).
    assert manual["bytes"] > base["bytes"]
