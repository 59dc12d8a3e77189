"""Figure 6 — Cost Diagram: actual vs. estimated vs. virtual-index cost.

Paper result: for the ten most expensive statements of the recorded
50-query workload, the analyzer plots actual cost, the optimizer's
estimate, and the estimate assuming the recommended (still virtual)
indexes.  Some statements benefit visibly from virtual indexes; others
(Q2/Q4/Q7 in the paper) show large actual-vs-estimate divergence, for
which statistics collection is recommended (31 of the 50 statements in
the paper's run).
"""

from __future__ import annotations

import pytest

from repro.core.analyzer import Analyzer
from repro.setups import daemon_setup
from repro.workloads import WorkloadRunner, complex_query_set, load_nref

from conftest import BENCH_SCALE, COMPLEX_COUNT, format_table, write_result


@pytest.fixture(scope="module")
def analysis():
    setup = daemon_setup("nref")
    load_nref(setup.engine.database("nref"), BENCH_SCALE)
    session = setup.engine.connect("nref")
    runner = WorkloadRunner(session, keep_per_statement=False)
    runner.run(complex_query_set(BENCH_SCALE, count=COMPLEX_COUNT))
    setup.daemon.poll_once()
    setup.daemon.flush()
    analyzer = Analyzer(setup.engine.database("nref"))
    return analyzer.analyze_workload_db(setup.workload_db)


def test_fig6_cost_diagram(analysis, benchmark):
    diagram = benchmark.pedantic(
        lambda: analysis.cost_diagram, rounds=1, iterations=1)

    rows = []
    for entry in diagram.entries:
        rows.append([
            entry.label,
            f"{entry.actual_cost:10.1f}",
            f"{entry.estimated_cost:10.1f}",
            f"{entry.virtual_estimated_cost:10.1f}",
            "yes" if entry.divergent else "",
        ])
    table = format_table(
        ["stmt", "actual", "estimated", "w/ virtual idx", "divergent"],
        rows)
    table += ("\n\n" + diagram.render()
              + "\npaper: 10 bars; some improve with virtual indexes; "
                "Q2/Q4/Q7-style statements diverge -> collect statistics")
    write_result("fig6_cost_diagram", table)

    # Shape assertions.
    entries = diagram.entries
    # 1) the diagram covers the top-10 statements.
    assert len(entries) == 10
    # 2) bars are ordered by actual cost (most expensive first).
    costs = [e.actual_cost for e in entries]
    assert costs == sorted(costs, reverse=True)
    # 3) at least one statement benefits from virtual indexes...
    assert any(e.virtual_estimated_cost < e.estimated_cost * 0.95
               for e in entries)
    # 4) ...and, as in the paper's unoptimized run, several statements
    #    show significant actual-vs-estimated divergence.
    assert sum(1 for e in entries if e.divergent) >= 2


def test_fig6_divergent_statements_trigger_statistics(analysis, benchmark):
    findings = benchmark.pedantic(lambda: analysis.findings,
                                  rounds=1, iterations=1)
    # paper: "for 31 statements the analyzer reported that estimated
    # cost values differ significantly ... and suggested to collect
    # statistics" — a sizeable share of the workload, not a corner
    # case.  The monitor keys statements by shape, which folds the 50
    # queries into a dozen templates, so the share is counted in
    # executions: how many of the 50 ran a divergent statement.
    divergent = set(findings.divergent_statements)
    assert sum(profile.executions
               for profile in analysis.view.statements.values()
               if profile.text_hash in divergent) >= 5
    assert findings.tables_needing_statistics
    # all six tables had overflow problems in the paper's run
    assert len(findings.overflow_tables) >= 3
