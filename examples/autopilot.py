#!/usr/bin/env python3
"""Fully autonomous tuning (the paper's section VI outlook).

Runs the control loop without a DBA in it: the workload shifts over
three phases, and after each phase the :class:`AutonomousTuner` polls
the daemon, analyzes, selects among the recommendations (dropping the
subsumed and the redundant, fitting indexes to a disk budget), filters
them through the safety policy, and applies the survivors on its own.
"""

from repro import AutonomousTuner, TuningPolicy, daemon_setup
from repro.workloads import NrefScale, WorkloadRunner, load_nref
from repro.workloads.nref import nref_id

SCALE = NrefScale(proteins=1200)


def phase_1_point_lookups(runner: WorkloadRunner) -> None:
    """OLTP-ish phase: selective lookups by taxon."""
    runner.run([
        f"select name from protein where tax_id = {tax}"
        for tax in range(60, 90)
    ])


def phase_2_joins(runner: WorkloadRunner) -> None:
    """Reporting phase: joins over protein/organism/sequence."""
    runner.run([
        "select p.name, o.organism_name from protein p "
        f"join organism o on p.nref_id = o.nref_id where o.tax_id = {tax}"
        for tax in range(20, 35)
    ] + [
        "select s.crc from protein p join sequence s "
        f"on p.nref_id = s.nref_id where p.nref_id = '{nref_id(i)}'"
        for i in range(1, 15)
    ])


def phase_3_ranges(runner: WorkloadRunner) -> None:
    """Analytical phase: range scans and aggregation."""
    runner.run([
        "select count(*), avg(mol_weight) from protein "
        f"where length between {lo} and {lo + 20}"
        for lo in range(30, 100, 10)
    ])


def main() -> None:
    setup = daemon_setup("nref")
    load_nref(setup.engine.database("nref"), SCALE)
    session = setup.engine.connect("nref")
    runner = WorkloadRunner(session, keep_per_statement=False)

    policy = TuningPolicy(
        min_index_benefit=1.0,
        disk_budget_bytes=2 * 1024 * 1024,
        max_changes_per_cycle=8,
    )
    tuner = AutonomousTuner(setup.engine, "nref", setup.workload_db,
                            daemon=setup.daemon, policy=policy)

    phases = [
        ("point lookups", phase_1_point_lookups),
        ("join reporting", phase_2_joins),
        ("range analytics", phase_3_ranges),
    ]
    for name, run_phase in phases:
        print(f"\n=== workload phase: {name} ===")
        run_phase(runner)
        report = tuner.run_cycle()
        print(report.describe())

    print(f"\ntotal changes applied autonomously: "
          f"{tuner.total_changes_applied}")
    database = setup.engine.database("nref")
    print("physical design now:")
    for entry in database.catalog.tables():
        if entry.is_virtual:
            continue
        indexes = [i.name for i in
                   database.catalog.indexes_on(entry.schema.name)]
        print(f"  {entry.schema.name}: {entry.structure.value}"
              + (f", indexes: {', '.join(indexes)}" if indexes else ""))


if __name__ == "__main__":
    main()
