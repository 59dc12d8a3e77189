"""The workload DB's truth contract, each rule stated once.

The chaos soak (and its storm mode) and ``repro drive --check`` call
these rules instead of keeping copies.  Every rule reads state without
changing it and returns human-readable violations (empty = held); the
caller decides when the system is quiescent enough to check.  Rows
with ``src_seq <= 0`` were appended without a source and are skipped,
as :meth:`WorkloadDatabase.load_high_water` skips them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core.ima import MONITOR_TABLES, WORKLOAD
from repro.core.overload import DETAILED, LEVEL_NAMES, conservation_report
from repro.core.tuning_journal import JournalState, TuningJournal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.monitor import IntegratedMonitor
    from repro.engine.database import Database
    from repro.setups import Setup

#: Position of ``session_id`` in a stored ``wl_workload`` row.
_SESSION_COLUMN = WORKLOAD.wl_schema.column_index("session_id")


def history_violations(setup: "Setup",
                       session_ids: Iterable[int] = ()) -> list[str]:
    """Exactly-once and order of the persisted workload history — per
    table no ``src_seq`` twice, ascending in persisted order — and
    every id in ``session_ids`` left at least one ``wl_workload`` row."""
    assert setup.workload_db is not None
    database = setup.workload_db.database
    violations: list[str] = []
    persisted_sessions: set[int] = set()
    for table in MONITOR_TABLES:
        name = table.wl_schema.name
        seen: set[int] = set()
        last = 0
        for _rowid, row in database.storage_for(name).scan():
            seq = row[-1]
            if seq <= 0:
                continue
            if seq in seen:
                violations.append(f"{name}: duplicate src_seq {seq}")
            seen.add(seq)
            if seq <= last:
                violations.append(
                    f"{name}: src_seq {seq} persisted after {last} "
                    "(order broken)")
            last = seq
            if table is WORKLOAD:
                persisted_sessions.add(row[_SESSION_COLUMN])
    missing = set(session_ids) - persisted_sessions
    if missing:
        violations.append(
            f"wl_workload: no rows persisted for sessions {sorted(missing)}")
    return violations


def journal_violations(journal: TuningJournal,
                       database: "Database") -> list[str]:
    """Recovery left no half-applied change, no change applied twice,
    and the schema agrees with the journal about every index."""
    violations: list[str] = []
    if journal.interrupted():
        violations.append(
            "journal still holds interrupted entries after recovery")
    applied_by_sql: dict[str, int] = {}
    should_exist: dict[str, bool] = {}
    for entry in journal.entries():
        applied = entry.state is JournalState.APPLIED
        if applied:
            applied_by_sql[entry.sql] = applied_by_sql.get(entry.sql, 0) + 1
        if entry.kind == "create index":
            # Any applied entry for the name means the index must stay,
            # even if a later attempt at the same statement failed.
            should_exist[entry.object_name] = (
                should_exist.get(entry.object_name, False) or applied)
    for sql, count in applied_by_sql.items():
        if count > 1:
            violations.append(f"{count} applied journal entries for {sql!r}")
    for index_name, expected in should_exist.items():
        exists = database.catalog.has_index(index_name)
        if exists != expected:
            violations.append(
                f"index {index_name!r}: schema says "
                f"{'present' if exists else 'absent'}, journal says "
                f"{'applied' if expected else 'not applied'}")
    return violations


def conservation_violations(monitor: "IntegratedMonitor") -> list[str]:
    """``issued == admitted + sampled_out + shed`` (see
    :mod:`repro.core.overload`); exact at quiescence for traffic driven
    through the sensors."""
    entry = conservation_report(monitor)
    balance = entry["admitted"] + entry["sampled_out"] + entry["shed"]
    if entry["issued"] == balance:
        return []
    return [f"issued={entry['issued']} != "
            f"admitted={entry['admitted']} + "
            f"sampled_out={entry['sampled_out']} + "
            f"shed={entry['shed']} (= {balance})"]


def settled(setup: "Setup") -> bool:
    """The monitor back at DETAILED — the point a storm's recovery loop
    waits for."""
    assert setup.controller is not None
    return setup.controller.level() == DETAILED


def peak_level(setup: "Setup") -> int:
    """Deepest ladder level any recorded degraded window reached."""
    assert setup.controller is not None
    return max((window["peak_level"]
                for window in setup.controller.degraded_windows()),
               default=DETAILED)


def storm_violations(setup: "Setup", min_peak: int) -> list[str]:
    """Storm quiescence: the storm degraded the monitor to ``min_peak``
    or deeper, and it has since healed with conservation exact."""
    controller = setup.controller
    assert setup.monitor is not None and controller is not None
    violations = conservation_violations(setup.monitor)
    level = controller.level()
    if level != DETAILED:
        violations.append(
            f"monitor stuck at {LEVEL_NAMES[level]} after recovery")
    if any(window["ended_at"] is None
           for window in controller.degraded_windows()):
        violations.append("degraded window left open after recovery")
    peak = peak_level(setup)
    if peak < min_peak:
        violations.append(
            f"storm never forced the monitor to {LEVEL_NAMES[min_peak]} "
            f"(peak level {LEVEL_NAMES[peak]}) — not a storm")
    return violations
