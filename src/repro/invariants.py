"""The workload DB's truth contract, each rule stated once.

The chaos soak, ``repro drive --check`` and both storm drills call
these rules instead of keeping copies.  Every rule reads state without
changing it and returns human-readable violations (empty = held); the
caller decides when the system is quiescent enough to check.  Rows
with ``src_seq <= 0`` were appended without a source and are skipped,
as :meth:`WorkloadDatabase.load_high_water_vector` skips them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.core.overload import DETAILED, LEVEL_NAMES, conservation_report
from repro.core.sharding import shard_of_seq
from repro.core.tuning_journal import JournalState, TuningJournal
from repro.core.workload_db import WORKLOAD_TABLES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database
    from repro.setups import Setup

#: Position of ``session_id`` in a stored ``wl_workload`` row
#: (``captured_at, text_hash, session_id, ...``).
_SESSION_COLUMN = 2


def history_violations(setup: "Setup",
                       session_ids: Iterable[int] = ()) -> list[str]:
    """Exactly-once, per-shard order and session attribution of the
    persisted workload history; ``session_ids`` (if given) must each
    have left rows in their shard."""
    assert setup.workload_db is not None
    shard_count = setup.monitor.shard_count if setup.monitor else 1
    database = setup.workload_db.database
    violations: list[str] = []
    observed_shards: set[int] = set()
    for schema in WORKLOAD_TABLES:
        name = schema.name
        seen: set[int] = set()
        last_per_shard: dict[int, int] = {}
        for _rowid, row in database.storage_for(name).scan():
            seq = row[-1]
            if seq <= 0:
                continue
            shard = shard_of_seq(seq)
            if seq in seen:
                violations.append(f"{name}: duplicate src_seq {seq}")
            seen.add(seq)
            if seq <= last_per_shard.get(shard, 0):
                violations.append(
                    f"{name}: shard {shard} src_seq {seq} persisted "
                    f"after {last_per_shard[shard]} (order broken)")
            last_per_shard[shard] = seq
            if name == "wl_workload":
                observed_shards.add(shard)
                session_id = row[_SESSION_COLUMN]
                if session_id % shard_count != shard:
                    violations.append(
                        f"wl_workload: session {session_id} recorded in "
                        f"shard {shard}, expected {session_id % shard_count}")
    missing = {sid % shard_count for sid in session_ids} - observed_shards
    if missing:
        violations.append(
            f"wl_workload: no rows persisted for shards {sorted(missing)}")
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


def conservation_violations(monitor: Any) -> list[str]:
    """Per shard, ``issued == admitted + sampled_out + shed`` (see
    :mod:`repro.core.overload`); exact at quiescence for traffic driven
    through the sensors."""
    violations = []
    for entry in conservation_report(monitor):
        balance = entry["admitted"] + entry["sampled_out"] + entry["shed"]
        if entry["issued"] != balance:
            violations.append(
                f"shard {entry['shard_id']}: issued={entry['issued']} != "
                f"admitted={entry['admitted']} + "
                f"sampled_out={entry['sampled_out']} + "
                f"shed={entry['shed']} (= {balance})")
    return violations


def settled(setup: "Setup") -> bool:
    """Every shard at DETAILED and no poll group parked — the point a
    storm's recovery loop waits for."""
    assert setup.daemon is not None and setup.controller is not None
    return (not setup.daemon.parked_shards()
            and set(setup.controller.levels()) == {DETAILED})


def peak_level(setup: "Setup") -> int:
    """Deepest ladder level any recorded degraded window reached."""
    assert setup.controller is not None
    return max((window["peak_level"]
                for window in setup.controller.degraded_windows()),
               default=DETAILED)


def storm_violations(setup: "Setup", min_peak: int) -> list[str]:
    """Storm quiescence: the storm degraded some shard to ``min_peak``
    or deeper, and everything has since healed with conservation
    exact."""
    daemon, controller = setup.daemon, setup.controller
    assert daemon is not None and controller is not None
    violations = conservation_violations(setup.monitor)
    for shard_id, level in enumerate(controller.levels()):
        if level != DETAILED:
            violations.append(
                f"shard {shard_id} stuck at {LEVEL_NAMES[level]} "
                "after recovery")
    parked = daemon.parked_shards()
    if parked:
        violations.append(
            f"poll groups still parked for shards {sorted(parked)}")
    if any(window["ended_at"] is None
           for window in controller.degraded_windows()):
        violations.append("degraded window left open after recovery")
    peak = peak_level(setup)
    if peak < min_peak:
        violations.append(
            f"storm never forced any shard to {LEVEL_NAMES[min_peak]} "
            f"(peak level {LEVEL_NAMES[peak]}) — not a storm")
    return violations
