"""Workload-DB retention: a purge deletes the expired prefix of each
table's pages and a heap frees the leading pages it emptied.

The property test holds the purge to a reference filter on every
storage structure a ``wl_*`` table can have; the 21-day scenario holds
the steady state to exact counts (pages, pool requests, rebuilds),
never to wall time.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faultsim
from repro.catalog.schema import IndexDef, StorageStructure
from repro.clock import VirtualClock
from repro.core.workload_db import WorkloadDatabase
from repro.engine import database as database_module
from repro.errors import ReproError

TABLE = "wl_indexes"
NAME = "n" * 150  # ~20 rows a page, so a few dozen rows span pages


def _rows(workload_db, table=TABLE):
    """``{rowid: row}`` in storage order."""
    return dict(workload_db.database.storage_for(table).scan())


def test_free_empty_prefix_stops_at_the_first_row():
    workload_db = WorkloadDatabase()
    database = workload_db.database
    storage = database.storage_for(TABLE)
    workload_db.append(TABLE, [(NAME, "t", n) for n in range(100)], 1.0)
    pages = list(storage.pages())
    page_ids = storage._store.page_ids()
    assert len(pages) >= 4
    doomed = [*pages[0][0], *pages[1][0], *list(pages[2][0])[:-1]]
    for rowid in doomed:
        database.delete_row(TABLE, rowid)
    live = _rows(workload_db)
    assert storage.free_empty_prefix() == 2
    assert storage.page_count == len(page_ids) - 2
    assert _rows(workload_db) == live  # the one row left on page 2 stays
    assert not any(database.disk.exists(pid) for pid in page_ids[:2])
    assert storage.free_empty_prefix() == 0
    database.modify_table(TABLE, StorageStructure.BTREE)
    assert storage.free_empty_prefix() == 0  # only a heap frees pages


# -- property: the purge against a reference filter ----------------------------

an_append = st.tuples(
    st.just("append"),
    st.integers(0, 40),                       # rows in the batch
    st.floats(0.0, 50.0),                     # stamp step (in order)
    st.floats(-200.0, 50.0),                  # stamp step (any order)
    st.sampled_from((None, None, "fault", "bad-row")),
    st.integers(0, 40),                       # where the bad row goes
)
a_purge = st.tuples(st.just("purge"), st.floats(-50.0, 400.0),
                    st.none() | st.integers(0, 20))  # a stored stamp
a_flush = st.tuples(st.just("flush"))


@pytest.mark.parametrize("structure", ["heap", "indexed", "btree"])
@settings(max_examples=100, deadline=None)
@given(in_order=st.booleans(),
       steps=st.lists(st.one_of(an_append, an_append, a_purge, a_flush),
                      min_size=1, max_size=14))
def test_purge_removes_only_expired_rows(structure, in_order, steps):
    faultsim.reset()
    with mock.patch.object(database_module, "BUFFER_POOL_PAGES", 8):
        workload_db = WorkloadDatabase(VirtualClock(0.0))
    database = workload_db.database
    if structure == "indexed":
        database.create_index(IndexDef("wl_by_seq", TABLE, ("src_seq",)))
    elif structure != "heap":
        database.modify_table(TABLE, StorageStructure(structure))
    storage = database.storage_for(TABLE)
    # Storage order is captured_at order on a heap fed in order and on
    # a B-Tree keyed on captured_at.
    exact = structure == "btree" or in_order
    stamp = 100.0
    stamps = []
    seq = 0
    for step in steps:
        if step[0] == "append":
            _, count, forward, any_step, failure, bad_at = step
            stamp += forward if in_order else any_step
            stamps.append(stamp)
            rows = [(NAME, "t", seq + i) for i in range(count)]
            if failure == "fault":
                faultsim.arm_from_spec("workload_db.append:once")
            elif failure == "bad-row":
                rows.insert(min(bad_at, count), (NAME, "t", "x"))
            before = len(_rows(workload_db))
            try:
                written = workload_db.append(
                    TABLE, rows, stamp, seqs=range(seq + 1, seq + len(rows) + 1))
            except ReproError:
                assert failure is not None
                written = len(_rows(workload_db)) - before
            else:
                assert failure is None
            assert written == (0 if failure == "fault"
                               else min(bad_at, count) if failure else count)
            seq += len(rows)
        elif step[0] == "flush":
            workload_db.flush()
        else:
            _, cutoff, at_stamp = step
            if at_stamp is not None and stamps:
                cutoff = stamps[at_stamp % len(stamps)]
            before = _rows(workload_db)
            removed = workload_db.purge_older_than(cutoff)
            after = _rows(workload_db)
            assert set(after) <= set(before)
            assert removed == len(before) - len(after)
            assert all(row[0] < cutoff for rowid, row in before.items()
                       if rowid not in after)
            if exact:
                survivors = {rowid: row for rowid, row in before.items()
                             if row[0] >= cutoff}
                assert after == survivors
            if structure in ("heap", "indexed") and removed:
                first = next(storage.pages(), ((), ()))[0]
                assert first or not storage.page_count  # no empty lead page
        assert storage.row_count == len(_rows(workload_db))
        if structure == "indexed":
            index = database.index_storage_for("wl_by_seq")
            assert sorted(entry[-1] for _rid, entry in index.scan()) == \
                sorted(_rows(workload_db))


# -- the steady state over 21 simulated days ---------------------------------------

DAY = 86400.0
ROWS_A_DAY = 4000


def _day_of_rows(day):
    """One day's ``wl_workload`` rows; every one encodes to the same
    size, so the pages rows fill depend on their count alone."""
    first = day * ROWS_A_DAY
    return [(n * 7919 % 100003, n % 8, float(n), 0.001, 0.002, 0.003,
             1.5, 2.5, 3.5, 4.5, 10, 2, 30, 4, "", 0.00001)
            for n in range(first, first + ROWS_A_DAY)]


def _fresh_fill(days):
    """``[pages]`` that 0, 1, ... ``days`` days of rows fill when
    appended to an empty table."""
    workload_db = WorkloadDatabase()
    storage = workload_db.database.storage_for("wl_workload")
    fill = [0]
    for day in range(days):
        workload_db.append("wl_workload", _day_of_rows(day), 0.0)
        fill.append(storage.page_count)
    return fill


def _daily_purges(retained_days, fresh_fill, days=21):
    """Append a day's rows, then purge what is older than
    ``retained_days``; per purge, the rows removed and the pool
    requests it made.  Checks the table's size after every purge."""
    workload_db = WorkloadDatabase(VirtualClock(0.0))
    database = workload_db.database
    storage = database.storage_for("wl_workload")
    rebuilds = []
    database.modify_table = lambda *args, **kwargs: rebuilds.append(args)
    purges = []
    for day in range(days):
        rows = _day_of_rows(day)
        workload_db.append("wl_workload", rows, day * DAY,
                           seqs=range(day * ROWS_A_DAY + 1,
                                      (day + 1) * ROWS_A_DAY + 1))
        before = database.pool.stats()
        removed = workload_db.purge_older_than((day - retained_days) * DAY)
        after = database.pool.stats()
        purges.append((removed, after.hits + after.misses
                       - before.hits - before.misses))
        live_days = min(day + 1, retained_days + 1)
        assert storage.row_count == live_days * ROWS_A_DAY
        fresh = fresh_fill[live_days]
        assert fresh <= storage.page_count <= fresh + 1
    assert rebuilds == []
    return purges


def test_retention_steady_state_over_21_days():
    schema = WorkloadDatabase().database.catalog.table("wl_workload").schema
    assert len({schema.codec.size((0.0, *row, 0))
                for row in _day_of_rows(20)}) == 1
    fresh_fill = _fresh_fill(15)
    week = _daily_purges(7, fresh_fill)
    fortnight = _daily_purges(14, fresh_fill)
    # Nothing is due until the window fills: one page read per purge.
    assert week[:8] == [(0, 1)] * 8
    assert fortnight[:15] == [(0, 1)] * 15
    assert [removed for removed, _ in week[8:]] == [ROWS_A_DAY] * 13
    assert [removed for removed, _ in fortnight[15:]] == [ROWS_A_DAY] * 6
    # A purge reads what expired, not what is kept: doubling the window
    # leaves its pool requests the same within one page (read by the
    # walk and again by the free, so two requests).
    requests = [requests for _, requests in week[8:] + fortnight[15:]]
    assert max(requests) - min(requests) <= 2
