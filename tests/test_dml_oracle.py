"""DML against stdlib ``sqlite3``, generated.

Hypothesis draws streams of INSERT / UPDATE / DELETE and transaction
control; each stream runs on this engine with its plan cache on, on
this engine with ``PLAN_CACHE_SIZE`` patched to 0 and on SQLite.  After every
statement the three must agree on whether it failed, on its row count
and on the table's contents — so a failing statement leaves nothing
behind, inside a transaction or outside one, and a statement that runs
another text's prepared plan does what planning it afresh does.

The table is a heap or a B-Tree, without a secondary index, with one,
or with a unique one (NULL keys in it are distinct, in both engines).
Statements that change a key column of several rows do it by negation:
an involution collides the same way whatever order the rows are
visited in, which is the one thing the engines may differ in.
"""

from __future__ import annotations

import sqlite3
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineInstance
from repro.engine import session as session_module
from repro.errors import ReproError

STRUCTURES = ("heap", "btree")
INDEXES = ("", "index", "unique index")
ALL_ROWS = "select id, k, n, v from t"


class Trio:
    """One empty table ``t`` in all three."""

    def __init__(self, structure: str, index: str) -> None:
        self.sessions = []
        for size in (256, 0):
            engine = EngineInstance()
            engine.create_database("d")
            with mock.patch.object(session_module, "PLAN_CACHE_SIZE", size):
                session = engine.connect("d")
            session.execute("create table t (id int not null, k int, "
                            "n varchar(12), v float, primary key (id))")
            if structure != "heap":
                session.execute(f"modify t to {structure}")
            self.sessions.append(session)
        # isolation_level=None: BEGIN/COMMIT are the stream's own.
        self.sqlite = sqlite3.connect(":memory:", isolation_level=None)
        self.sqlite.execute("pragma case_sensitive_like = on")
        self.sqlite.execute("create table t (id int not null primary key, "
                            "k int, n varchar(12), v real)")
        if index:
            self.ddl(f"create {index} ik on t (k)")

    def ddl(self, text: str) -> None:
        for session in self.sessions:
            session.execute(text)
        if not text.startswith("modify"):
            self.sqlite.execute(text)

    def check(self, text: str) -> None:
        """Run ``text`` everywhere; compare outcome and contents."""
        outcomes = []
        for session in self.sessions:
            try:
                outcomes.append(session.execute(text).rowcount)
            except ReproError:
                outcomes.append("failed")
        try:
            # SQLite has no row count for BEGIN/COMMIT (-1); ours is 0.
            outcomes.append(max(self.sqlite.execute(text).rowcount, 0))
        except sqlite3.Error:
            outcomes.append("failed")
        assert outcomes[0] == outcomes[1] == outcomes[2], (text, outcomes)
        theirs = sorted(self.sqlite.execute(ALL_ROWS).fetchall(), key=repr)
        for session in self.sessions:
            ours = sorted(session.execute(ALL_ROWS).rows, key=repr)
            assert ours == theirs, text

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        self.sqlite.close()


# -- the statement generator -------------------------------------------------

def sql(value) -> str:
    if value is None:
        return "null"
    return f"'{value}'" if isinstance(value, str) else repr(value)


def maybe_null(values):
    return st.one_of(st.none(), values)


IDS = st.integers(-30, 30)  # few enough to collide
KS = st.integers(-5, 5)
NAMES = st.sampled_from(["", "a", "ab", "b", "Ba", "zz"])
QUARTERS = st.integers(0, 40).map(lambda i: i * 0.25)
ROW = st.tuples(IDS, maybe_null(KS), maybe_null(NAMES), maybe_null(QUARTERS))

PREDICATE = st.one_of(
    st.builds("id = {}".format, IDS),                        # key equality
    st.builds("id >= {} and id < {}".format, IDS, IDS),      # key range
    st.builds("id between {} and {}".format, IDS, IDS),
    st.builds("k = {}".format, KS),                          # secondary index
    st.builds("k > {} and n >= {}".format, KS, NAMES.map(sql)),
    st.builds("k + 1 > {}".format, KS),                      # non-sargable
    st.builds("n like {}".format, st.sampled_from(["'a%'", "'%a'", "'_'"])),
    st.builds("v * 2 < {} or k is null".format, QUARTERS),
    st.sampled_from(["1 = 0", "k = null", "id = 3 and id = 4"]),  # never
)
WHERE = st.one_of(st.just(""), PREDICATE.map(" where {}".format))

ASSIGNMENT = st.one_of(
    st.builds("v = v + {}".format, QUARTERS),
    st.builds("n = {}".format, maybe_null(NAMES).map(sql)),
    st.builds("v = {}, n = {}".format, maybe_null(QUARTERS).map(sql),
              NAMES.map(sql)),
    st.sampled_from(["id = -id", "k = -k", "k = -k, v = v * 2"]),
    st.builds("k = {}".format, maybe_null(KS).map(sql)),
)

STATEMENT = st.one_of(
    st.lists(ROW, min_size=1, max_size=4).map(
        lambda rows: "insert into t values " + ", ".join(
            "(" + ", ".join(map(sql, row)) + ")" for row in rows)),
    st.builds("insert into t (n, id) values ({}, {})".format,
              NAMES.map(sql), IDS),
    st.builds("update t set {}{}".format, ASSIGNMENT, WHERE),
    st.builds("update t set id = {} where id = {}".format, IDS, IDS),
    st.builds("delete from t{}".format, WHERE),
    st.sampled_from(["begin", "commit", "rollback"]),
)


@pytest.mark.parametrize("index", INDEXES)
@pytest.mark.parametrize("structure", STRUCTURES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(stream=st.lists(STATEMENT, min_size=1, max_size=30))
def test_dml_streams_match_sqlite(structure, index, stream):
    trio = Trio(structure, index)
    try:
        # Something to update and delete from the first statement on.
        trio.check("insert into t values (1, 1, 'a', 1.0), (2, 2, 'ab', "
                   "2.5), (-2, -2, null, null), (7, 4, 'b', 0.0)")
        for text in stream:
            trio.check(text)
        cached, uncached = trio.sessions
        assert uncached.plan_cache_hits == 0
    finally:
        trio.close()


# -- statement atomicity, spelled out ----------------------------------------

@pytest.mark.parametrize("structure", STRUCTURES)
def test_failing_statement_is_backed_out_of_its_transaction(structure):
    """A statement that fails part-way leaves nothing behind; the
    transaction around it stays open and commits the rest."""
    trio = Trio(structure, "unique index")
    try:
        trio.check("insert into t values (1, 1, 'x', 1.0), (2, 2, 'y', 2.0)")
        trio.check("begin")
        trio.check("insert into t values (9, 9, 'kept', 0.0)")
        # the second row violates the unique index, the first does not
        trio.check("insert into t values (10, 10, 'x', 1.0), "
                   "(11, 1, 'a', 1.0)")
        # the second row the update reaches collides with the first
        trio.check("update t set k = 5 where id >= 1")
        trio.check("update t set id = 2 where id = 9")  # primary key
        trio.check("commit")
        for session in trio.sessions:
            assert sorted(session.execute("select id from t").rows) \
                == [(1,), (2,), (9,)]
        # and outside a transaction
        trio.check("insert into t values (10, 10, 'x', 1.0), "
                   "(11, 1, 'a', 1.0)")
        trio.check("delete from t where id = 9")
    finally:
        trio.close()


def test_any_exception_backs_the_statement_out(session, monkeypatch):
    """Not only a ReproError: the undo log is unwound whatever the
    modify operator raises, in autocommit too."""
    session.execute("create table t (a int not null, primary key (a))")
    session.execute("insert into t values (1)")
    calls = []
    insert_row = session.database.insert_row

    def failing(table, row):
        if calls:
            raise RuntimeError("disk on fire")
        calls.append(row)
        return insert_row(table, row)

    monkeypatch.setattr(session.database, "insert_row", failing)
    with pytest.raises(RuntimeError):
        session.execute("insert into t values (2), (3)")
    assert session.execute("select a from t").rows == [(1,)]


@pytest.mark.parametrize("structure", STRUCTURES)
def test_comparison_with_null_never_probes_a_key(structure):
    """``k = null`` is never true; as a key probe it would find the
    NULL keys (what UPDATE and DELETE inherit from SELECT's access
    paths, they inherit with this fixed)."""
    trio = Trio(structure, "index")
    try:
        trio.check("insert into t values (1, null, 'a', 1.0), "
                   "(2, 2, 'b', 2.0), (3, null, null, null)")
        for session in trio.sessions:
            assert session.execute("select id from t where k = null "
                                   "or k < null").rows == []
            assert session.execute(
                "select id from t where k = null").rows == []
            assert session.execute(
                "select id from t where k between null and 5").rows == []
        trio.check("delete from t where k = null")
        trio.check("update t set v = 9.0 where k >= null")
        trio.check("delete from t where k is null")
    finally:
        trio.close()


@pytest.mark.parametrize("structure", STRUCTURES)
def test_unique_index_lets_null_keys_repeat(structure):
    """A key with a NULL in it collides with nothing: a unique index is
    built over two NULL keys and takes a third, as in SQLite."""
    trio = Trio(structure, "")
    try:
        trio.check("insert into t values (1, null, 'a', 1.0), "
                   "(2, null, 'b', 2.0)")
        trio.ddl("create unique index ik on t (k)")
        trio.check("insert into t values (3, null, 'c', 3.0)")
        trio.check("insert into t values (4, 4, 'd', 4.0)")
        trio.check("insert into t values (5, 4, 'e', 5.0)")  # a duplicate
        trio.check("update t set k = null where id = 4")
        trio.check("update t set k = 1 where k is null and id < 3")
    finally:
        trio.close()
