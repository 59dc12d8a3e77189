"""Every IMA virtual table's rows match their declared column types, so
an inlined comparison in a generated filter never meets a value off
its column's type (stored tables check every write)."""

from repro import daemon_setup
from repro.clock import VirtualClock
from repro.core import ima


def test_live_ima_rows_pass_their_schema():
    clock = VirtualClock(start=1000.0)
    setup = daemon_setup("db", clock=clock)
    with setup.engine.connect("db") as session:
        session.execute("create table t (a int, s varchar(10))")
        session.execute("insert into t values " + ", ".join(
            f"({i}, 'x{i}')" for i in range(2000)))
        session.execute("create index t_a on t (a)")
        for i in range(20):  # index lookups: ima_indexes
            session.execute(f"select s from t where a = {i}")
            clock.advance(1.0)
        session.execute("select count(*) from t where s like 'x1%'")
        # A hash join over 2 000 rows costs past PLAN_CAPTURE_MIN_COST.
        session.execute("select t1.s from t t1, t t2 "
                        "where t1.a = t2.a and t2.s like 'x1%'")
        setup.daemon.poll_once()
        # The plan node that reads an index names the index's table.
        assert ("t_a", "t") in {row[1:3] for row in session.execute(
            "select * from ima_indexes").rows}
        assert ("index", "t_a", "t") in {row[2:5] for row in session.execute(
            "select * from ima_references").rows}
        filled = 0
        for table in ima.MONITOR_TABLES:
            rows = session.execute(
                f"select * from {table.ima_schema.name}").rows
            for row in rows:
                assert table.ima_schema.check_row(row) == tuple(row)
            filled += bool(rows)
    assert filled == len(ima.MONITOR_TABLES)
