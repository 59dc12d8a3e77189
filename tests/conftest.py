"""Shared fixtures: engines, databases and small NREF instances."""

from __future__ import annotations

import pytest

from repro import faultsim
from repro.catalog.schema import Column, DataType, TableSchema
from repro.clock import VirtualClock
from repro.config import EngineConfig
from repro.engine import EngineInstance
from repro.setups import daemon_setup, monitoring_setup, original_setup
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager
from repro.workloads import NrefScale, load_nref


@pytest.fixture(autouse=True)
def _reset_faultsim():
    """No armed failure point or clock offset may leak across tests."""
    yield
    faultsim.reset()


@pytest.fixture
def disk() -> DiskManager:
    return DiskManager()


@pytest.fixture
def pool(disk: DiskManager) -> BufferPool:
    return BufferPool(disk, capacity=64)


@pytest.fixture
def small_pool(disk: DiskManager) -> BufferPool:
    """A tiny pool that forces evictions."""
    return BufferPool(disk, capacity=4)


@pytest.fixture
def people_schema() -> TableSchema:
    return TableSchema("people", (
        Column("id", DataType.INT, nullable=False),
        Column("name", DataType.VARCHAR, 40),
        Column("age", DataType.INT),
        Column("score", DataType.FLOAT),
    ), primary_key=("id",))


@pytest.fixture
def engine() -> EngineInstance:
    return EngineInstance(EngineConfig())


@pytest.fixture
def session(engine: EngineInstance):
    engine.create_database("testdb")
    with engine.connect("testdb") as sess:
        yield sess


@pytest.fixture
def people_session(session):
    """A session with a populated 'people' table."""
    session.execute(
        "create table people (id int not null, name varchar(40), age int, "
        "score float, primary key (id))"
    )
    values = ", ".join(
        f"({i}, 'person{i}', {20 + i % 50}, {i * 1.5})" for i in range(1, 201)
    )
    session.execute(f"insert into people values {values}")
    return session


NREF_TEST_SCALE = NrefScale(proteins=300)


@pytest.fixture(scope="module")
def nref_setup():
    """A daemon setup with a small populated NREF database.

    Module-scoped: loading even a small NREF instance is the expensive
    part of these tests.  Tests must not mutate the data.
    """
    setup = daemon_setup("nref")
    load_nref(setup.engine.database("nref"), NREF_TEST_SCALE, main_pages=2)
    return setup


@pytest.fixture
def fresh_nref_setup():
    """Function-scoped NREF setup for tests that mutate the database."""
    setup = daemon_setup("nref")
    load_nref(setup.engine.database("nref"), NREF_TEST_SCALE, main_pages=2)
    return setup


@pytest.fixture
def virtual_clock() -> VirtualClock:
    return VirtualClock(start=1_000_000.0)


__all__ = ["daemon_setup", "monitoring_setup", "original_setup"]
