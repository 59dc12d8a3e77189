"""Sessions: the statement pipeline with integrated sensor call sites.

A session runs ``parse -> optimize -> execute`` for queries and DML
alike (a statement shape seen before skips the first two), or the DDL
handler, and owns what surrounds a plan's execution: transaction scope,
table locks and the undo log.  The engine's
:class:`~repro.core.monitor.MonitorSensors` fire exactly where figure 2
of the paper places them.  Without sensors (the *Original* setup) each
sensor site is one skipped ``if``, and the work only sensors read —
the shape hash, the statement and optimize timers — is skipped with
it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, ClassVar

from repro import faultsim
from repro.catalog.schema import (
    Column,
    DataType,
    IndexDef,
    StorageStructure,
    TableSchema,
)
from repro.core.sensors import StatementContext, statement_hash
from repro.errors import ExecutionError, ReproError, SqlError
from repro.execution.executor import (ExecutionMetrics, Executor, Program,
                                      QueryResult)
from repro.engine.locks import LockMode
from repro.engine.transactions import Transaction
from repro.optimizer.optimizer import OptimizationResult, Optimizer
from repro.sql import ast_nodes as ast
from repro.sql.lexer import parameterize
from repro.sql.parser import parse_statement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.monitor import MonitorSensors
    from repro.engine.database import Database
    from repro.engine.engine import EngineInstance

#: Per-session cache of prepared statements keyed by statement shape
#: (the text with its literals blanked; literal values are bound at
#: execute), so the paper's 50k distinct texts plan once.  The same
#: budget holds the exact-text entries that keep the repeated 1m
#: statement at one lookup.  A session reads it when it connects; 0
#: turns its plan caching off, so every statement is planned afresh
#: (the reference path tests compare against).
PLAN_CACHE_SIZE = 256


@dataclass
class DmlResult:
    """Result of a non-SELECT statement."""

    kind: str
    rowcount: int = 0
    detail: str = ""


@dataclass(frozen=True)
class PreparedStatement:
    """A parsed and planned SELECT, INSERT, UPDATE or DELETE — or a
    parsed BEGIN / COMMIT / ROLLBACK, which has no plan — reusable for
    every text of its shape.

    Reuse must be invisible: a text may run this plan only where
    planning it fresh would have the same effect.  The plan is compiled
    once (``program``) and each execution's literal vector is bound to
    it; the ``pinned`` literals became structure (DESIGN.md §5,
    "Prepared statements"), so the text must agree on their values, on
    the types of all its literals (part of the cache key) and on the
    schema version.  The estimate the sensors record is this plan's;
    actual costs are per execution.
    """

    shape: str
    text: str
    """The first text seen with this shape."""
    kind: str
    tables: tuple[str, ...]
    statement: ast.Statement
    optimized: OptimizationResult | None
    schema_version: int
    pinned: tuple[tuple[int, Any], ...]
    """``(slot, value)`` of each literal a reusing text must share."""
    program: Program | None = None
    """The plan's compiled steps; None for transaction control."""
    optimize_time_s: ClassVar[float] = 0.0  # no execution plans it

    @cached_property
    def shape_hash(self) -> int:
        """64-bit hash of the shape: the monitor's statement key, hashed
        when the sensors first ask for it."""
        return statement_hash(self.shape)


_TYPE_MAP = {
    "int": DataType.INT,
    "integer": DataType.INT,
    "bigint": DataType.INT,
    "float": DataType.FLOAT,
    "double": DataType.FLOAT,
    "real": DataType.FLOAT,
    "varchar": DataType.VARCHAR,
    "text": DataType.TEXT,
    "bool": DataType.BOOL,
    "boolean": DataType.BOOL,
}

_STRUCTURES = {
    "heap": StorageStructure.HEAP,
    "btree": StorageStructure.BTREE,
}


class Session:
    """One connection to a database of an engine instance."""

    def __init__(self, engine: "EngineInstance", database: "Database",
                 session_id: int) -> None:
        self.engine = engine
        self.database = database
        self.session_id = session_id
        self.sensors: "MonitorSensors | None" = engine.sensors
        # What the terminal sensor samples when a sample is due.
        self._statistics = engine.system_statistics
        self.optimizer = Optimizer(database)
        self.executor = Executor(database, database.pool)
        self._explicit_txn: Transaction | None = None
        self.closed = False
        # Plan cache: ``(shape, literal types...) -> PreparedStatement``
        # and, in front of it in the same LRU budget, ``text ->
        # (PreparedStatement, literal vector)``: a repeated text is one
        # lookup with no lexer pass (what the paper's 1m test exposes).
        self._prepared: "OrderedDict[Any, Any]" = OrderedDict()
        self._plan_cache_size = PLAN_CACHE_SIZE
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._explicit_txn is not None and self._explicit_txn.is_active:
            self.rollback()
        if not self.closed:
            self.closed = True
            self.engine.on_session_closed(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- transaction plumbing ----------------------------------------------------

    def begin(self) -> None:
        if self._explicit_txn is not None and self._explicit_txn.is_active:
            raise ReproError("a transaction is already active")
        self._explicit_txn = Transaction()

    def commit(self) -> None:
        self._end_transaction(Transaction.commit)

    def rollback(self) -> None:
        self._end_transaction(Transaction.rollback)

    def _end_transaction(self, end: Callable[[Transaction], None]) -> None:
        txn = self._explicit_txn
        if txn is None or not txn.is_active:
            raise ReproError("no active transaction")
        end(txn)
        self.engine.lock_manager.release_all(txn.txn_id)
        self._explicit_txn = None

    def _current_txn(self) -> tuple[Transaction, bool]:
        """Return (transaction, is_autocommit)."""
        if self._explicit_txn is not None and self._explicit_txn.is_active:
            return self._explicit_txn, False
        return Transaction(), True

    # -- the statement pipeline -----------------------------------------------------

    def execute(self, text: str) -> QueryResult | DmlResult:
        """Run one SQL statement through the pipeline, and its sensors
        if the engine has them."""
        sensors = self.sensors
        clock = self.engine.clock
        started = clock.monotonic() if sensors is not None else 0.0
        prepared, key, values = self._lookup(text)
        # A prepared statement fires no sensor before its terminal one.
        ctx = prepared
        if sensors is not None and prepared is None:
            ctx = sensors.statement_start(statement_hash(key[0]))
        try:
            # Fault seam inside the monitored region: injected failures
            # and slow queries are observed by the sensors like real
            # ones (statement_error fires, wallclock includes latency).
            faultsim.fire("session.execute", error=ExecutionError,
                          clock=clock)
            if prepared is not None:
                statement, kind = prepared.statement, prepared.kind
                tables, origin = prepared.tables, None
            else:
                statement = parse_statement(text)
                kind, tables = _kind(statement), _statement_tables(statement)
                origin = (text, key, values)
                if sensors is not None:
                    sensors.parse_complete(ctx, kind, tables)
            if kind == "select":
                result = self._execute_select(statement, tables, ctx, values,
                                              prepared, origin)
            elif kind in _DML:
                result = self._execute_modify(statement, kind, values,
                                              prepared, origin)
            else:
                handler = _HANDLERS[type(statement)]
                result = handler(self, statement)
                if origin is not None and handler is _transaction_control:
                    self._store(*origin, statement)
        except ReproError as error:
            if sensors is not None:
                sensors.statement_error(ctx, text, self.session_id,
                                        str(error))
            raise
        if sensors is not None:
            # Actual costs are a query's; DML and DDL report none.
            sensors.execute_complete(
                ctx, text, self.session_id,
                getattr(result, "metrics", _NO_WORK),
                clock.monotonic() - started, self._statistics)
        return result

    def explain(self, text: str) -> str:
        """Return the optimizer's plan for a SELECT without running it."""
        statement = parse_statement(text)
        if not isinstance(statement, ast.SelectStatement):
            raise ExecutionError("EXPLAIN supports only SELECT statements")
        return self.optimizer.optimize_select(statement).explain()

    # -- plan cache -----------------------------------------------------------

    # staticcheck: hotpath
    def _lookup(self, text: str) -> tuple[PreparedStatement | None,
                                          tuple | None, tuple]:
        """``(prepared, shape key, literal vector)`` for ``text``;
        ``prepared`` is None where the statement has to be parsed, the
        key None for a repeated text (one lookup, nothing lexed)."""
        cache = self._prepared
        version = self.database.schema_version
        entry = cache.get(text)
        if entry is not None and entry[0].schema_version == version:
            cache.move_to_end(text)
            self.plan_cache_hits += 1
            return entry[0], None, entry[1]
        shape, values = parameterize(text)
        key = (shape, *map(type, values))
        prepared = cache.get(key)
        if prepared is not None and prepared.schema_version == version:
            for slot, value in prepared.pinned:
                if values[slot] != value:
                    break
            else:
                cache.move_to_end(key)
                self._remember(text, (prepared, values))
                self.plan_cache_hits += 1
                return prepared, key, values
        return None, key, values

    def _remember(self, key: Any, entry: Any) -> None:
        cache = self._prepared
        cache[key] = entry
        cache.move_to_end(key)
        while len(cache) > self._plan_cache_size:
            cache.popitem(last=False)

    def _store(self, text: str, key: tuple, values: tuple,
               statement: ast.Statement,
               optimized: OptimizationResult | None = None,
               program: Program | None = None) -> None:
        if self._plan_cache_size <= 0:
            return
        self.plan_cache_misses += 1
        pinned = getattr(statement, "pinned_slots", ())
        if optimized is not None:
            pinned += optimized.pinned_slots
        prepared = PreparedStatement(
            shape=key[0], text=text,
            kind=_kind(statement), tables=_statement_tables(statement),
            statement=statement, optimized=optimized,
            schema_version=self.database.schema_version,
            pinned=tuple((slot, values[slot]) for slot in pinned),
            program=program)
        self._remember(key, prepared)
        self._remember(text, (prepared, values))

    # -- SELECT -----------------------------------------------------------------------

    def _execute_select(self, statement: ast.SelectStatement,
                        tables: tuple[str, ...],
                        ctx: "StatementContext | PreparedStatement | None",
                        values: tuple,
                        prepared: PreparedStatement | None,
                        origin: tuple[str, tuple, tuple] | None,
                        ) -> QueryResult:
        """Run a SELECT of ``tables`` under the text's literal vector
        ``values``: ``prepared``'s program, or planning ``statement``
        and preparing it for ``origin`` — the text, its shape key and
        literal vector."""
        txn, autocommit = self._current_txn()
        try:
            for table_name in tables:
                if not self.database.is_virtual_table(table_name):
                    self.engine.lock_manager.acquire(
                        txn.txn_id, table_name.lower(), LockMode.SHARED)
            if prepared is not None:
                return self.executor.execute(
                    prepared.program, prepared.optimized.output_names, values)
            if ctx is None:
                optimized = self.optimizer.optimize_select(statement)
            else:
                clock = self.engine.clock
                optimize_started = clock.monotonic()
                optimized = self.optimizer.optimize_select(statement)
                self.sensors.optimize_complete(
                    ctx, optimized, clock.monotonic() - optimize_started)
            program = Program(optimized.plan)
            if origin is not None:
                self._store(*origin, statement, optimized, program)
            return self.executor.execute(
                program, optimized.output_names, values,
                counted=None if ctx is None else ctx.counted)
        finally:
            if autocommit:
                self.engine.lock_manager.release_all(txn.txn_id)

    # -- DML ---------------------------------------------------------------------------

    # staticcheck: hotpath
    def _execute_modify(self, statement: Any, kind: str, values: tuple,
                        prepared: PreparedStatement | None,
                        origin: tuple[str, tuple, tuple] | None,
                        ) -> DmlResult:
        """Run an INSERT, UPDATE or DELETE (prepared, or planned and
        prepared here, as :meth:`_execute_select` does) under an
        exclusive table lock.  The statement is atomic: whatever fails,
        the undo log is unwound to where the statement began; an
        explicit transaction stays active."""
        txn, autocommit = self._current_txn()
        mark = txn.pending_changes
        try:
            self.engine.lock_manager.acquire(
                txn.txn_id, statement.table_name.lower(), LockMode.EXCLUSIVE)
            if prepared is not None:
                optimized, program = prepared.optimized, prepared.program
            else:
                optimized = self.optimizer.optimize_modify(statement)
                program = Program(optimized.plan)
                if origin is not None:
                    self._store(*origin, statement, optimized, program)
            result = self.executor.execute(
                program, optimized.output_names, values, txn.record_undo)
            if autocommit:
                txn.commit()
            return DmlResult(kind, rowcount=result.rows[0][0])
        except BaseException:
            txn.rollback_to(mark)
            raise
        finally:
            if autocommit:
                self.engine.lock_manager.release_all(txn.txn_id)

    # -- DDL ---------------------------------------------------------------------------

    def _execute_create_table(self,
                              statement: ast.CreateTableStatement) -> DmlResult:
        columns = []
        for definition in statement.columns:
            data_type = _TYPE_MAP.get(definition.type_name)
            if data_type is None:
                raise SqlError(f"unknown type {definition.type_name!r}")
            nullable = definition.nullable \
                and definition.name not in statement.primary_key
            columns.append(Column(
                definition.name, data_type,
                max_length=definition.length
                or (255 if data_type is DataType.VARCHAR else 0),
                nullable=nullable,
            ))
        schema = TableSchema(statement.table_name, tuple(columns),
                             statement.primary_key)
        structure = StorageStructure.HEAP
        if statement.structure is not None:
            structure = _parse_structure(statement.structure)
        self.database.create_table(schema, structure, statement.main_pages)
        return DmlResult("create table", detail=statement.table_name)

    def _execute_create_index(self,
                              statement: ast.CreateIndexStatement) -> DmlResult:
        definition = IndexDef(
            name=statement.index_name,
            table_name=statement.table_name,
            column_names=statement.columns,
            unique=statement.unique,
            virtual=statement.virtual,
        )
        self.database.create_index(definition)
        kind = "create virtual index" if statement.virtual else "create index"
        return DmlResult(kind, detail=statement.index_name)

    def _modify_structure(self, statement: ast.ModifyStatement) -> DmlResult:
        structure = _parse_structure(statement.structure)
        txn, autocommit = self._current_txn()
        try:
            self.engine.lock_manager.acquire(
                txn.txn_id, statement.table_name.lower(), LockMode.EXCLUSIVE)
            self.database.modify_table(statement.table_name, structure,
                                       statement.main_pages)
            return DmlResult("modify", detail=(
                f"{statement.table_name} to {structure.value}"))
        finally:
            if autocommit:
                self.engine.lock_manager.release_all(txn.txn_id)


def _drop_table(session: Session, statement: Any) -> DmlResult:
    session.database.drop_table(statement.table_name)
    return DmlResult("drop table", detail=statement.table_name)


def _drop_index(session: Session, statement: Any) -> DmlResult:
    session.database.drop_index(statement.index_name)
    return DmlResult("drop index", detail=statement.index_name)


def _create_statistics(session: Session, statement: Any) -> DmlResult:
    stats = session.database.collect_statistics(
        statement.table_name, statement.columns)
    return DmlResult("create statistics", rowcount=stats.row_count,
                     detail=statement.table_name)


def _create_trigger(session: Session, statement: Any) -> DmlResult:
    schema = session.database.catalog.table(statement.table_name).schema
    session.database.triggers.create(
        statement.trigger_name, schema, statement.condition,
        statement.message)
    return DmlResult("create trigger", detail=statement.trigger_name)


def _drop_trigger(session: Session, statement: Any) -> DmlResult:
    session.database.triggers.drop(statement.trigger_name)
    return DmlResult("drop trigger", detail=statement.trigger_name)


def _explain(session: Session, statement: Any) -> QueryResult:
    plan = session.optimizer.optimize_select(statement.statement).explain()
    return QueryResult(("plan",), [(line,) for line in plan.splitlines()],
                       _NO_WORK)


def _transaction_control(session: Session, statement: Any) -> DmlResult:
    kind = _kind(statement)
    getattr(session, kind)()  # Session.begin / .commit / .rollback
    return DmlResult(kind)


_DML = frozenset(("insert", "update", "delete"))
_NO_WORK = ExecutionMetrics()

# What is neither planned nor prepared (transaction control is only
# prepared), by statement type.
_HANDLERS: dict[type, Callable[[Session, Any], QueryResult | DmlResult]] = {
    ast.CreateTableStatement: Session._execute_create_table,
    ast.DropTableStatement: _drop_table,
    ast.CreateIndexStatement: Session._execute_create_index,
    ast.DropIndexStatement: _drop_index,
    ast.ModifyStatement: Session._modify_structure,
    ast.CreateStatisticsStatement: _create_statistics,
    ast.CreateTriggerStatement: _create_trigger,
    ast.DropTriggerStatement: _drop_trigger,
    ast.ExplainStatement: _explain,
    ast.BeginStatement: _transaction_control,
    ast.CommitStatement: _transaction_control,
    ast.RollbackStatement: _transaction_control,
}


def _kind(statement: ast.Statement) -> str:
    """``select``, ``insert``, ``createtable``, ...: what the sensors
    record as the statement's kind."""
    return type(statement).__name__.removesuffix("Statement").lower()


def _parse_structure(name: str) -> StorageStructure:
    structure = _STRUCTURES.get(name.lower())
    if structure is None:
        raise SqlError(f"unknown storage structure {name!r}")
    return structure


def _statement_tables(statement: ast.Statement) -> tuple[str, ...]:
    """Base table names a statement touches (for locks and sensors)."""
    if isinstance(statement, ast.SelectStatement):
        names = []
        if statement.from_table is not None:
            names.append(statement.from_table.table_name)
        names.extend(j.right.table_name for j in statement.joins)
        return tuple(dict.fromkeys(names))
    name = getattr(statement, "table_name", None)
    return (name,) if isinstance(name, str) else ()
