"""The virtual-index advisor.

Each recorded statement profile is one template: the monitor keys
statements by shape (their text with the literals taken out), so the
literal variants of a query are one profile carrying their summed
frequency.  For each SELECT profile the advisor generates candidate
indexes from its sargable and join columns, registers them as
*virtual* indexes, and lets the engine's own optimizer decide whether
it would use them (the paper's requirement ii).  A candidate the
improved plan uses earns the profile's recorded frequency in votes;
the recommended set is the voted candidates — matching the paper's
presumption that "an index that was recommended for many statements
is more useful".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.catalog.schema import IndexDef
from repro.core.analyzer.recommendations import (
    Recommendation,
    RecommendationKind,
)
from repro.core.analyzer.workload_view import StatementProfile
from repro.errors import CatalogError, ReproError
from repro.optimizer.predicates import (
    BindingResolver,
    classify_conjuncts,
    split_conjuncts,
)
from repro.optimizer.what_if import what_if_optimize
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement, statement_kind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database

CandidateKey = tuple[str, tuple[str, ...]]  # (table, columns)

MAX_INDEX_WIDTH = 3
MIN_BENEFIT_RATIO = 0.05
"""A what-if plan must cut estimated cost by at least this fraction
for its virtual indexes to earn votes."""
MAX_CANDIDATES_PER_STATEMENT = 12


@dataclass
class AdvisorResult:
    virtual_costs: dict[int, float] = field(default_factory=dict)
    """Estimated cost per costed statement hash with the virtual indexes
    that earned its votes, its baseline when none did (feeds the cost
    diagram)."""
    votes: dict[CandidateKey, int] = field(default_factory=dict)
    benefits: dict[CandidateKey, float] = field(default_factory=dict)
    recommendations: list[Recommendation] = field(default_factory=list)
    skipped_statements: int = 0
    skipped_candidates: int = 0
    """Candidates the catalog refused (the rest were still costed)."""
    whatif_calls: int = 0


class IndexAdvisor:
    """Recommends secondary indexes via virtual-index what-if analysis."""

    def __init__(self, database: "Database") -> None:
        self._database = database

    # -- candidate generation ------------------------------------------------

    def candidates_for(self, statement: str | ast.Statement) -> list[IndexDef]:
        """Candidate indexes for one SELECT (text or parsed), from its
        predicate columns."""
        return self._candidates(statement)[0]

    def _candidates(self, statement: str | ast.Statement,
                    ) -> tuple[list[IndexDef], int]:
        """The candidates, and how many more the catalog refused."""
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if not isinstance(statement, ast.SelectStatement) \
                or statement.from_table is None:
            return [], 0
        bindings: dict[str, str] = {statement.from_table.binding:
                                    statement.from_table.table_name}
        for join in statement.joins:
            bindings.setdefault(join.right.binding, join.right.table_name)
        binding_columns = {}
        for binding, table in bindings.items():
            if not self._database.catalog.has_table(table):
                return [], 0
            entry = self._database.catalog.table(table)
            if entry.is_virtual:
                return [], 0
            binding_columns[binding] = entry.schema.column_names
        resolver = BindingResolver(binding_columns)
        conjuncts = [resolver.qualify(c)
                     for c in split_conjuncts(statement.where)]
        for join in statement.joins:
            if join.condition is not None:
                conjuncts.extend(resolver.qualify(c)
                                 for c in split_conjuncts(join.condition))
        classified = classify_conjuncts(conjuncts)

        eq_columns: dict[str, list[str]] = {}
        range_columns: dict[str, list[str]] = {}
        join_columns: dict[str, list[str]] = {}
        for binding, predicates in classified.per_binding.items():
            for predicate in predicates:
                self._classify_sargable(predicate, binding, eq_columns,
                                        range_columns)
        for edge in classified.edges:
            for ref in (edge.left, edge.right):
                columns = join_columns.setdefault(ref.table, [])
                if ref.name not in columns:
                    columns.append(ref.name)

        keys: list[CandidateKey] = []
        seen: set[CandidateKey] = set()

        def add(binding: str, columns: tuple[str, ...]) -> None:
            table = bindings[binding]
            # A join column that is also a point-predicate column shows
            # up twice in ``joins[:1] + eqs``: keep its first position.
            trimmed = tuple(dict.fromkeys(columns))[:MAX_INDEX_WIDTH]
            key = (table.lower(), trimmed)
            if trimmed and key not in seen:
                seen.add(key)
                keys.append(key)

        for binding in bindings:
            eqs = tuple(eq_columns.get(binding, ()))
            ranges = tuple(range_columns.get(binding, ()))
            joins = tuple(join_columns.get(binding, ()))
            for column in joins:
                add(binding, (column,))
            if eqs:
                add(binding, eqs)
                for column in eqs:
                    add(binding, (column,))
                if ranges:
                    add(binding, eqs + (ranges[0],))
            if joins and eqs:
                add(binding, joins[:1] + eqs)
            if ranges and not eqs:
                add(binding, ranges[:1])

        definitions = []
        refused = 0
        for table, columns in keys[:MAX_CANDIDATES_PER_STATEMENT]:
            try:
                definitions.append(self._definition(table, columns))
            except CatalogError:
                refused += 1
        return definitions, refused

    @staticmethod
    def _classify_sargable(predicate: ast.Expression, binding: str,
                           eq_columns: dict[str, list[str]],
                           range_columns: dict[str, list[str]]) -> None:
        if isinstance(predicate, ast.Between) \
                and isinstance(predicate.operand, ast.ColumnRef):
            columns = range_columns.setdefault(binding, [])
            if predicate.operand.name not in columns:
                columns.append(predicate.operand.name)
            return
        if not isinstance(predicate, ast.BinaryOp):
            return
        column: ast.ColumnRef | None = None
        if isinstance(predicate.left, ast.ColumnRef) \
                and isinstance(predicate.right, ast.Literal):
            column = predicate.left
        elif isinstance(predicate.right, ast.ColumnRef) \
                and isinstance(predicate.left, ast.Literal):
            column = predicate.right
        if column is None:
            return
        if predicate.op == "=":
            columns = eq_columns.setdefault(binding, [])
            if column.name not in columns:
                columns.append(column.name)
        elif predicate.op in ("<", "<=", ">", ">="):
            columns = range_columns.setdefault(binding, [])
            if column.name not in columns:
                columns.append(column.name)

    @staticmethod
    def _definition(table: str, columns: tuple[str, ...]) -> IndexDef:
        name = f"vidx_{table}_{'_'.join(columns)}"
        return IndexDef(name=name, table_name=table, column_names=columns,
                        virtual=True)

    # -- advising -------------------------------------------------------------------

    def advise(self, profiles: Iterable[StatementProfile]) -> AdvisorResult:
        """Run what-if analysis over a workload and vote on candidates.

        One parse, one candidate set and one what-if run per SELECT
        profile, whose votes are weighted by its recorded frequency.  A
        profile without text, or whose text is not a SELECT, is passed
        over uncounted, read no further than its first token: a long
        multi-row INSERT, cut off at ``MAX_STATEMENT_TEXT``, takes
        milliseconds to parse and then fails.
        """
        result = AdvisorResult()
        reasons: dict[CandidateKey, list[int]] = {}
        for profile in profiles:
            try:
                if statement_kind(profile.text) != "select":
                    continue
                statement = parse_statement(profile.text)
                candidates, refused = self._candidates(statement)
                result.skipped_candidates += refused
                if not candidates:
                    result.skipped_statements += 1
                    continue
                result.whatif_calls += 1
                outcome = what_if_optimize(self._database, statement,
                                           candidates)
            except ReproError:
                result.skipped_statements += 1
                continue
            name_to_key: dict[str, CandidateKey] = {
                d.name: (d.table_name, d.column_names) for d in candidates
            }
            improvement = outcome.benefit / outcome.baseline_cost \
                if outcome.baseline_cost > 0 else 0.0
            counted = improvement >= MIN_BENEFIT_RATIO
            used_keys = tuple(
                name_to_key[name] for name in outcome.virtual_indexes_used
                if name in name_to_key) if counted else ()
            weight = max(1, profile.frequency)
            for key in used_keys:
                result.votes[key] = result.votes.get(key, 0) + weight
                result.benefits[key] = (result.benefits.get(key, 0.0)
                                        + outcome.benefit * weight)
                reasons.setdefault(key, []).append(profile.text_hash)
            result.virtual_costs[profile.text_hash] = (
                outcome.hypothetical_cost if counted
                else outcome.baseline_cost)
        for key, votes in sorted(result.votes.items(),
                                 key=lambda item: (-item[1], item[0])):
            table, columns = key
            result.recommendations.append(Recommendation(
                kind=RecommendationKind.CREATE_INDEX,
                table_name=table,
                columns=columns,
                index_name=f"idx_{table}_{'_'.join(columns)}",
                reason=(f"chosen by the optimizer for {votes} weighted "
                        f"statement(s) in what-if analysis"),
                estimated_benefit=result.benefits[key],
                statements_affected=tuple(reasons[key]),
            ))
        return result
