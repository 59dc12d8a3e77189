"""The virtual-index advisor.

Recorded SELECTs are grouped by shape (their text with the literals
taken out), and for each such template the advisor generates candidate
indexes from the sargable and join columns of its most expensive
member, registers them as *virtual* indexes, and lets the engine's own
optimizer decide whether it would use them (the paper's requirement
ii).  A candidate the improved plan uses earns the template's votes —
the summed recorded frequency of its members; the recommended set is
the voted candidates — matching the paper's presumption that "an index
that was recommended for many statements is more useful".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.catalog.schema import IndexDef
from repro.config import EngineConfig
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
from repro.sql.parser import parse_statement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database

CandidateKey = tuple[str, tuple[str, ...]]  # (table, columns)


@dataclass(frozen=True)
class AdvisorConfig:
    max_index_width: int = 3
    min_benefit_ratio: float = 0.05
    """A what-if plan must cut estimated cost by at least this fraction
    for its virtual indexes to earn votes."""
    min_votes: int = 1
    max_candidates_per_statement: int = 12


@dataclass
class StatementAdvice:
    """What-if outcome for one statement (feeds the cost diagram)."""

    text_hash: int
    text: str
    frequency: int
    actual_cost: float
    estimated_cost: float
    virtual_estimated_cost: float
    virtual_indexes_used: tuple[CandidateKey, ...]

    @property
    def improved(self) -> bool:
        return self.virtual_estimated_cost < self.estimated_cost


@dataclass
class AdvisorResult:
    per_statement: list[StatementAdvice] = field(default_factory=list)
    votes: dict[CandidateKey, int] = field(default_factory=dict)
    benefits: dict[CandidateKey, float] = field(default_factory=dict)
    recommendations: list[Recommendation] = field(default_factory=list)
    skipped_statements: int = 0
    skipped_candidates: int = 0
    """Candidates the catalog refused (the rest were still costed)."""
    templates: int = 0
    """Distinct statement shapes among the advisable profiles."""
    whatif_calls: int = 0


class IndexAdvisor:
    """Recommends secondary indexes via virtual-index what-if analysis."""

    def __init__(self, database: "Database",
                 config: AdvisorConfig | None = None,
                 engine_config: EngineConfig | None = None) -> None:
        self._database = database
        self.config = config or AdvisorConfig()
        self._engine_config = engine_config or database.config

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
            trimmed = tuple(dict.fromkeys(columns))[
                : self.config.max_index_width]
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
        for table, columns in keys[: self.config.max_candidates_per_statement]:
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

    def advise(self, profiles: list[StatementProfile]) -> AdvisorResult:
        """Run what-if analysis over a workload and vote on candidates.

        One parse, one candidate set and one what-if run per shape, on
        the member with the highest total actual cost; its outcome
        stands for every member, weighted by their summed frequency.
        """
        result = AdvisorResult()
        reasons: dict[CandidateKey, list[int]] = {}
        templates: dict[str, list[StatementProfile]] = {}
        for profile in profiles:
            if profile.text:
                templates.setdefault(profile.shape, []).append(profile)
            else:
                result.skipped_statements += 1
        result.templates = len(templates)
        for members in templates.values():
            representative = max(members,
                                 key=attrgetter("total_actual_cost"))
            try:
                statement = parse_statement(representative.text)
                candidates, refused = self._candidates(statement)
                result.skipped_candidates += refused
                if not candidates:
                    result.skipped_statements += len(members)
                    continue
                result.whatif_calls += 1
                outcome = what_if_optimize(
                    self._database, statement, candidates,
                    self._engine_config)
            except ReproError:
                result.skipped_statements += len(members)
                continue
            name_to_key: dict[str, CandidateKey] = {
                d.name: (d.table_name, d.column_names) for d in candidates
            }
            improvement = outcome.benefit / outcome.baseline_cost \
                if outcome.baseline_cost > 0 else 0.0
            counted = improvement >= self.config.min_benefit_ratio
            used_keys = tuple(
                name_to_key[name] for name in outcome.virtual_indexes_used
                if name in name_to_key) if counted else ()
            weight = sum(max(1, member.frequency) for member in members)
            for key in used_keys:
                result.votes[key] = result.votes.get(key, 0) + weight
                result.benefits[key] = (result.benefits.get(key, 0.0)
                                        + outcome.benefit * weight)
                reasons.setdefault(key, []).extend(
                    member.text_hash for member in members)
            result.per_statement.extend(StatementAdvice(
                text_hash=member.text_hash,
                text=member.text,
                frequency=member.frequency,
                actual_cost=member.avg_actual_cost,
                estimated_cost=outcome.baseline_cost,
                virtual_estimated_cost=(outcome.hypothetical_cost if counted
                                        else outcome.baseline_cost),
                virtual_indexes_used=used_keys,
            ) for member in members)
        for key, votes in sorted(result.votes.items(),
                                 key=lambda item: (-item[1], item[0])):
            if votes < self.config.min_votes:
                continue
            table, columns = key
            result.recommendations.append(Recommendation(
                kind=RecommendationKind.CREATE_INDEX,
                table_name=table,
                columns=columns,
                index_name=f"idx_{table}_{'_'.join(columns)}",
                reason=(f"chosen by the optimizer for {votes} weighted "
                        f"statement(s) in what-if analysis"),
                estimated_benefit=result.benefits.get(key, 0.0),
                statements_affected=tuple(reasons.get(key, ())),
            ))
        return result
