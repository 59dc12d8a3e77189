"""Rule base classes and registries.

Two kinds of rules exist:

* :class:`Rule` — intra-procedural: a ``check`` method yielding
  :class:`Finding` objects for one module's AST.  Registered with
  :func:`register`, instantiated by :func:`all_rules`.
* :class:`ProjectRule` — interprocedural (the ``--deep`` phase): a
  ``check_project`` method over the whole-program
  :class:`~repro.staticcheck.lockflow.DeepContext` (call graph +
  held-lock flow).  Registered with :func:`register_deep`,
  instantiated by :func:`all_deep_rules`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Sequence, Type, TypeVar

from repro.staticcheck.findings import Finding, Severity, TraceEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.config import StaticcheckConfig
    from repro.staticcheck.driver import ModuleContext
    from repro.staticcheck.lockflow import DeepContext


class Rule(ABC):
    """One invariant checked over a module's AST."""

    rule_id: str = ""
    summary: str = ""
    default_severity: Severity = Severity.ERROR
    waiver: str = ""
    """The rule's annotation/waiver grammar, shown by ``--list-rules``
    — e.g. ``"allocfree(<witness>) on the reported line"``.  Empty when
    the only escape hatch is ``ignore[<rule>]`` (always available)."""

    @abstractmethod
    def check(self, module: "ModuleContext",
              config: "StaticcheckConfig") -> Iterable[Finding]:
        """Yield findings for ``module``."""

    def finding(self, module: "ModuleContext", line: int, column: int,
                message: str,
                severity: Severity | None = None) -> Finding:
        """Build a finding for this rule at a location in ``module``."""
        return Finding(
            path=module.path,
            line=line,
            column=column,
            rule_id=self.rule_id,
            severity=severity or self.default_severity,
            message=message,
        )


class ProjectRule(ABC):
    """One invariant checked over the whole analyzed program."""

    rule_id: str = ""
    summary: str = ""
    default_severity: Severity = Severity.ERROR
    waiver: str = ""
    """See :attr:`Rule.waiver`."""

    @abstractmethod
    def check_project(self, deep: "DeepContext",
                      config: "StaticcheckConfig") -> Iterable[Finding]:
        """Yield findings for the analyzed program."""

    def finding(self, path: str, line: int, column: int, message: str,
                trace: Sequence[TraceEntry] = (),
                severity: Severity | None = None) -> Finding:
        """Build a deep finding with its evidence trace."""
        return Finding(
            path=path,
            line=line,
            column=column,
            rule_id=self.rule_id,
            severity=severity or self.default_severity,
            message=message,
            trace=tuple(trace),
        )


_REGISTRY: dict[str, Type[Rule]] = {}
_DEEP_REGISTRY: dict[str, Type[ProjectRule]] = {}

R = TypeVar("R", bound=Type[Rule])
P = TypeVar("P", bound=Type[ProjectRule])


def _add(registry: dict, rule_class: type) -> None:
    rule_id = rule_class.rule_id
    if not rule_id:
        raise ValueError(
            f"{rule_class.__name__} must define a non-empty rule_id")
    existing = _REGISTRY.get(rule_id) or _DEEP_REGISTRY.get(rule_id)
    if existing is not None and existing is not rule_class:
        raise ValueError(
            f"duplicate rule id {rule_id!r}: "
            f"{existing.__name__} vs {rule_class.__name__}")
    registry[rule_id] = rule_class


def register(rule_class: R) -> R:
    """Class decorator adding ``rule_class`` to the per-module registry."""
    _add(_REGISTRY, rule_class)
    return rule_class


def register_deep(rule_class: P) -> P:
    """Class decorator adding ``rule_class`` to the deep registry."""
    _add(_DEEP_REGISTRY, rule_class)
    return rule_class


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by rule id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def all_deep_rules() -> list[ProjectRule]:
    """Fresh instances of every deep rule, ordered by rule id."""
    return [_DEEP_REGISTRY[rule_id]() for rule_id in sorted(_DEEP_REGISTRY)]
