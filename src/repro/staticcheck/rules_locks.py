"""LCK — lock discipline over annotated shared state.

``LCK001``: an attribute declared ``# staticcheck: shared(<lock>)`` is
mutated outside ``__init__``, outside any ``with self.<lock>:`` block,
in a method not annotated ``# staticcheck: guarded-by(<lock>)``.

Mutations recognised: plain/augmented/annotated assignment to
``self.attr`` (including ``self.attr[i] = ...``), ``del self.attr``,
and calls of known mutating container methods
(``self.attr.append(...)``, ``.pop``, ``.clear``, ...).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.staticcheck.astutil import (
    MUTATOR_METHODS,
    ancestors,
    mutated_attr,
    self_attribute,
)
from repro.staticcheck.base import Rule, register
from repro.staticcheck.config import StaticcheckConfig
from repro.staticcheck.driver import ModuleContext
from repro.staticcheck.findings import Finding, Severity

__all__ = ["MUTATOR_METHODS", "UnguardedSharedMutationRule"]


def _class_methods(class_node: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for node in class_node.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node  # type: ignore[misc]


def _self_assignments(class_node: ast.ClassDef) -> dict[str, list[ast.stmt]]:
    """attr name -> assignment statements of ``self.<attr>`` anywhere
    in the class body (where ``shared(...)`` declarations sit)."""
    assigned: dict[str, list[ast.stmt]] = {}
    for node in ast.walk(class_node):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            for leaf in ast.walk(target):
                attr = self_attribute(leaf)  # type: ignore[arg-type]
                if attr is not None:
                    assigned.setdefault(attr, []).append(node)
    return assigned


def _shared_declarations(module: ModuleContext,
                         class_node: ast.ClassDef) -> dict[str, tuple[str, ...]]:
    """Shared attr -> lock names, from ``shared(...)`` annotations on
    ``self.<attr> = ...`` lines inside the class."""
    shared: dict[str, tuple[str, ...]] = {}
    for attr, statements in _self_assignments(class_node).items():
        for statement in statements:
            for line in _statement_lines(statement):
                for directive in module.directives(line, "shared"):
                    if directive.args:
                        shared[attr] = directive.args
    return shared


def _statement_lines(statement: ast.stmt) -> range:
    """All source lines a (possibly multi-line) statement spans."""
    end = getattr(statement, "end_lineno", None) or statement.lineno
    return range(statement.lineno, end + 1)


def _guarding_locks(node: ast.AST, module: ModuleContext) -> set[str]:
    """Names of ``self.<lock>`` context managers on enclosing ``with``
    statements, searched up to the nearest enclosing function."""
    locks: set[str] = set()
    for ancestor in ancestors(node, module.parents):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                attr = self_attribute(item.context_expr)
                if attr is not None:
                    locks.add(attr)
    return locks


def _enclosing_method(node: ast.AST, module: ModuleContext,
                      ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    for ancestor in ancestors(node, module.parents):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


@register
class UnguardedSharedMutationRule(Rule):
    """LCK001 — shared attribute mutated without holding its lock."""

    rule_id = "LCK001"
    summary = ("attributes marked shared(<lock>) may only be mutated "
               "under `with self.<lock>:` or in a guarded-by method")
    waiver = ("declare with `shared(<lock>)` on the attribute; a deliberate"
              " lock-free mutation site needs `ignore[LCK001]` on its line")
    default_severity = Severity.ERROR

    def check(self, module: ModuleContext,
              config: StaticcheckConfig) -> Iterable[Finding]:
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            shared = _shared_declarations(module, class_node)
            if not shared:
                continue
            yield from self._check_class(module, class_node, shared)

    def _check_class(self, module: ModuleContext, class_node: ast.ClassDef,
                     shared: dict[str, tuple[str, ...]],
                     ) -> Iterable[Finding]:
        init_methods = {
            m for m in _class_methods(class_node) if m.name == "__init__"
        }
        for node in ast.walk(class_node):
            mutation = mutated_attr(node)
            if mutation is None:
                continue
            attr, location = mutation
            locks = shared.get(attr)
            if locks is None:
                continue
            method = _enclosing_method(location, module)
            if method is None or method in init_methods:
                continue  # class body / construction happens-before
            guard = _guarding_locks(location, module)
            if guard & set(locks):
                continue
            directive = module.function_directive(method, "guarded-by")
            if directive is not None and set(directive.args) & set(locks):
                continue
            lock_list = " or ".join(f"self.{lock}" for lock in locks)
            yield self.finding(
                module,
                getattr(location, "lineno", class_node.lineno),
                getattr(location, "col_offset", 0),
                f"shared attribute self.{attr} mutated in "
                f"{class_node.name}.{method.name} without holding "
                f"{lock_list}; wrap the mutation in "
                f"`with self.{locks[0]}:` or annotate the method "
                f"`# staticcheck: guarded-by({locks[0]})` if every "
                f"caller already holds it",
            )

