"""LCK — lock discipline, read from the code.

``LCK001``: a class owns a lock when one of its attributes is a
``threading.Lock``, ``RLock`` or ``Condition`` (found by
:func:`~repro.staticcheck.lockflow.lock_attrs_of`; a Condition counts as
the lock it wraps).  Every attribute such a class mutates outside
``__init__`` must be mutated with one common lock of the class held at
every site — Eraser's lockset refinement (Savage et al., SOSP 1997).

A site holds lock ``L`` when it is inside ``with self.L:`` or inside a
method that runs under ``L``: one annotated ``# staticcheck:
guarded-by(L)``, or a private method (``_name``, not a dunder) whose
every in-class ``self._name(...)`` call holds ``L`` (a fixpoint).  Each
site lacking the lock the other sites share is reported; when no site
holds a lock, every site is.

Mutations recognised are those of
:func:`~repro.staticcheck.astutil.mutated_attr`: assignment to
``self.attr`` (including ``self.attr[i] = ...``), ``del self.attr`` and
calls of known mutating container methods (``self.attr.append(...)``).
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import Iterable

from repro.staticcheck.astutil import ancestors, mutated_attr, self_attribute
from repro.staticcheck.base import Rule, register
from repro.staticcheck.callgraph import build_project
from repro.staticcheck.config import StaticcheckConfig
from repro.staticcheck.driver import ModuleContext
from repro.staticcheck.findings import Finding, Severity
from repro.staticcheck.lockflow import lock_attrs_of

def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _locks_at(node: ast.AST, module: ModuleContext, locks: dict[str, str],
              runs_under: dict[ast.AST, frozenset[str]]) -> frozenset[str]:
    """Locks held at ``node``: enclosing ``with self.<lock>:`` blocks up
    to the nearest function, plus the locks that function runs under."""
    held: set[str] = set()
    for ancestor in ancestors(node, module.parents):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return frozenset(held) | runs_under.get(ancestor, frozenset())
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                attr = self_attribute(item.context_expr)
                if attr in locks:
                    held.add(locks[attr])
    return frozenset(held)


def _runs_under(module: ModuleContext,
                methods: list[ast.FunctionDef | ast.AsyncFunctionDef],
                locks: dict[str, str]) -> dict[ast.AST, frozenset[str]]:
    """Method -> the locks its whole body runs under: its
    ``guarded-by`` locks, plus — for a private method — the locks every
    in-class call of it holds.  Starts from the declarations and only
    grows, so the iteration reaches the least fixpoint."""
    by_name = {method.name: method for method in methods}
    runs_under: dict[ast.AST, frozenset[str]] = {}
    for method in methods:
        directive = module.function_directive(method, "guarded-by")
        runs_under[method] = frozenset(
            locks.get(lock, lock) for lock in (directive.args if directive
                                               else ()))
    calls: dict[ast.AST, list[ast.Call]] = {}
    for method in methods:
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                name = self_attribute(node.func)
                if name in by_name and _is_private(name):
                    calls.setdefault(by_name[name], []).append(node)
    changed = True
    while changed:
        changed = False
        for method, sites in calls.items():
            held = frozenset.intersection(*(
                _locks_at(call, module, locks, runs_under) for call in sites))
            if not held <= runs_under[method]:
                runs_under[method] |= held
                changed = True
    return runs_under


@register
class UnguardedSharedMutationRule(Rule):
    """LCK001 — attribute of a lock-owning class mutated without the
    lock its other mutation sites hold."""

    rule_id = "LCK001"
    summary = ("an attribute of a lock-owning class is mutated with one "
               "common lock held at every site outside __init__")
    waiver = ("`guarded-by(<lock>)` on a method whose callers hold the "
              "lock but no in-class call shows it; a deliberate lock-free"
              " mutation site needs `ignore[LCK001]` on its line")
    default_severity = Severity.ERROR

    def check(self, module: ModuleContext,
              config: StaticcheckConfig) -> Iterable[Finding]:
        project = build_project([module])
        for decl in project.classes.values():
            locks = lock_attrs_of(decl)
            if locks:
                yield from self._check_class(module, decl.node, locks)

    def _check_class(self, module: ModuleContext, class_node: ast.ClassDef,
                     locks: dict[str, str]) -> Iterable[Finding]:
        methods = [node for node in class_node.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        runs_under = _runs_under(module, methods, locks)
        sites: dict[str, list[tuple[ast.AST, str, frozenset[str]]]] = {}
        for method in methods:
            if method.name == "__init__":
                continue  # construction happens-before publication
            for node in ast.walk(method):
                mutation = mutated_attr(node)
                if mutation is not None:
                    attr, location = mutation
                    sites.setdefault(attr, []).append((
                        location, method.name,
                        _locks_at(location, module, locks, runs_under)))
        for attr, found in sites.items():
            if frozenset.intersection(*(held for *_, held in found)):
                continue
            counts = Counter(lock for *_, held in found for lock in held)
            shared = max(sorted(counts), key=counts.__getitem__, default=None)
            lock = shared or min(locks.values())
            why = ("which its other mutation sites hold" if shared
                   else "and no mutation site holds a lock")
            for location, method_name, held in found:
                if lock not in held:
                    yield self.finding(
                        module, getattr(location, "lineno", 1),
                        getattr(location, "col_offset", 0),
                        f"self.{attr} mutated in {class_node.name}."
                        f"{method_name} without self.{lock}, {why}; wrap "
                        f"it in `with self.{lock}:`")
