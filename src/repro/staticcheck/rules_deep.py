"""Deep (interprocedural) rule families, run by ``repro lint --deep``.

``LCK003`` — lock-order cycles.  The held-lock propagation builds the
acquisition-order graph (lock B acquired while lock A is held, across
function and class boundaries); any cycle in that graph is a potential
deadlock between the threads of the monitor, daemon and engine.

``LCK004`` — blocking call reachable while a lock is held.  A sensor or
daemon thread sleeping, doing socket/file I/O, joining a thread or
executing SQL while holding a lock stalls every other thread contending
for it — exactly the watchdog-style interference the paper's integrated
design exists to avoid.

``GRW001`` — unbounded container growth in monitor paths.  The paper
fixes the monitor's memory footprint with moving windows; any container
on the monitor path that grows (append / ``+=`` / ``d[k] = v``) without
an eviction mechanism, ``maxlen``, a capacity check or a
``# staticcheck: bounded(<witness>)`` declaration breaks that
guarantee.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.staticcheck.base import ProjectRule, register_deep
from repro.staticcheck.callgraph import ProjectContext, module_name_for
from repro.staticcheck.config import StaticcheckConfig
from repro.staticcheck.driver import ModuleContext
from repro.staticcheck.findings import Finding, Severity, TraceEntry
from repro.staticcheck.lockflow import DeepContext, OrderEdge


@register_deep
class LockOrderCycleRule(ProjectRule):
    """LCK003 — cycle in the lock acquisition-order graph."""

    rule_id = "LCK003"
    summary = ("lock acquisition order must be acyclic across the "
               "whole program (cycles are potential deadlocks)")
    default_severity = Severity.ERROR

    def check_project(self, deep: DeepContext,
                      config: StaticcheckConfig) -> Iterable[Finding]:
        edges: dict[str, dict[str, OrderEdge]] = {}
        for edge in deep.lockflow.order_edges:
            edges.setdefault(edge.held, {})[edge.acquired] = edge
        for cycle in _distinct_cycles(edges):
            trace: list[TraceEntry] = []
            for index, token in enumerate(cycle):
                successor = cycle[(index + 1) % len(cycle)]
                trace.extend(edges[token][successor].trace)
            first = edges[cycle[0]][cycle[1 % len(cycle)]]
            anchor = first.trace[0]
            order = " -> ".join([*cycle, cycle[0]])
            yield self.finding(
                anchor.path, anchor.line, 0,
                f"lock-order cycle: {order}; two threads taking these "
                f"locks in different orders can deadlock — pick one "
                f"global order and document it",
                trace=trace,
            )


def _distinct_cycles(edges: dict[str, dict[str, OrderEdge]],
                     ) -> Iterator[tuple[str, ...]]:
    """Each elementary cycle once, rotated to start at its smallest
    token (bounded DFS; lock graphs are tiny)."""
    seen: set[tuple[str, ...]] = set()

    def visit(start: str, node: str, path: list[str]) -> Iterator[
            tuple[str, ...]]:
        for successor in sorted(edges.get(node, {})):
            if successor == start:
                cycle = tuple(path)
                smallest = min(range(len(cycle)),
                               key=lambda i: cycle[i])
                canonical = cycle[smallest:] + cycle[:smallest]
                if canonical not in seen:
                    seen.add(canonical)
                    yield canonical
            elif successor not in path and len(path) < 8:
                yield from visit(start, successor, [*path, successor])

    for start in sorted(edges):
        yield from visit(start, start, [start])


@register_deep
class BlockingUnderLockRule(ProjectRule):
    """LCK004 — blocking call reachable while a lock is held."""

    rule_id = "LCK004"
    summary = ("no blocking call (sleep, socket/file I/O, SQL "
               "execution, untimed queue.get/join) may be reachable "
               "while a lock is held")
    waiver = "ignore[LCK004] on the call line that reaches the blocking callee"
    default_severity = Severity.ERROR

    def check_project(self, deep: DeepContext,
                      config: StaticcheckConfig) -> Iterable[Finding]:
        for chain in deep.lockflow.blocking:
            yield self.finding(
                chain.path, chain.line, chain.column,
                f"blocking call {chain.callee}() is reachable while "
                f"{chain.token} is held; move the blocking work "
                f"outside the lock or snapshot state under the lock "
                f"and operate on the copy",
                trace=chain.trace,
            )


# -- GRW001 -----------------------------------------------------------------

GROWTH_MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "add", "setdefault",
    "update",
})
SHRINK_MUTATORS = frozenset({
    "pop", "popitem", "popleft", "clear", "remove", "discard",
})
_CONTAINER_CTORS = frozenset({
    "list", "dict", "set", "OrderedDict", "defaultdict", "deque",
    "Counter",
})


def _container_decl(value: ast.expr) -> tuple[bool, bool]:
    """(is a container construction, is inherently bounded)."""
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True, False
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name in _CONTAINER_CTORS:
            bounded = any(kw.arg == "maxlen" and
                          not (isinstance(kw.value, ast.Constant)
                               and kw.value.value is None)
                          for kw in value.keywords)
            return True, bounded
    return False, False


def _base_self_attr(expr: ast.expr) -> str | None:
    """``self.attr`` / ``self.attr[k]`` / ``self.attr[k1][k2]`` →
    ``attr``."""
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    if (isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"):
        return expr.attr
    return None


@register_deep
class UnboundedGrowthRule(ProjectRule):
    """GRW001 — container in a monitor path grows without a bound."""

    rule_id = "GRW001"
    summary = ("containers in monitor/sensor paths must be bounded: "
               "an eviction call, maxlen, a capacity check or a "
               "`# staticcheck: bounded(...)` declaration")
    waiver = ("bounded(<witness>) on the container, naming the eviction"
              " mechanism or capacity proof")
    default_severity = Severity.ERROR

    def check_project(self, deep: DeepContext,
                      config: StaticcheckConfig) -> Iterable[Finding]:
        project = deep.project
        for path, module in project.modules.items():
            if not config.path_matches(path, config.growth_scope_paths):
                continue
            modname = module_name_for(path)
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(project, module,
                                                 modname, node)

    def _check_class(self, project: ProjectContext,
                     module: ModuleContext, modname: str,
                     class_node: ast.ClassDef) -> Iterable[Finding]:
        containers: dict[str, tuple[ast.stmt, bool, bool]] = {}
        # attr -> (declaration stmt, inherently bounded, has bounded()).
        for stmt in ast.walk(class_node):
            attr, value = _assigned_self_attr(stmt)
            if attr is None or value is None or attr in containers:
                continue
            is_container, inherently_bounded = _container_decl(value)
            if not is_container:
                continue
            declared_bounded = any(
                module.directives(line, "bounded")
                for line in _stmt_lines(stmt)
            )
            containers[attr] = (stmt, inherently_bounded, declared_bounded)
        if not containers:
            return
        evidence = _eviction_evidence(class_node)
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue
            for site_attr, site in _growth_sites(method):
                info = containers.get(site_attr)
                if info is None:
                    continue
                decl_stmt, inherently_bounded, declared_bounded = info
                if inherently_bounded or declared_bounded:
                    continue
                if site_attr in evidence:
                    continue
                qualname = f"{modname}.{class_node.name}.{method.name}"
                decl_entry = TraceEntry(
                    path=module.path, line=decl_stmt.lineno,
                    function=f"{modname}.{class_node.name}.__init__",
                    note=f"declares container self.{site_attr}")
                grow_entry = TraceEntry(
                    path=module.path, line=site.lineno,
                    function=qualname,
                    note=f"grows self.{site_attr} with no bound")
                yield self.finding(
                    module.path, site.lineno, site.col_offset,
                    f"container self.{site_attr} grows in "
                    f"{class_node.name}.{method.name} but "
                    f"{class_node.name} never evicts from it; add an "
                    f"eviction path, a capacity check, or declare the "
                    f"bound with `# staticcheck: bounded(<witness>)` "
                    f"on the declaration",
                    trace=[decl_entry, grow_entry],
                )


def _assigned_self_attr(stmt: ast.AST,
                        ) -> tuple[str | None, ast.expr | None]:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target: ast.expr = stmt.targets[0]
        value = stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        target = stmt.target
        value = stmt.value
    else:
        return None, None
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return target.attr, value
    return None, None


def _stmt_lines(stmt: ast.AST) -> range:
    end = getattr(stmt, "end_lineno", None) or stmt.lineno
    return range(stmt.lineno, end + 1)


def _eviction_evidence(class_node: ast.ClassDef) -> set[str]:
    """Attrs the class provably shrinks or bounds somewhere."""
    evidence: set[str] = set()
    for node in ast.walk(class_node):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in SHRINK_MUTATORS):
                attr = _base_self_attr(func.value)
                if attr is not None:
                    evidence.add(attr)
            # ``len(self.attr)`` anywhere in the class is taken as a
            # capacity check (the ring-buffer idiom compares it to a
            # capacity before admitting).
            if (isinstance(func, ast.Name) and func.id == "len"
                    and node.args):
                attr = _base_self_attr(node.args[0])
                if attr is not None:
                    evidence.add(attr)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _base_self_attr(target)
                if attr is not None:
                    evidence.add(attr)
    # Reassignment outside __init__ resets the container.
    for method in class_node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if method.name == "__init__":
            continue
        for stmt in ast.walk(method):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        evidence.add(target.attr)
    return evidence


def _growth_sites(method: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    for node in ast.walk(method):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in GROWTH_MUTATORS):
                attr = _base_self_attr(func.value)
                if attr is not None:
                    yield attr, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    attr = _base_self_attr(target)
                    if attr is not None:
                        yield attr, node
        elif isinstance(node, ast.AugAssign):
            attr = _base_self_attr(node.target)
            if attr is not None:
                yield attr, node
