"""Interprocedural held-lock propagation over the call graph.

A *lock token* identifies one lock object: ``<ClassQualname>.<attr>``
for instance locks (``repro.core.daemon.StorageDaemon._lock``) or
``<module>.<name>`` for module-level locks.  A ``threading.Condition``
wrapping a ``Lock`` shares the wrapped lock's token, so the
Condition-around-a-Lock idiom counts as one lock, not two.

Starting from every ``with self.<lock>:`` region (and every
``# staticcheck: guarded-by(<lock>)`` method, whose whole body runs
under the lock), the analysis walks the call graph recording

* **order edges** — lock B acquired while lock A is held, with the
  acquisition-site/call-chain trace that proves it (LCK003's
  acquisition-order graph), and
* **blocking chains** — a call resolving to a blocking primitive
  (``time.sleep``, socket/file I/O, SQL execution through the engine,
  ``queue.get`` without timeout) reachable while the lock is held
  (LCK004's evidence).  The walk goes on into a blocking callee, so
  the locks it takes (SQL execution takes engine locks) are order
  edges too.

``Condition.wait`` is exempt — it releases the lock it waits on.
Recursion is bounded per (function, held lock) pair, so lock-free
call cycles cannot loop the walk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.hotpath import HotPathResult

from repro.staticcheck.astutil import ancestors, dotted_segments, self_attribute
from repro.staticcheck.callgraph import (
    CallEdge,
    ClassDecl,
    FunctionDecl,
    ProjectContext,
    _external_dotted,
    module_name_for,
)
from repro.staticcheck.config import StaticcheckConfig
from repro.staticcheck.findings import TraceEntry

LOCK_TYPES = frozenset({
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
})

_MAX_DEPTH = 12


@dataclass(frozen=True)
class LockSite:
    """Where a lock token is acquired (or assumed held)."""

    token: str
    path: str
    line: int
    column: int
    function: str
    note: str

    def trace_entry(self) -> TraceEntry:
        return TraceEntry(path=self.path, line=self.line,
                          function=self.function, note=self.note)


@dataclass
class Region:
    """A lexical scope that runs with one lock held."""

    site: LockSite
    node: ast.AST
    """The ``with`` statement, or the function node for guarded-by."""
    function: FunctionDecl


@dataclass(frozen=True)
class OrderEdge:
    """Lock ``held`` is held while ``acquired`` is acquired."""

    held: str
    acquired: str
    trace: tuple[TraceEntry, ...]


@dataclass(frozen=True)
class BlockingChain:
    """A blocking call reachable with ``token`` held."""

    token: str
    path: str
    line: int
    column: int
    function: str
    callee: str
    trace: tuple[TraceEntry, ...]


@dataclass
class LockFlowResult:
    """What the propagation found, consumed by LCK003/LCK004 and
    PRF005."""

    order_edges: list[OrderEdge] = field(default_factory=list)
    blocking: list[BlockingChain] = field(default_factory=list)
    regions: dict[str, list[Region]] = field(default_factory=dict)
    """Function qualname -> its lock-holding lexical regions."""
    entry_locks: dict[str, frozenset[str]] = field(default_factory=dict)
    """Function qualname -> lock tokens held at entry on *every*
    resolved call path into it (the meet over all call sites).  A
    function with no project-internal caller gets the empty set — it
    may be a thread entry point or a public API called lock-free."""


@dataclass
class DeepContext:
    """Bundle handed to every deep rule."""

    project: ProjectContext
    lockflow: LockFlowResult
    hotpaths: "HotPathResult | None" = None
    """Lazily computed by the PRF rules via
    :func:`repro.staticcheck.hotpath.hotpaths_for` — one propagation
    per project, shared by all five performance rules."""


def lock_attrs_of(decl: ClassDecl) -> dict[str, str]:
    """Lock attributes of a class, mapped to their canonical name
    (Condition attrs map to the Lock they wrap)."""
    return {attr: decl.condition_wraps.get(attr, attr)
            for attr, attr_type in decl.attr_types.items()
            if attr_type in LOCK_TYPES}


def module_locks_of(project: ProjectContext,
                    path: str) -> dict[str, str]:
    """Module-level lock names -> tokens (``with _txn_ids_lock:``)."""
    module = project.modules[path]
    modname = module_name_for(path)
    locks: dict[str, str] = {}
    for node in module.tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        segments = dotted_segments(node.value.func)
        if segments is None:
            continue
        resolved = _external_dotted(module, segments)
        if resolved in LOCK_TYPES:
            locks[target.id] = f"{modname}.{target.id}"
    return locks


class LockFlow:
    """Runs the held-lock propagation over a built project."""

    def __init__(self, project: ProjectContext,
                 config: StaticcheckConfig) -> None:
        self.project = project
        self.config = config
        self._class_locks: dict[str, dict[str, str]] = {}
        self._module_locks: dict[str, dict[str, str]] = {}
        for qualname, decl in project.classes.items():
            self._class_locks[qualname] = lock_attrs_of(decl)
        for path in project.modules:
            self._module_locks[path] = module_locks_of(project, path)
        self._regions: dict[str, list[Region]] = {}
        for fq, decl in project.functions.items():
            self._regions[fq] = self._function_regions(decl)
        self.result = LockFlowResult()
        self._seen_blocking: set[tuple[str, int, int, str]] = set()
        self._seen_edges: set[tuple[str, str]] = set()

    # -- region discovery ---------------------------------------------------

    def _lock_token_for_item(self, decl: FunctionDecl,
                             expr: ast.expr) -> str | None:
        """Token for a ``with <expr>:`` context manager, if it is a
        known lock."""
        attr = self_attribute(expr)
        if attr is not None and decl.class_qualname is not None:
            class_locks = self._class_locks.get(decl.class_qualname, {})
            canonical = class_locks.get(attr)
            if canonical is not None:
                return f"{decl.class_qualname}.{canonical}"
            return None
        if isinstance(expr, ast.Name):
            return self._module_locks.get(decl.module.path,
                                          {}).get(expr.id)
        return None

    def _function_regions(self, decl: FunctionDecl) -> list[Region]:
        regions: list[Region] = []
        fq = decl.qualname
        for node in ast.walk(decl.node):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if self._enclosing_decl(node, decl) is not decl.node:
                continue  # belongs to a nested def
            for item in node.items:
                token = self._lock_token_for_item(decl, item.context_expr)
                if token is None:
                    continue
                site = LockSite(
                    token=token, path=decl.module.path,
                    line=node.lineno, column=node.col_offset,
                    function=fq, note=f"acquires {token}")
                regions.append(Region(site=site, node=node, function=decl))
        directive = decl.module.function_directive(decl.node, "guarded-by")
        if directive is not None and decl.class_qualname is not None:
            class_locks = self._class_locks.get(decl.class_qualname, {})
            for lock in directive.args:
                canonical = class_locks.get(lock, lock)
                token = f"{decl.class_qualname}.{canonical}"
                site = LockSite(
                    token=token, path=decl.module.path,
                    line=decl.node.lineno, column=decl.node.col_offset,
                    function=fq,
                    note=f"guarded-by({lock}): callers hold {token}")
                regions.append(Region(site=site, node=decl.node,
                                      function=decl))
        return regions

    def _enclosing_decl(self, node: ast.AST,
                        decl: FunctionDecl) -> ast.AST | None:
        for ancestor in ancestors(node, decl.module.parents):
            if isinstance(ancestor, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                return ancestor
        return None

    def _contains(self, region: Region, node: ast.AST,
                  module_parents: dict[ast.AST, ast.AST]) -> bool:
        if region.node is node:
            return True
        for ancestor in ancestors(node, module_parents):
            if ancestor is region.node:
                return True
        return False

    # -- propagation --------------------------------------------------------

    def tokens_at(self, fq: str, node: ast.AST) -> frozenset[str]:
        """Lock tokens of the regions of ``fq`` lexically containing
        ``node`` (acquisitions visible inside the function itself)."""
        decl = self.project.functions.get(fq)
        if decl is None:
            return frozenset()
        parents = decl.module.parents
        return frozenset(
            region.site.token for region in self._regions.get(fq, ())
            if self._contains(region, node, parents)
        )

    def _propagate_entry_locks(self) -> dict[str, frozenset[str]]:
        """Fixpoint: locks held at a function's entry on every call
        path.  ``entry(f) = ⋂ over internal call sites of
        (entry(caller) ∪ locks lexically held at the site)``; functions
        without internal callers start (and stay) at the empty set.
        ``None`` is the lattice top (no call site seen yet); the
        intersection only ever shrinks, so iteration terminates."""
        incoming: dict[str, list[CallEdge]] = {}
        for fq in self.project.functions:
            for edge in self.project.calls_from(fq):
                if not edge.external and edge.callee in self.project.functions:
                    incoming.setdefault(edge.callee, []).append(edge)
        entry: dict[str, frozenset[str] | None] = {
            fq: (None if fq in incoming else frozenset())
            for fq in self.project.functions
        }
        for _ in range(len(self.project.functions) + 1):
            changed = False
            for callee, edges in incoming.items():
                meet: frozenset[str] | None = None
                for edge in edges:
                    base = entry.get(edge.caller)
                    if base is None:
                        continue  # caller still at top: no constraint yet
                    held = base | self.tokens_at(edge.caller, edge.node)
                    meet = held if meet is None else (meet & held)
                if meet is not None and meet != entry[callee]:
                    entry[callee] = meet
                    changed = True
            if not changed:
                break
        return {fq: (locks if locks is not None else frozenset())
                for fq, locks in entry.items()}

    def analyze(self) -> LockFlowResult:
        self.result.regions = dict(self._regions)
        self.result.entry_locks = self._propagate_entry_locks()
        for fq, regions in self._regions.items():
            decl = self.project.functions[fq]
            parents = decl.module.parents
            for region in regions:
                chain = [region.site.trace_entry()]
                # Nested acquisitions inside the region itself.
                for other in regions:
                    if other is region or other.node is region.node:
                        continue
                    if other.site.token != region.site.token and \
                            self._contains(region, other.node, parents):
                        self._order_edge(region.site.token,
                                         other.site.token,
                                         [*chain, other.site.trace_entry()])
                in_region = [
                    edge for edge in self.project.calls_from(fq)
                    if self._contains(region, edge.node, parents)
                ]
                self._walk(in_region, region.site.token, chain,
                           depth=0, visited=set())
        return self.result

    def _walk(self, edges: list[CallEdge], token: str,
              chain: list[TraceEntry], depth: int,
              visited: set[str]) -> None:
        if depth > _MAX_DEPTH:
            return
        for edge in edges:
            step = TraceEntry(
                path=self.project.functions[edge.caller].module.path,
                line=edge.line,
                function=edge.caller,
                note=f"calls {edge.callee}()")
            if self._is_blocking(edge):
                self._blocking(token, chain, step, edge)
            if edge.external:
                continue
            callee = self.project.functions.get(edge.callee)
            if callee is None:
                continue
            for region in self._regions.get(edge.callee, ()):
                if region.site.token != token:
                    self._order_edge(
                        token, region.site.token,
                        [*chain, step, region.site.trace_entry()])
            if edge.callee in visited:
                continue
            visited.add(edge.callee)
            self._walk(self.project.calls_from(edge.callee), token,
                       [*chain, step], depth + 1, visited)

    def _order_edge(self, held: str, acquired: str,
                    trace: list[TraceEntry]) -> None:
        if (held, acquired) in self._seen_edges:
            return
        self._seen_edges.add((held, acquired))
        self.result.order_edges.append(OrderEdge(
            held=held, acquired=acquired, trace=tuple(trace)))

    def _blocking(self, token: str, chain: list[TraceEntry],
                  step: TraceEntry, edge: CallEdge) -> None:
        # Anchor at the first call made under the lock: for a direct
        # blocking call that is the call itself; for an interprocedural
        # chain it is the call that leaves the locked function.
        anchor = chain[1] if len(chain) > 1 else step
        key = (anchor.path, anchor.line, edge.column, edge.callee)
        if key in self._seen_blocking:
            return
        self._seen_blocking.add(key)
        column = edge.column if anchor is step else 0
        self.result.blocking.append(BlockingChain(
            token=token,
            path=anchor.path,
            line=anchor.line,
            column=column,
            function=anchor.function,
            callee=edge.callee,
            trace=(*chain, step),
        ))

    # -- blocking-call recognition -----------------------------------------

    def _is_blocking(self, edge: CallEdge) -> bool:
        callee = edge.callee
        for pattern in self.config.blocking_call_patterns:
            if fnmatch(callee, pattern):
                return True
        if fnmatch(callee, "*Queue.get") or callee == "queue.get":
            return not _has_timeout(edge.node)
        if fnmatch(callee, "*.Event.wait"):
            return not _has_timeout(edge.node)
        return False


def _has_timeout(node: ast.Call) -> bool:
    """True when the call passes a positional or ``timeout=`` argument
    (``queue.get(timeout=1)`` / ``event.wait(0.1)`` do not block
    forever)."""
    if node.args:
        return True
    return any(kw.arg == "timeout" for kw in node.keywords)
