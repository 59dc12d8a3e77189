"""Hot-path propagation over the call graph.

A *hot root* is a function annotated ``# staticcheck: hotpath`` — a
sensor entry point, the execute loop, a ring-buffer operation, a
daemon flush.  Hotness propagates from every root along resolved,
project-internal call edges: anything a hot function calls runs on the
per-statement path too, so the PRF rules police it with the same
budget.

Propagation stops at functions annotated
``# staticcheck: coldpath(<witness>)`` — deliberately off the per-call
path (a cache-miss slow path, a failure handler).  The witness is
mandatory; a bare ``coldpath()`` is ignored so that a waiver can never
be an accident.

Every hot function carries *provenance*: the trace of call sites from
its root, attached to PRF findings (and serialized as the JSON
report's ``hot_root``) so a reviewer can see why the analyzer considers a line
hot without re-deriving the call chain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.staticcheck.callgraph import ProjectContext
from repro.staticcheck.findings import TraceEntry

_MAX_DEPTH = 20


@dataclass
class HotPathResult:
    """Which functions are hot, and the evidence chain for each."""

    roots: tuple[str, ...] = ()
    """Qualnames annotated ``hotpath``, sorted."""

    hot: dict[str, tuple[TraceEntry, ...]] = field(default_factory=dict)
    """Hot function qualname -> provenance (root declaration first,
    then one entry per call edge on the shortest chain found)."""

    cold: dict[str, str] = field(default_factory=dict)
    """Qualnames with a witnessed ``coldpath`` -> the witness."""

    def is_hot(self, qualname: str) -> bool:
        return qualname in self.hot

    def root_of(self, qualname: str) -> str | None:
        """The hot root whose propagation reached ``qualname``."""
        trace = self.hot.get(qualname)
        if not trace:
            return None
        return trace[0].function


def compute_hotpaths(project: ProjectContext) -> HotPathResult:
    """Breadth-first hotness propagation from every annotated root.

    BFS means the recorded provenance is a *shortest* call chain, which
    keeps finding traces reviewable even in a dense graph.
    """
    result = HotPathResult()
    roots: list[str] = []
    for fq, decl in project.functions.items():
        cold = decl.module.function_directive(decl.node, "coldpath")
        if cold is not None and cold.args:
            result.cold[fq] = ", ".join(cold.args)
        if decl.module.function_directive(decl.node, "hotpath") is not None:
            roots.append(fq)
    result.roots = tuple(sorted(roots))

    queue: deque[tuple[str, int]] = deque()
    for fq in result.roots:
        if fq in result.cold:
            continue  # hotpath + witnessed coldpath: coldpath wins
        decl = project.functions[fq]
        result.hot[fq] = (TraceEntry(
            path=decl.module.path, line=decl.node.lineno,
            function=fq, note="declared hotpath root"),)
        queue.append((fq, 0))

    while queue:
        fq, depth = queue.popleft()
        if depth >= _MAX_DEPTH:
            continue
        caller_decl = project.functions[fq]
        for edge in project.calls_from(fq):
            if edge.external or edge.callee not in project.functions:
                continue
            if edge.callee in result.hot or edge.callee in result.cold:
                continue
            step = TraceEntry(
                path=caller_decl.module.path, line=edge.line,
                function=fq, note=f"hot call to {edge.callee}()")
            result.hot[edge.callee] = (*result.hot[fq], step)
            queue.append((edge.callee, depth + 1))
    return result


def hotpaths_for(deep) -> HotPathResult:  # type: ignore[no-untyped-def]
    """The shared per-project result, computed on first use.

    ``deep`` is a :class:`~repro.staticcheck.lockflow.DeepContext`;
    untyped here because lockflow imports would be circular.
    """
    if deep.hotpaths is None:
        deep.hotpaths = compute_hotpaths(deep.project)
    return deep.hotpaths
