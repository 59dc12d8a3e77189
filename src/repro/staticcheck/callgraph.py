"""Project-wide call graph over the analyzed modules.

The deep rules need to follow a call like ``self.ledger.audit()`` from
the function that makes it to the function that implements it, across
module boundaries.  This module builds that graph with a deliberately
small amount of type inference:

* ``self.method()`` resolves through the enclosing class (and its
  project-local base classes),
* bare ``f()`` resolves to a module-level function of the same module
  or through the module's import aliases,
* ``self.attr.method()`` (class-attribute dispatch) resolves through
  the attribute's inferred type — from ``self.attr = ClassName(...)``
  constructor assignments, from annotated assignments, and from
  ``self.attr = param`` where the parameter carries a class annotation
  (string forward references included),
* ``local.method()`` resolves the same way for unambiguously typed
  local variables and annotated parameters,
* chained attribute reads type through each hop
  (``sensors = self.engine.sensors`` types the local from
  ``EngineInstance.sensors``), and pre-bound method attributes
  (``self._record = monitor.record_statement``) resolve a later
  ``self._record(...)`` to the real method.

Calls whose receiver cannot be typed produce no edge; calls resolving
to a type outside the analyzed program produce an *external* edge whose
callee is the fully qualified dotted name (``threading.Thread.join``,
``queue.Queue.get``, ``time.sleep``) — exactly what the blocking-call
rule needs to recognise stdlib blocking primitives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.staticcheck.astutil import dotted_segments
from repro.staticcheck.driver import ModuleContext

#: External types whose constructors we recognise on attribute
#: assignments so that methods called on them resolve to dotted names.
_EXTERNAL_CTOR_HEADS = ("threading", "queue", "socket", "subprocess")


def module_name_for(path: str) -> str:
    """Dotted module name for ``path``: everything under the nearest
    ``src`` directory (``src/repro/core/daemon.py`` →
    ``repro.core.daemon``); bare file stem otherwise."""
    parts = list(Path(path).with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    return ".".join(parts)


@dataclass
class FunctionDecl:
    """One analyzed function or method."""

    qualname: str
    module: ModuleContext
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_qualname: str | None = None

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassDecl:
    """One analyzed class with its inferred attribute types."""

    qualname: str
    name: str
    module: ModuleContext
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)
    """method name -> function qualname."""
    attr_types: dict[str, str] = field(default_factory=dict)
    """``self.<attr>`` -> type (project class qualname or external
    dotted name such as ``threading.Lock``)."""
    bound_methods: dict[str, str] = field(default_factory=dict)
    """``self.<attr>`` -> method qualname, for pre-bound callables
    (``self._record = monitor.record_statement``) so that a later
    ``self._record(...)`` produces a call edge to the real method."""
    bases: tuple[str, ...] = ()
    """Project-resolved base class qualnames."""
    condition_wraps: dict[str, str] = field(default_factory=dict)
    """``self._granted = threading.Condition(self._mutex)`` records
    ``_granted -> _mutex`` so both names denote one lock."""


@dataclass
class CallEdge:
    """One resolved call site."""

    caller: str
    callee: str
    line: int
    column: int
    external: bool
    node: ast.Call


@dataclass
class ProjectContext:
    """Everything the deep rules know about the analyzed program."""

    modules: dict[str, ModuleContext] = field(default_factory=dict)
    """path -> parsed module."""
    module_names: dict[str, str] = field(default_factory=dict)
    """dotted module name -> path."""
    functions: dict[str, FunctionDecl] = field(default_factory=dict)
    classes: dict[str, ClassDecl] = field(default_factory=dict)
    class_by_name: dict[str, list[str]] = field(default_factory=dict)
    """simple class name -> qualnames (for global fallback lookup)."""
    edges: dict[str, list[CallEdge]] = field(default_factory=dict)
    """caller qualname -> its outgoing call edges."""

    def calls_from(self, qualname: str) -> list[CallEdge]:
        return self.edges.get(qualname, [])

    def resolve_method(self, class_qualname: str,
                       method: str) -> str | None:
        """Method lookup on a project class, following project bases."""
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            decl = self.classes.get(current)
            if decl is None:
                continue
            found = decl.methods.get(method)
            if found is not None:
                return found
            stack.extend(decl.bases)
        return None


def build_project(modules: list[ModuleContext]) -> ProjectContext:
    """Index every module and resolve every call site."""
    project = ProjectContext()
    for module in modules:
        project.modules[module.path] = module
        project.module_names[module_name_for(module.path)] = module.path
    for module in modules:
        _index_module(project, module)
    for module in modules:
        _resolve_class_refs(project, module)
    for decl in project.functions.values():
        project.edges[decl.qualname] = _resolve_calls(project, decl)
    return project


# -- indexing ---------------------------------------------------------------


def _index_module(project: ProjectContext, module: ModuleContext) -> None:
    modname = module_name_for(module.path)
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{modname}.{node.name}"
            project.functions[qualname] = FunctionDecl(
                qualname=qualname, module=module, node=node)
        elif isinstance(node, ast.ClassDef):
            _index_class(project, module, modname, node)


def _index_class(project: ProjectContext, module: ModuleContext,
                 modname: str, node: ast.ClassDef) -> None:
    qualname = f"{modname}.{node.name}"
    decl = ClassDecl(qualname=qualname, name=node.name,
                     module=module, node=node)
    project.classes[qualname] = decl
    project.class_by_name.setdefault(node.name, []).append(qualname)
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method_qualname = f"{qualname}.{child.name}"
            decl.methods[child.name] = method_qualname
            project.functions[method_qualname] = FunctionDecl(
                qualname=method_qualname, module=module, node=child,
                class_qualname=qualname)


def _resolve_class_refs(project: ProjectContext,
                        module: ModuleContext) -> None:
    """Second pass: base classes and attribute types, which may point
    at classes of modules indexed after this one."""
    modname = module_name_for(module.path)
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decl = project.classes[f"{modname}.{node.name}"]
        bases = []
        for base in node.bases:
            resolved = _resolve_type_expr(project, module, base)
            if resolved is not None and resolved in project.classes:
                bases.append(resolved)
        decl.bases = tuple(bases)
        _infer_attr_types(project, module, decl)


def _infer_attr_types(project: ProjectContext, module: ModuleContext,
                      decl: ClassDecl) -> None:
    for method in decl.node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        param_types = _param_types(project, module, method)
        for stmt in ast.walk(method):
            attr: str | None = None
            value: ast.expr | None = None
            annotation: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                attr = _self_target(stmt.targets[0])
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                attr = _self_target(stmt.target)
                value = stmt.value
                annotation = stmt.annotation
            if attr is None:
                continue
            inferred = None
            if annotation is not None:
                inferred = _resolve_type_expr(project, module, annotation)
            if inferred is None and value is not None:
                inferred = _infer_expr_type(project, module,
                                            decl, param_types, value)
            if inferred is not None and attr not in decl.attr_types:
                decl.attr_types[attr] = inferred
            if inferred is None and value is not None:
                bound = _bound_method(project, decl, param_types, value)
                if bound is not None:
                    decl.bound_methods.setdefault(attr, bound)
            if value is not None:
                wrapped = _condition_wrapped_attr(module, value)
                if wrapped is not None:
                    decl.condition_wraps.setdefault(attr, wrapped)


def _self_target(target: ast.expr) -> str | None:
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return target.attr
    return None


def _condition_wrapped_attr(module: ModuleContext,
                            value: ast.expr) -> str | None:
    """``threading.Condition(self._mutex)`` -> ``_mutex``."""
    if not isinstance(value, ast.Call) or not value.args:
        return None
    segments = dotted_segments(value.func)
    if segments is None:
        return None
    resolved = _external_dotted(module, segments)
    if resolved != "threading.Condition":
        return None
    return _self_target(value.args[0])


def _param_types(project: ProjectContext, module: ModuleContext,
                 func: ast.FunctionDef | ast.AsyncFunctionDef,
                 ) -> dict[str, str]:
    types: dict[str, str] = {}
    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.annotation is None:
            continue
        resolved = _resolve_type_expr(project, module, arg.annotation)
        if resolved is not None:
            types[arg.arg] = resolved
    return types


# -- type expression resolution ---------------------------------------------


def _resolve_type_expr(project: ProjectContext, module: ModuleContext,
                       annotation: ast.expr) -> str | None:
    """Best-effort class for a type annotation / base-class expression.

    Handles string forward references, ``X | None`` unions (first
    non-None member) and ``Generic[T]`` subscripts."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value,
                                                           str):
        try:
            parsed = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
        return _resolve_type_expr(project, module, parsed)
    if isinstance(annotation, ast.Subscript):
        base = _resolve_type_expr(project, module, annotation.value)
        if base is not None and base.rsplit(".", 1)[-1] == "Optional":
            return _resolve_type_expr(project, module, annotation.slice)
        return base
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op,
                                                        ast.BitOr):
        for side in (annotation.left, annotation.right):
            if isinstance(side, ast.Constant) and side.value is None:
                continue
            resolved = _resolve_type_expr(project, module, side)
            if resolved is not None:
                return resolved
        return None
    segments = dotted_segments(annotation)
    if segments is None:
        return None
    return _resolve_class_name(project, module, segments)


def _resolve_class_name(project: ProjectContext, module: ModuleContext,
                        segments: list[str]) -> str | None:
    """Class qualname (project) or dotted name (external) for a
    ``Name``/``a.b.C`` reference inside ``module``."""
    modname = module_name_for(module.path)
    local = f"{modname}.{segments[-1]}" if len(segments) == 1 else None
    if local is not None and local in project.classes:
        return local
    head = segments[0]
    aliased = module.aliases.get(head)
    if aliased is not None:
        dotted = ".".join([aliased, *segments[1:]])
        if dotted in project.classes:
            return dotted
        # ``import repro.core.x as y`` + ``y.Class``: try module lookup.
        prefix, _, last = dotted.rpartition(".")
        if prefix in project.module_names:
            candidate = f"{prefix}.{last}"
            if candidate in project.classes:
                return candidate
        return dotted  # external type, keep the dotted name
    if len(segments) == 1:
        candidates = project.class_by_name.get(segments[0], [])
        if len(candidates) == 1:
            return candidates[0]
    return None


def _external_dotted(module: ModuleContext,
                     segments: list[str]) -> str | None:
    """Fully qualified external dotted name via import aliases."""
    head = module.aliases.get(segments[0])
    if head is None:
        return None
    return ".".join([head, *segments[1:]])


def _infer_expr_type(project: ProjectContext, module: ModuleContext,
                     decl: ClassDecl | None,
                     param_types: dict[str, str],
                     value: ast.expr) -> str | None:
    """Type of an assigned expression: constructor calls, parameter
    copies and ``self.attr`` reads."""
    if isinstance(value, ast.Call):
        segments = dotted_segments(value.func)
        if segments is None:
            return None
        resolved = _resolve_class_name(project, module, segments)
        if resolved is not None and resolved in project.classes:
            return resolved
        external = _external_dotted(module, segments)
        if external is not None and external.split(".")[0] in \
                _EXTERNAL_CTOR_HEADS:
            return external
        # ``session = self._ensure_session()``: use the method's
        # declared return type.
        if (decl is not None and segments[0] == "self"
                and len(segments) == 2):
            target = project.resolve_method(decl.qualname, segments[1])
            if target is not None:
                returns = project.functions[target].node.returns
                if returns is not None:
                    return _resolve_type_expr(project, module, returns)
        return None
    if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or):
        # ``clock or SystemClock()``: any disjunct with a known type.
        for operand in value.values:
            inferred = _infer_expr_type(project, module, decl,
                                        param_types, operand)
            if inferred is not None:
                return inferred
        return None
    if isinstance(value, ast.Name):
        return param_types.get(value.id)
    if isinstance(value, ast.Attribute):
        segments = dotted_segments(value)
        if segments is not None:
            return _chain_type(project, decl, param_types, segments)
    return None


def _attr_type_of(project: ProjectContext, class_qualname: str,
                  attr: str) -> str | None:
    """``attr``'s inferred type on ``class_qualname``, walking
    project-local base classes the same way method resolution does."""
    seen: set[str] = set()
    frontier = [class_qualname]
    while frontier:
        current = frontier.pop(0)
        if current in seen:
            continue
        seen.add(current)
        decl = project.classes.get(current)
        if decl is None:
            continue
        inferred = decl.attr_types.get(attr)
        if inferred is not None:
            return inferred
        frontier.extend(decl.bases)
    return None


def _chain_type(project: ProjectContext, decl: ClassDecl | None,
                param_types: dict[str, str],
                segments: list[str]) -> str | None:
    """Type of a dotted read like ``self.engine.sensors`` or
    ``monitor.statements``: resolve the head (``self`` or a typed
    name), then fold each attribute through the owning class'
    inferred attribute types."""
    if not segments:
        return None
    head, *rest = segments
    if head == "self":
        if decl is None:
            return None
        current: str | None = decl.qualname
    else:
        current = param_types.get(head)
    for attr in rest:
        if current is None or current not in project.classes:
            return None
        current = _attr_type_of(project, current, attr)
    return current


def _bound_method(project: ProjectContext, decl: ClassDecl | None,
                  param_types: dict[str, str],
                  value: ast.expr) -> str | None:
    """Method qualname when ``value`` reads a bound method, e.g.
    ``monitor.record_statement`` with ``monitor: IntegratedMonitor``."""
    if not isinstance(value, ast.Attribute):
        return None
    segments = dotted_segments(value)
    if segments is None or len(segments) < 2:
        return None
    owner = _chain_type(project, decl, param_types, segments[:-1])
    if owner is None or owner not in project.classes:
        return None
    return project.resolve_method(owner, segments[-1])


# -- call resolution --------------------------------------------------------


def _local_types(project: ProjectContext, decl: FunctionDecl,
                 class_decl: ClassDecl | None) -> dict[str, str]:
    """Types of parameters and unambiguously assigned locals."""
    types = _param_types(project, decl.module, decl.node)
    ambiguous: set[str] = set()
    for node in ast.walk(decl.node):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        inferred = _infer_expr_type(project, decl.module, class_decl,
                                    types, node.value)
        existing = types.get(target.id)
        if inferred is None:
            if existing is not None:
                ambiguous.add(target.id)
            continue
        if existing is not None and existing != inferred:
            ambiguous.add(target.id)
        else:
            types[target.id] = inferred
    for name in ambiguous:
        types.pop(name, None)
    return types


def _resolve_calls(project: ProjectContext,
                   decl: FunctionDecl) -> list[CallEdge]:
    module = decl.module
    class_decl = (project.classes.get(decl.class_qualname)
                  if decl.class_qualname else None)
    local_types = _local_types(project, decl, class_decl)
    modname = module_name_for(module.path)
    edges: list[CallEdge] = []
    for node in ast.walk(decl.node):
        if not isinstance(node, ast.Call):
            continue
        resolved = _resolve_one_call(project, module, modname,
                                     class_decl, local_types, node)
        if resolved is None:
            continue
        callee, external = resolved
        edges.append(CallEdge(
            caller=decl.qualname, callee=callee,
            line=node.lineno, column=node.col_offset,
            external=external, node=node))
    return edges


def _resolve_one_call(project: ProjectContext, module: ModuleContext,
                      modname: str, class_decl: ClassDecl | None,
                      local_types: dict[str, str],
                      node: ast.Call) -> tuple[str, bool] | None:
    segments = dotted_segments(node.func)
    if segments is None:
        return None
    head = segments[0]

    if head == "self" and class_decl is not None:
        if len(segments) == 2:
            target = project.resolve_method(class_decl.qualname,
                                            segments[1])
            if target is not None:
                return target, False
            # self._record(...): a pre-bound method attribute.
            bound = _bound_method_of(project, class_decl.qualname,
                                     segments[1])
            if bound is not None:
                return bound, False
            return None
        # self.attr.method(...): dispatch through the attribute's type.
        attr_type = _attr_type_of(project, class_decl.qualname,
                                  segments[1])
        return _dispatch_on_type(project, attr_type, segments[2:])

    if head in local_types and len(segments) >= 2:
        return _dispatch_on_type(project, local_types[head], segments[1:])

    if len(segments) == 1:
        target = f"{modname}.{head}"
        if target in project.functions:
            return target, False
        if target in project.classes:
            ctor = project.resolve_method(target, "__init__")
            return (ctor, False) if ctor is not None else (target, False)
        resolved = _resolve_class_name(project, module, segments)
        if resolved is not None and resolved in project.classes:
            ctor = project.resolve_method(resolved, "__init__")
            return (ctor, False) if ctor is not None else (resolved, False)
        aliased = module.aliases.get(head)
        if aliased is not None:
            if aliased in project.functions:
                return aliased, False
            return aliased, True
        if head == "open":
            return "open", True
        return None

    aliased = module.aliases.get(head)
    if aliased is None:
        return None
    dotted = ".".join([aliased, *segments[1:]])
    if dotted in project.functions:
        return dotted, False
    prefix, _, method = dotted.rpartition(".")
    if prefix in project.classes:
        target = project.resolve_method(prefix, method)
        if target is not None:
            return target, False
    return dotted, True


def _bound_method_of(project: ProjectContext, class_qualname: str,
                     attr: str) -> str | None:
    """Pre-bound method recorded for ``attr``, walking base classes."""
    seen: set[str] = set()
    frontier = [class_qualname]
    while frontier:
        current = frontier.pop(0)
        if current in seen:
            continue
        seen.add(current)
        decl = project.classes.get(current)
        if decl is None:
            continue
        bound = decl.bound_methods.get(attr)
        if bound is not None:
            return bound
        frontier.extend(decl.bases)
    return None


def _dispatch_on_type(project: ProjectContext, receiver_type: str | None,
                      remaining: list[str]) -> tuple[str, bool] | None:
    if receiver_type is None or not remaining:
        return None
    # Fold intermediate attributes (``self.engine.sensors.start(...)``)
    # through the owning classes' inferred attribute types.
    while len(remaining) > 1 and receiver_type in project.classes:
        next_type = _attr_type_of(project, receiver_type, remaining[0])
        if next_type is None:
            return None
        receiver_type = next_type
        remaining = remaining[1:]
    if receiver_type in project.classes:
        target = project.resolve_method(receiver_type, remaining[0])
        if target is not None:
            return target, False
        bound = _bound_method_of(project, receiver_type, remaining[0])
        if bound is not None:
            return bound, False
        return None
    return ".".join([receiver_type, *remaining]), True
