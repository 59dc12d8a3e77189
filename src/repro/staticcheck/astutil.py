"""Small AST helpers shared by the rules."""

from __future__ import annotations

import ast
from typing import Iterator


def build_parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """Map every node to its parent (identity-keyed via the node)."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def dotted_segments(node: ast.expr) -> list[str] | None:
    """``a.b.c(...)``'s func as ``["a", "b", "c"]``; None if not a plain
    name/attribute chain (e.g. a subscript or call in the middle)."""
    segments: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        segments.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    segments.append(current.id)
    segments.reverse()
    return segments


def import_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> fully qualified imported name, for the module.

    ``import time as t`` maps ``t -> time``; ``from datetime import
    datetime as dt`` maps ``dt -> datetime.datetime``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                target = name.name if name.asname else name.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports never bring in stdlib time
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


#: Container methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "add", "discard",
    "remove", "pop", "popleft", "popitem", "clear", "update",
    "setdefault", "move_to_end", "sort", "reverse",
})


def self_attribute(node: ast.expr) -> str | None:
    """Return ``attr`` when ``node`` is exactly ``self.<attr>``."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def ancestors(node: ast.AST,
              parents: dict[ast.AST, ast.AST]) -> Iterator[ast.AST]:
    """Yield parents from the immediate one up to the module."""
    current = parents.get(node)
    while current is not None:
        yield current
        current = parents.get(current)


def expand_targets(target: ast.expr) -> Iterator[ast.expr]:
    """Flatten tuple/list unpacking targets into leaf targets."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from expand_targets(element)
    elif isinstance(target, ast.Starred):
        yield from expand_targets(target.value)
    else:
        yield target


def target_attr(target: ast.expr) -> str | None:
    """``self.attr``, ``self.attr[i]`` or ``self.attr.field`` as the
    mutated attribute ``attr``; None for non-self targets."""
    while isinstance(target, ast.Subscript):
        target = target.value
    attr = self_attribute(target)
    if attr is not None:
        return attr
    if isinstance(target, ast.Attribute):
        # self.attr.field = x mutates the object held in self.attr
        return self_attribute(target.value)
    return None


def mutated_attr(node: ast.AST) -> tuple[str, ast.AST] | None:
    """If ``node`` mutates ``self.<attr>``, return (attr, location).

    Recognised: plain/augmented/annotated assignment to ``self.attr``
    (including subscripted and dotted forms), ``del self.attr`` and
    calls of known in-place container mutators
    (``self.attr.append(...)``, ``.pop``, ``.clear``, ...).
    """
    if isinstance(node, ast.Assign):
        for target in node.targets:
            for leaf in expand_targets(target):
                attr = target_attr(leaf)
                if attr is not None:
                    return attr, node
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        attr = target_attr(node.target)
        if attr is not None and not (
                isinstance(node, ast.AnnAssign) and node.value is None):
            return attr, node
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            attr = target_attr(target)
            if attr is not None:
                return attr, node
    elif isinstance(node, ast.Call):
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in MUTATOR_METHODS):
            attr = self_attribute(func.value)
            if attr is not None:
                return attr, node
    return None
