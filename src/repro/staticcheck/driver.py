"""The analysis driver: file discovery, parsing, rule dispatch.

:class:`ModuleContext` bundles everything a rule needs about one file —
source, AST, parent links, import aliases and parsed annotations — so
each rule stays a pure AST visitor.  :func:`analyze_paths` walks the
given files/directories, runs every registered rule, applies
``ignore`` suppressions and returns findings sorted by location.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.staticcheck.annotations import (
    AnnotationError,
    Directive,
    parse_annotations,
)
from repro.staticcheck.astutil import build_parent_map, import_aliases
from repro.staticcheck.base import (
    ProjectRule,
    Rule,
    all_deep_rules,
    all_rules,
)
from repro.staticcheck.config import StaticcheckConfig
from repro.staticcheck.findings import Finding, Severity

SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "build", "dist"})


@dataclass
class ModuleContext:
    """Parsed view of one analyzed source file."""

    path: str
    source: str
    tree: ast.Module
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)
    annotations: dict[int, list[Directive]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, path: str, source: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            source=source,
            tree=tree,
            parents=build_parent_map(tree),
            aliases=import_aliases(tree),
            annotations=parse_annotations(source),
        )

    def directives(self, line: int, name: str) -> list[Directive]:
        """Directives called ``name`` attached to ``line``."""
        return [d for d in self.annotations.get(line, []) if d.name == name]

    def function_directive(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                           name: str) -> Directive | None:
        """A directive on the ``def`` line or the line directly above
        it (where a decorator or a standalone comment would sit)."""
        for line in (node.lineno, node.lineno - 1):
            found = self.directives(line, name)
            if found:
                return found[0]
        return None

    def suppressed(self, finding: Finding) -> bool:
        """True when an ``ignore`` directive on the finding's line (or
        the line above, for multi-line statements) covers its rule."""
        for line in (finding.line, finding.line - 1):
            for directive in self.directives(line, "ignore"):
                if not directive.args or finding.rule_id in directive.args:
                    return True
        return False


def iter_python_files(paths: Sequence[Path | str]) -> Iterable[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: set[Path] = set()
    for given in paths:
        root = Path(given)
        if root.is_dir():
            candidates = sorted(
                p for p in root.rglob("*.py")
                if not (set(p.parts) & SKIP_DIRS)
            )
        else:
            candidates = [root]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def analyze_source(path: str, source: str,
                   config: StaticcheckConfig | None = None,
                   rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Run the rules over one in-memory module."""
    config = config or StaticcheckConfig()
    try:
        module = ModuleContext.from_source(path, source)
    except SyntaxError as error:
        return [Finding(
            path=path,
            line=error.lineno or 1,
            column=(error.offset or 1) - 1,
            rule_id="PARSE",
            severity=Severity.ERROR,
            message=f"file does not parse: {error.msg}",
        )]
    except AnnotationError as error:
        return [Finding(
            path=path, line=1, column=0, rule_id="ANN",
            severity=Severity.ERROR, message=str(error),
        )]
    findings: list[Finding] = []
    for rule in (rules if rules is not None else all_rules()):
        for finding in rule.check(module, config):
            if not module.suppressed(finding):
                findings.append(finding)
    findings.sort(key=lambda f: f.sort_key)
    return findings


def analyze_paths(paths: Sequence[Path | str],
                  config: StaticcheckConfig | None = None,
                  rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Run the rules over every Python file under ``paths``."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as error:
            findings.append(Finding(
                path=str(path), line=1, column=0, rule_id="IO",
                severity=Severity.ERROR,
                message=f"cannot read file: {error}",
            ))
            continue
        findings.extend(analyze_source(str(path), source, config, rules))
    findings.sort(key=lambda f: f.sort_key)
    return findings


def analyze_project(paths: Sequence[Path | str],
                    config: StaticcheckConfig | None = None,
                    rules: Sequence[ProjectRule] | None = None,
                    ) -> list[Finding]:
    """The ``--deep`` phase: whole-program rules over the call graph.

    Files that do not parse are skipped silently here — the shallow
    phase already reports ``PARSE`` for them, and a partial program is
    still worth analyzing.
    """
    # Imported here: callgraph/lockflow import this module for
    # ModuleContext, so a top-level import would be circular.
    from repro.staticcheck.callgraph import build_project
    from repro.staticcheck.lockflow import DeepContext, LockFlow

    config = config or StaticcheckConfig()
    modules: list[ModuleContext] = []
    for path in iter_python_files(paths):
        try:
            modules.append(ModuleContext.from_source(
                str(path), path.read_text(encoding="utf-8")))
        except (OSError, SyntaxError, AnnotationError):
            continue
    project = build_project(modules)
    lockflow = LockFlow(project, config).analyze()
    deep = DeepContext(project=project, lockflow=lockflow)
    by_path = {module.path: module for module in modules}
    findings: list[Finding] = []
    for rule in (rules if rules is not None else all_deep_rules()):
        for finding in rule.check_project(deep, config):
            module = by_path.get(finding.path)
            if module is not None and module.suppressed(finding):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: f.sort_key)
    return findings
