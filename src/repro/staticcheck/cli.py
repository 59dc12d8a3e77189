"""``repro lint`` — one entry point for all static analysis.

Runs the project-specific AST rules, then (in text mode) ruff and mypy
when they are installed; environments without them just get a "skipped"
note, so the custom analysis works from a bare checkout.

``--deep`` adds the interprocedural phase (call graph, held-lock
propagation, hot-path propagation).

Exit status: 0 when everything is clean, 1 on any finding or
third-party tool failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import repro.staticcheck  # noqa: F401  (registers all rules)
from repro.staticcheck.base import all_deep_rules, all_rules
from repro.staticcheck.driver import analyze_paths, analyze_project
from repro.staticcheck.reporters import render_json, render_text

DEFAULT_PATHS = ("src/repro",)


def _run_tool(module: str, arguments: list[str]) -> int | None:
    """Run an installed third-party checker; None when unavailable."""
    if importlib.util.find_spec(module) is None:
        return None
    completed = subprocess.run(
        [sys.executable, "-m", module, *arguments], check=False)
    return completed.returncode


def _print_rules() -> None:
    """``--list-rules``: every rule id, its one-line doc and waiver
    grammar, plus the annotation directives — all read from the rule
    classes and :data:`~repro.staticcheck.annotations.KNOWN_DIRECTIVES`
    so the listing cannot drift from what the analyzer enforces."""
    from repro.staticcheck.annotations import KNOWN_DIRECTIVES

    for rule in all_rules():
        print(f"{rule.rule_id}  {rule.summary}")
        if rule.waiver:
            print(f"{'':8}waiver: {rule.waiver}")
    for deep_rule in all_deep_rules():
        print(f"{deep_rule.rule_id}  [deep] {deep_rule.summary}")
        if deep_rule.waiver:
            print(f"{'':8}waiver: {deep_rule.waiver}")
    print()
    print("annotation grammar: # staticcheck: <directive>(<args>)")
    print(f"  directives: {', '.join(KNOWN_DIRECTIVES)}")
    print("  ignore[RULE1,RULE2] suppresses findings on its line; "
          "every other")
    print("  directive either declares an invariant (shared, "
          "guarded-by, hotpath)")
    print("  or waives one with a named witness (bounded, allocfree, "
          "coldpath).")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="project-specific static analysis "
                    "(+ ruff/mypy when installed)")
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to analyze "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="output_format",
                        help="report format (json skips ruff/mypy)")
    parser.add_argument("--skip-tools", action="store_true",
                        help="run only the custom AST rules, "
                             "never ruff/mypy")
    parser.add_argument("--deep", action="store_true",
                        help="also run the interprocedural phase "
                             "(call graph, held-lock propagation "
                             "and hot-path propagation: LCK003/"
                             "LCK004/GRW001/PRF001-PRF005)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules, their "
                             "waiver grammar and the annotation "
                             "directives, then exit")
    arguments = parser.parse_args(argv)

    if arguments.list_rules:
        _print_rules()
        return 0

    missing = [path for path in arguments.paths
               if not Path(path).exists()]
    if missing:
        print(f"repro lint: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    findings = analyze_paths(arguments.paths)
    if arguments.deep:
        findings.extend(analyze_project(arguments.paths))
        findings.sort(key=lambda f: f.sort_key)

    if arguments.output_format == "json":
        print(render_json(findings))
        return 1 if findings else 0

    print(render_text(findings))
    status = 1 if findings else 0

    if not arguments.skip_tools:
        for tool, tool_args in (
            ("ruff", ["check", *arguments.paths]),
            ("mypy", []),  # scope comes from [tool.mypy] files=...
        ):
            code = _run_tool(tool, tool_args)
            if code is None:
                print(f"{tool}: skipped (not installed)")
            elif code != 0:
                status = 1
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
