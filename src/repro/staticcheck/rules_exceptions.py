"""EXC — exception discipline on the monitoring path.

``EXC002``: ``except Exception`` / ``except BaseException`` inside a
critical module (daemon, watchdog, sensors, monitor) whose handler
never re-raises.  A silently swallowed poll or sensor failure is
exactly the data loss the paper's integrated design exists to avoid;
catch the specific errors and count/record them instead.  (A bare
``except:`` is ruff's E722.)
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.staticcheck.base import Rule, register
from repro.staticcheck.config import StaticcheckConfig
from repro.staticcheck.driver import ModuleContext
from repro.staticcheck.findings import Finding, Severity

BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _broad_names(handler: ast.ExceptHandler) -> list[str]:
    """Names from ``handler.type`` that are broad catches."""
    types: list[ast.expr] = []
    if isinstance(handler.type, ast.Tuple):
        types = list(handler.type.elts)
    elif handler.type is not None:
        types = [handler.type]
    found = []
    for node in types:
        if isinstance(node, ast.Name) and node.id in BROAD_NAMES:
            found.append(node.id)
    return found


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True when the handler body contains any ``raise``."""
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


@register
class SwallowedBroadExceptRule(Rule):
    """EXC002 — broad except without re-raise in a critical module."""

    rule_id = "EXC002"
    summary = ("daemon/watchdog/sensor paths must not silently swallow "
               "broad exceptions")
    default_severity = Severity.ERROR

    def check(self, module: ModuleContext,
              config: StaticcheckConfig) -> Iterable[Finding]:
        if not config.path_matches(module.path,
                                   config.critical_except_paths):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = _broad_names(node)
            if not broad or _reraises(node):
                continue
            yield self.finding(
                module, node.lineno, node.col_offset,
                f"`except {broad[0]}` in a monitoring-critical module "
                f"swallows the error; catch the specific exceptions "
                f"and record the failure (or re-raise)",
            )
