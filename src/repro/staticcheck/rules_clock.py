"""CLK — clock discipline: one time source for the whole system.

The engine stamps records through :mod:`repro.clock` so that virtual
clocks make daemon/retention behaviour deterministic.  A stray
``time.time()`` anywhere else silently splits the time line in two.

``CLK001``: call of a banned wall-clock primitive (``time.time``,
``time.monotonic``, ``time.sleep``, ``datetime.now`` ...) outside the
allow-listed clock modules.  ``time.perf_counter`` stays legal — it
measures durations only and carries no wall-clock meaning.  Calls are
resolved through the module's import aliases, so ``from time import
monotonic`` followed by ``monotonic()`` is reported like
``time.monotonic()``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.staticcheck.astutil import dotted_segments
from repro.staticcheck.base import Rule, register
from repro.staticcheck.config import StaticcheckConfig
from repro.staticcheck.driver import ModuleContext
from repro.staticcheck.findings import Finding, Severity

BANNED_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.sleep",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})


def _resolved_call_name(node: ast.Call,
                        aliases: dict[str, str]) -> str | None:
    """Fully qualified dotted name of the call, with the first segment
    resolved through the module's import aliases; None when the head is
    a local name (``self.clock.now()`` never resolves)."""
    segments = dotted_segments(node.func)
    if not segments:
        return None
    head = aliases.get(segments[0])
    if head is None:
        return None
    return ".".join([head, *segments[1:]])


@register
class WallClockCallRule(Rule):
    """CLK001 — wall-clock primitive called outside clock modules."""

    rule_id = "CLK001"
    summary = ("wall-clock reads/sleeps must go through repro.clock "
               "so virtual clocks stay deterministic")
    default_severity = Severity.ERROR

    def check(self, module: ModuleContext,
              config: StaticcheckConfig) -> Iterable[Finding]:
        if config.path_matches(module.path, config.clock_allowed_paths):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _resolved_call_name(node, module.aliases)
            if name in BANNED_CALLS:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"direct call of {name}() outside the clock module; "
                    f"take a repro.clock.Clock and use .now() / "
                    f".monotonic() / .sleep() instead",
                )

