"""Project-specific static analysis for the monitoring core.

The paper's design only works if the hot monitoring path stays correct
and cheap *by construction*: sensors, ring buffers, the storage daemon
and the lock manager all share mutable state across threads, and every
timestamp must flow through :mod:`repro.clock`.  ``repro.staticcheck``
is a small Python-``ast`` analysis framework enforcing those
invariants.  Each rule is kept because a defect on the real tree exists
that only it catches (``tests/test_staticcheck_mutations.py`` seeds one
per rule):

* **Lock discipline** (``LCK001``) — in a class that owns a lock,
  every attribute mutated outside ``__init__`` is mutated with one
  common lock held at every site: inside ``with self.<lock>:``, or in a
  method that runs under it — a private one whose in-class calls all
  hold it, or one annotated ``# staticcheck: guarded-by(<lock>)``.
* **Clock discipline** (``CLK001``) — no ``time.time()`` /
  ``datetime.now()`` style wall-clock calls outside ``clock.py``.
* **Exception discipline** (``EXC002``) — no broad ``except
  Exception`` that swallows errors in daemon, watchdog or sensor paths
  (a bare ``except:`` is ruff's E722).

That sensors never call back into the catalog is structural:
``IntegratedMonitor`` and ``MonitorSensors`` hold no engine, catalog
or session (``tests/test_core_monitor.py`` pins it).

A second, *interprocedural* phase (``--deep``) builds a project-wide
call graph and propagates held locks across it, adding:

* **Lock-order cycles** (``LCK003``) — a cycle in the acquisition-order
  graph is a potential deadlock.
* **Blocking under a lock** (``LCK004``) — sleeps, socket/file I/O, SQL
  round trips or untimed ``queue.get``/``join`` reachable while any
  lock is held.
* **Unbounded growth** (``GRW001``) — monitor-path containers that grow
  without eviction, ``maxlen``, a capacity check or a
  ``# staticcheck: bounded(<witness>)`` declaration.

A *performance-discipline* phase (:mod:`repro.staticcheck.hotpath` +
:mod:`repro.staticcheck.rules_perf`) seeds hot roots from
``# staticcheck: hotpath`` annotations on sensor/execute/ring-buffer/
daemon-flush entry points, propagates hotness through the call graph
(``coldpath(<witness>)`` stops propagation into deliberate slow paths)
and polices per-call cost inside every hot function:

* **Per-call allocation** (``PRF001``) — dict/list/set displays,
  comprehensions, lambdas, container/record constructions.
* **Repeated lookups in hot loops** (``PRF002``) — attribute chains
  re-walked per iteration; bind them to locals.
* **Unguarded formatting** (``PRF003``) — f-string/str.format/logging
  work with no level check and off any error path.
* **Per-row clock reads** (``PRF004``) — wall-clock reads that should
  be captured once per statement and reused.
* **Work under an engine lock** (``PRF005``) — allocation/formatting
  inside lockflow's held-lock regions of hot functions.

Irreducible costs are waived with ``# staticcheck:
allocfree(<witness>)``; PRF findings carry hotness provenance (the
``hotpath`` root plus the call chain) in text and JSON.

Run it as ``python -m repro.cli lint --deep [paths]`` or through
:func:`analyze_paths` / :func:`analyze_project`.  Findings are
suppressable per line with ``# staticcheck: ignore[RULE1,RULE2]``;
deep findings carry an evidence trace (call chain plus acquisition
sites) in both text and JSON output.
"""

from __future__ import annotations

from repro.staticcheck.base import (
    ProjectRule,
    Rule,
    all_deep_rules,
    all_rules,
    register,
    register_deep,
)
from repro.staticcheck.callgraph import ProjectContext, build_project
from repro.staticcheck.config import StaticcheckConfig
from repro.staticcheck.driver import (
    ModuleContext,
    analyze_paths,
    analyze_project,
)
from repro.staticcheck.findings import Finding, Severity, TraceEntry
from repro.staticcheck.lockflow import DeepContext, LockFlow
from repro.staticcheck.reporters import render_json, render_text

# Importing the rule modules registers their rules with the registry.
from repro.staticcheck import rules_clock  # noqa: F401  (registration)
from repro.staticcheck import rules_exceptions  # noqa: F401
from repro.staticcheck import rules_locks  # noqa: F401
from repro.staticcheck import rules_deep  # noqa: F401
from repro.staticcheck import rules_perf  # noqa: F401

__all__ = [
    "DeepContext",
    "Finding",
    "LockFlow",
    "ModuleContext",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "Severity",
    "StaticcheckConfig",
    "TraceEntry",
    "all_deep_rules",
    "all_rules",
    "analyze_paths",
    "analyze_project",
    "build_project",
    "register",
    "register_deep",
    "render_json",
    "render_text",
]
