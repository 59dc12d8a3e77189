"""The prose names what exists.

Every file, code name, metric, monitor table and lint code that
README.md, DESIGN.md, EXPERIMENTS.md or the verify skill puts in
backticks is one the tree has, and README's ``python`` blocks run.  A
doc that still cites a deleted class, module or rule fails here, in the
change that deletes it.  (``perf/README.md`` belongs to the benchmark
and is left out.)

What each backticked span is checked as:

* a file path (``core/monitor.py``, ``tests/test_x.py::TestY::test_z``,
  ``benchmarks/results/*.txt``): it exists, and each ``::`` name is a
  ``def`` or ``class`` in it;
* a dotted name (``Class.attr``, ``module.name``, ``repro.x.y``): a
  ``BENCHMARK.json`` metric, a fault point, or it resolves by import
  and getattr (an attribute may also be a field, or one ``self.<attr>``
  assigns);
* a lone identifier: a word some code under ``src``, ``tests``,
  ``perf``, ``benchmarks`` or ``examples`` contains;
* an ``ima_*`` / ``wl_*`` name that is not a metric: a monitor table or
  the tuning journal;
* a lint code (``LCK001``): a registered rule.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import importlib
import inspect
import io
import json
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import repro
from repro.core.ima import MONITOR_TABLES
from repro.core.tuning_journal import JOURNAL_TABLE
from repro.faultsim import FAIL_POINTS
from repro.staticcheck.base import all_deep_rules, all_rules

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", *sorted(
    path.relative_to(ROOT).as_posix()
    for path in ROOT.glob(".*/skills/*/SKILL.md")))  # the verify skill
CODE_DIRS = ("src", "tests", "perf", "benchmarks", "examples")

_FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(r"([\w.*/-]+\.(?:py|md|txt|json|toml|yml))((?:::\w+)*)")
_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")
_TABLE = re.compile(r"(?:ima|wl)_\w+")
_LINT = re.compile(r"\b[A-Z]{3}\d{3}\b")


def _spans(doc: str) -> list[str]:
    prose = _FENCE.sub("", (ROOT / doc).read_text())
    return list(dict.fromkeys(span.strip() for span in _SPAN.findall(prose)))


@functools.lru_cache(maxsize=1)
def _code() -> tuple[frozenset[str], tuple[Path, ...]]:
    """Every word in the code, and every file under the code's
    directories."""
    files = tuple(path for top in CODE_DIRS
                  for path in (ROOT / top).rglob("*") if path.is_file())
    words = {word for path in files if path.suffix == ".py"
             for word in re.findall(r"\w+", path.read_text())}
    return frozenset(words | set(dir(builtins))), files


@functools.lru_cache(maxsize=1)
def _modules() -> dict[str, object]:
    """Every ``repro`` module, by full and by last dotted name."""
    found: dict[str, object] = {"repro": repro}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        found[info.name] = module
        found.setdefault(info.name.rsplit(".", 1)[1], module)
    return found


@functools.lru_cache(maxsize=1)
def _symbols() -> dict[str, list[object]]:
    """Every name a ``repro`` module defines or imports, to its objects."""
    table: dict[str, list[object]] = {}
    for module in set(_modules().values()):
        for name, value in vars(module).items():
            if not any(value is seen for seen in table.get(name, ())):
                table.setdefault(name, []).append(value)
    return table


@functools.lru_cache(maxsize=1)
def _metrics() -> frozenset[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return frozenset(metric["name"]
                     for metric in bench["end_to_end"] + bench["per_layer"])


def _instance_attribute(cls: type, name: str) -> bool:
    """A field of ``cls`` or of a base, or an attribute ``self`` assigns."""
    for klass in cls.__mro__:
        if name in (*getattr(klass, "__annotations__", ()),
                    *getattr(klass, "__dataclass_fields__", ()),
                    *getattr(klass, "_fields", ())):
            return True
        try:
            source = inspect.getsource(klass)
        except (OSError, TypeError):
            continue
        if re.search(rf"\bself\.{name}\s*(?::|=(?!=))", source):
            return True
    return False


def _walk(value: object, names: list[str]) -> bool:
    words = _code()[0]
    for i, name in enumerate(names):
        if isinstance(value, (property, functools.cached_property)):
            return all(rest in words for rest in names[i:])
        if hasattr(value, name):
            value = getattr(value, name)
            continue
        cls = value if isinstance(value, type) else type(value)
        return (_instance_attribute(cls, name)
                and all(rest in words for rest in names[i + 1:]))
    return True


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    if parts[0] == "repro" or parts[0] in sys.stdlib_module_names:
        for cut in range(len(parts), 0, -1):
            try:
                module = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            return _walk(module, parts[cut:])
    heads = [_modules()[parts[0]]] if parts[0] in _modules() else []
    heads += _symbols().get(parts[0], [])
    return any(_walk(head, parts[1:]) for head in heads)


def _path_missing(path: str, names: str) -> bool:
    files = _code()[1]
    if "*" in path:
        return not any(ROOT.glob(path))
    found = [ROOT / path] if (ROOT / path).is_file() else [
        file for file in files if file.as_posix().endswith("/" + path)]
    if not found:
        return True
    text = found[0].read_text()
    return any(not re.search(rf"(?:def|class) {name}\b", text)
               for name in names.split("::")[1:])


def _stale(span: str) -> bool:
    """Whether ``span`` names something the tree does not have."""
    if path := _PATH.fullmatch(span):
        return _path_missing(*path.groups())
    if _TABLE.fullmatch(span) and span not in _metrics():
        tables = {JOURNAL_TABLE} | {schema.name for table in MONITOR_TABLES
                                    for schema in (table.ima_schema,
                                                   table.wl_schema)}
        return span not in tables
    name = _NAME.fullmatch(span)
    if name is None:
        return False
    dotted = name.group(1)
    if "." not in dotted:
        return dotted not in _code()[0]
    return (dotted not in _metrics() and dotted not in FAIL_POINTS
            and not _resolves(dotted))


@pytest.mark.parametrize("doc", DOCS)
def test_every_backticked_name_exists(doc):
    stale = [span for span in _spans(doc) if _stale(span)]
    assert not stale, f"{doc} names what the tree does not have: {stale}"


@pytest.mark.parametrize("doc", DOCS)
def test_every_lint_code_is_a_registered_rule(doc):
    rules = {rule.rule_id for rule in all_rules() + all_deep_rules()}
    codes = {code for span in _spans(doc) for code in _LINT.findall(span)}
    assert not codes - rules, f"{doc} names unregistered rules: " \
        f"{sorted(codes - rules)}"


_README_PYTHON = [body for kind, body in _FENCE.findall(
    (ROOT / "README.md").read_text()) if kind == "python"]


@pytest.mark.parametrize("block", range(len(_README_PYTHON)))
def test_readme_python_runs(block):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(_README_PYTHON[block], f"README.md block {block}",
                     "exec"), {})
