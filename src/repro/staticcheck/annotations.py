"""Parsing of ``# staticcheck:`` source annotations.

Annotations are ordinary comments attached to the line they govern:

* ``# staticcheck: guarded-by(_lock)`` — on (or directly above) a
  ``def`` line: every caller of the method already holds the lock, so
  mutations inside the body are considered guarded.  LCK001 infers
  this for a private method whose in-class calls all hold the lock;
  the directive is for a method whose callers are outside the class.
* ``# staticcheck: bounded(<witness>)`` — on a container attribute
  assignment: the container cannot grow without bound, and ``witness``
  names what enforces that — the capacity attribute checked before
  inserts (``bounded(capacity)``), the method that drains it
  (``bounded(flush)``), or the module constant fixing its key space
  (``bounded(MONITOR_TABLES)``).  Read by the deep GRW001 rule.
* ``# staticcheck: hotpath`` — on (or directly above) a ``def`` line:
  the function is a hot-path *root* (a sensor, an execute loop, a
  ring-buffer operation, a daemon flush).  The hot-path analysis
  propagates hotness from every root through the call graph, and the
  PRF rules police per-call cost inside every hot function.
* ``# staticcheck: coldpath(<witness>)`` — on (or directly above) a
  ``def`` line: stop hot-path propagation into this function; the
  witness names why it is off the per-call path
  (``coldpath(statement-cache-miss-only)``,
  ``coldpath(flush-failure-only)``).  The witness is mandatory: a bare
  ``coldpath()`` does not stop propagation.
* ``# staticcheck: allocfree(<witness>)`` — on (or directly above) a
  line a PRF rule reports: the per-call cost is accounted for, and the
  witness names the evidence — a bound on how often the line runs
  (``allocfree(rate-limited-1-per-s)``), or the reason the allocation
  is irreducible (``allocfree(record-is-the-product)``).  The witness
  is mandatory: a bare ``allocfree()`` does not waive anything.
* ``# staticcheck: ignore`` / ``# staticcheck: ignore[LCK001,CLK001]``
  — suppress all / the listed findings reported for this line.

Multiple directives on one line are separated by semicolons:
``# staticcheck: hotpath; guarded-by(_lock)``.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

_COMMENT_RE = re.compile(r"#\s*staticcheck:\s*(?P<body>.+?)\s*$")
_DIRECTIVE_RE = re.compile(
    r"^(?P<name>[a-z-]+)\s*(?:[\(\[]\s*(?P<args>[^)\]]*)\s*[\)\]])?$"
)

KNOWN_DIRECTIVES = ("guarded-by", "bounded", "hotpath", "coldpath",
                    "allocfree", "ignore")


@dataclass(frozen=True)
class Directive:
    """One parsed directive: ``name`` plus its argument tuple."""

    name: str
    args: tuple[str, ...]
    line: int


class AnnotationError(ValueError):
    """A ``# staticcheck:`` comment that cannot be parsed."""


def parse_annotations(source: str) -> dict[int, list[Directive]]:
    """Extract directives from ``source``, keyed by 1-based line.

    Uses :mod:`tokenize` so that ``# staticcheck:`` occurrences inside
    string literals are not misread as annotations.
    """
    directives: dict[int, list[Directive]] = {}
    reader = io.StringIO(source).readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return directives
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _COMMENT_RE.search(token.string)
        if match is None:
            continue
        line = token.start[0]
        for part in match.group("body").split(";"):
            part = part.strip()
            if not part:
                continue
            parsed = _DIRECTIVE_RE.match(part)
            if parsed is None or parsed.group("name") not in KNOWN_DIRECTIVES:
                raise AnnotationError(
                    f"line {line}: unrecognized staticcheck "
                    f"directive {part!r}"
                )
            raw_args = parsed.group("args") or ""
            args = tuple(
                a.strip() for a in raw_args.split(",") if a.strip()
            )
            directives.setdefault(line, []).append(
                Directive(parsed.group("name"), args, line))
    return directives
