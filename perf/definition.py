"""``BENCHMARK.json`` is the one place workloads and metrics are named.

The runner takes units from it, ``compare.py`` takes directions and
bounds from it, and the self-tests check that a run reports exactly the
metric names it lists.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metrics(kind: str) -> dict[str, dict]:
    """``end_to_end`` or ``per_layer`` metric definitions by name."""
    return {entry["name"]: entry for entry in load()[kind]}
