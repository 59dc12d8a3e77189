"""What each lint rule is for: one seeded defect on the real tree per rule.

Every row plants a plausible defect in a real ``src/repro`` module and
asserts that the lint reports it under exactly the row's rule.  A kept
rule's defect is one the rest of the suite does not catch (DESIGN.md
§14 names each row's defect), so a rule whose row cannot be written is
a rule that goes.
The two ``retired-*`` rows are defects whose own rules were deleted
because a kept rule reports them; ``inferred-lock`` is a defect on
state no directive names, which LCK001 reads from the code.

The unmutated modules must be clean under the same analysis, so each
finding is the mutation's.  A row whose snippet no longer occurs exactly
once fails until the table is updated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import pytest

from repro.staticcheck import (
    all_deep_rules,
    all_rules,
    analyze_paths,
    analyze_project,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@dataclass(frozen=True)
class Mutation:
    rule: str
    """The one rule id the mutated module must be reported under."""
    module: str
    """Path under ``src/repro`` of the module the edits apply to."""
    edits: tuple[tuple[str, str], ...]
    """``(snippet, replacement)`` pairs; each snippet occurs once."""
    deep_with: tuple[str, ...] = ()
    """Unmutated modules the deep phase needs to resolve the defect."""


MUTATIONS = {
    "LCK001": Mutation(
        # An inserted entry's sequence number is taken after the
        # ring's lock is released.
        "LCK001", "core/ring_buffer.py", ((
            "            seq = self._next_seq\n"
            "            self._next_seq += 1\n"
            "            items[key] = [seq, *record]\n"
            "            return True\n",
            "            items[key] = entry = [0, *record]\n"
            "        entry[0] = self._next_seq\n"
            "        self._next_seq += 1\n"
            "        return True\n"),)),
    "LCK003": Mutation(
        # The pending-row cap flushes while holding _lock, which the
        # flush takes again: a self-deadlock.
        "LCK003", "core/daemon.py", ((
            "            self.rows_dropped += overflow\n",
            "            self.rows_dropped += overflow\n"
            "            self.flush()\n"),)),
    "LCK004": Mutation(
        # A buffer-pool miss reads the disk inside the latch.
        "LCK004", "storage/buffer_pool.py", ((
            "            self._misses += 1\n"
            "        raw = self.disk.read(page_id)\n"
            "        loaded = loader(raw)\n"
            "        with self._lock:\n"
            "            page = self._touch(page_id)\n"
            "            if page is not None:\n"
            "                return page\n"
            "            writebacks",
            "            self._misses += 1\n"
            "            raw = self.disk.read(page_id)\n"
            "            loaded = loader(raw)\n"
            "            writebacks"),),
        deep_with=("storage/disk.py",)),
    "GRW001": Mutation(
        # The sensors keep every admitted record forever.
        "GRW001", "core/monitor.py", (
            ("        self._workload = monitor.workload\n",
             "        self._workload = monitor.workload\n"
             "        self.history: list[tuple] = []\n"),
            ("                self._workload.append_held(record)\n",
             "                self._workload.append_held(record)\n"
             "                self.history.append(record)\n"))),
    "CLK001": Mutation(
        # A journal entry stamped off the wall clock, not the Clock.
        "CLK001", "core/tuning_journal.py", (
            ("from __future__ import annotations\n",
             "from __future__ import annotations\n\nimport time\n"),
            ('state=JournalState.INTENT, error="",\n'
             "                updated_at=self.clock.now())",
             'state=JournalState.INTENT, error="",\n'
             "                updated_at=time.time())"))),
    "EXC002": Mutation(
        # A failed high-water read during requeue is swallowed broadly.
        "EXC002", "core/daemon.py", ((
            "        except (ReproError, OSError):\n"
            "            marks = {}\n",
            "        except Exception:\n"
            "            marks = {}\n"),)),
    "PRF001": Mutation(
        # A list built per inserted statement.
        "PRF001", "core/monitor.py", ((
            "monitor.record_references(text_hash, statement.tables)",
            "monitor.record_references(text_hash, list(statement.tables))"),)),
    "PRF002": Mutation(
        # The flush loop re-walks self.workload_db.append per table.
        "PRF002", "core/daemon.py", ((
            "                written += workload_db.append(",
            "                written += self.workload_db.append("),)),
    "PRF003": Mutation(
        # Used indexes formatted per planned statement.
        "PRF003", "core/monitor.py", ((
            "            used_indexes = optimized.used_indexes_text\n",
            '            used_indexes = f"{optimized.used_indexes_text}"\n'),)),
    "PRF004": Mutation(
        # A captured plan re-reads the clock instead of the statement's
        # timestamp.
        "PRF004", "core/monitor.py", ((
            "optimized.explain(), now)",
            "optimized.explain(), monitor.clock.now())"),)),
    "PRF005": Mutation(
        # Each polled batch is copied while the daemon holds _lock.
        "PRF005", "core/daemon.py", ((
            "self._admit_pending(wl_table, rows)",
            "self._admit_pending(wl_table, list(rows))"),)),
    "retired-from-time-import": Mutation(
        # `from time import ...` does not hide the call from CLK001,
        # which resolves names through the module's imports.
        "CLK001", "core/daemon.py", ((
            "        now = self.clock.now()  # staticcheck:",
            "        from time import time as _wall\n"
            "        now = _wall()  # staticcheck:"),)),
    "retired-unknown-lock": Mutation(
        # A misspelt lock in guarded-by(...) leaves the method's
        # mutations without the lock the ring's other sites hold.
        "LCK001", "core/ring_buffer.py", ((
            "    # staticcheck: hotpath; guarded-by(_lock)\n"
            "    def append_held(",
            "    # staticcheck: hotpath; guarded-by(_lokc)\n"
            "    def append_held("),)),
    "inferred-lock": Mutation(
        # The session peak is updated after the registry's mutex is
        # released.  No directive names the attribute: its other
        # mutation site's `with self._mutex:` does.
        "LCK001", "engine/engine.py", ((
            "            self._sessions[session_id] = session\n"
            "            self._peak_sessions = max(self._peak_sessions,\n"
            "                                      len(self._sessions))\n",
            "            self._sessions[session_id] = session\n"
            "        self._peak_sessions = max(self._peak_sessions,\n"
            "                                  len(self._sessions))\n"),)),
}


def _reported(root: Path, module: str, deep_with: tuple[str, ...],
              ) -> set[str]:
    """Rule ids the shallow rules report on ``module`` and the deep
    rules on it plus ``deep_with``, all under ``root``."""
    findings = analyze_paths([root / module])
    findings += analyze_project(
        [root / name for name in (module, *deep_with)])
    return {finding.rule_id for finding in findings}


@lru_cache(maxsize=None)
def _reported_unmutated(module: str, deep_with: tuple[str, ...]) -> set[str]:
    return _reported(SRC, module, deep_with)


def _mutated_tree(root: Path, mutation: Mutation) -> None:
    for relative in (mutation.module, *mutation.deep_with):
        text = (SRC / relative).read_text(encoding="utf-8")
        if relative == mutation.module:
            for snippet, replacement in mutation.edits:
                if text.count(snippet) != 1:
                    pytest.fail(f"mutation site moved: update the table "
                                f"({relative}: {snippet!r})")
                text = text.replace(snippet, replacement)
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")


@pytest.mark.parametrize("mutation", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_rule_reports_its_mutation(mutation, tmp_path):
    root = tmp_path / "src" / "repro"
    _mutated_tree(root, mutation)
    assert _reported_unmutated(mutation.module, mutation.deep_with) == set()
    assert _reported(root, mutation.module, mutation.deep_with) == {
        mutation.rule}


def test_every_rule_has_a_mutation():
    registered = {rule.rule_id for rule in (*all_rules(), *all_deep_rules())}
    assert {m.rule for m in MUTATIONS.values()} == registered
    assert registered <= set(MUTATIONS)
