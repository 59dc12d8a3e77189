"""Measures one workload, in this process, strictly from outside.

The program is reached through ``repro.setups`` (the paper's three
setups), ``Session.execute``, ``StorageDaemon.poll_once`` / ``flush``
and ``Analyzer.analyze_workload_db``; it receives statement text and
nothing else.  See ``README.md`` for why the loop looks the way it
does (one session, inline polls, frozen collector).

Closed loop, one session, one thread.  A *round* runs the same chunk of
statements on the Original, Monitoring and Daemon setups, a ~20 ms
slice at a time in rotating order, with a fixed calibration kernel
between the turns; every time of a round is divided by the median
slowdown the kernel saw during it, and every chunk-level metric is the
median over rounds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from perf import definition, workloads
from perf.trace import (Tracer, install_hooks, read, relatives, resolve,
                        self_times, shim_overhead)

SOURCE = definition.ROOT / "src"

SETUPS = ("original", "monitoring", "daemon")
DATABASE = "bench"
POLLS_PER_FLUSH = 4  # the paper's (and DaemonConfig's) polls per write
ANALYZER_SCANS = 3
MIN_PERCENTILE_WINDOW = 20
KEYED_RINGS = ("statements", "references", "tables", "attributes",
               "indexes", "plans")
IMA_SCANS = ("select * from ima_workload", "select * from ima_statements",
             "select * from ima_references")

_wall = time.perf_counter_ns
_cpu = time.process_time_ns

KERNEL_STEPS = 20_000
KERNEL_NOMINAL_NS = 5_000_000
"""What the calibration kernel takes on the quiet reference box.  The
box shares its cores: for seconds at a time everything on it, CPU time
included, runs 20-60 % slower.  Dividing a round's times by the median
slowdown the kernel saw *during that round* (kernel time / nominal)
reports them at reference speed; without that, the spread between runs
of the same code is three to four times wider."""


class Pacer:
    """The calibration kernel and the slowdowns it has seen."""

    def __init__(self) -> None:
        self.slowdowns: list[float] = []

    def tick(self) -> None:
        """Run the kernel (pure interpreter work, independent of the
        program under test) and record how slow the box is right now."""
        table: dict[int, int] = {}
        total = 0
        kept = []
        t0 = _wall()
        for step in range(KERNEL_STEPS):
            key = step & 1023
            table[key] = table.get(key, 0) + step
            total += len(str(key)) + step % 7
            if not step & 63:
                kept.append((key, total))
        self.slowdowns.append((_wall() - t0) / KERNEL_NOMINAL_NS)

    @property
    def mark(self) -> int:
        return len(self.slowdowns)

    def since(self, mark: int) -> float:
        """Median slowdown of the ticks after ``mark``.  The median over
        a round, not the tick next to each piece of work: a burst that
        hits one 5 ms tick says little about a 300 ms flush beside it."""
        return statistics.median(self.slowdowns[mark:])


# -- results ---------------------------------------------------------------

def _significant(value: Any) -> Any:
    """Floats to 9 significant digits, so a digest survives a change in
    the order a sum was taken in."""
    if isinstance(value, float) and math.isfinite(value) and value:
        return round(value, 8 - math.floor(math.log10(abs(value))))
    return value


def canonical_result(result: Any) -> bytes:
    """Order-free, rounding-tolerant form of one statement's result."""
    rows = getattr(result, "rows", None)
    if rows is None:
        return f"{getattr(result, 'kind', '?')}:" \
               f"{getattr(result, 'rowcount', '?')}".encode()
    lines = sorted(repr(tuple(_significant(value) for value in row))
                   for row in rows)
    return "\n".join(lines).encode()


def result_digest(texts_and_results: list[tuple[str, Any]]) -> str:
    digest = hashlib.sha256()
    for text, result in texts_and_results:
        digest.update(text.encode())
        digest.update(b"\x00")
        digest.update(result if isinstance(result, bytes)
                      else canonical_result(result))
        digest.update(b"\x01")
    return digest.hexdigest()


def digest_mismatches(digests: dict[str, str]) -> list[str]:
    """Setups whose results differ from the first setup's."""
    reference = next(iter(digests.values()))
    return [name for name, value in digests.items() if value != reference]


def _consume(result: Any) -> int:
    """Touch every row of a result (inside the timed region)."""
    rows = getattr(result, "rows", None)
    if rows is None:
        return result.rowcount
    try:
        return len(rows)
    except TypeError:
        return sum(1 for _ in rows)


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


# -- one setup -------------------------------------------------------------

class Arm:
    """One of the paper's setups with the bench session and its tallies."""

    def __init__(self, name: str, setup: Any) -> None:
        self.name = name
        self.setup = setup
        self.database = setup.engine.database(DATABASE)
        self.session = setup.engine.connect(DATABASE)
        self.issued = 0
        self.failures: list[str] = []
        self.attempted = 0
        self.chunks_done = 0  # index of the last chunk executed
        # Per measured chunk, at reference speed (see Pacer).  A chunk
        # of the Daemon setup is charged its poll and an equal share of
        # the flush that persisted its rows.
        self.wall_ns: list[float] = []
        self.cpu_ns: list[float] = []
        self.stmt_ns: list[float] = []
        self.rows: list[int] = []
        self.latencies: list[list[list[float]]] = []  # chunk, turn
        self.preempted = 0
        self.poll_ns: list[float] = []
        self.daemon_ns: list[float] = []  # poll + share of the flush
        self.collected: list[int] = []
        self.flush_ns = 0.0
        self.flushed = 0
        self.degraded_polls = 0
        self._unflushed = 0
        self._raw = _Raw()

    def fail(self, what: str) -> None:
        self.failures.append(f"{self.name}: {what}")

    def execute_all(self, statements: list[str]) -> list[tuple[str, Any]]:
        """Untimed execution (prepare, warm-up, checks)."""
        results = []
        for text in statements:
            self.issued += 1
            self.attempted += 1
            try:
                result = self.session.execute(text)
                _consume(result)
                results.append((text, result))
            except Exception as error:  # noqa: BLE001 - counted, reported
                self.fail(f"{text[:60]!r}: {type(error).__name__}: {error}")
                results.append((text, f"error:{type(error).__name__}"
                                .encode()))
        return results

    def timed_slice(self, statements: list[str], checkpoint: bool,
                    keep: list[tuple[str, Any]] | None = None) -> None:
        """This setup's turn: run ``statements``; the raw times wait in
        the open chunk until :meth:`close_chunk` knows how fast the box
        was.  ``keep`` collects the results (for the digest)."""
        execute = self.session.execute
        raw = self._raw
        raw.latencies.append([])
        latency = raw.latencies[-1].append
        total = 0
        cpu0 = _cpu()
        wall0 = _wall()
        for text in statements:
            t0 = _wall()
            try:
                result = execute(text)
                raw.rows += _consume(result)
            except Exception as error:  # noqa: BLE001 - counted, reported
                self.fail(f"{text[:60]!r}: {type(error).__name__}: {error}")
                result = f"error:{type(error).__name__}".encode()
            elapsed = _wall() - t0
            total += elapsed
            latency(elapsed)
            if keep is not None:
                keep.append((text, result))
        if checkpoint:
            # Every chunk ends with a checkpoint: the only way a dirty
            # page of a database that fits its pool is ever written back.
            self.database.pool.flush_all()
        wall, cpu = _wall() - wall0, _cpu() - cpu0
        raw.wall += wall
        raw.cpu += cpu
        raw.stmt += total
        self.preempted += wall > 1.1 * cpu
        self.issued += len(statements)
        self.attempted += len(statements)

    def traced_slice(self, statements: list[str], tracer: Tracer,
                     tally: dict[str, int]) -> None:
        execute = self.session.execute
        ident = tracer.intern("stmt")
        for text in statements:
            span = tracer.open_statement(ident)
            try:
                result = execute(text)
                _consume(result)
                metrics = getattr(result, "metrics", None)
                if metrics is not None:
                    tally["tuples"] += getattr(metrics, "tuples_processed", 0)
                    tally["returned"] += getattr(metrics, "rows_returned", 0)
            except Exception as error:  # noqa: BLE001 - counted, reported
                self.fail(f"{text[:60]!r}: {type(error).__name__}: {error}")
            finally:
                tracer.close_statement(span)
        self.issued += len(statements)
        self.attempted += len(statements)

    def daemon_step(self, flush: bool, pacer: Pacer,
                    tracer: Tracer | None = None) -> None:
        """Inline poll (and flush) after a chunk: no daemon thread, so
        poll and row counts repeat exactly and the stall is charged to
        the Daemon setup's chunk."""
        daemon = self.setup.daemon
        span = tracer.span if tracer is not None else _no_span
        raw = self._raw
        self.attempted += 1
        cpu0, wall0 = _cpu(), _wall()
        try:
            with span("core.daemon.poll"):
                raw.collected = daemon.poll_once().rows_collected
        except Exception as error:  # noqa: BLE001 - counted, reported
            self.fail(f"poll_once: {type(error).__name__}: {error}")
        raw.poll, raw.poll_cpu = _wall() - wall0, _cpu() - cpu0
        pacer.tick()
        if read(self.setup.monitor, "degradation_level"):
            self.degraded_polls += 1
        if not flush:
            return
        self.attempted += 1
        cpu0, wall0 = _cpu(), _wall()
        try:
            with span("core.daemon.flush"):
                raw.flushed = daemon.flush()[0]
        except Exception as error:  # noqa: BLE001 - counted, reported
            self.fail(f"flush: {type(error).__name__}: {error}")
        raw.flush, raw.flush_cpu = _wall() - wall0, _cpu() - cpu0
        pacer.tick()

    def flush_due(self, last: bool) -> bool:
        """Every fourth poll, and after the last chunk."""
        return last or (len(self.poll_ns) + 1) % POLLS_PER_FLUSH == 0

    def close_chunk(self, slowdown: float) -> None:
        """Book the open chunk at reference speed."""
        raw, self._raw = self._raw, _Raw()
        self.wall_ns.append((raw.wall + raw.poll) / slowdown)
        self.cpu_ns.append((raw.cpu + raw.poll_cpu) / slowdown)
        self.stmt_ns.append(raw.stmt / slowdown)
        self.rows.append(raw.rows)
        self.latencies.append([[elapsed / slowdown for elapsed in turn]
                               for turn in raw.latencies])
        if raw.collected is None:
            return
        self.poll_ns.append(raw.poll / slowdown)
        self.daemon_ns.append(raw.poll / slowdown)
        self.collected.append(raw.collected)
        self._unflushed += 1
        if raw.flushed is None:
            return
        self.flushed += raw.flushed
        self.flush_ns += raw.flush / slowdown
        # Spread the flush over the chunks whose rows it persisted:
        # otherwise the median over chunks would never see a flush.
        for chunk in range(-self._unflushed, 0):
            share = 1 / slowdown / self._unflushed
            self.wall_ns[chunk] += raw.flush * share
            self.cpu_ns[chunk] += raw.flush_cpu * share
            self.daemon_ns[chunk] += raw.flush * share
        self._unflushed = 0

    def warm_daemon(self) -> None:
        """The warm-up chunk's poll and flush: the daemon's own session
        and plans exist, and the workload ring is read, before the
        first measured chunk adds to it."""
        try:
            self.setup.daemon.poll_once()
            self.setup.daemon.flush()
        except Exception as error:  # noqa: BLE001 - counted, reported
            self.fail(f"warm-up poll: {type(error).__name__}: {error}")


class _Raw:
    """Raw nanoseconds of the chunk an arm is in the middle of."""

    def __init__(self) -> None:
        self.wall = self.cpu = self.stmt = self.rows = 0
        self.latencies: list[list[int]] = []  # one list per turn
        self.poll = self.poll_cpu = self.flush = self.flush_cpu = 0
        self.collected: int | None = None
        self.flushed: int | None = None


def _no_span(_name: str) -> Any:
    return nullcontext()


# -- set-up ----------------------------------------------------------------

class Bench:
    """Three arms over one generated workload."""

    def __init__(self, name: str, seed: int, rounds: int,
                 size: workloads.Size | None = None,
                 spawned_at_ns: int | None = None) -> None:
        started = spawned_at_ns if spawned_at_ns is not None \
            else time.monotonic_ns()
        self.workload = workloads.build(name, seed, rounds, size)
        self.rounds = rounds
        self.pacer = Pacer()
        t0 = time.monotonic_ns()
        # The benchmark measures the checkout it lives in, whatever
        # else is installed.
        if str(SOURCE) not in sys.path:
            sys.path.insert(0, str(SOURCE))
        setups = importlib.import_module("repro.setups")
        config = importlib.import_module("repro.config")
        nref = importlib.import_module("repro.workloads")
        self.analyzer_class = importlib.import_module(
            "repro.core.analyzer").Analyzer
        self._setups = setups
        t1 = time.monotonic_ns()
        self.import_s = (t1 - t0) / 1e9

        original = setups.original_setup()
        original.engine.create_database(DATABASE)
        monitoring = setups.monitoring_setup()
        monitoring.engine.create_database(DATABASE)
        # The daemon never flushes on its own here: the benchmark calls
        # flush() after every fourth poll so the two are timed apart.
        daemon = setups.daemon_setup(
            DATABASE, daemon_config=config.DaemonConfig(
                flush_every_polls=2 ** 31))
        scale = nref.NrefScale(proteins=self.workload.size.proteins)
        self.table_rows: dict[str, int] = {}
        self.arms: dict[str, Arm] = {}
        for arm_name, setup in zip(SETUPS, (original, monitoring, daemon)):
            self.table_rows = dict(nref.load_nref(
                setup.engine.database(DATABASE), scale))
            self.arms[arm_name] = Arm(arm_name, setup)
        t2 = time.monotonic_ns()
        self.load_s = (t2 - t1) / 1e9

        # The digest covers the warm-up chunk and the first measured
        # one (sealed in measure(), outside the timers).
        self._results = {}
        for arm in self.arms.values():
            arm.execute_all(self.workload.prepare)
            self._results[arm.name] = arm.execute_all(self.workload.chunks[0])
        self.arms["daemon"].warm_daemon()
        self.result_digest = ""
        self.failures: list[str] = []
        gc.collect()
        gc.freeze()
        t3 = time.monotonic_ns()
        self.warmup_s = (t3 - t2) / 1e9
        self.setup_s = (t3 - started) / 1e9
        self.checks = 1

    # -- measuring ---------------------------------------------------------

    def measure(self, rounds: int) -> None:
        """``rounds`` more rounds on all three arms.  Within a round the
        setups take turns a slice at a time, in an order that rotates
        from round to round, with a tick of the calibration kernel
        after every turn of the three: a slow spell of the box hits all
        three alike, no setup always runs first, and the round knows
        how slow the box was."""
        arms = list(self.arms.values())
        pacer = self.pacer
        size = self.workload.size.slice
        for index in range(rounds):
            done = arms[0].chunks_done
            statements = self.workload.chunks[done + 1]
            order = [arms[(done + offset) % len(arms)]
                     for offset in range(len(arms))]
            gc.collect()
            gc.disable()
            mark = pacer.mark
            pacer.tick()
            keep = self._results if done == 0 else {}
            for low in range(0, len(statements), size):
                piece = statements[low:low + size]
                for arm in order:
                    arm.timed_slice(
                        piece, low + size >= len(statements),
                        keep.get(arm.name))
                pacer.tick()
            daemon_arm = self.arms["daemon"]
            daemon_arm.daemon_step(
                daemon_arm.flush_due(last=index == rounds - 1), pacer)
            slowdown = pacer.since(mark)
            for arm in arms:
                arm.close_chunk(slowdown)
                arm.chunks_done += 1
            gc.enable()
            if keep:
                self._seal_digest()
            rows = {arm.name: arm.rows[-1] for arm in arms}
            if len(set(rows.values())) != 1:
                self.failures.append(
                    f"chunk {done + 1}: row counts differ {rows}")
            self.checks += 1

    def _seal_digest(self) -> None:
        digests = {name: result_digest(results)
                   for name, results in self._results.items()}
        self._results = {}
        self.result_digest = digests["original"]
        self.failures += [f"result digest of {name} differs from original"
                          for name in digest_mismatches(digests)]

    def finish(self) -> None:
        """Every end-of-run check (the last chunk was followed by a
        poll and a flush)."""
        daemon_arm = self.arms["daemon"]
        setup = daemon_arm.setup
        monitor, workload_db = setup.monitor, setup.workload_db
        session_id = daemon_arm.session.session_id

        # The workload DB is an ordinary database: attach it to a
        # monitoring-free engine and ask it over SQL.
        reader = self._setups.original_setup()
        reader.engine.attach_database(workload_db.database)
        with reader.engine.connect(workload_db.database.name) as session:
            persisted = session.execute(
                "select count(*) from wl_workload "
                f"where session_id = {session_id}").rows[0][0]
        self.expect("exactly-once: wl_workload rows of the bench session",
                    persisted, daemon_arm.issued)
        self.ring_dropped = daemon_arm.issued - persisted
        appended = read(monitor, "workload.total_appended")
        self.pending_dropped = getattr(read(setup.daemon, "status"),
                                       "rows_dropped", None)
        self.expect("daemon pending rows dropped", self.pending_dropped, 0)
        counters = read(monitor, "degradation_counters")
        self.issued_minus_admitted = None \
            if counters is None or appended is None \
            else counters[0] - appended
        self.expect("issued - admitted", self.issued_minus_admitted, 0)
        self.expect("polls below DETAILED", daemon_arm.degraded_polls, 0)
        for arm in self.arms.values():
            checks = self.workload.final_checks
            for query, expected in (checks[arm.chunks_done]
                                    if checks else ()):
                (_text, result), = arm.execute_all([query])
                rows = getattr(result, "rows", None)
                self.expect(f"{arm.name}: {query}",
                            None if rows is None else
                            [tuple(row) for row in rows], expected)

    def expect(self, what: str, found: Any, expected: Any) -> None:
        self.checks += 1
        if found != expected:
            self.failures.append(f"{what}: {found!r}, expected {expected!r}")

    def analyzer_scans(self, count: int) -> tuple[float, int, float]:
        """Median seconds (at reference speed) of ``count`` analyzer
        scans over the workload DB the run produced, the number of
        recommendations, and the slowdown the scans ran under."""
        arm = self.arms["daemon"]
        analyzer = self.analyzer_class(arm.database)
        seconds = []
        recommendations = 0
        mark = self.pacer.mark
        self.pacer.tick()
        for _ in range(count):
            gc.collect()
            gc.disable()
            self.checks += 1
            t0 = _wall()
            try:
                report = analyzer.analyze_workload_db(arm.setup.workload_db)
                recommendations = len(report.recommendations)
            except Exception as error:  # noqa: BLE001 - counted, reported
                self.failures.append(
                    f"analyzer: {type(error).__name__}: {error}")
            seconds.append((_wall() - t0) / 1e9)
            self.pacer.tick()
            self.pacer.tick()
            gc.enable()
        slowdown = self.pacer.since(mark)
        return statistics.median(seconds) / slowdown, recommendations, \
            slowdown

    # -- outcome -----------------------------------------------------------

    def outcome(self) -> dict[str, Any]:
        failures = self.failures + [failure for arm in self.arms.values()
                                    for failure in arm.failures]
        attempted = self.checks + sum(arm.attempted
                                      for arm in self.arms.values())
        return {
            "workload": self.workload.name,
            "seed": self.workload.seed,
            "rounds": self.rounds,
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures[:20],
            "result_digest": self.result_digest,
            "workload_fingerprint": {
                "stream_sha256": self.workload.stream_sha256,
                "table_rows": self.table_rows,
            },
        }


# -- the untraced run: end-to-end metrics ----------------------------------

def chunk_metrics(bench: Bench) -> dict[str, tuple[float, int]]:
    """``name -> (value, samples)`` for the chunk-level numbers both
    kinds of run report: medians over the measured rounds."""
    arms = bench.arms
    chunk = bench.workload.size.chunk
    base = arms["original"].wall_ns
    rounds = len(base)
    out: dict[str, tuple[float, int]] = {}
    for arm in arms.values():
        out[f"stmts_per_s.{arm.name}"] = (
            chunk / (statistics.median(arm.wall_ns) / 1e9), rounds)
        out[f"cpu_us_per_stmt.{arm.name}"] = (
            statistics.median(arm.cpu_ns) / chunk / 1e3, rounds)
    for name in ("monitoring", "daemon"):
        out[f"rel_time.{name}"] = (statistics.median(
            wall / reference
            for wall, reference in zip(arms[name].wall_ns, base)), rounds)
    return out


def end_to_end(bench: Bench) -> dict[str, tuple[float, int]]:
    out = {name: value for name, value in chunk_metrics(bench).items()
           if not name.startswith("cpu_us")}
    # A percentile is taken per window and then the median over all
    # windows: a burst of the box lands in a few windows' tails, not in
    # the metric.  A window is a turn, or a chunk where turns are too
    # short to have a tail.
    by_turn = bench.workload.size.slice >= MIN_PERCENTILE_WINDOW
    for name in ("original", "monitoring"):
        windows = [
            sorted(window) for chunk in bench.arms[name].latencies
            for window in (chunk if by_turn
                           else [[x for turn in chunk for x in turn]])]
        samples = sum(len(window) for window in windows)
        for label, fraction in (("p50", 0.50), ("p95", 0.95)):
            out[f"{label}_us.{name}"] = (statistics.median(
                percentile(window, fraction) for window in windows) / 1e3,
                samples)
    daemon = bench.arms["daemon"]
    out["daemon_rows_per_s"] = (statistics.median(
        rows / (busy / 1e9)
        for rows, busy in zip(daemon.collected, daemon.daemon_ns)),
        daemon.flushed)
    seconds, _recommendations, _slowdown = \
        bench.analyzer_scans(ANALYZER_SCANS)
    out["analyzer_scan_s"] = (seconds, ANALYZER_SCANS)
    out["wl_bytes_per_stmt"] = (
        daemon.setup.workload_db.total_bytes / daemon.issued, daemon.issued)
    out["setup_s"] = (bench.setup_s, 1)
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return out


# -- the traced run: per-layer metrics -------------------------------------

def _ring_rows(monitor: Any) -> int | None:
    """Rows ever inserted into the monitor's rings (the statistics ring
    is left out: it fills by the clock, not by the statement)."""
    total = read(monitor, "workload.total_appended")
    for ring in KEYED_RINGS:
        found = resolve(monitor, ring)
        evicted = read(monitor, f"{ring}.evicted")
        if total is None or found is None or evicted is None:
            return None
        total += len(found[2]) + evicted
    return total


def _counters(arm: Arm) -> dict[str, Any]:
    setup = arm.setup
    row_count = resolve(setup.workload_db, "row_count") \
        if setup.workload_db is not None else None
    pool = read(arm.database, "pool.stats")
    disk = read(arm.database, "disk.counters")
    locks = read(setup.engine, "lock_manager.statistics")
    return {
        "pool.hits": getattr(pool, "hits", None),
        "pool.misses": getattr(pool, "misses", None),
        "pool.evictions": getattr(pool, "evictions", None),
        "pool.writebacks": getattr(pool, "dirty_writebacks", None),
        "disk.reads": getattr(disk, "reads", None),
        "disk.writes": getattr(disk, "writes", None),
        "lock.requests": getattr(locks, "total_requests", None),
        "lock.waits": getattr(locks, "total_waits", None),
        "plan.hits": read(arm.session, "plan_cache_hits"),
        "plan.misses": read(arm.session, "plan_cache_misses"),
        "stmts.evicted": read(setup.monitor, "statements.evicted"),
        "ring.rows": _ring_rows(setup.monitor),
        "sensor.time_s": read(setup.monitor, "sensor_time_s"),
        "sensor.calls": read(setup.monitor, "sensor_calls"),
        "db.bytes": read(setup.workload_db, "total_bytes"),
        "db.rows": read(setup.workload_db, "total_rows"),
        "db.clock_rows": row_count[2]("wl_statistics") if row_count else None,
        "issued": arm.issued,
        "collected": sum(arm.collected),
        "flushed": arm.flushed,
        "flush_ns": arm.flush_ns,
    }


def _delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    return {key: None if before[key] is None or after[key] is None
            else after[key] - before[key] for key in before}


def _sum(left: Any, right: Any) -> Any:
    return None if left is None or right is None else left + right


def _ratio(numerator: Any, denominator: Any) -> float | None:
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def per_layer(bench: Bench, untraced_rounds: int, traced_chunks: int,
              trace_path: Path | None = None,
              ) -> tuple[dict[str, tuple[float | None, int]], list[str]]:
    """Untraced rounds on all three arms, then ``traced_chunks`` on the
    Daemon setup (it contains every layer) under the timing shims."""
    pacer = bench.pacer
    monitoring = bench.arms["monitoring"]
    before = _counters(monitoring)
    bench.measure(untraced_rounds)
    sensors = _delta(before, _counters(monitoring))
    out: dict[str, tuple[float | None, int]] = {
        name: value for name, value in chunk_metrics(bench).items()
        if name.startswith("cpu_us")}
    turns = 3 * untraced_rounds \
        * -(-bench.workload.size.chunk // bench.workload.size.slice)
    out["preempted_slices"] = (
        sum(arm.preempted for arm in bench.arms.values()), turns)
    # The program's own clock reads are raw; bring them to reference
    # speed with the slowdown of the rounds they were taken in.
    out["core.monitor.self_reported_us"] = (
        _ratio(sensors["sensor.time_s"],
               sensors["issued"] / 1e6 * pacer.since(0)),
        sensors["issued"])
    out["core.monitor.calls_per_stmt"] = (
        _ratio(sensors["sensor.calls"], sensors["issued"]),
        sensors["issued"])

    arm = bench.arms["daemon"]
    setup = arm.setup
    size = bench.workload.size
    chunk = size.chunk
    mark = pacer.mark
    pacer.tick()
    shim_inside, shim_around = shim_overhead()
    pacer.tick()
    shim_inside /= pacer.since(mark)
    shim_around /= pacer.since(mark)
    tracer = Tracer()
    hooks = install_hooks({"session": arm.session, "engine": setup.engine,
                           "monitor": setup.monitor,
                           "workload_db": setup.workload_db}, tracer)
    # The IMA selects go through a session of their own, so that the
    # bench session's counters hold the workload's statements only.
    ima_session = setup.engine.connect(DATABASE)
    tally = {"tuples": 0, "returned": 0}
    bounds = []
    ima_rows = 0
    ima_ns = 0.0
    untraced_stmt_ns = list(arm.stmt_ns)
    traced_mark = pacer.mark
    polls_before = len(arm.poll_ns)
    before = _counters(arm)
    try:
        for index in range(traced_chunks):
            statements = bench.workload.chunks[arm.chunks_done + 1]
            gc.collect()
            gc.disable()
            mark = pacer.mark
            pacer.tick()
            low = len(tracer.start)
            for start in range(0, len(statements), size.slice):
                arm.traced_slice(statements[start:start + size.slice],
                                 tracer, tally)
                pacer.tick()
            arm.database.pool.flush_all()
            high = len(tracer.start)
            ima_raw = 0
            for query in IMA_SCANS:
                try:
                    with tracer.span("core.ima.scan") as scan:
                        ima_rows += _consume(ima_session.execute(query))
                    ima_raw += scan.duration_ns
                except Exception as error:  # noqa: BLE001 - counted
                    arm.fail(f"{query!r}: {type(error).__name__}: {error}")
            arm.attempted += len(IMA_SCANS)
            arm.daemon_step(
                arm.flush_due(last=index == traced_chunks - 1), pacer, tracer)
            slowdown = pacer.since(mark)
            ima_ns += ima_raw / slowdown
            bounds.append((low, high, slowdown))
            arm.close_chunk(slowdown)
            arm.chunks_done += 1
            gc.enable()
        bench.finish()
        window = _delta(before, _counters(arm))
        view_from_workload_db = resolve(
            _import("repro.core.analyzer.workload_view"),
            "view_from_workload_db")
        if view_from_workload_db is None:
            hooks.missing.append("core.analyzer.view_build")
        else:
            with tracer.span("core.analyzer.view_build"):
                view_from_workload_db[2](setup.workload_db)
        _seconds, recommendations, analyzer_slowdown = \
            bench.analyzer_scans(1)
    finally:
        hooks.restore()

    spans = tracer.spans()
    own = self_times(spans)
    if trace_path is not None:
        trace_path.write_text(json.dumps({
            "workload": bench.workload.name, "seed": bench.workload.seed,
            "fields": ["name", "start_ns", "end_ns", "parent", "stmt_id"],
            "spans": spans}))
    missing = set(hooks.missing)

    # Per traced chunk: inclusive and self nanoseconds (at reference
    # speed, less what the shims themselves cost) of every span name,
    # over spans of bench statements.
    children, descendants = relatives(spans)
    inclusive: list[dict[str, float]] = []
    selfs: list[dict[str, float]] = []
    calls: dict[str, int] = {}
    for low, high, slowdown in bounds:
        incl: dict[str, float] = {}
        self_: dict[str, float] = {}
        for index in range(low, high):
            name, start, end, _parent, stmt = spans[index]
            if stmt < 0:
                continue
            incl[name] = incl.get(name, 0) + (end - start) / slowdown \
                - shim_inside \
                - descendants[index] * (shim_inside + shim_around)
            self_[name] = self_.get(name, 0) + own[index] / slowdown \
                - shim_inside - children[index] * shim_around
            calls[name] = calls.get(name, 0) + 1
        inclusive.append(incl)
        selfs.append(self_)
    totals: dict[str, int] = {}
    counts: dict[str, int] = {}
    for name, start, end, _parent, _stmt in spans:
        totals[name] = totals.get(name, 0) + end - start
        counts[name] = counts.get(name, 0) + 1
    statements = traced_chunks * chunk

    def per_stmt(names: tuple[str, ...],
                 table: list[dict[str, float]]) -> float | None:
        """Median over traced chunks of microseconds per statement."""
        if missing.intersection(names):
            return None
        return statistics.median(
            sum(row.get(name, 0) for name in names) / chunk / 1e3
            for row in table)

    def layer(metric: str, value: float | None, samples: int) -> None:
        out[metric] = (value, samples)

    layer("sql.lex_us", per_stmt(("sql.lex",), inclusive), statements)
    layer("sql.parse_us", per_stmt(("sql.parse",), selfs), statements)
    layer("sql.parse_calls_per_stmt",
          None if "sql.parse" in missing
          else calls.get("sql.parse", 0) / statements, statements)
    layer("optimizer.optimize_us",
          per_stmt(("optimizer.optimize",), inclusive), statements)
    layer("optimizer.calls_per_stmt",
          None if "optimizer.optimize" in missing
          else calls.get("optimizer.optimize", 0) / statements, statements)
    layer("engine.locks.us",
          per_stmt(("engine.locks.acquire", "engine.locks.release"),
                   inclusive), statements)
    layer("execution.execute_us",
          per_stmt(("execution.execute",), inclusive), statements)
    sensor_names = tuple(f"core.sensors.{call}" for call in (
        "statement_start", "parse_complete", "optimize_complete",
        "execute_complete", "sample_statistics"))
    for name in sensor_names:
        layer(f"{name}_us", per_stmt((name,), inclusive), statements)
    layer("core.sensors.total_us", per_stmt(sensor_names, inclusive),
          statements)
    layer("core.ring_buffer.append_us",
          per_stmt(("core.ring_buffer.append",), inclusive), statements)
    # What the statement span does not hand to a hooked layer: plan
    # cache, fault seam, transaction plumbing, DML executed in place.
    layer("engine.session.self_us", per_stmt(("stmt",), selfs), statements)
    traced_us = per_stmt(("stmt",), inclusive)
    attributed = [out[name][0] for name in (
        "sql.lex_us", "sql.parse_us", "optimizer.optimize_us",
        "engine.locks.us", "execution.execute_us", "core.sensors.total_us",
        "engine.session.self_us")]
    layer("trace.attributed_ratio",
          sum(value or 0.0 for value in attributed) / traced_us, statements)
    # Overhead is what the shims cost before that correction.
    raw_us = statistics.median(
        sum(spans[index][2] - spans[index][1]
            for index in range(low, high) if spans[index][0] == "stmt")
        / slowdown / chunk / 1e3 for low, high, slowdown in bounds)
    untraced_us = statistics.median(untraced_stmt_ns) / chunk / 1e3
    layer("trace.overhead_ratio", raw_us / untraced_us, statements)

    issued = window["issued"]
    lookups = _sum(window["plan.hits"], window["plan.misses"])
    layer("engine.session.plan_cache_hit_ratio",
          _ratio(window["plan.hits"], lookups), lookups or 0)
    layer("engine.locks.requests_per_stmt",
          _ratio(window["lock.requests"], issued), issued)
    layer("engine.locks.waits", window["lock.waits"], issued)
    layer("execution.tuples_per_row",
          _ratio(tally["tuples"], tally["returned"]), tally["returned"])
    reads = _sum(window["pool.hits"], window["pool.misses"])
    layer("storage.pool_hit_ratio", _ratio(window["pool.hits"], reads),
          reads or 0)
    layer("storage.logical_reads_per_stmt", _ratio(reads, issued), issued)
    layer("storage.physical_reads_per_stmt",
          _ratio(window["disk.reads"], issued), issued)
    layer("storage.evictions_per_stmt",
          _ratio(window["pool.evictions"], issued), issued)
    layer("storage.writebacks_per_stmt",
          _ratio(window["pool.writebacks"], issued), issued)
    layer("storage.disk_writes_per_stmt",
          _ratio(window["disk.writes"], issued), issued)
    layer("core.monitor.statement_evictions_per_stmt",
          _ratio(window["stmts.evicted"], issued), issued)
    layer("core.monitor.issued_minus_admitted",
          bench.issued_minus_admitted, issued)
    layer("core.ring_buffer.rows_per_stmt",
          _ratio(window["ring.rows"], issued), issued)
    layer("core.ring_buffer.dropped", bench.ring_dropped, issued)
    layer("core.ima.scan_us_per_row", _ratio(ima_ns / 1e3, ima_rows),
          ima_rows)

    polls = arm.poll_ns[polls_before:]
    layer("core.daemon.poll_ms.p50", statistics.median(polls) / 1e6,
          len(polls))
    layer("core.daemon.poll_us_per_row",
          _ratio(sum(polls) / 1e3, window["collected"]),
          window["collected"])
    layer("core.daemon.flush_us_per_row",
          _ratio(window["flush_ns"] / 1e3, window["flushed"]),
          window["flushed"])
    # wl_statistics fills by the clock (one sample a second), every
    # other table by the statement: leave it out and the count repeats.
    layer("core.daemon.rows_per_stmt",
          _ratio(_sum(window["collected"], -(window["db.clock_rows"] or 0)),
                 issued), issued)
    layer("core.daemon.pending_dropped", bench.pending_dropped, len(polls))
    layer("core.workload_db.append_us_per_row",
          None if "core.workload_db.append" in missing
          else _ratio(totals.get("core.workload_db.append", 0) / 1e3
                      / pacer.since(traced_mark), window["flushed"]),
          window["flushed"])
    layer("core.workload_db.bytes_per_row",
          _ratio(window["db.bytes"], window["db.rows"]),
          window["db.rows"] or 0)
    layer("core.overload.degraded_polls", arm.degraded_polls,
          len(arm.poll_ns))

    for metric, hook in (
            ("core.analyzer.view_build_s", "core.analyzer.view_build"),
            ("core.analyzer.rules_s", "core.analyzer.rules"),
            ("core.analyzer.index_advisor_s", "core.analyzer.index_advisor")):
        layer(metric, None if hook in missing
              else totals.get(hook, 0) / 1e9 / analyzer_slowdown,
              counts.get(hook, 0))
    layer("core.analyzer.whatif_calls",
          None if "core.analyzer.whatif" in missing
          else counts.get("core.analyzer.whatif", 0), 1)
    layer("core.analyzer.recommendations", recommendations, 1)
    layer("import_s", bench.import_s, 1)
    layer("workloads.load_s", bench.load_s, 1)
    layer("warmup_s", bench.warmup_s, 1)
    layer("machine.slowdown_p50", statistics.median(pacer.slowdowns),
          len(pacer.slowdowns))
    layer("machine.slowdown_max", max(pacer.slowdowns),
          len(pacer.slowdowns))
    return out, sorted(missing)


def _import(name: str) -> Any:
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


# -- entry points ----------------------------------------------------------

def trace_split(rounds: int) -> tuple[int, int]:
    """A traced run spends about half a run untraced on all three
    setups and traces a third of a run's chunks on one."""
    return max(2, rounds // 2), max(POLLS_PER_FLUSH, rounds // 3)


def run(name: str, seed: int, seconds: float = 20.0, trace: bool = False,
        rounds: int | None = None, size: workloads.Size | None = None,
        spawned_at_ns: int | None = None, setup_only: bool = False,
        trace_path: Path | None = None) -> dict[str, Any]:
    """One run of one workload; the result as a JSON-shaped dict.

    ``rounds`` and ``size`` exist for the self-tests; the command line
    sets the amount of work through ``--seconds`` alone.
    """
    if rounds is None:
        rounds = workloads.rounds_for(name, seconds)
    untraced, traced = trace_split(rounds) if trace else (rounds, 0)
    bench = Bench(name, seed, untraced + traced, size, spawned_at_ns)
    missing: list[str] = []
    if setup_only:
        measured: dict[str, tuple[Any, int]] = {
            "setup_s": (bench.setup_s, 1)}
        units = definition.metrics("end_to_end")
    elif trace:
        measured, missing = per_layer(bench, untraced, traced, trace_path)
        units = definition.metrics("per_layer")
    else:
        bench.measure(rounds)
        bench.finish()
        measured = end_to_end(bench)
        units = definition.metrics("end_to_end")
    result = bench.outcome()
    result.update({
        "seconds": seconds,
        "trace": int(trace),
        "missing_hooks": missing,
        "metrics": {
            metric: {"value": value, "unit": units[metric]["unit"],
                     "samples": samples}
            for metric, (value, samples) in measured.items()},
    })
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at-ns", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 spawned_at_ns=args.spawned_at_ns,
                 setup_only=args.setup_only, trace_path=args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
