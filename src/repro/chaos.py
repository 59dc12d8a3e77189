"""Chaos-soak harness: seeded crash/recovery torture for the tuning loop.

The storage daemon's recovery tests prove single scenarios; this module
proves the *composition*: a workload keeps running while faults are
injected at randomized seams (``ddl.apply``, ``journal.write``,
``analyzer.scan``, ``session.execute``, ``workload_db.append``) and the
autonomous tuner is repeatedly "killed" — abandoned mid-state and
rebuilt from what the workload database persisted, exactly like a
process restart.  After every round the harness checks that recovery
replay is idempotent and that the journal and persisted-history rules
of :mod:`repro.invariants` hold (plus exact conservation in storm
mode): no half-applied cycle, no change applied twice, schema and
journal agree, and the workload history stays exactly-once and
ordered.

Everything is deterministic per seed: one :class:`random.Random` drives
the workload mix, the fault schedule and the crash points, and time is
a :class:`~repro.clock.VirtualClock`.  CI runs several seeds
(``repro chaos --seed N``); a failure reproduces locally from the seed
alone.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
from dataclasses import dataclass, field

from repro import faultsim
from repro.clock import VirtualClock
from repro.config import (
    DaemonConfig,
    EngineConfig,
    MonitorConfig,
    OverloadConfig,
)
from repro.core.autopilot import AutonomousTuner, TuningPolicy
from repro.core.daemon import StorageDaemon
from repro.core.overload import LEVEL_NAMES, SAMPLED
from repro.core.tuning_journal import TuningJournal
from repro.errors import ReproError
from repro.invariants import (
    conservation_violations,
    history_violations,
    journal_violations,
    peak_level,
    settled,
    storm_violations,
)
from repro.setups import Setup, daemon_setup
from repro.workloads import NrefScale, complex_query_set, load_nref


class ChaosInvariantError(ReproError):
    """A soak invariant did not hold — a real bug, never flake."""


CHAOS_FAULT_POINTS = (
    "ddl.apply", "journal.write", "analyzer.scan",
    "session.execute", "workload_db.append",
)


@dataclass(frozen=True)
class SoakConfig:
    """One soak run; everything derives from ``seed``."""

    seed: int = 1
    rounds: int = 12
    proteins: int = 300
    queries_per_round: int = 5
    fault_probability: float = 0.6
    """Chance a round arms a random fault before the tuning cycle."""
    crash_probability: float = 0.5
    """Chance a round kills the tuner after its cycle (the abandoned
    object's memory dies; the next round rebuilds from the journal)."""
    quarantine_cooldown_s: float = 240.0
    round_interval_s: float = 120.0
    """Virtual seconds between rounds (lets cooldowns expire mid-soak)."""

    storm: bool = False
    """Overload storm: tiny workload rings, a fast degradation ladder
    and per-round ring floods (``monitor.ring_flood``) on top of the
    regular fault schedule.  Every round then asserts the conservation
    invariant exactly, and the soak ends with a recovery phase that
    must return the monitor to DETAILED."""


@dataclass
class SoakReport:
    """What one seeded soak run did and survived."""

    seed: int
    rounds: int = 0
    cycles_failed: int = 0
    faults_armed: list[str] = field(default_factory=list)
    crashes: int = 0
    recoveries: int = 0
    """Interrupted journal entries resolved across all rounds."""
    applied: int = 0
    quarantined: int = 0
    invariant_sweeps: int = 0
    conservation_sweeps: int = 0
    """Per-round exact conservation checks passed (storm mode)."""
    storm_poll_failures: int = 0
    """Daemon polls the storm faults made fail."""
    peak_level: int = 0
    """Deepest ladder level the monitor reached (storm mode)."""
    health: dict | None = field(default=None, compare=False)
    """Final engine health snapshot (``--health-report`` artifact).

    Excluded from equality: it carries real-time signals (poll-latency
    EWMAs measured with ``perf_counter``) that vary run to run even
    under identical seeds, while the soak *outcome* stays deterministic.
    """

    def describe(self) -> str:
        base = (f"chaos soak (seed {self.seed}): {self.rounds} rounds, "
                f"{self.cycles_failed} failed cycles, "
                f"{len(self.faults_armed)} faults armed, "
                f"{self.crashes} crashes, "
                f"{self.recoveries} interrupted changes recovered, "
                f"{self.applied} changes applied, "
                f"{self.quarantined} quarantine decisions, "
                f"{self.invariant_sweeps} invariant sweeps — all held")
        if self.conservation_sweeps:
            base += (f" — storm: peak {LEVEL_NAMES[self.peak_level]}, "
                     f"{self.storm_poll_failures} failed polls, "
                     f"{self.conservation_sweeps} exact conservation "
                     "sweeps, recovered to DETAILED")
        return base


def _enforce(violations: list[str], seed: int) -> None:
    if violations:
        raise ChaosInvariantError(f"[seed {seed}] " + "; ".join(violations))


def check_invariants(setup: Setup, journal: TuningJournal,
                     seed: int) -> None:
    """Assert every soak invariant; raises :class:`ChaosInvariantError`.

    Callers must run with all faults disarmed and recovery already
    replayed — these are the *steady-state* guarantees.
    """
    _enforce(journal_violations(journal, setup.engine.database("nref"))
             + history_violations(setup), seed)


def _fresh_tuner(setup: Setup, policy: TuningPolicy,
                 ) -> tuple[AutonomousTuner, TuningJournal]:
    """A tuner as a restarted process would build it: nothing carried
    over in memory, journal (and with it the breakers) reloaded from
    persisted rows."""
    workload_db = setup.workload_db
    assert workload_db is not None
    journal = TuningJournal(workload_db.database, setup.engine.clock)
    tuner = AutonomousTuner(setup.engine, "nref", workload_db,
                            daemon=setup.daemon, policy=policy,
                            journal=journal)
    return tuner, journal


def _fault_for_round(rng: random.Random, round_no: int,
                     config: SoakConfig) -> str | None:
    """Pick this round's fault spec (or None).

    Round 0 always faults the first journal *mark* (``after=1`` skips
    the intent write), leaving a dangling ``intent`` entry with the
    change in the schema — the exact half-applied window the undo SQL
    exists for — so every seed exercises rollback recovery.  Later
    rounds draw from a schedule weighted toward the crash-window seams
    (``journal.write``, ``ddl.apply``); ``ddl.apply`` sometimes fails
    *every* change in the cycle, which builds the consecutive-failure
    streaks the circuit breakers quarantine on.
    """
    if round_no == 0:
        return "journal.write:once,after=1"
    if rng.random() >= config.fault_probability:
        return None
    point = rng.choices(CHAOS_FAULT_POINTS,
                        weights=(30, 30, 10, 15, 15))[0]
    if point == "ddl.apply" and rng.random() < 0.5:
        return "ddl.apply:every-n,n=1"  # the whole cycle's changes fail
    return f"{point}:once,after={rng.randint(0, 4)}"


def _storm_fault_for_round(rng: random.Random, round_no: int) -> str | None:
    """Pick this round's storm fault.

    Rounds 0–2 always flood: ``monitor.ring_flood`` forces the
    pressure to 1.0 on every observation, and with dwell-1 escalation
    each of a round's polls (the tuner's and the storm's) degrades one
    rung, so every seed reaches SHED.  Later rounds draw randomly, so
    floods overlap the regular crash/recovery chaos — and the ladder's
    recovery — differently per seed.
    """
    if round_no <= 2:
        return "monitor.ring_flood:every-n=1"
    if rng.random() < 0.5:
        return rng.choice(("monitor.ring_flood:once",
                           "monitor.ring_flood:every-n=1"))
    return None


def _storm_poll(daemon: StorageDaemon) -> BaseException | None:
    """One daemon poll, returning the failure instead of raising —
    the regular fault schedule may fail it."""
    try:
        daemon.poll_once()
    except (ReproError, OSError) as error:
        return error
    return None


def _storm_recovery(setup: Setup, report: SoakReport,
                    config: SoakConfig) -> None:
    """Post-storm quiesce: with all faults disarmed, advancing time and
    polling must walk the monitor back to DETAILED; then the storm rule
    must hold."""
    daemon = setup.daemon
    assert daemon is not None
    clock = setup.engine.clock
    assert isinstance(clock, VirtualClock)
    faultsim.reset()
    # 3 rungs x recover_dwell 2 fit comfortably in 40 polls; failing
    # to converge by then is a stuck ladder, not slowness.
    for _ in range(40):
        clock.advance(60.0)
        if _storm_poll(daemon) is None and settled(setup):
            break
    report.peak_level = peak_level(setup)
    _enforce(storm_violations(setup, min_peak=SAMPLED), config.seed)


def run_soak(config: SoakConfig) -> SoakReport:
    """One seeded soak; returns the report or raises on a violation."""
    faultsim.reset()
    rng = random.Random(config.seed)
    clock = VirtualClock(1_000_000.0)
    scale = NrefScale(proteins=config.proteins)
    if config.storm:
        # Tiny rings + dwell-1 escalation make the ladder move within a
        # 12-round soak.
        engine_config = EngineConfig(
            monitor=MonitorConfig(
                workload_buffer_size=128,
                overload=OverloadConfig(sample_k=4, escalate_dwell=1,
                                        recover_dwell=2)),
            daemon=DaemonConfig(flush_every_polls=1))
    else:
        engine_config = EngineConfig()
    setup = daemon_setup("nref", config=engine_config, clock=clock)
    load_nref(setup.engine.database("nref"), scale, main_pages=2)
    queries = complex_query_set(scale, count=30, seed=config.seed)
    policy = TuningPolicy(
        max_changes_per_cycle=4,
        quarantine_cooldown_s=config.quarantine_cooldown_s,
    )
    report = SoakReport(seed=config.seed)
    tuner, journal = _fresh_tuner(setup, policy)
    session = setup.engine.connect("nref")
    try:
        for _round in range(config.rounds):
            clock.advance(config.round_interval_s)
            for _ in range(config.queries_per_round):
                session.execute(rng.choice(queries))

            spec = _fault_for_round(rng, _round, config)
            if spec is not None:
                faultsim.arm_from_spec(spec, clock=clock)
                report.faults_armed.append(spec)
            if config.storm:
                storm_spec = _storm_fault_for_round(rng, _round)
                if storm_spec is not None:
                    faultsim.arm_from_spec(storm_spec, clock=clock)
                    report.faults_armed.append(storm_spec)
            try:
                cycle = tuner.run_cycle()
            except (ReproError, OSError):
                report.cycles_failed += 1
            else:
                report.recoveries += len(cycle.recovered)
                report.applied += cycle.applied_count
                report.quarantined += len(cycle.quarantined)
            if config.storm and setup.daemon is not None:
                # Poll with the storm fault still armed: the flood
                # reaches the degradation ladder through note_poll.
                if _storm_poll(setup.daemon) is not None:
                    report.storm_poll_failures += 1
            faultsim.reset()

            if rng.random() < config.crash_probability:
                # Kill the tuner: its history and journal mirror die
                # here; only persisted state survives.
                tuner, journal = _fresh_tuner(setup, policy)
                report.crashes += 1

            report.recoveries += len(tuner.recover())
            if tuner.recover():
                _enforce(["recovery replay was not idempotent"], config.seed)
            check_invariants(setup, journal, config.seed)
            report.invariant_sweeps += 1
            if config.storm:
                # The soak is single-threaded between rounds, so the
                # conservation ledger must balance bit-exactly here —
                # under every ladder state the round put the monitor in.
                _enforce(conservation_violations(setup.monitor), config.seed)
                report.conservation_sweeps += 1
            report.rounds += 1
        if config.storm:
            _storm_recovery(setup, report, config)
        report.health = setup.health()
    finally:
        session.close()
        faultsim.reset()
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="seeded crash/recovery soak for the autonomous "
                    "tuning loop (exit 0 only if every invariant held)")
    parser.add_argument("--seed", action="append", type=int, default=[],
                        metavar="N",
                        help="soak seed (repeatable; default: 1 2 3)")
    parser.add_argument("--rounds", type=int, default=12,
                        help="rounds per seed (default: 12)")
    parser.add_argument("--proteins", type=int, default=300,
                        help="NREF scale (default: 300)")
    parser.add_argument("--storm", action="store_true",
                        help="overload storm: tiny rings, fast ladder "
                             "and ring floods on top of the regular "
                             "chaos; every round asserts exact "
                             "conservation and the soak must end with "
                             "the monitor back at DETAILED")
    parser.add_argument("--health-report", type=pathlib.Path,
                        default=None, metavar="PATH",
                        help="write each seed's final engine health "
                             "snapshot (ladder, daemon, conservation "
                             "ledger) as JSON to PATH")
    arguments = parser.parse_args(argv)
    seeds = arguments.seed or [1, 2, 3]
    healths: dict[str, dict | None] = {}
    for seed in seeds:
        config = SoakConfig(seed=seed, rounds=arguments.rounds,
                            proteins=arguments.proteins,
                            storm=arguments.storm)
        try:
            report = run_soak(config)
        except ChaosInvariantError as error:
            print(f"INVARIANT VIOLATION: {error}", file=sys.stderr)
            return 1
        healths[f"seed-{seed}"] = report.health
        print(report.describe())
    if arguments.health_report is not None:
        arguments.health_report.write_text(
            json.dumps(healths, indent=2, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
