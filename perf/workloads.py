"""The benchmark's own statement generators.

The program under test receives statement *text* and nothing else: the
templates below were copied from ``repro.workloads.queries`` when the
benchmark was defined and are owned by the benchmark from then on, so a
later change to the program's example workloads cannot move a number.

Every stream is a pure function of ``(name, seed, rounds)``.  A stream
is cut into chunks; chunk 0 warms the caches, the equal chunks
``1..rounds`` are measured, and the results of chunks 0 and 1 make the
result digest.  Parameter
ranges are kept narrow on purpose: another seed must give another
stream (other ids, other literals, another order) of the *same cost*,
otherwise the spread between seeds would be the workload's and not the
program's.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Size:
    """How much of a workload one run executes."""

    proteins: int
    """``NrefScale.proteins`` of the loaded database."""
    chunk: int
    """Statements per chunk: the unit between two daemon polls."""
    slice: int
    """Statements a setup runs before the next setup takes its turn
    (about 20 ms; whole transactions for ``mixed_dml``)."""
    warmup: int
    """Statements of chunk 0, the warm-up chunk: enough to run every
    code path and every repeating text once, short because set-up is
    measured three times a run."""
    rounds_per_second: float
    """Measured rounds (one chunk on each of the three setups) that fit
    one second on the 2-core reference box at the commit that defined
    the benchmark.  ``--seconds`` selects the round count through this
    constant and nothing else, so every count in a run repeats exactly;
    the wall time follows the program's speed."""
    min_rounds: int = 4


SIZES = {
    "trivial_flood": Size(proteins=500, chunk=1000, slice=100, warmup=300,
                          rounds_per_second=1.0),
    "distinct_joins": Size(proteins=250, chunk=192, slice=24, warmup=48,
                           rounds_per_second=1.0),
    "complex_joins": Size(proteins=2700, chunk=50, slice=2, warmup=12,
                          rounds_per_second=0.42, min_rounds=3),
    "mixed_dml": Size(proteins=500, chunk=240, slice=40, warmup=80,
                      rounds_per_second=1.0),
}


WORKLOAD_NAMES = tuple(SIZES)


def rounds_for(name: str, seconds: float) -> int:
    size = SIZES[name]
    return max(size.min_rounds, round(size.rounds_per_second * seconds))


@dataclass
class Workload:
    """One generated statement stream plus what it must leave behind."""

    name: str
    seed: int
    size: Size
    prepare: list[str]
    """Run once per setup before the warm-up chunk (schema + preload)."""
    chunks: list[list[str]]
    """``chunks[0]`` is the (shorter) warm-up chunk, ``chunks[1:]`` are
    measured."""
    final_checks: list[list[tuple[str, list[tuple]]]] = \
        field(default_factory=list)
    """``final_checks[c]``: ``(query, expected rows)`` pairs that must
    hold on a setup that has executed chunks ``0..c`` (the generator's
    own model of the data it modified)."""

    @property
    def stream_sha256(self) -> str:
        digest = hashlib.sha256()
        for text in self.prepare:
            digest.update(text.encode())
            digest.update(b"\n")
        for chunk in self.chunks:
            digest.update(b"--chunk--\n")
            for text in chunk:
                digest.update(text.encode())
                digest.update(b"\n")
        return digest.hexdigest()


def nref_id(i: int) -> str:
    return f"NF{i:08d}"


def _lengths(size: Size, rounds: int) -> list[int]:
    """Statements per chunk: the warm-up chunk, then the measured ones."""
    return [size.warmup] + [size.chunk] * rounds


def build(name: str, seed: int, rounds: int,
          size: Size | None = None) -> Workload:
    """Generate chunks ``0..rounds`` of workload ``name``."""
    size = size or SIZES[name]
    # One independent generator per workload, so adding a workload
    # never shifts another one's stream.
    rng = random.Random(f"{name}:{seed}")
    generator = _GENERATORS[name]
    return generator(rng, seed, rounds, size)


# -- trivial_flood ---------------------------------------------------------

def _trivial_flood(rng: random.Random, seed: int, rounds: int,
                   size: Size) -> Workload:
    """The paper's 1m test: one point-query text over a rotation of 100
    ids.  Every text is in the plan cache and in the monitor's
    statement ring after the warm-up chunk."""
    ids = [nref_id(i) for i in
           rng.sample(range(1, size.proteins + 1), min(100, size.proteins))]
    chunks = []
    position = 0
    for length in _lengths(size, rounds):
        chunk = []
        for _ in range(length):
            chunk.append("select p.nref_id from protein p "
                         f"where p.nref_id = '{ids[position % len(ids)]}'")
            position += 1
        chunks.append(chunk)
    return Workload("trivial_flood", seed, size, [], chunks)


# -- distinct_joins --------------------------------------------------------

DISTINCT_TEXTS = 4000
"""Pairwise-distinct texts before the stream repeats: more than the
256-entry plan cache and the 1000-entry statement ring together can
remember, so neither ever hits."""


def distinct_join_texts(rng: random.Random, proteins: int,
                        count: int = DISTINCT_TEXTS) -> list[str]:
    """``count`` pairwise-distinct texts of one 2-table join template:
    protein id x a second, always-true literal (``ordinal`` never
    exceeds the protein count, the literal always does)."""
    literals = -(-count // proteins)  # ceil
    pairs = [(i, k) for i in range(1, proteins + 1)
             for k in range(literals)]
    rng.shuffle(pairs)
    return [
        "select p.nref_id, s.sequence, s.ordinal from protein p "
        "join sequence s on p.nref_id = s.nref_id "
        f"where p.nref_id = '{nref_id(i)}' and s.ordinal < {100000 + k}"
        for i, k in pairs[:count]
    ]


def _distinct_joins(rng: random.Random, seed: int, rounds: int,
                    size: Size) -> Workload:
    """The paper's 50k test: every statement is new to the plan cache
    and to the monitor."""
    texts = distinct_join_texts(rng, size.proteins)
    chunks = []
    position = 0
    for length in _lengths(size, rounds):
        chunks.append([texts[(position + i) % len(texts)]
                       for i in range(length)])
        position += length
    return Workload("distinct_joins", seed, size, [], chunks)


# -- complex_joins ---------------------------------------------------------

_COMPLEX_TEMPLATES = (
    # 2-way joins (NREF2J-like)
    "select p.nref_id, s.sequence, s.ordinal from protein p "
    "join sequence s on p.nref_id = s.nref_id "
    "where p.length between {lo} and {hi}",

    "select o.organism_name, count(*) cnt from protein p "
    "join organism o on p.nref_id = o.nref_id "
    "where p.mol_weight > {weight} group by o.organism_name "
    "order by cnt desc",

    "select p.name, p.length from protein p "
    "join source src on p.source_id = src.source_id "
    "where src.source_name = '{source}' and p.length > {lo} "
    "order by p.length desc",

    "select t.lineage, count(*) cnt from organism o "
    "join taxonomy t on o.tax_id = t.tax_id "
    "where t.rank = '{rank}' group by t.lineage",

    "select n.nref_id, max(n.similarity) best from neighboring_seq n "
    "join protein p on n.nref_id = p.nref_id "
    "where p.tax_id = {tax} group by n.nref_id order by best desc",

    # 3-way joins (NREF3J-like)
    "select p.nref_id, o.organism_name, s.crc from protein p "
    "join organism o on p.nref_id = o.nref_id "
    "join sequence s on p.nref_id = s.nref_id "
    "where o.tax_id = {tax} and p.length > {lo}",

    "select t.rank, avg(p.mol_weight) avg_weight from protein p "
    "join organism o on p.nref_id = o.nref_id "
    "join taxonomy t on o.tax_id = t.tax_id "
    "where p.length between {lo} and {hi} group by t.rank",

    "select p.name, n.similarity from protein p "
    "join neighboring_seq n on p.nref_id = n.nref_id "
    "join source src on p.source_id = src.source_id "
    "where src.source_name = '{source}' and n.similarity > {sim} "
    "order by n.similarity desc limit 100",

    "select o.organism_name, count(distinct p.nref_id) proteins "
    "from organism o join protein p on o.nref_id = p.nref_id "
    "join sequence s on p.nref_id = s.nref_id "
    "where s.ordinal < {ordinal} group by o.organism_name "
    "order by proteins desc limit 20",

    # 4-way join
    "select t.lineage, src.source_name, count(*) cnt from protein p "
    "join organism o on p.nref_id = o.nref_id "
    "join taxonomy t on o.tax_id = t.tax_id "
    "join source src on p.source_id = src.source_id "
    "where p.mol_weight between {weight} and {weight2} "
    "group by t.lineage, src.source_name order by cnt desc limit 25",

    # scans with expensive predicates
    "select p.nref_id, p.name from protein p "
    "where p.name like '%kinase-{kinase}%' order by p.nref_id",

    "select count(*), avg(length), min(mol_weight), max(mol_weight) "
    "from protein where tax_id in ({tax}, {tax2}, {tax3})",
)

_SOURCES = ("PIR", "SwissProt", "TrEMBL", "GenPept")
_RANKS = ("species", "genus", "family", "order")
_TAXA = (2, 3, 4, 5)


def _complex_joins(rng: random.Random, seed: int, rounds: int,
                   size: Size) -> Workload:
    """The paper's 50 test: NREF2J/3J-style joins over a database that
    does not fit the buffer pool.  Each chunk is one pass over the same
    ``size.chunk`` statements.

    The template order is fixed (which tables a statement finds cached
    depends on what ran before it, and a physical read costs as much as
    a cheap statement), the categorical parameters rotate through one
    fixed set per template so every pass draws the same multiset, and
    the numeric ones move inside a few percent of selectivity."""
    templates = len(_COMPLEX_TEMPLATES)
    rotation = rng.randrange(4)
    statements = []
    for i in range(size.chunk):
        turn = i // templates + rotation
        lo = rng.randint(74, 77)
        weight = round(rng.uniform(7950, 8050), 1)
        statements.append(_COMPLEX_TEMPLATES[i % templates].format(
            lo=lo,
            hi=lo + rng.randint(20, 22),
            weight=weight,
            weight2=round(weight + rng.uniform(1480, 1520), 1),
            tax=_TAXA[turn % 4],
            tax2=rng.randint(20, 50),
            tax3=rng.randint(51, 100),
            source=_SOURCES[turn % 4],
            rank=_RANKS[turn % 4],
            sim=round(rng.uniform(0.960, 0.964), 4),
            ordinal=rng.randint(size.proteins // 3,
                                size.proteins // 3 + size.proteins // 100),
            kinase=rng.randint(0, 96),
        ))
    return Workload("complex_joins", seed, size, [],
                    [statements[:length] for length in _lengths(size, rounds)])


# -- mixed_dml -------------------------------------------------------------

PRELOAD_ROWS = 2000
_FIRST_ID = 1000  # ids stay four digits wide for ~700 chunks
_PRELOAD_BATCH = 100


def _mixed_dml(rng: random.Random, seed: int, rounds: int,
               size: Size) -> Workload:
    """Explicit ten-statement transactions over a B-Tree table with a
    secondary index: insert, two key updates, a key delete, three key
    selects, a protein point query.  One row in, one row out per
    transaction, so the table stays at its preloaded size.  Scores are
    multiples of 0.25, so the model's sums are exact in binary floating
    point whatever order the engine adds them in."""
    prepare = [
        "create table bench_events (id int not null, "
        "nref_id varchar(11), score float, note varchar(40), "
        "primary key (id))",
        "modify bench_events to btree",
        "create index bench_events_nref on bench_events (nref_id)",
    ]
    model: dict[int, float] = {}
    live: list[int] = []
    for start in range(0, PRELOAD_ROWS, _PRELOAD_BATCH):
        values = []
        for offset in range(start, start + _PRELOAD_BATCH):
            row_id = _FIRST_ID + offset
            score = rng.randrange(0, 400) * 0.25
            model[row_id] = score
            live.append(row_id)
            values.append(
                f"({row_id}, '{nref_id(offset % size.proteins + 1)}', "
                f"{score}, 'preload')")
        prepare.append("insert into bench_events values "
                       + ", ".join(values))
    next_id = _FIRST_ID + PRELOAD_ROWS
    touch = 0

    chunks: list[list[str]] = []
    final_checks = []
    for length in _lengths(size, rounds):
        chunk = []
        for _ in range(length // 10):
            protein = nref_id(rng.randint(1, size.proteins))
            chunk.append("begin")
            score = rng.randrange(0, 400) * 0.25
            chunk.append(f"insert into bench_events values ({next_id}, "
                         f"'{protein}', {score}, 'inserted')")
            model[next_id] = score
            live.append(next_id)
            next_id += 1
            target = rng.choice(live)
            delta = rng.randrange(1, 40) * 0.25
            chunk.append("update bench_events set score = score + "
                         f"{delta} where id = {target}")
            model[target] += delta
            touch += 1
            chunk.append(f"update bench_events set note = 't{touch:07d}' "
                         f"where id = {rng.choice(live)}")
            slot = rng.randrange(len(live))
            victim = live[slot]
            live[slot] = live[-1]
            live.pop()
            del model[victim]
            chunk.append(f"delete from bench_events where id = {victim}")
            for _ in range(3):
                chunk.append("select id, nref_id, score, note "
                             f"from bench_events where id = {rng.choice(live)}")
            chunk.append("select p.nref_id from protein p "
                         f"where p.nref_id = '{protein}'")
            chunk.append("commit")
        chunks.append(chunk)
        final_checks.append([(
            "select count(*), sum(score) from bench_events",
            [(len(model), sum(model.values()))],
        )])
    return Workload("mixed_dml", seed, size, prepare, chunks, final_checks)


_GENERATORS = {
    "trivial_flood": _trivial_flood,
    "distinct_joins": _distinct_joins,
    "complex_joins": _complex_joins,
    "mixed_dml": _mixed_dml,
}
