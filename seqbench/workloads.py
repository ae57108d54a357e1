"""The benchmark's three workloads, driven through the public database API.

Each workload turns a seed into its inputs and its op list, builds and
warms its starting database, runs one op at a time, keeps what its
correctness checks need, and checks the answers after the timed window.
All three use 500-point ECGs from ``ecg_corpus``.

* ``ecg_ingest`` — bulk loading, the way the paper's cardiology archive
  fills: breaking, fitting, peak finding, both symbol tries, the R-R
  inverted file, blob encoding and column growth block every op; the
  executor, result cache and cluster index do no work.
* ``ecg_read_mix`` — the seven representation-answered query families
  over a fixed archive, with a key space larger than the result cache
  so it evicts: planning, the DFA, predicate and profile grading, top-k
  pruning, materialization and cache churn, and no writes.
* ``ecg_stream`` — monitoring traffic: appends to live sequences through
  the online breaker on four shards, each followed by a standing query
  set that the cache revalidates from the mutation journal.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Iterator

import numpy as np

from repro.core.errors import EngineError
from repro.core.sequence import Sequence
from repro.query import SequenceDatabase, parse_query
from repro.segmentation import IncrementalRegressionBreaker, InterpolationBreaker
from repro.segmentation.base import Breaker, verify_tolerance
from repro.workloads import ecg_corpus

FAMILIES = ("pattern", "peaks", "interval", "steepness", "shape", "nearest", "count")

#: The paper's Fig. 9/10 ECG configuration.
ECG_EPSILON = 10.0
THETA = 5.0
POINTS = 500
#: Sequences inserted per ``insert_all`` call while building.
BUILD_CHUNK = 500


@dataclasses.dataclass(frozen=True)
class Op:
    """One call: ``kind`` is ``read`` or ``write`` (timed) or ``reset``
    (untimed upkeep that holds the database in its measured size range)."""

    kind: str
    family: str
    payload: Any
    #: Whether the correctness checks keep this op's answer.
    check: bool = False
    #: Whether this op completes a request: one ingest batch, one round
    #: of the seven families, or one monitoring tick.
    ends_round: bool = True
    #: Whether a run may stop after this op.  Runs end on whole cycles
    #: (an ingest epoch, a read round, a tick), so a run that stops
    #: early or late measures the same mix, not a different one.
    ends_cycle: bool = True


def _insert_chunked(db: SequenceDatabase, sequences: "list[Sequence]") -> None:
    for start in range(0, len(sequences), BUILD_CHUNK):
        db.insert_all(sequences[start : start + BUILD_CHUNK])


def _boundaries(db: SequenceDatabase, sequence_id: int) -> "list[tuple[int, int]]":
    return [
        (segment.start_index, segment.end_index)
        for segment in db.representation_of(sequence_id).segments
    ]


class Workload:
    """Seeded inputs, op list, database set-up, the timed call and checks."""

    name = ""
    why = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def breaker(self) -> Breaker:
        return InterpolationBreaker(ECG_EPSILON)

    def database(self) -> SequenceDatabase:
        return SequenceDatabase(breaker=self.breaker(), theta=THETA)

    def build(self, n_sequences: "int | None" = None) -> SequenceDatabase:
        """The warmed starting database (or one over its first sequences)."""
        raise NotImplementedError

    def ops(self) -> "Iterator[Op]":
        """The op list: endless, and the same for the same seed."""
        raise NotImplementedError

    def run(self, db: SequenceDatabase, op: Op) -> Any:
        """The timed call."""
        raise NotImplementedError

    def observe(
        self, kept: "dict[str, Any]", db: SequenceDatabase, op: Op, result: Any
    ) -> None:
        """Keep what the checks need from one completed op (untimed)."""

    def verify(self, db: SequenceDatabase, kept: "dict[str, Any]") -> "list[str]":
        """Check the answers after the timed window; one string per failure."""
        return []


class EcgIngest(Workload):
    name = "ecg_ingest"
    why = (
        "bulk loading, 32-ECG batches into 1,024-2,048 ECGs: loads breaking, fitting, "
        "peaks, both tries, the R-R inverted file, archive and columns; bypasses "
        "executor, cache, clusters"
    )
    PRELOAD = 1024
    BATCH = 32
    #: A batch costs more as the database grows (about 28 ms at 1,000
    #: sequences, 45-50 ms at 10,000, on a 2-core VM), so a run that
    #: kept inserting would load a bigger database the faster the code
    #: is.  Instead, after every ``EPOCH`` batches the sequences they
    #: inserted are deleted, untimed, and every run measures ingest into
    #: 1,024 to 2,048 sequences.
    EPOCH = 32
    #: One checked batch in this many; four sequences of each are audited.
    CHECK_EVERY = 16
    AUDITED = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.preload = ecg_corpus(n_sequences=self.PRELOAD, n_points=POINTS, seed=seed)

    def build(self, n_sequences: "int | None" = None) -> SequenceDatabase:
        db = self.database()
        _insert_chunked(db, self.preload[:n_sequences])
        return db

    def ops(self) -> "Iterator[Op]":
        rng = np.random.default_rng([self.seed, 1])
        offset = int(rng.integers(self.CHECK_EVERY))
        for index in itertools.count():
            if index and index % self.EPOCH == 0:
                yield Op("reset", "delete_many", self.PRELOAD)
            batch = ecg_corpus(
                n_sequences=self.BATCH, n_points=POINTS, seed=int(rng.integers(1 << 31))
            )
            yield Op(
                "write",
                "insert_all",
                batch,
                check=index % self.CHECK_EVERY == offset,
                ends_cycle=index % self.EPOCH == self.EPOCH - 1,
            )

    def run(self, db: SequenceDatabase, op: Op) -> Any:
        if op.kind == "reset":
            inserted = [sequence_id for sequence_id in db.ids() if sequence_id >= op.payload]
            db.delete_many(inserted)
            return inserted
        return db.insert_all(op.payload)

    def observe(
        self, kept: "dict[str, Any]", db: SequenceDatabase, op: Op, result: Any
    ) -> None:
        if op.kind == "reset":
            kept["live"] = kept.get("live", 0) - len(result)
            return
        kept["live"] = kept.get("live", 0) + len(result)
        if op.check:
            # Audited now: the next reset deletes the batch.
            rng = np.random.default_rng([self.seed, 2, result[0]])
            failures = kept.setdefault("failures", [])
            for position in rng.choice(len(result), size=self.AUDITED, replace=False):
                sequence_id = result[position]
                bounds = _boundaries(db, sequence_id)
                if not verify_tolerance(op.payload[position], bounds, "interpolation", ECG_EPSILON):
                    failures.append(f"sequence {sequence_id} breaks the epsilon guarantee")

    def verify(self, db: SequenceDatabase, kept: "dict[str, Any]") -> "list[str]":
        failures = list(kept.get("failures", []))
        expected = self.PRELOAD + kept.get("live", 0)
        if len(db) != expected:
            failures.append(f"database holds {len(db)} sequences, expected {expected}")
        try:
            db.store.check_consistency()
        except EngineError as exc:
            failures.append(f"store consistency: {exc}")
        return failures


def _read_mix_statements(n_sequences: int) -> "dict[str, list[str]]":
    """Each family's parameter space, in a fixed order."""
    behaviour = "0+0-+0+0-+0+0-+0"
    positional = "000+0--+0000++0--+0000"
    motifs = sorted(
        {behaviour[start : start + length] for start in range(5) for length in range(3, 12)}
    )
    positional_motifs = sorted(
        {positional[start : start + length] for start in range(8) for length in range(3, 9)}
    )
    return {
        "pattern": [
            f"PATTERN '{prefix}({motif}){{{k}}} .*'"
            for prefix in ("", "0 ", ".* ")
            for motif in ("+ 0 - + 0", "+ 0 -", "- + 0", "0 - +")
            for k in range(1, 7)
        ],
        "peaks": [f"PEAKS {n} TOLERANCE {t}" for n in range(1, 9) for t in range(3)],
        "interval": [
            f"INTERVAL {target} +/- {delta}"
            for target in range(100, 201)
            for delta in (1, 2, 3, 5, 8)
        ],
        "steepness": [
            f"STEEPNESS {slope} TOLERANCE {t}"
            for slope in range(20, 80)
            for t in (0, 1, 2, 5)
        ],
        "shape": [
            f"SHAPE OF {sid} DURATION {tol} AMPLITUDE {tol}"
            for sid in range(n_sequences)
            for tol in (0.05, 0.1)
        ],
        "nearest": [f"NEAREST {k} TO {sid}" for sid in range(n_sequences) for k in (5, 10, 20)],
        "count": [f"COUNT MATCHING '{m}'" for m in motifs]
        + [f"COUNT MATCHING '{m}' POSITIONAL" for m in positional_motifs],
    }


def _spread(space: "list[str]", start: float) -> "list[str]":
    """``space`` in a low-discrepancy order from ``start`` (golden-ratio
    steps): every prefix covers the parameter grid evenly, so the cost
    mix of a run's statements barely depends on the seed."""
    step = (5**0.5 - 1) / 2
    return [space[int((start + i * step) % 1.0 * len(space))] for i in range(len(space))]


class EcgReadMix(Workload):
    name = "ecg_read_mix"
    why = (
        "seven query families over 1,000 ECGs, more keys than the result cache: loads "
        "planning, DFA, grading, top-k, materialization, cache churn; bypasses every write path"
    )
    #: 1,000 rather than 4,000.  At 4,000 a round takes 30-80 ms, a run
    #: holds under 200 of them, the collector's gen-2 pauses (9-11 a
    #: run, a third of busy time) fill the slowest tenth, and five
    #: 12-second runs spread 0.09 / 0.17 / 0.18 (ops/s, median round,
    #: tail; interquartile range over median, reference-normalised) on a
    #: shared 2-vCPU VM, against 0.03 / 0.05 / 0.06 at 1,000.
    SEQUENCES = 1000
    #: One query in ``HOT_EVERY`` of a family repeats one of its ``HOT``
    #: statements, in a fixed cycle (cache hits while they survive);
    #: the rest walk the family's whole parameter space (misses that
    #: insert and evict).  The families' cycles are staggered, so every
    #: round holds two or three hot queries: were they in step, a third
    #: of the rounds would be all hits (about 1 ms against 30-80 ms) and
    #: the median round would sit on the edge between the two modes.
    HOT = 2
    HOT_EVERY = 3
    #: Statements one query per family warms before timing.
    WARM = (
        "PATTERN '0 (+ 0 - + 0){2} .*'",
        "PEAKS 4 TOLERANCE 1",
        "INTERVAL 150 +/- 3",
        "STEEPNESS 40 TOLERANCE 2",
        "SHAPE OF 1",
        "NEAREST 10 TO 2",
        "COUNT MATCHING '+0-+0'",
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.corpus = ecg_corpus(n_sequences=self.SEQUENCES, n_points=POINTS, seed=seed)

    def build(self, n_sequences: "int | None" = None) -> SequenceDatabase:
        db = self.database()
        _insert_chunked(db, self.corpus[:n_sequences])
        for statement in self.WARM:
            db.query(parse_query(statement, db), cache=False)
        return db

    def ops(self) -> "Iterator[Op]":
        rng = np.random.default_rng([self.seed, 1])
        spaces = _read_mix_statements(self.SEQUENCES)
        hot = {family: _spread(space, rng.random()) for family, space in spaces.items()}
        cold = {family: _spread(space, rng.random()) for family, space in spaces.items()}
        # The k-th occurrence of each family (k seeded) is checked
        # against the legacy oracle: one sampled answer per family.
        checked = {family: int(rng.integers(8)) for family in FAMILIES}
        seen = dict.fromkeys(FAMILIES, 0)
        while True:
            # Every family once per round, in seeded order: the mix is
            # exact, only the order and parameters vary with the seed.
            order = [str(family) for family in rng.permutation(FAMILIES)]
            for family in order:
                n = seen[family]
                if (n + FAMILIES.index(family)) % self.HOT_EVERY == 0:
                    statement = hot[family][n // self.HOT_EVERY % self.HOT]
                else:
                    statement = cold[family][n % len(cold[family])]
                last = family == order[-1]
                yield Op("read", family, statement, n == checked[family], last, last)
                seen[family] += 1

    def run(self, db: SequenceDatabase, op: Op) -> Any:
        return db.query(parse_query(op.payload, db))

    def observe(
        self, kept: "dict[str, Any]", db: SequenceDatabase, op: Op, result: Any
    ) -> None:
        if op.check:
            kept.setdefault("answers", []).append((op.payload, result))

    def verify(self, db: SequenceDatabase, kept: "dict[str, Any]") -> "list[str]":
        failures = []
        answers = kept.get("answers", [])
        if {statement.split()[0] for statement, __ in answers} != {
            statement.split()[0] for statement in self.WARM
        }:
            failures.append("the run did not reach a checked answer of every family")
        for statement, answer in answers:
            oracle = db.query(parse_query(statement, db), engine=False)
            if answer != oracle:
                failures.append(f"{statement}: engine answer differs from the legacy oracle")
        return failures


class EcgStream(Workload):
    name = "ecg_stream"
    why = (
        "ticks of 25 samples to 16 of 1,000 ECGs on 4 shards, then 7 standing queries: online "
        "re-breaks, trie/column/journal patches, delta revalidation; the only sharded one"
    )
    #: 1,000 rather than 4,000, as for ``EcgReadMix``: each tick returns
    #: the standing answers over the whole archive, and at 4,000
    #: sequences the medians of two ten-run sets taken minutes apart
    #: differed by 20% (throughput) and 38% (median tick), against 3%
    #: for ingest, on a shared 2-core VM.
    SEQUENCES = 1000
    SHARDS = 4
    EPSILON = 4.0
    PER_APPEND = 16
    SAMPLES = 25
    #: Samples generated beyond the first 500 of every ECG: enough for
    #: 1,500 ticks.
    HEADROOM = 24 * 25
    AUDITED = 50

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.corpus = ecg_corpus(
            n_sequences=self.SEQUENCES, n_points=POINTS + self.HEADROOM, seed=seed
        )
        rng = np.random.default_rng([self.seed, 3])
        self.exemplars = [int(i) for i in rng.integers(self.SEQUENCES, size=2)]
        self.standing: "dict[str, Any]" = {}

    def breaker(self) -> Breaker:
        return IncrementalRegressionBreaker(self.EPSILON)

    def database(self) -> SequenceDatabase:
        return SequenceDatabase(breaker=self.breaker(), theta=THETA, n_shards=self.SHARDS)

    def build(self, n_sequences: "int | None" = None) -> SequenceDatabase:
        db = self.database()
        _insert_chunked(
            db,
            [
                Sequence(s.times[:POINTS], s.values[:POINTS], name=s.name)
                for s in self.corpus[:n_sequences]
            ],
        )
        # The standing queries are parsed once and their answers cached:
        # every timed read then revalidates a cached answer.
        shape, nearest = (sid % len(db) for sid in self.exemplars)
        statements = {
            "pattern": "PATTERN '0 (+ 0 - + 0){2} .*'",
            "peaks": "PEAKS 4 TOLERANCE 1",
            "interval": "INTERVAL 150 +/- 3",
            "steepness": "STEEPNESS 40 TOLERANCE 2",
            "shape": f"SHAPE OF {shape} DURATION 0.1 AMPLITUDE 0.1",
            "nearest": f"NEAREST 10 TO {nearest}",
            "count": "COUNT MATCHING '+0-+0'",
        }
        standing = {family: parse_query(text, db) for family, text in statements.items()}
        for query in standing.values():
            db.query(query)
        if n_sequences is None:
            self.standing = standing
        return db

    def ops(self) -> "Iterator[Op]":
        rng = np.random.default_rng([self.seed, 1])
        length = np.full(self.SEQUENCES, POINTS)
        while True:
            live = np.flatnonzero(length + self.SAMPLES <= POINTS + self.HEADROOM)
            if len(live) < self.PER_APPEND:
                raise RuntimeError("the corpus has no samples left to append")
            ids = np.sort(rng.choice(live, size=self.PER_APPEND, replace=False))
            items = []
            for sequence_id in ids.tolist():
                end = length[sequence_id] + self.SAMPLES
                values = self.corpus[sequence_id].values[length[sequence_id] : end]
                items.append((sequence_id, values))
                length[sequence_id] = end
            yield Op("write", "append_many", items, ends_round=False, ends_cycle=False)
            for family in FAMILIES:
                last = family == FAMILIES[-1]
                yield Op("read", family, family, ends_round=last, ends_cycle=last)

    def run(self, db: SequenceDatabase, op: Op) -> Any:
        if op.kind == "write":
            return db.append_many(op.payload)
        return db.query(self.standing[op.payload])

    def observe(
        self, kept: "dict[str, Any]", db: SequenceDatabase, op: Op, result: Any
    ) -> None:
        if op.kind == "write":
            lengths = kept.setdefault("lengths", {})
            for (sequence_id, __), length in zip(op.payload, result):
                lengths[sequence_id] = length
        else:
            kept.setdefault("answers", {})[op.payload] = result

    def verify(self, db: SequenceDatabase, kept: "dict[str, Any]") -> "list[str]":
        failures = []
        for family, answer in kept.get("answers", {}).items():
            if answer != db.query(self.standing[family], cache=False):
                failures.append(f"{family}: revalidated answer differs from a fresh evaluation")
        lengths = kept.get("lengths", {})
        rng = np.random.default_rng([self.seed, 2])
        touched = sorted(lengths)
        sample = rng.choice(touched, size=min(self.AUDITED, len(touched)), replace=False)
        breaker = self.breaker()
        for sequence_id in sample.tolist():
            source = self.corpus[sequence_id]
            length = lengths[sequence_id]
            extended = Sequence(source.times[:length], source.values[:length])
            if len(db.archive.peek(sequence_id)) != length:
                failures.append(f"sequence {sequence_id}: archived length is not {length}")
            if _boundaries(db, sequence_id) != list(breaker.break_indices(extended)):
                failures.append(f"sequence {sequence_id}: appended break differs from scratch")
        try:
            db.store.check_consistency()
        except EngineError as exc:
            failures.append(f"store consistency: {exc}")
        return failures


WORKLOADS = {cls.name: cls for cls in (EcgIngest, EcgReadMix, EcgStream)}
