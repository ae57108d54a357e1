"""Streaming append: byte-identical to re-inserting from scratch.

The acceptance contract of ``SequenceDatabase.append``: a database that
ingested prefixes and then appended the tails must be indistinguishable
— representations, symbol strings, peaks, postings, columnar rows, and
the answer to every query type — from a database that ingested the full
sequences in one go, for online and offline breakers alike and for
every shard count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import QueryError
from repro.core.representation import FunctionSeriesRepresentation
from repro.core.sequence import Sequence
from repro.query import (
    ExemplarQuery,
    IntervalQuery,
    PatternQuery,
    PeakCountQuery,
    SequenceDatabase,
    ShapeQuery,
    SteepnessQuery,
)
from repro.segmentation import InterpolationBreaker
from repro.segmentation.online import IncrementalRegressionBreaker, SlidingWindowBreaker
from repro.storage.serialization import encode_representation

SHARD_COUNTS = [None, 2, 7]


def _corpus(seed=21, count=14):
    rng = np.random.default_rng(seed)
    sequences = []
    for i in range(count):
        n = int(rng.integers(60, 160))
        t = np.arange(n, dtype=float)
        values = (
            4.0 * np.sin(2 * np.pi * t / rng.uniform(15, 45))
            + rng.normal(0.0, 0.15, n)
        )
        sequences.append(Sequence(t, values, name=f"stream-{i}"))
    return sequences


def _queries(corpus):
    return [
        PatternQuery("(0|-|\\+)* \\+ (0|-|\\+)*"),
        PatternQuery("(0|-)* \\+ (0|-|\\+)*", collapse_runs=False),
        PeakCountQuery(2, count_tolerance=2),
        IntervalQuery(20.0, 8.0),
        SteepnessQuery(0.8, slope_tolerance=0.5),
        ShapeQuery(corpus[0], duration_tolerance=0.5, amplitude_tolerance=0.5),
        ExemplarQuery(corpus[1], epsilon=1.0),
    ]


def _append_db(breaker_factory, corpus, n_shards, installments=2):
    """Ingest prefixes, then append the tails in ``installments`` chunks."""
    db = SequenceDatabase(breaker=breaker_factory(), n_shards=n_shards)
    prefix_lens = [max(20, len(seq) // 3) for seq in corpus]
    db.insert_all([seq[:k] for seq, k in zip(corpus, prefix_lens)])
    for step in range(installments):
        items = []
        for sequence_id, (seq, k) in enumerate(zip(corpus, prefix_lens)):
            tail = np.array_split(np.arange(k, len(seq)), installments)[step]
            if tail.size == 0:
                continue
            items.append(
                (sequence_id, seq.values[tail], seq.times[tail])
            )
        db.append_many(items)
    return db


def _scratch_db(breaker_factory, corpus, n_shards):
    db = SequenceDatabase(breaker=breaker_factory(), n_shards=n_shards)
    db.insert_all(corpus)
    return db


BREAKERS = [
    lambda: IncrementalRegressionBreaker(0.35),
    lambda: SlidingWindowBreaker(0.5, window=8, degree=1),
    lambda: InterpolationBreaker(0.5),  # offline: full-rebreak fallback
]
BREAKER_IDS = ["incremental-regression", "sliding-window", "interpolation-offline"]


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("breaker_factory", BREAKERS, ids=BREAKER_IDS)
class TestAppendParity:
    def test_state_and_queries_byte_identical(self, breaker_factory, n_shards):
        corpus = _corpus()
        appended = _append_db(breaker_factory, corpus, n_shards)
        scratch = _scratch_db(breaker_factory, corpus, n_shards)

        assert appended.ids() == scratch.ids()
        for sequence_id in appended.ids():
            # Representations byte-identical through the codec.
            assert encode_representation(
                appended.representation_of(sequence_id)
            ) == encode_representation(scratch.representation_of(sequence_id))
            assert appended.peak_count_of(sequence_id) == scratch.peak_count_of(
                sequence_id
            )
            assert np.array_equal(
                appended.rr_intervals_of(sequence_id),
                scratch.rr_intervals_of(sequence_id),
            )
            for collapse in (False, True):
                assert appended.store.symbols_of(
                    sequence_id, collapse_runs=collapse
                ) == scratch.store.symbols_of(sequence_id, collapse_runs=collapse)
            # Raw tier holds the full data.
            assert appended.raw_sequence(sequence_id) == scratch.raw_sequence(
                sequence_id
            )
        appended.store.check_consistency()

        for query in _queries(corpus):
            for include_approximate in (True, False):
                fast = appended.query(query, include_approximate, cache=False)
                assert fast == scratch.query(query, include_approximate, cache=False)
                assert fast == appended.query(
                    query, include_approximate, engine=False
                )


class TestAppendMechanics:
    def _db(self, **kwargs):
        db = SequenceDatabase(breaker=IncrementalRegressionBreaker(0.35), **kwargs)
        return db

    def test_default_times_continue_the_grid(self):
        db = self._db()
        rng = np.random.default_rng(0)
        full_values = rng.normal(0.0, 1.0, 80)
        sequence_id = db.insert(Sequence.from_values(full_values[:50], name="grid"))
        db.append(sequence_id, full_values[50:])
        scratch = self._db()
        scratch.insert(Sequence.from_values(full_values, name="grid"))
        assert db.raw_sequence(sequence_id) == scratch.raw_sequence(0)
        assert encode_representation(
            db.representation_of(sequence_id)
        ) == encode_representation(scratch.representation_of(0))

    def test_append_returns_new_length(self):
        db = self._db()
        sequence_id = db.insert(Sequence.from_values(np.arange(10.0), name="n"))
        assert db.append(sequence_id, [11.0, 9.0, 13.0]) == 13

    def test_append_requires_live_id_and_raw(self):
        db = self._db()
        with pytest.raises(QueryError):
            db.append(0, [1.0])
        rep_only = self._db()
        rep = InterpolationBreaker(0.5).represent(
            Sequence.from_values(np.arange(12.0)), curve_kind="regression"
        )
        sequence_id = rep_only.insert_representation(rep, name="norawa")
        with pytest.raises(QueryError, match="raw"):
            rep_only.append(sequence_id, [1.0])
        no_raw = self._db(keep_raw=False)
        sequence_id = no_raw.insert(Sequence.from_values(np.arange(12.0)))
        with pytest.raises(QueryError):
            no_raw.append(sequence_id, [1.0])

    def test_bad_payloads_mutate_nothing(self):
        db = self._db()
        sequence_id = db.insert(Sequence.from_values(np.arange(10.0), name="atomic"))
        before = encode_representation(db.representation_of(sequence_id))
        generation = db.store.generation
        with pytest.raises(QueryError):
            db.append_many([(sequence_id, [1.0]), (sequence_id, [2.0])])  # duplicate
        with pytest.raises(QueryError):
            db.append(sequence_id, [])
        with pytest.raises(QueryError):
            db.append(sequence_id, [1.0, 2.0], times=[99.0])  # length mismatch
        assert encode_representation(db.representation_of(sequence_id)) == before
        assert db.store.generation == generation

    def test_normalize_falls_back_to_full_rebreak(self):
        rng = np.random.default_rng(5)
        full = Sequence.from_values(rng.normal(0.0, 2.0, 90), name="z")
        for db, scratch in [
            (
                SequenceDatabase(breaker=IncrementalRegressionBreaker(0.3), normalize=True),
                SequenceDatabase(breaker=IncrementalRegressionBreaker(0.3), normalize=True),
            )
        ]:
            sequence_id = db.insert(full[:60])
            db.append(sequence_id, full.values[60:], times=full.times[60:])
            scratch.insert(full)
            assert encode_representation(
                db.representation_of(sequence_id)
            ) == encode_representation(scratch.representation_of(0))
            assert db.query(
                PeakCountQuery(3, count_tolerance=3), cache=False
            ) == scratch.query(PeakCountQuery(3, count_tolerance=3), cache=False)

    def test_append_drops_stale_variants(self):
        db = self._db()
        sequence_id = db.insert(Sequence.from_values(np.arange(30.0), name="v"))
        db.add_variant(sequence_id, "coarse", InterpolationBreaker(4.0))
        assert db.catalog.variants_of(sequence_id) == ["coarse", "default"]
        db.append(sequence_id, [3.0, 50.0])
        assert db.catalog.variants_of(sequence_id) == ["default"]

    def test_append_is_journalled_once_per_shard(self):
        db = self._db(n_shards=2)
        ids = db.insert_all(
            [Sequence.from_values(np.arange(20.0), name=f"s{i}") for i in range(4)]
        )
        baseline = db.store.generation_vector()
        db.append_many([(ids[0], [1.0, 5.0]), (ids[2], [2.0, 1.0])])  # both shard 0
        vector = db.store.generation_vector()
        assert vector[0] == baseline[0] + 1
        assert vector[1] == baseline[1]
        assert db.store.dirty_ids_since(baseline) == {ids[0], ids[2]}

    def test_archive_accounts_tail_bytes_only(self):
        db = self._db()
        sequence_id = db.insert(Sequence.from_values(np.arange(100.0), name="acct"))
        written_before = db.archive.log.bytes_written
        db.append(sequence_id, [1.0, 2.0])
        appended_bytes = db.archive.log.bytes_written - written_before
        assert 0 < appended_bytes < 100  # two float64 samples, not the history


def _table(store, column_set):
    """Every live column of one of a leaf store's tables, copied."""
    table = getattr(store, column_set)
    return {name: table.column(name).copy() for name in table._schema}


def _assert_same_columns(store, reference):
    for column_set in ("_segments", "_behavior", "_rr", "_sequences"):
        got = _table(store, column_set)
        want = _table(reference, column_set)
        for name in want:
            assert np.array_equal(got[name], want[name]), (column_set, name)


class TestAppendBatchShapes:
    """One append batch mixing every splice shape stays byte-identical."""

    def test_store_splice_equals_reinsert(self):
        from repro.engine.columnar import ColumnarSegmentStore

        rng = np.random.default_rng(3)
        breaker = InterpolationBreaker(0.3)

        def item(sequence_id, n, n_rr):
            values = np.cumsum(rng.normal(0.0, 1.0, n))
            rep = breaker.represent(Sequence.from_values(values), curve_kind="regression")
            return (sequence_id, rep, int(rng.integers(0, 5)), rng.uniform(5.0, 9.0, n_rr))

        old = [item(i, 40 + 7 * i, 3) for i in range(6)]
        store = ColumnarSegmentStore(theta=0.2)
        store.extend(old)
        counts = [len(rep) for __, rep, __, __ in old]
        new = {
            0: item(0, 120, 6),  # first store position, grows
            2: (2, old[0][1], 1, np.array([4.0])),  # segment and R-R counts shrink
            3: item(3, 61, 3),
            5: item(5, 200, 0),  # last store position, zero R-R intervals
        }
        assert len(new[2][1]) < counts[2] and len(new[0][1]) > counts[0]
        generation = store.generation
        store.replace_many([new[i] for i in (5, 0, 3, 2)])  # any item order
        store.check_consistency()
        reference = ColumnarSegmentStore(theta=0.2)
        reference.extend([new.get(i, old[i]) for i in range(6)])
        _assert_same_columns(store, reference)
        assert store.generation == generation + 1
        entries = store.journal.entries_since(generation)
        assert [(entry.kind, sorted(entry.sequence_ids)) for entry in entries] == [
            ("append", [0, 2, 3, 5])
        ]

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_batch_equals_fresh_break_and_scratch_columns(self, n_shards):
        rng = np.random.default_rng(8)
        breaker = IncrementalRegressionBreaker(0.35)
        t = np.arange(90, dtype=float)
        full = [
            Sequence(t, 4.0 * np.sin(t / rng.uniform(3.0, 8.0)) + rng.normal(0.0, 0.1, 90), name=f"f{i}")
            for i in range(8)
        ]
        # A straight-line prefix is one open window: the append re-breaks
        # it from window 0.
        full[3] = Sequence(t, np.where(t < 30, 0.5 * t, 4.0 * np.sin(t)), name="line")
        # Monotone data has no peaks: zero R-R intervals.
        full[6] = Sequence(t, 0.2 * t + rng.normal(0.0, 0.01, 90), name="ramp")
        cut = 30
        db = SequenceDatabase(breaker=IncrementalRegressionBreaker(0.35), n_shards=n_shards)
        ids = db.insert_all([Sequence(s.times[:cut], s.values[:cut], name=s.name) for s in full])
        assert len(db.representation_of(ids[3])) == 1
        baseline = db.store.generation_vector()
        touched = [0, 1, 3, 6, 7]  # both ends of every shard
        db.append_many([(ids[i], full[i].values[cut:]) for i in touched])

        assert db.store.rr_intervals_of(ids[6]).size == 0
        for i in touched:
            fresh = FunctionSeriesRepresentation.from_breakpoints(
                full[i], breaker.break_indices(full[i]), epsilon=breaker.epsilon
            )
            assert encode_representation(db.representation_of(ids[i])) == (
                encode_representation(fresh)
            )
        db.store.check_consistency()
        scratch = SequenceDatabase(breaker=IncrementalRegressionBreaker(0.35), n_shards=n_shards)
        scratch.insert_all([full[i] if i in touched else db.raw_sequence(ids[i]) for i in range(8)])
        for shard, reference in zip(db.store.shards(), scratch.store.shards()):
            _assert_same_columns(shard, reference)
        # One "append" entry per touched shard, naming exactly its ids.
        for shard, generation in zip(db.store.shards(), baseline):
            entries = shard.journal.entries_since(generation)
            mine = sorted(ids[i] for i in touched if ids[i] in shard)
            assert [(entry.kind, sorted(entry.sequence_ids)) for entry in entries] == [
                ("append", mine)
            ]
