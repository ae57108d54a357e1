"""End-to-end bulk ingest parity: the stored state ignores batch splits.

Every ingest runs one batch body — breaking, representation, symbol
classification, pattern/behaviour indexing, peak extraction, R-R
postings, columnar append as whole-batch kernels — and ``insert`` is a
batch of one.  These tests pin the contract: the database state after
``insert_all`` (or the pipeline, in batches of 13) is byte-identical to
one ``insert`` per sequence, across plain / normalized / sharded
configurations, queries answer identically on both (including the
legacy oracle), and a single insert or delete is still journalled as
one mutation naming one id.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query import (
    IntervalQuery,
    PatternQuery,
    PeakCountQuery,
    SequenceDatabase,
    ShapeQuery,
    SteepnessQuery,
)
from repro.segmentation import InterpolationBreaker
from repro.storage.catalog import engine_state_digest
from repro.workloads import ecg_corpus, fever_corpus

SEGMENT_COLUMNS = (
    "sequence",
    "start_index",
    "end_index",
    "start_time",
    "end_time",
    "start_value",
    "end_value",
    "slope",
    "symbol",
)


@pytest.fixture(scope="module")
def corpus():
    return fever_corpus(n_two_peak=15, n_one_peak=10, n_three_peak=10) + ecg_corpus(
        n_sequences=5, n_points=300
    )


def _build(corpus, batched: bool, **kwargs) -> SequenceDatabase:
    database = SequenceDatabase(breaker=InterpolationBreaker(0.5), **kwargs)
    if batched:
        with database.ingest_pipeline(batch_size=13) as pipeline:
            pipeline.add_many(corpus)
    else:
        for sequence in corpus:
            database.insert(sequence)
    return database


def _assert_stores_equal(a: SequenceDatabase, b: SequenceDatabase) -> None:
    for shard_a, shard_b in zip(a.store.shards(), b.store.shards()):
        shard_b.check_consistency()
        for name in SEGMENT_COLUMNS:
            assert np.array_equal(
                shard_a.segment_column(name), shard_b.segment_column(name)
            ), name
        assert np.array_equal(shard_a.sequence_ids, shard_b.sequence_ids)
        assert np.array_equal(shard_a.behavior_symbols, shard_b.behavior_symbols)
        assert np.array_equal(shard_a.behavior_sequences, shard_b.behavior_sequences)
        assert np.array_equal(shard_a.rr_values, shard_b.rr_values)
        assert np.array_equal(shard_a.rr_sequences, shard_b.rr_sequences)
        assert np.array_equal(shard_a.peak_counts, shard_b.peak_counts)
        assert np.array_equal(shard_a.max_rising_slopes, shard_b.max_rising_slopes)
        assert np.array_equal(shard_a.source_lengths, shard_b.source_lengths)


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"normalize": True}, {"n_shards": 4}, {"keep_raw": False}],
    ids=["plain", "normalized", "sharded", "no-raw"],
)
def test_insert_all_state_identical(corpus, kwargs):
    direct = _build(corpus, batched=False, **kwargs)
    batched = _build(corpus, batched=True, **kwargs)
    assert direct.ids() == batched.ids()
    for sequence_id in direct.ids():
        ra = direct.representation_of(sequence_id)
        rb = batched.representation_of(sequence_id)
        assert ra.segments == rb.segments
        assert all(
            x.function.parameters() == y.function.parameters()
            for x, y in zip(ra.segments, rb.segments)
        )
        assert direct.name_of(sequence_id) == batched.name_of(sequence_id)
        assert direct.peak_count_of(sequence_id) == batched.peak_count_of(sequence_id)
        assert np.array_equal(
            direct.rr_intervals_of(sequence_id), batched.rr_intervals_of(sequence_id)
        )
        assert direct.pattern_index.symbols_of(sequence_id) == batched.pattern_index.symbols_of(
            sequence_id
        )
        assert direct.behavior_index.symbols_of(sequence_id) == batched.behavior_index.symbols_of(
            sequence_id
        )
    for name in ("pattern_index", "behavior_index"):
        # find_exact("") builds both tries before their nodes are counted.
        index_a, index_b = getattr(direct, name), getattr(batched, name)
        assert index_a.find_exact("") == index_b.find_exact("")
        assert index_a._trie.node_count() == index_b._trie.node_count()
    assert len(direct.rr_index) == len(batched.rr_index)
    assert direct.rr_index.bucket_count() == batched.rr_index.bucket_count()
    batched.rr_index.check_invariants()
    _assert_stores_equal(direct, batched)


def test_queries_agree_across_paths(corpus):
    direct = _build(corpus, batched=False)
    batched = _build(corpus, batched=True, n_shards=3)
    exemplar = direct.representation_of(direct.ids()[0])
    queries = [
        PatternQuery("(0|-)* + (0|-)^+ + (0|-)*"),
        PeakCountQuery(2, count_tolerance=1),
        SteepnessQuery(1.5, slope_tolerance=0.5),
        IntervalQuery(8.0, 4.0),
        ShapeQuery(exemplar, duration_tolerance=0.1, amplitude_tolerance=0.1),
    ]
    for query in queries:
        expected = direct.query(query, cache=False)
        assert batched.query(query, cache=False) == expected
        assert batched.query_legacy(query) == expected


def test_pipeline_interleaves_with_single_inserts_and_deletes(corpus):
    database = SequenceDatabase(breaker=InterpolationBreaker(0.5), n_shards=2)
    pipeline = database.ingest_pipeline(batch_size=8)
    pipeline.add_many(corpus[:10])
    pipeline.flush()
    single_id = database.insert(corpus[10])
    database.delete(database.ids()[0])
    pipeline.add_many(corpus[11:20])
    pipeline.flush()
    for shard in database.store.shards():
        shard.check_consistency()
    assert single_id in database.ids()
    assert len(database) == 19


def test_insert_all_empty_batch():
    database = SequenceDatabase(breaker=InterpolationBreaker(0.5))
    assert database.insert_all([]) == []
    assert len(database) == 0


@pytest.mark.parametrize("n_shards", [1, 4])
def test_engine_state_digest_matches_one_by_one_build(corpus, n_shards):
    one_by_one = _build(corpus, batched=False, n_shards=n_shards)
    whole = SequenceDatabase(breaker=InterpolationBreaker(0.5), n_shards=n_shards)
    whole.insert_all(corpus)
    assert engine_state_digest(whole) == engine_state_digest(one_by_one)
    for sequence_id in one_by_one.ids()[::5]:
        one_by_one.delete(sequence_id)
    whole.delete_many(whole.ids()[::5])
    assert engine_state_digest(whole) == engine_state_digest(one_by_one)


@pytest.mark.parametrize("n_shards", [1, 4])
def test_single_mutations_journal_one_entry_naming_one_id(corpus, n_shards):
    database = SequenceDatabase(breaker=InterpolationBreaker(0.5), n_shards=n_shards)
    database.insert_all(corpus[:8])

    def journal_entries():
        return [entry for shard in database.store.shards() for entry in shard.journal._entries]

    before = journal_entries()
    inserted = database.insert(corpus[8])
    (entry,) = [entry for entry in journal_entries() if entry not in before]
    assert (entry.kind, entry.sequence_ids) == ("insert", (inserted,))

    before = journal_entries()
    database.delete(3)
    (entry,) = [entry for entry in journal_entries() if entry not in before]
    assert (entry.kind, entry.sequence_ids) == ("delete", (3,))
