"""Shard-aware batched deletion: parity, offsets, cache invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import EngineError, QueryError
from repro.query import PeakCountQuery, SequenceDatabase
from repro.segmentation import InterpolationBreaker
from repro.workloads import fever_corpus

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
    return fever_corpus(n_two_peak=14, n_one_peak=10, n_three_peak=10)


def _build(corpus, **kwargs) -> SequenceDatabase:
    database = SequenceDatabase(breaker=InterpolationBreaker(0.5), **kwargs)
    database.insert_all(corpus)
    return database


def _assert_equal_state(a: SequenceDatabase, b: SequenceDatabase) -> None:
    assert a.ids() == b.ids()
    for shard_a, shard_b in zip(a.store.shards(), b.store.shards()):
        shard_b.check_consistency()
        for name in SEGMENT_COLUMNS:
            assert np.array_equal(
                shard_a.segment_column(name), shard_b.segment_column(name)
            ), name
        assert np.array_equal(shard_a.sequence_ids, shard_b.sequence_ids)
        assert np.array_equal(shard_a.behavior_symbols, shard_b.behavior_symbols)
        assert np.array_equal(shard_a.rr_values, shard_b.rr_values)
        assert np.array_equal(shard_a.peak_counts, shard_b.peak_counts)
    for sequence_id in a.ids():
        assert a.pattern_index.symbols_of(sequence_id) == b.pattern_index.symbols_of(sequence_id)
        assert a.behavior_index.symbols_of(sequence_id) == b.behavior_index.symbols_of(sequence_id)
    assert a.pattern_index.find_exact("") == b.pattern_index.find_exact("")
    assert a.pattern_index._trie.node_count() == b.pattern_index._trie.node_count()
    assert len(a.rr_index) == len(b.rr_index)
    b.rr_index.check_invariants()


@pytest.mark.parametrize("kwargs", [{}, {"n_shards": 3}], ids=["single", "sharded"])
@pytest.mark.parametrize("stride", [2, 3])
def test_delete_many_equals_sequential_deletes(corpus, kwargs, stride):
    sequential = _build(corpus, **kwargs)
    batched = _build(corpus, **kwargs)
    victims = sequential.ids()[::stride]
    for sequence_id in victims:
        sequential.delete(sequence_id)
    batched.delete_many(victims)
    _assert_equal_state(sequential, batched)


def test_delete_everything(corpus):
    database = _build(corpus, n_shards=2)
    database.delete_many(database.ids())
    assert len(database) == 0
    for shard in database.store.shards():
        shard.check_consistency()
        assert len(shard) == 0


def test_one_generation_bump_per_touched_shard(corpus):
    database = _build(corpus, n_shards=4)
    # Victims living on exactly two shards.
    victims = [s for s in database.ids() if s % 4 in (1, 2)][:6]
    touched = {s % 4 for s in victims}
    generations = [shard.generation for shard in database.store.shards()]
    before = database.store.generation
    database.delete_many(victims)
    after_per_shard = [shard.generation for shard in database.store.shards()]
    for index, (was, now) in enumerate(zip(generations, after_per_shard)):
        assert now - was == (1 if index in touched else 0)
    assert database.store.generation - before == len(touched)


def test_delete_many_invalidates_result_cache(corpus):
    database = _build(corpus, n_shards=2)
    query = PeakCountQuery(2, count_tolerance=1)
    first = database.query(query)
    assert database.cache_stats()["entries"] >= 1
    victims = [m.sequence_id for m in first[:3]]
    database.delete_many(victims)
    epoch_results = database.query(query)
    assert all(m.sequence_id not in victims for m in epoch_results)
    # And the answer matches a cold evaluation.
    assert epoch_results == database.query(query, cache=False)


def test_unknown_or_duplicate_ids_delete_nothing(corpus):
    database = _build(corpus, n_shards=2)
    count = len(database)
    with pytest.raises(QueryError):
        database.delete_many([database.ids()[0], 10**9])
    with pytest.raises(QueryError):
        database.delete_many([database.ids()[0], database.ids()[0]])
    assert len(database) == count
    for shard in database.store.shards():
        shard.check_consistency()


def test_store_level_delete_many_validates_atomically(corpus):
    database = _build(corpus, n_shards=3)
    store = database.store
    live = [int(s) for s in store.sequence_ids[:4]]
    before = len(store)
    with pytest.raises(EngineError):
        store.delete_many(live + [10**9])
    assert len(store) == before
    store.check_consistency()


def test_empty_batch_is_a_noop(corpus):
    database = _build(corpus)
    generation = database.store.generation
    database.delete_many([])
    assert database.store.generation == generation
