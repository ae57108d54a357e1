"""Delta revalidation of cached top-k answers: the heap patch.

A cached top-k entry can't be patched like an unlimited verdict list —
the cut hides everything beyond the k-th match, so a mutation may
promote an unseen sequence into the answer.  The executor's rule: patch
in place only when the surviving-plus-regraded candidates provably
contain the true top k (counted against the old k-th boundary);
otherwise re-run the pruned search, counted as a ``topk_refill``.
These tests pin both sides of that rule and the compaction fallback,
always checking the patched answer against a cold ``engine=False`` run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sequence import Sequence
from repro.query import SequenceDatabase, TopKQuery, parse_query
from repro.segmentation.online import IncrementalRegressionBreaker
from repro.workloads import ecg_corpus, latency_trace, server_metrics_corpus

SHARD_COUNTS = [None, 2, 7]


def _metrics_db(n_shards, n=30, seed=17):
    db = SequenceDatabase(
        breaker=IncrementalRegressionBreaker(0.5),
        n_shards=n_shards,
        max_workers=None,
    )
    db.insert_all(server_metrics_corpus(n_sequences=n, seed=seed))
    return db


def _probe():
    return latency_trace(baseline=45.0, n_bursts=3, seed=5, name="probe")


def _tuples(matches):
    return [(m.sequence_id, m.grade.name, m.total_deviation) for m in matches]


def _assert_parity(db, query):
    assert _tuples(db.query(query)) == _tuples(db.query(query, engine=False))


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_heap_patch_when_dirty_id_stays_outside_topk(n_shards):
    db = _metrics_db(n_shards)
    query = TopKQuery(_probe(), 5)
    baseline = db.query(query)
    top_ids = {m.sequence_id for m in baseline}
    # Mutate a sequence far outside the answer; its re-graded match
    # still sorts beyond the old k-th boundary, so the patch applies.
    outsider = next(
        m.sequence_id for m in reversed(db.query_legacy(query))
        if m.sequence_id not in top_ids
    )
    before = db.result_cache.stats()
    db.append(outsider, [500.0, 900.0, 450.0])
    _assert_parity(db, query)
    after = db.result_cache.stats()
    assert after["delta_hits"] == before["delta_hits"] + 1
    assert after["topk_refills"] == before["topk_refills"]


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_refill_when_kth_best_worsens(n_shards):
    db = _metrics_db(n_shards)
    query = TopKQuery(_probe(), 5)
    baseline = db.query(query)
    kth = baseline[-1].sequence_id
    before = db.result_cache.stats()
    # Push the current k-th match far away: the survivors no longer
    # account for k candidates inside the old boundary, so the cache
    # must re-run the pruned search to find the promoted sequence.
    db.append(kth, [800.0, 1200.0, 900.0, 750.0])
    _assert_parity(db, query)
    after = db.result_cache.stats()
    assert after["topk_refills"] == before["topk_refills"] + 1
    assert db.query(query)[-1].sequence_id != kth


@pytest.mark.parametrize("n_shards", [None, 2])
def test_refill_when_kth_is_deleted(n_shards):
    db = _metrics_db(n_shards)
    query = TopKQuery(_probe(), 5)
    kth = db.query(query)[-1].sequence_id
    before = db.result_cache.stats()
    db.delete(kth)
    _assert_parity(db, query)
    after = db.result_cache.stats()
    assert after["topk_refills"] == before["topk_refills"] + 1
    assert kth not in {m.sequence_id for m in db.query(query)}


@pytest.mark.parametrize("n_shards", [None, 7])
def test_patch_without_refill_when_k_exceeds_matches(n_shards):
    # With k beyond the corpus size the cached answer is the *complete*
    # match set, so any re-graded candidate merges in place — never a
    # refill, even when the mutated sequence changes rank.
    db = _metrics_db(n_shards, n=8)
    query = TopKQuery(_probe(), 50)
    baseline = db.query(query)
    assert len(baseline) == 8
    before = db.result_cache.stats()
    db.append(baseline[2].sequence_id, [300.0, 640.0, 410.0])
    _assert_parity(db, query)
    after = db.result_cache.stats()
    assert after["delta_hits"] == before["delta_hits"] + 1
    assert after["topk_refills"] == before["topk_refills"]


def test_compaction_falls_back_to_full_rerun():
    db = _metrics_db(2)
    query = TopKQuery(_probe(), 5)
    db.query(query)
    before = db.result_cache.stats()
    # Shrink the ring so the next mutations evict the journal entries
    # the cached answer would need; the cache must fall back.
    for shard in db.store.shards():
        shard.journal.max_entries = 1
    for sequence_id in db.ids()[:4]:
        db.append(sequence_id, [70.0, 75.0])
    _assert_parity(db, query)
    after = db.result_cache.stats()
    assert after["delta_fallbacks"] == before["delta_fallbacks"] + 1
    assert after["topk_refills"] == before["topk_refills"]


def test_topk_entries_counted_separately():
    db = _metrics_db(None, n=12)
    stats = db.result_cache.stats()
    assert stats["topk_entries"] == 0
    db.query(TopKQuery(_probe(), 3))
    db.query(TopKQuery(_probe(), 7))
    from repro.query import PeakCountQuery

    db.query(PeakCountQuery(2, count_tolerance=6))
    db.query(PeakCountQuery(2, count_tolerance=6), limit=2)
    stats = db.result_cache.stats()
    # Two TopKQuery entries + one limited generic entry carry a limit
    # in their key; the unlimited generic entry keeps the 2-tuple key.
    assert stats["topk_entries"] == 3
    assert stats["entries"] == 4


def test_same_query_different_limits_coexist():
    db = _metrics_db(None, n=20)
    from repro.query import PeakCountQuery

    query = PeakCountQuery(2, count_tolerance=6)
    full = db.query(query)
    two = db.query(query, limit=2)
    five = db.query(query, limit=5)
    assert _tuples(two) == _tuples(full[:2])
    assert _tuples(five) == _tuples(full[:5])
    hits_before = db.result_cache.stats()["hits"]
    assert _tuples(db.query(query, limit=2)) == _tuples(two)
    assert _tuples(db.query(query)) == _tuples(full)
    assert db.result_cache.stats()["hits"] == hits_before + 2


def _brute_force_pairs(db, query):
    """Every shard's full distance grade, sorted by (distance, id), cut at k."""
    features = query._features_for(db)
    pairs = []
    for shard in db.store.shards():
        ids, distances = shard.cluster_index().all_distances(features)
        pairs.extend(zip(distances.tolist(), ids.tolist()))
    return sorted(pairs)[: query.k]


def _pairs(matches):
    return [(m.deviations[0].amount, m.sequence_id) for m in matches]


def test_long_stream_standing_nearest_across_journal_compaction():
    # A stream of ticks (25 samples onto 8 of 100 ECGs, 4 shards) under
    # a cached standing NEAREST, read after every step: one-tick steps
    # revalidate by delta.  Every sixth step runs more ticks than a
    # shard's journal ring holds, so the journal compacts past the
    # index's synced generation: ``dirty_ids_since`` answers None, the
    # index rebuilds and the cache falls back to a full evaluation.
    prefix, per_tick, samples, ring = 200, 8, 25, 4
    corpus = ecg_corpus(n_sequences=100, n_points=prefix + 30 * samples, seed=5)
    db = SequenceDatabase(breaker=IncrementalRegressionBreaker(4.0), n_shards=4)
    db.insert_all([Sequence(s.times[:prefix], s.values[:prefix], name=s.name) for s in corpus])
    query = parse_query("NEAREST 10 TO 7", db)
    db.query(query)
    for shard in db.store.shards():
        shard.journal.max_entries = ring
    rng = np.random.default_rng(3)
    length = np.full(len(corpus), prefix)
    indexes = [shard.cluster_index() for shard in db.store.shards()]
    for step in range(24):
        for __ in range(ring + 2 if step % 6 == 5 else 1):
            live = np.flatnonzero(length + samples <= len(corpus[0]))
            ids = np.sort(rng.choice(live, size=per_tick, replace=False)).tolist()
            db.append_many(
                [(i, corpus[i].values[length[i] : length[i] + samples]) for i in ids]
            )
            length[ids] += samples
        cached = _pairs(db.query(query))
        assert cached == _pairs(db.query(query, cache=False))
        assert cached == _brute_force_pairs(db, query)
    assert all(index is shard.cluster_index() for index, shard in zip(indexes, db.store.shards()))
    assert all(index.rebuilds >= 1 for index in indexes)
    stats = db.result_cache.stats()
    assert stats["delta_hits"] >= 16
    assert stats["delta_fallbacks"] >= 4
    assert stats["topk_refills"] >= 1
