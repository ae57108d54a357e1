"""Lower-bound pruned top-k index: lower-bound invariants,
journal-driven maintenance, and topk-vs-oracle equality.

The load-bearing property is GEMINI-style losslessness: the sketch
lower bound must never exceed the true profile distance, so every
prune in :meth:`ClusterIndex.topk` is a proof and the pruned answer
equals the full-grade-then-sort oracle exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tolerance import EXACT_EPSILON
from repro.engine.clustering import (
    N_FEATURES,
    ClusterIndex,
    chunked_distances,
    lower_bound_scale,
    profile_features,
    profile_rows,
    sketch_of,
)
from repro.query import SequenceDatabase
from repro.workloads import server_metrics_corpus


def _metrics_db(n=40, seed=17):
    db = SequenceDatabase()
    db.insert_all(server_metrics_corpus(n_sequences=n, seed=seed))
    return db


# ----------------------------------------------------------------------
# Profile features
# ----------------------------------------------------------------------


def test_profile_features_shape_and_determinism():
    db = _metrics_db(n=8)
    index = db.store.cluster_index()
    for sequence_id in db.ids():
        features = index.features_of(sequence_id)
        assert features.shape == (N_FEATURES,)
        assert np.array_equal(features, index.features_of(sequence_id))


def test_profile_features_store_matches_representation():
    # The store copies the segment columns verbatim at ingest, so a
    # profile built from the representation equals the index's row bit
    # for bit — the foundation of query-side/store-side parity.
    db = _metrics_db(n=10)
    index = db.store.cluster_index()
    for sequence_id in db.ids():
        columns = db.representation_of(sequence_id).segment_columns()
        direct = profile_features(
            columns["start_time"], columns["end_time"],
            columns["start_value"], columns["end_value"],
        )
        assert np.array_equal(direct, index.features_of(sequence_id))


def test_profile_features_empty_and_single_segment():
    assert np.array_equal(
        profile_features(np.array([]), np.array([]), np.array([]), np.array([])),
        np.zeros(N_FEATURES),
    )
    single = profile_features(
        np.array([0.0]), np.array([4.0]), np.array([1.0]), np.array([9.0])
    )
    assert single.shape == (N_FEATURES,)
    assert single[0] == pytest.approx(1.0)
    assert single[-1] == pytest.approx(9.0)


def _interp_profile(start_times, end_times, start_values, end_values):
    """The profile as one ``np.interp`` call over the interleaved endpoints."""
    n = len(start_times)
    if n == 0:
        return np.zeros(N_FEATURES)
    xp = np.empty(2 * n)
    xp[0::2], xp[1::2] = start_times, end_times
    fp = np.empty(2 * n)
    fp[0::2], fp[1::2] = start_values, end_values
    ts = xp[0] + (np.arange(N_FEATURES) / (N_FEATURES - 1)) * (xp[-1] - xp[0])
    return np.interp(ts, xp, fp)


@pytest.mark.parametrize("seed", range(8))
def test_profile_rows_equal_np_interp_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    pieces = []
    for __ in range(int(rng.integers(1, 14))):
        k = int(rng.integers(0, 40))
        offset = rng.choice([0.0, 1e6, -3e3])
        cuts = np.sort(rng.choice(100_000, size=2 * k, replace=False)) * rng.choice([1e-3, 1.0, 7.5])
        start_times, end_times = cuts[0::2] + offset, cuts[1::2] + offset
        single = rng.random(k) < 0.25  # one-point segments repeat a time
        end_times[single] = start_times[single]
        pieces.append((start_times, end_times, rng.normal(0, 40, k), rng.normal(0, 40, k)))
    counts = np.array([len(piece[0]) for piece in pieces])
    starts = np.cumsum(counts) - counts
    order = rng.permutation(len(pieces))  # rows need not follow storage order
    profiles = profile_rows(
        *(np.concatenate([piece[c] for piece in pieces]) for c in range(4)),
        starts[order],
        counts[order],
    )
    for row, piece in zip(profiles, (pieces[i] for i in order)):
        assert np.array_equal(row, _interp_profile(*piece))


# ----------------------------------------------------------------------
# Lower-bound invariants (property tests over random profiles)
# ----------------------------------------------------------------------


def test_sketch_lower_bound_never_exceeds_true_distance():
    rng = np.random.default_rng(3)
    scale = lower_bound_scale()
    for _ in range(200):
        q = rng.normal(scale=rng.uniform(0.1, 50.0), size=N_FEATURES)
        s = rng.normal(scale=rng.uniform(0.1, 50.0), size=N_FEATURES)
        true = float(np.linalg.norm(q - s))
        bound = scale * float(np.linalg.norm(sketch_of(q) - sketch_of(s)))
        assert bound <= true


def test_sketch_lower_bound_holds_on_real_profiles():
    db = _metrics_db(n=30)
    index = db.store.cluster_index()
    scale = lower_bound_scale()
    ids = db.ids()
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = rng.choice(ids, size=2, replace=False)
        fa, fb = index.features_of(int(a)), index.features_of(int(b))
        true, __ = chunked_distances(fa, fb)
        bound = scale * float(np.linalg.norm(sketch_of(fa) - sketch_of(fb)))
        assert bound <= float(true[0])


def test_chunked_distances_matches_norm_and_abandons_soundly():
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(64, N_FEATURES))
    query = rng.normal(size=N_FEATURES)
    distances, abandoned = chunked_distances(rows, query)
    assert abandoned == 0
    assert np.allclose(distances, np.linalg.norm(rows - query, axis=1))
    bound = float(np.median(distances))
    pruned, abandoned = chunked_distances(rows, query, abandon_above=bound)
    assert abandoned > 0
    finite = np.isfinite(pruned)
    # Surviving rows carry their exact distance; abandoned rows are all
    # provably beyond the bound.
    assert np.array_equal(pruned[finite], distances[finite])
    assert (distances[~finite] > bound).all()


def _chunk_loop(rows, query, abandon_above=None):
    """Per-chunk ``sum(axis=1)`` accumulation with a shrinking live set:
    the early-abandoning loop the vectorized kernel must reproduce."""
    partial = np.zeros(len(rows))
    alive = np.ones(len(rows), dtype=bool)
    limit = np.inf if abandon_above is None else abandon_above**2 * (1.0 + 1e-9)
    for lo in range(0, rows.shape[1], 8):
        live = np.flatnonzero(alive)
        diff = rows[live, lo : lo + 8] - query[lo : lo + 8]
        partial[live] += (diff * diff).sum(axis=1)
        if lo + 8 < rows.shape[1]:
            alive[live[partial[live] > limit]] = False
    distances = np.sqrt(partial)
    distances[~alive] = np.inf
    return distances, int((~alive).sum())


@pytest.mark.parametrize("seed", range(6))
def test_chunked_distances_bit_identical_to_chunk_loop_and_subsets(seed):
    rng = np.random.default_rng(seed)
    scale = [1e-6, 1.0, 50.0, 1e6, 3.0, 0.5][seed]
    n = int(rng.integers(1, 600))
    rows = rng.normal(rng.normal(0, scale), scale, (n, N_FEATURES))
    query = rng.normal(0, scale, N_FEATURES)
    full, __ = chunked_distances(rows, query)
    assert np.array_equal(full, _chunk_loop(rows, query)[0])
    subset = rng.choice(n, size=max(1, n // 3), replace=False)
    assert np.array_equal(chunked_distances(rows[subset], query)[0], full[subset])
    bound = float(np.quantile(full, rng.random()))
    got, abandoned = chunked_distances(rows, query, abandon_above=bound)
    expected, expected_abandoned = _chunk_loop(rows, query, abandon_above=bound)
    assert np.array_equal(got, expected)
    assert abandoned == expected_abandoned


# ----------------------------------------------------------------------
# topk vs the full-grade oracle
# ----------------------------------------------------------------------


def _oracle(index, query, k, threshold=np.inf):
    ids, distances = index.all_distances(query)
    order = sorted(zip(distances.tolist(), ids.tolist()))
    return [(d, i) for d, i in order if d <= threshold][:k]


def test_topk_equals_oracle_for_many_queries_and_ks():
    db = _metrics_db(n=60)
    index = db.store.cluster_index()
    rng = np.random.default_rng(13)
    for trial in range(12):
        anchor = index.features_of(int(rng.choice(db.ids())))
        query = anchor + rng.normal(scale=rng.uniform(0.0, 10.0), size=N_FEATURES)
        for k in (1, 5, 17, 200):
            assert index.topk(query, k) == _oracle(index, query, k)


def test_topk_threshold_and_empty_cases():
    db = _metrics_db(n=20)
    index = db.store.cluster_index()
    query = index.features_of(db.ids()[0])
    ids, distances = index.all_distances(query)
    threshold = float(np.median(distances))
    assert index.topk(query, 50, threshold=threshold) == _oracle(
        index, query, 50, threshold=threshold
    )
    assert index.topk(query, 0) == []
    empty = ClusterIndex(SequenceDatabase().store)
    empty.sync()
    assert empty.topk(query, 5) == []


def test_topk_tie_breaks_on_ascending_id():
    db = SequenceDatabase()
    corpus = server_metrics_corpus(n_sequences=6, seed=23)
    db.insert_all(corpus)
    # Re-ingest the same trace twice: identical profiles, distinct ids.
    twin_a = db.insert(corpus[0])
    twin_b = db.insert(corpus[0])
    index = db.store.cluster_index()
    query = index.features_of(twin_a)
    top = index.topk(query, 2)
    assert [sequence_id for __, sequence_id in top] == [0, twin_a]
    # 0 and the twins are equidistant groups; within the twin pair the
    # smaller id must come first when both fit.
    top4 = index.topk(query, 3)
    assert top4[1][1] < top4[2][1]
    assert top4[1][0] == top4[2][0]


def _index_over(ids, features):
    """A detached index whose rows are exactly ``features`` under ``ids``."""
    index = ClusterIndex(SequenceDatabase().store)
    index._ids = np.asarray(ids, dtype=np.int64)
    index._features = np.asarray(features, dtype=np.float64).reshape(-1, N_FEATURES)
    index._sketches = sketch_of(index._features)
    return index


def _brute_force(index, query, k, threshold):
    """Every distance, filtered by threshold, sorted by (distance, id), cut at k."""
    ids, distances = index.all_distances(query)
    keep = distances <= threshold
    pairs = sorted(zip(distances[keep].tolist(), ids[keep].tolist()))
    return pairs[: max(k, 0)]


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(0, 40),
    n_distinct=st.integers(1, 6),
    spread=st.sampled_from([0.0, 1e-6, 1.0, 40.0]),
    query_is_row=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_topk_equals_brute_force_property(n, n_distinct, spread, query_is_row, seed):
    rng = np.random.default_rng(seed)
    # Few distinct profiles, replicated: exact distance ties are common.
    pool = rng.normal(50.0, 10.0, (n_distinct, N_FEATURES))
    features = pool[rng.integers(0, n_distinct, n)] + rng.normal(0.0, spread, (n, N_FEATURES))
    features[rng.random(n) < 0.3] = pool[0]
    ids = np.cumsum(rng.integers(1, 5, n))
    index = _index_over(ids, features)
    query = pool[0] if query_is_row else pool[0] + rng.normal(0.0, 5.0, N_FEATURES)
    __, distances = index.all_distances(query)
    ranked = np.sort(distances)
    for k in sorted({0, 1, n - 1, n, n + 3}):
        kth = [float(ranked[min(k, n) - 1])] if n and k > 0 else []
        for threshold in [np.inf, 0.0, EXACT_EPSILON, *kth]:
            got = index.topk(query, k, threshold=threshold)
            assert got == _brute_force(index, query, k, threshold)
            assert all(np.isfinite(distance) for distance, __ in got)


# ----------------------------------------------------------------------
# Maintenance: sync vs rebuild, staleness, compaction
# ----------------------------------------------------------------------


def test_incremental_sync_equals_fresh_rebuild():
    db = _metrics_db(n=40)
    index = db.store.cluster_index()  # built at generation g0
    extra = server_metrics_corpus(n_sequences=12, seed=99)
    db.insert_all(extra[:6])
    db.delete_many(db.ids()[1:4])
    db.append(db.ids()[0], [55.0, 60.0, 52.0, 49.0])
    db.insert_all(extra[6:])
    synced = db.store.cluster_index()  # journal replay, not rebuild
    assert synced is index
    fresh = ClusterIndex(db.store)
    fresh.sync()
    assert np.array_equal(synced._ids, fresh._ids)
    assert np.array_equal(synced._features, fresh._features)
    rng = np.random.default_rng(31)
    for _ in range(6):
        query = fresh.features_of(int(rng.choice(db.ids())))
        assert synced.topk(query, 9) == fresh.topk(query, 9)


def test_long_append_run_replays_without_rebuild():
    # The rows are exact images of the store, so however many dirty ids
    # the journal replays, no staleness rebuild is ever needed.
    db = _metrics_db(n=30)
    index = db.store.cluster_index()
    sequence_id = db.ids()[0]
    for round_ in range(70):
        db.append(sequence_id, [float(round_)])
        assert db.store.cluster_index() is index
    assert index.rebuilds == 0
    fresh = ClusterIndex(db.store)
    fresh.sync()
    assert np.array_equal(index._features, fresh._features)
    assert np.array_equal(index._sketches, fresh._sketches)


def test_journal_compaction_forces_rebuild():
    db = _metrics_db(n=20)
    index = db.store.cluster_index()
    before = index.rebuilds
    db.store.journal.max_entries = 2
    for round_ in range(4):
        db.append(db.ids()[round_], [9.0, 11.0])
    synced = db.store.cluster_index()
    assert synced.rebuilds == before + 1
    fresh = ClusterIndex(db.store)
    fresh.sync()
    assert np.array_equal(synced._features, fresh._features)


def test_report_counters_move():
    db = _metrics_db(n=30)
    index = db.store.cluster_index()
    report = index.report()
    assert report["built"] and report["sequences"] == 30
    assert report["representatives"] == report["stale_mutations"] == 0
    query = index.features_of(db.ids()[3])
    index.topk(query, 3)
    after = index.report()
    assert after["queries"] == 1
    assert after["clusters_probed"] == after["clusters_pruned"] == 0
    assert after["last_rows_considered"] == 30
    assert after["candidates_refined"] == after["last_candidates_refined"] >= 3
    assert after["members_pruned"] == 30 - after["last_candidates_refined"]
    assert 0.0 <= after["last_pruned_fraction"] <= 1.0
    assert after["nbytes"] > 0


# ----------------------------------------------------------------------
# Batched journal replay: property test against a fresh index
# ----------------------------------------------------------------------

_ANY = st.integers(0, 10**6)
_ACTIONS = st.one_of(
    st.tuples(st.just("insert"), st.integers(1, 3)),
    st.tuples(st.just("delete"), st.lists(_ANY, min_size=1, max_size=3)),
    # A 1e3 scale moves a profile far from every other row.
    st.tuples(
        st.just("append"),
        st.lists(_ANY, min_size=1, max_size=5),
        st.integers(1, 40),
        st.sampled_from([1.0, 1e3]),
    ),
    # Deleted and re-appended inside one sync window.
    st.tuples(st.just("append_then_delete"), _ANY),
)


def _assert_replayed_like_fresh(store):
    index = store.cluster_index()
    fresh = ClusterIndex(store)
    fresh.sync()
    assert np.array_equal(index._ids, fresh._ids)
    assert np.array_equal(index._features, fresh._features)
    assert np.array_equal(index._sketches, fresh._sketches)
    if len(index):
        query = index._features[len(index) // 2] + 3.0
        for k in (1, 3, len(index) + 2):
            assert index.topk(query, k) == _oracle(index, query, k)


@settings(max_examples=30, deadline=None)
@given(
    n_shards=st.sampled_from([1, 4]),
    windows=st.lists(st.lists(_ACTIONS, min_size=1, max_size=4), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_batched_replay_equals_fresh_index(n_shards, windows, seed):
    rng = np.random.default_rng(seed)
    db = SequenceDatabase(n_shards=n_shards)
    db.insert_all(server_metrics_corpus(n_sequences=16, seed=17))
    extra = iter(server_metrics_corpus(n_sequences=48, seed=5))
    for shard in db.store.shards():
        shard.cluster_index()  # built now: later syncs replay the journal
    for window in windows:
        for action in window:
            ids = db.ids()
            if action[0] == "insert":
                db.insert_all([next(extra) for __ in range(action[1])])
            elif not ids:
                continue
            elif action[0] == "delete":
                db.delete_many(sorted({ids[i % len(ids)] for i in action[1]}))
            elif action[0] == "append":
                __, picks, size, scale = action
                targets = sorted({ids[i % len(ids)] for i in picks})
                db.append_many(
                    [(target, scale * rng.normal(50.0, 5.0, size)) for target in targets]
                )
            else:
                target = ids[action[1] % len(ids)]
                db.append(target, rng.normal(50.0, 5.0, 7))
                db.delete(target)
        for shard in db.store.shards():
            _assert_replayed_like_fresh(shard)
