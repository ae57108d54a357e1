"""Cluster-representative pruning index: lower-bound invariants,
journal-driven maintenance, and topk-vs-oracle equality.

The load-bearing property is GEMINI-style losslessness: the sketch
lower bound must never exceed the true profile distance, for member
bounds and for cluster (representative - radius) bounds alike, so every
prune in :meth:`ClusterIndex.topk` is a proof and the pruned answer
equals the full-grade-then-sort oracle exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.clustering import (
    N_FEATURES,
    ClusterIndex,
    _sketch_gaps,
    chunked_distances,
    lower_bound_scale,
    profile_features,
    profile_rows,
    sketch_of,
)
from repro.index import stale_rebuild_due
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


def test_cluster_level_bound_never_exceeds_member_distance():
    db = _metrics_db(n=40)
    index = db.store.cluster_index()
    scale = lower_bound_scale()
    rng = np.random.default_rng(7)
    queries = [
        index.features_of(int(rng.choice(db.ids()))) + rng.normal(scale=3.0, size=N_FEATURES)
        for _ in range(10)
    ]
    for query in queries:
        query_sketch = sketch_of(query)
        for cluster in index._clusters:
            if not cluster.member_ids:
                continue
            gap = float(np.linalg.norm(cluster.representative - query_sketch))
            cluster_bound = scale * max(0.0, gap - cluster.radius)
            for member in cluster.member_ids:
                true, __ = chunked_distances(index.features_of(member), query)
                assert cluster_bound <= float(true[0])


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


def test_staleness_ratio_triggers_rebuild():
    db = _metrics_db(n=30)
    index = db.store.cluster_index()
    assert index.rebuilds == 0
    # Push enough journal-dirty ids through sync to trip the shared
    # staleness policy (floor 64, ratio 2*stale > total).
    sequence_id = db.ids()[0]
    for round_ in range(70):
        db.append(sequence_id, [float(round_)])
        db.store.cluster_index()
    assert index.rebuilds >= 1
    assert stale_rebuild_due(65, 30, ClusterIndex._STALE_FLOOR)


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
    assert report["representatives"] == index.n_clusters > 1
    query = index.features_of(db.ids()[3])
    index.topk(query, 3)
    after = index.report()
    assert after["queries"] == 1
    assert after["clusters_probed"] >= 1
    assert after["last_rows_considered"] == 30
    assert 0.0 <= after["last_pruned_fraction"] <= 1.0
    assert after["nbytes"] > 0


# ----------------------------------------------------------------------
# Batched journal replay: property test against a fresh index
# ----------------------------------------------------------------------

_ANY = st.integers(0, 10**6)
_ACTIONS = st.one_of(
    st.tuples(st.just("insert"), st.integers(1, 3)),
    st.tuples(st.just("delete"), st.lists(_ANY, min_size=1, max_size=3)),
    # A 1e3 scale moves a profile far past tau: it founds a cluster.
    st.tuples(
        st.just("append"),
        st.lists(_ANY, min_size=1, max_size=5),
        st.integers(1, 40),
        st.sampled_from([1.0, 1e3]),
    ),
    # Deleted and re-appended inside one sync window.
    st.tuples(st.just("append_then_delete"), _ANY),
)


def _interleaved_replay(clusters, dirty, fresh, tau):
    """The id-by-id replay: remove, then re-admit each dirty id in turn,
    restacking every representative for each id (the leader rule)."""
    clusters = [[rep.copy(), list(members), radius] for rep, members, radius in clusters]
    owner = {m: k for k, (__, members, __) in enumerate(clusters) for m in members}
    for sequence_id in sorted(dirty):
        k = owner.pop(sequence_id, None)
        if k is not None:
            clusters[k][1].remove(sequence_id)
        row = int(np.searchsorted(fresh._ids, sequence_id))
        if row == len(fresh._ids) or fresh._ids[row] != sequence_id:
            continue  # deleted
        sketch = fresh._sketches[row]
        if clusters:
            gaps = _sketch_gaps(np.stack([cluster[0] for cluster in clusters]), sketch)
            best = int(np.argmin(gaps))
            if gaps[best] <= tau:
                clusters[best][1].append(sequence_id)
                clusters[best][2] = max(clusters[best][2], float(gaps[best]))
                owner[sequence_id] = best
                continue
        clusters.append([sketch.copy(), [sequence_id], 0.0])
        owner[sequence_id] = len(clusters) - 1
    return clusters


def _assert_replayed_like_fresh(store):
    before = store._cluster_index
    snapshot = [
        (cluster.representative, cluster.member_ids, cluster.radius)
        for cluster in before._clusters
    ]
    dirty = store.dirty_ids_since((before._synced_generation,))
    rebuilds = before.rebuilds
    index = store.cluster_index()
    fresh = ClusterIndex(store)
    fresh.sync()
    assert np.array_equal(index._ids, fresh._ids)
    assert np.array_equal(index._features, fresh._features)
    assert np.array_equal(index._sketches, fresh._sketches)
    members = [m for cluster in index._clusters for m in cluster.member_ids]
    assert sorted(members) == index._ids.tolist()  # a partition of the live ids
    for cluster in index._clusters:
        if not cluster.member_ids:
            continue
        rows = np.searchsorted(index._ids, cluster.member_ids)
        gaps = _sketch_gaps(index._sketches[rows], cluster.representative)
        # The invariant the cluster lower bound prunes on.
        assert bool((gaps <= cluster.radius).all())
    if dirty is not None and index.rebuilds == rebuilds:
        # The batched replay equals removing and re-admitting id by id:
        # same representatives, member order and radii.
        reference = _interleaved_replay(snapshot, dirty, fresh, index._tau)
        assert len(reference) == len(index._clusters)
        for (rep, members, radius), cluster in zip(reference, index._clusters):
            assert np.array_equal(rep, cluster.representative)
            assert members == cluster.member_ids
            assert radius == cluster.radius
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
