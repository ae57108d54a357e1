"""Top-k similarity search: pruned answers are byte-identical to the
full-grade-then-sort path, across shard counts and mutations.

The contract mirrors the cache-delta suite's: ``db.query(TopKQuery(...))``
through the pruned engine path must equal ``db.query_legacy`` (which
grades every live sequence and cuts) and the raw ``all_distances``
oracle, for every shard count, every ``k``, with and without a
``max_distance`` radius, before and after interleaved
insert / append / delete — ids tie-broken ascending.
"""

from __future__ import annotations

import math

import pytest

from repro.core.errors import QueryError
from repro.query import (
    PeakCountQuery,
    SequenceDatabase,
    TopKQuery,
    parse_query,
)
from repro.segmentation.online import IncrementalRegressionBreaker
from repro.workloads import latency_trace, server_metrics_corpus

SHARD_COUNTS = [None, 2, 7]


def _metrics_db(n_shards, n=36, seed=17, max_workers=None):
    db = SequenceDatabase(
        breaker=IncrementalRegressionBreaker(0.5),
        n_shards=n_shards,
        max_workers=max_workers,
    )
    db.insert_all(server_metrics_corpus(n_sequences=n, seed=seed))
    return db


def _mutate_script(db):
    """Interleaved insert / append / delete steps, yielding after each."""
    extra = server_metrics_corpus(n_sequences=6, seed=91)
    yield "insert", db.insert_all(extra[:3])
    db.delete_many(db.ids()[1:3])
    yield "delete", None
    db.append(db.ids()[0], [44.0, 47.0, 41.0, 45.0])
    yield "append", None
    db.insert_all(extra[3:])
    db.delete(db.ids()[-2])
    yield "mixed", None


def _match_tuples(matches):
    return [
        (m.sequence_id, m.grade.name, m.total_deviation, tuple(d.amount for d in m.deviations))
        for m in matches
    ]


# ----------------------------------------------------------------------
# Parity: engine vs legacy vs oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_topk_matches_legacy_across_mutations(n_shards):
    db = _metrics_db(n_shards)
    exemplar = latency_trace(baseline=45.0, n_bursts=3, seed=5, name="probe")
    for k in (1, 4, 11):
        query = TopKQuery(exemplar, k)
        assert _match_tuples(db.query(query)) == _match_tuples(
            db.query(query, engine=False)
        )
    query = TopKQuery(exemplar, 5)
    for _step, __ in _mutate_script(db):
        engine = db.query(query)
        legacy = db.query(query, engine=False)
        assert _match_tuples(engine) == _match_tuples(legacy)
        ids = [m.sequence_id for m in engine]
        assert len(ids) == min(5, len(db.ids()))


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_topk_matches_all_distances_oracle(n_shards):
    db = _metrics_db(n_shards, n=28)
    exemplar = latency_trace(baseline=75.0, seed=7, name="probe")
    k = 9
    matches = db.query(TopKQuery(exemplar, k))
    pairs = []
    for shard in db.store.shards():
        index = shard.cluster_index()
        query_features = TopKQuery(exemplar, k)._features_for(db)
        ids, distances = index.all_distances(query_features)
        pairs.extend(zip(distances.tolist(), ids.tolist()))
    expected = [sequence_id for __, sequence_id in sorted(pairs)[:k]]
    assert [m.sequence_id for m in matches] == expected
    distances = [m.deviations[0].amount for m in matches]
    assert distances == sorted(distances)


@pytest.mark.parametrize("n_shards", [None, 7])
def test_topk_max_distance_radius(n_shards):
    db = _metrics_db(n_shards, n=24)
    exemplar = latency_trace(baseline=45.0, seed=3, name="probe")
    unbounded = db.query(TopKQuery(exemplar, 24))
    radius = unbounded[len(unbounded) // 2].deviations[0].amount
    bounded = db.query(TopKQuery(exemplar, 24, max_distance=radius))
    legacy = db.query(TopKQuery(exemplar, 24, max_distance=radius), engine=False)
    assert _match_tuples(bounded) == _match_tuples(legacy)
    assert all(m.deviations[0].amount <= radius + 1e-12 for m in bounded)
    assert len(bounded) < len(unbounded)
    # Exact-only mode keeps only (near-)zero-distance matches.
    twin = db.insert(latency_trace(baseline=45.0, seed=3, name="probe-twin"))
    exact = db.query(TopKQuery(exemplar, 5), include_approximate=False)
    assert [m.sequence_id for m in exact] == [twin]
    assert _match_tuples(exact) == _match_tuples(
        db.query(TopKQuery(exemplar, 5), include_approximate=False, engine=False)
    )


def test_topk_tie_break_is_ascending_id():
    db = _metrics_db(None, n=10)
    trace = latency_trace(baseline=33.0, seed=41, name="twin")
    first = db.insert(trace)
    second = db.insert(trace)
    matches = db.query(TopKQuery(trace, 2))
    assert [m.sequence_id for m in matches] == [first, second]


def test_topk_exemplar_may_be_representation():
    db = _metrics_db(None, n=12)
    anchor = db.ids()[4]
    matches = db.query(TopKQuery(db.representation_of(anchor), 3))
    assert matches[0].sequence_id == anchor
    assert matches[0].deviations[0].amount == 0.0


# ----------------------------------------------------------------------
# limit= on generic queries
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_shards", [None, 2])
def test_limit_on_generic_query_is_prefix_of_full(n_shards):
    db = _metrics_db(n_shards, n=30)
    query = PeakCountQuery(2, count_tolerance=6)
    full = db.query(query)
    assert len(full) > 3
    for limit in (1, 3, len(full) + 10):
        limited = db.query(query, limit=limit)
        assert _match_tuples(limited) == _match_tuples(full[:limit])
    legacy = db.query(query, engine=False, limit=3)
    assert _match_tuples(legacy) == _match_tuples(full[:3])


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def test_topk_constructor_validation():
    trace = latency_trace(seed=1)
    for bad_k in (0, -2, True, 1.5, "3", None):
        with pytest.raises(QueryError):
            TopKQuery(trace, bad_k)
    for bad_distance in (-1.0, math.nan):
        with pytest.raises(QueryError):
            TopKQuery(trace, 3, max_distance=bad_distance)
    with pytest.raises(QueryError):
        TopKQuery([1.0, 2.0, 3.0], 3)


def test_limit_validation():
    db = _metrics_db(None, n=8)
    query = PeakCountQuery(2, count_tolerance=2)
    for bad_limit in (0, -1, True, 2.5):
        with pytest.raises(QueryError):
            db.query(query, limit=bad_limit)
    with pytest.raises(QueryError):
        db.query(TopKQuery(latency_trace(seed=1), 3), limit=3)
    with pytest.raises(QueryError):
        db.explain(query, limit=0)


# ----------------------------------------------------------------------
# Language form and explain
# ----------------------------------------------------------------------


def test_nearest_language_form():
    db = _metrics_db(None, n=12)
    anchor = db.ids()[2]
    query = parse_query(f"NEAREST 4 TO {anchor}", database=db)
    assert isinstance(query, TopKQuery)
    assert query.k == 4
    matches = db.query(query)
    assert matches[0].sequence_id == anchor
    assert len(matches) == 4
    bounded = parse_query(f"NEAREST 4 TO {anchor} WITHIN 0.5", database=db)
    assert bounded.max_distance == 0.5
    assert [m.sequence_id for m in db.query(bounded)] == [anchor]
    with pytest.raises(QueryError):
        parse_query("NEAREST 4 TO 2")  # needs a database to resolve the id
    with pytest.raises(QueryError):
        parse_query("NEAREST TO 2", database=db)


def test_explain_shows_pruned_stages_and_limit():
    db = _metrics_db(None, n=12)
    text = db.explain(TopKQuery(latency_trace(seed=2), 7))
    assert "sketch-bound -> seed-refine -> bounded-refine" in text
    assert "[limit=7]" in text
    limited = db.explain(PeakCountQuery(2, count_tolerance=2), limit=5)
    assert "[limit=5]" in limited


def test_storage_report_topk_telemetry():
    db = _metrics_db(2, n=20)
    report = db.storage_report()
    assert report["topk"]["built"] is False
    db.query(TopKQuery(latency_trace(baseline=45.0, seed=9), 5))
    report = db.storage_report()
    topk = report["topk"]
    assert topk["built"] is True
    assert topk["queries"] >= 1
    assert topk["candidates_refined"] >= topk["last_candidates_refined"] >= 1
    assert topk["sequences"] == 20
    assert 0.0 <= topk["last_pruned_fraction"] <= 1.0


def test_storage_report_topk_keys_same_sharded_and_unsharded():
    # The sharded report sums whatever counters the shards report, so a
    # counter renamed in ClusterIndex.report() cannot break only sharded
    # databases.
    reports = []
    for n_shards in (None, 4):
        db = _metrics_db(n_shards, n=20)
        db.query(TopKQuery(latency_trace(baseline=45.0, seed=9), 5))
        reports.append(db.storage_report()["topk"])
    assert set(reports[0]) == set(reports[1])
    assert reports[0]["sequences"] == reports[1]["sequences"] == 20
