"""Every write runs through the batch body: no per-segment walk on any mutator.

Single inserts, representation ingest, appends and deletes share the
columnar body of :meth:`SequenceDatabase.insert_all` /
:meth:`~SequenceDatabase.delete_many`.  For the line curve kinds none of
them may call :meth:`Segment.mean_slope`, the scalar ``find_peaks`` or
:meth:`Sequence.subsequence`; once the probes are lifted, the answers
must still equal the ``engine=False`` oracle's.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.query.database as database_module
from repro.core.segment import Segment
from repro.core.sequence import Sequence
from repro.query import (
    ExemplarQuery,
    IntervalQuery,
    PatternQuery,
    PeakCountQuery,
    SequenceDatabase,
    ShapeQuery,
    SteepnessQuery,
    TopKQuery,
    parse_query,
)
from repro.segmentation import IncrementalRegressionBreaker, InterpolationBreaker
from repro.workloads import fever_corpus, goalpost_fever, k_peak_sequence


def _queries():
    return [
        PatternQuery("(0|-)* + (0|-)^+ + (0|-)*"),
        PatternQuery("(0|-)* + (0|-)*", collapse_runs=False),
        PeakCountQuery(2, count_tolerance=1),
        IntervalQuery(12.0, 2.0),
        SteepnessQuery(3.0, slope_tolerance=1.5),
        ShapeQuery(goalpost_fever(), duration_tolerance=0.5, amplitude_tolerance=0.5),
        ExemplarQuery(k_peak_sequence([6.0, 18.0], noise=0.0), epsilon=0.5),
        TopKQuery(goalpost_fever(), 3),
        parse_query("COUNT MATCHING '+-'"),
        parse_query("POSITIONS OF '-0'"),
    ]


def _forbidden(name):
    def probe(*args, **kwargs):
        raise AssertionError(f"{name} called on a write path")

    return probe


@pytest.mark.parametrize("breaker", ["interpolation", "online"])
@pytest.mark.parametrize("curve_kind", ["regression", "interpolation"])
@pytest.mark.parametrize("n_shards", [1, 4])
def test_mutators_never_walk_segments(monkeypatch, n_shards, curve_kind, breaker):
    corpus = fever_corpus(n_two_peak=6, n_one_peak=4, n_three_peak=4)
    make_breaker = {
        "interpolation": lambda: InterpolationBreaker(0.5),
        "online": lambda: IncrementalRegressionBreaker(0.5),
    }[breaker]
    db = SequenceDatabase(breaker=make_breaker(), curve_kind=curve_kind, n_shards=n_shards)
    prebuilt = make_breaker().represent(corpus[-1], curve_kind=curve_kind)
    rng = np.random.default_rng(0)

    with monkeypatch.context() as patch:
        patch.setattr(Segment, "mean_slope", _forbidden("Segment.mean_slope"))
        patch.setattr(database_module, "find_peaks", _forbidden("find_peaks"))
        patch.setattr(Sequence, "subsequence", _forbidden("Sequence.subsequence"))
        first = db.insert(corpus[0])
        ids = [first, *db.insert_all(corpus[1:-1])]
        ids.append(db.insert_representation(prebuilt, name="prebuilt"))
        db.append_many(
            [(sequence_id, 37.0 + rng.normal(0.0, 0.3, 6)) for sequence_id in ids[:-1:3]]
        )
        db.append(ids[1], 37.0 + rng.normal(0.0, 0.3, 4))
        db.delete(ids[2])
        db.delete_many(ids[5::4])

    db.store.check_consistency()
    for query in _queries():
        assert db.query(query, cache=False) == db.query(query, engine=False), query
