"""No write path builds a per-segment object for the line curve kinds.

A regression or interpolation representation is its arrays: bulk
ingest fits every window of a batch with one kernel call, appends slice
and join those arrays, and deletes never look at a segment.  With the
:class:`Segment` and :class:`LinearFunction` constructors made to raise,
every mutator must still run; once they are restored, the answers must
equal the ``engine=False`` oracle's and the on-demand segments must
equal a per-window fit of the raw data.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.segment import Segment
from repro.functions.fitting import get_fitter
from repro.functions.linear import LinearFunction
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


def _window_segments(sequence, windows, curve_kind):
    """Per-window ``get_fitter(kind)`` fits, built here as the reference."""
    segments = []
    for start, end in windows:
        piece = sequence.subsequence(start, end)
        function = get_fitter(curve_kind if len(piece) > 1 else "regression")(piece)
        segments.append(Segment(function, start, end, piece[0], piece[-1]))
    return tuple(segments)


@pytest.mark.parametrize("breaker", ["offline", "online"])
@pytest.mark.parametrize("curve_kind", ["regression", "interpolation"])
@pytest.mark.parametrize("n_shards", [1, 4])
def test_mutators_build_no_segment_objects(monkeypatch, n_shards, curve_kind, breaker):
    corpus = fever_corpus(n_two_peak=6, n_one_peak=4, n_three_peak=4)
    make_breaker = {
        "offline": lambda: InterpolationBreaker(0.5),
        "online": lambda: IncrementalRegressionBreaker(0.5),
    }[breaker]
    db = SequenceDatabase(breaker=make_breaker(), curve_kind=curve_kind, n_shards=n_shards)
    prebuilt = make_breaker().represent(corpus[-1], curve_kind=curve_kind)
    rng = np.random.default_rng(1)

    with monkeypatch.context() as patch:
        patch.setattr(Segment, "trusted", _forbidden("Segment.trusted"))
        patch.setattr(Segment, "__init__", _forbidden("Segment.__init__"))
        patch.setattr(LinearFunction, "__init__", _forbidden("LinearFunction.__init__"))
        ids = db.insert_all(corpus[:-1])
        ids.append(db.insert(corpus[0]))
        prebuilt_id = db.insert_representation(prebuilt, name="prebuilt")
        db.append_many(
            [(sequence_id, 37.0 + rng.normal(0.0, 0.3, 6)) for sequence_id in ids[::3]]
        )
        db.append_many([(ids[1], 37.0 + rng.normal(0.0, 0.3, 30))])
        db.delete_many(ids[5::4])
        db.delete(ids[2])

    db.store.check_consistency()
    for query in _queries():
        assert db.query(query, cache=False) == db.query(query, engine=False), query
    for sequence_id in db.ids():
        representation = db.representation_of(sequence_id)
        if sequence_id == prebuilt_id:
            assert representation.segments == prebuilt.segments
            continue
        sequence = db.raw_sequence(sequence_id)
        expected = _window_segments(sequence, representation.windows(), curve_kind)
        assert representation.segments == expected
        assert list(representation) == list(expected)
        assert representation[-1] == expected[-1]
