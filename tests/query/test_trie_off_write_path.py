"""The pattern tries stay off the write and read paths.

Both :class:`~repro.index.pattern_index.PatternIndex` tries build their
nodes on the first exact-substring lookup.  Ingest, append, delete and
every engine query family must leave them unbuilt, and the answers must
still equal the ``engine=False`` oracle's.
"""

from __future__ import annotations

import numpy as np
import pytest

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
from repro.segmentation import InterpolationBreaker
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


@pytest.mark.parametrize("n_shards", [1, 4])
def test_mutations_and_queries_build_no_trie_nodes(n_shards):
    db = SequenceDatabase(breaker=InterpolationBreaker(0.5), n_shards=n_shards)
    ids = db.insert_all(fever_corpus(n_two_peak=6, n_one_peak=4, n_three_peak=4))
    rng = np.random.default_rng(0)
    db.append_many(
        [(sequence_id, 37.0 + rng.normal(0.0, 0.3, 6)) for sequence_id in ids[::3]]
    )
    db.delete_many(ids[1::4])
    for query in _queries():
        assert db.query(query, cache=False) == db.query(query, engine=False), query
    assert db.pattern_index._trie.node_count() == 0
    assert db.behavior_index._trie.node_count() == 0
