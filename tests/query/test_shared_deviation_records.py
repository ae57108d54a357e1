"""Graded answers build one deviation record per distinct deviation row.

A vectorized plan grades whole columns; materializing its answer
builds the :class:`DimensionDeviation` tuple of each *distinct* row of
deviation amounts once and lets every match with that row share it.
With the constructor counted, a ``db.query`` of a PEAKS and an
INTERVAL statement must construct exactly one record per distinct row
and dimension, and equal deviations must be the same tuple object,
while the answers still equal the ``engine=False`` oracle's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tolerance import DimensionDeviation
from repro.query import SequenceDatabase, parse_query
from repro.segmentation import InterpolationBreaker
from repro.workloads import ecg_corpus


def _row_bits(match):
    return tuple(np.float64(d.amount).view(np.int64).item() for d in match.deviations)


@pytest.fixture(scope="module", params=[1, 4], ids=["unsharded", "4-shards"])
def ecg_db(request):
    db = SequenceDatabase(breaker=InterpolationBreaker(10.0), theta=5.0, n_shards=request.param)
    db.insert_all(ecg_corpus(n_sequences=60, n_points=600, seed=3))
    return db


@pytest.mark.parametrize("statement", ["PEAKS 4 TOLERANCE 2", "INTERVAL 150 +/- 40"])
def test_one_deviation_record_per_distinct_row(monkeypatch, ecg_db, statement):
    query = parse_query(statement)
    constructed = []
    original = DimensionDeviation.__init__

    def counting(self, *args, **kwargs):
        constructed.append(args)
        original(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(DimensionDeviation, "__init__", counting)
        matches = ecg_db.query(query, cache=False)

    rows = {_row_bits(match) for match in matches}
    assert len(matches) > len(rows) > 0, "the corpus must repeat some deviation rows"
    assert len(constructed) == len(rows) * len(matches[0].deviations)
    first = {}
    for match in matches:
        assert match.deviations is first.setdefault(_row_bits(match), match.deviations)
    assert matches == ecg_db.query(query, engine=False)
