"""Columnar match materialization equals the per-row body it replaced.

``QueryExecutor._materialize`` grades verdict columns, orders the kept
rows with one ``lexsort`` and shares one deviation tuple per distinct
deviation row.  The oracle below is the per-row body it replaced,
kept verbatim: one ``DimensionDeviation`` per row and dimension, then
a ``sorted`` by :meth:`QueryMatch.sort_key`.  Both must return equal
lists on random verdicts: 0-3 dimensions, ties in total deviation
(broken by ascending id), ``-0.0``, ``inf`` and ``NaN`` amounts, empty
verdict sets, and either setting of ``include_approximate``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.errors import QueryError
from repro.core.tolerance import (
    EXACT_EPSILON,
    WITHIN_EPSILON,
    DimensionDeviation,
    MatchGrade,
)
from repro.engine.executor import QueryExecutor
from repro.engine.plan import DimensionColumn, VectorVerdicts
from repro.query import SequenceDatabase
from repro.query.results import QueryMatch
from repro.workloads import fever_corpus


class _Names:
    """The two name lookups ``_materialize`` may use, over ``seq-<id>``."""

    def name_of(self, sequence_id):
        return f"seq-{sequence_id}"

    def names_of(self, sequence_ids):
        return [self.name_of(sequence_id) for sequence_id in sequence_ids]


def _oracle(database, verdicts, include_approximate):
    """The per-row materialization body, as it stood before columns."""
    n = len(verdicts.sequence_ids)
    within = np.ones(n, dtype=bool)
    exact = np.ones(n, dtype=bool)
    for dim in verdicts.dimensions:
        within &= dim.amounts <= dim.bound + WITHIN_EPSILON
        exact &= dim.amounts <= EXACT_EPSILON
    keep = within & (exact | include_approximate)
    matches = []
    ids = verdicts.sequence_ids
    for i in np.flatnonzero(keep):
        deviations = tuple(
            DimensionDeviation(dim.dimension, float(dim.amounts[i]), dim.bound)
            for dim in verdicts.dimensions
        )
        grade = MatchGrade.EXACT if exact[i] else MatchGrade.APPROXIMATE
        sequence_id = int(ids[i])
        matches.append(
            QueryMatch(sequence_id, database.name_of(sequence_id), grade, deviations)
        )
    return sorted(matches, key=QueryMatch.sort_key)


def _left_to_right(amounts):
    total = 0.0
    for amount in amounts:
        total = total + amount
    return total


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


# A small pool makes equal rows and equal totals common (1 + 2 == 2 + 1);
# EXACT_EPSILON-sized residues straddle the exact/approximate line.
_AMOUNTS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1e-13, 1e-11, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, np.inf, np.nan]
    ),
    st.floats(min_value=0.0, max_value=10.0),
)
_BOUNDS = st.sampled_from([0.0, 0.5, 1.0, 3.0, np.inf])


@st.composite
def _verdicts(draw):
    n_dims = draw(st.integers(min_value=0, max_value=3))
    ids = draw(st.lists(st.integers(min_value=0, max_value=10_000), unique=True, max_size=40))
    if draw(st.booleans()):
        ids = sorted(ids)
    dimensions = tuple(
        DimensionColumn(
            f"dim{d}",
            np.array(draw(st.lists(_AMOUNTS, min_size=len(ids), max_size=len(ids))), dtype=float),
            draw(_BOUNDS),
        )
        for d in range(n_dims)
    )
    return VectorVerdicts(np.array(ids, dtype=np.int64), dimensions)


@settings(max_examples=300, deadline=None)
@given(verdicts=_verdicts(), include_approximate=st.booleans())
def test_materialize_equals_per_row_oracle(verdicts, include_approximate):
    names = _Names()
    if len(verdicts.dimensions) > 2:
        # The lexsort key adds amounts left to right.  For one or two
        # terms that equals ``sum`` bit for bit on every Python, but
        # from 3.12 ``sum`` is compensated, and for three terms it can
        # round differently (0.1 + 0.2 + 0.3 is 0.6000000000000001
        # left to right, 0.6 compensated), which can reorder near-ties.
        # No plan grades more than two dimensions, so three-dimension
        # rows are compared only where the two sums agree.
        assume(
            all(
                _same_float(_left_to_right(row), sum(row))
                for row in zip(*(dim.amounts.tolist() for dim in verdicts.dimensions))
            )
        )
    expected = _oracle(names, verdicts, include_approximate)
    got = QueryExecutor()._materialize(names, verdicts, include_approximate)

    assert got == expected
    keys = [match.sort_key() for match in got]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # Equal deviation rows (bit for bit) share one tuple; others do not.
    by_bits = {}
    for match in got:
        bits = tuple(np.float64(d.amount).view(np.int64).item() for d in match.deviations)
        shared = by_bits.setdefault(bits, match.deviations)
        assert match.deviations is shared
    assert len({id(match.deviations) for match in got}) == len(by_bits)


def test_signed_zero_rows_stay_distinct():
    verdicts = VectorVerdicts(
        np.array([3, 1, 2], dtype=np.int64),
        (DimensionColumn("d", np.array([0.0, -0.0, 0.0]), 1.0),),
    )
    got = QueryExecutor()._materialize(_Names(), verdicts, True)
    assert [match.sequence_id for match in got] == [1, 2, 3]
    assert [str(match.deviations[0].amount) for match in got] == ["-0.0", "0.0", "0.0"]
    assert got[1].deviations is got[2].deviations
    assert got[0].deviations is not got[1].deviations


def test_names_of_is_name_of_in_bulk():
    db = SequenceDatabase()
    ids = db.insert_all(fever_corpus(n_two_peak=2, n_one_peak=1, n_three_peak=1))
    db.delete(ids[1])
    live = [ids[3], ids[0], ids[2]]
    assert db.names_of(live) == [db.name_of(sequence_id) for sequence_id in live]
    assert db.names_of([]) == []
    with pytest.raises(QueryError) as bulk:
        db.names_of([ids[0], ids[1]])
    with pytest.raises(QueryError) as single:
        db.name_of(ids[1])
    assert str(bulk.value) == str(single.value)
