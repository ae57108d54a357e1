"""Frontier-batched breaking vs the scalar recursion: byte parity.

The batched kernel (:func:`repro.segmentation.break_frontier`) must
produce *exactly* the boundaries the scalar Figure-8 recursion produces
— same windows, same split-side decisions, bit for bit — across every
workload family and every ``split_side`` mode, because the database's
bulk ingest path feeds everything (representations, symbol strings,
peaks, the columnar store) from its output.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sequence import Sequence
from repro.functions.fitting import get_fitter
from repro.functions.linear import LinearFunction
from repro.segmentation import InterpolationBreaker, RecursiveCurveFitBreaker, is_partition
from repro.workloads import ecg_corpus, fever_corpus, seismic_corpus, stock_corpus


def _workloads() -> "dict[str, list[Sequence]]":
    rng = np.random.default_rng(42)
    return {
        "ecg": ecg_corpus(n_sequences=5, n_points=400),
        "fever": fever_corpus(n_two_peak=6, n_one_peak=5, n_three_peak=5),
        "seismic": [sequence for sequence, __ in seismic_corpus(3, n_points=600)],
        "stocks": stock_corpus(5, n_points=200),
        "random": [
            Sequence.from_values(rng.normal(size=int(rng.integers(1, 150))))
            for __ in range(25)
        ],
    }


WORKLOADS = _workloads()


class TestBoundaryParity:
    @pytest.mark.parametrize("split_side", ["closer", "left", "right"])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_batch_equals_scalar(self, workload, split_side):
        corpus = WORKLOADS[workload]
        for epsilon in (0.05, 0.5, 5.0):
            breaker = RecursiveCurveFitBreaker(
                epsilon, curve_kind="interpolation", split_side=split_side
            )
            scalar = [breaker.break_indices(sequence) for sequence in corpus]
            batch = breaker.break_indices_many(corpus)
            assert batch == scalar
            for sequence, bounds in zip(corpus, batch):
                assert is_partition(bounds, len(sequence))

    def test_mixed_lengths_and_degenerate_sequences(self):
        corpus = [
            Sequence.from_values([3.0]),
            Sequence.from_values([3.0, 4.0]),
            Sequence.from_values([0.0, 9.0, 0.0]),
            Sequence.from_values(np.zeros(40)),
            WORKLOADS["fever"][0],
        ]
        breaker = InterpolationBreaker(0.25)
        assert breaker.break_indices_many(corpus) == [
            breaker.break_indices(sequence) for sequence in corpus
        ]

    def test_empty_batch(self):
        assert InterpolationBreaker(0.5).break_indices_many([]) == []

    def test_zero_epsilon_parity(self):
        corpus = WORKLOADS["random"][:8]
        breaker = InterpolationBreaker(0.0)
        assert breaker.break_indices_many(corpus) == [
            breaker.break_indices(sequence) for sequence in corpus
        ]

    def test_non_chord_kinds_fall_back_to_scalar(self):
        # Regression has no chord kernel: break_indices_many must loop
        # the scalar path and still agree with it.
        corpus = WORKLOADS["fever"][:4]
        breaker = RecursiveCurveFitBreaker(0.5, curve_kind="regression")
        assert breaker.break_indices_many(corpus) == [
            breaker.break_indices(sequence) for sequence in corpus
        ]


def _window_fits(sequence: Sequence, boundaries, curve_kind: str):
    """Independent expectation: ``get_fitter`` on each window's subsequence.

    Single-point windows get the constant regression line.  Returns the
    fitted functions and the segment columns they imply.
    """
    functions = []
    columns: "dict[str, list]" = {
        name: []
        for name in (
            "start_index",
            "end_index",
            "start_time",
            "end_time",
            "start_value",
            "end_value",
            "slope",
        )
    }
    for start, end in boundaries:
        piece = sequence.subsequence(start, end)
        function = get_fitter(curve_kind if len(piece) > 1 else "regression")(piece)
        (t0, v0), (t1, v1) = piece[0], piece[-1]
        functions.append(function)
        for name, value in zip(columns, (start, end, t0, t1, v0, v1, function.mean_slope(t0, t1))):
            columns[name].append(value)
    return functions, {name: np.asarray(values) for name, values in columns.items()}


class TestRepresentationParity:
    @pytest.mark.parametrize("curve_kind", ["regression", "interpolation"])
    def test_represent_many_bit_identical(self, curve_kind):
        corpus = WORKLOADS["fever"] + WORKLOADS["random"][:10]
        breaker = InterpolationBreaker(0.5)
        batch = breaker.represent_many(corpus, curve_kind=curve_kind)
        for sequence, b in zip(corpus, batch):
            assert b.name == sequence.name
            assert b.source_length == len(sequence)
            assert b.curve_kind == curve_kind
            boundaries = breaker.break_indices(sequence)
            functions, __ = _window_fits(sequence, boundaries, curve_kind)
            assert [(s.start_index, s.end_index) for s in b.segments] == boundaries
            for segment, function, (start, end) in zip(b.segments, functions, boundaries):
                assert segment.function.parameters() == function.parameters()
                assert segment.start_point == sequence[start]
                assert segment.end_point == sequence[end]

    def test_prefilled_columns_match_lazy_columns(self):
        corpus = WORKLOADS["ecg"][:3] + WORKLOADS["random"][:6]
        breaker = InterpolationBreaker(0.5)
        batch = breaker.represent_many(corpus, curve_kind="regression")
        for sequence, b in zip(corpus, batch):
            assert b._columns is not None  # prefilled by the batch path
            __, expected = _window_fits(sequence, breaker.break_indices(sequence), "regression")
            prefilled = b.segment_columns()
            assert sorted(expected) == sorted(prefilled)
            for name in expected:
                assert expected[name].dtype == prefilled[name].dtype
                assert np.array_equal(expected[name], prefilled[name]), name

    def test_nonlinear_kind_keeps_lazy_columns(self):
        # poly:2 segments are not plain lines: the batch path must skip
        # the vectorized column prefill, and the lazily built columns
        # must still agree with the per-window fits.
        corpus = WORKLOADS["fever"][:3]
        breaker = InterpolationBreaker(0.5)
        batch = breaker.represent_many(corpus, curve_kind="poly:2")
        assert all(b._columns is None for b in batch)
        for sequence, b in zip(corpus, batch):
            __, expected = _window_fits(sequence, breaker.break_indices(sequence), "poly:2")
            for name, column in expected.items():
                assert np.array_equal(column, b.segment_columns()[name]), name

    def test_single_point_windows_use_constant_line(self):
        # A spike at index 1 under zero tolerance isolates single-point
        # windows; they must come out as constant regression lines.
        values = np.zeros(12)
        values[1] = 50.0
        sequence = Sequence.from_values(values)
        breaker = InterpolationBreaker(0.0)
        (batch,) = breaker.represent_many([sequence], curve_kind="regression")
        functions, __ = _window_fits(sequence, breaker.break_indices(sequence), "regression")
        assert [s.function.parameters() for s in batch.segments] == [
            function.parameters() for function in functions
        ]
        singletons = [s for s in batch.segments if s.start_index == s.end_index]
        assert singletons
        assert all(
            type(s.function) is LinearFunction and s.function.slope == 0.0
            for s in singletons
        )


class TestBatchAssemblyContract:
    def test_invalid_windows_rejected_like_scalar_path(self):
        from repro.core.errors import SequenceError
        from repro.core.representation import FunctionSeriesRepresentation

        sequence = Sequence.from_values(np.arange(10.0))
        for bad in ([(4, 2)], [(-3, 2)], [(0, 99)]):
            with pytest.raises(SequenceError):
                FunctionSeriesRepresentation.from_breakpoints_many(
                    [sequence], [bad], curve_kind="interpolation"
                )

    def test_represent_override_applies_to_represent_many(self):
        # A subclass customizing represent() per sequence must see its
        # override on the bulk path too (it is looped, not batched).
        class TaggedBreaker(InterpolationBreaker):
            def represent(self, sequence, curve_kind=None):
                representation = super().represent(sequence, curve_kind=curve_kind)
                representation.name = representation.name + "|tagged"
                return representation

        sequence = Sequence.from_values(np.arange(12.0), name="x")
        (representation,) = TaggedBreaker(0.5).represent_many(
            [sequence], curve_kind="regression"
        )
        assert representation.name == "x|tagged"

    def test_break_indices_override_applies_to_break_indices_many(self):
        # A subclass customizing break_indices() must not be bypassed by
        # the chord-kernel frontier, on the bulk path or in the database.
        from repro.query import SequenceDatabase

        class OneWindowBreaker(InterpolationBreaker):
            def break_indices(self, sequence):
                return [(0, len(sequence) - 1)]

        corpus = WORKLOADS["fever"][:4]
        breaker = OneWindowBreaker(0.5)
        assert breaker.break_indices_many(corpus) == [
            [(0, len(sequence) - 1)] for sequence in corpus
        ]
        database = SequenceDatabase(breaker=breaker)
        ids = [database.insert(corpus[0]), *database.insert_all(corpus[1:])]
        assert [len(database.representation_of(i)) for i in ids] == [1] * len(corpus)


class TestTrialFitMemo:
    """The ``closer`` decision's trial fits are reused, not recomputed."""

    def _count_fits(self, breaker: RecursiveCurveFitBreaker, sequence: Sequence) -> int:
        calls = 0
        inner = breaker._fitter

        def counting(piece):
            nonlocal calls
            calls += 1
            return inner(piece)

        breaker._fitter = counting
        try:
            breaker.break_indices(sequence)
        finally:
            breaker._fitter = inner
        return calls

    def test_fitter_invocations_drop(self):
        sequence = fever_corpus(n_two_peak=1, n_one_peak=0, n_three_peak=0, noise=0.4)[0]
        memoized = RecursiveCurveFitBreaker(0.1, curve_kind="interpolation")
        plain = RecursiveCurveFitBreaker(0.1, curve_kind="interpolation")
        plain.reuse_trial_fits = False
        assert memoized.break_indices(sequence) == plain.break_indices(sequence)
        with_memo = self._count_fits(memoized, sequence)
        without_memo = self._count_fits(plain, sequence)
        assert with_memo < without_memo

    def test_memo_changes_no_boundaries(self):
        for sequence in WORKLOADS["random"][:10] + WORKLOADS["fever"][:4]:
            memoized = RecursiveCurveFitBreaker(0.2, curve_kind="interpolation")
            plain = RecursiveCurveFitBreaker(0.2, curve_kind="interpolation")
            plain.reuse_trial_fits = False
            assert memoized.break_indices(sequence) == plain.break_indices(sequence)

    def test_memo_applies_to_non_chord_kinds_too(self):
        sequence = WORKLOADS["fever"][0]
        memoized = RecursiveCurveFitBreaker(0.2, curve_kind="regression")
        plain = RecursiveCurveFitBreaker(0.2, curve_kind="regression")
        plain.reuse_trial_fits = False
        assert memoized.break_indices(sequence) == plain.break_indices(sequence)
        assert self._count_fits(memoized, sequence) < self._count_fits(plain, sequence)
