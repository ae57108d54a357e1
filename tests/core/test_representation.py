"""Tests for FunctionSeriesRepresentation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import SequenceError
from repro.core.representation import FunctionSeriesRepresentation
from repro.core.sequence import Sequence


def vee_sequence() -> Sequence:
    """Down then up: two clean linear segments."""
    values = np.concatenate([np.linspace(10.0, 0.0, 11), np.linspace(1.0, 10.0, 10)])
    return Sequence.from_values(values, name="vee")


class TestConstruction:
    def test_from_breakpoints(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 10), (11, 20)])
        assert len(rep) == 2
        assert rep.source_length == 21
        assert rep.curve_kind == "regression"

    def test_empty_rejected(self):
        with pytest.raises(SequenceError):
            FunctionSeriesRepresentation([])

    def test_overlapping_segments_rejected(self):
        seq = vee_sequence()
        with pytest.raises(SequenceError):
            FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 10), (10, 20)])

    def test_single_point_window_fits_constant(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 0), (1, 20)])
        assert rep[0].function.parameters()[0] == 0.0  # zero slope

    def test_interpolation_kind(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(
            seq, [(0, 10), (11, 20)], curve_kind="interpolation"
        )
        # Interpolation lines hit the endpoints exactly.
        assert rep[0].value_at(0.0) == pytest.approx(10.0)
        assert rep[0].value_at(10.0) == pytest.approx(0.0)

    def test_refit_changes_kind_not_breaks(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 10), (11, 20)])
        refit = rep.refit(seq, "interpolation")
        assert refit.curve_kind == "interpolation"
        assert refit.breakpoints() == rep.breakpoints()


class TestGeometry:
    def test_breakpoints(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 10), (11, 20)])
        assert rep.breakpoints() == [11]
        assert rep.breakpoint_times() == [11.0]

    def test_segment_at(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 10), (11, 20)])
        assert rep.segment_at(5.0).start_index == 0
        assert rep.segment_at(15.0).start_index == 11

    @pytest.mark.parametrize("backing", ["arrays", "segments"])
    def test_segment_at_gap_resolves_to_earlier(self, backing):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 10), (11, 20)])
        if backing == "segments":
            rep = FunctionSeriesRepresentation(rep.segments)
        assert (rep.line_coefficients() is None) == (backing == "segments")
        assert rep.segment_at(10.5).start_index == 0  # in the gap between 10.0 and 11.0
        assert rep.segment_at(11.0).start_index == 11
        assert rep.segment_at(20.0).start_index == 11
        assert rep.segment_at(0.0).start_index == 0

    def test_on_demand_segments_index_like_a_tuple(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 4), (5, 10), (11, 20)])
        segments = rep.segments
        assert rep[-1] == segments[-1]
        assert rep[1:] == segments[1:]
        assert list(rep) == list(segments)
        assert rep.windows() == [(0, 4), (5, 10), (11, 20)]
        with pytest.raises(IndexError):
            rep[3]

    def test_segment_at_outside_rejected(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 20)])
        with pytest.raises(SequenceError):
            rep.segment_at(-1.0)

    def test_container_protocol(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 10), (11, 20)])
        assert len(list(iter(rep))) == 2
        assert rep[0].start_index == 0
        assert "segments=2" in repr(rep)


class TestSymbols:
    def test_symbol_string(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 10), (11, 20)])
        assert rep.symbol_string() == "-+"

    def test_theta_flattens(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 10), (11, 20)])
        assert rep.symbol_string(theta=100.0) == "00"

    def test_collapse_runs(self):
        seq = Sequence.from_values(np.arange(30, dtype=float))
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 9), (10, 19), (20, 29)])
        assert rep.symbol_string() == "+++"
        assert rep.symbol_string(collapse_runs=True) == "+"

    def test_slopes_ordering(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 10), (11, 20)])
        slopes = rep.slopes()
        assert slopes[0] < 0 < slopes[1]


class TestReconstruction:
    def test_interpolate_at(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(
            seq, [(0, 10), (11, 20)], curve_kind="interpolation"
        )
        assert rep.interpolate_at(5.0) == pytest.approx(5.0)

    def test_reconstruct_close_to_source(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(
            seq, [(0, 10), (11, 20)], curve_kind="interpolation"
        )
        recon = rep.reconstruct()
        assert recon.start_time == seq.start_time
        assert recon.end_time == seq.end_time
        # Linear data reconstructs essentially exactly.
        assert rep.reconstruction_error(seq) < 1e-9

    def test_reconstruction_error_positive_for_lossy_fit(self):
        rng = np.random.default_rng(0)
        seq = Sequence.from_values(rng.normal(0, 1, 40))
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 39)])
        assert rep.reconstruction_error(seq) > 0


class TestStorageAccounting:
    def test_paper_convention(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 10), (11, 20)])
        assert rep.parameter_count("paper") == 6  # 3 per segment
        assert rep.compression_ratio("paper") == pytest.approx(21 / 6)

    def test_full_convention_larger(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 10), (11, 20)])
        assert rep.parameter_count("full") > rep.parameter_count("paper")

    def test_unknown_convention_rejected(self):
        seq = vee_sequence()
        rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, 20)])
        with pytest.raises(SequenceError):
            rep.parameter_count("bogus")


class TestSymbolCodecs:
    def test_decode_symbols_round_trip(self):
        from repro.core.representation import classify_slopes, decode_symbols

        slopes = [2.0, 0.01, -3.0, 0.0, 1.5]
        assert decode_symbols(classify_slopes(slopes, 0.05)) == "+0-0+"
        assert decode_symbols(classify_slopes([], 0.05)) == ""

    def test_decode_symbols_rejects_corrupt_codes(self):
        import numpy as np
        import pytest

        from repro.core.errors import SequenceError
        from repro.core.representation import decode_symbols

        with pytest.raises(SequenceError, match="invalid symbol codes"):
            decode_symbols(np.array([-2], dtype=np.int8))
        with pytest.raises(SequenceError, match="invalid symbol codes"):
            decode_symbols(np.array([0, 1, 2], dtype=np.int8))


class TestDecodeSymbolsTypeSafety:
    def test_non_integer_codes_fail_loudly(self):
        import numpy as np
        import pytest

        from repro.core.errors import SequenceError
        from repro.core.representation import decode_symbols

        with pytest.raises(SequenceError, match="invalid symbol codes"):
            decode_symbols(np.array([0.5, -0.5]))  # truncation must not hide these
        assert decode_symbols(np.array([1.0, -1.0, 0.0])) == "+-0"  # exact floats ok


class TestReusingFit:
    def _prefix_and_full(self):
        seq = vee_sequence()
        prefix = Sequence(seq.times[:15], seq.values[:15], name=seq.name)
        previous = FunctionSeriesRepresentation.from_breakpoints(prefix, [(0, 10), (11, 14)])
        return seq, previous, [(0, 10), (11, 20)]

    def test_reuses_prefix_and_prefills_columns(self):
        seq, previous, bounds = self._prefix_and_full()
        (reused,) = FunctionSeriesRepresentation.from_breakpoints_reusing(
            [seq], [bounds], [previous]
        )
        # The reused window keeps the previous fit's row verbatim.
        assert reused.segments[0] == previous.segments[0]
        for reused_column, previous_column in zip(
            reused.line_coefficients(), previous.line_coefficients()
        ):
            assert reused_column[0] == previous_column[0]
        assert reused._columns is not None
        fresh = FunctionSeriesRepresentation.from_breakpoints(seq, bounds)
        assert reused.segments == fresh.segments
        for name, column in fresh.segment_columns().items():
            assert np.array_equal(reused.segment_columns()[name], column), name

    def test_decoded_previous_reuses_decoded_columns(self):
        from repro.storage.serialization import decode_representation, encode_representation

        seq, previous, bounds = self._prefix_and_full()
        decoded = decode_representation(encode_representation(previous))
        assert decoded.line_coefficients() is not None  # decoded straight into arrays
        (reused,) = FunctionSeriesRepresentation.from_breakpoints_reusing(
            [seq], [bounds], [decoded]
        )
        assert reused.line_coefficients() is not None
        fresh = FunctionSeriesRepresentation.from_breakpoints(seq, bounds)
        for name, column in fresh.segment_columns().items():
            assert np.array_equal(reused.segment_columns()[name], column), name


class TestReusingFitBatch:
    """One ``from_breakpoints_reusing`` call over a batch mixing every
    reuse shape: each result's bytes equal a from-scratch fit."""

    @staticmethod
    def _wave(n, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(n, dtype=float)
        return Sequence(t, np.sin(t / 4.0) * 5.0 + rng.normal(0.0, 0.2, n), name=f"w{seed}")

    def _batch(self, curve_kind):
        full = [self._wave(60, seed) for seed in range(5)]
        prefix = [Sequence(s.times[:40], s.values[:40], name=s.name) for s in full]
        cases = [
            # Windows unchanged on the same data: full reuse, no fit.
            (prefix[0], [(0, 12), (13, 25), (26, 39)], [(0, 12), (13, 25), (26, 39)]),
            # First window differs: no reuse, the whole item is refitted.
            (full[1], [(0, 12), (13, 39)], [(0, 9), (10, 30), (31, 59)]),
            # Segment count shrinks: two previous windows become one.
            (full[2], [(0, 12), (13, 25), (26, 39)], [(0, 12), (13, 59)]),
            # The usual append: only the trailing window changes.
            (full[3], [(0, 20), (21, 39)], [(0, 20), (21, 44), (45, 59)]),
            # Single-point windows on both sides of the junction.
            (full[4], [(0, 0), (1, 39)], [(0, 0), (1, 1), (2, 59)]),
        ]
        sequences = [sequence for sequence, __, __ in cases]
        previous = [
            FunctionSeriesRepresentation.from_breakpoints(
                Sequence(sequence.times[: old[-1][1] + 1], sequence.values[: old[-1][1] + 1]),
                old,
                curve_kind=curve_kind,
            )
            for sequence, old, __ in cases
        ]
        return sequences, [new for __, __, new in cases], previous

    @pytest.mark.parametrize("curve_kind", ["regression", "interpolation", "bezier"])
    def test_mixed_batch_is_byte_identical_to_fresh_fits(self, monkeypatch, curve_kind):
        from repro.storage.serialization import encode_representation

        sequences, boundaries, previous = self._batch(curve_kind)
        calls = []
        many = FunctionSeriesRepresentation.from_breakpoints_many.__func__

        def spy(cls, suffix_sequences, suffix_boundaries, **kwargs):
            calls.append([len(b) for b in suffix_boundaries])
            return many(cls, suffix_sequences, suffix_boundaries, **kwargs)

        monkeypatch.setattr(FunctionSeriesRepresentation, "from_breakpoints_many", classmethod(spy))
        reused = FunctionSeriesRepresentation.from_breakpoints_reusing(
            sequences, boundaries, previous, curve_kind=curve_kind
        )
        monkeypatch.undo()
        # One fit for every changed suffix; the full-reuse item fits nothing.
        assert calls == [[3, 1, 2, 2]]
        for sequence, bounds, rep in zip(sequences, boundaries, reused):
            fresh = FunctionSeriesRepresentation.from_breakpoints(
                sequence, bounds, curve_kind=curve_kind
            )
            assert encode_representation(rep) == encode_representation(fresh)
            assert (rep.line_coefficients() is None) == (curve_kind == "bezier")

    def test_junction_overlap_and_empty_item_rejected(self):
        sequences, boundaries, previous = self._batch("regression")
        bad = list(boundaries)
        bad[3] = [(0, 20), (20, 59)]  # reused window, then an overlapping suffix
        with pytest.raises(SequenceError, match="segments overlap"):
            FunctionSeriesRepresentation.from_breakpoints_reusing(sequences, bad, previous)
        bad[3] = []
        with pytest.raises(SequenceError, match="at least one segment"):
            FunctionSeriesRepresentation.from_breakpoints_reusing(sequences, bad, previous)
        with pytest.raises(SequenceError, match="disagree"):
            FunctionSeriesRepresentation.from_breakpoints_reusing(sequences, boundaries, previous[:2])
        assert FunctionSeriesRepresentation.from_breakpoints_reusing([], [], []) == []
