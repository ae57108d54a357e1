"""Tests for the binary codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.core.representation import FunctionSeriesRepresentation
from repro.core.sequence import Sequence
from repro.segmentation import BezierBreaker, InterpolationBreaker
from repro.storage.serialization import (
    decode_representation,
    decode_sequence,
    encode_representation,
    encode_sequence,
    raw_size_bytes,
    representation_size_bytes,
)
from repro.workloads import goalpost_fever


class TestSequenceCodec:
    def test_uniform_roundtrip(self):
        seq = Sequence.from_values([1.0, 2.5, -3.0], name="abc")
        decoded = decode_sequence(encode_sequence(seq))
        assert decoded == seq
        assert decoded.name == "abc"

    def test_non_uniform_roundtrip(self):
        seq = Sequence([0.0, 1.0, 4.0], [9.0, 8.0, 7.0], name="nu")
        decoded = decode_sequence(encode_sequence(seq))
        assert decoded == seq

    def test_uniform_encoding_smaller(self):
        values = np.arange(200, dtype=float)
        uniform = Sequence.from_values(values)
        times = np.sort(np.concatenate([[0.0], np.cumsum(np.random.default_rng(1).uniform(0.5, 1.5, 199))]))
        jittered = Sequence(times, values)
        assert raw_size_bytes(uniform) < raw_size_bytes(jittered)

    def test_unicode_name(self):
        seq = Sequence.from_values([1.0], name="séq-ü")
        assert decode_sequence(encode_sequence(seq)).name == "séq-ü"

    def test_bad_magic_rejected(self):
        with pytest.raises(StorageError):
            decode_sequence(b"XXXX" + b"\x00" * 40)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=40))
    def test_roundtrip_property(self, values):
        seq = Sequence.from_values(values)
        assert decode_sequence(encode_sequence(seq)) == seq


class TestRepresentationCodec:
    def rep_for(self, curve_kind):
        seq = goalpost_fever(noise=0.0)
        breaker = BezierBreaker(1.0) if curve_kind == "bezier" else InterpolationBreaker(0.5)
        return seq, breaker.represent(seq, curve_kind=curve_kind)

    @pytest.mark.parametrize("kind", ["regression", "interpolation", "poly:3", "sinusoid", "bezier"])
    def test_roundtrip_all_families(self, kind):
        if kind == "sinusoid":
            # Sinusoid fits need >= 4 points per segment; use one segment.
            seq = goalpost_fever(noise=0.0)
            rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, len(seq) - 1)], curve_kind=kind)
        else:
            seq, rep = self.rep_for(kind)
        decoded = decode_representation(encode_representation(rep))
        assert len(decoded) == len(rep)
        assert decoded.curve_kind == rep.curve_kind
        assert decoded.source_length == rep.source_length
        for a, b in zip(rep, decoded):
            assert a.function.parameters() == pytest.approx(b.function.parameters())
            assert a.start_index == b.start_index
            assert a.end_index == b.end_index
            assert a.start_point == b.start_point
            assert a.end_point == b.end_point

    @pytest.mark.parametrize("kind", ["regression", "interpolation", "poly:3", "sinusoid", "bezier"])
    def test_encode_decode_encode_byte_identical(self, kind):
        if kind == "sinusoid":
            seq = goalpost_fever(noise=0.0)
            rep = FunctionSeriesRepresentation.from_breakpoints(seq, [(0, len(seq) - 1)], curve_kind=kind)
        else:
            seq, rep = self.rep_for(kind)
        blob = encode_representation(rep)
        decoded = decode_representation(blob)
        assert encode_representation(decoded) == blob
        line_kind = kind in ("regression", "interpolation")
        # Line blobs decode straight into arrays; other families into segments.
        assert (decoded.line_coefficients() is not None) == line_kind
        for name, column in rep.segment_columns().items():
            assert column.tobytes() == decoded.segment_columns()[name].tobytes(), name

    def test_line_table_is_the_struct_record_layout(self):
        import struct

        from repro.core.segment import Segment
        from repro.functions.linear import LinearFunction

        seq, rep = self.rep_for("regression")
        records = b"".join(
            struct.pack(
                "<BH2dIIdddd",
                1,
                2,
                *segment.function.parameters(),
                segment.start_index,
                segment.end_index,
                *segment.start_point,
                *segment.end_point,
            )
            for segment in rep.segments
        )
        blob = encode_representation(rep)
        assert blob.endswith(records)
        # A segment-backed copy of the same lines packs the same bytes.
        copied = FunctionSeriesRepresentation(
            [
                Segment(LinearFunction(*s.function.parameters()), s.start_index, s.end_index, s.start_point, s.end_point)
                for s in rep.segments
            ],
            name=rep.name,
            source_length=rep.source_length,
            curve_kind=rep.curve_kind,
            epsilon=rep.epsilon,
        )
        assert copied.line_coefficients() is None
        assert encode_representation(copied) == blob

    def test_mixed_families_round_trip(self):
        from repro.core.segment import Segment
        from repro.functions.linear import LinearFunction
        from repro.functions.polynomial import PolynomialFunction

        rep = FunctionSeriesRepresentation(
            [
                Segment(LinearFunction(1.0, 2.0), 0, 3, (0.0, 2.0), (3.0, 5.0)),
                Segment(PolynomialFunction((1.0, 0.5)), 4, 9, (4.0, 1.0), (9.0, 3.5)),
            ],
            curve_kind="mixed",
        )
        blob = encode_representation(rep)
        decoded = decode_representation(blob)
        assert decoded.line_coefficients() is None
        assert decoded.segments == rep.segments
        assert encode_representation(decoded) == blob

    def test_decoded_answers_queries_identically(self):
        seq, rep = self.rep_for("regression")
        decoded = decode_representation(encode_representation(rep))
        assert decoded.symbol_string(0.05) == rep.symbol_string(0.05)
        assert decoded.interpolate_at(12.0) == pytest.approx(rep.interpolate_at(12.0))

    def test_size_accounting(self):
        seq, rep = self.rep_for("regression")
        assert representation_size_bytes(rep) == len(encode_representation(rep))

    def test_bad_magic_rejected(self):
        with pytest.raises(StorageError):
            decode_representation(b"ZZZZ" + b"\x00" * 40)

    def test_compression_on_long_smooth_sequence(self):
        t = np.arange(500, dtype=float)
        values = np.where(t < 250, t * 0.1, 50.0 - (t - 250) * 0.1)
        seq = Sequence(t, values, name="long-vee")
        rep = InterpolationBreaker(0.5).represent(seq, curve_kind="regression")
        assert representation_size_bytes(rep) < raw_size_bytes(seq) / 8
