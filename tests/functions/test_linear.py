"""Tests for linear functions and their fitters."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FittingError, SequenceError
from repro.core.representation import FunctionSeriesRepresentation
from repro.core.sequence import Sequence
from repro.functions.linear import (
    LinearFunction,
    fit_interpolation_line,
    fit_regression_line,
    regression_coefficients,
    regression_lines,
)


class TestLinearFunction:
    def test_evaluation(self):
        f = LinearFunction(2.0, 1.0)
        assert f(3.0) == 7.0
        assert np.allclose(f(np.array([0.0, 1.0])), [1.0, 3.0])

    def test_derivative_constant(self):
        f = LinearFunction(2.0, 1.0)
        assert f.derivative_at(100.0) == 2.0
        assert np.allclose(f.derivative_at(np.array([0.0, 1.0])), [2.0, 2.0])

    def test_parameters_and_key(self):
        f = LinearFunction(2.0, 1.0)
        assert f.parameters() == (2.0, 1.0)
        assert f.lexicographic_key() == (2.0, 1.0)
        assert f.parameter_count == 2

    def test_ordering_by_slope_first(self):
        assert LinearFunction(1.0, 100.0) < LinearFunction(2.0, 0.0)
        assert LinearFunction(1.0, 0.0) < LinearFunction(1.0, 1.0)

    def test_equality_and_hash(self):
        assert LinearFunction(1.0, 2.0) == LinearFunction(1.0, 2.0)
        assert hash(LinearFunction(1.0, 2.0)) == hash(LinearFunction(1.0, 2.0))
        assert LinearFunction(1.0, 2.0) != LinearFunction(1.0, 3.0)

    def test_shifted_identity(self):
        f = LinearFunction(2.0, 1.0)
        g = f.shifted(3.0)
        for t in (0.0, 1.5, -2.0):
            assert g(t) == pytest.approx(f(t + 3.0))

    def test_format_equation(self):
        assert LinearFunction(0.94, 97.66).format_equation() == "0.94x+97.7"
        assert "-" in LinearFunction(1.0, -5.0).format_equation()

    def test_mean_slope_equals_slope(self):
        f = LinearFunction(3.0, 0.0)
        assert f.mean_slope(0.0, 10.0) == 3.0
        assert f.mean_slope(5.0, 5.0) == 3.0  # degenerate span -> derivative


class TestInterpolationFit:
    def test_passes_through_endpoints(self):
        seq = Sequence([0.0, 1.0, 2.0], [5.0, 9.0, 7.0])
        f = fit_interpolation_line(seq)
        assert f(0.0) == pytest.approx(5.0)
        assert f(2.0) == pytest.approx(7.0)

    def test_single_point_rejected(self):
        with pytest.raises(FittingError):
            fit_interpolation_line(Sequence([0.0], [1.0]))

    def test_extremum_is_farthest(self):
        # The property the breaker relies on: for a vee, the apex is the
        # point of maximum deviation from the endpoint chord.
        values = np.concatenate([np.linspace(0, 10, 11), np.linspace(9, 0, 10)])
        seq = Sequence.from_values(values)
        f = fit_interpolation_line(seq)
        assert f.argmax_deviation(seq) == 10


class TestRegressionFit:
    def test_exact_on_linear_data(self):
        seq = Sequence([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
        f = fit_regression_line(seq)
        assert f.slope == pytest.approx(2.0)
        assert f.intercept == pytest.approx(1.0)

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(3)
        seq = Sequence.from_values(rng.normal(0, 1, 50))
        f = fit_regression_line(seq)
        base_sse = float(np.sum(f.residuals(seq) ** 2))
        for ds, di in [(0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.01)]:
            perturbed = LinearFunction(f.slope + ds, f.intercept + di)
            assert float(np.sum(perturbed.residuals(seq) ** 2)) >= base_sse

    def test_single_point_constant(self):
        f = fit_regression_line(Sequence([5.0], [42.0]))
        assert f.slope == 0.0
        assert f(99.0) == 42.0

    def test_residual_mean_zero(self):
        rng = np.random.default_rng(4)
        seq = Sequence.from_values(rng.normal(5, 2, 30))
        f = fit_regression_line(seq)
        assert float(f.residuals(seq).mean()) == pytest.approx(0.0, abs=1e-9)

    def test_rmse_leq_max_deviation(self):
        rng = np.random.default_rng(5)
        seq = Sequence.from_values(rng.normal(0, 1, 30))
        f = fit_regression_line(seq)
        assert f.rmse(seq) <= f.max_deviation(seq) + 1e-12


_WINDOW_LENGTHS = {
    "one": st.just(1),
    "two": st.just(2),
    "short": st.integers(3, 20),
    "long": st.integers(150, 200),
}


@st.composite
def window_batches(draw):
    """Flat ``(times, values, starts, ends)`` of non-overlapping windows.

    Windows of one, two, a few and 150+ points, with gaps between them,
    on a strictly increasing time axis that may sit near +-1e6, over
    noisy or constant values.
    """
    kinds = draw(st.lists(st.sampled_from(sorted(_WINDOW_LENGTHS)), min_size=1, max_size=6))
    lengths = [draw(_WINDOW_LENGTHS[kind]) for kind in kinds]
    gaps = draw(st.lists(st.integers(0, 3), min_size=len(kinds), max_size=len(kinds)))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6, 1e6 + 0.37]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    total = sum(lengths) + sum(gaps)
    times = offset + np.cumsum(rng.uniform(0.01, 2.0, total))
    if draw(st.booleans()):
        values = np.full(total, draw(st.floats(-1e4, 1e4, allow_nan=False)))
    else:
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        level = draw(st.sampled_from([0.0, 100.0, -1e4]))
        values = level + scale * rng.standard_normal(total)
    starts, ends = [], []
    position = 0
    for length, gap in zip(lengths, gaps):
        position += gap
        starts.append(position)
        ends.append(position + length - 1)
        position += length
    return times, values, np.array(starts), np.array(ends)


class TestRegressionKernel:
    @settings(max_examples=60, deadline=None)
    @given(window_batches())
    def test_batch_equals_batch_of_one_bit_for_bit(self, batch):
        times, values, starts, ends = batch
        slope, intercept = regression_lines(times, values, starts, ends)
        # Reversing the batch changes every window's neighbours, not its bits.
        rev_slope, rev_intercept = regression_lines(times, values, starts[::-1], ends[::-1])
        assert rev_slope[::-1].tobytes() == slope.tobytes()
        assert rev_intercept[::-1].tobytes() == intercept.tobytes()
        for i, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
            one_slope, one_intercept = regression_lines(times, values, [start], [end])
            assert one_slope.tobytes() == slope[i : i + 1].tobytes()
            assert one_intercept.tobytes() == intercept[i : i + 1].tobytes()
            window = slice(start, end + 1)
            expected = (float(slope[i]), float(intercept[i]))
            assert regression_coefficients(times[window], values[window]) == expected
            line = fit_regression_line(Sequence(times[window], values[window]))
            assert line.parameters() == expected

    @settings(max_examples=60, deadline=None)
    @given(window_batches())
    def test_close_to_polyfit(self, batch):
        times, values, starts, ends = batch
        slope, intercept = regression_lines(times, values, starts, ends)
        for i, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
            t = times[start : end + 1]
            v = values[start : end + 1]
            if len(t) == 1:
                assert (slope[i], intercept[i]) == (0.0, v[0])
                continue
            # polyfit is fitted in a frame starting at the window's first
            # time (t - t[0] is exact near 1e6), where it is well
            # conditioned; the tolerances are relative to the magnitude
            # of each coefficient's terms.
            ref_slope, ref_at_start = np.polyfit(t - t[0], v, 1)
            ref_intercept = ref_at_start - ref_slope * t[0]
            slope_scale = abs(ref_slope) + np.abs(v).max() / (t[-1] - t[0])
            intercept_scale = abs(ref_intercept) + slope_scale * np.abs(t).max() + np.abs(v).max()
            assert abs(slope[i] - ref_slope) <= 1e-9 * slope_scale
            assert abs(intercept[i] - ref_intercept) <= 1e-9 * intercept_scale

    @settings(max_examples=30, deadline=None)
    @given(window_batches(), st.integers(2, 5))
    def test_zero_time_spread_raises(self, batch, repeats):
        times, values, starts, ends = batch
        flat_times = np.concatenate([times, np.full(repeats, times[-1] + 1.0)])
        flat_values = np.concatenate([values, np.arange(repeats, dtype=float)])
        n = len(times)
        with pytest.raises(FittingError, match="degenerate time span"):
            regression_lines(
                flat_times, flat_values, np.append(starts, n), np.append(ends, n + repeats - 1)
            )

    @settings(max_examples=30, deadline=None)
    @given(window_batches(), st.sampled_from(["reversed", "negative", "past_end"]))
    def test_bad_window_raises_the_representation_error(self, batch, flaw):
        times, values, starts, ends = batch
        n = len(times)
        bad = {"reversed": (n - 1, n - 2), "negative": (-3, 1), "past_end": (0, n)}[flaw]
        message = f"invalid index window \\[{bad[0]}, {bad[1]}\\] for length {n}"
        with pytest.raises(SequenceError, match=message):
            regression_lines(times, values, np.append(starts, bad[0]), np.append(ends, bad[1]))
        windows = list(zip(starts.tolist(), ends.tolist())) + [bad]
        for kind in ("regression", "interpolation"):
            with pytest.raises(SequenceError, match=message):
                FunctionSeriesRepresentation.from_breakpoints_many(
                    [Sequence(times, values)], [windows], curve_kind=kind
                )

    def test_empty_batch(self):
        slope, intercept = regression_lines(np.arange(3.0), np.arange(3.0), [], [])
        assert slope.size == intercept.size == 0
