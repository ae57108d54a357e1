"""Property-based tests (hypothesis) for the breaking algorithms.

These encode the paper's Section 4.3 requirements as universally
quantified properties over random sequences.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequence import Sequence
from repro.functions.fitting import get_fitter
from repro.segmentation import (
    DynamicProgrammingBreaker,
    InterpolationBreaker,
    RegressionBreaker,
    SlidingWindowBreaker,
    is_partition,
    verify_tolerance,
)


def value_lists(min_size=2, max_size=60):
    return st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False),
        min_size=min_size,
        max_size=max_size,
    )


epsilons = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)


def _window_deviations(seq, bounds, kind):
    """Per-window ``get_fitter(kind)`` max deviations, skipping one-point windows."""
    fitter = get_fitter(kind)
    deviations = []
    for start, end in bounds:
        piece = seq.subsequence(start, end)
        if len(piece) > 1:
            deviations.append(fitter(piece).max_deviation(piece))
    return deviations


@st.composite
def partitioned_sequences(draw):
    values = draw(value_lists(min_size=1, max_size=50))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=5.0), min_size=len(values), max_size=len(values)
        )
    )
    origin = draw(st.sampled_from([0.0, 1e6]))
    seq = Sequence(origin + np.cumsum(gaps), values)
    cuts = draw(st.sets(st.integers(min_value=1, max_value=max(1, len(values) - 1))))
    edges = [0] + sorted(cut for cut in cuts if cut < len(values)) + [len(values)]
    return seq, [(lo, hi - 1) for lo, hi in zip(edges, edges[1:])]


@settings(max_examples=150, deadline=None)
@given(
    case=partitioned_sequences(),
    kind=st.sampled_from(["regression", "interpolation"]),
    epsilon=st.floats(min_value=0.0, max_value=60.0),
)
def test_verify_tolerance_equals_per_window_loop(case, kind, epsilon):
    seq, bounds = case
    assert is_partition(bounds, len(seq))
    deviations = _window_deviations(seq, bounds, kind)
    # The drawn tolerance, and one straddling the worst window exactly.
    worst = max(deviations, default=0.0)
    for eps in (epsilon, worst - 1e-9, np.nextafter(worst - 1e-9, -np.inf)):
        expected = not any(deviation > eps + 1e-9 for deviation in deviations)
        assert verify_tolerance(seq, bounds, kind, eps) == expected


@settings(max_examples=60, deadline=None)
@given(values=value_lists(), epsilon=epsilons)
def test_interpolation_breaker_partitions(values, epsilon):
    seq = Sequence.from_values(values)
    bounds = InterpolationBreaker(epsilon).break_indices(seq)
    assert is_partition(bounds, len(seq))


@settings(max_examples=60, deadline=None)
@given(values=value_lists(), epsilon=epsilons)
def test_interpolation_breaker_respects_epsilon(values, epsilon):
    seq = Sequence.from_values(values)
    bounds = InterpolationBreaker(epsilon).break_indices(seq)
    # Windows of length > 2 must fit within epsilon; length-2 windows fit
    # exactly by construction.
    assert verify_tolerance(seq, bounds, "interpolation", epsilon)


@settings(max_examples=40, deadline=None)
@given(values=value_lists(), epsilon=epsilons)
def test_regression_breaker_partitions(values, epsilon):
    seq = Sequence.from_values(values)
    bounds = RegressionBreaker(epsilon).break_indices(seq)
    assert is_partition(bounds, len(seq))


@settings(max_examples=30, deadline=None)
@given(values=value_lists(max_size=30))
def test_dp_breaker_partitions(values):
    seq = Sequence.from_values(values)
    bounds = DynamicProgrammingBreaker(segment_penalty=1.0).break_indices(seq)
    assert is_partition(bounds, len(seq))


@settings(max_examples=40, deadline=None)
@given(values=value_lists(min_size=3), epsilon=epsilons)
def test_online_breaker_partitions(values, epsilon):
    seq = Sequence.from_values(values)
    bounds = SlidingWindowBreaker(epsilon, window=5, degree=1).break_indices(seq)
    assert is_partition(bounds, len(seq))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    epsilon=epsilons,
    shift=st.floats(min_value=-50, max_value=50, allow_nan=False),
)
def test_amplitude_shift_consistency(seed, epsilon, shift):
    """Amplitude translation never moves breakpoints on generic data.

    Generic = RNG-generated, for the same reason as the time-shift
    property: hand-built inputs can place a deviation *exactly* at
    epsilon or two samples at *exactly* equal deviation, where one ulp
    of shifted arithmetic legally flips the split decision — a
    measure-zero coincidence for sampled data.
    """
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(0.0, 1.0, 40))
    seq = Sequence.from_values(values)
    shifted = Sequence.from_values(values + shift)
    breaker = InterpolationBreaker(epsilon)
    assert breaker.break_indices(seq) == breaker.break_indices(shifted)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), epsilon=epsilons)
def test_time_shift_consistency(seed, epsilon):
    """Time translation never moves breakpoints on generic data.

    Generic means RNG-generated: hand-constructed inputs can place two
    samples at *exactly* equal deviation, or a deviation *exactly* at
    epsilon, where one ulp of chord arithmetic legally flips a tie.
    Those coincidences are measure-zero for sampled data, which is what
    the paper's consistency property concerns.
    """
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(0.0, 1.0, 40))
    seq = Sequence.from_values(values)
    shifted = Sequence.from_values(values, start=37.5)
    breaker = InterpolationBreaker(epsilon)
    assert breaker.break_indices(seq) == breaker.break_indices(shifted)


@settings(max_examples=40, deadline=None)
@given(values=value_lists(), epsilon=epsilons, factor=st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
def test_amplitude_scale_consistency_with_scaled_epsilon(values, epsilon, factor):
    """Scaling amplitudes by k and epsilon by k preserves breakpoints.

    Factors are powers of two so the scaling is exact in floating point;
    arbitrary factors can flip argmax tie-breaks between two samples at
    mathematically equal deviation, which is not a consistency failure.
    """
    seq = Sequence.from_values(values)
    scaled = Sequence.from_values([v * factor for v in values])
    base = InterpolationBreaker(epsilon).break_indices(seq)
    rescaled = InterpolationBreaker(epsilon * factor).break_indices(scaled)
    assert base == rescaled


@settings(max_examples=30, deadline=None)
@given(values=value_lists(min_size=4, max_size=40))
def test_reconstruction_error_bounded_by_epsilon(values):
    """End-to-end: representation stays within the breaker's epsilon."""
    epsilon = 1.0
    seq = Sequence.from_values(values)
    rep = InterpolationBreaker(epsilon).represent(seq, curve_kind="interpolation")
    # Interpolation endpoints are exact, interior within epsilon.
    assert rep.reconstruction_error(seq) <= epsilon + 1e-9


@settings(max_examples=30, deadline=None)
@given(values=value_lists(min_size=4, max_size=40), epsilon=epsilons)
def test_segments_cover_every_index_once(values, epsilon):
    seq = Sequence.from_values(values)
    bounds = InterpolationBreaker(epsilon).break_indices(seq)
    covered = []
    for start, end in bounds:
        covered.extend(range(start, end + 1))
    assert covered == list(range(len(seq)))
