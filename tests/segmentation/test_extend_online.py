"""Streaming extension of breaks: suffix rescans equal from-scratch breaks.

The append path's foundation: for the online breakers,
``extend_indices(extended, previous)`` must reproduce
``break_indices(extended)`` bit for bit while touching only the suffix
past the last closed boundary, and the frontier-batched
``extend_indices_many`` must match the per-sequence scalar path for any
batch.  Offline breakers fall back to a full (frontier-batched)
re-break, which is trivially identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sequence import Sequence
from repro.segmentation import InterpolationBreaker
from repro.segmentation.online import IncrementalRegressionBreaker, SlidingWindowBreaker


def _wavy(rng, n, name="w"):
    t = np.arange(n, dtype=float)
    values = (
        np.sin(2 * np.pi * t / rng.uniform(12, 40))
        + 0.3 * np.sin(2 * np.pi * t / rng.uniform(3, 9))
        + rng.normal(0.0, 0.05, n)
    )
    return Sequence(t, values, name=name)


def _cases(seed=7, count=12):
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        n = int(rng.integers(40, 220))
        full = _wavy(rng, n, name=f"w{i}")
        prefix_len = int(rng.integers(10, n - 5))
        cases.append((full, prefix_len))
    return cases


BREAKERS = [
    IncrementalRegressionBreaker(0.2),
    IncrementalRegressionBreaker(0.6, min_points=4),
    SlidingWindowBreaker(0.25, window=8, degree=1),
    SlidingWindowBreaker(0.4, window=5, degree=2),
]


@pytest.mark.parametrize("breaker", BREAKERS, ids=lambda b: repr(b))
class TestExtendEqualsFromScratch:
    def test_single_extension(self, breaker):
        for full, prefix_len in _cases():
            prefix = full[:prefix_len]
            previous = breaker.break_indices(prefix)
            extended = breaker.extend_indices(full, previous)
            assert extended == breaker.break_indices(full)

    def test_chained_extensions(self, breaker):
        # Appending in several installments must agree with one big break.
        full, _ = _cases(seed=3, count=1)[0]
        cuts = [30, 60, 110, len(full)]
        boundaries = breaker.break_indices(full[: cuts[0]])
        for cut in cuts[1:]:
            boundaries = breaker.extend_indices(full[:cut], boundaries)
        assert boundaries == breaker.break_indices(full)


class TestFrontierBatch:
    def test_batch_equals_scalar(self):
        breaker = IncrementalRegressionBreaker(0.3)
        items = []
        for full, prefix_len in _cases(seed=11, count=9):
            previous = breaker.break_indices(full[:prefix_len])
            items.append((full, previous))
        batched = breaker.extend_indices_many(items)
        scalar = [breaker.extend_indices(seq, prev) for seq, prev in items]
        assert batched == scalar
        # And both equal from-scratch breaking of the extended data.
        assert batched == [breaker.break_indices(seq) for seq, __ in items]

    def test_uneven_suffixes_one_long_straggler(self):
        # One lane's rescan runs ~100x longer than the rest.  Eleven
        # lanes are below the frontier crossover, so this is the per-lane
        # path; the straggler case of the frontier itself is
        # ``test_frontier_at_the_crossover_equals_scalar``.
        rng = np.random.default_rng(23)
        breaker = IncrementalRegressionBreaker(0.25)
        items = []
        long_full = _wavy(rng, 3000, name="long")
        items.append((long_full, breaker.break_indices(long_full[:10])))
        for i in range(10):
            full = _wavy(rng, 60, name=f"short-{i}")
            items.append((full, breaker.break_indices(full[:45])))
        batched = breaker.extend_indices_many(items)
        assert batched == [breaker.extend_indices(seq, prev) for seq, prev in items]

    def test_sub_frontier_batches_are_scalar_finished(self):
        # 3..7 items: far below the frontier crossover, every lane runs
        # the per-lane scalar scan.
        rng = np.random.default_rng(29)
        breaker = IncrementalRegressionBreaker(0.3)
        for count in (3, 5, 7):
            items = []
            for i in range(count):
                full = _wavy(rng, 80 + 13 * i, name=f"s{i}")
                items.append((full, breaker.break_indices(full[: 30 + 7 * i])))
            assert breaker.extend_indices_many(items) == [
                breaker.extend_indices(seq, prev) for seq, prev in items
            ]

    def test_small_batches_take_the_scalar_path(self):
        breaker = IncrementalRegressionBreaker(0.3)
        full, prefix_len = _cases(seed=5, count=1)[0]
        previous = breaker.break_indices(full[:prefix_len])
        assert breaker.extend_indices_many([(full, previous)]) == [
            breaker.break_indices(full)
        ]
        assert breaker.extend_indices_many([]) == []

    def test_empty_previous_breaks_from_scratch(self):
        breaker = IncrementalRegressionBreaker(0.3)
        full, __ = _cases(seed=9, count=1)[0]
        assert breaker.extend_indices(full, []) == breaker.break_indices(full)


_MIN_FRONTIER = IncrementalRegressionBreaker._MIN_FRONTIER


def _frontier_items(breaker, lanes, straggler, seed=31):
    """``lanes`` appended sequences with uneven suffixes (so lanes retire
    from the frontier at different rounds); with ``straggler`` the first
    lane rescans ~3,000 samples."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(lanes):
        n = 3000 if straggler and i == 0 else int(rng.integers(40, 90))
        full = _wavy(rng, n, name=f"lane-{i}")
        prefix_len = 10 if straggler and i == 0 else int(rng.integers(10, n - 5))
        items.append((full, breaker.break_indices(full[:prefix_len])))
    return items


@pytest.mark.parametrize(
    "lanes, straggler",
    [
        (_MIN_FRONTIER - 1, False),
        (_MIN_FRONTIER, False),
        (_MIN_FRONTIER + 1, False),
        (4 * _MIN_FRONTIER, True),
    ],
)
def test_frontier_at_the_crossover_equals_scalar(monkeypatch, lanes, straggler):
    breaker = IncrementalRegressionBreaker(0.3)
    items = _frontier_items(breaker, lanes, straggler)
    scalar = [breaker.extend_indices(seq, prev) for seq, prev in items]
    # Straggler finishes are the scans that resume mid-suffix with the
    # state a vector round carried over (``first`` > 0 rounds in).
    resumed_rounds = []
    scan = IncrementalRegressionBreaker._scan

    def spy(self, times, values, first, *args, **state):
        if state:
            resumed_rounds.append(first)
        return scan(self, times, values, first, *args, **state)

    monkeypatch.setattr(IncrementalRegressionBreaker, "_scan", spy)
    batched = breaker.extend_indices_many(items)
    assert batched == scalar
    assert batched == [breaker.break_indices(seq) for seq, __ in items]
    if lanes < _MIN_FRONTIER:
        assert resumed_rounds == []
    else:
        assert resumed_rounds and min(resumed_rounds) > 0


class TestOfflineFallback:
    def test_base_extend_rebreaks_fully(self):
        breaker = InterpolationBreaker(0.5)
        for full, prefix_len in _cases(seed=13, count=4):
            previous = breaker.break_indices(full[:prefix_len])
            assert breaker.extend_indices(full, previous) == breaker.break_indices(full)
        items = [
            (full, breaker.break_indices(full[:prefix_len]))
            for full, prefix_len in _cases(seed=17, count=4)
        ]
        assert breaker.extend_indices_many(items) == breaker.break_indices_many(
            [seq for seq, __ in items]
        )
