"""Breaker interface and the paper's required breaker properties.

Section 4.3 of the paper demands three properties of any beneficial
breaking algorithm; this module gives them executable form so tests and
benchmarks can check them on every implementation:

*consistency*
    Similar sequences break at corresponding breakpoints — checked by
    :func:`breakpoints_correspond` across feature-preserving transforms.
*robustness*
    Adding a behaviour-preserving element shifts breakpoints by at most
    the number of added elements — checked by tests via
    :func:`breakpoints_correspond` with an index budget.
*avoids fragmentation*
    Most segments have length > 2 — quantified by
    :func:`fragmentation_ratio`.
"""

from __future__ import annotations

import abc
from typing import Sequence as TypingSequence

import numpy as np

from repro.core.errors import SegmentationError
from repro.core.representation import FunctionSeriesRepresentation
from repro.core.sequence import Sequence
from repro.functions.fitting import get_fitter
from repro.functions.linear import (
    check_index_windows,
    fit_interpolation_lines,
    gather_windows,
    regression_lines,
)

__all__ = [
    "Breaker",
    "Boundaries",
    "is_partition",
    "fragmentation_ratio",
    "verify_tolerance",
    "breakpoints_correspond",
]

#: Inclusive ``(start_index, end_index)`` windows covering a sequence.
Boundaries = list[tuple[int, int]]


class Breaker(abc.ABC):
    """A breaking algorithm: sequence in, segment boundaries out."""

    #: Curve kind the breaker itself fits while deciding where to break.
    curve_kind: str = "interpolation"

    def __init__(self, epsilon: float) -> None:
        if epsilon < 0:
            raise SegmentationError("error tolerance epsilon must be non-negative")
        self.epsilon = float(epsilon)

    @abc.abstractmethod
    def break_indices(self, sequence: Sequence) -> Boundaries:
        """Partition ``sequence`` into inclusive index windows."""

    def break_indices_many(
        self, sequences: "TypingSequence[Sequence]"
    ) -> "list[Boundaries]":
        """Partition a whole batch of sequences.

        The base implementation loops :meth:`break_indices`; breakers
        whose per-window fit vectorizes (the interpolation chord, whose
        deviation profile is a closed-form function of window endpoints)
        override this with a frontier-batched kernel that processes
        every active window of the whole batch per round.  Either way
        the boundaries are identical to breaking one sequence at a time.
        """
        return [self.break_indices(sequence) for sequence in sequences]

    def extend_indices(
        self, sequence: Sequence, previous_boundaries: Boundaries
    ) -> Boundaries:
        """Boundaries for ``sequence`` after trailing samples were added.

        ``previous_boundaries`` is the full partition of a *prefix* of
        ``sequence`` (the pre-append break, trailing window closed at
        the old last sample).  The contract is strict: the result must
        equal :meth:`break_indices` of the whole extended sequence, bit
        for bit — the streaming append path's parity guarantee rests on
        it.

        The base implementation simply re-breaks from scratch, which is
        always correct.  *Online* breakers override it with a
        suffix-only rescan: their per-sample decisions depend only on
        the current open segment, so resuming from the last closed
        boundary provably reproduces the from-scratch break at the cost
        of the tail alone.
        """
        return self.break_indices(sequence)

    def extend_indices_many(
        self, items: "TypingSequence[tuple[Sequence, Boundaries]]"
    ) -> "list[Boundaries]":
        """Batch twin of :meth:`extend_indices`.

        ``items`` yields ``(extended_sequence, previous_boundaries)``
        pairs.  Breakers that override :meth:`extend_indices` are
        looped through their override (suffix-only work per sequence);
        otherwise the batch falls through to the frontier-batched
        :meth:`break_indices_many` full re-break — correct for every
        breaker, and still vectorized where the chord kernel exists.
        Online breakers may override this as well with a lock-step
        frontier over all suffixes at once.
        """
        items = list(items)
        if type(self).extend_indices is not Breaker.extend_indices:
            return [
                self.extend_indices(sequence, previous) for sequence, previous in items
            ]
        return self.break_indices_many([sequence for sequence, __ in items])

    def represent(
        self, sequence: Sequence, curve_kind: str | None = None
    ) -> FunctionSeriesRepresentation:
        """Break and then fit the stored representation.

        ``curve_kind`` defaults to the breaker's own curve; the paper's
        pipeline breaks with ``"interpolation"`` and represents with
        ``"regression"`` — pass the latter explicitly to mirror it.
        """
        boundaries = self.break_indices(sequence)
        return FunctionSeriesRepresentation.from_breakpoints(
            sequence,
            boundaries,
            curve_kind=curve_kind or self.curve_kind,
            epsilon=self.epsilon,
        )

    def represent_many(
        self, sequences: "TypingSequence[Sequence]", curve_kind: str | None = None
    ) -> "list[FunctionSeriesRepresentation]":
        """Break and represent a whole batch of sequences.

        The entry point of every database ingest, single or bulk.
        Breaking goes through :meth:`break_indices_many`
        (frontier-batched where the breaker supports it) and the
        representations are fitted by
        :meth:`FunctionSeriesRepresentation.from_breakpoints_many`, the
        same fitting path :meth:`represent` runs, which fits line kinds
        with one kernel call per batch into the ``segment_columns``
        arrays the engine's column-block append consumes.  Output is
        identical to calling :meth:`represent` per sequence —
        subclasses that override :meth:`represent` itself are detected
        and looped through their override, so per-sequence
        customizations keep applying to every ingest (override this
        method as well to batch them).
        """
        sequences = list(sequences)
        if type(self).represent is not Breaker.represent:
            return [self.represent(sequence, curve_kind=curve_kind) for sequence in sequences]
        boundaries = self.break_indices_many(sequences)
        return FunctionSeriesRepresentation.from_breakpoints_many(
            sequences,
            boundaries,
            curve_kind=curve_kind or self.curve_kind,
            epsilon=self.epsilon,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(epsilon={self.epsilon:g})"


# ----------------------------------------------------------------------
# Property checkers
# ----------------------------------------------------------------------


def is_partition(boundaries: Boundaries, length: int) -> bool:
    """Whether windows tile ``range(length)`` exactly, in order."""
    if not boundaries:
        return False
    if boundaries[0][0] != 0 or boundaries[-1][1] != length - 1:
        return False
    for (_, prev_end), (next_start, _) in zip(boundaries, boundaries[1:]):
        if next_start != prev_end + 1:
            return False
    return all(start <= end for start, end in boundaries)


def fragmentation_ratio(boundaries: Boundaries) -> float:
    """Fraction of segments of length <= 2 (lower is better).

    The paper requires "most resulting subsequences should be of length
    > 2" for the representation to compress at all.
    """
    if not boundaries:
        raise SegmentationError("no segments")
    short = sum(1 for start, end in boundaries if end - start + 1 <= 2)
    return short / len(boundaries)


def verify_tolerance(
    sequence: Sequence,
    boundaries: Boundaries,
    curve_kind: str,
    epsilon: float,
) -> bool:
    """Whether every window is within ``epsilon`` of its fitted curve.

    The line kinds fit every window of two or more points with one
    batch kernel call (:func:`regression_lines`,
    :func:`fit_interpolation_lines`), whose coefficients equal the
    per-window fitter's bit for bit, and take each window's largest
    ``|value - (slope * t + intercept)|`` — the elementwise expression
    of :meth:`LinearFunction.residuals` — with one
    ``np.maximum.reduceat``.  Other kinds fit window by window.
    """
    if curve_kind not in ("regression", "interpolation"):
        fitter = get_fitter(curve_kind)
        for start, end in boundaries:
            piece = sequence.subsequence(start, end)
            if len(piece) < 2:
                continue
            if fitter(piece).max_deviation(piece) > epsilon + 1e-9:
                return False
        return True
    windows = np.asarray(boundaries, dtype=np.int64).reshape(-1, 2)
    check_index_windows(windows[:, 0], windows[:, 1], len(sequence))
    windows = windows[windows[:, 1] > windows[:, 0]]
    if len(windows) == 0:
        return True
    starts, ends = windows[:, 0], windows[:, 1]
    times, values = sequence.times, sequence.values
    if curve_kind == "regression":
        slope, intercept = regression_lines(times, values, starts, ends)
    else:
        slope, intercept = fit_interpolation_lines(
            times[starts], values[starts], times[ends], values[ends]
        )
    gather, offsets, counts = gather_windows(starts, ends)
    fitted = np.repeat(slope, counts) * times[gather] + np.repeat(intercept, counts)
    worst = np.maximum.reduceat(np.abs(values[gather] - fitted), offsets)
    return not bool((worst > epsilon + 1e-9).any())


def breakpoints_correspond(
    first: TypingSequence[int],
    second: TypingSequence[int],
    index_budget: int,
) -> bool:
    """Whether two breakpoint lists align within ``index_budget`` positions.

    Encodes the paper's robustness condition: adding or deleting
    behaviour-preserving elements "does no more than shift the
    breakpoints by at most the number of elements added/deleted".
    """
    if len(first) != len(second):
        return False
    return all(abs(a - b) <= index_budget for a, b in zip(first, second))
