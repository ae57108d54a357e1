"""The offline recursive curve-fitting template (paper Figure 8).

This is the paper's generalization of Schneider's Bézier-fitting
algorithm to an arbitrary curve type ``c``:

1. Fit a curve of type ``c`` to ``S``.
2. Find the point of maximum deviation from the curve.
3. If the deviation is below the tolerance, ``S`` is one segment.
4. Otherwise fit curves to the subsequences on either side of the
   point, associate the point with whichever side's curve it is closer
   to (the paper's adjustment — steps 4a–4c), and recurse.

Unlike the original Schneider algorithm, no continuity is imposed
between neighbouring curves and the split point belongs to exactly one
subsequence (both modifications are called out in Section 5.1).

Two execution strategies share the algorithm:

* the scalar path (:meth:`RecursiveCurveFitBreaker.break_indices`)
  recurses one window at a time, for any registered curve kind;
* the frontier-batched path (:func:`break_frontier`, used by
  :meth:`RecursiveCurveFitBreaker.break_indices_many` when the curve
  kind has a chord kernel) keeps every active ``(sequence, start,
  end)`` window of a whole batch in flat NumPy arrays and runs one
  vectorized fit + per-window ``reduceat`` deviation reduction per
  recursion round.  Windows that converge retire from the frontier;
  the rest split and re-enter.  Every floating-point expression is the
  elementwise image of the scalar path's, so the resulting boundaries
  are bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.core.errors import FittingError, SegmentationError
from repro.core.sequence import Sequence
from repro.functions.fitting import get_chord_kernel, get_fitter
from repro.segmentation.base import Boundaries, Breaker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.functions.fitting import ChordKernel

__all__ = ["RecursiveCurveFitBreaker", "break_frontier"]

#: Sentinel distinguishing "window never fitted" from "fit failed".
_MISSING = object()


class RecursiveCurveFitBreaker(Breaker):
    """Figure-8 template parameterized by a registered curve kind.

    Parameters
    ----------
    epsilon:
        Maximum tolerated pointwise deviation between a subsequence and
        its fitted curve (the ``delta`` of paper Figure 8).
    curve_kind:
        Any kind accepted by :func:`repro.functions.fitting.get_fitter`.
    split_side:
        ``"closer"`` applies the paper's steps 4a–4c (the split point
        joins whichever side fits it better); ``"left"`` and ``"right"``
        are ablation modes that always assign it to one side.
    """

    #: Reuse the ``"closer"`` decision's left/right trial fits when the
    #: matching child window is popped from the stack, instead of
    #: refitting it from scratch.  Class-level so tests can flip it off
    #: to measure the saving; the boundaries are identical either way
    #: (the fits are deterministic).
    reuse_trial_fits: bool = True

    def __init__(self, epsilon: float, curve_kind: str = "interpolation", split_side: str = "closer") -> None:
        super().__init__(epsilon)
        if split_side not in ("closer", "left", "right"):
            raise SegmentationError(f"unknown split_side {split_side!r}")
        self.curve_kind = curve_kind
        self.split_side = split_side
        self._fitter = get_fitter(curve_kind)

    def break_indices(self, sequence: Sequence) -> Boundaries:
        segments: Boundaries = []
        # Explicit stack instead of recursion: ECG-scale inputs with a
        # tight epsilon can split thousands of times.
        stack = [(0, len(sequence) - 1)]
        resolved: list[tuple[int, int]] = []
        # Per-call fit memo: the "closer" side decision trial-fits both
        # candidate child windows; when a child window is later popped,
        # its fit is taken from here instead of being recomputed.
        fit_memo: "dict[tuple[int, int], object] | None" = (
            {} if self.reuse_trial_fits else None
        )
        while stack:
            start, end = stack.pop()
            split = self._split_point(sequence, start, end, fit_memo)
            if split is None:
                resolved.append((start, end))
                continue
            left_end, right_start = split
            # Push right first so the left half is processed first,
            # keeping the traversal in index order is not required —
            # resolved windows are sorted below.
            stack.append((right_start, end))
            stack.append((start, left_end))
        segments = sorted(resolved)
        return segments

    def break_indices_many(self, sequences: "Iterable[Sequence]") -> "list[Boundaries]":
        """Batch breaking: frontier-vectorized when the curve allows it.

        Curve kinds with a registered chord kernel (the endpoint
        interpolation line) break the whole batch through
        :func:`break_frontier`; all other kinds — and any third-party
        registered fitter — loop :meth:`break_indices` per sequence.
        Boundaries are identical on both paths.  A subclass that
        overrides :meth:`break_indices` is looped through its override,
        the rule :meth:`Breaker.represent_many` applies to
        :meth:`Breaker.represent`.
        """
        sequences = list(sequences)
        kernel = get_chord_kernel(self.curve_kind)
        overridden = type(self).break_indices is not RecursiveCurveFitBreaker.break_indices
        if kernel is None or overridden or not sequences:
            return super().break_indices_many(sequences)
        return break_frontier(sequences, kernel, self.epsilon, self.split_side)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _split_point(
        self,
        sequence: Sequence,
        start: int,
        end: int,
        fit_memo: "dict[tuple[int, int], object] | None" = None,
    ) -> "tuple[int, int] | None":
        """Where to split ``[start, end]``, or ``None`` if it converged.

        Returns ``(left_end, right_start)`` index pair; the split sample
        belongs to exactly one side.
        """
        n = end - start + 1
        if n <= 2:
            return None
        piece = sequence.window(start, end)
        cached = _MISSING if fit_memo is None else fit_memo.pop((start, end), _MISSING)
        if cached is _MISSING:
            try:
                curve = self._fitter(piece)
            except FittingError:
                return None
        elif cached is None:
            # The trial fit already failed on this exact window.
            return None
        else:
            curve = cached
        deviation = curve.max_deviation(piece)
        if deviation <= self.epsilon:
            return None

        worst = start + curve.argmax_deviation(piece)
        # The worst point must be interior so both sides are non-empty.
        worst = min(max(worst, start + 1), end - 1)
        side = self._choose_side(sequence, start, end, worst, fit_memo)
        if side == "left":
            return worst, worst + 1
        return worst - 1, worst

    def _choose_side(
        self,
        sequence: Sequence,
        start: int,
        end: int,
        worst: int,
        fit_memo: "dict[tuple[int, int], object] | None" = None,
    ) -> str:
        """Paper steps 4a–4c: which subsequence owns the split sample."""
        if self.split_side != "closer":
            return self.split_side
        t, v = sequence[worst]
        left_fit = self._try_fit(sequence, start, worst - 1)
        right_fit = self._try_fit(sequence, worst, end)
        if fit_memo is not None:
            # Whichever side wins, at least one trial window becomes a
            # child verbatim ("right" reuses both); remember the fits so
            # popping the child does not repeat them.
            fit_memo[(start, worst - 1)] = left_fit
            fit_memo[(worst, end)] = right_fit
        if left_fit is None and right_fit is None:
            return "right"
        if left_fit is None:
            return "right"
        if right_fit is None:
            return "left"
        dist_left = abs(float(left_fit(t)) - v)
        dist_right = abs(float(right_fit(t)) - v)
        return "left" if dist_left <= dist_right else "right"

    def _try_fit(self, sequence: Sequence, start: int, end: int):
        if end < start:
            return None
        piece = sequence.window(start, end)
        if len(piece) < 2:
            return None
        try:
            return self._fitter(piece)
        except FittingError:
            return None


# ----------------------------------------------------------------------
# Frontier-batched breaking
# ----------------------------------------------------------------------


def break_frontier(
    sequences: "list[Sequence]",
    chord_kernel: "ChordKernel",
    epsilon: float,
    split_side: str,
) -> "list[Boundaries]":
    """Break every sequence of a batch in lock-step frontier rounds.

    All active ``(owner, start, end)`` windows across the batch live in
    flat int64 arrays over one concatenated time/value worklist.  Each
    round fits every window's chord at once (``chord_kernel`` returns
    the line-coefficient columns), evaluates the point-to-chord
    residuals over the flattened window points in one pass, and reduces
    them per window with ``np.maximum.reduceat``.  Windows at or below
    the tolerance retire; the rest locate their first point of maximum
    deviation (``minimum.reduceat`` over masked positions — the same
    first-occurrence tie-break as ``np.argmax``), pick a side exactly
    like :meth:`RecursiveCurveFitBreaker._choose_side`, and split into
    two child windows for the next round.

    Every arithmetic expression is the elementwise twin of the scalar
    path's, so the returned boundaries are bit-identical to calling
    ``break_indices`` per sequence.
    """
    if split_side not in ("closer", "left", "right"):
        raise SegmentationError(f"unknown split_side {split_side!r}")
    n_seqs = len(sequences)
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    seq_offsets = np.zeros(n_seqs, dtype=np.int64)
    np.cumsum(lengths[:-1], out=seq_offsets[1:])
    times = np.concatenate([s.times for s in sequences])
    values = np.concatenate([s.values for s in sequences])

    owners = np.arange(n_seqs, dtype=np.int64)
    starts = np.zeros(n_seqs, dtype=np.int64)
    ends = lengths - 1
    resolved_owners: "list[np.ndarray]" = []
    resolved_starts: "list[np.ndarray]" = []
    resolved_ends: "list[np.ndarray]" = []

    def retire(mask: np.ndarray) -> None:
        resolved_owners.append(owners[mask])
        resolved_starts.append(starts[mask])
        resolved_ends.append(ends[mask])

    while owners.size:
        window_lengths = ends - starts + 1
        # Windows of one or two points never split (the scalar template
        # returns before fitting them).
        trivial = window_lengths <= 2
        if bool(trivial.any()):
            retire(trivial)
            keep = ~trivial
            owners, starts, ends = owners[keep], starts[keep], ends[keep]
            window_lengths = window_lengths[keep]
        if not owners.size:
            break

        base = seq_offsets[owners]
        lo = base + starts
        hi = base + ends
        slope, intercept = chord_kernel(times[lo], values[lo], times[hi], values[hi])

        # Flatten every active window's points into one worklist.
        total = int(window_lengths.sum())
        offsets = np.zeros(owners.size, dtype=np.int64)
        np.cumsum(window_lengths[:-1], out=offsets[1:])
        flat = np.arange(total, dtype=np.int64) + np.repeat(lo - offsets, window_lengths)
        t = times[flat]
        residual = np.abs(
            values[flat]
            - (np.repeat(slope, window_lengths) * t + np.repeat(intercept, window_lengths))
        )
        deviation = np.maximum.reduceat(residual, offsets)

        converged = deviation <= epsilon
        if bool(converged.any()):
            retire(converged)
        split = ~converged
        if not bool(split.any()):
            break

        # First index of the per-window maximum — np.argmax's tie-break.
        positions = np.arange(total, dtype=np.int64)
        candidates = np.where(
            residual == np.repeat(deviation, window_lengths), positions, total
        )
        first = np.minimum.reduceat(candidates, offsets)
        worst = starts + (first - offsets)
        # The worst point must be interior so both sides are non-empty.
        worst = np.minimum(np.maximum(worst, starts + 1), ends - 1)

        owners_s = owners[split]
        starts_s = starts[split]
        ends_s = ends[split]
        worst_s = worst[split]
        side_left = _choose_side_columns(
            times, values, chord_kernel, split_side, base[split], starts_s, ends_s, worst_s
        )

        left_ends = np.where(side_left, worst_s, worst_s - 1)
        owners = np.concatenate([owners_s, owners_s])
        starts = np.concatenate([starts_s, left_ends + 1])
        ends = np.concatenate([left_ends, ends_s])

    all_owners = np.concatenate(resolved_owners) if resolved_owners else np.empty(0, np.int64)
    all_starts = np.concatenate(resolved_starts) if resolved_starts else np.empty(0, np.int64)
    all_ends = np.concatenate(resolved_ends) if resolved_ends else np.empty(0, np.int64)
    order = np.lexsort((all_starts, all_owners))
    all_starts = all_starts[order].tolist()
    all_ends = all_ends[order].tolist()
    counts = np.bincount(all_owners, minlength=n_seqs)

    boundaries: "list[Boundaries]" = []
    position = 0
    for count in counts.tolist():
        boundaries.append(
            list(zip(all_starts[position : position + count], all_ends[position : position + count]))
        )
        position += count
    return boundaries


def _choose_side_columns(
    times: np.ndarray,
    values: np.ndarray,
    chord_kernel: "ChordKernel",
    split_side: str,
    base: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    worst: np.ndarray,
) -> np.ndarray:
    """Vectorized steps 4a–4c: True where the split sample goes left.

    Mirrors :meth:`RecursiveCurveFitBreaker._choose_side` columnwise:
    trial chords over ``[start, worst-1]`` and ``[worst, end]``, the
    split sample joining whichever side's curve passes closer to it
    (ties go left).  A left window of fewer than two points cannot be
    fitted, which the scalar path resolves as "right"; the right window
    always spans at least two points, so it always fits.
    """
    if split_side == "left":
        return np.ones(len(starts), dtype=bool)
    if split_side == "right":
        return np.zeros(len(starts), dtype=bool)
    at_worst = base + worst
    t_worst = times[at_worst]
    v_worst = values[at_worst]
    has_left = worst - starts >= 2
    with np.errstate(divide="ignore", invalid="ignore"):
        # Degenerate left windows produce NaN/inf coefficients here;
        # ``has_left`` masks them out below, matching the scalar path's
        # "left fit is None -> right" rule.
        left_slope, left_intercept = chord_kernel(
            times[base + starts],
            values[base + starts],
            times[at_worst - 1],
            values[at_worst - 1],
        )
        right_slope, right_intercept = chord_kernel(
            t_worst, v_worst, times[base + ends], values[base + ends]
        )
        dist_left = np.abs(left_slope * t_worst + left_intercept - v_worst)
        dist_right = np.abs(right_slope * t_worst + right_intercept - v_worst)
        return has_left & (dist_left <= dist_right)
