"""Function-series representations of sequences.

A :class:`FunctionSeriesRepresentation` is the paper's stored form of a
sequence: an ordered series of :class:`~repro.core.segment.Segment`
objects, each carrying a representing function plus its start/end
points.  It answers the questions the paper's machinery needs:

* the slope-sign symbol string over ``{+, -, 0}`` (Section 4.4),
* reconstruction / interpolation of unsampled points (Section 3),
* storage accounting for the compression claims (Section 5.2), and
* refitting — the paper *breaks* with interpolation lines but
  *represents* with regression lines, so a representation can be rebuilt
  from the same breakpoints with a different curve kind.

Every construction path (:meth:`~FunctionSeriesRepresentation.from_breakpoints`,
the append path's :meth:`~FunctionSeriesRepresentation.from_breakpoints_reusing`
and bulk ingest) fits through the one batch loop of
:meth:`~FunctionSeriesRepresentation.from_breakpoints_many`.  A
representation of line segments (the regression and interpolation
kinds) therefore leaves construction with its
:meth:`~FunctionSeriesRepresentation.segment_columns` already filled,
and its slopes, symbols and peaks are read from those arrays.  Only
other curve kinds and representations decoded from a blob build the
columns by walking their segments.
"""

from __future__ import annotations

from typing import Iterator, Sequence as TypingSequence

import numpy as np

from repro.core.errors import SequenceError
from repro.core.segment import Segment
from repro.core.sequence import Sequence
from repro.functions.fitting import get_fitter

__all__ = [
    "FunctionSeriesRepresentation",
    "SYMBOL_CODES",
    "classify_slopes",
    "decode_symbols",
    "symbols_from_slopes",
    "collapse_symbol_runs",
]

#: Slope-sign symbol → int8 code, the numeric form of the alphabet used
#: by the engine's symbol columns and transition tables.
SYMBOL_CODES = {"+": 1, "-": -1, "0": 0}

#: Code → symbol, indexed by ``code + 1``.
_CODE_TO_SYMBOL = np.array(["-", "0", "+"])


def classify_slopes(
    slopes: "TypingSequence[float] | np.ndarray", theta: float = 0.0
) -> np.ndarray:
    """Vectorized Section 4.4 classification: slopes → int8 symbol codes.

    The single source of the paper's rule: slopes above ``theta`` code
    to ``+1`` (rising), below ``-theta`` to ``-1`` (falling), ``0``
    (flat) otherwise.  Both the string form (:func:`symbols_from_slopes`)
    and the engine's symbol columns derive from this one function, so
    they can never disagree.
    """
    arr = np.asarray(slopes, dtype=np.float64)
    return np.where(arr > theta, 1, np.where(arr < -theta, -1, 0)).astype(np.int8)


def decode_symbols(codes: "np.ndarray | TypingSequence[int]") -> str:
    """Render int8 symbol codes back into a ``{+,-,0}`` string.

    Codes outside ``{-1, 0, +1}`` fail loudly: a corrupted symbol
    column must never render as a plausible-looking string.
    """
    arr = np.asarray(codes)
    if arr.size == 0:
        return ""
    index = arr.astype(np.int64) + 1
    bad = (index < 0) | (index >= len(_CODE_TO_SYMBOL)) | (index - 1 != arr)
    if bool(bad.any()):
        raise SequenceError(f"invalid symbol codes {np.unique(arr[bad]).tolist()}")
    return "".join(_CODE_TO_SYMBOL[index])


def collapse_symbol_runs(symbols: str) -> str:
    """Merge consecutive identical symbols into one behavioural run."""
    return "".join(s for i, s in enumerate(symbols) if i == 0 or s != symbols[i - 1])


def run_start_mask(
    codes: np.ndarray, group_starts: "np.ndarray | None" = None
) -> np.ndarray:
    """Boolean mask marking the first row of every symbol-code run.

    A row opens a run when its code differs from the previous row's —
    or when it is the first row of its group (``group_starts`` holds
    each non-empty group's first row), since runs never span groups.
    The one definition of run boundaries shared by the scalar shape
    signature, the engine's block run-collapse and the vectorized shape
    grading stage; their bit-for-bit agreement depends on it staying
    single-sourced.
    """
    n = len(codes)
    mask = np.empty(n, dtype=bool)
    if n == 0:
        return mask
    mask[0] = True
    np.not_equal(codes[1:], codes[:-1], out=mask[1:])
    if group_starts is not None:
        mask[group_starts] = True
    return mask


def symbols_from_slopes(
    slopes: "TypingSequence[float] | np.ndarray",
    theta: float = 0.0,
    collapse_runs: bool = False,
) -> str:
    """Slope-sign string over ``{'+', '-', '0'}`` from raw slope values.

    The string rendering of :func:`classify_slopes`.  Works on any
    slope array — a representation's own slopes or a column slice of
    the engine's columnar store — so both produce byte-identical
    strings.
    """
    symbols = decode_symbols(classify_slopes(slopes, theta))
    if collapse_runs:
        return collapse_symbol_runs(symbols)
    return symbols


def _prefill_linear_columns(
    representations: "list[FunctionSeriesRepresentation]",
    sequences: "TypingSequence[Sequence]",
    boundaries_list: "TypingSequence[TypingSequence[tuple[int, int]]]",
    line_slopes: "list[float]",
    line_intercepts: "list[float]",
) -> None:
    """Vectorized ``segment_columns`` for batches of line segments.

    Values are bit-identical to the lazy per-segment loop: the index
    and endpoint columns are gathers of the same stored scalars, and
    the mean-slope column evaluates the identical secant expression
    ``FittedFunction.mean_slope`` computes (falling back to the line's
    own slope — its derivative — for zero-duration single-point
    segments), elementwise over the whole sequence.
    """
    fn_slopes = np.asarray(line_slopes, dtype=np.float64)
    fn_intercepts = np.asarray(line_intercepts, dtype=np.float64)
    position = 0
    for representation, sequence, boundaries in zip(representations, sequences, boundaries_list):
        window = np.asarray(boundaries, dtype=np.int64).reshape(-1, 2)
        n = len(window)
        start_index = np.ascontiguousarray(window[:, 0])
        end_index = np.ascontiguousarray(window[:, 1])
        start_time = sequence.times[start_index]
        end_time = sequence.times[end_index]
        slopes = fn_slopes[position : position + n]
        intercepts = fn_intercepts[position : position + n]
        position += n
        span = end_time - start_time
        with np.errstate(invalid="ignore", divide="ignore"):
            secant = (
                (slopes * end_time + intercepts) - (slopes * start_time + intercepts)
            ) / span
        representation._columns = {
            "start_index": start_index,
            "end_index": end_index,
            "start_time": start_time,
            "end_time": end_time,
            "start_value": sequence.values[start_index],
            "end_value": sequence.values[end_index],
            "slope": np.where(span == 0.0, slopes, secant),
        }


class FunctionSeriesRepresentation:
    """An ordered series of function segments standing in for a sequence."""

    __slots__ = ("segments", "name", "source_length", "curve_kind", "epsilon", "_columns")

    def __init__(
        self,
        segments: TypingSequence[Segment],
        name: str = "",
        source_length: int = 0,
        curve_kind: str = "",
        epsilon: float = 0.0,
    ) -> None:
        seg_list = list(segments)
        if not seg_list:
            raise SequenceError("a representation needs at least one segment")
        for prev, nxt in zip(seg_list, seg_list[1:]):
            if nxt.start_index <= prev.end_index:
                raise SequenceError(
                    f"segments overlap: [{prev.start_index}..{prev.end_index}] then "
                    f"[{nxt.start_index}..{nxt.end_index}]"
                )
        self.segments = tuple(seg_list)
        self.name = name
        self.source_length = source_length or (seg_list[-1].end_index + 1)
        self.curve_kind = curve_kind
        self.epsilon = epsilon
        self._columns: "dict[str, np.ndarray] | None" = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_breakpoints(
        cls,
        sequence: Sequence,
        boundaries: TypingSequence[tuple[int, int]],
        curve_kind: str = "regression",
        epsilon: float = 0.0,
    ) -> "FunctionSeriesRepresentation":
        """Fit ``curve_kind`` to each ``(start, end)`` index window.

        This is the paper's two-phase flow: a breaking algorithm yields
        the boundaries, then any registered curve kind supplies the
        stored functions (regression lines in the paper's experiments).
        A batch of one through :meth:`from_breakpoints_many`.
        """
        return cls.from_breakpoints_many(
            [sequence], [boundaries], curve_kind=curve_kind, epsilon=epsilon
        )[0]

    @classmethod
    def from_breakpoints_many(
        cls,
        sequences: "TypingSequence[Sequence]",
        boundaries_list: "TypingSequence[TypingSequence[tuple[int, int]]]",
        curve_kind: str = "regression",
        epsilon: float = 0.0,
    ) -> "list[FunctionSeriesRepresentation]":
        """Fit ``curve_kind`` to every window of a batch of sequences.

        The one fitting loop every construction path runs through
        (:meth:`from_breakpoints` is a batch of one and
        :meth:`from_breakpoints_reusing` fits its changed suffix here).
        Each window's curve is fitted on a zero-copy view of its samples
        — bit-identical to ``get_fitter(curve_kind)`` on
        ``sequence.subsequence(start, end)`` — and a single-point window
        gets the constant regression line.  When every fitted function
        is a plain line, each representation's :meth:`segment_columns`
        memo is prefilled with vectorized column arrays (endpoint
        gathers and mean slopes in a handful of NumPy calls per
        sequence), which the engine's column-block append and the
        symbol and peak derivation consume without touching the segment
        objects.
        """
        if len(sequences) != len(boundaries_list):
            raise SequenceError(
                f"sequences ({len(sequences)}) and boundaries ({len(boundaries_list)}) disagree"
            )
        from repro.functions.linear import (
            LinearFunction,
            fit_interpolation_line,
            fit_regression_line,
            regression_coefficients,
        )

        fitter = get_fitter(curve_kind)
        # The two linear workhorse kinds fit straight off the window's
        # array slices — no per-window Sequence construction, same
        # coefficients bit for bit (see regression_coefficients).
        fast_regression = fitter is fit_regression_line
        fast_interpolation = fitter is fit_interpolation_line
        representations: "list[FunctionSeriesRepresentation]" = []
        line_slopes: "list[float]" = []
        line_intercepts: "list[float]" = []
        all_linear = True
        for sequence, boundaries in zip(sequences, boundaries_list):
            times = sequence.times
            values = sequence.values
            length = len(sequence)
            segments = []
            for start, end in boundaries:
                if start < 0 or end >= length or start > end:
                    # The rejection Sequence.subsequence applies — the
                    # fast paths below slice raw arrays and would
                    # otherwise wrap negatives.
                    raise SequenceError(
                        f"invalid index window [{start}, {end}] for length {length}"
                    )
                if end == start:
                    # A single point cannot be fitted by most families;
                    # use a regression (constant) line.
                    function = LinearFunction(0.0, float(values[start]))
                elif fast_regression:
                    slope, intercept = regression_coefficients(
                        times[start : end + 1], values[start : end + 1]
                    )
                    function = LinearFunction(slope, intercept)
                elif fast_interpolation:
                    t0 = times[start]
                    slope = (values[end] - values[start]) / (times[end] - t0)
                    function = LinearFunction(slope, values[start] - slope * t0)
                else:
                    function = fitter(sequence.window(start, end))
                segments.append(
                    Segment.trusted(
                        function,
                        start,
                        end,
                        (float(times[start]), float(values[start])),
                        (float(times[end]), float(values[end])),
                    )
                )
                if all_linear:
                    if type(function) is LinearFunction:
                        line_slopes.append(function.slope)
                        line_intercepts.append(function.intercept)
                    else:
                        all_linear = False
            representations.append(
                cls(
                    segments,
                    name=sequence.name,
                    source_length=len(sequence),
                    curve_kind=curve_kind,
                    epsilon=epsilon,
                )
            )

        if all_linear:
            _prefill_linear_columns(
                representations, sequences, boundaries_list, line_slopes, line_intercepts
            )
        return representations

    @classmethod
    def from_breakpoints_reusing(
        cls,
        sequence: Sequence,
        boundaries: "TypingSequence[tuple[int, int]]",
        previous: "FunctionSeriesRepresentation",
        curve_kind: str = "regression",
        epsilon: float = 0.0,
    ) -> "FunctionSeriesRepresentation":
        """Suffix-only :meth:`from_breakpoints` for appends.

        ``previous`` is the representation of a *prefix* of
        ``sequence`` (the pre-append data); every leading window of
        ``boundaries`` that matches one of ``previous``'s windows
        exactly reuses its fitted :class:`Segment` verbatim — segments
        are immutable and were fitted on identical samples, so reuse is
        bit-identical to refitting — and only the remaining (changed)
        suffix windows are fitted, through :meth:`from_breakpoints_many`.
        The reused rows of ``previous``'s memoized columns are joined to
        the suffix's prefilled ones.  The result equals
        ``from_breakpoints(sequence, boundaries, ...)`` byte for byte,
        at the cost of the suffix alone.
        """
        reuse = 0
        prev_segments = previous.segments
        for segment, (start, end) in zip(prev_segments, boundaries):
            if segment.start_index == start and segment.end_index == end:
                reuse += 1
            else:
                break
        segments = list(prev_segments[:reuse])
        columns = None
        if previous._columns is not None:
            columns = {name: column[:reuse] for name, column in previous._columns.items()}
        if reuse < len(boundaries):
            suffix = cls.from_breakpoints_many(
                [sequence], [boundaries[reuse:]], curve_kind=curve_kind, epsilon=epsilon
            )[0]
            segments.extend(suffix.segments)
            if columns is not None and suffix._columns is not None:
                columns = {
                    name: np.concatenate([column, suffix._columns[name]])
                    for name, column in columns.items()
                }
            else:
                columns = None
        representation = cls(
            segments,
            name=sequence.name,
            source_length=len(sequence),
            curve_kind=curve_kind,
            epsilon=epsilon,
        )
        representation._columns = columns
        return representation

    def refit(self, sequence: Sequence, curve_kind: str) -> "FunctionSeriesRepresentation":
        """The same breakpoints, represented by a different curve kind."""
        boundaries = [(s.start_index, s.end_index) for s in self.segments]
        rep = FunctionSeriesRepresentation.from_breakpoints(
            sequence, boundaries, curve_kind=curve_kind, epsilon=self.epsilon
        )
        rep.name = self.name
        return rep

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __getitem__(self, index: int) -> Segment:
        return self.segments[index]

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return (
            f"FunctionSeriesRepresentation(segments={len(self.segments)},{label} "
            f"kind={self.curve_kind!r}, source_length={self.source_length})"
        )

    # ------------------------------------------------------------------
    # Time geometry
    # ------------------------------------------------------------------

    @property
    def start_time(self) -> float:
        return self.segments[0].start_time

    @property
    def end_time(self) -> float:
        return self.segments[-1].end_time

    def breakpoints(self) -> list[int]:
        """Start indices of every segment after the first."""
        return [s.start_index for s in self.segments[1:]]

    def breakpoint_times(self) -> list[float]:
        return [s.start_time for s in self.segments[1:]]

    def segment_at(self, t: float) -> Segment:
        """The segment whose time span covers ``t``.

        Spans may have gaps (a breakpoint belongs to exactly one side);
        times in a gap resolve to the earlier segment.
        """
        if not (self.start_time <= t <= self.end_time):
            raise SequenceError(f"time {t} outside representation span")
        chosen = self.segments[0]
        for segment in self.segments:
            if segment.start_time > t:
                break
            chosen = segment
        return chosen

    # ------------------------------------------------------------------
    # Behaviour: symbols and slopes
    # ------------------------------------------------------------------

    def slopes(self) -> list[float]:
        """Mean slope of every segment, in order (the ``slope`` column)."""
        return self.segment_columns()["slope"].tolist()

    def segment_columns(self) -> "dict[str, np.ndarray]":
        """Array views of the per-segment scalars, one entry per column.

        The stacked form the execution engine stores: start/end indices,
        start/end ``(time, value)`` endpoints and mean slopes as
        contiguous NumPy arrays in segment order.  Values are exactly
        the scalars the per-segment accessors return, so vectorized
        consumers and the object API always agree.

        The columns are built once and memoized (segments are immutable
        after construction); treat the returned arrays as read-only —
        every consumer (the columnar store, shape signatures, exemplar
        digests) copies or derives rather than mutating them.
        """
        if self._columns is not None:
            return self._columns
        n = len(self.segments)
        columns = {
            "start_index": np.empty(n, dtype=np.int64),
            "end_index": np.empty(n, dtype=np.int64),
            "start_time": np.empty(n, dtype=np.float64),
            "end_time": np.empty(n, dtype=np.float64),
            "start_value": np.empty(n, dtype=np.float64),
            "end_value": np.empty(n, dtype=np.float64),
            "slope": np.empty(n, dtype=np.float64),
        }
        for i, segment in enumerate(self.segments):
            columns["start_index"][i] = segment.start_index
            columns["end_index"][i] = segment.end_index
            columns["start_time"][i] = segment.start_point[0]
            columns["start_value"][i] = segment.start_point[1]
            columns["end_time"][i] = segment.end_point[0]
            columns["end_value"][i] = segment.end_point[1]
            columns["slope"][i] = segment.mean_slope()
        self._columns = columns
        return columns

    def symbol_string(self, theta: float = 0.0, collapse_runs: bool = False) -> str:
        """Slope-sign classification over ``{'+', '-', '0'}``.

        ``theta`` is the paper's flatness threshold: slopes in
        ``[-theta, theta]`` are flat (``'0'``), above is ``'+'``, below
        is ``'-'`` (Section 4.4, "3 possible index values").

        With ``collapse_runs`` consecutive identical symbols merge into
        one: a monotone rise approximated by several consecutive linear
        pieces is still a single behavioural rise.  The paper's pattern
        queries (one ``'+'`` per peak flank) assume this collapsed view;
        positional indexes use the uncollapsed view, whose positions map
        one-to-one onto segments.
        """
        return symbols_from_slopes(self.slopes(), theta, collapse_runs=collapse_runs)

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------

    def interpolate_at(self, t: float) -> float:
        """Amplitude predicted by the representation at time ``t``."""
        segment = self.segment_at(t)
        t_clamped = min(max(t, segment.start_time), segment.end_time)
        return segment.value_at(t_clamped)

    def reconstruct(self) -> Sequence:
        """A sequence sampled from the representing functions.

        Each segment contributes as many points as it originally
        covered, so the reconstruction is index-aligned with the source
        and directly comparable to it.
        """
        times: list[np.ndarray] = []
        values: list[np.ndarray] = []
        for segment in self.segments:
            piece = segment.reconstruct()
            times.append(piece.times)
            values.append(piece.values)
        all_times = np.concatenate(times)
        all_values = np.concatenate(values)
        order = np.argsort(all_times, kind="stable")
        all_times = all_times[order]
        all_values = all_values[order]
        keep = np.concatenate([[True], np.diff(all_times) > 0])
        return Sequence(all_times[keep], all_values[keep], name=self.name)

    def reconstruction_error(self, sequence: Sequence) -> float:
        """Max deviation of the representation from the raw samples."""
        worst = 0.0
        for segment in self.segments:
            worst = max(worst, segment.max_deviation_from(sequence))
        return worst

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------

    def parameter_count(self, convention: str = "paper") -> int:
        """Total stored scalars under a storage-accounting convention.

        ``"paper"``
            Three scalars per segment — "each representation requires
            3 parameters (such as function coefficients and
            breakpoints)" (Section 5.2).  For a line that is slope,
            intercept and the breakpoint position.
        ``"full"``
            The honest count: every function parameter plus both
            endpoint ``(time, value)`` pairs, which is what the binary
            codec in :mod:`repro.storage.serialization` actually writes.
        """
        if convention == "paper":
            return 3 * len(self.segments)
        if convention == "full":
            per_segment_endpoints = 4  # start time/value + end time/value
            return sum(s.function.parameter_count + per_segment_endpoints for s in self.segments)
        raise SequenceError(f"unknown storage convention {convention!r}")

    def compression_ratio(self, convention: str = "paper") -> float:
        """Raw sample scalars divided by stored representation scalars.

        Raw storage is one scalar per sample (values on a known uniform
        grid), the convention under which the paper reports "about a
        factor of 8" for 500-point ECGs broken into ~20 segments.
        """
        return self.source_length / max(self.parameter_count(convention), 1)
