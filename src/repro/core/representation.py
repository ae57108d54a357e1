"""Function-series representations of sequences.

A :class:`FunctionSeriesRepresentation` is the paper's stored form of a
sequence: an ordered series of segments, each a representing function
over an index window plus its sampled start/end points.  It answers the
questions the paper's machinery needs:

* the slope-sign symbol string over ``{+, -, 0}`` (Section 4.4),
* reconstruction / interpolation of unsampled points (Section 3),
* storage accounting for the compression claims (Section 5.2), and
* refitting — the paper *breaks* with interpolation lines but
  *represents* with regression lines, so a representation can be rebuilt
  from the same breakpoints with a different curve kind.

A representation of line segments (the regression and interpolation
kinds, which every workload uses) holds only NumPy arrays: the
:meth:`~FunctionSeriesRepresentation.segment_columns` (index window,
sampled endpoints, mean slope) and the lines' slope and intercept.
:meth:`~FunctionSeriesRepresentation.from_breakpoints_many` fits a whole
batch with one segmented least-squares kernel (or the endpoint chords),
the append path's :meth:`~FunctionSeriesRepresentation.from_breakpoints_reusing`
fits a whole batch's changed suffixes in one such call and joins them to
the reused prefix slices, and the codec packs and unpacks them
directly, so no write path builds a per-segment object.  The object API
(``segments``, iteration, indexing, :meth:`~FunctionSeriesRepresentation.segment_at`)
builds :class:`~repro.core.segment.Segment` and
:class:`~repro.functions.linear.LinearFunction` objects on demand.
Other curve kinds (Bézier, polynomial, sinusoid) hold their
:class:`~repro.core.segment.Segment` objects and build the columns on
first use.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterator, Sequence as TypingSequence, overload

import numpy as np

from repro.core.errors import SequenceError
from repro.core.segment import Segment
from repro.core.sequence import Sequence
from repro.functions.base import FittedFunction
from repro.functions.fitting import get_fitter
from repro.functions.linear import (
    LinearFunction,
    check_index_windows,
    fit_interpolation_line,
    fit_interpolation_lines,
    fit_regression_line,
    regression_lines,
)

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

#: Code → ASCII byte of its symbol, indexed by ``code + 1``.
_CODE_TO_SYMBOL = np.frombuffer(b"-0+", dtype=np.uint8)

#: The index and endpoint columns of :meth:`FunctionSeriesRepresentation.segment_columns`,
#: in order; the seventh column, ``slope``, is derived from the functions.
_GEOMETRY_COLUMNS = ("start_index", "end_index", "start_time", "end_time", "start_value", "end_value")

#: Every :meth:`FunctionSeriesRepresentation.segment_columns` column.
_JOIN_COLUMNS = (*_GEOMETRY_COLUMNS, "slope")

_join_columns = itemgetter(*_JOIN_COLUMNS)


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
    # Booleans viewed as int8 are 0/1, so rising minus falling is the code.
    return (arr > theta).view(np.int8) - (arr < -theta).view(np.int8)


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
    return _CODE_TO_SYMBOL[index].tobytes().decode("ascii")


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


def _secant_slopes(
    slope: np.ndarray, intercept: np.ndarray, start_time: np.ndarray, end_time: np.ndarray
) -> np.ndarray:
    """Mean slope of each line over its segment: the ``slope`` column.

    The secant expression ``FittedFunction.mean_slope`` evaluates on
    Python floats, elementwise — so bit-identical to the object API —
    falling back to the line's own slope (its derivative) for
    zero-duration single-point segments.  For a line the secant equals
    the slope up to rounding; classification reads this column, never
    the line slope.
    """
    span = end_time - start_time
    with np.errstate(invalid="ignore", divide="ignore"):
        secant = ((slope * end_time + intercept) - (slope * start_time + intercept)) / span
    return np.where(span == 0.0, slope, secant)


def _check_order(start_index: np.ndarray, end_index: np.ndarray) -> None:
    """Reject an empty segment list or one whose windows overlap."""
    if len(start_index) == 0:
        raise SequenceError("a representation needs at least one segment")
    overlap = start_index[1:] <= end_index[:-1]
    if bool(overlap.any()):
        i = int(np.argmax(overlap))
        raise SequenceError(
            f"segments overlap: [{start_index[i]}..{end_index[i]}] then "
            f"[{start_index[i + 1]}..{end_index[i + 1]}]"
        )


def _shared_prefix(items: "list[int]", previous: "list[int]") -> int:
    """How many leading entries two lists share.

    An append usually changes only the trailing window or appends new
    ones, so the whole-list and all-but-last compares (C-speed list
    equality) settle almost every item; otherwise the first differing
    entry is searched for.
    """
    k = min(len(items), len(previous))
    if items[:k] == previous[:k]:
        return k
    if items[: k - 1] == previous[: k - 1]:
        return k - 1
    return next(i for i in range(k) if items[i] != previous[i])


def _stack_windows(
    boundaries_list: "TypingSequence[TypingSequence[tuple[int, int]]]",
) -> "tuple[np.ndarray, np.ndarray]":
    """Every item's ``(start, end)`` windows as one ``(n, 2)`` int64 array,
    plus each item's window count.

    Array items are concatenated; lists of pairs (what breakers return)
    are read in one ``np.fromiter`` pass, far cheaper than converting
    each item's tuples separately.
    """
    if all(isinstance(boundaries, np.ndarray) for boundaries in boundaries_list):
        arrays = [boundaries.reshape(-1, 2) for boundaries in boundaries_list]
        flat = np.concatenate([np.empty((0, 2), dtype=np.int64), *arrays]).astype(np.int64)
        counts = np.array([len(array) for array in arrays], dtype=np.int64)
    else:
        flat = np.fromiter(
            chain.from_iterable(chain.from_iterable(boundaries_list)), dtype=np.int64
        ).reshape(-1, 2)
        counts = np.array([len(boundaries) for boundaries in boundaries_list], dtype=np.int64)
    return flat, counts


def _check_windows(flat: np.ndarray, counts: np.ndarray, lengths: np.ndarray) -> None:
    """:func:`check_index_windows` and :func:`_check_order` for every item
    of a batch at once; the first failing item raises its own error."""
    start = flat[:, 0]
    end = flat[:, 1]
    offsets = np.cumsum(counts) - counts
    overlap = np.zeros(len(flat), dtype=bool)
    overlap[1:] = start[1:] <= end[:-1]
    overlap[offsets[counts > 0]] = False  # an item's first window follows no window of its own
    failing = overlap | (start < 0) | (end >= np.repeat(lengths, counts)) | (start > end)
    if not bool(failing.any()) and bool((counts > 0).all()):
        return
    item_of_row = np.repeat(np.arange(len(counts)), counts)
    bad_items = np.union1d(item_of_row[failing], np.flatnonzero(counts == 0))
    j = int(bad_items[0])
    window = flat[offsets[j] : offsets[j] + counts[j]]
    check_index_windows(window[:, 0], window[:, 1], int(lengths[j]))
    _check_order(window[:, 0], window[:, 1])


class FunctionSeriesRepresentation:
    """An ordered series of function segments standing in for a sequence.

    Line representations hold only arrays: the :meth:`segment_columns`
    and the lines' slope/intercept columns.  Other curve kinds hold
    their :class:`Segment` objects and build the columns on first use.
    """

    __slots__ = ("name", "source_length", "curve_kind", "epsilon", "_columns", "_lines", "_segments")

    def __init__(
        self,
        segments: TypingSequence[Segment],
        name: str = "",
        source_length: int = 0,
        curve_kind: str = "",
        epsilon: float = 0.0,
    ) -> None:
        seg_tuple = tuple(segments)
        _check_order(
            np.array([s.start_index for s in seg_tuple], dtype=np.int64),
            np.array([s.end_index for s in seg_tuple], dtype=np.int64),
        )
        self._segments: "tuple[Segment, ...] | None" = seg_tuple
        self._columns: "dict[str, np.ndarray] | None" = None
        self._lines: "tuple[np.ndarray, np.ndarray] | None" = None
        self.name = name
        self.source_length = source_length or (seg_tuple[-1].end_index + 1)
        self.curve_kind = curve_kind
        self.epsilon = epsilon

    @classmethod
    def _of_lines(
        cls,
        columns: "dict[str, np.ndarray]",
        lines: "tuple[np.ndarray, np.ndarray]",
        name: str,
        source_length: int,
        curve_kind: str,
        epsilon: float,
    ) -> "FunctionSeriesRepresentation":
        """Adopt already-checked column arrays as a line representation."""
        representation = object.__new__(cls)
        representation._segments = None
        representation._columns = columns
        representation._lines = lines
        representation.name = name
        representation.source_length = source_length or int(columns["end_index"][-1]) + 1
        representation.curve_kind = curve_kind
        representation.epsilon = epsilon
        return representation

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
    def from_line_columns(
        cls,
        columns: "dict[str, np.ndarray]",
        slope: np.ndarray,
        intercept: np.ndarray,
        name: str = "",
        source_length: int = 0,
        curve_kind: str = "",
        epsilon: float = 0.0,
    ) -> "FunctionSeriesRepresentation":
        """A line representation from its stored per-segment arrays.

        ``columns`` holds the six index and endpoint columns of
        :meth:`segment_columns` (everything but ``slope``, which is
        derived here); ``slope``/``intercept`` are the lines'
        coefficients.  Applies the checks the :class:`Segment` and
        representation constructors apply, with the same messages.
        """
        columns = {
            column: np.ascontiguousarray(columns[column], dtype=np.int64 if i < 2 else np.float64)
            for i, column in enumerate(_GEOMETRY_COLUMNS)
        }
        start_index = columns["start_index"]
        end_index = columns["end_index"]
        backwards = np.flatnonzero(end_index < start_index)
        if backwards.size:
            i = backwards[0]
            raise SequenceError(
                f"segment end index {end_index[i]} precedes start index {start_index[i]}"
            )
        if bool(np.any(columns["end_time"] < columns["start_time"])):
            raise SequenceError("segment end time precedes start time")
        _check_order(start_index, end_index)
        slope = np.ascontiguousarray(slope, dtype=np.float64)
        intercept = np.ascontiguousarray(intercept, dtype=np.float64)
        columns["slope"] = _secant_slopes(
            slope, intercept, columns["start_time"], columns["end_time"]
        )
        return cls._of_lines(
            columns, (slope, intercept), name, source_length, curve_kind, epsilon
        )

    @classmethod
    def from_breakpoints_many(
        cls,
        sequences: "TypingSequence[Sequence]",
        boundaries_list: "TypingSequence[TypingSequence[tuple[int, int]]]",
        curve_kind: str = "regression",
        epsilon: float = 0.0,
    ) -> "list[FunctionSeriesRepresentation]":
        """Fit ``curve_kind`` to every window of a batch of sequences.

        The one fitting path every construction runs through
        (:meth:`from_breakpoints` is a batch of one and
        :meth:`from_breakpoints_reusing` fits every changed suffix of an
        append batch here in one call).
        Every window is checked first, as array predicates over the
        whole batch's windows.  The two line kinds then fit the whole batch
        at once — :func:`~repro.functions.linear.regression_lines` over
        the concatenated samples, or the endpoint chords of
        :func:`~repro.functions.linear.fit_interpolation_lines` — and
        each representation holds slices of the batch's column arrays;
        a window's coefficients are bit-identical to
        ``get_fitter(curve_kind)`` on ``sequence.subsequence(start,
        end)``, and a single-point window gets the constant line.  Other
        curve kinds fit window by window into :class:`Segment` objects.
        """
        if len(sequences) != len(boundaries_list):
            raise SequenceError(
                f"sequences ({len(sequences)}) and boundaries ({len(boundaries_list)}) disagree"
            )
        if not sequences:
            return []
        flat, counts = _stack_windows(boundaries_list)
        _check_windows(
            flat, counts, np.array([len(sequence) for sequence in sequences], dtype=np.int64)
        )
        fitter = get_fitter(curve_kind)
        if fitter is fit_regression_line or fitter is fit_interpolation_line:
            return cls._fit_lines(
                sequences, flat, counts, fitter is fit_regression_line, curve_kind, epsilon
            )

        windows = np.split(flat, np.cumsum(counts)[:-1])
        representations = []
        for sequence, window in zip(sequences, windows):
            times = sequence.times
            values = sequence.values
            segments = []
            for start, end in window.tolist():
                if end == start:
                    # A single point cannot be fitted by most families;
                    # use a regression (constant) line.
                    function: FittedFunction = LinearFunction(0.0, float(values[start]))
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
            representations.append(
                cls(
                    segments,
                    name=sequence.name,
                    source_length=len(sequence),
                    curve_kind=curve_kind,
                    epsilon=epsilon,
                )
            )
        return representations

    @classmethod
    def _fit_lines(
        cls,
        sequences: "TypingSequence[Sequence]",
        window: np.ndarray,
        counts: np.ndarray,
        regression: bool,
        curve_kind: str,
        epsilon: float,
    ) -> "list[FunctionSeriesRepresentation]":
        """One line fit (regression or chord) over a batch of checked windows.

        Only the samples each item's windows cover are gathered (from its
        first window's start to its last window's end), so a suffix fit
        copies the suffix, not the whole sequence.
        """
        start_index = np.ascontiguousarray(window[:, 0])
        end_index = np.ascontiguousarray(window[:, 1])
        last_rows = np.cumsum(counts) - 1
        lo = start_index[last_rows - counts + 1]
        hi = end_index[last_rows] + 1
        shift = np.repeat(np.cumsum(hi - lo) - hi, counts)
        starts = start_index + shift
        ends = end_index + shift
        covered = list(zip(sequences, lo.tolist(), hi.tolist()))
        times = np.concatenate([sequence.times[a:b] for sequence, a, b in covered])
        values = np.concatenate([sequence.values[a:b] for sequence, a, b in covered])
        start_time = times[starts]
        end_time = times[ends]
        start_value = values[starts]
        end_value = values[ends]
        if regression:
            slope, intercept = regression_lines(times, values, starts, ends)
        else:
            single = starts == ends
            with np.errstate(invalid="ignore", divide="ignore"):
                slope, intercept = fit_interpolation_lines(
                    start_time, start_value, end_time, end_value
                )
            slope = np.where(single, 0.0, slope)
            intercept = np.where(single, start_value, intercept)
        flat = {
            "start_index": start_index,
            "end_index": end_index,
            "start_time": start_time,
            "end_time": end_time,
            "start_value": start_value,
            "end_value": end_value,
            "slope": _secant_slopes(slope, intercept, start_time, end_time),
        }
        representations = []
        position = 0
        for sequence, count in zip(sequences, counts.tolist()):
            rows = slice(position, position + count)
            position += count
            representations.append(
                cls._of_lines(
                    {name: column[rows] for name, column in flat.items()},
                    (slope[rows], intercept[rows]),
                    sequence.name,
                    len(sequence),
                    curve_kind,
                    epsilon,
                )
            )
        return representations

    @classmethod
    def from_breakpoints_reusing(
        cls,
        sequences: "TypingSequence[Sequence]",
        boundaries_list: "TypingSequence[TypingSequence[tuple[int, int]]]",
        previous_list: "TypingSequence[FunctionSeriesRepresentation]",
        curve_kind: str = "regression",
        epsilon: float = 0.0,
    ) -> "list[FunctionSeriesRepresentation]":
        """Suffix-only :meth:`from_breakpoints_many` for an append batch.

        Each ``previous_list[j]`` is the representation of a *prefix* of
        ``sequences[j]`` (the pre-append data).  The leading windows of
        ``boundaries_list[j]`` that equal the previous ones, found by
        list compares against its index columns, keep their fitted rows
        verbatim — they were fitted on identical samples, so reuse is
        bit-identical to refitting.  Every item's remaining (changed)
        suffix windows are fitted together in **one**
        :meth:`from_breakpoints_many` call, and each line item's prefix
        rows are joined to its suffix rows with one concatenate per
        column for the whole batch.  Segment-backed kinds (Bézier,
        polynomial, sinusoid) join their :class:`Segment` objects item
        by item.  Each result equals ``from_breakpoints(sequences[j],
        boundaries_list[j], ...)`` byte for byte, at the cost of the
        suffixes alone.
        """
        if not len(sequences) == len(boundaries_list) == len(previous_list):
            raise SequenceError(
                f"sequences ({len(sequences)}), boundaries ({len(boundaries_list)}) "
                f"and previous representations ({len(previous_list)}) disagree"
            )
        reuses = []
        suffix_windows = []
        for boundaries, previous in zip(boundaries_list, previous_list):
            windows = boundaries.tolist() if isinstance(boundaries, np.ndarray) else list(boundaries)
            if not windows:
                raise SequenceError("a representation needs at least one segment")
            # Compared as start and end lists: no tuple per window.
            columns = previous.segment_columns()
            reuse = min(
                _shared_prefix([window[0] for window in windows], columns["start_index"].tolist()),
                _shared_prefix([window[1] for window in windows], columns["end_index"].tolist()),
            )
            if 0 < reuse < len(windows) and windows[reuse][0] <= windows[reuse - 1][1]:
                (s0, e0), (s1, e1) = windows[reuse - 1], windows[reuse]
                raise SequenceError(f"segments overlap: [{s0}..{e0}] then [{s1}..{e1}]")
            reuses.append(reuse)
            suffix_windows.append(windows[reuse:])
        changed = [j for j, windows in enumerate(suffix_windows) if windows]
        suffixes: "dict[int, FunctionSeriesRepresentation]" = dict(
            zip(
                changed,
                cls.from_breakpoints_many(
                    [sequences[j] for j in changed],
                    [suffix_windows[j] for j in changed],
                    curve_kind=curve_kind,
                    epsilon=epsilon,
                ),
            )
        )

        results: "dict[int, FunctionSeriesRepresentation]" = {}
        line_items = []
        for j, (sequence, previous) in enumerate(zip(sequences, previous_list)):
            suffix = suffixes.get(j)
            if previous._lines is not None and (suffix is None or suffix._lines is not None):
                line_items.append(j)
                continue
            segments = list(previous.segments[: reuses[j]])
            if suffix is not None:
                segments.extend(suffix.segments)
            results[j] = cls(
                segments,
                name=sequence.name,
                source_length=len(sequence),
                curve_kind=curve_kind,
                epsilon=epsilon,
            )
        if line_items:
            # Interleave every line item's (reused prefix, fitted suffix)
            # rows and concatenate each array once for the batch.
            pieces: "list[list[np.ndarray]]" = [[] for __ in range(len(_JOIN_COLUMNS) + 2)]
            for j in line_items:
                reuse = reuses[j]
                for part, array in zip(pieces, previous_list[j]._line_arrays()):
                    part.append(array[:reuse])
                if j in suffixes:
                    for part, array in zip(pieces, suffixes[j]._line_arrays()):
                        part.append(array)
            joined = [np.concatenate(part) for part in pieces]
            position = 0
            for j in line_items:
                rows = slice(position, position + reuses[j] + len(suffix_windows[j]))
                position = rows.stop
                *columns, slope, intercept = (array[rows] for array in joined)
                results[j] = cls._of_lines(
                    dict(zip(_JOIN_COLUMNS, columns)),
                    (slope, intercept),
                    sequences[j].name,
                    len(sequences[j]),
                    curve_kind,
                    epsilon,
                )
        return [results[j] for j in range(len(sequences))]

    def refit(self, sequence: Sequence, curve_kind: str) -> "FunctionSeriesRepresentation":
        """The same breakpoints, represented by a different curve kind."""
        rep = FunctionSeriesRepresentation.from_breakpoints(
            sequence, self.windows(), curve_kind=curve_kind, epsilon=self.epsilon
        )
        rep.name = self.name
        return rep

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def line_coefficients(self) -> "tuple[np.ndarray, np.ndarray] | None":
        """The lines' ``(slope, intercept)`` columns; ``None`` when segment-backed."""
        return self._lines

    def _line_arrays(self) -> "tuple[np.ndarray, ...]":
        """A line representation's :data:`_JOIN_COLUMNS`, then its slope and intercept."""
        assert self._lines is not None
        return (*_join_columns(self.segment_columns()), *self._lines)

    @property
    def segments(self) -> "tuple[Segment, ...]":
        """The segments in order; built from the arrays for line kinds."""
        if self._segments is not None:
            return self._segments
        return tuple(self._line_segments(0, len(self)))

    def _line_segments(self, lo: int, hi: int) -> "list[Segment]":
        """:class:`Segment` objects for rows ``lo..hi-1`` of a line representation."""
        columns = self._columns
        assert columns is not None and self._lines is not None
        rows = [
            column[lo:hi].tolist()
            for column in (
                *self._lines,
                *(columns[name] for name in _GEOMETRY_COLUMNS),
            )
        ]
        return [
            Segment.trusted(LinearFunction(a, b), s, e, (st, sv), (et, ev))
            for a, b, s, e, st, et, sv, ev in zip(*rows)
        ]

    def __len__(self) -> int:
        if self._segments is not None:
            return len(self._segments)
        return len(self.segment_columns()["start_index"])

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    @overload
    def __getitem__(self, index: int) -> Segment: ...

    @overload
    def __getitem__(self, index: slice) -> "tuple[Segment, ...]": ...

    def __getitem__(self, index: "int | slice") -> "Segment | tuple[Segment, ...]":
        if self._segments is not None or isinstance(index, slice):
            return self.segments[index]
        row = range(len(self))[index]
        return self._line_segments(row, row + 1)[0]

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return (
            f"FunctionSeriesRepresentation(segments={len(self)},{label} "
            f"kind={self.curve_kind!r}, source_length={self.source_length})"
        )

    # ------------------------------------------------------------------
    # Time geometry
    # ------------------------------------------------------------------

    @property
    def start_time(self) -> float:
        return float(self.segment_columns()["start_time"][0])

    @property
    def end_time(self) -> float:
        return float(self.segment_columns()["end_time"][-1])

    def windows(self) -> "list[tuple[int, int]]":
        """The ``(start_index, end_index)`` window of every segment."""
        columns = self.segment_columns()
        return list(zip(columns["start_index"].tolist(), columns["end_index"].tolist()))

    def breakpoints(self) -> list[int]:
        """Start indices of every segment after the first."""
        return self.segment_columns()["start_index"][1:].tolist()

    def breakpoint_times(self) -> list[float]:
        return self.segment_columns()["start_time"][1:].tolist()

    def segment_at(self, t: float) -> Segment:
        """The segment whose time span covers ``t``.

        Spans may have gaps (a breakpoint belongs to exactly one side);
        times in a gap resolve to the earlier segment.
        """
        if not (self.start_time <= t <= self.end_time):
            raise SequenceError(f"time {t} outside representation span")
        starts = self.segment_columns()["start_time"]
        return self[max(int(np.searchsorted(starts, t, side="right")) - 1, 0)]

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

        A line representation *is* these arrays (plus its lines'
        coefficients); other curve kinds build them once from their
        segments and memoize them.  Treat the returned arrays as
        read-only — every consumer (the columnar store, shape
        signatures, exemplar digests) copies or derives rather than
        mutating them.
        """
        if self._columns is not None:
            return self._columns
        segments = self.segments
        n = len(segments)
        columns = {
            "start_index": np.empty(n, dtype=np.int64),
            "end_index": np.empty(n, dtype=np.int64),
            "start_time": np.empty(n, dtype=np.float64),
            "end_time": np.empty(n, dtype=np.float64),
            "start_value": np.empty(n, dtype=np.float64),
            "end_value": np.empty(n, dtype=np.float64),
            "slope": np.empty(n, dtype=np.float64),
        }
        for i, segment in enumerate(segments):
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
            return 3 * len(self)
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
