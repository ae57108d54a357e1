"""Feature extraction from function-series representations.

The representation is "centered around features of interest" so that
queries can address features directly (paper Section 4.1).  For the
medical domains of the paper the features are *peaks* and the derived
*R-R intervals*; this module extracts them from representations the way
Section 5.2 prescribes:

* a peak is a rising segment followed by a descending segment;
* the peak's position is whichever of the rising segment's end point
  (``REnd``) or the descending segment's start point (``DStart``) has
  the larger amplitude (the two can differ because the breakpoint
  belongs to exactly one side);
* per-sequence peak tables reproduce the paper's Table 1 and R-R
  interval sequences are first differences of the peak times.

A raw-data peak finder with a prominence threshold is included so tests
can validate the representation-level extraction against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import SequenceError
from repro.core.representation import (
    FunctionSeriesRepresentation,
    classify_slopes,
    run_start_mask,
)
from repro.core.segment import Segment
from repro.core.sequence import Sequence

__all__ = [
    "Peak",
    "PeakTableRow",
    "find_peaks",
    "find_peaks_many",
    "count_peaks",
    "count_peaks_in_symbols",
    "peak_table",
    "rr_intervals",
    "raw_peak_indices",
]


@dataclass(frozen=True)
class Peak:
    """A detected peak: the rise/fall segment pair plus its apex."""

    rising: Segment
    descending: Segment
    time: float
    amplitude: float


@dataclass(frozen=True)
class PeakTableRow:
    """One row of the paper's Table 1."""

    rising_equation: str
    rise_start: tuple[float, float]
    rise_end: tuple[float, float]
    descending_equation: str
    descent_start: tuple[float, float]
    descent_end: tuple[float, float]

    def format(self) -> str:
        def point(p: tuple[float, float]) -> str:
            return f"({p[0]:.0f}, {p[1]:.1f})"

        return (
            f"{self.rising_equation:>16}  {point(self.rise_start):>14} {point(self.rise_end):>14}  "
            f"{self.descending_equation:>16}  {point(self.descent_start):>14} {point(self.descent_end):>14}"
        )


def _segment_label(segment: Segment) -> str:
    formatter = getattr(segment.function, "format_equation", None)
    if callable(formatter):
        return formatter()
    return repr(segment.function)


def find_peaks(
    representation: FunctionSeriesRepresentation,
    theta: float = 0.0,
    skip_flats: bool = True,
) -> list[Peak]:
    """Peaks of a representation: rising segment then descending segment.

    Parameters
    ----------
    theta:
        Flatness threshold for the slope-sign classification; slopes in
        ``[-theta, theta]`` count as flat.
    skip_flats:
        When true, flat segments between a rise and the following fall
        do not break the peak (a temperature plateau at the top of a
        fever spike is still one peak); the apex is then taken from the
        rise end / fall start as usual.
    """
    peaks: list[Peak] = []
    segments = representation.segments
    i = 0
    while i < len(segments):
        if not segments[i].is_rising(theta):
            i += 1
            continue
        # Coalesce consecutive rising segments into one logical rise.
        rise_idx = i
        while rise_idx + 1 < len(segments) and segments[rise_idx + 1].is_rising(theta):
            rise_idx += 1
        j = rise_idx + 1
        if skip_flats:
            while j < len(segments) and segments[j].is_flat(theta):
                j += 1
        if j < len(segments) and segments[j].is_falling(theta):
            rising = segments[rise_idx]
            descending = segments[j]
            # Paper step 3: the apex is the higher of REnd and DStart.
            if rising.end_point[1] >= descending.start_point[1]:
                time, amplitude = rising.end_point
            else:
                time, amplitude = descending.start_point
            peaks.append(Peak(rising=rising, descending=descending, time=time, amplitude=amplitude))
            i = j
        else:
            i = rise_idx + 1
    return peaks


def find_peaks_many(
    representations: "list[FunctionSeriesRepresentation]",
    theta: float = 0.0,
    skip_flats: bool = True,
    codes: "np.ndarray | None" = None,
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Apex ``(times, amplitudes)`` of every peak, for a whole batch.

    The columnar twin of :func:`find_peaks`, run by every database write: the
    batch's ``segment_columns`` are stacked, classified once with
    :func:`classify_slopes` and collapsed into behavioural runs with the
    shared :func:`run_start_mask` kernel (sequence boundaries always
    open a run), and the peak rule is evaluated as array predicates over
    the run columns — a ``'+'`` run peaks when the next run is ``'-'``,
    or (with ``skip_flats``) when a single ``'0'`` run separates them,
    which is how the scalar loop's flat-skipping plays out after run
    collapse.  The apex is the higher of the rising run's last-segment
    end point and the descending run's first-segment start point, read
    from the same column scalars the scalar path compares, so times and
    amplitudes are bit-identical to per-representation
    :func:`find_peaks` (whose :class:`Peak` records carry the full
    segment objects this batch form deliberately skips).

    ``codes`` may carry the batch's already-classified flat symbol
    codes (segment order, all representations concatenated) when the
    caller has classified them anyway — the database's bulk ingest
    shares one classification pass between the pattern indexes and the
    peaks.  Must equal ``classify_slopes`` of the stacked slope columns
    under the same ``theta``.
    """
    representations = list(representations)
    if not representations:
        return []
    columns = [representation.segment_columns() for representation in representations]
    counts = np.array([len(c["slope"]) for c in columns], dtype=np.int64)
    group_starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=group_starts[1:])
    if codes is None:
        codes = classify_slopes(np.concatenate([c["slope"] for c in columns]), theta)
    elif len(codes) != int(counts.sum()):
        raise SequenceError(
            f"precomputed codes cover {len(codes)} segments, batch has {int(counts.sum())}"
        )
    run_mask = run_start_mask(codes, group_starts)
    run_offsets = np.flatnonzero(run_mask)
    run_codes = codes[run_offsets]
    n_runs = len(run_offsets)
    # A representation always has at least one segment, so consecutive
    # reduceat slices are non-empty and the run->owner map is exact.
    runs_per_rep = np.add.reduceat(run_mask.astype(np.int64), group_starts)
    run_owner = np.repeat(np.arange(len(representations), dtype=np.int64), runs_per_rep)
    run_last = np.append(run_offsets[1:], len(codes)) - 1

    same_next = np.zeros(n_runs, dtype=bool)
    same_next[:-1] = run_owner[1:] == run_owner[:-1]
    same_next2 = np.zeros(n_runs, dtype=bool)
    same_next2[:-2] = run_owner[2:] == run_owner[:-2]
    next_code = np.zeros(n_runs, dtype=np.int8)
    next_code[:-1] = run_codes[1:]
    next_code2 = np.zeros(n_runs, dtype=np.int8)
    next_code2[:-2] = run_codes[2:]

    rising = run_codes == 1
    direct = same_next & (next_code == -1)
    via_flat = (
        same_next2 & (next_code == 0) & (next_code2 == -1)
        if skip_flats
        else np.zeros(n_runs, dtype=bool)
    )
    peak_runs = np.flatnonzero(rising & (direct | via_flat))
    fall_runs = peak_runs + np.where(direct[peak_runs], 1, 2)

    end_time = np.concatenate([c["end_time"] for c in columns])
    end_value = np.concatenate([c["end_value"] for c in columns])
    start_time = np.concatenate([c["start_time"] for c in columns])
    start_value = np.concatenate([c["start_value"] for c in columns])
    rise_segment = run_last[peak_runs]
    fall_segment = run_offsets[fall_runs]
    rise_value = end_value[rise_segment]
    fall_value = start_value[fall_segment]
    # Paper step 3: the apex is the higher of REnd and DStart.
    from_rise = rise_value >= fall_value
    times = np.where(from_rise, end_time[rise_segment], start_time[fall_segment])
    amplitudes = np.where(from_rise, rise_value, fall_value)

    peaks_per_rep = np.bincount(run_owner[peak_runs], minlength=len(representations))
    results: "list[tuple[np.ndarray, np.ndarray]]" = []
    position = 0
    for count in peaks_per_rep.tolist():
        results.append(
            (times[position : position + count], amplitudes[position : position + count])
        )
        position += count
    return results


def count_peaks(representation: FunctionSeriesRepresentation, theta: float = 0.0) -> int:
    """Number of peaks in a representation."""
    return len(find_peaks(representation, theta))


def count_peaks_in_symbols(symbols: str) -> int:
    """Peak count from a slope-sign string alone.

    A peak is a maximal run of ``'+'`` later followed by a ``'-'`` with
    only ``'0'`` in between — the symbolic counterpart of
    :func:`find_peaks`, used by the pattern-index query path.
    """
    count = 0
    state = "idle"  # idle -> rising -> (fall seen => peak)
    for symbol in symbols:
        if symbol == "+":
            state = "rising"
        elif symbol == "-":
            if state == "rising":
                count += 1
            state = "idle"
        # '0' preserves the current state (plateaus do not end a rise).
    return count


def peak_table(
    representation: FunctionSeriesRepresentation,
    theta: float = 0.0,
) -> list[PeakTableRow]:
    """The paper's Table 1 for one sequence: per-peak segment data."""
    rows = []
    for peak in find_peaks(representation, theta):
        rows.append(
            PeakTableRow(
                rising_equation=_segment_label(peak.rising),
                rise_start=peak.rising.start_point,
                rise_end=peak.rising.end_point,
                descending_equation=_segment_label(peak.descending),
                descent_start=peak.descending.start_point,
                descent_end=peak.descending.end_point,
            )
        )
    return rows


def rr_intervals(
    representation: FunctionSeriesRepresentation,
    theta: float = 0.0,
) -> np.ndarray:
    """Distances in time between successive peaks (the R-R sequence)."""
    times = [peak.time for peak in find_peaks(representation, theta)]
    return np.diff(np.asarray(times, dtype=float))


def raw_peak_indices(sequence: Sequence, prominence: float) -> list[int]:
    """Ground-truth local maxima with at least ``prominence`` of relief.

    Topographic prominence: from each local maximum walk outward on both
    sides until strictly higher ground (or the sequence edge); the lower
    of the two intervening minima is the peak's base, and the peak
    qualifies if it rises at least ``prominence`` above that base.  Used
    by tests to validate representation-level peaks — the library itself
    never needs raw data at query time.
    """
    values = sequence.values
    n = len(values)
    peaks = []
    i = 1
    while i < n - 1:
        if values[i] < values[i - 1]:
            i += 1
            continue
        # Walk a plateau to its right edge.
        j = i
        while j + 1 < n and values[j + 1] == values[j]:
            j += 1
        if j + 1 < n and values[j + 1] < values[j]:
            apex = float(values[i])
            # Left saddle: lowest point before strictly higher ground.
            left_base = apex
            k = i - 1
            while k >= 0 and values[k] <= apex:
                left_base = min(left_base, float(values[k]))
                k -= 1
            # Right saddle, symmetric.
            right_base = apex
            k = j + 1
            while k < n and values[k] <= apex:
                right_base = min(right_base, float(values[k]))
                k += 1
            if apex - max(left_base, right_base) >= prominence:
                peaks.append(int(i + np.argmax(values[i : j + 1])))
        i = j + 1
    return peaks
