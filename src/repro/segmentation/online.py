"""Online breaking algorithms (paper Section 5.1, "Online algorithms").

The paper studied "one family of online algorithms, based on sliding a
window, interpolating a polynomial through it, and breaking the
sequence whenever it deviates significantly from the polynomial", noting
their merit (no post-processing pass) and their deficiency (possible
loss of accuracy versus the offline algorithms).

:class:`SlidingWindowBreaker` is that family: it consumes samples one at
a time, keeps a polynomial fitted over a trailing window of the current
segment, and closes the segment when the incoming sample deviates from
the polynomial's extrapolation by more than ``epsilon``.

Both online breakers share the property the streaming append path
(:meth:`repro.query.database.SequenceDatabase.append`) is built on:
every per-sample decision depends only on the samples of the *current
open segment*.  When trailing samples are appended, rescanning from the
last closed boundary therefore reproduces the from-scratch break bit
for bit — :meth:`~repro.segmentation.base.Breaker.extend_indices` costs
the tail, not the sequence.  :class:`IncrementalRegressionBreaker`
additionally batches those rescans into a lock-step *frontier* (one
vectorized round per sample position across every appended sequence),
the online counterpart of the offline ``break_frontier`` kernel.

The frontier pays about 25 NumPy calls per round whatever its width, so
it only wins on wide batches.  Frontier time over per-lane scalar scan
time, for ECGs of ``repro.workloads.ecg_corpus`` (seed 1) broken at
epsilon 4 after 500 samples and extended by 25 (suffixes of ~50
samples: the open segment plus the new tail), best of interleaved
repeats on a 2-vCPU x86-64 Linux VM, CPython 3.11, NumPy 2.4:

=========  ====  ====  ====  =====  =====  =====  =====
lanes      8     16    32    64     128    256    1000
ratio      4.2x  2.5x  1.6x  1.15x  0.93x  0.68x  0.45x
=========  ====  ====  ====  =====  =====  =====  =====

Below the 128-lane crossover a batch runs the scalar scan lane by lane,
and a frontier retires its stragglers to the scalar scan at the same
width.  A streaming tick (16 appended sequences) therefore never enters
the frontier; re-breaks of hundreds of sequences do.  The crossover
moves with suffix length and with the scalar scan's per-sample cost.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.errors import SegmentationError
from repro.core.sequence import Sequence
from repro.functions.polynomial import fit_polynomial
from repro.segmentation.base import Boundaries, Breaker

__all__ = ["SlidingWindowBreaker", "OnlineSession", "IncrementalRegressionBreaker"]


def _resume_index(previous_boundaries: Boundaries) -> "int | None":
    """Start of the trailing open segment in a previous break, or None.

    The previous break's last window was closed artificially at the old
    final sample; on the extended sequence that segment is still open,
    so an online rescan resumes at its start with fresh state — exactly
    the state the from-scratch scan holds at that sample.
    """
    if not previous_boundaries:
        return None
    return int(previous_boundaries[-1][0])


class OnlineSession:
    """Incremental state for one pass over a stream of samples."""

    def __init__(self, breaker: "SlidingWindowBreaker") -> None:
        self._breaker = breaker
        self._times: list[float] = []
        self._values: list[float] = []
        self._segment_start = 0
        self._closed: Boundaries = []
        self._count = 0

    def feed(self, time: float, value: float) -> bool:
        """Consume one sample; returns True when a segment just closed."""
        breaker = self._breaker
        closed = False
        window_len = len(self._times)
        if window_len >= breaker.min_points:
            window_seq = Sequence(self._times, self._values)
            poly = fit_polynomial(window_seq, breaker.degree)
            predicted = float(poly(time))
            if abs(predicted - value) > breaker.epsilon:
                self._closed.append((self._segment_start, self._count - 1))
                self._segment_start = self._count
                self._times = []
                self._values = []
                closed = True
        self._times.append(time)
        self._values.append(value)
        if len(self._times) > breaker.window:
            # Slide: the polynomial tracks only the trailing window.
            self._times.pop(0)
            self._values.pop(0)
        self._count += 1
        return closed

    def finish(self) -> Boundaries:
        """Close the trailing segment and return all boundaries."""
        if self._count == 0:
            raise SegmentationError("no samples were fed")
        if self._segment_start <= self._count - 1:
            self._closed.append((self._segment_start, self._count - 1))
        return list(self._closed)


class IncrementalRegressionBreaker(Breaker):
    """Online breaking with an exact running regression line.

    The second member of the paper's online family ("we are still
    studying algorithms using a related approach"): instead of a
    trailing window, the regression line over the *entire current
    segment* is maintained incrementally from running sums (O(1) per
    sample).  A segment closes when the incoming sample deviates from
    the current line's extrapolation by more than ``epsilon``.

    Compared with :class:`SlidingWindowBreaker` this never forgets the
    segment's early samples, so slow drifts accumulate into a break
    instead of being tracked window by window.
    """

    curve_kind = "regression"

    def __init__(self, epsilon: float, min_points: int = 2) -> None:
        super().__init__(epsilon)
        if min_points < 2:
            raise SegmentationError("min_points must be at least 2")
        self.min_points = int(min_points)

    def break_indices(self, sequence: Sequence) -> Boundaries:
        return self._scan(sequence.times, sequence.values, 0)

    def _scan(
        self,
        times: np.ndarray,
        values: np.ndarray,
        first: int,
        start: "int | None" = None,
        n: int = 0,
        s_t: float = 0.0,
        s_v: float = 0.0,
        s_tt: float = 0.0,
        s_tv: float = 0.0,
    ) -> Boundaries:
        """The running-sums scan from sample ``first``.

        State defaults to a fresh segment opening at ``first``; the
        frontier kernel passes mid-segment state to finish straggler
        lanes scalar-ly (float64 scalars convert to Python floats
        exactly, so the continuation is bit-identical).
        """
        boundaries: Boundaries = []
        if start is None:
            start = first
        length = len(times)
        for i in range(first, length):
            t = float(times[i])
            v = float(values[i])
            if n >= self.min_points:
                denom = n * s_tt - s_t * s_t
                if denom != 0.0:
                    slope = (n * s_tv - s_t * s_v) / denom
                    intercept = (s_v - slope * s_t) / n
                else:
                    slope = 0.0
                    intercept = s_v / n
                predicted = slope * t + intercept
                if abs(predicted - v) > self.epsilon:
                    boundaries.append((start, i - 1))
                    start = i
                    n = 0
                    s_t = s_v = s_tt = s_tv = 0.0
            n += 1
            s_t += t
            s_v += v
            s_tt += t * t
            s_tv += t * v
        boundaries.append((start, length - 1))
        return boundaries

    def extend_indices(
        self, sequence: Sequence, previous_boundaries: Boundaries
    ) -> Boundaries:
        """Suffix-only rescan: resume at the trailing open segment.

        The scan's state depends only on samples since the current
        segment start, so restarting there with fresh sums reproduces
        the from-scratch break of the extended sequence bit for bit.
        """
        resume = _resume_index(previous_boundaries)
        if resume is None:
            return self.break_indices(sequence)
        if not 0 <= resume < len(sequence):
            raise SegmentationError(
                f"previous boundaries end at {resume}, outside the extended "
                f"sequence of length {len(sequence)}"
            )
        return list(previous_boundaries[:-1]) + self._scan(
            sequence.times, sequence.values, resume
        )

    #: The measured frontier/scalar crossover on ECG appends (see the
    #: module docstring: 0.93x at 128 lanes, 2.5x slower at 16, 0.45x at
    #: 1000).  A batch with fewer items scans lane by lane; a frontier
    #: whose live lanes fall below it finishes them through the scalar
    #: scan with carried-over state.
    _MIN_FRONTIER = 128

    def extend_indices_many(
        self, items: "Iterable[tuple[Sequence, Boundaries]]"
    ) -> "list[Boundaries]":
        """Frontier-batched suffix rescans: all appends in lock-step.

        Round ``r`` advances every *live* lane's scan by one sample with
        vectorized state updates (running sums, regression prediction,
        deviation test) — the online counterpart of the offline
        ``break_frontier`` recursion.  Suffixes stay as one flat
        concatenated array (no padding to the longest lane), lanes
        retire from the frontier as their suffixes end, and once fewer
        than ``_MIN_FRONTIER`` lanes remain they finish through the
        scalar scan continuing from their vector state — so cost and
        memory are O(sum of suffix lengths), not O(lanes x longest).
        A batch of fewer than ``_MIN_FRONTIER`` items never enters the
        frontier: each item runs :meth:`extend_indices`.  Elementwise
        float64 arithmetic matches the scalar scan's operation order
        exactly, so the boundaries are identical to per-sequence
        :meth:`extend_indices` either way.
        """
        items = list(items)
        if len(items) < self._MIN_FRONTIER:
            return [self.extend_indices(sequence, previous) for sequence, previous in items]
        n_items = len(items)
        resumes = np.empty(n_items, dtype=np.int64)
        prefixes: "list[Boundaries]" = []
        suffix_times: "list[np.ndarray]" = []
        suffix_values: "list[np.ndarray]" = []
        for j, (sequence, previous) in enumerate(items):
            resume = _resume_index(previous)
            if resume is None:
                resume = 0
                prefixes.append([])
            else:
                if not 0 <= resume < len(sequence):
                    raise SegmentationError(
                        f"previous boundaries end at {resume}, outside the extended "
                        f"sequence of length {len(sequence)}"
                    )
                prefixes.append(list(previous[:-1]))
            resumes[j] = resume
            suffix_times.append(np.asarray(sequence.times[resume:], dtype=np.float64))
            suffix_values.append(np.asarray(sequence.values[resume:], dtype=np.float64))

        suffix_lengths = np.array([len(t) for t in suffix_times], dtype=np.int64)
        flat_times = np.concatenate(suffix_times)
        flat_values = np.concatenate(suffix_values)
        lane_offsets = np.zeros(n_items, dtype=np.int64)
        np.cumsum(suffix_lengths[:-1], out=lane_offsets[1:])

        seg_start = resumes.copy()
        n_arr = np.zeros(n_items, dtype=np.int64)
        s_t = np.zeros(n_items)
        s_v = np.zeros(n_items)
        s_tt = np.zeros(n_items)
        s_tv = np.zeros(n_items)
        closed: "list[Boundaries]" = [[] for _ in range(n_items)]

        live = np.arange(n_items, dtype=np.int64)
        r = 0
        while len(live) >= self._MIN_FRONTIER:
            rows = lane_offsets[live] + r
            t = flat_times[rows]
            v = flat_values[rows]
            n_local = n_arr[live]
            st_local = s_t[live]
            sv_local = s_v[live]
            stt_local = s_tt[live]
            stv_local = s_tv[live]
            fit = n_local >= self.min_points
            if bool(fit.any()):
                n_f = n_local.astype(np.float64)
                denom = n_f * stt_local - st_local * st_local
                nz = denom != 0.0
                safe_denom = np.where(nz, denom, 1.0)
                safe_n = np.where(n_f == 0.0, 1.0, n_f)
                slope = np.where(nz, (n_f * stv_local - st_local * sv_local) / safe_denom, 0.0)
                intercept = np.where(
                    nz, (sv_local - slope * st_local) / safe_n, sv_local / safe_n
                )
                predicted = slope * t + intercept
                breaks = fit & (np.abs(predicted - v) > self.epsilon)
                if bool(breaks.any()):
                    broken = live[breaks]
                    for j in broken:
                        closed[j].append((int(seg_start[j]), int(resumes[j]) + r - 1))
                    seg_start[broken] = resumes[broken] + r
                    n_local[breaks] = 0
                    st_local[breaks] = 0.0
                    sv_local[breaks] = 0.0
                    stt_local[breaks] = 0.0
                    stv_local[breaks] = 0.0
            n_arr[live] = n_local + 1
            s_t[live] = st_local + t
            s_v[live] = sv_local + v
            s_tt[live] = stt_local + t * t
            s_tv[live] = stv_local + t * v
            r += 1
            alive = suffix_lengths[live] > r
            if not bool(alive.all()):
                live = live[alive]

        # Straggler lanes: continue each scalar scan from its carried
        # state (same floats, same operation order — bit-identical).
        scalar_tails: "dict[int, Boundaries]" = {}
        for j in live:
            local = self._scan(
                suffix_times[j],
                suffix_values[j],
                r,
                start=int(seg_start[j] - resumes[j]),
                n=int(n_arr[j]),
                s_t=float(s_t[j]),
                s_v=float(s_v[j]),
                s_tt=float(s_tt[j]),
                s_tv=float(s_tv[j]),
            )
            offset = int(resumes[j])
            scalar_tails[int(j)] = [(a + offset, b + offset) for a, b in local]

        results: "list[Boundaries]" = []
        for j in range(n_items):
            tail = scalar_tails.get(j)
            if tail is None:
                tail = [(int(seg_start[j]), int(resumes[j] + suffix_lengths[j]) - 1)]
            results.append(prefixes[j] + closed[j] + tail)
        return results


class SlidingWindowBreaker(Breaker):
    """Break online when a sample escapes the window polynomial.

    Parameters
    ----------
    epsilon:
        Deviation tolerance between the incoming sample and the value
        extrapolated from the window polynomial.
    window:
        Number of trailing samples the polynomial is fitted over.
    degree:
        Polynomial degree (1 reproduces the paper's linear experiments).
    """

    curve_kind = "regression"

    def __init__(self, epsilon: float, window: int = 8, degree: int = 1) -> None:
        super().__init__(epsilon)
        if window < 2:
            raise SegmentationError("window must cover at least two samples")
        if degree < 0:
            raise SegmentationError("degree must be non-negative")
        self.window = int(window)
        self.degree = int(degree)
        self.min_points = max(degree + 1, 2)

    def session(self) -> OnlineSession:
        """Start an incremental session (streaming API)."""
        return OnlineSession(self)

    def break_indices(self, sequence: Sequence) -> Boundaries:
        session = self.session()
        for time, value in sequence:
            session.feed(time, value)
        return session.finish()

    def extend_indices(
        self, sequence: Sequence, previous_boundaries: Boundaries
    ) -> Boundaries:
        """Suffix-only rescan: re-feed from the trailing open segment.

        The window is cleared whenever a segment closes, so a fresh
        session fed from the last boundary start holds exactly the
        state the from-scratch scan holds there; its (rebased)
        boundaries complete the previous break bit for bit.
        """
        resume = _resume_index(previous_boundaries)
        if resume is None:
            return self.break_indices(sequence)
        if not 0 <= resume < len(sequence):
            raise SegmentationError(
                f"previous boundaries end at {resume}, outside the extended "
                f"sequence of length {len(sequence)}"
            )
        session = self.session()
        times = sequence.times
        values = sequence.values
        for i in range(resume, len(sequence)):
            session.feed(float(times[i]), float(values[i]))
        tail = session.finish()
        return list(previous_boundaries[:-1]) + [
            (start + resume, end + resume) for start, end in tail
        ]
