"""Linear functions: the workhorse representation of the paper.

The paper's implemented system breaks sequences with the *endpoint
interpolation line* and represents the resulting subsequences with the
*linear regression line* (Sections 4.4 and 5.1).  Both fits live here.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import FittingError, SequenceError
from repro.core.sequence import Sequence
from repro.functions.base import FittedFunction

__all__ = [
    "LinearFunction",
    "check_index_windows",
    "fit_interpolation_line",
    "fit_interpolation_lines",
    "fit_regression_line",
    "gather_windows",
    "regression_coefficients",
    "regression_lines",
]


class LinearFunction(FittedFunction):
    """The line ``f(t) = slope * t + intercept``."""

    family = "linear"

    __slots__ = ("slope", "intercept")

    def __init__(self, slope: float, intercept: float) -> None:
        self.slope = float(slope)
        self.intercept = float(intercept)

    def __call__(self, t: "float | np.ndarray") -> "float | np.ndarray":
        return self.slope * t + self.intercept

    def derivative_at(self, t: "float | np.ndarray") -> "float | np.ndarray":
        if isinstance(t, np.ndarray):
            return np.full_like(np.asarray(t, dtype=float), self.slope)
        return self.slope

    def parameters(self) -> tuple[float, ...]:
        return (self.slope, self.intercept)

    def lexicographic_key(self) -> tuple[float, ...]:
        # Slope is the behaviourally significant parameter: it determines
        # the slope-sign symbol used by the pattern index.
        return (self.slope, self.intercept)

    def shifted(self, dt: float) -> "LinearFunction":
        """The same line expressed in a time frame shifted by ``dt``.

        If ``g = f.shifted(dt)`` then ``g(t) == f(t + dt)``; used to
        re-base a segment's line to start at time 0 for comparison.
        """
        return LinearFunction(self.slope, self.intercept + self.slope * dt)

    def format_equation(self, digits: int = 3) -> str:
        """Human-readable ``"a*x+b"`` form as printed in paper Figures 6-9."""
        sign = "+" if self.intercept >= 0 else "-"
        return f"{self.slope:.{digits}g}x{sign}{abs(self.intercept):.{digits}g}"


def fit_interpolation_line(sequence: Sequence) -> LinearFunction:
    """The line through the first and last points of ``sequence``.

    This is the curve used by the paper's preferred breaking algorithm:
    "finding an interpolation line through two points does not require
    complicated processing of the whole sequence.  Only endpoints need
    to be considered" (Section 5.1).

    Raises
    ------
    FittingError
        If the sequence is a single point (no line is determined) —
        callers treat one-point subsequences as already-converged.
    """
    if len(sequence) < 2:
        raise FittingError("an interpolation line needs at least two points")
    t0, v0 = sequence[0]
    t1, v1 = sequence[-1]
    if t1 == t0:
        raise FittingError("degenerate time span")
    slope = (v1 - v0) / (t1 - t0)
    return LinearFunction(slope, v0 - slope * t0)


def fit_interpolation_lines(
    t0: np.ndarray, v0: np.ndarray, t1: np.ndarray, v1: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorized twin of :func:`fit_interpolation_line` over endpoint columns.

    Takes the first/last ``(time, value)`` of many windows as flat
    arrays and returns the ``(slope, intercept)`` coefficient columns of
    the chords through them.  The arithmetic is the same IEEE-754
    expression :func:`fit_interpolation_line` evaluates on Python
    floats, applied elementwise, so the coefficients are bit-identical
    to fitting each window one at a time — the property the batched
    breaking kernel's parity with the scalar breaker rests on.

    Callers guarantee ``t1 != t0`` per window (the breaking frontier
    only fits windows of two or more strictly-increasing timestamps).
    """
    slope = (v1 - v0) / (t1 - t0)
    return slope, v0 - slope * t0


def check_index_windows(starts: np.ndarray, ends: np.ndarray, length: int) -> None:
    """Reject the first window that is empty, negative or past ``length``.

    ``starts``/``ends`` are inclusive int64 index columns; the message
    names the window as ``Sequence.subsequence`` would reject it.
    """
    bad = (starts < 0) | (ends >= length) | (starts > ends)
    if bool(bad.any()):
        i = int(np.argmax(bad))
        raise SequenceError(f"invalid index window [{starts[i]}, {ends[i]}] for length {length}")


def gather_windows(
    starts: np.ndarray, ends: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Flat indices of one or more inclusive index windows, laid end to end.

    Returns ``(gather, offsets, counts)``: window ``w`` occupies
    ``gather[offsets[w] : offsets[w] + counts[w]]``, which holds
    ``starts[w] .. ends[w]`` — the layout ``np.add.reduceat`` and its
    kin reduce per window over.
    """
    counts = ends - starts + 1
    offsets = counts.cumsum() - counts
    # Sample j of the gathered array sits at starts[w] + j - offsets[w].
    gather = np.arange(int(offsets[-1] + counts[-1]), dtype=np.int64) + np.repeat(
        starts - offsets, counts
    )
    return gather, offsets, counts


def regression_lines(
    times: np.ndarray, values: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Least-squares lines of many index windows at once.

    ``starts``/``ends`` are inclusive index windows into the flat
    ``times``/``values`` arrays (a batch's sequences concatenated, times
    non-decreasing within each window).  Every window's samples are
    gathered into one array, and the per-window means and centred sums
    come from ``np.add.reduceat`` over it: the slope is
    ``sum(tc * vc) / sum(tc * tc)`` with ``tc``/``vc`` the window's
    centred times and values, and the intercept ``v_mean - slope *
    t_mean``.  A reduceat slice sums its first element plus the
    pairwise sum of the rest, which depends on that window's samples
    alone, so a window's coefficients are bit-identical whatever batch
    it is fitted in — a batch of one included, which is what
    :func:`regression_coefficients` and :func:`fit_regression_line` are.
    A one-point window gets the constant line through its value.

    Raises
    ------
    SequenceError
        If a window is empty, negative or runs past the arrays.
    FittingError
        If a window of two or more points has no time spread.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    check_index_windows(starts, ends, len(times))
    if starts.size == 0:
        return np.empty(0), np.empty(0)
    gather, offsets, counts = gather_windows(starts, ends)
    t = times[gather]
    v = values[gather]
    t_mean = np.add.reduceat(t, offsets) / counts
    v_mean = np.add.reduceat(v, offsets) / counts
    t_centered = t - np.repeat(t_mean, counts)
    v_centered = v - np.repeat(v_mean, counts)
    sxx = np.add.reduceat(t_centered * t_centered, offsets)
    sxy = np.add.reduceat(t_centered * v_centered, offsets)
    single = counts == 1
    # Equal times need not centre to exact zeros (their mean can round
    # off), so a flat window is found by its first and last times.
    if bool(np.any((times[starts] == times[ends]) & ~single)):
        raise FittingError("degenerate time span")
    # A one-point window centres to zeros: slope 0 / (0 + 1), intercept its value.
    slope = sxy / (sxx + single)
    return slope, np.where(single, v_mean, v_mean - slope * t_mean)


def regression_coefficients(times: np.ndarray, values: np.ndarray) -> "tuple[float, float]":
    """``(slope, intercept)`` of the least-squares line through arrays.

    A batch of one window through :func:`regression_lines`, callable
    without constructing a :class:`Sequence`, so its coefficients are
    bit-identical to the same window's in any batch.  Callers guarantee
    at least one sample.
    """
    slope, intercept = regression_lines(times, values, [0], [len(times) - 1])
    return float(slope[0]), float(intercept[0])


def fit_regression_line(sequence: Sequence) -> LinearFunction:
    """Ordinary least-squares regression line through the sequence.

    For single-point input the fit degenerates to the constant function
    at that value, which is the natural zero-error representation.
    """
    slope, intercept = regression_coefficients(sequence.times, sequence.values)
    return LinearFunction(slope, intercept)
