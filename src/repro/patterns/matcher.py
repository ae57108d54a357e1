"""Matching patterns directly against representations.

Convenience layer tying :class:`~repro.patterns.regex.SymbolPattern` to
:class:`~repro.core.representation.FunctionSeriesRepresentation`:
classify a representation's segments into the slope alphabet, then run
the pattern, mapping symbol positions back to segments and times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import PatternSyntaxError
from repro.core.representation import FunctionSeriesRepresentation
from repro.core.segment import Segment
from repro.patterns.regex import SymbolPattern

__all__ = ["SegmentMatch", "matches_pattern", "matches_pattern_many", "find_pattern_spans"]


@dataclass(frozen=True)
class SegmentMatch:
    """A pattern occurrence mapped back onto segments and times."""

    first_segment: int
    last_segment: int
    start_time: float
    end_time: float
    segments: tuple[Segment, ...]


def matches_pattern(
    representation: FunctionSeriesRepresentation,
    pattern: "SymbolPattern | str",
    theta: float = 0.0,
    collapse_runs: bool = True,
) -> bool:
    """Whether the whole representation matches the pattern.

    Full-string semantics, as in the goal-post fever query: the pattern
    constrains the entire sequence's behaviour.  Collapsed runs are the
    default because patterns are written against logical rises and
    falls, not against the incidental number of linear pieces.
    """
    compiled = SymbolPattern.compile(pattern)
    return compiled.fullmatch(representation.symbol_string(theta, collapse_runs=collapse_runs))


def matches_pattern_many(
    representations: "list[FunctionSeriesRepresentation]",
    pattern: "SymbolPattern | str",
    theta: float = 0.0,
    collapse_runs: bool = True,
) -> "list[bool]":
    """Full-match one pattern against many representations at once.

    Tabulates the pattern into a DFA once (see
    :mod:`repro.patterns.automata`) and walks the table per string, so
    each symbol costs one array lookup instead of an NFA subset step.
    Falls back to the NFA matcher if the pattern exceeds the tabulation
    budget.  Results are identical to calling :func:`matches_pattern`
    per representation.  (Database-resident sequences should be queried
    through :class:`~repro.query.queries.PatternQuery` instead, which
    runs the same table over the columnar symbol store without even
    building the strings.)
    """
    from repro.patterns.automata import compile_table

    compiled = SymbolPattern.compile(pattern)
    strings = [
        representation.symbol_string(theta, collapse_runs=collapse_runs)
        for representation in representations
    ]
    try:
        table = compile_table(compiled)
    except PatternSyntaxError:
        return [compiled.fullmatch(symbols) for symbols in strings]
    return [table.fullmatch(symbols) for symbols in strings]


def find_pattern_spans(
    representation: FunctionSeriesRepresentation,
    pattern: "SymbolPattern | str",
    theta: float = 0.0,
) -> list[SegmentMatch]:
    """Occurrences of a pattern inside one representation.

    Works on the uncollapsed symbol string so every symbol position is
    a segment index, giving exact time spans for each occurrence.
    """
    compiled = SymbolPattern.compile(pattern)
    symbols = representation.symbol_string(theta)
    spans = []
    segments = representation.segments
    for start, end in compiled.finditer(symbols):
        segs = segments[start:end]
        spans.append(
            SegmentMatch(
                first_segment=start,
                last_segment=end - 1,
                start_time=segs[0].start_time,
                end_time=segs[-1].end_time,
                segments=tuple(segs),
            )
        )
    return spans
