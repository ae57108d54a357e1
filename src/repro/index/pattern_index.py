"""Slope-sign pattern index over stored representations.

Paper Section 4.4: "An index structure that supports pattern matching
... is maintained on the positiveness of the functions' slopes.  For a
fixed small number theta there are 3 possible index values: slope >
theta, slope < -theta, or slope is between -theta and theta. ... by
using the index we get the positions of the first point of all stored
sequences that match that pattern."

:class:`PatternIndex` stores each representation's symbol string in a
positional suffix trie (whose nodes are built on the first lookup) and
answers

* exact symbol-substring lookups from the trie, and
* regular-expression pattern queries by running the NFA matcher over
  candidate strings (whole-string match for queries like goal-post
  fever, or substring search returning first-point positions).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.errors import IndexError_
from repro.core.representation import FunctionSeriesRepresentation
from repro.index.trie import Occurrence, SymbolTrie
from repro.patterns.regex import SymbolPattern

__all__ = ["PatternIndex"]


class PatternIndex:
    """Index of slope-sign strings supporting substring and regex search."""

    def __init__(self, theta: float = 0.0, trie_depth: int = 12, collapse_runs: bool = False) -> None:
        if theta < 0:
            raise IndexError_("theta must be non-negative")
        self.theta = float(theta)
        self.collapse_runs = collapse_runs
        self._trie = SymbolTrie(max_depth=trie_depth)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def add(self, sequence_id: int, representation: FunctionSeriesRepresentation) -> None:
        """Index the representation's slope-sign string."""
        self.add_symbols(
            sequence_id,
            representation.symbol_string(self.theta, collapse_runs=self.collapse_runs),
        )

    def add_symbols(self, sequence_id: int, symbols: str) -> None:
        """Index a precomputed slope-sign string.

        The database's ingest path classifies each sequence's slopes
        once and feeds both the positional and the behavioural index
        from that single pass; the caller is responsible for applying
        this index's ``theta`` and ``collapse_runs`` convention.
        """
        self._trie.add(sequence_id, symbols)

    def add_symbols_many(self, items: "Iterable[tuple[int, str]]") -> None:
        """Bulk-index precomputed ``(sequence_id, symbols)`` pairs.

        The batched ingest path's entry point: equivalent to calling
        :meth:`add_symbols` per pair.  Validated up front; a bad batch
        inserts nothing.
        """
        self._trie.add_many(items)

    def update_symbols(self, sequence_id: int, symbols: str) -> None:
        """Re-index a sequence whose symbol string changed at the tail.

        The streaming append path's entry point.  End state answers
        every query identically to re-adding from scratch.
        """
        self._trie.update(sequence_id, symbols)

    def remove(self, sequence_id: int) -> None:
        """Unindex one sequence."""
        self._trie.remove(sequence_id)

    def remove_many(self, sequence_ids: "Iterable[int]") -> None:
        """Unindex many sequences."""
        self._trie.remove_many(sequence_ids)

    def __len__(self) -> int:
        return len(self._trie)

    def __contains__(self, sequence_id: int) -> bool:
        return sequence_id in self._trie

    def symbols_of(self, sequence_id: int) -> str:
        return self._trie.symbols_of(sequence_id)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def find_exact(self, symbols: str) -> list[Occurrence]:
        """Positions of an exact symbol substring across all sequences."""
        return self._trie.find(symbols)

    def match_full(self, pattern: "SymbolPattern | str") -> list[int]:
        """Sequence ids whose whole symbol string matches the pattern.

        This is the goal-post fever query shape: the pattern constrains
        the entire 24-hour sequence, so a full match is required.
        """
        compiled = SymbolPattern.compile(pattern) if isinstance(pattern, str) else pattern
        return [
            sequence_id
            for sequence_id, symbols in self._trie.items()
            if compiled.fullmatch(symbols)
        ]

    def search(self, pattern: "SymbolPattern | str") -> list[Occurrence]:
        """First-point positions of pattern occurrences in any sequence.

        Returns one occurrence per ``(sequence, start)`` at which some
        match of the pattern begins — the paper's "positions of the
        first point of all stored sequences that match that pattern".
        """
        compiled = SymbolPattern.compile(pattern) if isinstance(pattern, str) else pattern
        hits: list[Occurrence] = []
        for sequence_id, symbols in self._trie.items():
            for start, __ in compiled.finditer(symbols):
                hits.append(Occurrence(sequence_id, start))
        return sorted(set(hits))
