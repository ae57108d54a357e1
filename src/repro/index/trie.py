"""A positional suffix trie over symbol strings, built on first lookup.

The paper maintains "an index structure that supports pattern matching,
like the ones discussed in [Fre60, AHU74, Sub95] ... on the positiveness
of the functions' slopes" and uses it to "get the positions of the first
point of all stored sequences that match that pattern".  [Fre60] is
Fredkin's trie memory; this module provides a trie over the slope-sign
alphabet that records, for every indexed substring, the sequence it came
from and the segment position where it starts.

The engine answers pattern queries from its symbol columns, so the trie
is a reference structure that is only sometimes asked.  Mutations
therefore touch nothing but the ``sequence id -> symbol string`` dict
and drop any built node tree; :meth:`SymbolTrie.find` builds the nodes
from the live strings on its first call and caches them until the next
mutation.  Ingest, append and delete never pay for nodes nobody reads.

Depth is bounded: substrings longer than ``max_depth`` are verified
against the strings (a standard trade-off that keeps the trie linear in
total symbol volume for fixed depth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.errors import IndexError_

__all__ = ["SymbolTrie", "Occurrence"]


@dataclass(frozen=True, order=True)
class Occurrence:
    """A substring occurrence: owning sequence and start position."""

    sequence_id: int
    position: int


@dataclass
class _TrieNode:
    children: dict[str, "_TrieNode"] = field(default_factory=dict)
    occurrences: list[Occurrence] = field(default_factory=list)


#: A built node tree: the mutation count it was built at, its root and
#: the snapshot of strings it was built from.
_Built = tuple[int, _TrieNode, dict[int, str]]


class SymbolTrie:
    """Suffix trie with per-node occurrence lists.

    Every suffix of every indexed string is inserted up to
    ``max_depth`` symbols; a node's occurrence list holds every
    ``(sequence, position)`` whose substring spells the path to it.
    The nodes exist only between a :meth:`find` and the next mutation.
    """

    def __init__(self, max_depth: int = 12) -> None:
        if max_depth < 1:
            raise IndexError_("max_depth must be at least 1")
        self.max_depth = int(max_depth)
        self._strings: dict[int, str] = {}
        #: Bumped by every mutation.  A build publishes its tree only if
        #: the count has not moved since it took its snapshot, and a
        #: published tree is used only while the count still matches,
        #: so a build that overlaps a writer never serves old strings.
        self._mutations = 0
        self._built: _Built | None = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _mutated(self) -> None:
        self._mutations += 1
        self._built = None

    def add(self, sequence_id: int, symbols: str) -> None:
        """Index one string."""
        self.add_many([(sequence_id, symbols)])

    def add_many(self, items: "Iterable[tuple[int, str]]") -> None:
        """Index many ``(sequence_id, symbols)`` pairs.

        Validated up front: a duplicate or already-indexed id, or a
        non-string, fails the call before anything is indexed.
        """
        batch = list(items)
        seen: "set[int]" = set()
        for sequence_id, symbols in batch:
            if sequence_id in self._strings or sequence_id in seen:
                raise IndexError_(f"sequence {sequence_id} already indexed")
            if not isinstance(symbols, str):
                raise IndexError_(
                    f"symbols must be a string, got {type(symbols).__name__}"
                )
            seen.add(sequence_id)
        if batch:
            self._strings.update(batch)
            self._mutated()

    def update(self, sequence_id: int, symbols: str) -> None:
        """Replace the string of an indexed sequence."""
        old = self._strings.get(sequence_id)
        if old is None:
            raise IndexError_(f"sequence {sequence_id} not indexed")
        if not isinstance(symbols, str):
            raise IndexError_(f"symbols must be a string, got {type(symbols).__name__}")
        if old != symbols:
            self._strings[sequence_id] = symbols
            self._mutated()

    def remove(self, sequence_id: int) -> None:
        """Unindex one sequence."""
        if sequence_id not in self._strings:
            raise IndexError_(f"sequence {sequence_id} not indexed")
        del self._strings[sequence_id]
        self._mutated()

    def remove_many(self, sequence_ids: "Iterable[int]") -> None:
        """Unindex many sequences; an unknown id fails the call first."""
        id_set = set(int(sequence_id) for sequence_id in sequence_ids)
        missing = sorted(
            sequence_id for sequence_id in id_set if sequence_id not in self._strings
        )
        if missing:
            raise IndexError_(f"sequences {missing} not indexed")
        if not id_set:
            return
        for sequence_id in id_set:
            del self._strings[sequence_id]
        self._mutated()

    def __contains__(self, sequence_id: int) -> bool:
        return sequence_id in self._strings

    def __len__(self) -> int:
        return len(self._strings)

    def symbols_of(self, sequence_id: int) -> str:
        try:
            return self._strings[sequence_id]
        except KeyError as exc:
            raise IndexError_(f"sequence {sequence_id} not indexed") from exc

    def items(self) -> "list[tuple[int, str]]":
        """Every ``(sequence_id, symbols)`` pair, in id order."""
        return sorted(self._strings.items())

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def _build(self) -> _Built:
        """Build the node tree from a snapshot of the live strings.

        Strings are inserted in id order and suffixes in position
        order, so every occurrence list comes out sorted.
        """
        mutations = self._mutations
        strings = dict(self._strings)
        max_depth = self.max_depth
        root = _TrieNode()
        for sequence_id, symbols in sorted(strings.items()):
            for start in range(len(symbols)):
                occurrence = Occurrence(sequence_id, start)
                node = root
                node.occurrences.append(occurrence)
                for symbol in symbols[start : start + max_depth]:
                    child = node.children.get(symbol)
                    if child is None:
                        child = node.children[symbol] = _TrieNode()
                    node = child
                    node.occurrences.append(occurrence)
        built = (mutations, root, strings)
        if self._mutations == mutations:
            self._built = built
        return built

    def _current(self) -> _Built | None:
        built = self._built
        if built is None or built[0] != self._mutations:
            return None
        return built

    def find(self, substring: str) -> list[Occurrence]:
        """All occurrences of an exact symbol substring, sorted.

        Substrings within ``max_depth`` are answered from the trie
        alone; longer ones are verified against the strings the trie
        was built from.
        """
        built = self._current() or self._build()
        __, node, strings = built
        for symbol in substring[: self.max_depth]:
            child = node.children.get(symbol)
            if child is None:
                return []
            node = child
        if len(substring) <= self.max_depth:
            return list(node.occurrences)
        return [
            occ
            for occ in node.occurrences
            if strings[occ.sequence_id].startswith(substring, occ.position)
        ]

    def node_count(self) -> int:
        """Nodes in the built tree; 0 while the trie is unbuilt."""
        built = self._current()
        if built is None:
            return 0
        count = 0
        stack = [built[1]]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count
