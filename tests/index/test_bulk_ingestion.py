"""Bulk index ingestion: add_many / add_block equivalence with loops.

The batched entry points must leave every index in *exactly* the state
the sequential per-sequence calls produce: same trie nodes, same
occurrence sets, same posting buckets — and removal must still prune
dead branches after a bulk build.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.errors import IndexError_
from repro.index import InvertedFileIndex, PatternIndex, SymbolTrie
from repro.index.inverted import Posting


def _random_strings(n: int, seed: int, duplicates: bool = True) -> "list[tuple[int, str]]":
    rng = np.random.default_rng(seed)
    alphabet = "+-0"
    items = []
    for i in range(n):
        length = int(rng.integers(0, 30))
        items.append((i, "".join(alphabet[j] for j in rng.integers(0, 3, length))))
    if duplicates:
        # Re-issue earlier strings under fresh ids, like a corpus whose
        # behavioural strings repeat across sequences.
        items += [(n + i, items[i % 7][1]) for i in range(n // 2)]
    return items


def _trie_state(trie: SymbolTrie) -> dict:
    """Every node's path and occurrences, building the trie first."""
    trie.find("")
    state = {}

    def walk(node, path):
        state[path] = sorted(node.occurrences)
        for symbol, child in node.children.items():
            walk(child, path + symbol)

    walk(trie._built[1], "")
    return state


class TestTrieAddMany:
    @pytest.mark.parametrize("max_depth", [3, 12])
    def test_equivalent_to_sequential_add(self, max_depth):
        items = _random_strings(40, seed=max_depth)
        sequential = SymbolTrie(max_depth=max_depth)
        for sequence_id, symbols in items:
            sequential.add(sequence_id, symbols)
        bulk = SymbolTrie(max_depth=max_depth)
        bulk.add_many(items)
        assert _trie_state(bulk) == _trie_state(sequential)
        assert bulk.node_count() == sequential.node_count()
        assert len(bulk) == len(sequential)
        for sequence_id, symbols in items:
            assert bulk.symbols_of(sequence_id) == symbols

    def test_find_agrees_after_bulk_add(self):
        items = _random_strings(30, seed=5)
        sequential = SymbolTrie()
        bulk = SymbolTrie()
        for sequence_id, symbols in items:
            sequential.add(sequence_id, symbols)
        bulk.add_many(items)
        for probe in ("+", "-", "0", "+-", "+-+", "0--", "+0+0-", "+" * 15):
            assert bulk.find(probe) == sequential.find(probe)

    def test_remove_prunes_after_bulk_add(self):
        items = _random_strings(25, seed=9)
        bulk = SymbolTrie()
        bulk.add_many(items)
        for sequence_id, __ in items:
            bulk.remove(sequence_id)
        assert len(bulk) == 0
        assert _trie_state(bulk) == {"": []}
        assert bulk.node_count() == 1  # only the root survives

    def test_remove_many_equals_sequential_removes(self):
        items = _random_strings(30, seed=2)
        a = SymbolTrie()
        b = SymbolTrie()
        a.add_many(items)
        b.add_many(items)
        victims = [sequence_id for sequence_id, __ in items[::3]]
        for sequence_id in victims:
            a.remove(sequence_id)
        b.remove_many(victims)
        assert _trie_state(a) == _trie_state(b)
        assert a.node_count() == b.node_count()

    def test_duplicate_id_in_batch_inserts_nothing(self):
        trie = SymbolTrie()
        with pytest.raises(IndexError_):
            trie.add_many([(1, "+-"), (1, "0")])
        assert len(trie) == 0
        assert _trie_state(trie) == {"": []}
        assert trie.node_count() == 1

    def test_existing_id_rejected_before_any_insert(self):
        trie = SymbolTrie()
        trie.add(7, "+0-")
        before = _trie_state(trie)
        with pytest.raises(IndexError_):
            trie.add_many([(8, "+"), (7, "-")])
        assert _trie_state(trie) == before

    def test_remove_many_unknown_id_removes_nothing(self):
        trie = SymbolTrie()
        trie.add_many([(1, "+-"), (2, "0+")])
        before = _trie_state(trie)
        with pytest.raises(IndexError_):
            trie.remove_many([1, 99])
        assert _trie_state(trie) == before

    def test_empty_strings_and_empty_batch(self):
        trie = SymbolTrie()
        trie.add_many([])
        trie.add_many([(1, ""), (2, ""), (3, "+")])
        assert len(trie) == 3
        assert trie.symbols_of(1) == ""
        trie.remove_many([1, 2, 3])
        assert _trie_state(trie) == {"": []}
        assert trie.node_count() == 1


class TestPatternIndexAddSymbolsMany:
    def test_matches_sequential_adds(self):
        items = _random_strings(25, seed=3)
        sequential = PatternIndex(theta=0.1)
        bulk = PatternIndex(theta=0.1)
        for sequence_id, symbols in items:
            sequential.add_symbols(sequence_id, symbols)
        bulk.add_symbols_many(items)
        assert len(bulk) == len(sequential)
        for sequence_id, symbols in items:
            assert bulk.symbols_of(sequence_id) == symbols
        assert bulk.find_exact("+-") == sequential.find_exact("+-")
        assert bulk.search("+0*-") == sequential.search("+0*-")

    def test_remove_many(self):
        items = _random_strings(20, seed=4)
        index = PatternIndex()
        index.add_symbols_many(items)
        index.remove_many([sequence_id for sequence_id, __ in items])
        assert len(index) == 0


class TestInvertedAddBlock:
    def test_equivalent_to_add_array_loop(self):
        # The expectation is built here: every posting, bucketed by
        # floor(value / width), each bucket sorted.
        rng = np.random.default_rng(11)
        payloads = [
            (i, rng.uniform(0.0, 40.0, int(rng.integers(0, 9)))) for i in range(60)
        ]
        expected: "dict[int, list[Posting]]" = {}
        for sequence_id, values in payloads:
            for position, value in enumerate(values.tolist()):
                expected.setdefault(math.floor(value / 1.5), []).append(
                    Posting(value, sequence_id, position)
                )
        for postings in expected.values():
            postings.sort()
        for build in ("loop", "block"):
            index = InvertedFileIndex(bucket_width=1.5)
            if build == "loop":
                for sequence_id, values in payloads:
                    index.add_array(sequence_id, values)
            else:
                index.add_block(payloads)
            index.check_invariants()
            assert len(index) == sum(len(values) for __, values in payloads)
            assert {key: bucket.postings for key, bucket in index._btree.items()} == expected
            near = {
                posting.sequence_id
                for postings in expected.values()
                for posting in postings
                if abs(posting.value - 20.0) <= 3.0
            }
            assert index.sequences_near(20.0, 3.0) == sorted(near)

    def test_block_accepts_generators_and_lists(self):
        index = InvertedFileIndex()
        index.add_block([(0, (v for v in [1.0, 2.0])), (1, [3.5])])
        assert len(index) == 3

    def test_bad_payload_inserts_nothing(self):
        index = InvertedFileIndex()
        with pytest.raises(IndexError_):
            index.add_block([(0, [1.0, 2.0]), (1, [np.nan])])
        assert len(index) == 0
        with pytest.raises(IndexError_):
            index.add_block([(0, [1.0]), ("not-an-id", [2.0])])
        assert len(index) == 0

    def test_empty_block_and_empty_columns(self):
        index = InvertedFileIndex()
        index.add_block([])
        index.add_block([(0, []), (1, np.empty(0))])
        assert len(index) == 0
        assert index.bucket_count() == 0

    def test_remove_sequences_batch(self):
        rng = np.random.default_rng(13)
        payloads = [(i, rng.uniform(0.0, 10.0, 4)) for i in range(20)]
        a = InvertedFileIndex()
        b = InvertedFileIndex()
        a.add_block(payloads)
        b.add_block(payloads)
        victims = list(range(0, 20, 2))
        for sequence_id in victims:
            a.remove_sequence(sequence_id)
        removed = b.remove_sequences(victims)
        assert removed == 10 * 4
        assert len(a) == len(b)
        a.check_invariants()
        b.check_invariants()
        assert a.sequences_in_range(0.0, 10.0) == b.sequences_in_range(0.0, 10.0)
