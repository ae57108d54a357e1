"""Streaming index maintenance: trie updates and posting tail swaps.

The oracle in both cases is full remove-and-re-add: after any chain of
updates, every query the structure answers must be identical to a
freshly built twin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import IndexError_
from repro.index.inverted import InvertedFileIndex
from repro.index.pattern_index import PatternIndex
from repro.index.trie import SymbolTrie
from test_trie import brute_force_find

ALPHABET = "+-0"


def _random_symbols(rng, lo=0, hi=40):
    return "".join(rng.choice(list(ALPHABET)) for _ in range(rng.integers(lo, hi)))


def _all_substrings(strings, max_len):
    subs = {""}
    for s in strings:
        for i in range(len(s)):
            for j in range(i + 1, min(i + max_len + 2, len(s)) + 1):
                subs.add(s[i:j])
    return sorted(subs)


def _assert_trie_equivalent(trie: SymbolTrie, strings: "dict[int, str]", max_depth: int):
    oracle = SymbolTrie(max_depth=max_depth)
    for sequence_id in sorted(strings):
        oracle.add(sequence_id, strings[sequence_id])
    for sub in _all_substrings(strings.values(), max_depth):
        assert trie.find(sub) == oracle.find(sub), f"substring {sub!r} diverged"
    for sequence_id, symbols in strings.items():
        assert trie.symbols_of(sequence_id) == symbols


class TestTrieUpdate:
    def test_append_style_update_matches_rebuild(self):
        rng = np.random.default_rng(0)
        trie = SymbolTrie(max_depth=4)
        strings = {}
        for sequence_id in range(8):
            strings[sequence_id] = _random_symbols(rng, 5, 25)
            trie.add(sequence_id, strings[sequence_id])
        # Extend tails (the append shape) several times over.
        for _ in range(5):
            for sequence_id in list(strings):
                # An append may also rewrite the last pre-existing
                # symbol (the re-broken trailing segment).
                base = strings[sequence_id]
                if base and rng.random() < 0.5:
                    base = base[:-1] + rng.choice(list(ALPHABET))
                strings[sequence_id] = base + _random_symbols(rng, 1, 6)
                trie.update(sequence_id, strings[sequence_id])
        _assert_trie_equivalent(trie, strings, max_depth=4)

    def test_arbitrary_rewrites_match_rebuild(self):
        # update() is documented for tail changes but must stay exact
        # for any rewrite (shrinking strings included).
        rng = np.random.default_rng(1)
        trie = SymbolTrie(max_depth=3)
        strings = {}
        for sequence_id in range(6):
            strings[sequence_id] = _random_symbols(rng, 0, 15)
            trie.add(sequence_id, strings[sequence_id])
        for _ in range(30):
            sequence_id = int(rng.integers(0, 6))
            strings[sequence_id] = _random_symbols(rng, 0, 15)
            trie.update(sequence_id, strings[sequence_id])
        _assert_trie_equivalent(trie, strings, max_depth=3)

    def test_updates_leave_no_residue(self):
        # Finds between updates build the trie over and over; after 300
        # rewrites it must hold exactly the nodes a fresh build holds.
        rng = np.random.default_rng(2)
        trie = SymbolTrie(max_depth=4)
        trie.add(0, "+-0+-0+-0+")
        trie.add(1, "00+-")
        for step in range(300):
            trie.update(0, _random_symbols(rng, 8, 20))
            if step % 7 == 0:
                trie.find("+-")
        strings = dict(trie.items())
        fresh = SymbolTrie(max_depth=4)
        fresh.add_many(strings.items())
        for sub in _all_substrings(strings.values(), 4):
            assert trie.find(sub) == brute_force_find(strings, sub), sub
        fresh.find("")
        assert trie.node_count() == fresh.node_count()

    def test_update_unknown_or_bad_arguments(self):
        trie = SymbolTrie()
        with pytest.raises(IndexError_):
            trie.update(3, "+-")
        trie.add(3, "+-")
        with pytest.raises(IndexError_):
            trie.update(3, None)
        trie.update(3, "+-")  # no-op on identical string
        assert trie.symbols_of(3) == "+-"

    def test_update_then_remove_leaves_no_trace(self):
        trie = SymbolTrie(max_depth=4)
        trie.add(1, "++--")
        trie.add(2, "0+0+")
        trie.update(1, "++-00")
        trie.remove(1)
        _assert_trie_equivalent(trie, {2: "0+0+"}, max_depth=4)

    def test_pattern_index_update_entry_point(self):
        index = PatternIndex(trie_depth=4)
        index.add_symbols(0, "++--")
        index.update_symbols(0, "++-0+")
        assert index.symbols_of(0) == "++-0+"
        assert [o.position for o in index.find_exact("0+")] == [3]
        assert index.match_full("\\+^+ - 0 \\+") == [0]


class TestInvertedReplaceTail:
    def _oracle(self, columns, bucket_width=1.0):
        index = InvertedFileIndex(bucket_width=bucket_width)
        for sequence_id, values in columns.items():
            index.add_array(sequence_id, values)
        return index

    def _assert_same(self, index, oracle):
        index.check_invariants()
        assert len(index) == len(oracle)
        assert index.bucket_count() == oracle.bucket_count()
        for lo, hi in [(-100, 100), (0, 5), (2.5, 7.25), (10, 9)]:
            assert list(index.postings_in_range(lo, hi)) == list(
                oracle.postings_in_range(lo, hi)
            )

    def test_tail_swap_matches_rebuild(self):
        rng = np.random.default_rng(3)
        columns = {
            sequence_id: rng.uniform(0, 12, rng.integers(0, 20))
            for sequence_id in range(6)
        }
        index = self._oracle(columns)
        for _ in range(25):
            sequence_id = int(rng.integers(0, 6))
            old = columns[sequence_id]
            keep = int(rng.integers(0, len(old) + 1))
            new = np.concatenate([old[:keep], rng.uniform(0, 12, rng.integers(0, 8))])
            index.replace_tail(sequence_id, old, new)
            columns[sequence_id] = new
        self._assert_same(index, self._oracle(columns))

    def test_common_prefix_postings_untouched(self):
        index = InvertedFileIndex(bucket_width=1.0)
        old = np.array([1.5, 2.5, 3.5])
        index.add_array(7, old)
        new = np.array([1.5, 2.5, 4.5, 5.5])
        removed = index.replace_tail(7, old, new)
        assert removed == 1  # only the changed tail value left
        self._assert_same(index, self._oracle({7: new}))

    def test_identical_columns_are_a_noop(self):
        index = InvertedFileIndex()
        values = np.array([1.0, 2.0])
        index.add_array(1, values)
        assert index.replace_tail(1, values, values) == 0
        assert len(index) == 2
