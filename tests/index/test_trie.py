"""Tests for the positional suffix trie."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IndexError_
from repro.index import trie as trie_module
from repro.index.trie import Occurrence, SymbolTrie


def brute_force_find(strings: dict[int, str], needle: str) -> list[Occurrence]:
    """Every occurrence by scanning; "" occurs at every symbol position."""
    hits = []
    for sid, s in strings.items():
        start = 0
        while True:
            pos = s.find(needle, start)
            if pos < 0 or pos >= len(s):
                break
            hits.append(Occurrence(sid, pos))
            start = pos + 1
    return sorted(hits)


class TestBasics:
    def test_single_string(self):
        trie = SymbolTrie()
        trie.add(0, "+-+-")
        assert trie.find("+-") == [Occurrence(0, 0), Occurrence(0, 2)]
        assert trie.find("-+") == [Occurrence(0, 1)]
        assert trie.find("++") == []

    def test_multiple_strings(self):
        trie = SymbolTrie()
        trie.add(0, "+-0")
        trie.add(1, "0+-")
        assert trie.find("+-") == [Occurrence(0, 0), Occurrence(1, 1)]

    def test_duplicate_id_rejected(self):
        trie = SymbolTrie()
        trie.add(0, "+")
        with pytest.raises(IndexError_):
            trie.add(0, "-")

    def test_symbols_of(self):
        trie = SymbolTrie()
        trie.add(3, "+0-")
        assert trie.symbols_of(3) == "+0-"
        with pytest.raises(IndexError_):
            trie.symbols_of(99)

    def test_contains_and_len(self):
        trie = SymbolTrie()
        trie.add(0, "+")
        trie.add(1, "-")
        assert 0 in trie and 1 in trie and 2 not in trie
        assert len(trie) == 2

    def test_bad_depth_rejected(self):
        with pytest.raises(IndexError_):
            SymbolTrie(max_depth=0)

    def test_empty_needle_matches_every_position(self):
        trie = SymbolTrie()
        trie.add(0, "+-")
        assert len(trie.find("")) == 2


class TestDepthLimit:
    def test_long_needle_verified_against_strings(self):
        trie = SymbolTrie(max_depth=3)
        trie.add(0, "+-+-+-+-")
        trie.add(1, "+-+0+-+-")
        needle = "+-+-+"  # longer than max_depth
        assert trie.find(needle) == brute_force_find({0: "+-+-+-+-", 1: "+-+0+-+-"}, needle)

    def test_depth_one_trie_still_correct(self):
        strings = {0: "+0-+", 1: "000+"}
        trie = SymbolTrie(max_depth=1)
        for sid, s in strings.items():
            trie.add(sid, s)
        for needle in ("+", "0", "0-", "00", "+0-"):
            assert trie.find(needle) == brute_force_find(strings, needle)


class TestModelBased:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.text(alphabet="+-0", min_size=1, max_size=25), min_size=1, max_size=8),
        st.text(alphabet="+-0", min_size=1, max_size=6),
        st.integers(min_value=1, max_value=10),
    )
    def test_find_matches_brute_force(self, strings, needle, depth):
        trie = SymbolTrie(max_depth=depth)
        table = {}
        for sid, s in enumerate(strings):
            trie.add(sid, s)
            table[sid] = s
        assert trie.find(needle) == brute_force_find(table, needle)

    def test_node_count_bounded(self):
        trie = SymbolTrie(max_depth=4)
        trie.add(0, "+-0" * 20)
        trie.find("")
        assert trie.node_count() > 1
        # Bounded depth over a 3-symbol alphabet: at most sum_{d<=4} 3^d nodes.
        assert trie.node_count() <= 1 + 3 + 9 + 27 + 81


_ids = st.integers(min_value=0, max_value=5)
_symbols = st.text(alphabet="+-0", max_size=20)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _ids, _symbols),
        st.tuples(st.just("add_many"), st.lists(st.tuples(_ids, _symbols), max_size=3)),
        st.tuples(st.just("update"), _ids, _symbols),
        st.tuples(st.just("remove"), _ids),
        st.tuples(st.just("remove_many"), st.lists(_ids, max_size=3)),
        st.tuples(st.just("find"), st.text(alphabet="+-0", max_size=16)),
        # A slice of a live string: hits for needles past max_depth.
        st.tuples(
            st.just("find_slice"), _ids, st.integers(0, 20), st.integers(0, 20)
        ),
    ),
    max_size=40,
)


class TestBuiltOnFirstLookup:
    def test_mutations_build_no_nodes(self):
        trie = SymbolTrie(max_depth=3)
        trie.add_many([(0, "+-+-"), (1, "00")])
        trie.update(0, "+-0")
        trie.remove(1)
        assert trie.node_count() == 0
        assert trie.find("+-") == [Occurrence(0, 0)]
        built = trie.node_count()
        assert built > 0
        assert trie.find("-0") == [Occurrence(0, 1)]
        assert trie.node_count() == built  # cached until the next mutation
        trie.add(2, "+")
        assert trie.node_count() == 0

    def test_no_op_mutations_keep_the_built_trie(self):
        trie = SymbolTrie()
        trie.add(0, "+-")
        trie.find("+")
        trie.update(0, "+-")
        trie.remove_many([])
        trie.add_many([])
        assert trie.node_count() > 0

    def test_build_overlapping_a_writer_is_not_cached(self, monkeypatch):
        trie = SymbolTrie(max_depth=3)
        trie.add(0, "+-+")
        real = trie_module.Occurrence

        def occurrence_with_writer(*args):
            # A writer lands after the build took its snapshot.
            monkeypatch.setattr(trie_module, "Occurrence", real)
            trie.update(0, "000")
            return real(*args)

        monkeypatch.setattr(trie_module, "Occurrence", occurrence_with_writer)
        assert trie.find("+-") == [Occurrence(0, 0)]  # answered from the snapshot
        assert trie.node_count() == 0
        assert trie.find("+-") == []
        assert trie.find("00") == [Occurrence(0, 0), Occurrence(0, 1)]

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 3, 12]), _operations)
    def test_interleaved_mutations_match_brute_force(self, depth, operations):
        trie = SymbolTrie(max_depth=depth)
        model: dict[int, str] = {}
        for name, *args in operations:
            if name in ("find", "find_slice"):
                if name == "find":
                    needle = args[0]
                else:
                    sequence_id, lo, hi = args
                    needle = model.get(sequence_id, "")[lo:hi]
                assert trie.find(needle) == brute_force_find(model, needle)
                continue
            expected = _model_after(model, name, args)
            if expected is None:
                with pytest.raises(IndexError_):
                    getattr(trie, name)(*args)
            else:
                getattr(trie, name)(*args)
                model = expected
            assert trie.items() == sorted(model.items())


def _model_after(model: dict[int, str], name: str, args: list) -> "dict[int, str] | None":
    """The strings after a mutation, or None if the trie must refuse it."""
    after = dict(model)
    if name == "add":
        sequence_id, symbols = args
        if sequence_id in model:
            return None
        after[sequence_id] = symbols
    elif name == "add_many":
        (batch,) = args
        batch_ids = [sequence_id for sequence_id, __ in batch]
        if len(set(batch_ids)) != len(batch_ids) or set(batch_ids) & set(model):
            return None
        after.update(batch)
    elif name == "update":
        sequence_id, symbols = args
        if sequence_id not in model:
            return None
        after[sequence_id] = symbols
    else:
        victims = {args[0]} if name == "remove" else set(args[0])
        if not victims <= set(model):
            return None
        for sequence_id in victims:
            del after[sequence_id]
    return after
