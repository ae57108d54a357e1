"""Tests for deleting sequences from the database and indexes."""

from __future__ import annotations

import pytest

from repro.core.errors import IndexError_, QueryError
from repro.query import PatternQuery, PeakCountQuery, SequenceDatabase
from repro.segmentation import InterpolationBreaker
from repro.workloads import ecg_corpus, fever_corpus

GOALPOST = "(0|-)* + (0|-)^+ + (0|-)*"


@pytest.fixture
def db():
    db = SequenceDatabase(breaker=InterpolationBreaker(0.5))
    db.insert_all(fever_corpus(n_two_peak=4, n_one_peak=2, n_three_peak=2))
    return db


class TestDatabaseDelete:
    def test_delete_removes_from_queries(self, db):
        before = {m.sequence_id for m in db.query(PatternQuery(GOALPOST))}
        victim = next(iter(before))
        db.delete(victim)
        after = {m.sequence_id for m in db.query(PatternQuery(GOALPOST))}
        assert after == before - {victim}

    def test_delete_removes_from_ids(self, db):
        db.delete(0)
        assert 0 not in db.ids()
        assert len(db) == 7

    def test_deleted_access_rejected(self, db):
        db.delete(0)
        with pytest.raises(QueryError):
            db.representation_of(0)
        with pytest.raises(QueryError):
            db.name_of(0)

    def test_double_delete_rejected(self, db):
        db.delete(0)
        with pytest.raises(QueryError):
            db.delete(0)

    def test_unknown_delete_rejected(self, db):
        with pytest.raises(QueryError):
            db.delete(999)
        # Ids are looked up as given, never truncated to a live id.
        for bad in (2.5, "2"):
            with pytest.raises(QueryError):
                db.delete(bad)
            with pytest.raises(QueryError):
                db.delete_many([bad])
        assert len(db) == 8

    def test_raw_blob_stays_archived(self, db):
        """Archival media are append-only; deletion is logical."""
        db.delete(0)
        assert 0 in db.archive

    def test_peak_count_query_after_delete(self, db):
        before = {m.sequence_id for m in db.query(PeakCountQuery(2))}
        victim = next(iter(before))
        db.delete(victim)
        assert victim not in {m.sequence_id for m in db.query(PeakCountQuery(2))}

    def test_insert_after_delete_gets_fresh_id(self, db):
        db.delete(3)
        new_id = db.insert(fever_corpus(n_two_peak=1, n_one_peak=0, n_three_peak=0)[0])
        assert new_id == 8  # ids are never reused


class TestRRIndexDelete:
    def test_rr_index_consistent_after_delete(self):
        db = SequenceDatabase(breaker=InterpolationBreaker(10.0), theta=5.0)
        db.insert_all(ecg_corpus(n_sequences=15, seed=8))
        victim = 3
        assert db.scan_rr(150.0, 30.0)  # sanity: queries return something
        db.delete(victim)
        db.rr_index.check_invariants()
        for target, delta in [(120.0, 10.0), (150.0, 30.0), (180.0, 5.0)]:
            assert db.rr_index.sequences_near(target, delta) == db.scan_rr(target, delta)

    def test_remove_sequence_returns_count(self):
        from repro.index.inverted import InvertedFileIndex

        index = InvertedFileIndex()
        index.add_all(1, [10.0, 20.0, 30.0])
        index.add_all(2, [10.0, 40.0])
        assert index.remove_sequence(1) == 3
        assert len(index) == 2
        assert index.sequences_in_range(0.0, 100.0) == [2]
        index.check_invariants()

    def test_empty_buckets_pruned(self):
        from repro.index.inverted import InvertedFileIndex

        index = InvertedFileIndex(bucket_width=1.0)
        index.add(5.0, 1)
        index.add(9.0, 2)
        index.remove_sequence(1)
        assert index.bucket_count() == 1


class TestTrieDelete:
    def test_remove_prunes_occurrences(self):
        from repro.index.trie import SymbolTrie

        trie = SymbolTrie()
        trie.add(0, "+-+")
        trie.add(1, "+-0")
        trie.remove(0)
        assert 0 not in trie
        assert all(occ.sequence_id == 1 for occ in trie.find("+-"))

    def test_remove_unknown_rejected(self):
        from repro.index.trie import SymbolTrie

        with pytest.raises(IndexError_):
            SymbolTrie().remove(7)

    def test_node_count_shrinks(self):
        from repro.index.trie import SymbolTrie

        trie = SymbolTrie()
        trie.add(0, "+-+-+-")
        trie.find("")
        full = trie.node_count()
        trie.add(1, "000")
        trie.find("")
        assert trie.node_count() > full
        trie.remove(1)
        trie.find("")
        assert trie.node_count() == full

    def test_readd_after_remove(self):
        from repro.index.trie import SymbolTrie

        trie = SymbolTrie()
        trie.add(0, "+-")
        trie.remove(0)
        trie.add(0, "-+")
        assert trie.symbols_of(0) == "-+"
