"""Tests for the archival and local stores."""

from __future__ import annotations

import pytest

from repro.core.errors import StorageError
from repro.segmentation import InterpolationBreaker
from repro.storage.archive import ArchivalStore, LocalStore
from repro.workloads import goalpost_fever


@pytest.fixture
def sequence():
    return goalpost_fever()


@pytest.fixture
def representation(sequence):
    return InterpolationBreaker(0.5).represent(sequence, curve_kind="regression")


class TestArchivalStore:
    def test_store_and_retrieve(self, sequence):
        store = ArchivalStore()
        size = store.store(0, sequence)
        assert size > 0
        assert 0 in store
        assert store.retrieve(0) == sequence

    def test_latency_accounted_not_slept(self, sequence):
        store = ArchivalStore(seek_seconds=120.0, bandwidth_bytes_per_s=1e6)
        store.store(0, sequence)
        store.retrieve(0)
        # Two operations, each at least the seek latency.
        assert store.log.simulated_seconds >= 240.0
        assert store.log.reads == 1
        assert store.log.writes == 1
        assert store.log.bytes_read == store.log.bytes_written > 0

    def test_archive_much_slower_than_local(self, sequence, representation):
        archive = ArchivalStore()
        local = LocalStore()
        archive.store(0, sequence)
        local.store(0, representation)
        archive.retrieve(0)
        local.retrieve(0)
        assert archive.log.simulated_seconds > 100 * local.log.simulated_seconds

    def test_duplicate_rejected(self, sequence):
        store = ArchivalStore()
        store.store(0, sequence)
        with pytest.raises(StorageError):
            store.store(0, sequence)

    def test_missing_rejected(self):
        with pytest.raises(StorageError):
            ArchivalStore().retrieve(5)

    def test_invalid_model_rejected(self):
        with pytest.raises(StorageError):
            ArchivalStore(seek_seconds=-1.0)
        with pytest.raises(StorageError):
            ArchivalStore(bandwidth_bytes_per_s=0.0)

    def test_total_bytes(self, sequence):
        store = ArchivalStore()
        size = store.store(0, sequence)
        assert store.total_bytes() == size
        assert len(store) == 1


class TestLocalStore:
    def test_store_and_retrieve(self, representation):
        store = LocalStore()
        store.store(3, representation)
        restored = store.retrieve(3)
        assert len(restored) == len(representation)

    def test_tagged_variants(self, representation, sequence):
        store = LocalStore()
        store.store(0, representation, tag="regression")
        other = representation.refit(sequence, "interpolation")
        store.store(0, other, tag="interpolation")
        assert store.retrieve(0, "interpolation").curve_kind == "interpolation"
        assert (0, "regression") in store
        assert 0 in store
        assert len(store) == 2

    def test_duplicate_tag_rejected(self, representation):
        store = LocalStore()
        store.store(0, representation)
        with pytest.raises(StorageError):
            store.store(0, representation)

    def test_missing_rejected(self):
        with pytest.raises(StorageError):
            LocalStore().retrieve(0)

    def test_evict_drops_one_sequence_only(self, representation, sequence):
        store = LocalStore()
        other = representation.refit(sequence, "interpolation")
        sizes = {}
        for sequence_id in (0, 1, 2):
            sizes[(sequence_id, "default")] = store.store(sequence_id, representation)
            sizes[(sequence_id, "variant")] = store.store(sequence_id, other, tag="variant")
        assert store.evict(1) == sizes[(1, "default")] + sizes[(1, "variant")]
        assert 1 not in store
        assert (1, "default") not in store
        for sequence_id in (0, 2):
            assert sequence_id in store
            for tag in ("default", "variant"):
                assert (sequence_id, tag) in store
                assert store.retrieve(sequence_id, tag).curve_kind == (
                    "interpolation" if tag == "variant" else "regression"
                )
        assert store.evict(1) == 0
        assert store.evict(99) == 0
        assert len(store) == 4
        assert store.total_bytes() == sum(
            size for (sequence_id, __), size in sizes.items() if sequence_id != 1
        )
        # The evicted id can be stored again.
        store.store(1, representation)
        assert (1, "default") in store and (1, "variant") not in store
