"""The inverted-file index of paper Figure 10.

"A simple inverted file index is sufficient for this purpose ... It
consists of a B-Tree structure which points to the postings file.  The
postings file contains buckets of R-R interval lengths and a set of
pointers to the ECG representations which contain those interval
lengths ... Each bucket in the postings file is sorted by the values
stored in it."

Here the indexed value is any scalar feature (R-R interval lengths in
the paper); buckets quantize values to a configurable width, a B-tree
orders the bucket keys, and each posting records the exact value, the
owning sequence, and optionally the position of the feature — the paper
notes positions "can also be augmented" but are not required because
the physician inspects the ECG anyway.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.core.errors import IndexError_
from repro.index.btree import BTree

__all__ = ["Posting", "PostingBucket", "InvertedFileIndex"]


def _checked_sequence_id(sequence_id: object) -> int:
    """Validate a sequence id up front, with a readable error.

    Without this, a call with swapped arguments (an array where the id
    belongs) died with an opaque ``TypeError`` deep inside the B-tree;
    now it fails at the API boundary, naming the actual problem.
    """
    if isinstance(sequence_id, bool) or not isinstance(sequence_id, (int, np.integer)):
        raise IndexError_(
            f"sequence_id must be an integer, got {type(sequence_id).__name__!s} "
            f"{sequence_id!r} — did you swap the argument order?"
        )
    return int(sequence_id)


def _checked_value(value: object) -> float:
    """Validate a posting value up front (finite real scalar, not an array).

    NaN would land in a garbage bucket (``floor(nan)``) and break the
    bucket's sorted-by-value invariant, so non-finite values are
    rejected at the boundary.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise IndexError_(
            f"value must be a real number, got {type(value).__name__!s} {value!r}"
        )
    if not math.isfinite(value):
        raise IndexError_(f"value must be finite, got {value!r}")
    return float(value)


def _checked_feature_array(values: "Iterable[float] | np.ndarray") -> np.ndarray:
    """Validate one sequence's feature payload into a float column.

    Shared by every sequence-level ingest entry point (``add_array``,
    ``add_block``) so the accepted payload shapes — NumPy arrays, lists,
    generators — and the rejection rules (non-numeric, multi-dimensional,
    non-finite) can never drift between them.
    """
    if not isinstance(values, np.ndarray):
        if not hasattr(values, "__iter__"):
            raise IndexError_(
                f"values must be iterable, got {type(values).__name__} {values!r}"
            )
        values = list(values)  # materialize generators/iterators
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise IndexError_(f"values must be real numbers: {exc}") from exc
    if array.ndim != 1:
        raise IndexError_(f"values must be one-dimensional, got shape {array.shape}")
    if array.size and not bool(np.isfinite(array).all()):
        bad = array[~np.isfinite(array)]
        raise IndexError_(f"values must be finite, got {bad.tolist()}")
    return array


@dataclass(frozen=True, order=True)
class Posting:
    """One feature occurrence: exact value, owning sequence, position."""

    value: float
    sequence_id: int
    position: int = -1


@dataclass
class PostingBucket:
    """A sorted bucket of postings sharing one quantized key."""

    postings: list[Posting] = field(default_factory=list)

    def add(self, posting: Posting) -> None:
        bisect.insort(self.postings, posting)

    def in_range(self, lo: float, hi: float) -> Iterator[Posting]:
        start = bisect.bisect_left(self.postings, Posting(lo, -(10**9)))
        for posting in self.postings[start:]:
            if posting.value > hi:
                return
            yield posting

    def __len__(self) -> int:
        return len(self.postings)


class InvertedFileIndex:
    """B-tree over quantized feature values, postings underneath.

    Parameters
    ----------
    bucket_width:
        Quantization step for bucket keys.  The paper exploits that R-R
        intervals are physiologically bounded, so "there is a limited
        number of interval values according to which the sequences can
        be indexed"; a unit bucket width reproduces that exactly for
        integer sample distances.
    """

    def __init__(self, bucket_width: float = 1.0, btree_min_degree: int = 4) -> None:
        if bucket_width <= 0:
            raise IndexError_("bucket width must be positive")
        self.bucket_width = float(bucket_width)
        self._btree = BTree(min_degree=btree_min_degree)
        self._count = 0

    def _bucket_key(self, value: float) -> int:
        return int(math.floor(value / self.bucket_width))

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def add(self, value: float, sequence_id: int, position: int = -1) -> None:
        """Record one feature occurrence.

        The posting-level entry point keeps the postings-file field
        order (``value`` first, mirroring :class:`Posting`); the
        sequence-level ingest methods :meth:`add_all`/:meth:`add_array`
        take ``sequence_id`` first, like every other per-sequence ingest
        API.  Both are validated up front so a swapped call fails with a
        clear error instead of a ``TypeError`` deep in the B-tree.
        """
        value = _checked_value(value)
        sequence_id = _checked_sequence_id(sequence_id)
        key = self._bucket_key(value)
        bucket = self._btree.setdefault(key, PostingBucket)
        bucket.add(Posting(value, sequence_id, int(position)))
        self._count += 1

    def add_all(self, sequence_id: int, values: "Iterable[float]") -> None:
        """Record one sequence's feature values.

        Alias of :meth:`add_array` kept for the pre-engine name; both
        take ``(sequence_id, values)``, validate the whole payload up
        front (nothing is inserted on a bad value) and batch postings by
        bucket.
        """
        self.add_array(sequence_id, values)

    def add_array(self, sequence_id: int, values: "Iterable[float] | np.ndarray") -> None:
        """Record one sequence's feature column (a block of one, see :meth:`add_block`)."""
        self.add_block([(sequence_id, values)])

    def add_block(
        self, items: "Iterable[tuple[int, Iterable[float] | np.ndarray]]"
    ) -> None:
        """Record many sequences' feature columns as one batch.

        The ingest path for one sequence or many: every payload is
        validated first (a bad item inserts nothing for the whole
        block), then the stacked value column goes through
        :meth:`_insert_postings`, so each distinct bucket is probed in
        the B-tree once for the whole block.  Positions are offsets
        within each sequence's own column.
        """
        columns: "list[tuple[int, np.ndarray]]" = []
        for sequence_id, values in items:
            columns.append(
                (_checked_sequence_id(sequence_id), _checked_feature_array(values))
            )
        if not columns:
            return
        self._insert_postings(
            np.concatenate([array for __, array in columns]),
            np.repeat(
                np.array([sequence_id for sequence_id, __ in columns], dtype=np.int64),
                np.array([array.size for __, array in columns], dtype=np.int64),
            ),
            np.concatenate([np.arange(array.size, dtype=np.int64) for __, array in columns]),
        )

    def _insert_postings(
        self, values: np.ndarray, sequences: np.ndarray, positions: np.ndarray
    ) -> None:
        """Bucket-grouped insert of validated posting columns.

        The one bucketing loop shared by :meth:`add_block` and
        :meth:`replace_tail`: bucket keys are computed for the whole
        column at once, and the postings sharing a bucket go in through
        a single B-tree probe, each at its sorted place.
        """
        if values.size == 0:
            return
        keys = np.floor(values / self.bucket_width).astype(int)
        order = np.argsort(keys, kind="stable")
        key_list = keys.tolist()
        value_list = values.tolist()
        sequence_list = sequences.tolist()
        position_list = positions.tolist()
        for key, rows in itertools.groupby(order.tolist(), key=key_list.__getitem__):
            bucket = self._btree.setdefault(key, PostingBucket)
            for row in rows:
                bucket.add(Posting(value_list[row], sequence_list[row], position_list[row]))
        self._count += values.size

    def __len__(self) -> int:
        """Total posting count (not distinct sequences)."""
        return self._count

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def postings_in_range(self, lo: float, hi: float) -> Iterator[Posting]:
        """All postings with ``lo <= value <= hi``, ascending by value.

        Follows the B-tree to the overlapping buckets only, then scans
        each sorted bucket — the access path of paper Figure 10.
        """
        if lo > hi:
            return
        key_lo = self._bucket_key(lo)
        key_hi = self._bucket_key(hi)
        for __, bucket in self._btree.range(key_lo, key_hi):
            yield from bucket.in_range(lo, hi)

    def sequences_in_range(self, lo: float, hi: float) -> list[int]:
        """Distinct sequence ids owning a value in ``[lo, hi]``, sorted."""
        return sorted({p.sequence_id for p in self.postings_in_range(lo, hi)})

    def sequences_near(self, target: float, delta: float) -> list[int]:
        """The paper's query form: value within ``target ± delta``."""
        if delta < 0:
            raise IndexError_("delta must be non-negative")
        return self.sequences_in_range(target - delta, target + delta)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def replace_tail(
        self,
        sequence_id: int,
        old_values: "Iterable[float] | np.ndarray",
        new_values: "Iterable[float] | np.ndarray",
    ) -> int:
        """Swap one sequence's feature column for a tail-updated one.

        The streaming append path's entry point: ``old_values`` is the
        column as currently indexed, ``new_values`` the column after the
        append.  Only the *changed suffix* is touched — the longest
        common prefix of the two columns keeps its postings verbatim,
        stale postings past it are filtered from exactly the buckets
        that hold them (one B-tree probe per distinct stale bucket),
        and the fresh suffix is inserted with its new positions.  End
        state is identical to ``remove_sequence`` + ``add_array``;
        returns how many stale postings were removed.
        """
        sequence_id = _checked_sequence_id(sequence_id)
        old = _checked_feature_array(old_values)
        new = _checked_feature_array(new_values)
        shared = min(old.size, new.size)
        changed = np.flatnonzero(old[:shared] != new[:shared])
        lcp = int(changed[0]) if changed.size else shared
        stale = old[lcp:]
        fresh = new[lcp:]
        removed = 0
        if stale.size:
            for key in np.unique(np.floor(stale / self.bucket_width).astype(int)).tolist():
                bucket = self._btree.get(key)
                if bucket is None:
                    continue
                kept = [
                    p
                    for p in bucket.postings
                    if p.sequence_id != sequence_id or p.position < lcp
                ]
                removed += len(bucket.postings) - len(kept)
                bucket.postings = kept
                if not kept:
                    self._btree.delete(key)
            self._count -= removed
        self._insert_postings(
            fresh,
            np.full(fresh.size, sequence_id, dtype=np.int64),
            np.arange(lcp, new.size, dtype=np.int64),
        )
        return removed

    def remove_sequence(self, sequence_id: int) -> int:
        """Drop every posting of one sequence; returns how many went.

        Buckets left empty are deleted from the B-tree so range scans
        do not visit dead keys.
        """
        return self.remove_sequences([sequence_id])

    def remove_sequences(self, sequence_ids: "Iterable[int]") -> int:
        """Drop every posting of many sequences in one pass; count removed.

        The one removal body (:meth:`remove_sequence` is a batch of
        one): the postings file is filtered once for the whole id set,
        and buckets left empty are deleted from the B-tree.
        """
        id_set = {int(sequence_id) for sequence_id in sequence_ids}
        removed = 0
        empty_keys = []
        for key, bucket in self._btree.items():
            kept = [p for p in bucket.postings if p.sequence_id not in id_set]
            removed += len(bucket.postings) - len(kept)
            bucket.postings = kept
            if not kept:
                empty_keys.append(key)
        for key in empty_keys:
            self._btree.delete(key)
        self._count -= removed
        return removed

    def bucket_count(self) -> int:
        return len(self._btree)

    def check_invariants(self) -> None:
        """Validate the underlying B-tree and bucket ordering."""
        self._btree.check_invariants()
        for key, bucket in self._btree.items():
            values = [p.value for p in bucket.postings]
            if values != sorted(values):
                raise IndexError_(f"bucket {key} is not sorted")
            for posting in bucket.postings:
                if self._bucket_key(posting.value) != key:
                    raise IndexError_(
                        f"posting {posting} misfiled in bucket {key}"
                    )
