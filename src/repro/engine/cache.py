"""Plan-level result caching keyed on query content and store generation.

Query answers only change when the data changes.  The columnar store
tracks that precisely — every ``insert``/``extend``/``append``/``delete``
bumps its :attr:`~repro.engine.columnar.ColumnarSegmentStore.generation`
and records the touched ids in its
:class:`~repro.engine.journal.MutationJournal` — so a graded result
list can be reused verbatim for as long as the generation it was
computed at stays current, and *repaired* rather than discarded when it
does not.  :class:`PlanResultCache` implements that contract:

* entries are keyed on ``(query fingerprint, include_approximate)`` —
  extended to ``(fingerprint, include_approximate, limit)`` for top-k /
  limited plans, so the same query at different ``k`` caches separately
  — where the fingerprint is the query's *content* key (see
  :meth:`repro.query.queries.Query.fingerprint`) — never an ``id()``,
  which can be recycled;
* each entry remembers the generation token it was computed at (the
  database combines the store generation with its pipeline config, see
  ``SequenceDatabase.cache_epoch``) plus the store's per-shard
  generation *vector*; a lookup at any other token is a miss, but the
  stale entry is **retained**: the executor replays the mutation
  journal since the entry's vector, re-grades only the dirty ids
  (:meth:`repro.engine.executor.QueryExecutor.run_stages_subset`) and
  :meth:`revalidate`-s the entry in place — falling back to a full
  re-grade when the journal has compacted past the baseline;
* capacity is bounded two ways, both with LRU eviction: an entry count
  (``max_entries``) and an estimated *byte* budget (``max_bytes``)
  covering each entry's result payload and fingerprint key.  Byte
  accounting always reflects the entry's *current* payload — a
  revalidated entry is charged for its patched match list (by the
  dirty matches alone when only those changed), so eviction pressure
  stays truthful after any number of deltas.
  `QueryMatch` objects are frozen, so sharing them across callers is
  safe (the returned list itself is fresh per call); the same holds for
  the frozen deviation tuples that matches with equal deviations share
  (see ``QueryExecutor._materialize``).

A hit skips every plan stage; a delta revalidation skips them for all
but the dirty ids.  ``SequenceDatabase.explain`` surfaces the would-be
outcome, and :meth:`stats` (exposed through
``SequenceDatabase.storage_report``) reports hits / misses /
invalidations / evictions plus ``revalidations`` / ``delta_hits`` /
``delta_fallbacks`` and the estimated resident bytes.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.core.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable

    from repro.query.results import QueryMatch

__all__ = ["PlanResultCache"]

#: Fixed overhead charged per entry: the OrderedDict slot, the entry
#: object, and the generation token + vector.
_ENTRY_OVERHEAD = 240


def _flat_sizeof(value: object) -> int:
    """Estimated deep size of a (possibly nested) fingerprint tuple.

    Fingerprints are small tuples of scalars/strings by contract, so a
    shallow recursion over tuples is exact enough for budgeting.
    """
    size = sys.getsizeof(value)
    if isinstance(value, tuple):
        size += sum(_flat_sizeof(item) for item in value)
    return size


def _matches_bytes(matches: "Iterable[QueryMatch]") -> int:
    """Estimated cost of some matches: per match, the frozen dataclass,
    its name string and its deviation records.

    A deviation tuple shared by several matches is still charged to
    each of them, deliberately: the estimate stays additive over
    matches (which delta re-charging relies on), and eviction order does
    not depend on which other answers happened to share a record.
    """
    cost = 0
    for match in matches:
        cost += 96 + sys.getsizeof(match.name)
        cost += 120 * len(match.deviations)
    return cost


def _estimate_entry_bytes(key: tuple, matches: "tuple[QueryMatch, ...]") -> int:
    """Estimated resident cost of one cache entry.

    Counts the fingerprint key and every match (:func:`_matches_bytes`).
    An estimate (Python object graphs share plenty), but a *monotone*
    one: more matches or fatter fingerprints always cost more, which is
    all eviction needs.  It is also additive over matches, which lets
    :meth:`PlanResultCache.revalidate` re-charge a delta patch by its
    dirty matches alone.
    """
    return _ENTRY_OVERHEAD + _flat_sizeof(key) + _matches_bytes(matches)


class _CacheEntry:
    """One remembered answer with its epoch, baseline vector and cost."""

    __slots__ = ("epoch", "payload", "entry_bytes", "vector", "stale_seen")

    def __init__(self, epoch, payload, entry_bytes, vector) -> None:
        self.epoch = epoch
        self.payload = payload
        self.entry_bytes = entry_bytes
        self.vector = vector
        #: Whether this entry has already been counted as invalidated
        #: (it is retained for delta revalidation, so repeated stale
        #: lookups must not inflate the counter).
        self.stale_seen = False


class PlanResultCache:
    """LRU cache of graded result lists with delta revalidation support.

    Parameters
    ----------
    max_entries:
        Hard cap on the number of cached answers.
    max_bytes:
        Estimated-byte budget across all entries (result payloads plus
        fingerprint keys); ``None`` disables the byte bound.  A single
        answer larger than the whole budget is not cached at all
        (tracked as ``oversized`` in :meth:`stats`) — storing it would
        just evict everything else for one entry.
    """

    def __init__(self, max_entries: int = 256, max_bytes: "int | None" = 32 * 1024 * 1024) -> None:
        if max_entries <= 0:
            raise EngineError("cache capacity must be positive")
        if max_bytes is not None and max_bytes <= 0:
            raise EngineError("cache byte budget must be positive (or None for unbounded)")
        self.max_entries = int(max_entries)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        #: Serializes every read *and* write: concurrent serving runs
        #: queries from many threads against one cache, and even lookup
        #: mutates shared state (LRU order, hit/miss counters).  An
        #: RLock (not a plain Lock) so a future caller composing two
        #: public methods under the lock cannot deadlock itself.
        self._lock = threading.RLock()
        self._entries: "OrderedDict[tuple, _CacheEntry]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.oversized = 0
        self.revalidations = 0
        self.delta_hits = 0
        self.delta_fallbacks = 0
        self.topk_refills = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def estimated_bytes(self) -> int:
        """Estimated resident bytes across every cached entry."""
        return self._bytes

    def lookup(self, key: tuple, generation: object) -> "list[QueryMatch] | None":
        """Cached result list for ``key`` at generation token
        ``generation`` (any equality-comparable value — the database
        passes its ``cache_epoch()`` tuple), or None.

        A stale entry (computed at another generation) counts as a miss
        and as one invalidation, but is *retained* so the executor can
        delta-revalidate it (see :meth:`stale_entry`); it stays until
        replaced, evicted or cleared.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if entry.epoch != generation:
                if not entry.stale_seen:
                    entry.stale_seen = True
                    self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return list(entry.payload)

    def stale_entry(self, key: tuple, generation: object) -> "tuple | None":
        """The retained stale entry for ``key``, if any.

        Returns ``(epoch, matches, vector)`` for an entry whose epoch
        differs from ``generation`` — the raw material for a delta
        revalidation — without touching stats or LRU order.  ``None``
        when the key is absent or the entry is current.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.epoch == generation:
                return None
            return (entry.epoch, entry.payload, entry.vector)

    def store(
        self,
        key: tuple,
        generation: object,
        matches: "list[QueryMatch]",
        *,
        vector: "tuple | None" = None,
    ) -> None:
        """Remember a freshly computed result list at its generation.

        ``vector`` is the store's per-shard generation baseline
        (``generation_vector()``); entries without one can never be
        delta-revalidated, only replaced.
        """
        payload = tuple(matches)
        self._put(key, generation, payload, _estimate_entry_bytes(key, payload), vector)

    def _put(
        self,
        key: tuple,
        generation: object,
        payload: "tuple[QueryMatch, ...]",
        entry_bytes: int,
        vector: "tuple | None",
    ) -> None:
        with self._lock:
            if self.max_bytes is not None and entry_bytes > self.max_bytes:
                self._discard(key)
                self.oversized += 1
                return
            self._discard(key)
            self._entries[key] = _CacheEntry(generation, payload, entry_bytes, vector)
            self._bytes += entry_bytes
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None and self._bytes > self.max_bytes
            ):
                __, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.entry_bytes
                self.evictions += 1

    def revalidate(
        self,
        key: tuple,
        generation: object,
        vector: "tuple | None",
        matches: "list[QueryMatch]",
        dirty_count: "int | None",
        refill: bool = False,
        *,
        patched_from: "tuple[tuple[QueryMatch, ...], set[int]] | None" = None,
    ) -> None:
        """Refresh a stale entry in place at a new generation.

        ``dirty_count`` names how many ids the journal replay re-graded
        (counted as a ``delta_hit``); ``None`` records a fallback full
        re-grade (journal compacted past the baseline).  ``refill=True``
        marks a top-k heap patch that could not prove its k-th boundary
        from survivors alone and had to re-run the pruned search — it is
        counted as ``topk_refills`` *in addition to* the hit/fallback
        outcome.  Byte accounting is recomputed from the *patched*
        payload, so a heavily patched entry weighs exactly what it
        currently holds.

        ``patched_from=(old_matches, dirty)`` declares ``matches`` to be
        ``old_matches`` with the matches of every id in ``dirty``
        replaced and nothing else changed (the unlimited delta patch).
        While ``old_matches`` is still the entry's payload, its byte
        cost is then moved by the dirty matches only, which gives the
        same figure as a full re-estimate without walking the whole
        answer.
        """
        with self._lock:
            self.revalidations += 1
            if dirty_count is None:
                self.delta_fallbacks += 1
            else:
                self.delta_hits += 1
            if refill:
                self.topk_refills += 1
            entry = self._entries.get(key)
            if (
                patched_from is None
                or entry is None
                or entry.payload is not patched_from[0]
            ):
                self.store(key, generation, matches, vector=vector)
                return
            old_matches, dirty = patched_from
            entry_bytes = (
                entry.entry_bytes
                - _matches_bytes(m for m in old_matches if m.sequence_id in dirty)
                + _matches_bytes(m for m in matches if m.sequence_id in dirty)
            )
            self._put(key, generation, tuple(matches), entry_bytes, vector)

    def _discard(self, key: tuple) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= entry.entry_bytes

    def peek(self, key: tuple, generation: object) -> bool:
        """Whether a lookup would hit, without touching stats or LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry.epoch == generation

    def export_entries(self, generation: object) -> "list[tuple[tuple, tuple]]":
        """``(key, matches)`` pairs for every entry current at
        ``generation`` — the warm set a cache snapshot persists."""
        with self._lock:
            return [
                (key, entry.payload)
                for key, entry in self._entries.items()
                if entry.epoch == generation
            ]

    def clear(self) -> None:
        """Drop every entry (stats are kept; they are running totals)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> dict:
        """Counters for benchmarks/monitoring."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "topk_entries": sum(1 for key in self._entries if len(key) > 2),
                "estimated_bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "oversized": self.oversized,
                "revalidations": self.revalidations,
                "delta_hits": self.delta_hits,
                "delta_fallbacks": self.delta_fallbacks,
                "topk_refills": self.topk_refills,
            }
