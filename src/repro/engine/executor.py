"""Planner and executor: vectorized scatter-gather query evaluation.

The planner asks each query for its staged :class:`QueryPlan`; the
executor runs the stages against a database and its columnar store.
Queries that supply a ``vector_filter`` are graded entirely in NumPy —
the executor applies the same grading rule as
:func:`repro.core.tolerance.grade_deviations` to whole columns at once
and materializes :class:`QueryMatch` objects only for the sequences
that survive, so results are identical to the legacy per-sequence path
while the hot loop disappears.  Materialization stays on columns up to
the objects themselves: the answer order is one ``np.lexsort`` over
``(grade, total deviation, id)``, names come from one bulk
``SequenceDatabase.names_of`` lookup, and every match whose deviation
amounts are equal bit for bit shares one frozen tuple of
:class:`DimensionDeviation` records.

When the database's store is sharded (:mod:`repro.engine.sharding`) the
per-store stages — columnar prefilter and vectorized grading — are
*scattered*: each shard runs the stage over its own columns and the
per-shard outputs are gathered and merged (candidate unions, verdict
concatenation in ascending id order) before grading materializes.  The
index probe runs once, against the database-wide indexes.  The base
executor scatters serially; :class:`repro.engine.parallel.ParallelExecutor`
overrides :meth:`QueryExecutor._scatter` with a thread pool — results
are collected by shard position, so answers are identical for any
worker count, any shard count, and the single unsharded store.

Top-k plans (``plan.topk`` set) scatter the pruned search itself: each
shard runs sketch-bound → seed-refine → bounded-refine over its own
profile index (:mod:`repro.engine.clustering`) and returns its partial
top-k as a sorted match list; the executor merges the
partials by :meth:`QueryMatch.sort_key` — ``(grade, deviation, id)``,
so ties break on ascending sequence id — and cuts the merged list at
``plan.limit``.  Plans with ``limit`` but no ``topk`` stage simply
truncate their sorted matches.  Cached limited answers are repaired by
a *heap patch*: dirty ids are re-graded, survivors keep their order,
and the patched list is provably exact whenever the old k-th boundary
still covers ``limit`` candidates — otherwise the pruned search re-runs
(a bounded *re-fill*, counted by the cache as ``topk_refills``).
"""

from __future__ import annotations

import bisect
import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.tolerance import (
    EXACT_EPSILON,
    WITHIN_EPSILON,
    DimensionDeviation,
    MatchGrade,
)
from repro.engine.cache import PlanResultCache
from repro.engine.plan import DimensionColumn, QueryPlan, VectorVerdicts
from repro.engine.snapshot import SnapshotMoved, SnapshotToken
from repro.query.results import QueryMatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.columnar import ColumnarSegmentStore
    from repro.query.database import SequenceDatabase
    from repro.query.queries import Query

__all__ = ["QueryPlanner", "QueryExecutor"]


class QueryPlanner:
    """Turns queries into staged plans.

    For a human-readable account of what a query will do, use
    ``SequenceDatabase.explain``, which renders ``plan(...).describe()``
    plus the result cache's verdict.
    """

    def plan(self, query: "Query", database: "SequenceDatabase") -> QueryPlan:
        return query.plan(database)


_SNAPSHOT_ATTEMPTS = 5
_SNAPSHOT_BACKOFF_S = 0.0005


def _mutation_seq(database: "SequenceDatabase") -> "int | None":
    """The database-level mutation seqlock, ``None`` for duck-typed dbs."""
    seq = getattr(database, "mutation_seq", None)
    return seq if isinstance(seq, int) else None


# A deferred cache write: built while an attempt runs, executed only
# after the attempt's snapshot validated — so a torn read can never
# poison the plan-result cache.
CacheCommit = Callable[[], None]


class QueryExecutor:
    """Runs a staged plan and returns graded, sorted matches.

    Reads are snapshot-isolated (MVCC-lite): each attempt pins the
    store's per-shard generation vector and write seqlocks up front,
    validates them at scatter time and again after grading, and retries
    against a fresh pin when a concurrent writer moved any shard —
    never returning (or caching) torn results.  After
    ``_SNAPSHOT_ATTEMPTS`` collisions the read falls back to running
    under the database's ``mutation_lock``, which cannot starve.
    """

    def __init__(self) -> None:
        self._queries = 0
        self._snapshot_retries = 0
        self._locked_fallbacks = 0

    def stats(self) -> "dict[str, object]":
        """Executor telemetry for ``storage_report()["executor"]``."""
        return {
            "backend": "serial",
            "queries": self._queries,
            "snapshot_retries": self._snapshot_retries,
            "locked_fallbacks": self._locked_fallbacks,
        }

    def execute(
        self,
        database: "SequenceDatabase",
        plan: QueryPlan,
        include_approximate: bool = True,
        cache: "PlanResultCache | None" = None,
    ) -> "list[QueryMatch]":
        """Run the plan's stages; consult ``cache`` around them if given.

        With a cache and a fingerprinted plan, a hit at the database's
        current cache epoch (store generation + pipeline config) returns
        the remembered matches without touching a single stage.  A
        *stale* hit — same pipeline config, moved data generation — is
        **delta-revalidated**: the store's mutation journal names the
        ids touched since the entry's generation vector, the plan's
        stages re-run over that dirty set only
        (:meth:`run_stages_subset`) and the cached verdicts are patched
        in place, byte-identical to a cold re-run.  When the journal
        has compacted past the entry (or config changed), the stages
        run in full and the answer is remembered at the new epoch.
        """
        self._queries += 1
        attempts = 0
        while True:
            pinned_seq = _mutation_seq(database)
            token = SnapshotToken.pin(database.store)
            unsettled = (token is not None and not token.settled) or (
                pinned_seq is not None and pinned_seq % 2 == 1
            )
            if unsettled:
                attempts += 1
                if attempts <= _SNAPSHOT_ATTEMPTS:
                    time.sleep(_SNAPSHOT_BACKOFF_S)
                    continue
                return self._execute_locked(database, plan, include_approximate, cache)
            try:
                matches, commit = self._attempt(
                    database, plan, include_approximate, cache, token
                )
            except SnapshotMoved:
                self._snapshot_retries += 1
                attempts += 1
                if attempts <= _SNAPSHOT_ATTEMPTS:
                    continue
                return self._execute_locked(database, plan, include_approximate, cache)
            except Exception:
                # A stage tripping over a concurrently mutated store can
                # raise anything; only swallow it when the snapshot
                # provably moved — the store generation shifted or the
                # database seqlock ticked (a mutator touched the side
                # indexes even if the store bump hasn't landed yet).  A
                # genuine stage bug stays loud.
                if self._view_moved(database, token, pinned_seq):
                    self._snapshot_retries += 1
                    attempts += 1
                    if attempts <= _SNAPSHOT_ATTEMPTS:
                        continue
                    return self._execute_locked(
                        database, plan, include_approximate, cache
                    )
                raise
            if self._view_moved(database, token, pinned_seq):
                self._snapshot_retries += 1
                attempts += 1
                if attempts <= _SNAPSHOT_ATTEMPTS:
                    continue
                return self._execute_locked(database, plan, include_approximate, cache)
            if commit is not None:
                commit()
            return matches

    @staticmethod
    def _view_moved(
        database: "SequenceDatabase",
        token: "SnapshotToken | None",
        pinned_seq: "int | None",
    ) -> bool:
        """Did the pinned view (store generations + db seqlock) move?"""
        if pinned_seq is not None and _mutation_seq(database) != pinned_seq:
            return True
        return token is not None and bool(token.moved(database.store))

    def _execute_locked(
        self,
        database: "SequenceDatabase",
        plan: QueryPlan,
        include_approximate: bool,
        cache: "PlanResultCache | None",
    ) -> "list[QueryMatch]":
        """Starvation-proof fallback: run one attempt under the writer lock.

        With the database's ``mutation_lock`` held no writer can move
        the store mid-read, so no snapshot validation is needed (and
        the commit is safe).  Duck-typed databases without the lock run
        unprotected, which matches their pre-snapshot behaviour.
        """
        self._locked_fallbacks += 1
        lock = getattr(database, "mutation_lock", None)
        if lock is None:
            matches, commit = self._attempt(
                database, plan, include_approximate, cache, None
            )
            if commit is not None:
                commit()
            return matches
        with lock:
            matches, commit = self._attempt(
                database, plan, include_approximate, cache, None
            )
            if commit is not None:
                commit()
            return matches

    def _attempt(
        self,
        database: "SequenceDatabase",
        plan: QueryPlan,
        include_approximate: bool,
        cache: "PlanResultCache | None",
        snapshot: "SnapshotToken | None",
    ) -> "tuple[list[QueryMatch], CacheCommit | None]":
        """One uncommitted evaluation against a pinned snapshot.

        Returns the matches plus a deferred cache commit (``None`` for
        uncached runs and cache hits); the caller validates the
        snapshot before running the commit.
        """
        if cache is not None and plan.fingerprint is not None:
            key = (plan.fingerprint, bool(include_approximate))
            if plan.limit is not None:
                # Limited plans cache the *truncated* list, so the same
                # query at a different k is a different entry.  Unlimited
                # plans keep the historical two-element key shape.
                key = key + (plan.limit,)
            generation = database.cache_epoch()
            cached = cache.lookup(key, generation)
            if cached is not None:
                return cached, None
            stale = cache.stale_entry(key, generation)
            if stale is not None:
                revalidated = self._revalidate(
                    database, plan, include_approximate, cache, key, generation,
                    stale, snapshot,
                )
                if revalidated is not None:
                    return revalidated
            matches = self._run_plan(database, plan, include_approximate, snapshot)
            vector = database.store.generation_vector()

            def commit() -> None:
                cache.store(key, generation, matches, vector=vector)

            return matches, commit
        return self._run_plan(database, plan, include_approximate, snapshot), None

    def _run_plan(
        self,
        database: "SequenceDatabase",
        plan: QueryPlan,
        include_approximate: bool,
        snapshot: "SnapshotToken | None" = None,
    ) -> "list[QueryMatch]":
        """Run every stage and apply the plan's ``limit`` truncation.

        The per-shard top-k stage already bounds each partial list at
        ``limit``, but the merged gather can hold up to ``shards *
        limit`` matches — the cut here is what makes the scattered
        answer identical to a single-store run.
        """
        matches = self._run_stages(database, plan, include_approximate, snapshot=snapshot)
        if plan.limit is not None:
            matches = matches[: plan.limit]
        return matches

    @staticmethod
    def revalidation_plan(
        database: "SequenceDatabase", stale: tuple, generation: tuple
    ) -> "tuple[str, tuple | None]":
        """How a stale cache entry would be refreshed — the one place
        the eligibility rules live, shared by :meth:`_revalidate` and
        ``SequenceDatabase.explain`` so the reported verdict always
        matches what an evaluation actually does.

        Returns one of:

        * ``("recompute", None)`` — the pipeline config changed (per-
          sequence verdicts may have moved without a journal entry);
          the entry is simply replaced by a fresh run.
        * ``("full", None)`` — the journal compacted past the entry's
          baseline, or the dirty set is so large a fraction of the
          store that a subset re-grade plus patch would cost more than
          starting over; full re-grade, refreshed in place (a *delta
          fallback*).
        * ``("delta", (live_dirty, dirty))`` — a journal replay is both
          possible and worthwhile; ``live_dirty`` is the sorted list of
          still-live ids to re-grade, ``dirty`` the full touched set.
        """
        old_epoch, __, old_vector = stale
        # cache_epoch() = (data generation, *pipeline config): only the
        # data part may differ for a journal replay to be sound.
        if old_vector is None or old_epoch[1:] != generation[1:]:
            return ("recompute", None)
        dirty = database.store.dirty_ids_since(old_vector)
        if dirty is None:
            return ("full", None)
        live_dirty = sorted(
            sequence_id for sequence_id in dirty if sequence_id in database
        )
        if live_dirty and 4 * len(live_dirty) > len(database):
            return ("full", None)
        return ("delta", (live_dirty, dirty))

    def _revalidate(
        self,
        database: "SequenceDatabase",
        plan: QueryPlan,
        include_approximate: bool,
        cache: "PlanResultCache",
        key: tuple,
        generation: tuple,
        stale: tuple,
        snapshot: "SnapshotToken | None" = None,
    ) -> "tuple[list[QueryMatch], CacheCommit] | None":
        """Repair a stale cached answer via the mutation journal.

        Returns the patched (or fallback-recomputed) match list plus a
        deferred cache commit, or ``None`` when the entry cannot be
        revalidated at all (see :meth:`revalidation_plan`) and the
        caller must recompute and store from scratch.  The commit runs
        only after the caller's snapshot validated, so a torn replay
        can never overwrite a healthy cache entry.
        """
        kind, payload = self.revalidation_plan(database, stale, generation)
        if kind == "recompute":
            return None
        __, old_matches, ___ = stale
        vector = database.store.generation_vector()
        if kind == "full":
            matches = self._run_plan(database, plan, include_approximate, snapshot)

            def commit_full() -> None:
                cache.revalidate(key, generation, vector, matches, dirty_count=None)

            return matches, commit_full
        live_dirty, dirty = payload
        fresh = (
            self.run_stages_subset(
                database, plan, live_dirty, include_approximate, snapshot=snapshot
            )
            if live_dirty
            else []
        )
        if plan.limit is not None:
            return self._patch_topk(
                database, plan, include_approximate, cache, key, generation,
                vector, old_matches, fresh, dirty, snapshot,
            )
        # The cached list is already in sort_key order and stays so with
        # the dirty ids filtered out.  Few fresh matches binary-insert
        # (no key recomputed per kept match — sort_key is unique per
        # sequence, so insertion points are unambiguous); many fresh
        # matches re-sort outright, which timsort does in near-linear
        # time on the two pre-sorted runs.
        patched = [match for match in old_matches if match.sequence_id not in dirty]
        if len(fresh) * 16 >= len(patched) + 1:
            patched.extend(fresh)
            patched.sort(key=QueryMatch.sort_key)
        else:
            for match in fresh:
                bisect.insort(patched, match, key=QueryMatch.sort_key)

        def commit_delta() -> None:
            cache.revalidate(
                key, generation, vector, patched, dirty_count=len(dirty),
                patched_from=(old_matches, dirty),
            )

        return patched, commit_delta

    def _patch_topk(
        self,
        database: "SequenceDatabase",
        plan: QueryPlan,
        include_approximate: bool,
        cache: "PlanResultCache",
        key: tuple,
        generation: tuple,
        vector: tuple,
        old_matches: "tuple[QueryMatch, ...]",
        fresh: "list[QueryMatch]",
        dirty: "set[int]",
        snapshot: "SnapshotToken | None" = None,
    ) -> "tuple[list[QueryMatch], CacheCommit]":
        """Patch a cached *top-k* answer after a journal replay.

        A limited entry only remembers the k best matches, so unlike the
        unlimited patch it cannot always be repaired from cached state:
        a match that was k+1-th at store time was never cached, and if
        the k-th best has worsened it may now belong in the answer.
        The patch is provably exact in two cases:

        * the stale list held fewer than ``limit`` matches — it was the
          *complete* qualifying set, so survivors plus the re-graded
          dirty ids are again complete;
        * at least ``limit`` candidates (survivors + fresh) sort at or
          inside the stale k-th boundary — every uncached match sorted
          strictly outside that boundary (sort keys are unique per
          sequence), so the top ``limit`` of the candidates are the top
          ``limit`` overall.

        Otherwise the pruned search re-runs in full — a bounded
        *re-fill*, recorded by the cache as a ``topk_refill`` on top of
        the delta outcome.
        """
        limit = plan.limit
        survivors = [
            match for match in old_matches if match.sequence_id not in dirty
        ]
        combined = sorted(survivors + fresh, key=QueryMatch.sort_key)
        if len(old_matches) < limit:
            matches = combined[:limit]

            def commit_patch() -> None:
                cache.revalidate(
                    key, generation, vector, matches, dirty_count=len(dirty)
                )

            return matches, commit_patch
        boundary = old_matches[-1].sort_key()
        qualified = sum(1 for match in combined if match.sort_key() <= boundary)
        if qualified >= limit:
            patched = combined[:limit]

            def commit_boundary() -> None:
                cache.revalidate(
                    key, generation, vector, patched, dirty_count=len(dirty)
                )

            return patched, commit_boundary
        refilled = self._run_plan(database, plan, include_approximate, snapshot)

        def commit_refill() -> None:
            cache.revalidate(
                key, generation, vector, refilled, dirty_count=len(dirty), refill=True
            )

        return refilled, commit_refill

    def run_stages_subset(
        self,
        database: "SequenceDatabase",
        plan: QueryPlan,
        sequence_ids: "list[int]",
        include_approximate: bool = True,
        snapshot: "SnapshotToken | None" = None,
    ) -> "list[QueryMatch]":
        """Run the plan's prefilter/grade stages over ``sequence_ids`` only.

        The delta-revalidation workhorse: exactly the matches a full
        run would produce *for those ids* — the probe (if any) still
        runs and its candidate set is intersected with the subset, so
        probe/grade boundary behaviour is identical to the cold path.
        Every id must be live.
        """
        subset = sorted(int(sequence_id) for sequence_id in sequence_ids)
        if not subset:
            return []
        return self._run_stages(
            database, plan, include_approximate, subset=subset, snapshot=snapshot
        )

    def _scatter(self, tasks: "list[Callable[[], object]]") -> "list[object]":
        """Run per-shard stage tasks; results align with ``tasks``.

        The serial base implementation; the parallel executor overrides
        this with a worker pool.  Order is the merge contract: the
        result list must line up with the task list position by
        position, which is what keeps scatter-gather deterministic.
        """
        return [task() for task in tasks]

    def _scatter_stages(
        self,
        database: "SequenceDatabase",
        plan: QueryPlan,
        shards: "tuple[ColumnarSegmentStore, ...]",
        parts: "list[list[int] | None]",
        snapshot: "SnapshotToken | None",
    ) -> "list[object]":
        """Run the per-store stages for every shard; results align with
        ``shards`` position by position.

        The base form wraps each shard's stage slice in a thunk and
        hands the list to :meth:`_scatter` (serial here, a thread pool
        in :class:`~repro.engine.parallel.ParallelExecutor`); the
        process executor overrides this whole hook because closures
        over the live store do not cross process boundaries.
        """
        tasks = [
            self._shard_task(database, plan, shard, shard_candidates)
            for shard, shard_candidates in zip(shards, parts)
        ]
        return self._scatter(tasks)

    def _run_stages(
        self,
        database: "SequenceDatabase",
        plan: QueryPlan,
        include_approximate: bool,
        subset: "list[int] | None" = None,
        snapshot: "SnapshotToken | None" = None,
    ) -> "list[QueryMatch]":
        store = database.store
        if snapshot is not None:
            snapshot.validate(store)
        whole_shard = plan.topk if plan.topk is not None else plan.collect
        if whole_shard is not None and subset is None:
            # The pruned search (and likewise a motif collect) runs
            # whole-shard — its per-shard index owns the shard's rows —
            # so it scatters as its own stage; subset re-grades fall
            # through to the residual path below, which is exactly what
            # the cache patch needs.
            tasks = [
                self._topk_task(database, whole_shard, shard, include_approximate)
                for shard in store.shards()
            ]
            results = self._scatter(tasks)
            merged = [match for partial in results for match in partial]
            merged.sort(key=QueryMatch.sort_key)
            return merged
        candidates = plan.probe(database) if plan.probe is not None else None
        if subset is not None:
            if candidates is None:
                candidates = subset
            else:
                allowed = set(subset)
                candidates = [
                    sequence_id for sequence_id in candidates if sequence_id in allowed
                ]
        shards = store.shards()
        if len(shards) > 1 and (plan.prefilter is not None or plan.vector_filter is not None):
            parts = store.partition_ids(candidates)
            if snapshot is not None:
                # Scatter-time check: the pin must still hold per shard
                # before any worker reads shard state.
                snapshot.validate(store)
            results = self._scatter_stages(database, plan, shards, parts, snapshot)
            if plan.vector_filter is not None:
                merged = self._merge_verdicts(results)
                return self._materialize(database, merged, include_approximate)
            # Prefilter-only plans gather the per-shard survivor lists
            # into one ascending candidate list for residual grading.
            candidates = sorted(
                sequence_id for survivors in results for sequence_id in survivors
            )
        else:
            leaf = shards[0]
            if plan.prefilter is not None:
                candidates = plan.prefilter(database, leaf, candidates)
            if plan.vector_filter is not None:
                verdicts = plan.vector_filter(database, leaf, candidates)
                return self._materialize(database, verdicts, include_approximate)
        ids = database.ids() if candidates is None else candidates
        matches = []
        for sequence_id in ids:
            match = plan.residual(database, sequence_id)
            if match.is_exact or (
                include_approximate and match.grade.value == "approximate"
            ):
                matches.append(match)
        return sorted(matches, key=QueryMatch.sort_key)

    @staticmethod
    def _topk_task(
        database: "SequenceDatabase",
        stage: "Callable[..., object]",
        shard: "ColumnarSegmentStore",
        include_approximate: bool,
    ) -> "Callable[[], object]":
        """One shard's whole-shard stage (top-k or collect), as a thunk."""

        def run() -> object:
            return stage(database, shard, include_approximate)

        return run

    @staticmethod
    def _shard_task(
        database: "SequenceDatabase",
        plan: QueryPlan,
        shard: "ColumnarSegmentStore",
        shard_candidates: "list[int] | None",
    ) -> "Callable[[], object]":
        """One shard's slice of the per-store stages, as a thunk."""

        def run() -> object:
            local = shard_candidates
            if plan.prefilter is not None:
                local = plan.prefilter(database, shard, local)
            if plan.vector_filter is not None:
                return plan.vector_filter(database, shard, local)
            return local

        return run

    @staticmethod
    def _merge_verdicts(results: "list[object]") -> VectorVerdicts:
        """Gather per-shard verdicts into one ascending-id verdict set.

        Every shard grades the same dimensions with the same bounds
        (they run the same stage), so merging is a concatenation per
        column; sorting by sequence id reproduces the exact array order
        the single-store stage would have produced.
        """
        verdicts: "list[VectorVerdicts]" = list(results)
        ids = np.concatenate([v.sequence_ids for v in verdicts])
        order = np.argsort(ids, kind="stable")
        dimensions = tuple(
            DimensionColumn(
                dim.dimension,
                np.concatenate([v.dimensions[d].amounts for v in verdicts])[order],
                dim.bound,
            )
            for d, dim in enumerate(verdicts[0].dimensions)
        )
        return VectorVerdicts(ids[order], dimensions)

    def _materialize(
        self,
        database: "SequenceDatabase",
        verdicts: VectorVerdicts,
        include_approximate: bool,
    ) -> "list[QueryMatch]":
        """Grade verdict columns and build the kept rows' matches.

        Everything but the final objects happens on columns: the
        grading mask, the :meth:`QueryMatch.sort_key` order as one
        ``lexsort`` over ``(inexact, total, id)`` — ``total`` adds the
        amount columns left to right from zeros, which is
        :attr:`QueryMatch.total_deviation`'s ``sum`` bit for bit for the
        one or two dimensions a plan grades — one ``tolist`` per column
        and one bulk name lookup.  Rows with the same deviation amounts
        (keyed on their float64 bit patterns, so ``-0.0`` and ``0.0``
        stay apart) share one frozen tuple of
        :class:`DimensionDeviation` records; dimensionless answers share
        ``()``.
        """
        n = len(verdicts.sequence_ids)
        within = np.ones(n, dtype=bool)
        exact = np.ones(n, dtype=bool)
        for dim in verdicts.dimensions:
            within &= dim.amounts <= dim.bound + WITHIN_EPSILON
            exact &= dim.amounts <= EXACT_EPSILON
        keep = within & (exact | include_approximate)
        ids = verdicts.sequence_ids[keep]
        inexact = ~exact[keep]
        columns = [dim.amounts[keep] for dim in verdicts.dimensions]
        total = np.zeros(len(ids))
        for column in columns:
            total = total + column
        order = np.lexsort((ids, total, inexact))
        ordered_ids = ids[order].tolist()
        names = database.names_of(ordered_ids)
        grades = [
            MatchGrade.APPROXIMATE if flag else MatchGrade.EXACT
            for flag in inexact[order].tolist()
        ]
        shared: "list[tuple[DimensionDeviation, ...]]"
        if columns:
            ordered = [column[order] for column in columns]
            keys = zip(*(column.view(np.int64).tolist() for column in ordered))
            rows = zip(*(column.tolist() for column in ordered))
            memo: "dict[tuple[int, ...], tuple[DimensionDeviation, ...]]" = {}
            shared = []
            for key, row in zip(keys, rows):
                deviations = memo.get(key)
                if deviations is None:
                    deviations = memo[key] = tuple(
                        DimensionDeviation(dim.dimension, amount, dim.bound)
                        for dim, amount in zip(verdicts.dimensions, row)
                    )
                shared.append(deviations)
        else:
            shared = [()] * len(ordered_ids)
        return [
            QueryMatch(sequence_id, name, grade, deviations)
            for sequence_id, name, grade, deviations in zip(ordered_ids, names, grades, shared)
        ]
