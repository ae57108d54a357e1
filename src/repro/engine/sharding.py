"""Horizontal partitioning of the columnar store.

The representation is embarrassingly partitionable by sequence: every
query stage grades each sequence against its own rows only, so the
store can be split into N independent :class:`ColumnarSegmentStore`
shards and every stage can run per shard and merge — the scatter-gather
shape of the BrainEx-style partitioned in-memory engines.

Routing is hash-by-sequence-id (``sequence_id % n_shards``); the
database assigns monotonically increasing ids, so the modulus deals
consecutive sequences round-robin across shards and keeps every shard's
id column strictly increasing, preserving each shard's binary-search
lookup invariant.  Each shard keeps its own ``generation`` mutation
counter; the sharded store rolls them up into a single monotone token
that the plan-result cache folds into its epoch, so a mutation on any
shard invalidates cached answers exactly like a single-store mutation
would.

Batch :meth:`ShardedSegmentStore.extend` groups the batch by shard and
appends one whole column block per shard — the ingest pipeline's
append path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence as TypingSequence

import numpy as np

from repro.core.errors import EngineError
from repro.engine.columnar import ColumnarSegmentStore, stack_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Any

    from repro.core.representation import FunctionSeriesRepresentation
    from repro.engine.shm import SharedMemoryArena

__all__ = ["ShardedSegmentStore"]


class ShardedSegmentStore:
    """N independent columnar shards behind the single-store interface.

    Sequence-scoped reads route to the owning shard; whole-store scans
    (query stages, ``scan_rr``) iterate :meth:`shards` and merge.  The
    mutation API (``insert``/``extend``/``delete``) and the integrity
    checker mirror :class:`ColumnarSegmentStore`, so the database and
    the executor treat both interchangeably; ``shards()`` /
    ``partition_ids()`` are the only operations the scatter-gather
    executor needs.
    """

    def __init__(
        self,
        n_shards: int,
        theta: float = 0.0,
        arena: "SharedMemoryArena | None" = None,
        symbol_backend: str = "uncompressed",
    ) -> None:
        if n_shards < 1:
            raise EngineError(f"need at least one shard, got {n_shards}")
        self.theta = float(theta)
        self.symbol_backend = symbol_backend
        self._shards = tuple(
            ColumnarSegmentStore(
                theta=theta,
                arena=arena,
                label=f"s{index}",
                symbol_backend=symbol_backend,
            )
            for index in range(int(n_shards))
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shards(self) -> "tuple[ColumnarSegmentStore, ...]":
        """The leaf column stores, in shard order."""
        return self._shards

    def shard_index(self, sequence_id: int) -> int:
        """Which shard owns a sequence id (hash-by-id routing)."""
        return int(sequence_id) % len(self._shards)

    def shard_of(self, sequence_id: int) -> ColumnarSegmentStore:
        return self._shards[self.shard_index(sequence_id)]

    def partition_ids(
        self, candidate_ids: "TypingSequence[int] | np.ndarray | None"
    ) -> "list[list[int] | None]":
        """Candidate ids split per shard, aligned with :meth:`shards`.

        ``None`` (scan everything) stays ``None`` for every shard; a
        concrete candidate list is routed by id, preserving the callers'
        relative order within each shard.
        """
        if candidate_ids is None:
            return [None] * len(self._shards)
        parts: "list[list[int]]" = [[] for _ in self._shards]
        n = len(self._shards)
        for sequence_id in candidate_ids:
            parts[int(sequence_id) % n].append(int(sequence_id))
        return list(parts)

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, sequence_id: int) -> bool:
        return sequence_id in self.shard_of(sequence_id)

    @property
    def n_sequences(self) -> int:
        return sum(shard.n_sequences for shard in self._shards)

    @property
    def n_segments(self) -> int:
        return sum(shard.n_segments for shard in self._shards)

    @property
    def n_rr(self) -> int:
        return sum(shard.n_rr for shard in self._shards)

    @property
    def n_behavior(self) -> int:
        return sum(shard.n_behavior for shard in self._shards)

    @property
    def nbytes(self) -> int:
        return sum(shard.nbytes for shard in self._shards)

    @property
    def generation(self) -> int:
        """Rolled-up mutation counter: the sum of every shard's counter.

        Each shard's generation is monotone, so the sum is a monotone
        token that changes whenever *any* shard mutates — exactly the
        invalidation contract the plan-result cache epoch needs.
        """
        return sum(shard.generation for shard in self._shards)

    def generation_vector(self) -> "tuple[int, ...]":
        """Per-shard generations, in shard order — the precise baseline
        delta revalidation replays each shard's journal from."""
        return tuple(shard.generation for shard in self._shards)

    def dirty_ids_since(self, vector: "tuple[int, ...]") -> "set[int] | None":
        """Union of every shard's dirty ids since the baseline vector.

        ``None`` as soon as any shard's journal has compacted past its
        baseline (or the vector's shard count disagrees) — partial
        dirty sets are useless, the caller must recompute everything.
        """
        if len(vector) != len(self._shards):
            return None
        dirty: "set[int]" = set()
        for shard, baseline in zip(self._shards, vector):
            shard_dirty = shard.dirty_ids_since((int(baseline),))
            if shard_dirty is None:
                return None
            dirty |= shard_dirty
        return dirty

    def read_token(self) -> "tuple[int, ...]":
        """Per-shard write seqlocks, aligned with :meth:`generation_vector`."""
        return tuple(shard.read_token()[0] for shard in self._shards)

    def shm_manifests(self) -> "list[dict[str, Any] | None]":
        """Per-shard worker attachment manifests (``None`` = heap-backed)."""
        return [shard.shm_manifest() for shard in self._shards]

    def journal_stats(self) -> dict:
        """Aggregated journal counters across every shard."""
        per_shard = [shard.journal_stats() for shard in self._shards]
        return {
            "entries": sum(stats["entries"] for stats in per_shard),
            "bytes": sum(stats["bytes"] for stats in per_shard),
            "floor": max(stats["floor"] for stats in per_shard),
            "compactions": sum(stats["compactions"] for stats in per_shard),
        }

    def cluster_report(self) -> dict:
        """Aggregated cluster-index telemetry across every shard.

        Counters sum; ``last_pruned_fraction`` is recomputed from the
        shards' last-query row/refine totals, so it describes the last
        scattered query as a whole rather than averaging per-shard
        ratios with different weights.
        """
        per_shard = [shard.cluster_report() for shard in self._shards]
        summed = {
            key: sum(report[key] for report in per_shard)
            for key in (
                "sequences", "representatives", "builds", "rebuilds",
                "stale_mutations", "nbytes", "queries", "clusters_probed",
                "clusters_pruned", "members_pruned", "candidates_refined",
                "early_abandoned", "last_rows_considered",
                "last_candidates_refined",
            )
        }
        last_rows = summed["last_rows_considered"]
        last_refined = summed["last_candidates_refined"]
        summed["built"] = any(report["built"] for report in per_shard)
        summed["last_pruned_fraction"] = (
            1.0 - last_refined / last_rows if last_rows else 0.0
        )
        return summed

    def succinct_report(self) -> dict:
        """Aggregated succinct-index telemetry across every shard.

        Counters sum; ``bits_per_symbol`` is recomputed from the summed
        matrix footprints so it describes the whole store rather than
        averaging per-shard ratios with different weights.
        """
        per_shard = [shard.succinct_report() for shard in self._shards]
        summed = {
            key: sum(report[key] for report in per_shard)
            for key in (
                "symbols", "rank_blocks", "nbytes", "builds", "rebuilds",
                "patches", "overlay_entries", "stale_mutations", "queries",
            )
        }
        summed["built"] = any(report["built"] for report in per_shard)
        weighted_bits = sum(
            report["bits_per_symbol"] * report["symbols"] for report in per_shard
        )
        summed["bits_per_symbol"] = (
            weighted_bits / summed["symbols"] if summed["symbols"] else 0.0
        )
        summed["backend"] = self.symbol_backend
        return summed

    @property
    def sequence_ids(self) -> np.ndarray:
        """All live sequence ids, ascending (materialized per call)."""
        parts = [shard.sequence_ids for shard in self._shards if len(shard)]
        if not parts:
            return np.empty(0, dtype=np.int64)
        merged = np.concatenate(parts)
        merged.sort()
        return merged

    # ------------------------------------------------------------------
    # Sequence-scoped reads (routed to the owning shard)
    # ------------------------------------------------------------------

    def peak_count_of(self, sequence_id: int) -> int:
        return self.shard_of(sequence_id).peak_count_of(sequence_id)

    def rr_intervals_of(self, sequence_id: int) -> np.ndarray:
        return self.shard_of(sequence_id).rr_intervals_of(sequence_id)

    def symbols_of(self, sequence_id: int, collapse_runs: bool = False) -> str:
        return self.shard_of(sequence_id).symbols_of(sequence_id, collapse_runs=collapse_runs)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(
        self,
        sequence_id: int,
        representation: "FunctionSeriesRepresentation",
        *,
        peak_count: int,
        rr: "np.ndarray | TypingSequence[float]",
    ) -> None:
        """Append one sequence's columns to its owning shard."""
        self.extend([(sequence_id, representation, peak_count, rr)])

    def extend(
        self,
        items: "Iterable[tuple[int, FunctionSeriesRepresentation, int, np.ndarray]]",
    ) -> None:
        """Append a batch as one whole column block per touched shard.

        Items must arrive in strictly increasing id order and above
        every live id, matching the single store's append-only contract;
        the batch is routed by id and each shard's arrays grow at most
        once.
        """
        batch = list(items)
        if not batch:
            return
        last = -1
        for shard in self._shards:
            if len(shard):
                last = max(last, int(shard.sequence_ids[-1]))
        groups: "dict[int, list]" = {}
        for item in batch:
            sequence_id = int(item[0])
            if sequence_id <= last:
                raise EngineError(
                    f"sequence ids must be inserted in increasing order "
                    f"({sequence_id} after {last})"
                )
            last = sequence_id
            groups.setdefault(self.shard_index(sequence_id), []).append(item)
        for shard_index, group in groups.items():
            self._shards[shard_index].extend(group)

    def replace(
        self,
        sequence_id: int,
        representation: "FunctionSeriesRepresentation",
        *,
        peak_count: int,
        rr: "np.ndarray | TypingSequence[float]",
    ) -> None:
        """Rewrite one live sequence's rows on its owning shard."""
        self.replace_many([(sequence_id, representation, peak_count, rr)])

    def replace_many(
        self,
        items: "Iterable[tuple[int, FunctionSeriesRepresentation, int, np.ndarray]]",
    ) -> None:
        """Rewrite many live sequences' rows, batched per owning shard.

        The whole batch is validated (every id live and unique) before
        any shard changes, then stacked once (:func:`stack_rows`: one
        slope classification and run collapse for all shards), and each
        touched shard splices its contiguous slice of the stack — one
        pass per column table, one generation bump and one ``"append"``
        journal entry per shard; untouched shards (and their cached
        per-shard stage outputs) are left entirely alone.
        """
        batch = list(items)
        if not batch:
            return
        ids = np.array([int(item[0]) for item in batch], dtype=np.int64)
        if len(np.unique(ids)) != len(ids):
            raise EngineError("duplicate sequence ids in replace batch")
        owners = np.array([self.shard_index(sequence_id) for sequence_id in ids.tolist()])
        groups = []
        for index in np.unique(owners).tolist():
            members = np.flatnonzero(owners == index)
            shard = self._shards[index]
            positions = shard.positions_of(ids[members])  # raises before any write
            order = np.argsort(positions, kind="stable")
            groups.append((shard, members[order], positions[order]))
        segments, behavior, rr, table = stack_rows(
            [batch[i] for __, members, __ in groups for i in members.tolist()], self.theta
        )
        item_lo = 0
        row_lo = {"segment": 0, "behavior": 0, "rr": 0}
        for shard, members, positions in groups:
            item_hi = item_lo + len(members)
            rows = {}
            for kind in row_lo:
                row_hi = row_lo[kind] + int(table[f"{kind}_count"][item_lo:item_hi].sum())
                rows[kind] = slice(row_lo[kind], row_hi)
                row_lo[kind] = row_hi
            shard.replace_stacked(
                positions,
                {name: column[rows["segment"]] for name, column in segments.items()},
                {name: column[rows["behavior"]] for name, column in behavior.items()},
                {name: column[rows["rr"]] for name, column in rr.items()},
                {name: column[item_lo:item_hi] for name, column in table.items()},
            )
            item_lo = item_hi

    def delete(self, sequence_id: int) -> None:
        """Drop one sequence from its owning shard (see :meth:`delete_many`)."""
        self.delete_many([sequence_id])

    def delete_many(self, sequence_ids: "TypingSequence[int] | np.ndarray") -> None:
        """Drop many sequences, one batched pass per touched shard.

        Ids are grouped by owning shard and each shard runs its own
        :meth:`ColumnarSegmentStore.delete_many` — one column
        compaction and one ``generation`` bump per touched shard, so
        the rolled-up generation (and with it the result-cache epoch)
        moves once per shard instead of once per id.  Untouched shards
        are left entirely alone.
        """
        groups: "dict[int, list[int]]" = {}
        missing = []
        for sequence_id in sequence_ids:
            sequence_id = int(sequence_id)
            if sequence_id not in self:
                missing.append(sequence_id)
            groups.setdefault(self.shard_index(sequence_id), []).append(sequence_id)
        if missing:
            # Validate the whole batch up front so a bad id deletes
            # nothing from any shard.
            raise EngineError(f"sequences {sorted(set(missing))} not in columnar store")
        for shard_index, ids in groups.items():
            self._shards[shard_index].delete_many(ids)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Verify every shard's columns plus the id→shard routing."""
        for index, shard in enumerate(self._shards):
            shard.check_consistency()
            ids = shard.sequence_ids
            misrouted = ids[ids % len(self._shards) != index]
            if len(misrouted):
                raise EngineError(
                    f"sequences {misrouted.tolist()} stored in shard {index}, "
                    f"which does not own them"
                )
