"""Columnar storage of every ingested representation.

The per-sequence object form (:class:`FunctionSeriesRepresentation`
holding :class:`Segment` instances) is right for construction and for
per-sequence inspection, but evaluating a query against it means a
Python loop over sequences and a second loop over segments.  The
:class:`ColumnarSegmentStore` keeps the *same* information stacked
column-wise in contiguous NumPy arrays, so a query over the whole
database becomes a handful of vectorized predicates:

* **segment columns** — one row per stored segment (start/end indices,
  start/end points, mean slope, slope-sign symbol code) plus the owning
  sequence id;
* **behaviour columns** — one row per run-collapsed slope-sign symbol
  (consecutive identical symbols merged), the collapsed view pattern
  queries are written against;
* **R-R columns** — one row per inter-peak interval;
* **sequence columns** — one row per live sequence: the offset table
  (``sequence_id → row range``) into the segment, behaviour and R-R
  columns, plus per-sequence scalars (peak count, steepest rising
  slope, source length) that the vectorized query filters consume
  directly.

Symbol codes follow :data:`~repro.core.representation.SYMBOL_CODES`: ``+1`` for rising (slope >
theta), ``-1`` for falling (slope < -theta), ``0`` for flat — the
paper's Section 4.4 classification applied column-wise, byte-identical
to :func:`repro.core.representation.symbols_from_slopes` on the same
slopes.  The vectorized pattern stage (:mod:`repro.engine.nfa`) runs
transition tables directly over these ``int8`` columns.

The store is kept in sync with the database on ``insert``/``delete``:
inserts append (amortized via capacity doubling, with a batch
:meth:`extend` for bulk ingest), deletes compact the columns in place so
vectorized scans never have to skip tombstones, and the streaming
append path splices a batch's rows in place, one multi-range pass per
column table (:meth:`~ColumnarSegmentStore.replace_many`).
Every mutation bumps :attr:`~ColumnarSegmentStore.generation` *and*
records the touched sequence ids in the store's
:class:`~repro.engine.journal.MutationJournal`, so the plan-level
result cache (:mod:`repro.engine.cache`) can re-grade exactly the dirty
ids instead of discarding stale answers wholesale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence as TypingSequence

import numpy as np

from repro.core.errors import EngineError

# The classification rule and symbol rendering live in core; the store
# only stacks their output column-wise, so strings and columns can
# never disagree.
from repro.core.representation import classify_slopes, decode_symbols, run_start_mask
from repro.engine.journal import MutationJournal
from repro.engine.shm import BlockAttachments, SharedBlock, SharedMemoryArena

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.representation import FunctionSeriesRepresentation
    from repro.engine.clustering import ClusterIndex
    from repro.engine.succinct import SuccinctSymbolIndex

__all__ = [
    "ColumnarSegmentStore",
    "attach_from_manifest",
    "stack_rows",
    "collapse_code_runs",
    "SYMBOL_BACKENDS",
]

#: Storage strategies for the symbol views' query path: "uncompressed"
#: answers counting/position queries by scanning the int8 columns (the
#: byte-parity oracle), "succinct" maintains a rank/select wavelet
#: matrix (:mod:`repro.engine.succinct`) and answers them scan-free.
SYMBOL_BACKENDS = ("uncompressed", "succinct")

def collapse_code_runs(codes: np.ndarray) -> np.ndarray:
    """Merge consecutive identical symbol codes into behavioural runs."""
    if len(codes) == 0:
        return codes
    return codes[run_start_mask(codes)]


class _ColumnSet:
    """Named same-length NumPy columns with amortized append.

    Arrays are over-allocated and grown geometrically (capacity
    doubling), with :meth:`column` exposing a live-length view, so a
    single-row append costs amortized O(1) instead of one full-array
    rebuild per call; deletion compacts in place and shrinks the
    allocation once occupancy falls below a quarter, so capacity stays
    within a constant factor of the live rows in both directions.
    """

    def __init__(
        self,
        schema: "dict[str, type]",
        arena: "SharedMemoryArena | None" = None,
        label: str = "col",
    ) -> None:
        self._schema = dict(schema)
        self._arena = arena
        self._label = label
        self._blocks: "dict[str, SharedBlock]" = {}
        self._arrays = {name: np.empty(0, dtype=dtype) for name, dtype in schema.items()}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        """Allocated rows per column (live rows plus growth headroom)."""
        return len(next(iter(self._arrays.values())))

    @property
    def nbytes(self) -> int:
        """Allocated bytes across all columns, headroom included."""
        return sum(arr.nbytes for arr in self._arrays.values())

    def column(self, name: str) -> np.ndarray:
        """Writable view of one column trimmed to the live rows."""
        return self._arrays[name][: self._size]

    def _reallocate(self, new_capacity: int) -> None:
        arena = self._arena
        if arena is not None and arena.closed:
            arena = None  # heap fallback after the owning database closed
        for name, arr in self._arrays.items():
            if arena is not None:
                dtype = np.dtype(self._schema[name])
                block = arena.allocate(
                    new_capacity * dtype.itemsize, label=f"{self._label}.{name}"
                )
                resized = np.ndarray((new_capacity,), dtype=dtype, buffer=block.buf)
                resized[: self._size] = arr[: self._size]
                old_block = self._blocks.get(name)
                self._blocks[name] = block
                self._arrays[name] = resized
                if old_block is not None:
                    arena.retire(old_block)
            else:
                resized = np.empty(new_capacity, dtype=arr.dtype)
                resized[: self._size] = arr[: self._size]
                self._arrays[name] = resized

    def manifest(self) -> "dict[str, Any]":
        """Attachment manifest for worker processes: per column, the
        shared block's name (``None`` while empty) and dtype, plus the
        live row count and allocated capacity."""
        columns: "dict[str, tuple[str | None, str]]" = {}
        for name in self._schema:
            block = self._blocks.get(name)
            columns[name] = (
                block.name if block is not None else None,
                np.dtype(self._schema[name]).str,
            )
        return {"size": self._size, "capacity": self.capacity, "columns": columns}

    def extend(self, columns: "dict[str, np.ndarray]") -> None:
        if set(columns) != set(self._schema):
            raise EngineError(
                f"column mismatch: expected {sorted(self._schema)}, got {sorted(columns)}"
            )
        n_new = len(next(iter(columns.values())))
        if any(len(arr) != n_new for arr in columns.values()):
            raise EngineError("appended columns disagree in length")
        needed = self._size + n_new
        if needed > self.capacity:
            self._reallocate(max(needed, 2 * self.capacity, 16))
        for name, arr in columns.items():
            self._arrays[name][self._size : needed] = arr
        self._size = needed

    def splice(
        self, los: np.ndarray, his: np.ndarray, counts: np.ndarray, columns: "dict[str, np.ndarray]"
    ) -> None:
        """Replace each row range ``los[i]:his[i]`` by the next ``counts[i]``
        rows of ``columns``, for many ranges in one pass.

        The ranges must ascend and be disjoint.  Surviving rows are
        exactly what deleting every range and inserting each block at
        its range's start would leave.  Each kept gap between ranges
        moves once, by the net row change of the ranges before it (gaps
        that do not move are not touched), then each new block is
        written at its range's shifted start.  This is the streaming append
        path's primitive: a shard's appended sequences overwrite their
        old rows together, however many they are.
        """
        if columns.keys() != self._schema.keys():
            raise EngineError(
                f"column mismatch: expected {sorted(self._schema)}, got {sorted(columns)}"
            )
        n_new = len(next(iter(columns.values())))
        if any(len(arr) != n_new for arr in columns.values()):
            raise EngineError("replacement columns disagree in length")
        lo_list = np.asarray(los, dtype=np.int64).tolist()
        hi_list = np.asarray(his, dtype=np.int64).tolist()
        count_list = np.asarray(counts, dtype=np.int64).tolist()
        if not len(lo_list) == len(hi_list) == len(count_list) or sum(count_list) != n_new:
            raise EngineError("splice ranges, counts and replacement rows disagree")
        # The ranges are few (one per spliced sequence), so the plan is
        # laid out on Python ints: where each new block lands, and which
        # kept gaps move by how much.
        gap_ends = [*lo_list[1:], self._size]
        previous_hi = 0
        shift = 0
        block_at = 0
        writes = []
        moves = []
        for lo, hi, count, gap_end in zip(lo_list, hi_list, count_list, gap_ends):
            if not previous_hi <= lo <= hi <= self._size:
                raise EngineError(
                    f"row range [{lo}, {hi}) is out of order or outside live rows "
                    f"[0, {self._size})"
                )
            previous_hi = hi
            writes.append((lo + shift, block_at, block_at + count))
            block_at += count
            shift += count - (hi - lo)
            if shift and gap_end > hi:
                moves.append((hi, gap_end, shift))
        needed = self._size + shift
        # The kept rows after a range move by the row delta of every
        # range up to it.  Left-moving gaps go first to last and
        # right-moving ones last to first, so no gap is overwritten
        # before it has moved; gaps that do not move are not touched.
        moves = [move for move in moves if move[2] < 0] + [
            move for move in reversed(moves) if move[2] > 0
        ]
        if needed > self.capacity:
            self._reallocate(max(needed, 2 * self.capacity, 16))
        for name, arr in self._arrays.items():
            for lo, hi, move in moves:
                arr[lo + move : hi + move] = arr[lo:hi]
            block = columns[name]
            for at, block_lo, block_hi in writes:
                arr[at : at + block_hi - block_lo] = block[block_lo:block_hi]
        shrinking = needed < self._size
        self._size = needed
        if shrinking:
            self._maybe_shrink()

    def delete_where(self, drop: np.ndarray) -> None:
        """Remove every row flagged in the boolean ``drop`` mask.

        One compaction pass regardless of how many disjoint row ranges
        the mask covers; the surviving rows keep their order.
        """
        if len(drop) != self._size:
            raise EngineError(
                f"drop mask covers {len(drop)} rows, store has {self._size}"
            )
        keep = ~drop
        kept = int(keep.sum())
        if kept == self._size:
            return
        for arr in self._arrays.values():
            arr[:kept] = arr[: self._size][keep]
        self._size = kept
        self._maybe_shrink()

    def _maybe_shrink(self) -> None:
        # Occupancy hysteresis: shrink to 2x live rows at < 25%, so mass
        # deletion returns memory while delete/insert cycles never thrash.
        if self.capacity > 16 and self._size < self.capacity // 4:
            self._reallocate(max(2 * self._size, 16))


_SEGMENT_SCHEMA = {
    "sequence": np.int64,
    "start_index": np.int64,
    "end_index": np.int64,
    "start_time": np.float64,
    "end_time": np.float64,
    "start_value": np.float64,
    "end_value": np.float64,
    "slope": np.float64,
    "symbol": np.int8,
}

_BEHAVIOR_SCHEMA = {
    "sequence": np.int64,
    "symbol": np.int8,
}

_RR_SCHEMA = {
    "sequence": np.int64,
    "value": np.float64,
}

_SEQUENCE_SCHEMA = {
    "sequence_id": np.int64,
    "segment_start": np.int64,
    "segment_count": np.int64,
    "behavior_start": np.int64,
    "behavior_count": np.int64,
    "rr_start": np.int64,
    "rr_count": np.int64,
    "peak_count": np.int64,
    "max_rising_slope": np.float64,
    "source_length": np.int64,
}


def _joined(parts: "list[np.ndarray]") -> np.ndarray:
    """``np.concatenate(parts)``, without the copy when there is one part
    (the stacked blocks are only read before the store copies them)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def stack_rows(
    batch: "list[tuple[int, FunctionSeriesRepresentation, int, Any]]", theta: float
) -> "tuple[dict[str, np.ndarray], ...]":
    """A batch's rows, stacked in item order, before any column moves.

    Returns the segment, behaviour and R-R row blocks and the
    sequence-table columns without the ``*_start`` offsets, which
    the caller places, with symbols classified at ``theta``.  One
    concatenate per column, one slope classification, one run collapse
    and one per-sequence reduction cover the whole batch, so insert and
    append derive every stored value by the same expressions — and a
    sharded store stacks an append batch once for all its shards.
    Raises on a malformed payload.
    """
    n_batch = len(batch)
    ids = np.empty(n_batch, dtype=np.int64)
    seg_counts = np.empty(n_batch, dtype=np.int64)
    rr_counts = np.empty(n_batch, dtype=np.int64)
    peak_counts = np.empty(n_batch, dtype=np.int64)
    source_lengths = np.empty(n_batch, dtype=np.int64)
    representation_columns = [name for name in _SEGMENT_SCHEMA if name not in ("sequence", "symbol")]
    column_parts: "dict[str, list[np.ndarray]]" = {name: [] for name in representation_columns}
    rr_parts: "list[np.ndarray]" = []
    for i, (sequence_id, representation, peak_count, rr) in enumerate(batch):
        rr_arr = np.asarray(rr, dtype=np.float64)
        if rr_arr.ndim != 1:
            raise EngineError(
                f"rr intervals of sequence {int(sequence_id)} must be "
                f"one-dimensional, got shape {rr_arr.shape}"
            )
        columns = representation.segment_columns()
        ids[i] = int(sequence_id)
        seg_counts[i] = len(columns["slope"])
        rr_counts[i] = len(rr_arr)
        peak_counts[i] = int(peak_count)
        source_lengths[i] = int(representation.source_length)
        for name in representation_columns:
            column_parts[name].append(columns[name])
        rr_parts.append(rr_arr)

    block = {
        name: _joined(parts).astype(_SEGMENT_SCHEMA[name], copy=False)
        for name, parts in column_parts.items()
    }
    slopes = block["slope"]
    codes = classify_slopes(slopes, theta)
    seg_seq = np.repeat(ids, seg_counts)
    starts = np.zeros(n_batch, dtype=np.int64)
    seg_counts[:-1].cumsum(out=starts[1:])
    nonempty = seg_counts > 0
    beh_counts = np.zeros(n_batch, dtype=np.int64)
    max_rising = np.zeros(n_batch, dtype=np.float64)
    if len(slopes):
        # Run collapse across the whole block, per-sequence semantics
        # in one pass: sequence boundaries always open a run.
        group_starts = starts[nonempty]
        keep = run_start_mask(codes, group_starts)
        collapsed = codes[keep]
        beh_seq = seg_seq[keep]
        # Empty sequences occupy no rows, so consecutive non-empty
        # slices are adjacent and reduceat over their starts is exact.
        beh_counts[nonempty] = np.add.reduceat(keep, group_starts, dtype=np.int64)
        rising = np.where(slopes > 0.0, slopes, 0.0)
        max_rising[nonempty] = np.maximum.reduceat(rising, group_starts)
    else:
        collapsed = codes
        beh_seq = seg_seq
    block["sequence"] = seg_seq
    block["symbol"] = codes
    return (
        block,
        {"sequence": beh_seq, "symbol": collapsed.astype(np.int8, copy=False)},
        {
            "sequence": np.repeat(ids, rr_counts),
            "value": _joined(rr_parts) if rr_parts else np.empty(0),
        },
        {
            "sequence_id": ids,
            "segment_count": seg_counts,
            "behavior_count": beh_counts,
            "rr_count": rr_counts,
            "peak_count": peak_counts,
            "max_rising_slope": max_rising,
            "source_length": source_lengths,
        },
    )


class ColumnarSegmentStore:
    """Column-wise mirror of every live representation.

    Sequence ids must be inserted in strictly increasing order (the
    database assigns monotonically increasing ids and never reuses
    them), which keeps the sequence table sorted and lets lookups use
    binary search instead of a side dictionary.

    Parameters
    ----------
    theta:
        Slope-flatness threshold used to classify each segment's mean
        slope into the symbol columns; must match the database's
        ``theta`` so the columns agree with the pattern indexes.
    """

    def __init__(
        self,
        theta: float = 0.0,
        journal_limit: int = 1024,
        arena: "SharedMemoryArena | None" = None,
        label: str = "s",
        symbol_backend: str = "uncompressed",
    ) -> None:
        if symbol_backend not in SYMBOL_BACKENDS:
            raise EngineError(
                f"unknown symbol backend {symbol_backend!r}; "
                f"expected one of {SYMBOL_BACKENDS}"
            )
        self.theta = float(theta)
        self.symbol_backend = symbol_backend
        self._arena = arena
        self._segments = _ColumnSet(_SEGMENT_SCHEMA, arena=arena, label=f"{label}.seg")
        self._behavior = _ColumnSet(_BEHAVIOR_SCHEMA, arena=arena, label=f"{label}.beh")
        self._rr = _ColumnSet(_RR_SCHEMA, arena=arena, label=f"{label}.rr")
        self._sequences = _ColumnSet(_SEQUENCE_SCHEMA, arena=arena, label=f"{label}.seq")
        self._generation = 0
        self._seqlock = 0
        self._journal = MutationJournal(max_entries=journal_limit)
        self._cluster_index = None
        self._succinct: "SuccinctSymbolIndex | None" = None

    def cluster_index(self) -> "ClusterIndex":
        """This store's cluster-representative pruning index, in sync.

        Built lazily on first use (profiling every row once) and kept
        current afterwards by replaying the mutation journal — see
        :class:`repro.engine.clustering.ClusterIndex`.  Mutations never
        touch it eagerly; the generation comparison inside ``sync``
        makes every access self-repairing.
        """
        from repro.engine.clustering import ClusterIndex

        if self._cluster_index is None:
            self._cluster_index = ClusterIndex(self)
        self._cluster_index.sync()
        return self._cluster_index

    def cluster_report(self) -> dict:
        """The cluster index's telemetry, without forcing a build."""
        if self._cluster_index is None:
            from repro.engine.clustering import ClusterIndex

            return ClusterIndex(self).report()
        return self._cluster_index.report()

    def succinct_index(self) -> "SuccinctSymbolIndex":
        """This store's rank/select symbol index, in sync.

        Built lazily on first use and kept current afterwards by
        replaying the mutation journal — overlay patching for small
        dirty sets, staleness-ratio full rebuild otherwise; see
        :class:`repro.engine.succinct.SuccinctSymbolIndex`.  The
        generation comparison inside ``sync`` makes every access
        self-repairing, exactly like :meth:`cluster_index`.
        """
        from repro.engine.succinct import SuccinctSymbolIndex

        if self._succinct is None:
            self._succinct = SuccinctSymbolIndex(self, arena=self._arena)
        self._succinct.sync()
        return self._succinct

    def succinct_report(self) -> dict:
        """The succinct index's telemetry, without forcing a build."""
        if self._succinct is None:
            from repro.engine.succinct import SuccinctSymbolIndex

            report = SuccinctSymbolIndex(self).report()
        else:
            report = self._succinct.report()
        report["backend"] = self.symbol_backend
        return report

    def _succinct_mark_stale(self) -> None:
        """Let the succinct index snapshot its built row layout.

        Every mutator calls this *before* its first column write (the
        RL007 contract): once the columns move, the layout the wavelet
        matrices were built over is unrecoverable and the index could
        only rebuild, never patch.
        """
        if self._succinct is not None:
            self._succinct.note_mutation()

    @property
    def generation(self) -> int:
        """Monotone mutation counter; bumps on every insert/extend/delete.

        Cached query answers are valid exactly as long as the generation
        they were computed at is still current (see
        :class:`repro.engine.cache.PlanResultCache`).
        """
        return self._generation

    @property
    def journal(self) -> MutationJournal:
        """The mutation journal: touched ids per generation bump."""
        return self._journal

    def generation_vector(self) -> "tuple[int, ...]":
        """The per-shard generation baseline delta revalidation replays
        from — one entry per leaf store (just this one here)."""
        return (self._generation,)

    def dirty_ids_since(self, vector: "tuple[int, ...]") -> "set[int] | None":
        """Ids touched since a :meth:`generation_vector` baseline.

        ``None`` when the baseline does not line up with this store
        (different shard layout) or the journal has compacted past it —
        both mean the caller must recompute from scratch.
        """
        if len(vector) != 1:
            return None
        return self._journal.dirty_since(int(vector[0]))

    def journal_stats(self) -> dict:
        """The journal's counters (entries, bytes, floor, compactions)."""
        return self._journal.stats()

    # ------------------------------------------------------------------
    # Snapshot support (MVCC-lite read side)
    # ------------------------------------------------------------------

    def _begin_write(self) -> None:
        # Odd seqlock: a writer is between its first column write and
        # its journal record; snapshot pins taken now are unsettled.
        self._seqlock += 1

    def _commit_write(self) -> None:
        # Back to even: the generation bump and journal record landed.
        self._seqlock += 1

    def read_token(self) -> "tuple[int, ...]":
        """Per-leaf write seqlocks (odd while a mutation is in flight)."""
        return (self._seqlock,)

    def shm_manifest(self) -> "dict[str, Any] | None":
        """Worker attachment manifest; ``None`` when heap-backed."""
        if self._arena is None or self._arena.closed:
            return None
        # A succinct index is published only when its arena block is
        # current for this generation; workers without one fall back to
        # the scan kernels, which answer identically.
        succinct = self._succinct.shm_manifest() if self._succinct is not None else None
        return {
            "theta": self.theta,
            "generation": self._generation,
            "symbol_backend": self.symbol_backend,
            "succinct": succinct,
            "tables": {
                "segments": self._segments.manifest(),
                "behavior": self._behavior.manifest(),
                "rr": self._rr.manifest(),
                "sequences": self._sequences.manifest(),
            },
        }

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sequences)

    def __contains__(self, sequence_id: int) -> bool:
        ids = self.sequence_ids
        p = int(np.searchsorted(ids, sequence_id))
        return p < len(ids) and int(ids[p]) == int(sequence_id)

    @property
    def n_sequences(self) -> int:
        return len(self._sequences)

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    @property
    def n_rr(self) -> int:
        return len(self._rr)

    @property
    def n_behavior(self) -> int:
        return len(self._behavior)

    # ------------------------------------------------------------------
    # Column views (trimmed to live rows; treat as read-only)
    # ------------------------------------------------------------------

    @property
    def sequence_ids(self) -> np.ndarray:
        return self._sequences.column("sequence_id")

    @property
    def peak_counts(self) -> np.ndarray:
        return self._sequences.column("peak_count")

    @property
    def max_rising_slopes(self) -> np.ndarray:
        return self._sequences.column("max_rising_slope")

    @property
    def source_lengths(self) -> np.ndarray:
        return self._sequences.column("source_length")

    @property
    def segment_starts(self) -> np.ndarray:
        return self._sequences.column("segment_start")

    @property
    def segment_counts(self) -> np.ndarray:
        return self._sequences.column("segment_count")

    @property
    def rr_starts(self) -> np.ndarray:
        return self._sequences.column("rr_start")

    @property
    def rr_counts(self) -> np.ndarray:
        return self._sequences.column("rr_count")

    @property
    def behavior_starts(self) -> np.ndarray:
        return self._sequences.column("behavior_start")

    @property
    def behavior_counts(self) -> np.ndarray:
        return self._sequences.column("behavior_count")

    @property
    def segment_sequences(self) -> np.ndarray:
        return self._segments.column("sequence")

    @property
    def segment_slopes(self) -> np.ndarray:
        return self._segments.column("slope")

    @property
    def segment_symbols(self) -> np.ndarray:
        """Positional int8 symbol codes, one per stored segment."""
        return self._segments.column("symbol")

    @property
    def behavior_sequences(self) -> np.ndarray:
        return self._behavior.column("sequence")

    @property
    def behavior_symbols(self) -> np.ndarray:
        """Run-collapsed int8 symbol codes (behavioural view)."""
        return self._behavior.column("symbol")

    def segment_column(self, name: str) -> np.ndarray:
        return self._segments.column(name)

    @property
    def rr_sequences(self) -> np.ndarray:
        return self._rr.column("sequence")

    @property
    def rr_values(self) -> np.ndarray:
        return self._rr.column("value")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def position_of(self, sequence_id: int) -> int:
        """Row of one sequence in the sequence table."""
        ids = self.sequence_ids
        p = int(np.searchsorted(ids, sequence_id))
        if p >= len(ids) or int(ids[p]) != int(sequence_id):
            raise EngineError(f"sequence {sequence_id} not in columnar store")
        return p

    def positions_of(self, sequence_ids: "TypingSequence[int] | np.ndarray") -> np.ndarray:
        """Rows of many sequences, vectorized (ids must all be live)."""
        wanted = np.asarray(sequence_ids, dtype=np.int64)
        if wanted.size == 0:
            return np.empty(0, dtype=np.int64)
        ids = self.sequence_ids
        if len(ids) == 0:
            raise EngineError(f"sequences {wanted.tolist()} not in columnar store")
        positions = np.searchsorted(ids, wanted)
        clipped = np.minimum(positions, len(ids) - 1)
        bad = (positions >= len(ids)) | (ids[clipped] != wanted)
        if bool(bad.any()):
            raise EngineError(f"sequences {wanted[bad].tolist()} not in columnar store")
        return positions

    def segment_range(self, sequence_id: int) -> "tuple[int, int]":
        p = self.position_of(sequence_id)
        lo = int(self.segment_starts[p])
        return lo, lo + int(self.segment_counts[p])

    def rr_range(self, sequence_id: int) -> "tuple[int, int]":
        p = self.position_of(sequence_id)
        lo = int(self.rr_starts[p])
        return lo, lo + int(self.rr_counts[p])

    def behavior_range(self, sequence_id: int) -> "tuple[int, int]":
        p = self.position_of(sequence_id)
        lo = int(self.behavior_starts[p])
        return lo, lo + int(self.behavior_counts[p])

    def peak_count_of(self, sequence_id: int) -> int:
        """One sequence's stored peak count."""
        return int(self.peak_counts[self.position_of(sequence_id)])

    def rr_intervals_of(self, sequence_id: int) -> np.ndarray:
        """One sequence's R-R intervals (a copy — columns compact on delete)."""
        lo, hi = self.rr_range(sequence_id)
        return self.rr_values[lo:hi].copy()

    @property
    def nbytes(self) -> int:
        """Allocated bytes across every column, growth headroom included."""
        return (
            self._segments.nbytes
            + self._behavior.nbytes
            + self._rr.nbytes
            + self._sequences.nbytes
        )

    # ------------------------------------------------------------------
    # Shard protocol (a single store is the one-shard case)
    # ------------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return 1

    def shards(self) -> "tuple[ColumnarSegmentStore, ...]":
        """The leaf column stores queries scatter over — just this one."""
        return (self,)

    def shard_of(self, sequence_id: int) -> "ColumnarSegmentStore":
        """The leaf store owning a sequence — just this one, matching
        the sharded store's routing interface."""
        return self

    def partition_ids(
        self, candidate_ids: "TypingSequence[int] | None"
    ) -> "list[TypingSequence[int] | None]":
        """Candidate ids split per shard, aligned with :meth:`shards`."""
        return [candidate_ids]

    def symbols_of(self, sequence_id: int, collapse_runs: bool = False) -> str:
        """One sequence's slope-sign string, read from the symbol columns.

        Byte-identical to the pattern indexes' stored strings: the
        positional view (``collapse_runs=False``) has one symbol per
        segment, the behavioural view merges runs.
        """
        if collapse_runs:
            lo, hi = self.behavior_range(sequence_id)
            return decode_symbols(self.behavior_symbols[lo:hi])
        lo, hi = self.segment_range(sequence_id)
        return decode_symbols(self.segment_symbols[lo:hi])

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
        """Append one sequence's columns (see :meth:`extend`)."""
        self.extend([(sequence_id, representation, peak_count, rr)])

    def extend(
        self,
        items: "Iterable[tuple[int, FunctionSeriesRepresentation, int, np.ndarray]]",
    ) -> None:
        """Append many sequences as one column block.

        ``items`` yields ``(sequence_id, representation, peak_count,
        rr_intervals)`` tuples in strictly increasing id order.  The
        whole batch is stacked first and then processed columnarly — one
        concatenate per column, one slope classification, one run
        collapse and one per-sequence reduction for the entire block —
        so batched ingest pays a handful of large NumPy calls instead of
        a dozen small ones per sequence.  This block form is what the
        ingest pipeline appends per shard.
        """
        batch = list(items)
        if not batch:
            return
        last = int(self.sequence_ids[-1]) if len(self._sequences) else -1
        for item in batch:
            sequence_id = int(item[0])
            if sequence_id <= last:
                raise EngineError(
                    f"sequence ids must be inserted in increasing order "
                    f"({sequence_id} after {last})"
                )
            last = sequence_id
        segments, behavior, rr, table = stack_rows(batch, self.theta)
        for column, rows in (
            ("segment", len(self._segments)),
            ("behavior", len(self._behavior)),
            ("rr", len(self._rr)),
        ):
            counts = table[f"{column}_count"]
            starts = np.zeros(len(counts), dtype=np.int64)
            counts[:-1].cumsum(out=starts[1:])
            table[f"{column}_start"] = rows + starts
        self._succinct_mark_stale()
        self._begin_write()
        self._segments.extend(segments)
        self._behavior.extend(behavior)
        self._rr.extend(rr)
        self._sequences.extend(table)
        self._generation += 1
        self._journal.record(self._generation, "insert", table["sequence_id"].tolist())
        self._commit_write()

    def delete(self, sequence_id: int) -> None:
        """Drop one sequence (see :meth:`delete_many`)."""
        self.delete_many([sequence_id])

    def delete_many(self, sequence_ids: "TypingSequence[int] | np.ndarray") -> None:
        """Drop many sequences in one compaction pass per column table.

        Every column shifts left once for the whole batch, the offset
        table is recomputed from the surviving counts, and the store's
        ``generation`` bumps once — so cached query answers are
        invalidated a single time, not once per id.  Ids are de-duped;
        all of them must be live (validated before anything changes).
        """
        wanted = np.unique(np.asarray(list(sequence_ids), dtype=np.int64))
        if wanted.size == 0:
            return
        positions = self.positions_of(wanted)
        self._succinct_mark_stale()
        self._begin_write()

        def interval_drop_mask(starts: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
            # Disjoint per-sequence row ranges as a +1/-1 boundary sweep;
            # np.add.at tolerates the equal start/stop indices that
            # zero-count ranges produce.
            delta = np.zeros(n + 1, dtype=np.int64)
            np.add.at(delta, starts, 1)
            np.add.at(delta, starts + counts, -1)
            return np.cumsum(delta[:n]) > 0

        self._segments.delete_where(
            interval_drop_mask(
                self.segment_starts[positions],
                self.segment_counts[positions],
                len(self._segments),
            )
        )
        self._behavior.delete_where(
            interval_drop_mask(
                self.behavior_starts[positions],
                self.behavior_counts[positions],
                len(self._behavior),
            )
        )
        self._rr.delete_where(
            interval_drop_mask(
                self.rr_starts[positions], self.rr_counts[positions], len(self._rr)
            )
        )
        sequence_drop = np.zeros(len(self._sequences), dtype=bool)
        sequence_drop[positions] = True
        self._sequences.delete_where(sequence_drop)
        # Offsets are exclusive prefix sums of the surviving counts —
        # the same table repeated single deletes would converge to.
        if len(self._sequences):
            for starts, counts in (
                (self.segment_starts, self.segment_counts),
                (self.behavior_starts, self.behavior_counts),
                (self.rr_starts, self.rr_counts),
            ):
                starts[0] = 0
                np.cumsum(counts[:-1], out=starts[1:])
        self._generation += 1
        self._journal.record(self._generation, "delete", wanted.tolist())
        self._commit_write()

    def replace(
        self,
        sequence_id: int,
        representation: "FunctionSeriesRepresentation",
        *,
        peak_count: int,
        rr: "np.ndarray | TypingSequence[float]",
    ) -> None:
        """Rewrite one live sequence's rows in place (see :meth:`replace_many`)."""
        self.replace_many([(sequence_id, representation, peak_count, rr)])

    def replace_many(
        self,
        items: "Iterable[tuple[int, FunctionSeriesRepresentation, int, np.ndarray]]",
    ) -> None:
        """Rewrite many live sequences' rows in place — the streaming
        append path's columnar tail rewrite.

        The batch is stacked like an :meth:`extend` block (one slope
        classification and one run collapse for all items), then each
        column table takes one multi-range :meth:`_ColumnSet.splice`
        over the items' existing row ranges, the items' sequence-table
        rows are refreshed, and the offsets are recomputed from the
        counts with one ``cumsum`` per table.  Columns end identical to
        deleting and re-inserting every item at its original position.
        The whole batch bumps ``generation`` once and records one
        ``"append"`` journal entry, so cached answers see exactly one
        mutation naming exactly the touched ids.  Ids must be live and
        unique (validated before anything changes).
        """
        batch = list(items)
        if not batch:
            return
        ids = [int(item[0]) for item in batch]
        if len(set(ids)) != len(ids):
            raise EngineError("duplicate sequence ids in replace batch")
        positions = self.positions_of(ids)
        # Splice in store order; stacking materializes and validates
        # every payload before the first column moves, so a malformed
        # item leaves the columns untouched.
        order = np.argsort(positions, kind="stable")
        self.replace_stacked(
            positions[order], *stack_rows([batch[i] for i in order.tolist()], self.theta)
        )

    def replace_stacked(
        self,
        positions: np.ndarray,
        segments: "dict[str, np.ndarray]",
        behavior: "dict[str, np.ndarray]",
        rr: "dict[str, np.ndarray]",
        table: "dict[str, np.ndarray]",
    ) -> None:
        """Splice :func:`stack_rows` output over the live sequences at the
        ascending store ``positions`` (the body of :meth:`replace_many`,
        and what a sharded store calls with its slice of one stack).

        One :meth:`_ColumnSet.splice` per column table, offsets
        recomputed from the counts, one generation bump and one
        ``"append"`` journal entry.  The caller guarantees the positions
        are live and the stack is theirs, in the same order.
        """
        seg_lo = self.segment_starts[positions]
        beh_lo = self.behavior_starts[positions]
        rr_lo = self.rr_starts[positions]
        self._succinct_mark_stale()
        self._begin_write()
        self._segments.splice(
            seg_lo, seg_lo + self.segment_counts[positions], table["segment_count"], segments
        )
        self._behavior.splice(
            beh_lo, beh_lo + self.behavior_counts[positions], table["behavior_count"], behavior
        )
        self._rr.splice(rr_lo, rr_lo + self.rr_counts[positions], table["rr_count"], rr)
        # Offsets are exclusive prefix sums of the counts, as after a
        # delete.
        for starts, counts, column in (
            (self.segment_starts, self.segment_counts, "segment_count"),
            (self.behavior_starts, self.behavior_counts, "behavior_count"),
            (self.rr_starts, self.rr_counts, "rr_count"),
        ):
            counts[positions] = table[column]
            starts[0] = 0
            counts[:-1].cumsum(out=starts[1:])
        self.peak_counts[positions] = table["peak_count"]
        self.max_rising_slopes[positions] = table["max_rising_slope"]
        self.source_lengths[positions] = table["source_length"]
        self._generation += 1
        self._journal.record(self._generation, "append", table["sequence_id"].tolist())
        self._commit_write()

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Verify the offset table partitions the columns exactly."""
        ids = self.sequence_ids
        if len(ids) > 1 and not bool((np.diff(ids) > 0).all()):
            raise EngineError("sequence table is not sorted by id")
        seg_starts = self.segment_starts
        seg_counts = self.segment_counts
        beh_starts = self.behavior_starts
        beh_counts = self.behavior_counts
        rr_starts = self.rr_starts
        rr_counts = self.rr_counts
        cursor_seg = 0
        cursor_beh = 0
        cursor_rr = 0
        for p in range(len(ids)):
            if int(seg_starts[p]) != cursor_seg:
                raise EngineError(
                    f"segment offset of sequence {int(ids[p])} is {int(seg_starts[p])}, "
                    f"expected {cursor_seg}"
                )
            if int(beh_starts[p]) != cursor_beh:
                raise EngineError(
                    f"behavior offset of sequence {int(ids[p])} is {int(beh_starts[p])}, "
                    f"expected {cursor_beh}"
                )
            if int(rr_starts[p]) != cursor_rr:
                raise EngineError(
                    f"rr offset of sequence {int(ids[p])} is {int(rr_starts[p])}, "
                    f"expected {cursor_rr}"
                )
            seg_hi = cursor_seg + int(seg_counts[p])
            beh_hi = cursor_beh + int(beh_counts[p])
            rr_hi = cursor_rr + int(rr_counts[p])
            if not bool((self.segment_sequences[cursor_seg:seg_hi] == ids[p]).all()):
                raise EngineError(f"segment rows of sequence {int(ids[p])} mislabelled")
            if not bool((self.behavior_sequences[cursor_beh:beh_hi] == ids[p]).all()):
                raise EngineError(f"behavior rows of sequence {int(ids[p])} mislabelled")
            if not bool((self.rr_sequences[cursor_rr:rr_hi] == ids[p]).all()):
                raise EngineError(f"rr rows of sequence {int(ids[p])} mislabelled")
            codes = self.segment_symbols[cursor_seg:seg_hi]
            recomputed = classify_slopes(self.segment_slopes[cursor_seg:seg_hi], self.theta)
            if not bool((codes == recomputed).all()):
                raise EngineError(
                    f"symbol column of sequence {int(ids[p])} disagrees with its slopes"
                )
            collapsed = self.behavior_symbols[cursor_beh:beh_hi]
            expected_runs = collapse_code_runs(codes)
            if len(collapsed) != len(expected_runs) or not bool(
                (collapsed == expected_runs).all()
            ):
                raise EngineError(
                    f"behavior column of sequence {int(ids[p])} is not the "
                    f"run-collapse of its symbol column"
                )
            cursor_seg = seg_hi
            cursor_beh = beh_hi
            cursor_rr = rr_hi
        if cursor_seg != len(self._segments):
            raise EngineError(
                f"offset table covers {cursor_seg} segment rows of {len(self._segments)}"
            )
        if cursor_beh != len(self._behavior):
            raise EngineError(
                f"offset table covers {cursor_beh} behavior rows of {len(self._behavior)}"
            )
        if cursor_rr != len(self._rr):
            raise EngineError(f"offset table covers {cursor_rr} rr rows of {len(self._rr)}")
        if self._succinct is not None and self._succinct.built:
            self._succinct.sync()
            self._succinct.check_parity()


def attach_from_manifest(
    manifest: "dict[str, Any]", attachments: BlockAttachments
) -> ColumnarSegmentStore:
    """Rebuild a zero-copy read view of a store from its shm manifest.

    Worker processes call this with a manifest produced by
    :meth:`ColumnarSegmentStore.shm_manifest` in the parent: every
    column becomes a NumPy view over an attached shared block (no rows
    are copied).  The view must never be mutated — workers only run
    read stages — and a retired block name raises ``FileNotFoundError``
    from ``attachments.get``, which the process executor converts into
    a snapshot retry.
    """
    store = ColumnarSegmentStore(
        theta=float(manifest["theta"]),
        symbol_backend=str(manifest.get("symbol_backend", "uncompressed")),
    )
    tables: "dict[str, dict[str, Any]]" = manifest["tables"]
    specs: "tuple[tuple[_ColumnSet, str], ...]" = (
        (store._segments, "segments"),
        (store._behavior, "behavior"),
        (store._rr, "rr"),
        (store._sequences, "sequences"),
    )
    for column_set, key in specs:
        table = tables[key]
        capacity = int(table["capacity"])
        arrays: "dict[str, np.ndarray]" = {}
        for name, (block_name, dtype_str) in table["columns"].items():
            dtype = np.dtype(dtype_str)
            if block_name is None:
                arrays[name] = np.empty(0, dtype=dtype)
            else:
                buf = attachments.get(block_name)
                arrays[name] = np.ndarray((capacity,), dtype=dtype, buffer=buf)
        column_set._arrays = arrays
        column_set._size = int(table["size"])
    store._generation = int(manifest["generation"])
    succinct_manifest = manifest.get("succinct")
    if succinct_manifest is not None:
        from repro.engine.succinct import attach_succinct_index

        store._succinct = attach_succinct_index(store, succinct_manifest, attachments)
    return store
