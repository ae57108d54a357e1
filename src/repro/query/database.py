"""The sequence database: ingest, represent, index, query.

This is the system of paper Section 4.4 assembled end to end:

1. raw sequences are archived (slow tier, latency-accounted);
2. each sequence is broken by a breaking algorithm and represented as a
   series of functions (regression lines by default — the paper's
   choice), stored compactly on the local tier;
3. indexes are maintained over the representation: the slope-sign
   pattern index (positional and behavioural views) and the
   inverted-file R-R interval index of Figure 10, plus the execution
   engine's columnar segment store, which mirrors every live
   representation column-wise;
4. generalized approximate queries run against representations and
   indexes alone — by default as vectorized plans over the columnar
   store (:mod:`repro.engine`); raw data is touched only by explicit
   baseline queries or ``raw_sequence`` calls.
"""

from __future__ import annotations

import functools
import threading
from pathlib import Path
from types import TracebackType
from typing import Callable, Concatenate, Iterable, ParamSpec, TypeVar

import numpy as np

from repro.core.errors import QueryError
from repro.core.features import Peak, PeakTableRow, find_peaks, find_peaks_many, peak_table
from repro.core.representation import (
    FunctionSeriesRepresentation,
    classify_slopes,
    decode_symbols,
    run_start_mask,
)
from repro.core.sequence import Sequence
from repro.engine import (
    SYMBOL_BACKENDS,
    ColumnarSegmentStore,
    ParallelExecutor,
    PlanResultCache,
    ProcessParallelExecutor,
    QueryExecutor,
    QueryPlanner,
    ShardedSegmentStore,
    SharedMemoryArena,
)
from repro.index.inverted import InvertedFileIndex
from repro.index.pattern_index import PatternIndex
from repro.preprocessing.normalization import znormalize
from repro.query.queries import Query, TopKQuery
from repro.query.results import QueryMatch
from repro.segmentation.base import Breaker
from repro.segmentation.interpolation import InterpolationBreaker
from repro.storage.archive import ArchivalStore, LocalStore
from repro.storage.catalog import RepresentationCatalog

__all__ = ["SequenceDatabase"]

_P = ParamSpec("_P")
_R = TypeVar("_R")


def _mutator(
    method: "Callable[Concatenate[SequenceDatabase, _P], _R]",
) -> "Callable[Concatenate[SequenceDatabase, _P], _R]":
    """Run a database mutation under the database's mutation lock.

    Writes are serialized against each other (concurrent serving runs
    writer threads next to query threads); reads stay lock-free — the
    executor's snapshot tokens detect and retry any read that raced a
    write, and only its last-resort fallback takes this lock to grade
    in mutual exclusion.  The lock is re-entrant so batched mutators
    can delegate to each other (``append`` -> ``append_many``).

    The decorator also maintains ``mutation_seq``, a database-level
    seqlock: odd while the outermost mutator is in flight, bumped even
    on exit.  The store's own generation only moves at the *end* of a
    mutation, after the side indexes (pattern trie, name/representation
    maps) have already changed — the seqlock closes that window so the
    executor can tell "a writer is mid-flight" apart from "a stage bug"
    and retry instead of surfacing a torn read.
    """

    @functools.wraps(method)
    def locked(self: "SequenceDatabase", /, *args: _P.args, **kwargs: _P.kwargs) -> _R:
        with self.mutation_lock:
            outermost = self._mutation_depth == 0
            if outermost:
                self.mutation_seq += 1
            self._mutation_depth += 1
            try:
                return method(self, *args, **kwargs)
            finally:
                self._mutation_depth -= 1
                if outermost:
                    self.mutation_seq += 1

    return locked


class SequenceDatabase:
    """Store sequences as function series; answer approximate queries.

    Parameters
    ----------
    breaker:
        Breaking algorithm; defaults to the paper's interpolation
        breaker with ``epsilon = 0.5``.
    curve_kind:
        Representation curve fitted at the breaker's boundaries
        (``"regression"`` in the paper's experiments).
    theta:
        Slope-flatness threshold for the symbol alphabet and peak
        detection.
    rr_bucket_width:
        Bucket width of the inverted R-R index (Figure 10).
    keep_raw:
        Whether to archive raw sequences for finer-resolution access.
    normalize:
        Z-normalize (mean 0, variance 1) before breaking — the paper's
        Section 7 preprocessing that eliminates "differences between
        sequences that are linear transformations (scaling and
        translation) of each other".  The archive keeps the original
        amplitudes either way.
    n_shards:
        ``None`` (default) keeps the single columnar store; an integer
        ``>= 1`` splits it into that many independent shards
        (hash-by-sequence-id) and query stages scatter-gather across
        them.  Results are identical for every setting; shard when the
        store is large enough that per-shard stage runs (especially
        with a parallel executor) pay for the merge.
    max_workers:
        ``> 1`` executes the scattered per-shard stages on a thread
        pool of this size (:class:`~repro.engine.ParallelExecutor`);
        ``None``/``1`` keeps the serial executor.  Only meaningful
        together with ``n_shards >= 2`` — shards are the units of
        scatter, so an unsharded store always runs its single leaf
        inline.  Worker count never changes results, only wall-clock.
    backend:
        Explicit executor choice: ``"serial"``, ``"thread"`` or
        ``"process"`` (:class:`~repro.engine.ProcessParallelExecutor`,
        which scatters stages to worker *processes* attaching the
        shards' shared-memory columns by name).  ``None`` (default)
        keeps the legacy rule: ``max_workers > 1`` means threads,
        otherwise serial.  Every backend returns identical results.
    shared_memory:
        Back the columnar store's arrays with named shared-memory
        blocks (:class:`~repro.engine.SharedMemoryArena`) so worker
        processes can attach them zero-copy.  ``None`` (default)
        enables it exactly when ``backend="process"``; ``True`` forces
        it (useful to pre-stage a store a process executor will serve
        later), ``False`` keeps heap arrays — the process backend then
        silently degrades to inline scatter.  Call :meth:`close` (or
        use the database as a context manager) to release the blocks
        deterministically.
    symbol_backend:
        Storage strategy for the symbol columns' counting/position
        queries: ``"uncompressed"`` (default) scans the ``int8``
        columns, ``"succinct"`` maintains per-shard rank/select wavelet
        matrices (:mod:`repro.engine.succinct`) and answers
        :class:`~repro.query.queries.CountQuery` /
        :class:`~repro.query.queries.MotifQuery` scan-free.  Answers
        are byte-identical for both settings.
    """

    def __init__(
        self,
        breaker: "Breaker | None" = None,
        curve_kind: str = "regression",
        theta: float = 0.05,
        rr_bucket_width: float = 1.0,
        keep_raw: bool = True,
        normalize: bool = False,
        trie_depth: int = 12,
        n_shards: "int | None" = None,
        max_workers: "int | None" = None,
        backend: "str | None" = None,
        shared_memory: "bool | None" = None,
        symbol_backend: str = "uncompressed",
    ) -> None:
        self._breaker = breaker if breaker is not None else InterpolationBreaker(0.5)
        self._config_epoch = 0
        self.curve_kind = curve_kind
        self._theta = float(theta)
        self.keep_raw = keep_raw
        self.normalize = normalize
        if backend not in (None, "serial", "thread", "process"):
            raise QueryError(
                f"unknown backend {backend!r}; expected 'serial', 'thread' or 'process'"
            )
        if symbol_backend not in SYMBOL_BACKENDS:
            raise QueryError(
                f"unknown symbol backend {symbol_backend!r}; "
                f"expected one of {SYMBOL_BACKENDS}"
            )
        #: Serializes mutations against each other; queries never take
        #: it except in the executor's snapshot-retry fallback.
        self.mutation_lock = threading.RLock()
        #: Database-level seqlock: odd while a mutator is in flight,
        #: even when settled.  Readers pin it next to the store's
        #: generation vector (see ``_mutator``).
        self.mutation_seq = 0
        self._mutation_depth = 0

        self.archive = ArchivalStore()
        self.local_store = LocalStore()
        self.catalog = RepresentationCatalog()
        #: Positional view: one symbol per segment.
        self.pattern_index = PatternIndex(theta=theta, trie_depth=trie_depth, collapse_runs=False)
        #: Behavioural view: runs collapsed, for full-pattern queries.
        self.behavior_index = PatternIndex(theta=theta, trie_depth=trie_depth, collapse_runs=True)
        #: Figure 10: inverted file over R-R interval lengths.
        self.rr_index = InvertedFileIndex(bucket_width=rr_bucket_width)
        #: Execution engine: column-wise mirror of every live representation,
        #: including the int8 slope-sign symbol columns (raw and collapsed) —
        #: a single store by default, hash-partitioned when sharded.
        if shared_memory is None:
            shared_memory = backend == "process"
        self._arena = SharedMemoryArena(label="repro") if shared_memory else None
        if n_shards is None:
            self.store: "ColumnarSegmentStore | ShardedSegmentStore" = ColumnarSegmentStore(
                theta=self.theta, arena=self._arena, symbol_backend=symbol_backend
            )
        else:
            self.store = ShardedSegmentStore(
                n_shards,
                theta=self.theta,
                arena=self._arena,
                symbol_backend=symbol_backend,
            )
        self.planner = QueryPlanner()
        if backend is None:
            backend = "thread" if max_workers is not None and max_workers > 1 else "serial"
        if backend == "process":
            self.executor: QueryExecutor = ProcessParallelExecutor(max_workers=max_workers)
        elif backend == "thread":
            self.executor = ParallelExecutor(max_workers=max_workers)
        else:
            self.executor = QueryExecutor()
        #: Plan-level result cache: graded answers memoized per store
        #: generation, invalidated implicitly by insert/delete.
        self.result_cache = PlanResultCache()

        self._representations: dict[int, FunctionSeriesRepresentation] = {}
        self._names: dict[int, str] = {}
        self._next_id = 0

    @property
    def theta(self) -> float:
        """Slope-flatness threshold — fixed at construction.

        Every derived structure (pattern-index symbol strings, the
        store's symbol columns, peak counts, R-R intervals) is
        classified with this value at ingest; allowing it to change
        afterwards would silently desynchronize them.  Build a new
        database to query under a different theta.
        """
        return self._theta

    @property
    def breaker(self) -> "Breaker":
        """The breaking algorithm; reassigning invalidates cached results."""
        return self._breaker

    @breaker.setter
    def breaker(self, value: "Breaker") -> None:
        self._breaker = value
        self._config_epoch += 1

    def cache_epoch(self) -> tuple:
        """Token naming everything a cached answer depends on.

        Combines the store's data generation with the query pipeline's
        configuration (``theta``/``normalize``/``curve_kind`` by value,
        the breaker by reassignment count), so ingest, deletion and
        config reassignment all invalidate cached results.  Config
        objects themselves are treated as immutable: mutating a breaker
        in place is not supported and invisible to the cache.
        """
        return (
            self.store.generation,
            self.theta,
            self.normalize,
            self.curve_kind,
            self.keep_raw,
            self._config_epoch,
        )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    @_mutator
    def insert(self, sequence: Sequence) -> int:
        """Archive, break, represent and index one sequence.

        A batch of one through :meth:`insert_all`.
        """
        return self.insert_all([sequence])[0]

    @_mutator
    def insert_all(self, sequences: Iterable[Sequence]) -> list[int]:
        """Archive, break, represent and index a batch of sequences.

        The one raw ingest path (:meth:`insert` is a batch of one).
        Every stage runs over the whole batch at once: the breaker's
        frontier-batched :meth:`Breaker.represent_many` breaks all
        sequences in lock-step rounds, slope symbols are classified in
        one pass feeding both pattern-index views through their bulk
        ``add_symbols_many`` entry points, peaks come from
        :func:`find_peaks_many` over the same codes, R-R intervals land
        in the inverted index as one :meth:`InvertedFileIndex.add_block`,
        and the columnar store's arrays grow a single time per touched
        shard.  The stored state does not depend on how a stream of
        sequences is split into batches.
        """
        batch = list(sequences)
        if not batch:
            return []
        sequence_ids = [self._admit(sequence) for sequence in batch]
        if self.normalize:
            batch = [znormalize(sequence) for sequence in batch]
        representations = self.breaker.represent_many(batch, curve_kind=self.curve_kind)
        self._ingest(sequence_ids, [sequence.name for sequence in batch], representations)
        return sequence_ids

    @_mutator
    def insert_representation(
        self, representation: FunctionSeriesRepresentation, name: str = ""
    ) -> int:
        """Ingest a pre-built representation with no raw backing.

        For data that arrives already summarized (a remote site shipping
        compact function series instead of raw samples, or benchmark
        corpora reusing a broken pool).  The sequence is indexed and
        queryable exactly like an inserted one, with the limitations of
        having no raw data:

        * ``raw_sequence`` raises :class:`~repro.core.errors.StorageError`
          (nothing was archived) and ``has_raw`` returns False;
        * ``add_variant`` cannot rebuild it from raw samples;
        * value-based grading (``ExemplarQuery``) rejects it with an
          infinite ``value_distance`` deviation rather than failing —
          representation-level queries (pattern, peak, interval,
          steepness, shape) are unaffected.
        """
        sequence_id = self._next_id
        self._next_id += 1
        self._ingest([sequence_id], [name or representation.name], [representation])
        return sequence_id

    def ingest_pipeline(self, batch_size: int = 256) -> "IngestPipeline":
        """A batched ingest front-end for this database.

        Buffers raw sequences and flushes them through
        :meth:`insert_all` — one :meth:`Breaker.represent_many` call and
        one column block append per touched shard per batch.  Use as a
        context manager so a trailing partial batch always lands::

            with db.ingest_pipeline(batch_size=512) as pipeline:
                for sequence in feed:
                    pipeline.add(sequence)
        """
        from repro.query.ingest import IngestPipeline

        return IngestPipeline(self, batch_size=batch_size)

    def _admit(self, sequence: Sequence) -> int:
        """Assign the next id and archive the raw sequence."""
        sequence_id = self._next_id
        self._next_id += 1
        if self.keep_raw:
            self.archive.store(sequence_id, sequence)
        return sequence_id

    def _ingest(
        self,
        sequence_ids: "list[int]",
        names: "list[str]",
        representations: "list[FunctionSeriesRepresentation]",
    ) -> None:
        """Register, index and store a batch of new representations.

        Records each in the maps, the local tier and the catalog, then
        feeds both pattern indexes, the inverted R-R index and the
        columnar store from one :meth:`_derive` pass.
        """
        symbols, behaviours, peak_counts, intervals = self._derive(representations)
        for sequence_id, name, representation in zip(sequence_ids, names, representations):
            self._representations[sequence_id] = representation
            self._names[sequence_id] = name or f"seq-{sequence_id}"
            self.local_store.store(sequence_id, representation)
            self.catalog.put(sequence_id, "default", representation)
        self.pattern_index.add_symbols_many(zip(sequence_ids, symbols))
        self.behavior_index.add_symbols_many(zip(sequence_ids, behaviours))
        self.rr_index.add_block(zip(sequence_ids, intervals))
        self.store.extend(zip(sequence_ids, representations, peak_counts, intervals))

    def _derive(
        self, representations: "list[FunctionSeriesRepresentation]"
    ) -> "tuple[list[str], list[str], list[int], list[np.ndarray]]":
        """Symbol strings, peak counts and R-R intervals of a batch.

        Returns four lists in batch order: the positional slope-sign
        strings, the run-collapsed (behavioural) strings, the peak
        counts and the R-R intervals (first differences of the peak
        times).  The batch's slope columns are classified once;
        ``decode_symbols`` is a pure per-code map and runs never span
        sequences (``run_start_mask`` re-opens a run at every group
        start), so slicing the batch strings per sequence yields each
        sequence's own strings, and :func:`find_peaks_many` reuses the
        same codes.
        """
        slope_columns = [
            representation.segment_columns()["slope"] for representation in representations
        ]
        counts = np.array([len(column) for column in slope_columns], dtype=np.int64)
        group_starts = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=group_starts[1:])
        flat_codes = classify_slopes(np.concatenate(slope_columns), self.theta)
        all_symbols = decode_symbols(flat_codes)
        run_starts = run_start_mask(flat_codes, group_starts)
        collapsed_counts = np.add.reduceat(run_starts.astype(np.int64), group_starts)
        all_collapsed = decode_symbols(flat_codes[run_starts])
        peak_times = [
            times
            for times, __ in find_peaks_many(representations, self.theta, codes=flat_codes)
        ]

        symbols: "list[str]" = []
        behaviours: "list[str]" = []
        position = 0
        collapsed_position = 0
        for count, collapsed_count in zip(counts.tolist(), collapsed_counts.tolist()):
            symbols.append(all_symbols[position : position + count])
            behaviours.append(
                all_collapsed[collapsed_position : collapsed_position + collapsed_count]
            )
            position += count
            collapsed_position += collapsed_count
        return (
            symbols,
            behaviours,
            [len(times) for times in peak_times],
            [np.diff(times) for times in peak_times],
        )

    # ------------------------------------------------------------------
    # Streaming append
    # ------------------------------------------------------------------

    @_mutator
    def append(
        self,
        sequence_id: int,
        values: "Iterable[float] | np.ndarray",
        times: "Iterable[float] | np.ndarray | None" = None,
    ) -> int:
        """Extend one live sequence with new trailing samples.

        The streaming write path: the raw tail lands in the archive,
        the representation is re-broken *from the last breakpoint only*
        when the breaker supports online extension
        (:meth:`~repro.segmentation.base.Breaker.extend_indices`), the
        pattern/behaviour tries take the new strings (their nodes are
        rebuilt on the next lookup), the inverted R-R index is patched
        for the affected suffix only, and the columnar store splices
        the sequence's rows in place — journalled as one ``"append"``
        touching exactly this id, so cached query answers re-grade one
        sequence instead of the world.  End state is byte-identical to
        deleting the sequence and re-inserting its full data (same
        boundaries, symbols, peaks, postings and columns), which the
        parity suite enforces for every query type.

        ``times`` defaults to continuing the sequence's uniform grid.
        Raw data must be archived (``keep_raw=True`` and not
        representation-only); representation *variants* of the sequence
        are dropped — they described the shorter data.  Returns the
        sequence's new length.
        """
        return self.append_many([(sequence_id, values, times)])[0]

    @_mutator
    def append_many(
        self,
        items: "Iterable[tuple]",
    ) -> list[int]:
        """Extend many live sequences in one batch (see :meth:`append`).

        ``items`` yields ``(sequence_id, values)`` or ``(sequence_id,
        values, times)`` tuples.  Breaking runs through the breaker's
        batch :meth:`~repro.segmentation.base.Breaker.extend_indices_many`
        (suffix rescans for online breakers — lane by lane below the
        measured frontier crossover, lock-step above it — the
        frontier-batched full re-break otherwise), the changed suffix
        windows of the whole batch are refitted in one call
        (:meth:`FunctionSeriesRepresentation.from_breakpoints_reusing`),
        symbols, peaks and R-R intervals come from the same batch
        derivation :meth:`insert_all` uses, and the columnar store
        splices each touched shard's rows in one pass per column table,
        with one generation bump per touched shard.  The whole batch is
        validated before anything mutates.  Returns the new lengths, in
        item order.
        """
        batch: "list[tuple[int, np.ndarray, object]]" = []
        for item in items:
            sequence_id = int(item[0])
            values = item[1]
            times = item[2] if len(item) > 2 else None
            batch.append((sequence_id, values, times))
        if not batch:
            return []
        ids = [entry[0] for entry in batch]
        if len(set(ids)) != len(ids):
            raise QueryError("duplicate sequence ids in append batch")
        for sequence_id in ids:
            self._require(sequence_id)
            if not self.has_raw(sequence_id):
                raise QueryError(
                    f"append needs archived raw data for sequence {sequence_id}; "
                    "it was ingested without raw backing"
                )

        # Build every extended raw sequence first: a bad payload in the
        # batch must mutate nothing.
        extended: "list[Sequence]" = []
        for sequence_id, values, times in batch:
            old = self.archive.peek(sequence_id)
            new_values = np.asarray(
                values if isinstance(values, np.ndarray) else list(values), dtype=float
            )
            if new_values.ndim != 1 or new_values.size == 0:
                raise QueryError("appended values must be a non-empty 1-D array")
            if times is None:
                step = float(old.times[-1] - old.times[-2]) if len(old) > 1 else 1.0
                new_times = old.times[-1] + step * np.arange(
                    1, new_values.size + 1, dtype=float
                )
            else:
                new_times = np.asarray(
                    times if isinstance(times, np.ndarray) else list(times), dtype=float
                )
                if new_times.shape != new_values.shape:
                    raise QueryError("appended times and values disagree in length")
            extended.append(
                Sequence(
                    np.concatenate([old.times, new_times]),
                    np.concatenate([old.values, new_values]),
                    name=old.name,
                )
            )

        if self.normalize:
            # Z-normalization is global: new samples move every old
            # sample's normalized value, so the whole sequence re-breaks
            # (still batched through represent_many).
            normalized = [znormalize(sequence) for sequence in extended]
            representations = self.breaker.represent_many(
                normalized, curve_kind=self.curve_kind
            )
        else:
            previous = [self._representations[sequence_id].windows() for sequence_id in ids]
            boundaries = self.breaker.extend_indices_many(list(zip(extended, previous)))
            representations = FunctionSeriesRepresentation.from_breakpoints_reusing(
                extended,
                boundaries,
                [self._representations[sequence_id] for sequence_id in ids],
                curve_kind=self.curve_kind,
                epsilon=self.breaker.epsilon,
            )

        # Breaking/refitting (the stage a user-supplied breaker can fail
        # in) is done; only now touch durable state, archive first.
        for sequence_id, sequence in zip(ids, extended):
            self.archive.replace(sequence_id, sequence)

        store_items = []
        for sequence_id, representation, symbols, behaviour, peak_count, intervals in zip(
            ids, representations, *self._derive(representations)
        ):
            self.pattern_index.update_symbols(sequence_id, symbols)
            self.behavior_index.update_symbols(sequence_id, behaviour)
            old_intervals = self.store.rr_intervals_of(sequence_id)
            self.rr_index.replace_tail(sequence_id, old_intervals, intervals)
            self._representations[sequence_id] = representation
            # The local tier and catalog replace the default blob; other
            # variants described the shorter data and are dropped.
            self.local_store.evict(sequence_id)
            self.local_store.store(sequence_id, representation)
            self.catalog.remove_sequence(sequence_id)
            self.catalog.put(sequence_id, "default", representation)
            store_items.append((sequence_id, representation, peak_count, intervals))
        self.store.replace_many(store_items)
        return [len(sequence) for sequence in extended]

    @_mutator
    def add_variant(
        self,
        sequence_id: int,
        variant: str,
        breaker: "Breaker",
        curve_kind: "str | None" = None,
    ) -> FunctionSeriesRepresentation:
        """Store an additional representation of an ingested sequence.

        Paper Section 5.2: "it would be possible to compute and store
        multiple representations and indices for the same data ...
        useful for simultaneously supporting several common query
        forms."  The variant is built from the archived raw data (one
        simulated slow read), stored in the catalog and the local tier
        under its own tag, and returned.
        """
        self._require(sequence_id)
        raw = self.raw_sequence(sequence_id)
        if self.normalize:
            raw = znormalize(raw)
        representation = breaker.represent(raw, curve_kind=curve_kind or breaker.curve_kind)
        self.catalog.put(sequence_id, variant, representation)
        self.local_store.store(sequence_id, representation, tag=variant)
        return representation

    def variant_of(self, sequence_id: int, variant: str) -> FunctionSeriesRepresentation:
        """A previously stored representation variant."""
        return self.catalog.get(sequence_id, variant)

    @_mutator
    def delete(self, sequence_id: int) -> None:
        """Remove a sequence from the database and every index.

        The raw blob stays in the archive (archival media are
        append-only in the paper's setting); everything queryable —
        representation, local-tier blobs, catalog variants, pattern
        indexes, R-R postings, columnar store rows — is removed, so
        subsequent queries never see the sequence and storage
        accounting reflects only live data.  A batch of one through
        :meth:`delete_many`.
        """
        self.delete_many([sequence_id])

    @_mutator
    def delete_many(self, sequence_ids: "Iterable[int]") -> None:
        """Remove many sequences, every index batched (see :meth:`delete`).

        The one deletion path (:meth:`delete` is a batch of one).  End
        state does not depend on how the ids are split into batches,
        and each structure pays its fixed costs once per batch: the
        pattern and behaviour tries drop the ids' strings, the inverted
        R-R index filters its postings file once, and the columnar
        store compacts each touched shard's columns in one sweep —
        bumping each shard's generation (and therefore the result-cache
        epoch) once per shard rather than once per id.
        The whole batch is validated up front; an unknown or duplicate
        id removes nothing.
        """
        requested = list(sequence_ids)
        for sequence_id in requested:
            self._require(sequence_id)
        ids = [int(sequence_id) for sequence_id in requested]
        if len(set(ids)) != len(ids):
            raise QueryError("duplicate sequence ids in delete_many batch")
        if not ids:
            return
        for sequence_id in ids:
            del self._representations[sequence_id]
            del self._names[sequence_id]
            self.local_store.evict(sequence_id)
            self.catalog.remove_sequence(sequence_id)
        self.pattern_index.remove_many(ids)
        self.behavior_index.remove_many(ids)
        self.rr_index.remove_sequences(ids)
        self.store.delete_many(ids)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._representations)

    def __contains__(self, sequence_id: int) -> bool:
        return sequence_id in self._representations

    def ids(self) -> list[int]:
        return sorted(self._representations)

    def name_of(self, sequence_id: int) -> str:
        self._require(sequence_id)
        return self._names[sequence_id]

    def names_of(self, sequence_ids: "Iterable[int]") -> list[str]:
        """Names of many sequences, in order — :meth:`name_of` in bulk.

        Raises the same :class:`QueryError` as :meth:`name_of` on the
        first unknown id.
        """
        names = self._names
        try:
            return [names[sequence_id] for sequence_id in sequence_ids]
        except KeyError as error:
            raise QueryError(f"unknown sequence id {error.args[0]}") from None

    def representation_of(self, sequence_id: int) -> FunctionSeriesRepresentation:
        self._require(sequence_id)
        return self._representations[sequence_id]

    def peak_count_of(self, sequence_id: int) -> int:
        self._require(sequence_id)
        return self.store.peak_count_of(sequence_id)

    def rr_intervals_of(self, sequence_id: int) -> np.ndarray:
        """One sequence's R-R intervals, read from the columnar store.

        Returns a copy: the store compacts its columns on delete, so a
        view would silently change under the caller.
        """
        self._require(sequence_id)
        return self.store.rr_intervals_of(sequence_id)

    def peaks_of(self, sequence_id: int) -> "list[Peak]":
        """Peak records of one sequence (see :func:`find_peaks`)."""
        return find_peaks(self.representation_of(sequence_id), self.theta)

    def peak_table_of(self, sequence_id: int) -> "list[PeakTableRow]":
        """The paper's Table 1 rows for one sequence."""
        return peak_table(self.representation_of(sequence_id), self.theta)

    def has_raw(self, sequence_id: int) -> bool:
        """Whether raw data for a live sequence is actually archived.

        False for sequences ingested via ``insert_representation`` (and
        for everything when the database was built with
        ``keep_raw=False``); such sequences can only be queried through
        their representation.
        """
        self._require(sequence_id)
        return self.keep_raw and sequence_id in self.archive

    def raw_sequence(self, sequence_id: int) -> Sequence:
        """Raw data from the archive — pays the simulated slow-tier cost."""
        self._require(sequence_id)
        if not self.keep_raw:
            raise QueryError("database was built with keep_raw=False")
        return self.archive.retrieve(sequence_id)

    def _require(self, sequence_id: int) -> None:
        if sequence_id not in self._representations:
            raise QueryError(f"unknown sequence id {sequence_id}")

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def query(
        self,
        query: Query,
        include_approximate: bool = True,
        engine: bool = True,
        cache: bool = True,
        limit: "int | None" = None,
    ) -> list[QueryMatch]:
        """Evaluate a query; exact matches first, then by deviation.

        By default the query is planned and executed by the vectorized
        engine (:mod:`repro.engine`); ``engine=False`` runs the legacy
        per-sequence loop instead.  Both paths return identical results
        — the legacy path survives as the engine's correctness oracle.

        ``limit`` keeps only the first ``limit`` matches of the sorted
        answer (a positive integer).  :class:`TopKQuery` carries its
        own ``k`` and rejects an extra ``limit``; for every other query
        the limited answer is cached under its own key, so the same
        query at different limits coexists in the cache and each entry
        is repaired by the top-k heap patch on mutation.

        With ``cache=True`` (the default) the engine consults the
        plan-level result cache: re-running a fingerprinted query on an
        unchanged database returns the memoized answer without planning
        a single stage, and any ``insert``/``delete`` invalidates it
        through the store's generation counter.  ``cache=False`` forces
        a full evaluation (and leaves the cache untouched); the legacy
        path never caches.
        """
        limit = self._validated_limit(query, limit)
        if engine:
            plan = self._planned(query, limit)
            return self.executor.execute(
                self,
                plan,
                include_approximate,
                cache=self.result_cache if cache else None,
            )
        matches = self.query_legacy(query, include_approximate)
        # The legacy loop grades everything; apply the same cut the
        # engine's plan would (a TopKQuery's k, or the explicit limit).
        effective = query.k if isinstance(query, TopKQuery) else limit
        return matches if effective is None else matches[:effective]

    @staticmethod
    def _validated_limit(query: Query, limit: "int | None") -> "int | None":
        if limit is None:
            return None
        if isinstance(limit, bool) or not isinstance(limit, (int, np.integer)) or limit <= 0:
            raise QueryError(f"limit must be a positive integer, got {limit!r}")
        if isinstance(query, TopKQuery):
            raise QueryError(
                "top-k queries carry their own k; build the query with the "
                "wanted k instead of passing limit"
            )
        return int(limit)

    def _planned(self, query: Query, limit: "int | None"):
        """The query's plan with any validated ``limit`` applied."""
        import dataclasses

        plan = self.planner.plan(query, self)
        if limit is not None:
            plan = dataclasses.replace(plan, limit=limit)
        return plan

    def query_legacy(self, query: Query, include_approximate: bool = True) -> list[QueryMatch]:
        """Pre-engine evaluation: per-sequence candidate grading."""
        candidate_ids = query.candidates(self)
        if candidate_ids is None:
            candidate_ids = self.ids()
        matches = []
        for sequence_id in candidate_ids:
            match = query.grade(self, sequence_id)
            if match.is_exact or (include_approximate and match.grade.value == "approximate"):
                matches.append(match)
        return sorted(matches, key=QueryMatch.sort_key)

    def explain(
        self,
        query: Query,
        include_approximate: bool = True,
        limit: "int | None" = None,
    ) -> str:
        """The stage list the engine will run for ``query``.

        A top-k plan renders its pruned pipeline
        (``probe-representatives -> lower-bound-prune -> heap-refine
        [limit=k]``); pass the same ``limit`` as the matching
        :meth:`query` call so the cache verdict inspects the right
        entry.

        Includes the result cache's verdict for this exact evaluation:
        ``cache-hit`` (the stages would be skipped entirely),
        ``cache: delta-revalidated (k dirty)`` (a stale answer would be
        patched by re-grading the ``k`` journal-dirty ids only),
        ``cache-miss`` (the stages run in full and the answer is
        remembered), or ``uncacheable`` (the query has no fingerprint).
        """
        limit = self._validated_limit(query, limit)
        plan = self._planned(query, limit)
        if plan.fingerprint is None:
            state = "uncacheable"
        else:
            key = (plan.fingerprint, bool(include_approximate))
            if plan.limit is not None:
                key = key + (plan.limit,)
            epoch = self.cache_epoch()
            if self.result_cache.peek(key, epoch):
                state = "cache-hit"
            else:
                state = "cache-miss"
                stale = self.result_cache.stale_entry(key, epoch)
                if stale is not None:
                    # The one eligibility rule the evaluation itself
                    # applies — verdict and behaviour cannot diverge.
                    kind, payload = QueryExecutor.revalidation_plan(self, stale, epoch)
                    if kind == "delta":
                        live_dirty, __ = payload
                        state = f"cache: delta-revalidated ({len(live_dirty)} dirty)"
        return f"{plan.describe()} [{state} @ generation {self.store.generation}]"

    def scan_rr(self, target: float, delta: float) -> list[int]:
        """Linear-scan answer to the R-R query (index validation path).

        One vectorized predicate over each shard's stacked R-R column —
        the "scan" is a scan of arrays, not of Python objects.
        """
        matched: "list[int]" = []
        for shard in self.store.shards():
            values = shard.rr_values
            if len(values) == 0:
                continue
            hits = np.abs(values - target) <= delta
            matched.extend(int(s) for s in np.unique(shard.rr_sequences[hits]))
        return sorted(matched)

    def count_matching(self, motif: str, collapse_runs: bool = True) -> int:
        """How many stored sequences contain ``motif`` as a substring.

        The ``COUNT MATCHING '<motif>'`` language form: a
        :class:`~repro.query.queries.CountQuery` over the behavioural
        symbol view (positional with ``collapse_runs=False``), answered
        scan-free under ``symbol_backend="succinct"``.
        """
        from repro.query.queries import CountQuery

        return len(self.query(CountQuery(motif, collapse_runs=collapse_runs)))

    def motif_positions(
        self, motif: str, collapse_runs: bool = True
    ) -> "dict[int, tuple[int, ...]]":
        """Occurrence start offsets of ``motif``, per matching sequence.

        The ``POSITIONS OF '<motif>'`` language form: a
        :class:`~repro.query.queries.MotifQuery`, returned as
        ``{sequence_id: ascending offsets}`` over the chosen symbol
        view.  Sequences without an occurrence are absent.
        """
        from repro.query.queries import MotifQuery

        return {
            match.sequence_id: match.positions
            for match in self.query(MotifQuery(motif, collapse_runs=collapse_runs))
        }

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def cache_stats(self) -> dict:
        """The plan-result cache's counters and estimated footprint."""
        return self.result_cache.stats()

    def save_result_cache(self, path: "str | Path") -> int:
        """Persist the warm plan-result cache entries to ``path``.

        See :func:`repro.storage.catalog.save_result_cache`; returns the
        number of entries written.
        """
        from repro.storage.catalog import save_result_cache

        return save_result_cache(self, path)

    def load_result_cache(self, path: "str | Path") -> int:
        """Adopt a persisted cache snapshot, if it still matches.

        See :func:`repro.storage.catalog.load_result_cache`; returns the
        number of entries adopted (0 when the data has mutated
        underneath the snapshot).
        """
        from repro.storage.catalog import load_result_cache

        return load_result_cache(self, path)

    def storage_report(self) -> dict:
        """Byte totals and compression for the storage benchmarks.

        Alongside the paper's raw-vs-representation accounting, reports
        the engine's columnar allocation (``engine_bytes``, growth
        headroom included), the plan-result cache's counters and
        estimated resident bytes (``result_cache``, including
        ``revalidations`` / ``delta_hits`` / ``delta_fallbacks`` and
        the top-k counters ``topk_entries`` / ``topk_refills``), the
        mutation journal's footprint (``journal``: retained entries,
        estimated bytes, rebase floor, compactions), and the cluster-
        representative pruning telemetry (``topk``: representatives,
        builds/rebuilds, clusters probed and pruned, candidates
        refined, early abandons, and the last query's pruned fraction),
        the executor's backend/pool telemetry (``executor``: backend
        name, query/retry/fallback counters and, for pooled backends,
        worker and dispatch counts), the succinct symbol-index
        telemetry (``succinct``: backend, bits per symbol, rank
        blocks, builds/rebuilds/patches, overlay size), and the
        shared-memory arena's block accounting (``shared_memory``:
        live blocks, bytes, retired counts — ``None`` when columns
        live on the heap).
        """
        raw_bytes = self.archive.total_bytes()
        rep_bytes = self.local_store.total_bytes()
        total_segments = sum(len(r) for r in self._representations.values())
        total_points = sum(r.source_length for r in self._representations.values())
        return {
            "sequences": len(self),
            "total_points": total_points,
            "total_segments": total_segments,
            "raw_bytes": raw_bytes,
            "representation_bytes": rep_bytes,
            "engine_bytes": self.store.nbytes,
            "result_cache": self.cache_stats(),
            "journal": self.store.journal_stats(),
            "topk": self.store.cluster_report(),
            "succinct": self.store.succinct_report(),
            "executor": self.executor.stats(),
            "shared_memory": self._arena.stats() if self._arena is not None else None,
            "byte_compression": raw_bytes / rep_bytes if rep_bytes else float("inf"),
            "paper_convention_compression": (
                total_points / (3 * total_segments) if total_segments else float("inf")
            ),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release pooled workers and shared-memory blocks (idempotent).

        Heap-backed, serially executed databases have nothing to
        release and every database stays usable after ``close`` for
        reads of heap state — but a shared-memory-backed store's
        columns are freed here, so treat ``close`` as end-of-life.
        Garbage collection would get there eventually (the arena and
        pools have finalizers); serving code should still close
        deterministically, and the analyzer's RL006 rule holds the
        engine layer to the same standard.
        """
        closer = getattr(self.executor, "close", None)
        if closer is not None:
            closer()
        if self._arena is not None:
            self._arena.close()

    def __enter__(self) -> "SequenceDatabase":
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> None:
        self.close()
