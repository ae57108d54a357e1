"""Execution engine: columnar storage and vectorized query plans.

The engine layer stores every ingested representation column-wise
(:class:`ColumnarSegmentStore`, including the int8 slope-sign symbol
columns) — optionally split into independent per-sequence shards
(:class:`ShardedSegmentStore`) — and evaluates queries as staged plans
(:class:`QueryPlan`) of index probe, columnar prefilter, vectorized
grading and residual per-sequence grading, built by the
:class:`QueryPlanner` and run by the :class:`QueryExecutor`.  On a
sharded store the per-store stages scatter across shards and gather
deterministically; :class:`ParallelExecutor` runs the scatter on a
thread pool.  Pattern queries vectorize through
:class:`ColumnPatternMatcher` (a tabulated DFA run over the symbol
columns), and graded result lists are memoized per store generation by
:class:`PlanResultCache` under entry-count and byte budgets.  Every
mutation additionally records its touched ids in a per-shard
:class:`MutationJournal`, which the executor replays to
*delta-revalidate* stale cached answers — only the journal-dirty ids
re-grade (:meth:`QueryExecutor.run_stages_subset`), the cached verdict
list is patched in place, and a compacted journal falls back to a full
re-grade.

Concurrent serving adds snapshot reads and a process backend: every
execution pins a :class:`SnapshotToken` (per-shard generations plus
seqlock words) and retries — never returns — a read that observed a
concurrent mutation (:class:`SnapshotMoved`); shard columns can be
backed by named shared-memory blocks (:class:`SharedMemoryArena`) so
:class:`ProcessParallelExecutor` scatters stages to worker *processes*
that attach the blocks by name, zero-copy, and re-run the same stage
code byte-identically.

Top-k similarity search adds a pruned path: each leaf store lazily
builds a :class:`ClusterIndex` (:mod:`repro.engine.clustering`) —
profile features and PAA sketches maintained through the same mutation
journal — and a top-k plan's single stage bounds every row by its
sketch, refines the rows no cheaper proof removes with early
abandoning, per shard, merged and cut at ``k`` by the executor.

Succinct symbol columns (:mod:`repro.engine.succinct`) add a scan-free
counting path: under ``symbol_backend="succinct"`` each leaf store
lazily builds a :class:`SuccinctSymbolIndex` — rank/select bitvectors
composed into wavelet matrices over both symbol views, maintained
through the same mutation journal — and count/position queries answer
from rank/select probes, byte-identical to the uncompressed scan
oracle.
"""

from repro.engine.cache import PlanResultCache
from repro.engine.clustering import ClusterIndex
from repro.engine.columnar import SYMBOL_BACKENDS, ColumnarSegmentStore
from repro.engine.executor import QueryExecutor, QueryPlanner
from repro.engine.journal import JournalEntry, MutationJournal
from repro.engine.nfa import ColumnPatternMatcher
from repro.engine.parallel import ParallelExecutor
from repro.engine.plan import DimensionColumn, QueryPlan, VectorVerdicts
from repro.engine.procpool import ProcessParallelExecutor
from repro.engine.sharding import ShardedSegmentStore
from repro.engine.shm import SharedMemoryArena
from repro.engine.snapshot import SnapshotMoved, SnapshotToken
from repro.engine.succinct import BitVector, SuccinctSymbolIndex, WaveletMatrix

__all__ = [
    "BitVector",
    "ClusterIndex",
    "ColumnarSegmentStore",
    "SuccinctSymbolIndex",
    "SYMBOL_BACKENDS",
    "WaveletMatrix",
    "ColumnPatternMatcher",
    "JournalEntry",
    "MutationJournal",
    "ParallelExecutor",
    "PlanResultCache",
    "ProcessParallelExecutor",
    "QueryPlan",
    "QueryPlanner",
    "QueryExecutor",
    "ShardedSegmentStore",
    "SharedMemoryArena",
    "SnapshotMoved",
    "SnapshotToken",
    "DimensionColumn",
    "VectorVerdicts",
]
