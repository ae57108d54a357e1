"""Query plans: the staged form a query takes inside the engine.

A :class:`QueryPlan` decomposes query evaluation into up to four
stages, each optional except the last:

``probe``
    Index lookup producing a candidate id list with no false dismissals
    (``None`` means every live sequence is a candidate) — the same
    contract as the legacy ``Query.candidates``.
``prefilter``
    A columnar narrowing pass: drops candidates that the columnar store
    proves can only be rejected (e.g. a shape query's symbol-structure
    mismatch, an exemplar query's length mismatch).  Must never drop a
    candidate that could grade exact or approximate.
``vector_filter``
    Full vectorized grading: one NumPy predicate per feature dimension
    over the columnar store, returning :class:`VectorVerdicts`.  Plans
    with this stage never touch per-sequence Python grading.
``residual``
    Per-sequence scalar grading, used when no ``vector_filter`` exists
    (shape/exemplar/pattern queries and third-party ``Query``
    subclasses).  This is exactly the legacy ``Query.grade``.

Top-k plans replace the per-store stages with a single ``topk`` stage
(sketch lower bound, seed refine, bounded refine — see
:mod:`repro.engine.clustering`) that each shard runs over its own
profile index; the executor merges the per-shard partial answers and
cuts the result at ``limit``.  ``limit`` alone (no ``topk`` stage)
truncates an ordinary plan's sorted matches — the ``db.query(...,
limit=k)`` form for queries without a distance-pruned path.

``collect`` plans are the whole-shard analogue without a heap: each
shard produces its complete match list in one stage (e.g. a motif
query reading positions straight off the succinct symbol index) and
the executor merges the per-shard lists in sort order — the
scatter-gather shape of ``topk`` with no cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.query.results import QueryMatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.columnar import ColumnarSegmentStore
    from repro.query.database import SequenceDatabase
    from repro.query.queries import Query

__all__ = ["DimensionColumn", "VectorVerdicts", "QueryPlan"]


@dataclass(frozen=True)
class DimensionColumn:
    """Per-candidate deviation amounts along one feature dimension."""

    dimension: str
    amounts: np.ndarray
    bound: float


@dataclass(frozen=True)
class VectorVerdicts:
    """Output of a vectorized filter stage.

    ``sequence_ids[i]`` deviates ``dimensions[d].amounts[i]`` along each
    graded dimension; the executor turns these arrays into graded
    :class:`~repro.query.results.QueryMatch` objects without touching
    per-sequence Python code.
    """

    sequence_ids: np.ndarray
    dimensions: "tuple[DimensionColumn, ...]"


ProbeStage = Callable[["SequenceDatabase"], "list[int] | None"]
PrefilterStage = Callable[
    ["SequenceDatabase", "ColumnarSegmentStore", "list[int] | None"], "list[int]"
]
VectorStage = Callable[
    ["SequenceDatabase", "ColumnarSegmentStore", "list[int] | None"], VectorVerdicts
]
ResidualStage = Callable[["SequenceDatabase", int], QueryMatch]
TopKStage = Callable[
    ["SequenceDatabase", "ColumnarSegmentStore", bool], "list[QueryMatch]"
]


@dataclass(frozen=True)
class QueryPlan:
    """An executable staged plan for one query.

    ``fingerprint`` is the query's content key for the plan-level result
    cache (:mod:`repro.engine.cache`): two queries with equal
    fingerprints must produce equal results against the same store
    generation.  ``None`` means the plan's results are uncacheable.
    """

    query: "Query"
    residual: ResidualStage
    probe: "ProbeStage | None" = None
    prefilter: "PrefilterStage | None" = None
    vector_filter: "VectorStage | None" = None
    topk: "TopKStage | None" = None
    collect: "TopKStage | None" = None
    limit: "int | None" = None
    label: str = ""
    fingerprint: "tuple | None" = None

    def stages(self) -> "list[str]":
        """Human-readable stage list, in execution order."""
        if self.topk is not None:
            return ["sketch-bound", "seed-refine", "bounded-refine"]
        if self.collect is not None:
            return ["motif-collect"]
        names = []
        if self.probe is not None:
            names.append("index-probe")
        if self.prefilter is not None:
            names.append("columnar-prefilter")
        if self.vector_filter is not None:
            names.append("vectorized-grade")
        else:
            names.append("residual-grade")
        return names

    def describe(self) -> str:
        label = self.label or type(self.query).__name__
        described = f"{label}: {' -> '.join(self.stages())}"
        if self.limit is not None:
            described += f" [limit={self.limit}]"
        return described
