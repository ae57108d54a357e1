"""Generalized approximate query types (paper Sections 2.2 and 5.2).

Each query denotes a *set* of sequences closed under feature-preserving
transformations; evaluation grades every candidate as exact (a member
of the set), approximate (within per-dimension tolerances) or rejected.
The concrete types:

:class:`PatternQuery`
    A regular expression over the slope alphabet — the goal-post fever
    query shape.  Membership is exact by construction; there is no
    metric dimension.
:class:`PeakCountQuery`
    "Exactly k peaks", with an optional count tolerance — the explicit
    feature-dimension version of the same query, graded along the
    ``peak_count`` dimension.
:class:`IntervalQuery`
    "R-R interval of length n ± delta" (Section 5.2), answered through
    the inverted-file index and graded along the ``rr_interval``
    dimension.
:class:`SteepnessQuery`
    "Sudden vigorous activity": at least one rising segment of slope >=
    ``min_slope``, graded along the ``steepness`` dimension — the
    paper's "steepness of the slopes" approximation dimension.
:class:`ShapeQuery`
    Query *by exemplar* — "the query can be an exemplar or an
    expression" (Section 2.2).  The exemplar is broken and reduced to a
    scale-free shape signature; candidates with the same behavioural
    structure match, graded along the ``shape_duration`` and
    ``shape_amplitude`` dimensions (both zero for candidates related to
    the exemplar by shift / scale / dilation / contraction).
:class:`ExemplarQuery`
    The old value-based notion (Figure 1), kept for head-to-head
    comparisons; graded along the ``value_distance`` dimension.
:class:`TopKQuery`
    The ``k`` stored sequences most similar to an exemplar, by
    Euclidean distance between resampled representation profiles
    (:mod:`repro.engine.clustering`) — graded along the
    ``profile_distance`` dimension and evaluated through the
    lower-bound pruned search (sketch bound, seed refine, bounded
    refine with early abandoning).
:class:`CountQuery`
    "How many sequences contain this motif" — substring containment of
    a literal slope-symbol motif, exact by construction.  Under the
    ``succinct`` symbol backend the stage is answered from rank/select
    probes on the wavelet-matrix symbol index
    (:mod:`repro.engine.succinct`) with no column scan; the
    ``uncompressed`` backend scans with the shared motif kernel, which
    is also the byte-parity oracle.
:class:`MotifQuery`
    "Where does this motif occur" — the position-reporting sibling of
    :class:`CountQuery`: every match carries the ascending start
    offsets of the motif's occurrences inside the sequence's symbol
    view (``QueryMatch.positions``), evaluated as a whole-shard
    ``collect`` stage and merged scatter-gather like top-k.

Evaluation is organized as *plan stages* (see
:mod:`repro.engine.plan`): each query builds a
:class:`~repro.engine.plan.QueryPlan` of index probe, columnar
prefilter, vectorized grading and residual scalar grading.
``PeakCountQuery``, ``IntervalQuery`` and ``SteepnessQuery`` grade
entirely as NumPy predicates over the columnar store;
``ShapeQuery``/``ExemplarQuery`` prefilter columnarly before falling
back to per-sequence grading.  The pre-engine API survives as thin
wrappers: ``candidates`` is the plan's probe stage and ``grade`` its
residual stage.
"""

from __future__ import annotations

import abc
import hashlib
import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import PatternSyntaxError, QueryError
from repro.core.sequence import Sequence
from repro.core.representation import SYMBOL_CODES, run_start_mask
from repro.core.tolerance import (
    EXACT_EPSILON,
    WITHIN_EPSILON,
    DimensionDeviation,
    MatchGrade,
    Tolerance,
    grade_deviations,
)
from repro.engine.nfa import ColumnPatternMatcher
from repro.engine.plan import DimensionColumn, QueryPlan, VectorVerdicts
from repro.engine.succinct import column_motif_hits, motif_occurrences
from repro.patterns.regex import SymbolPattern
from repro.query.results import QueryMatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.columnar import ColumnarSegmentStore
    from repro.query.database import SequenceDatabase

__all__ = [
    "Query",
    "PatternQuery",
    "PeakCountQuery",
    "IntervalQuery",
    "SteepnessQuery",
    "ShapeQuery",
    "ExemplarQuery",
    "TopKQuery",
    "CountQuery",
    "MotifQuery",
]

def _exemplar_digest(exemplar: object) -> str:
    """Content hash of a query exemplar (raw sequence or representation).

    Used as the exemplar part of a query fingerprint: two exemplars with
    equal digests query identically, and — unlike ``id()`` — a digest
    can never be recycled onto different data.
    """
    from repro.core.representation import FunctionSeriesRepresentation

    digest = hashlib.sha1()
    if isinstance(exemplar, Sequence):
        digest.update(np.ascontiguousarray(exemplar.times).tobytes())
        digest.update(np.ascontiguousarray(exemplar.values).tobytes())
    elif isinstance(exemplar, FunctionSeriesRepresentation):
        columns = exemplar.segment_columns()
        for name in sorted(columns):
            digest.update(np.ascontiguousarray(columns[name]).tobytes())
        digest.update(str(exemplar.source_length).encode())
    else:  # pragma: no cover - constructors validate exemplar types
        raise QueryError(f"cannot fingerprint exemplar of type {type(exemplar).__name__}")
    return digest.hexdigest()


class Query(abc.ABC):
    """A generalized approximate query."""

    def candidates(self, database: "SequenceDatabase") -> "list[int] | None":
        """Index-assisted candidate ids, or None to scan everything.

        Candidate sets must have no false dismissals for the query's
        tolerance; grading re-checks every candidate anyway.  This is
        the plan's probe stage under its pre-engine name.
        """
        return None

    @abc.abstractmethod
    def grade(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        """Grade one stored sequence against this query.

        This is the plan's residual stage under its pre-engine name.
        """

    def fingerprint(self) -> "tuple | None":
        """Content key for the plan-level result cache, or None.

        Two queries with equal fingerprints must return equal results
        against the same database state.  The default ``None`` marks the
        query uncacheable, which is always safe — third-party subclasses
        opt in by returning a tuple of their defining parameters.
        """
        return None

    def plan(self, database: "SequenceDatabase") -> QueryPlan:
        """The staged execution plan for this query.

        The default plan runs ``candidates`` as the probe and ``grade``
        as the residual stage, so any third-party subclass evaluates
        through the engine unchanged; built-in queries override this
        with vectorized or prefiltered stages.
        """
        return QueryPlan(
            query=self,
            probe=self.candidates,
            residual=self.grade,
            fingerprint=self.fingerprint(),
        )


class PatternQuery(Query):
    """Full-sequence behaviour pattern over the slope alphabet.

    Under the engine the pattern is tabulated into a DFA transition
    table (:mod:`repro.patterns.automata`) and run across the columnar
    store's symbol columns as a single vectorized stage
    (:class:`~repro.engine.nfa.ColumnPatternMatcher`): the behavioural
    (run-collapsed) column by default, the positional column with
    ``collapse_runs=False``.  Membership is exact by construction, so
    the stage emits verdicts with no metric dimensions — byte-identical
    to the legacy per-sequence NFA path, minus the Python loop.
    """

    def __init__(self, pattern: "str | SymbolPattern", collapse_runs: bool = True) -> None:
        self._pattern = SymbolPattern.compile(pattern)
        self._collapse_runs = collapse_runs
        self._matcher: "ColumnPatternMatcher | None" = None
        self._matcher_failed = False

    @property
    def pattern(self) -> SymbolPattern:
        """The compiled pattern — fixed at construction.

        The tabulated DFA matcher and the cache fingerprint are derived
        from it; build a new query to match a different pattern.
        """
        return self._pattern

    @property
    def collapse_runs(self) -> bool:
        """Which symbol view is matched — fixed at construction."""
        return self._collapse_runs

    def candidates(self, database: "SequenceDatabase") -> "list[int] | None":
        return self._probe(database)

    def grade(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        return self._grade_scalar(database, sequence_id)

    def fingerprint(self) -> tuple:
        return (type(self).__qualname__, self.pattern.source, self.collapse_runs)

    def plan(self, database: "SequenceDatabase") -> QueryPlan:
        if self._column_matcher() is None:
            # Tabulation budget exceeded: stay on the index-probe + NFA path.
            return QueryPlan(
                query=self,
                probe=self._probe,
                residual=self._grade_scalar,
                label="pattern",
                fingerprint=self.fingerprint(),
            )
        return QueryPlan(
            query=self,
            vector_filter=self._vector_filter,
            residual=self._grade_scalar,
            label="pattern",
            fingerprint=self.fingerprint(),
        )

    # Memo writes below are warmed by plan() on the caller's thread
    # before any stage scatters; shard workers only ever read them.
    def _column_matcher(self) -> "ColumnPatternMatcher | None":  # repro: ignore[RL004]
        if self._matcher is None and not self._matcher_failed:
            try:
                self._matcher = ColumnPatternMatcher.for_pattern(self.pattern)
            except PatternSyntaxError:
                self._matcher_failed = True
        return self._matcher

    def _vector_filter(
        self,
        database: "SequenceDatabase",
        store: "ColumnarSegmentStore",
        candidate_ids: "list[int] | None",
    ) -> VectorVerdicts:
        matcher = self._column_matcher()
        if self.collapse_runs:
            symbols = store.behavior_symbols
            starts = store.behavior_starts
            counts = store.behavior_counts
        else:
            symbols = store.segment_symbols
            starts = store.segment_starts
            counts = store.segment_counts
        if candidate_ids is None:
            ids = store.sequence_ids
        else:
            positions = store.positions_of(candidate_ids)
            ids = store.sequence_ids[positions]
            starts = starts[positions]
            counts = counts[positions]
        accepted = matcher.fullmatch_column(symbols, starts, counts)
        return VectorVerdicts(ids[accepted], ())

    def _probe(self, database: "SequenceDatabase") -> "list[int]":
        index = database.behavior_index if self.collapse_runs else database.pattern_index
        return index.match_full(self.pattern)

    def _grade_scalar(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        index = database.behavior_index if self.collapse_runs else database.pattern_index
        symbols = index.symbols_of(sequence_id)
        grade = MatchGrade.EXACT if self.pattern.fullmatch(symbols) else MatchGrade.REJECT
        return QueryMatch(sequence_id, database.name_of(sequence_id), grade)


class _SymbolMotifQuery(Query):
    """Shared machinery of the motif (counting / position) query family.

    A *motif* is a literal string over the slope alphabet (``+``, ``-``,
    ``0``) matched as a substring of one symbol view — the behavioural
    (run-collapsed) view by default, the positional view with
    ``collapse_runs=False``.  Membership is exact by construction, so
    the family emits no metric dimensions.

    Both backends answer through the same reductions: the
    ``uncompressed`` path scans the symbol columns with the shared
    motif kernels (:func:`repro.engine.succinct.column_motif_hits`),
    the ``succinct`` path reads the per-shard rank/select index —
    whose answers are byte-identical to those kernels by construction.
    """

    def __init__(self, motif: str, collapse_runs: bool = True) -> None:
        motif = str(motif)
        if not motif:
            raise QueryError("motif must not be empty")
        unknown = sorted(set(motif) - set(SYMBOL_CODES))
        if unknown:
            raise QueryError(
                f"motif may only use the slope symbols "
                f"{sorted(SYMBOL_CODES)}, got {unknown}"
            )
        self._motif = motif
        self._collapse_runs = bool(collapse_runs)
        self._codes = np.array([SYMBOL_CODES[ch] for ch in motif], dtype=np.int8)

    @property
    def motif(self) -> str:
        """The literal slope-symbol motif — fixed at construction."""
        return self._motif

    @property
    def collapse_runs(self) -> bool:
        """Which symbol view is searched — fixed at construction."""
        return self._collapse_runs

    def fingerprint(self) -> tuple:
        return (type(self).__qualname__, self.motif, self.collapse_runs)

    # The succinct indexes are built (or journal-synced) by plan() on
    # the caller's thread before any stage scatters; shard workers only
    # ever re-enter the accessor at the same generation, where sync is
    # a pure no-op read.
    def _warm_succinct(self, database: "SequenceDatabase") -> None:
        store = getattr(database, "store", None)
        if store is None or getattr(store, "symbol_backend", None) != "succinct":
            return
        for shard in store.shards():
            shard.succinct_index()

    @staticmethod
    def _use_succinct(store: "ColumnarSegmentStore") -> bool:
        return getattr(store, "symbol_backend", None) == "succinct"

    def _view_arrays(
        self, store: "ColumnarSegmentStore"
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        if self._collapse_runs:
            return store.behavior_symbols, store.behavior_starts, store.behavior_counts
        return store.segment_symbols, store.segment_starts, store.segment_counts

    def _occurrences_scan(
        self, store: "ColumnarSegmentStore"
    ) -> "tuple[np.ndarray, np.ndarray]":
        """One shard's ``(owner_rows, offsets)`` via the scan oracle."""
        symbols, starts, counts = self._view_arrays(store)
        return column_motif_hits(symbols, starts, counts, self._codes)

    def _sequence_occurrences(
        self, database: "SequenceDatabase", sequence_id: int
    ) -> np.ndarray:
        """One sequence's occurrence offsets — the residual-grade path."""
        store = database.store.shard_of(sequence_id)
        symbols, __, ___ = self._view_arrays(store)
        if self._collapse_runs:
            lo, hi = store.behavior_range(sequence_id)
        else:
            lo, hi = store.segment_range(sequence_id)
        return motif_occurrences(symbols[lo:hi], self._codes)


class CountQuery(_SymbolMotifQuery):
    """Sequences containing a literal slope-symbol motif.

    ``len(db.query(CountQuery("+-+")))`` is "how many sequences contain
    up-down-up"; the language form is ``COUNT MATCHING '+-+'``.  The
    stage is a vector filter, so it scatters per shard and crosses
    process boundaries under ``backend="process"`` — succinct-backed
    workers answer from the shared-memory bitvectors zero-copy.
    """

    def grade(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        return self._grade_scalar(database, sequence_id)

    def plan(self, database: "SequenceDatabase") -> QueryPlan:
        self._warm_succinct(database)
        return QueryPlan(
            query=self,
            vector_filter=self._vector_filter,
            residual=self._grade_scalar,
            label="count-matching",
            fingerprint=self.fingerprint(),
        )

    def _vector_filter(
        self,
        database: "SequenceDatabase",
        store: "ColumnarSegmentStore",
        candidate_ids: "list[int] | None",
    ) -> VectorVerdicts:
        if self._use_succinct(store):
            ids = store.succinct_index().sequences_containing(
                self._codes, self._collapse_runs
            )
        else:
            owners, __ = self._occurrences_scan(store)
            ids = (
                store.sequence_ids[np.unique(owners)]
                if owners.size
                else np.empty(0, dtype=np.int64)
            )
        if candidate_ids is not None:
            ids = np.intersect1d(ids, np.asarray(candidate_ids, dtype=np.int64))
        return VectorVerdicts(ids.astype(np.int64, copy=False), ())

    def _grade_scalar(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        hits = self._sequence_occurrences(database, sequence_id)
        grade = MatchGrade.EXACT if hits.size else MatchGrade.REJECT
        return QueryMatch(sequence_id, database.name_of(sequence_id), grade)


class MotifQuery(_SymbolMotifQuery):
    """Positions where a literal slope-symbol motif occurs.

    Every match's ``positions`` tuple holds the ascending start offsets
    of the motif inside the sequence's symbol view; the language form
    is ``POSITIONS OF '+-+'``.  Evaluated as a whole-shard ``collect``
    stage — each shard reads its complete answer off the succinct index
    (or the scan kernel) and the executor merges in sort order, the
    scatter-gather shape of top-k with no cut.
    """

    def grade(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        return self._grade_scalar(database, sequence_id)

    def plan(self, database: "SequenceDatabase") -> QueryPlan:
        self._warm_succinct(database)
        return QueryPlan(
            query=self,
            collect=self._collect_stage,
            residual=self._grade_scalar,
            label="motif-positions",
            fingerprint=self.fingerprint(),
        )

    def _collect_stage(
        self,
        database: "SequenceDatabase",
        store: "ColumnarSegmentStore",
        include_approximate: bool,
    ) -> "list[QueryMatch]":
        if self._use_succinct(store):
            found = store.succinct_index().occurrences(self._codes, self._collapse_runs)
        else:
            owners, offsets = self._occurrences_scan(store)
            found = []
            if owners.size:
                # Global hits ascend, so owner rows arrive grouped and
                # each group's offsets already ascend.
                boundaries = np.flatnonzero(np.diff(owners)) + 1
                ids = store.sequence_ids
                for rows, offs in zip(
                    np.split(owners, boundaries), np.split(offsets, boundaries)
                ):
                    found.append((int(ids[rows[0]]), offs))
        return [
            QueryMatch(
                int(sequence_id),
                database.name_of(int(sequence_id)),
                MatchGrade.EXACT,
                (),
                tuple(int(offset) for offset in offs),
            )
            for sequence_id, offs in found
        ]

    def _grade_scalar(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        hits = self._sequence_occurrences(database, sequence_id)
        if hits.size:
            return QueryMatch(
                sequence_id,
                database.name_of(sequence_id),
                MatchGrade.EXACT,
                (),
                tuple(int(offset) for offset in hits),
            )
        return QueryMatch(sequence_id, database.name_of(sequence_id), MatchGrade.REJECT)


class PeakCountQuery(Query):
    """Sequences with a prescribed number of peaks."""

    def __init__(self, count: int, count_tolerance: int = 0) -> None:
        if count < 0:
            raise QueryError("peak count must be non-negative")
        self._count = int(count)
        self._tolerance = Tolerance("peak_count", float(count_tolerance))

    @property
    def count(self) -> int:
        """The required peak count — fixed at construction."""
        return self._count

    @property
    def tolerance(self) -> Tolerance:
        """The ``peak_count`` tolerance — fixed at construction."""
        return self._tolerance

    def grade(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        return self._grade_scalar(database, sequence_id)

    def fingerprint(self) -> tuple:
        return (type(self).__qualname__, self.count, self.tolerance.bound)

    def plan(self, database: "SequenceDatabase") -> QueryPlan:
        return QueryPlan(
            query=self,
            vector_filter=self._vector_filter,
            residual=self._grade_scalar,
            label="peak-count",
            fingerprint=self.fingerprint(),
        )

    def _vector_filter(
        self,
        database: "SequenceDatabase",
        store: "ColumnarSegmentStore",
        candidate_ids: "list[int] | None",
    ) -> VectorVerdicts:
        if candidate_ids is None:
            ids = store.sequence_ids
            observed = store.peak_counts
        else:
            positions = store.positions_of(candidate_ids)
            ids = store.sequence_ids[positions]
            observed = store.peak_counts[positions]
        amounts = np.abs(float(self.count) - observed.astype(np.float64))
        return VectorVerdicts(
            ids, (DimensionColumn("peak_count", amounts, self.tolerance.bound),)
        )

    def _grade_scalar(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        observed = database.peak_count_of(sequence_id)
        deviation = self.tolerance.deviation(float(self.count), float(observed))
        return QueryMatch(
            sequence_id,
            database.name_of(sequence_id),
            grade_deviations([deviation]),
            (deviation,),
        )


class IntervalQuery(Query):
    """Some inter-peak (R-R) interval within ``target ± delta``.

    Exact means an interval of exactly ``target``; anything else within
    ``delta`` is an approximate match along the ``rr_interval``
    dimension — "a result is an approximate match if the distance
    between its peaks is within delta distance from n" (Section 5.2).
    """

    def __init__(self, target: float, delta: float) -> None:
        if target <= 0:
            raise QueryError("interval target must be positive")
        self._target = float(target)
        self._tolerance = Tolerance("rr_interval", float(delta))

    @property
    def target(self) -> float:
        """The sought interval length — fixed at construction."""
        return self._target

    @property
    def tolerance(self) -> Tolerance:
        """The ``rr_interval`` tolerance — fixed at construction."""
        return self._tolerance

    def candidates(self, database: "SequenceDatabase") -> "list[int] | None":
        return self._probe(database)

    def grade(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        return self._grade_scalar(database, sequence_id)

    def fingerprint(self) -> tuple:
        return (type(self).__qualname__, self.target, self.tolerance.bound)

    def plan(self, database: "SequenceDatabase") -> QueryPlan:
        return QueryPlan(
            query=self,
            probe=self._probe,
            vector_filter=self._vector_filter,
            residual=self._grade_scalar,
            label="rr-interval",
            fingerprint=self.fingerprint(),
        )

    def _probe(self, database: "SequenceDatabase") -> "list[int]":
        return database.rr_index.sequences_near(self.target, self.tolerance.bound)

    def _vector_filter(
        self,
        database: "SequenceDatabase",
        store: "ColumnarSegmentStore",
        candidate_ids: "list[int] | None",
    ) -> VectorVerdicts:
        if candidate_ids is None:
            positions = np.arange(store.n_sequences)
        else:
            positions = store.positions_of(candidate_ids)
        ids = store.sequence_ids[positions]
        starts = store.rr_starts[positions]
        counts = store.rr_counts[positions]
        amounts = np.full(len(positions), np.inf)
        populated = counts > 0
        if bool(populated.any()):
            # Ragged gather: concatenate each candidate's R-R rows, then
            # reduce per candidate — no per-sequence Python loop.
            sub_starts = starts[populated]
            sub_counts = counts[populated]
            offsets = np.zeros(len(sub_counts), dtype=np.int64)
            np.cumsum(sub_counts[:-1], out=offsets[1:])
            gather = np.repeat(sub_starts - offsets, sub_counts) + np.arange(
                int(sub_counts.sum()), dtype=np.int64
            )
            deviations = np.abs(store.rr_values[gather] - self.target)
            amounts[populated] = np.minimum.reduceat(deviations, offsets)
        return VectorVerdicts(
            ids, (DimensionColumn("rr_interval", amounts, self.tolerance.bound),)
        )

    def _grade_scalar(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        intervals = database.rr_intervals_of(sequence_id)
        if len(intervals) == 0:
            deviation = DimensionDeviation("rr_interval", float("inf"), self.tolerance.bound)
        else:
            best = float(np.abs(np.asarray(intervals) - self.target).min())
            deviation = DimensionDeviation("rr_interval", best, self.tolerance.bound)
        return QueryMatch(
            sequence_id,
            database.name_of(sequence_id),
            grade_deviations([deviation]),
            (deviation,),
        )


class SteepnessQuery(Query):
    """At least one rise at least ``min_slope`` steep.

    The ``steepness`` deviation is the shortfall of the steepest
    observed rise; sequences whose steepest rise is within
    ``slope_tolerance`` of the requirement match approximately.
    """

    def __init__(self, min_slope: float, slope_tolerance: float = 0.0) -> None:
        if min_slope <= 0:
            raise QueryError("min_slope must be positive")
        self._min_slope = float(min_slope)
        self._tolerance = Tolerance("steepness", float(slope_tolerance))

    @property
    def min_slope(self) -> float:
        """The required rise steepness — fixed at construction."""
        return self._min_slope

    @property
    def tolerance(self) -> Tolerance:
        """The ``steepness`` tolerance — fixed at construction."""
        return self._tolerance

    def grade(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        return self._grade_scalar(database, sequence_id)

    def fingerprint(self) -> tuple:
        return (type(self).__qualname__, self.min_slope, self.tolerance.bound)

    def plan(self, database: "SequenceDatabase") -> QueryPlan:
        return QueryPlan(
            query=self,
            vector_filter=self._vector_filter,
            residual=self._grade_scalar,
            label="steepness",
            fingerprint=self.fingerprint(),
        )

    def _vector_filter(
        self,
        database: "SequenceDatabase",
        store: "ColumnarSegmentStore",
        candidate_ids: "list[int] | None",
    ) -> VectorVerdicts:
        if candidate_ids is None:
            ids = store.sequence_ids
            steepest = store.max_rising_slopes
        else:
            positions = store.positions_of(candidate_ids)
            ids = store.sequence_ids[positions]
            steepest = store.max_rising_slopes[positions]
        amounts = np.maximum(0.0, self.min_slope - steepest)
        return VectorVerdicts(
            ids, (DimensionColumn("steepness", amounts, self.tolerance.bound),)
        )

    def _grade_scalar(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        representation = database.representation_of(sequence_id)
        rising = [s for s in representation.slopes() if s > 0]
        steepest = max(rising) if rising else 0.0
        shortfall = max(0.0, self.min_slope - steepest)
        deviation = DimensionDeviation("steepness", shortfall, self.tolerance.bound)
        return QueryMatch(
            sequence_id,
            database.name_of(sequence_id),
            grade_deviations([deviation]),
            (deviation,),
        )


class TopKQuery(Query):
    """The ``k`` most similar stored sequences to an exemplar.

    Similarity is the Euclidean distance between *profiles* — the
    representation resampled at :data:`repro.engine.clustering.N_FEATURES`
    uniformly spaced times (:func:`repro.engine.clustering.profile_features`)
    — so the query runs entirely on the reduced representation tier, no
    raw-archive reads.  ``max_distance`` (optional) caps how far a
    reported neighbour may be; results within it grade approximate
    along the ``profile_distance`` dimension, zero-distance results
    grade exact.

    The plan has a single ``topk`` stage: each shard's
    :class:`~repro.engine.clustering.ClusterIndex` runs
    sketch-bound → seed-refine → bounded-refine over its own rows, and
    the executor merges the per-shard partial answers and
    cuts at ``k``.  Pruning is lossless (the sketch lower bound never
    exceeds the true distance), so the answer is identical — match for
    match, float for float — to grading every stored sequence through
    the same distance kernel and keeping the ``k`` best, ties broken
    toward the smaller sequence id.  The residual stage grades one
    sequence through the identical kernel; it backs ``query_legacy``
    and the cached heap's delta repair.
    """

    def __init__(
        self,
        exemplar: "Sequence | object",
        k: int,
        max_distance: float = float("inf"),
    ) -> None:
        from repro.core.representation import FunctionSeriesRepresentation

        if not isinstance(exemplar, (Sequence, FunctionSeriesRepresentation)):
            raise QueryError("exemplar must be a Sequence or a FunctionSeriesRepresentation")
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k <= 0:
            raise QueryError(f"k must be a positive integer, got {k!r}")
        max_distance = float(max_distance)
        if not max_distance >= 0.0:  # also rejects NaN
            raise QueryError("max_distance must be non-negative")
        self._exemplar = exemplar
        self._k = int(k)
        self._tolerance = Tolerance("profile_distance", max_distance)
        self._digest: "str | None" = None
        self._features: "np.ndarray | None" = None
        self._cache_ref: "weakref.ref | None" = None
        self._cache_breaker_ref: "weakref.ref | None" = None
        self._cache_key: "tuple | None" = None

    def __getstate__(self) -> "dict[str, object]":
        # Weakref memos neither pickle nor make sense in another
        # process; a worker recomputes its features memo from the
        # database config it was shipped (see repro.engine.procpool).
        state = self.__dict__.copy()
        state["_cache_ref"] = None
        state["_cache_breaker_ref"] = None
        state["_cache_key"] = None
        state["_features"] = None
        return state

    @property
    def k(self) -> int:
        """How many neighbours to report — fixed at construction."""
        return self._k

    @property
    def tolerance(self) -> Tolerance:
        """The ``profile_distance`` tolerance — fixed at construction."""
        return self._tolerance

    @property
    def max_distance(self) -> float:
        return self._tolerance.bound

    def grade(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        return self._grade_scalar(database, sequence_id)

    def fingerprint(self) -> tuple:
        if self._digest is None:
            self._digest = _exemplar_digest(self._exemplar)
        return (type(self).__qualname__, self._digest, self.k, self.tolerance.bound)

    def plan(self, database: "SequenceDatabase") -> QueryPlan:
        # Warm the query-feature memo before the stages run: scattered
        # per-shard stages may execute on worker threads, and planning
        # is the one point guaranteed to be on the caller's thread.
        self._features_for(database)
        return QueryPlan(
            query=self,
            topk=self._topk_stage,
            residual=self._grade_scalar,
            limit=self.k,
            label="top-k",
            fingerprint=self.fingerprint(),
        )

    # Memo writes below are warmed by plan() on the caller's thread
    # before any stage scatters; shard workers only ever read them.
    def _features_for(self, database: "SequenceDatabase") -> np.ndarray:  # repro: ignore[RL004]
        """The exemplar's profile under the database's own pipeline.

        A raw exemplar sequence goes through exactly the preprocessing
        and breaking the database applies to stored sequences; a
        prebuilt representation is profiled as-is.  Memoized per
        database with the same weakref discipline as
        :meth:`ShapeQuery._signature_for` — computed once per
        execution, shared read-only by every scattered shard stage.
        """
        from repro.core.representation import FunctionSeriesRepresentation
        from repro.engine.clustering import profile_features

        cached = self._cache_ref() if self._cache_ref is not None else None
        cached_breaker = (
            self._cache_breaker_ref() if self._cache_breaker_ref is not None else None
        )
        key = (database.theta, database.normalize, database.curve_kind)
        if (
            self._features is not None
            and cached is database
            and cached_breaker is database.breaker
            and self._cache_key == key
        ):
            return self._features
        if isinstance(self._exemplar, FunctionSeriesRepresentation):
            representation = self._exemplar
        else:
            exemplar = self._exemplar
            if database.normalize:
                from repro.preprocessing.normalization import znormalize

                exemplar = znormalize(exemplar)
            representation = database.breaker.represent(exemplar, curve_kind=database.curve_kind)
        columns = representation.segment_columns()
        self._features = profile_features(
            columns["start_time"], columns["end_time"],
            columns["start_value"], columns["end_value"],
        )
        self._cache_ref = weakref.ref(database)
        self._cache_breaker_ref = weakref.ref(database.breaker)
        self._cache_key = key
        return self._features

    def _threshold(self, include_approximate: bool) -> float:
        """Largest distance the pruned search may report.

        Mirrors the executor's grading comparisons exactly: ``within``
        allows ``bound + WITHIN_EPSILON``, and excluding approximates
        tightens the cap to the exactness dust ``EXACT_EPSILON`` — so
        the stage emits precisely the matches the residual path would
        keep.
        """
        threshold = self.tolerance.bound + WITHIN_EPSILON
        if not include_approximate:
            threshold = min(threshold, EXACT_EPSILON)
        return threshold

    def _topk_stage(
        self,
        database: "SequenceDatabase",
        store: "ColumnarSegmentStore",
        include_approximate: bool,
    ) -> "list[QueryMatch]":
        index = store.cluster_index()
        pairs = index.topk(
            self._features_for(database), self.k,
            threshold=self._threshold(include_approximate),
        )
        return [
            self._match_for(database, sequence_id, distance)
            for distance, sequence_id in pairs
        ]

    def _match_for(
        self, database: "SequenceDatabase", sequence_id: int, distance: float
    ) -> QueryMatch:
        deviation = DimensionDeviation(
            "profile_distance", float(distance), self.tolerance.bound
        )
        return QueryMatch(
            sequence_id,
            database.name_of(sequence_id),
            grade_deviations([deviation]),
            (deviation,),
        )

    def _grade_scalar(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        from repro.engine.clustering import chunked_distances

        index = database.store.shard_of(sequence_id).cluster_index()
        distances, __ = chunked_distances(
            index.features_of(sequence_id), self._features_for(database)
        )
        return self._match_for(database, sequence_id, float(distances[0]))


class ShapeQuery(Query):
    """Query by exemplar: same behavioural shape, any scale.

    The exemplar (a raw sequence or a prebuilt representation) is
    reduced to a :class:`~repro.core.shape.ShapeSignature`.  A candidate
    is an *exact* match when its signature has the same symbols and
    identical relative duration/amplitude profiles — which is precisely
    membership in the exemplar's equivalence class under the paper's
    feature-preserving transformations.  Candidates with the same
    symbols but profile differences within the tolerances are
    approximate matches along ``shape_duration`` / ``shape_amplitude``.

    Under the engine the columnar store prefilters structurally: the
    store's run-collapsed behaviour columns are compared against the
    exemplar's signature wholesale, and only sequences whose collapsed
    code string equals it survive.  Survivors are then graded by a
    vectorized stage that rebuilds every candidate's duration/amplitude
    profiles straight from the store's segment columns with the same
    reduction kernel :func:`repro.core.shape.profile_runs` the scalar
    signature uses — one ragged gather and a handful of ``reduceat``
    calls for the whole candidate set, bit-identical to grading each
    candidate's signature in Python.
    """

    def __init__(
        self,
        exemplar: "Sequence | object",
        duration_tolerance: float = 0.1,
        amplitude_tolerance: float = 0.1,
    ) -> None:
        from repro.core.representation import FunctionSeriesRepresentation

        self._duration_tolerance = Tolerance("shape_duration", float(duration_tolerance))
        self._amplitude_tolerance = Tolerance("shape_amplitude", float(amplitude_tolerance))
        if not isinstance(exemplar, (Sequence, FunctionSeriesRepresentation)):
            raise QueryError("exemplar must be a Sequence or a FunctionSeriesRepresentation")
        self._exemplar = exemplar
        self._cache_ref: "weakref.ref | None" = None
        self._cache_breaker_ref: "weakref.ref | None" = None
        self._cache_key: "tuple | None" = None
        self._signature = None
        self._digest: "str | None" = None
        # Query-side arrays derived from the signature, hoisted so the
        # scattered per-shard stages read them instead of rebuilding
        # them once per shard (see _signature_for).
        self._wanted_codes: "np.ndarray | None" = None
        self._duration_profile: "np.ndarray | None" = None
        self._amplitude_profile: "np.ndarray | None" = None

    def __getstate__(self) -> "dict[str, object]":
        # Weakref memos neither pickle nor make sense in another
        # process; a worker recomputes its signature memo from the
        # database config it was shipped (see repro.engine.procpool).
        state = self.__dict__.copy()
        state["_cache_ref"] = None
        state["_cache_breaker_ref"] = None
        state["_cache_key"] = None
        state["_signature"] = None
        state["_wanted_codes"] = None
        state["_duration_profile"] = None
        state["_amplitude_profile"] = None
        return state

    @property
    def duration_tolerance(self) -> Tolerance:
        """The ``shape_duration`` tolerance — fixed at construction."""
        return self._duration_tolerance

    @property
    def amplitude_tolerance(self) -> Tolerance:
        """The ``shape_amplitude`` tolerance — fixed at construction."""
        return self._amplitude_tolerance

    def grade(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        return self._grade_scalar(database, sequence_id)

    def fingerprint(self) -> tuple:
        if self._digest is None:
            self._digest = _exemplar_digest(self._exemplar)
        return (
            type(self).__qualname__,
            self._digest,
            self.duration_tolerance.bound,
            self.amplitude_tolerance.bound,
        )

    def plan(self, database: "SequenceDatabase") -> QueryPlan:
        # Warm the signature memo before the stages run: scattered
        # stages may execute on worker threads, and planning is the one
        # point guaranteed to be on the caller's thread.
        self._signature_for(database)
        return QueryPlan(
            query=self,
            prefilter=self._prefilter,
            vector_filter=self._vector_filter,
            residual=self._grade_scalar,
            label="shape",
            fingerprint=self.fingerprint(),
        )

    # Memo writes below are warmed by plan() on the caller's thread
    # before any stage scatters; shard workers only ever read them.
    def _signature_for(self, database: "SequenceDatabase"):  # repro: ignore[RL004]
        """Exemplar signature under the database's own pipeline.

        A raw exemplar sequence goes through exactly the preprocessing
        and breaking the database applies to stored sequences, so the
        comparison is apples to apples; a prebuilt representation is
        trusted as-is.

        The signature is memoized per database through *weak*
        references (to the database and its breaker, so a reassigned
        breaker invalidates too) plus the database's pipeline
        configuration.  A plain
        ``id(database)`` key is unsound: after the database is
        garbage-collected, CPython can hand its ``id`` to a brand-new
        database, silently serving a signature built under a different
        breaker/normalize configuration.  The weakref cannot be fooled —
        a dead referent never compares ``is`` to a live database — and
        it keeps the query from pinning the database alive.
        """
        from repro.core.representation import FunctionSeriesRepresentation
        from repro.core.shape import shape_signature

        cached = self._cache_ref() if self._cache_ref is not None else None
        cached_breaker = (
            self._cache_breaker_ref() if self._cache_breaker_ref is not None else None
        )
        key = (database.theta, database.normalize, database.curve_kind)
        if (
            self._signature is not None
            and cached is database
            and cached_breaker is database.breaker
            and self._cache_key == key
        ):
            return self._signature
        if isinstance(self._exemplar, FunctionSeriesRepresentation):
            representation = self._exemplar
        else:
            exemplar = self._exemplar
            if database.normalize:
                from repro.preprocessing.normalization import znormalize

                exemplar = znormalize(exemplar)
            representation = database.breaker.represent(exemplar, curve_kind=database.curve_kind)
        signature = shape_signature(representation, database.theta)
        self._signature = signature
        # Hoist the query-side comparison arrays alongside the memoized
        # signature: each scattered shard stage reuses one prebuilt
        # code/profile array instead of re-deriving it per shard.
        self._wanted_codes = np.array(
            [SYMBOL_CODES[c] for c in signature.symbols], dtype=np.int8
        )
        self._duration_profile = np.asarray(signature.duration_profile)
        self._amplitude_profile = np.asarray(signature.amplitude_profile)
        self._cache_ref = weakref.ref(database)
        self._cache_breaker_ref = weakref.ref(database.breaker)
        self._cache_key = key
        return self._signature

    def _prefilter(
        self,
        database: "SequenceDatabase",
        store: "ColumnarSegmentStore",
        candidate_ids: "list[int] | None",
    ) -> "list[int]":
        """Sequences whose collapsed slope-sign string equals the
        exemplar's — the only ones :meth:`grade` could accept.

        Reads the store's run-collapsed behaviour columns directly:
        exactly the classification this query compares against, already
        materialized at ingest, so the prefilter is one length compare
        plus one row compare over the survivors.
        """
        wanted = self._signature_for(database).symbols
        if store.n_sequences == 0:
            return []
        if candidate_ids is not None:
            # Compare only the candidate rows (they are live by the
            # stage contract): the delta-revalidation subset path stays
            # proportional to the dirty set, not the store.
            if not len(candidate_ids):
                return []
            positions = store.positions_of(candidate_ids)
            matched = positions[store.behavior_counts[positions] == len(wanted)]
        else:
            matched = np.flatnonzero(store.behavior_counts == len(wanted))
        if len(matched) == 0:
            return []
        wanted_codes = self._wanted_codes
        rows = store.behavior_starts[matched][:, None] + np.arange(len(wanted))
        same = (store.behavior_symbols[rows] == wanted_codes).all(axis=1)
        return [int(s) for s in store.sequence_ids[matched[same]]]

    def _vector_filter(
        self,
        database: "SequenceDatabase",
        store: "ColumnarSegmentStore",
        candidate_ids: "list[int] | None",
    ) -> VectorVerdicts:
        """Profile deviations for every structural survivor, columnarly.

        Candidates are the prefilter's output, so each one's collapsed
        symbol string equals the exemplar's — every candidate has the
        same number of behavioural runs, and the per-run
        duration/amplitude shares stack into dense ``(candidates, runs)``
        matrices.  The per-segment extents come straight from the
        store's segment columns (the exact floats
        :func:`~repro.core.shape.shape_signature` reads from the
        representation), and :func:`~repro.core.shape.profile_runs` is
        the same reduction the scalar signature applies, so the graded
        deviations are bit-identical to the residual path.
        """
        from repro.core.shape import profile_runs

        wanted = self._signature_for(database)
        if candidate_ids is None:
            candidate_ids = self._prefilter(database, store, None)
        ids = np.asarray(candidate_ids, dtype=np.int64)
        n = len(ids)
        n_runs = len(wanted.symbols)
        def dimensions(dur: np.ndarray, amp: np.ndarray) -> "tuple[DimensionColumn, ...]":
            return (
                DimensionColumn("shape_duration", dur, self.duration_tolerance.bound),
                DimensionColumn("shape_amplitude", amp, self.amplitude_tolerance.bound),
            )
        if n == 0 or n_runs == 0:
            # No candidates, or a dead-flat exemplar: survivors (if any)
            # have empty profiles, which deviate by exactly 0.0.
            zeros = np.zeros(n)
            return VectorVerdicts(ids, dimensions(zeros, zeros.copy()))
        positions = store.positions_of(ids)
        starts = store.segment_starts[positions]
        counts = store.segment_counts[positions]
        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        gather = np.repeat(starts - offsets, counts) + np.arange(
            int(counts.sum()), dtype=np.int64
        )
        start_times = store.segment_column("start_time")[gather]
        end_times = store.segment_column("end_time")[gather]
        start_values = store.segment_column("start_value")[gather]
        end_values = store.segment_column("end_value")[gather]
        codes = store.segment_symbols[gather]
        durations = np.maximum(end_times - start_times, 0.0)
        travels = np.abs(end_values - start_values)
        run_offsets = np.flatnonzero(run_start_mask(codes, offsets))
        if len(run_offsets) != n * n_runs:
            raise QueryError(
                "shape candidates must come from the structural prefilter "
                f"(got {len(run_offsets)} runs for {n} candidates x {n_runs})"
            )
        group_offsets = np.arange(n, dtype=np.int64) * n_runs
        duration_profile, amplitude_profile = profile_runs(
            durations, travels, run_offsets, group_offsets
        )
        duration_amounts = np.abs(
            duration_profile.reshape(n, n_runs) - self._duration_profile
        ).max(axis=1)
        amplitude_amounts = np.abs(
            amplitude_profile.reshape(n, n_runs) - self._amplitude_profile
        ).max(axis=1)
        return VectorVerdicts(ids, dimensions(duration_amounts, amplitude_amounts))

    def _grade_scalar(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        from repro.core.shape import shape_signature

        wanted = self._signature_for(database)
        observed = shape_signature(
            database.representation_of(sequence_id), database.theta
        )
        name = database.name_of(sequence_id)
        if not wanted.matches_symbols(observed):
            # Structurally different behaviour: out of the class entirely.
            infinite = (
                DimensionDeviation("shape_duration", float("inf"), self.duration_tolerance.bound),
                DimensionDeviation("shape_amplitude", float("inf"), self.amplitude_tolerance.bound),
            )
            return QueryMatch(sequence_id, name, MatchGrade.REJECT, infinite)
        deviations = (
            DimensionDeviation(
                "shape_duration", wanted.duration_deviation(observed), self.duration_tolerance.bound
            ),
            DimensionDeviation(
                "shape_amplitude",
                wanted.amplitude_deviation(observed),
                self.amplitude_tolerance.bound,
            ),
        )
        return QueryMatch(sequence_id, name, grade_deviations(deviations), deviations)


class ExemplarQuery(Query):
    """Value-based epsilon matching against raw data (the old notion).

    Retrieves raw sequences from the archive (paying the simulated
    latency the paper's architecture avoids) and compares values
    pointwise; used by benchmarks as the Figure 1 baseline.  Under the
    engine, candidates whose stored length differs from the exemplar's
    are dropped columnarly before any archive read.

    Candidates with *no archived raw data* — sequences ingested through
    ``insert_representation`` — cannot be value-graded at all: they are
    rejected with an infinite ``value_distance`` deviation instead of
    leaking a storage-layer error, on both the engine and legacy paths.
    A database built with ``keep_raw=False`` archives nothing, so no
    candidate could ever grade; that is reported as a clean
    :class:`QueryError` up front.
    """

    def __init__(self, exemplar: Sequence, epsilon: float) -> None:
        if epsilon < 0:
            raise QueryError("epsilon must be non-negative")
        self._exemplar_sequence = exemplar
        self._tolerance = Tolerance("value_distance", float(epsilon))
        self._digest: "str | None" = None
        # Hoisted once here rather than re-measured per scattered shard.
        # Derived from the exemplar, whose content digest is already the
        # fingerprint's exemplar component.
        self._exemplar_length = len(exemplar)  # repro: ignore[RL002]

    @property
    def tolerance(self) -> Tolerance:
        """The ``value_distance`` tolerance — fixed at construction."""
        return self._tolerance

    @property
    def exemplar(self) -> Sequence:
        """The query exemplar — fixed at construction.

        The cache fingerprint memoizes its content digest; build a new
        query to search for a different exemplar.
        """
        return self._exemplar_sequence

    def candidates(self, database: "SequenceDatabase") -> "list[int] | None":
        # Checking the raw tier here keeps the legacy path in lockstep
        # with the engine's prefilter: both fail fast on keep_raw=False
        # databases, even empty ones, instead of diverging.
        self._require_raw_tier(database)
        return None

    def grade(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        return self._grade_scalar(database, sequence_id)

    def fingerprint(self) -> tuple:
        if self._digest is None:
            self._digest = _exemplar_digest(self.exemplar)
        return (type(self).__qualname__, self._digest, self.tolerance.bound)

    def plan(self, database: "SequenceDatabase") -> QueryPlan:
        return QueryPlan(
            query=self,
            prefilter=self._prefilter,
            residual=self._grade_scalar,
            label="exemplar-value",
            fingerprint=self.fingerprint(),
        )

    @staticmethod
    def _require_raw_tier(database: "SequenceDatabase") -> None:
        if not database.keep_raw:
            raise QueryError(
                "value-based exemplar grading needs archived raw data, but the "
                "database was built with keep_raw=False"
            )

    def _prefilter(
        self,
        database: "SequenceDatabase",
        store: "ColumnarSegmentStore",
        candidate_ids: "list[int] | None",
    ) -> "list[int]":
        """Length mismatches grade to an infinite deviation; drop them
        before paying the archive's simulated latency."""
        self._require_raw_tier(database)
        if candidate_ids is not None:
            # Check only the candidate rows; the delta-revalidation
            # subset path stays proportional to the dirty set.
            if not len(candidate_ids):
                return []
            positions = store.positions_of(candidate_ids)
            same_length = store.sequence_ids[
                positions[store.source_lengths[positions] == self._exemplar_length]
            ]
        else:
            same_length = store.sequence_ids[
                store.source_lengths == self._exemplar_length
            ]
        return [int(s) for s in same_length]

    def _grade_scalar(self, database: "SequenceDatabase", sequence_id: int) -> QueryMatch:
        self._require_raw_tier(database)
        if not database.has_raw(sequence_id):
            # Representation-only ingest: no raw values exist to compare.
            deviation = DimensionDeviation("value_distance", float("inf"), self.tolerance.bound)
        else:
            raw = database.raw_sequence(sequence_id)
            if len(raw) != len(self.exemplar):
                deviation = DimensionDeviation(
                    "value_distance", float("inf"), self.tolerance.bound
                )
            else:
                distance = float(np.abs(raw.values - self.exemplar.values).max())
                deviation = DimensionDeviation("value_distance", distance, self.tolerance.bound)
        return QueryMatch(
            sequence_id,
            database.name_of(sequence_id),
            grade_deviations([deviation]),
            (deviation,),
        )
