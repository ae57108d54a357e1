"""Lower-bound pruned top-k similarity search over profile rows.

The function-series representation already *is* a reduced form of the
raw data; this module reduces it one step further into fixed-dimension
feature vectors, so a top-k query can prove most stored sequences too
far away without computing their distance — the classic GEMINI
contract: a cheap lower bound with **no false dismissals**.

Three layers, all deterministic:

``profile_features``
    One sequence's *profile*: its piecewise-function representation
    resampled at :data:`N_FEATURES` uniformly spaced times across its
    span.  The true distance between two stored sequences is the
    Euclidean distance between their profiles
    (:func:`chunked_distances`, the single kernel both the pruned path
    and the full-grade oracle call — which is what makes the two
    byte-identical).
``sketch_of`` / ``lower_bound_scale``
    The PAA sketch: block means over :data:`SKETCH_DIMS` equal blocks
    of the profile.  For profiles ``q, s``::

        LB(q, s) = scale * ||sketch(q) - sketch(s)||  <=  ||q - s||

    with ``scale = sqrt(block_size)`` (Cauchy-Schwarz per block), so
    pruning on the sketch alone is provably lossless.  The scale is
    additionally deflated by one part in 1e9 so float rounding in the
    8-dimensional norm can never push a bound a last-place digit above
    the true distance.
``ClusterIndex``
    Per-leaf-store index: the id-ascending profile and sketch matrices,
    kept in lock-step with the store by replaying its
    :class:`~repro.engine.journal.MutationJournal` (a full rebuild only
    when the journal has compacted past the last synced generation).
    The rows are exact images of the store, so they never go stale.

The query path (:meth:`ClusterIndex.topk`) is one flat pass with no
per-row or per-group Python loop:

1. *sketch bound* — the scaled sketch lower bound of every row;
2. *seed refine* — for ``k < n``, the true distances of the ``k`` rows
   with the smallest bounds (``argpartition``).  Any ``k`` rows bound the
   k-th best distance from above, so ``cap = min(threshold, max seed
   distance)`` is at least every answer's distance (for ``k >= n``,
   ``cap`` is the threshold);
3. *bounded refine* — one early-abandoning :func:`chunked_distances`
   over every row whose bound is at most ``cap``.  A row with a larger
   bound, or abandoned past ``cap``, is provably not in the answer;
4. one ``lexsort`` on ``(distance, sequence_id)`` of the refined rows
   within ``threshold``, cut at ``k`` — ties resolve to the ascending
   id, exactly like :meth:`repro.query.results.QueryMatch.sort_key`.

There is no grouping of rows under cluster representatives: on ECG
corpora a per-group Python loop costs more than grading every row, and
on the replicated corpus of ``benchmarks/test_topk_pruning.py`` this
pass measured no slower than one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.columnar import ColumnarSegmentStore

__all__ = [
    "N_FEATURES",
    "SKETCH_DIMS",
    "profile_features",
    "profile_rows",
    "sketch_of",
    "lower_bound_scale",
    "chunked_distances",
    "ClusterIndex",
]

#: Profile dimensionality: resampled points per sequence.
N_FEATURES = 64
#: Sketch dimensionality: PAA block means per sequence.
SKETCH_DIMS = 8
#: Profile points averaged into one sketch dimension.
_BLOCK = N_FEATURES // SKETCH_DIMS
#: Profile columns summed by one pairwise tree in the distance kernel.
_CHUNK = 8
#: Deflation applied to every lower bound: strict enough that float
#: rounding cannot lift a bound above the true distance, far too small
#: to cost measurable pruning power.
_LB_SAFETY = 1.0 - 1e-9
#: Relative slack on the squared-distance abandon limit — the mirror of
#: ``_LB_SAFETY``: abandon only when the partial sum already *strictly*
#: exceeds the bound even after adverse rounding.
_ABANDON_SLACK = 1.0 + 1e-9


def profile_features(
    start_times: np.ndarray,
    end_times: np.ndarray,
    start_values: np.ndarray,
    end_values: np.ndarray,
    n_features: int = N_FEATURES,
) -> np.ndarray:
    """One represented sequence's profile feature vector.

    The piecewise function is sampled at ``n_features`` uniformly
    spaced times across its span via linear interpolation over the
    interleaved segment endpoints.  Interleaving keeps discontinuous
    representations honest: regression segments need not join at their
    boundaries, and a repeated boundary time makes ``np.interp`` take
    the later segment's value there — a fixed, deterministic choice.

    The inputs are exactly the ``start_time``/``end_time``/
    ``start_value``/``end_value`` segment columns, whether read from a
    representation's :meth:`segment_columns` or from the columnar
    store (the store copies those columns verbatim at ingest, so both
    sources yield bit-identical profiles).  A batch of one through
    :func:`profile_rows`.
    """
    columns = [
        np.asarray(column, dtype=np.float64)
        for column in (start_times, end_times, start_values, end_values)
    ]
    return profile_rows(
        *columns, np.zeros(1, dtype=np.int64), np.array([len(columns[0])]), n_features
    )[0]


def profile_rows(
    start_times: np.ndarray,
    end_times: np.ndarray,
    start_values: np.ndarray,
    end_values: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    n_features: int = N_FEATURES,
) -> np.ndarray:
    """Profiles of many sequences: row ``r`` samples the segments
    ``starts[r] .. starts[r] + counts[r] - 1`` of the endpoint columns.

    The interleaved endpoints and the sample times of every row are
    laid out by whole-batch array operations (elementwise, so each row's
    floats are the ones a lone row gets); only the ``np.interp`` call
    itself runs per row.  A row without segments profiles to zeros.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    profiles = np.zeros((len(starts), n_features))
    rows = np.flatnonzero(counts > 0)
    if not len(rows):
        return profiles
    seg_counts = counts[rows]
    seg_offsets = np.cumsum(seg_counts) - seg_counts
    gather = np.arange(int(seg_counts.sum())) + np.repeat(starts[rows] - seg_offsets, seg_counts)
    xp = np.empty(2 * len(gather))
    xp[0::2] = start_times[gather]
    xp[1::2] = end_times[gather]
    fp = np.empty(2 * len(gather))
    fp[0::2] = start_values[gather]
    fp[1::2] = end_values[gather]
    first = 2 * seg_offsets
    last = first + 2 * seg_counts - 1
    span = xp[last] - xp[first]
    ts = xp[first][:, None] + (np.arange(n_features) / (n_features - 1)) * span[:, None]
    for at, (row, lo, hi) in enumerate(zip(rows.tolist(), first.tolist(), last.tolist())):
        profiles[row] = np.interp(ts[at], xp[lo : hi + 1], fp[lo : hi + 1])
    return profiles


def sketch_of(features: np.ndarray) -> np.ndarray:
    """PAA sketch: block means over the (trailing) profile axis.

    Accepts one profile (1-D) or a stacked profile matrix (2-D); the
    result has :data:`SKETCH_DIMS` entries per profile either way.
    """
    shape = features.shape[:-1] + (SKETCH_DIMS, _BLOCK)
    return features.reshape(shape).mean(axis=-1)


def lower_bound_scale() -> float:
    """Multiplier turning a sketch-space norm into a distance lower
    bound (safety deflation included): ``sqrt(block_size) * (1-1e-9)``."""
    return float(np.sqrt(_BLOCK)) * _LB_SAFETY


def _sketch_gaps(sketches: np.ndarray, query_sketch: np.ndarray) -> np.ndarray:
    """Euclidean norms in sketch space (un-scaled)."""
    diff = sketches - query_sketch
    return np.sqrt(np.einsum("...j,...j->...", diff, diff))


def chunked_distances(
    rows: np.ndarray,
    query: np.ndarray,
    abandon_above: "float | None" = None,
) -> "tuple[np.ndarray, int]":
    """Euclidean distances from ``query`` to each profile row.

    The one true-distance kernel: a row's squared deviations are summed
    per :data:`_CHUNK`-column chunk by the fixed pairwise tree
    ``((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7))``, and the chunk sums are added
    in ascending chunk order.  Every step is an elementwise operation on
    whole columns, so a row's float depends on that row alone: any two
    calls — a single scalar grade, a full-store sweep, a pruned refine
    over a gathered candidate subset — produce bit-identical floats for
    the same row.  (The tree is the one NumPy's pairwise ``sum`` applies
    to eight contiguous values, so the floats also equal a per-chunk
    ``sum(axis=1)`` loop.)

    With ``abandon_above`` set, a row whose partial sum before its last
    chunk already proves its distance strictly above the bound is
    reported abandoned, with distance ``+inf`` — what an early-abandoning
    loop reports, since partials only grow.  Every column is still
    accumulated: at 64 columns the cost is NumPy call overhead, not
    arithmetic, so one pass beats a shrinking live set.  Rows have a
    multiple of :data:`_CHUNK` columns (profiles have :data:`N_FEATURES`).
    Returns ``(distances, abandoned_count)``.
    """
    rows = np.atleast_2d(np.asarray(rows))
    diff = rows - query
    squares = diff * diff
    s = [squares[:, j::_CHUNK] for j in range(_CHUNK)]
    chunk_sums = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
    head = np.zeros(len(rows))  # the partial sum before the last chunk
    for chunk in range(chunk_sums.shape[1] - 1):
        head += chunk_sums[:, chunk]
    distances = np.sqrt(head + chunk_sums[:, -1])
    if abandon_above is None or not np.isfinite(abandon_above):
        return distances, 0
    dead = head > float(abandon_above) * float(abandon_above) * _ABANDON_SLACK
    distances[dead] = np.inf
    return distances, int(np.count_nonzero(dead))


class ClusterIndex:
    """Lower-bound pruning index over one leaf store.

    Lazily built from the store's segment columns on first use
    (``ColumnarSegmentStore.cluster_index()``), then kept in lock-step
    with the store by replaying its mutation journal: each sync
    re-profiles the journal-dirty ids still live in one batch and
    updates their rows in one pass (dead ids leave, new ids are merged
    in).  A full rebuild runs only when the journal has compacted past
    the last synced generation.

    Not safe for concurrent mutation — like the store it mirrors, one
    query evaluates against one shard's index at a time (the scatter
    runs at most one stage task per shard).
    """

    def __init__(self, store: "ColumnarSegmentStore") -> None:
        self._store = store
        self._ids = np.empty(0, dtype=np.int64)
        self._features = np.empty((0, N_FEATURES))
        self._sketches = np.empty((0, SKETCH_DIMS))
        self._synced_generation: "int | None" = None
        # Lifecycle + pruning telemetry (cumulative, plus last-query).
        self.builds = 0
        self.rebuilds = 0
        self.queries = 0
        self.members_pruned = 0
        self.candidates_refined = 0
        self.early_abandoned = 0
        self.last_rows_considered = 0
        self.last_candidates_refined = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the profile/sketch matrices (the bulk)."""
        return self._ids.nbytes + self._features.nbytes + self._sketches.nbytes

    def report(self) -> dict:
        """Telemetry counters for ``storage_report``.

        ``representatives``, ``stale_mutations``, ``clusters_probed``
        and ``clusters_pruned`` belong to the retired leader clustering
        and always read 0; the keys stay so every report keeps its shape.
        """
        rows = self.last_rows_considered
        last_fraction = (
            1.0 - self.last_candidates_refined / rows if rows else 0.0
        )
        return {
            "built": self._synced_generation is not None,
            "sequences": len(self._ids),
            "representatives": 0,
            "builds": self.builds,
            "rebuilds": self.rebuilds,
            "stale_mutations": 0,
            "nbytes": self.nbytes,
            "queries": self.queries,
            "clusters_probed": 0,
            "clusters_pruned": 0,
            "members_pruned": self.members_pruned,
            "candidates_refined": self.candidates_refined,
            "early_abandoned": self.early_abandoned,
            "last_rows_considered": self.last_rows_considered,
            "last_candidates_refined": self.last_candidates_refined,
            "last_pruned_fraction": last_fraction,
        }

    def features_of(self, sequence_id: int) -> np.ndarray:
        """The stored profile row for one live sequence (a copy)."""
        position = int(np.searchsorted(self._ids, int(sequence_id)))
        if position >= len(self._ids) or self._ids[position] != sequence_id:
            raise EngineError(f"sequence {sequence_id} not in cluster index")
        return self._features[position].copy()

    def all_distances(self, query_features: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """``(sequence_ids, distances)`` for every indexed sequence.

        The full-grade path: the same chunked kernel as the pruned
        refine, over every row — the benchmark baseline and the
        vectorized parity oracle.
        """
        if not len(self._ids):
            return self._ids.copy(), np.empty(0)
        distances, __ = chunked_distances(self._features, query_features)
        return self._ids.copy(), distances

    # ------------------------------------------------------------------
    # Maintenance: journal replay
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Bring the index to the store's current generation.

        Cheap no-op when nothing changed; one batched journal replay
        (:meth:`_replay`) over the whole dirty set otherwise; full
        rebuild when the journal compacted past the baseline.
        """
        store = self._store
        if self._synced_generation is None:
            self._rebuild()
            return
        if store.generation == self._synced_generation:
            return
        dirty = store.dirty_ids_since((self._synced_generation,))
        if dirty is None:
            self._rebuild()
            return
        self._replay(np.array(sorted(dirty), dtype=np.int64))
        self._synced_generation = store.generation

    def _replay(self, dirty: np.ndarray) -> None:
        """Re-index the ascending ``dirty`` ids in one pass.

        The dirty ids still live in the store are profiled by one
        :meth:`_profile_rows` call.  When the batch only appended (every
        dirty id was indexed and is still live) their rows are rewritten
        in place; otherwise every dirty row leaves the matrices under one
        mask and the live ones are merged back into id order by one
        gather per matrix.
        """
        ids = self._ids
        rows = np.searchsorted(ids, dirty)
        present = rows < len(ids)
        present[present] = ids[rows[present]] == dirty[present]
        store_ids = self._store.sequence_ids
        store_rows = np.searchsorted(store_ids, dirty)
        live = store_rows < len(store_ids)
        live[live] = store_ids[store_rows[live]] == dirty[live]
        features = self._profile_rows(store_rows[live])
        sketches = sketch_of(features)
        if bool(present.all()) and bool(live.all()):
            # Only appends: the id set is unchanged, rows are rewritten in place.
            self._features[rows] = features
            self._sketches[rows] = sketches
        else:
            keep = np.ones(len(ids), dtype=bool)
            keep[rows[present]] = False
            merged = np.concatenate((ids[keep], dirty[live]))
            order = np.argsort(merged, kind="stable")
            self._ids = merged[order]
            self._features = np.concatenate((self._features[keep], features))[order]
            self._sketches = np.concatenate((self._sketches[keep], sketches))[order]

    def _profile_rows(self, positions: np.ndarray) -> np.ndarray:
        """Profiles for the store rows at ``positions``, in one batch."""
        store = self._store
        return profile_rows(
            store.segment_column("start_time"),
            store.segment_column("end_time"),
            store.segment_column("start_value"),
            store.segment_column("end_value"),
            store.segment_starts[positions],
            store.segment_counts[positions],
        )

    def _rebuild(self) -> None:
        """Re-profile the whole store, id-ascending."""
        store = self._store
        was_built = self._synced_generation is not None
        n = store.n_sequences
        self._ids = store.sequence_ids[:n].astype(np.int64, copy=True)
        self._features = self._profile_rows(np.arange(n))
        self._sketches = sketch_of(self._features)
        self._synced_generation = store.generation
        self.builds += 1
        if was_built:
            self.rebuilds += 1

    # ------------------------------------------------------------------
    # Query: sketch bound -> seed refine -> bounded refine -> lexsort
    # ------------------------------------------------------------------

    def topk(
        self,
        query_features: np.ndarray,
        k: int,
        threshold: float = np.inf,
    ) -> "list[tuple[float, int]]":
        """The ``k`` nearest indexed sequences to ``query_features``.

        Returns ascending ``(distance, sequence_id)`` pairs with
        ``distance <= threshold``, identical to computing every true
        distance and sorting: every row left out has a lower bound, or
        an abandoned partial sum, above a cap that no answer exceeds
        (see the module docstring).  Call :meth:`sync` first (the store
        accessor does).
        """
        n = len(self._ids)
        self.queries += 1
        self.last_rows_considered = n
        self.last_candidates_refined = 0
        if k <= 0 or not n:
            return []
        query_features = np.asarray(query_features)
        bounds = lower_bound_scale() * _sketch_gaps(
            self._sketches, sketch_of(query_features)
        )
        cap = float(threshold)
        if k < n:
            seeds = np.argpartition(bounds, k - 1)[:k]
            seed_distances, __ = chunked_distances(self._features[seeds], query_features)
            cap = min(cap, float(seed_distances.max()))
        positions = np.flatnonzero(bounds <= cap)
        refined = len(positions)
        self.members_pruned += n - refined
        self.candidates_refined += refined
        self.last_candidates_refined = refined
        rows = self._features if refined == n else self._features[positions]
        distances, abandoned = chunked_distances(rows, query_features, abandon_above=cap)
        self.early_abandoned += abandoned
        within = np.isfinite(distances) & (distances <= threshold)
        positions, distances = positions[within], distances[within]
        ids = self._ids[positions]
        order = np.lexsort((ids, distances))[:k]
        return list(zip(distances[order].tolist(), ids[order].tolist()))
