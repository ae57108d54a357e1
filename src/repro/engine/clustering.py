"""Cluster-representative pruning for top-k similarity search.

The function-series representation already *is* a reduced form of the
raw data; this module reduces it one step further into fixed-dimension
feature vectors and groups each shard's sequences under cluster
representatives, so a top-k query can skip whole clusters without
grading a single member — the BrainEx/GeneX shape of approximate
similarity search (probe representatives, lower-bound prune, refine),
built on the classic GEMINI contract: a cheap lower bound with **no
false dismissals**.

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
    Per-leaf-store index: the profile/sketch matrices plus a sketch
    clustering around ~sqrt(n) evenly-seeded representatives (new
    points join the nearest representative leader-style, within a
    build-time tau).  Representatives are maintained incrementally through insert/extend/delete/append by replaying the
    store's :class:`~repro.engine.journal.MutationJournal`, with a
    staleness-ratio full rebuild
    (:func:`repro.index.maintenance.stale_rebuild_due` — the same
    policy the succinct symbol mirror applies) once
    incremental reassignments dominate.  Clustering quality only ever
    affects *speed*: the query path compares true distances for every
    candidate it does not prove away, so a badly clustered index
    returns the same answers, just slower.

The query path (:meth:`ClusterIndex.topk`) visits clusters in
ascending representative-lower-bound order, prunes members whose
sketch lower bound exceeds the current k-th best distance, and refines
survivors through the chunked kernel with per-candidate early
abandoning against the same bound — maintaining a bounded max-heap of
``(distance, sequence_id)`` so ties always resolve to the ascending
id, exactly like :meth:`repro.query.results.QueryMatch.sort_key`.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import EngineError
from repro.index.maintenance import stale_rebuild_due

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
#: Profile columns accumulated per early-abandon round.
_CHUNK = 8
#: Deflation applied to every lower bound: strict enough that float
#: rounding cannot lift a bound above the true distance, far too small
#: to cost measurable pruning power.
_LB_SAFETY = 1.0 - 1e-9
#: Relative slack on the squared-distance early-abandon limit — the
#: mirror of ``_LB_SAFETY``: abandon only when the partial sum already
#: *strictly* exceeds the bound even after adverse rounding.
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
    return np.sqrt((diff * diff).sum(axis=-1))


def chunked_distances(
    rows: np.ndarray,
    query: np.ndarray,
    abandon_above: "float | None" = None,
) -> "tuple[np.ndarray, int]":
    """Euclidean distances from ``query`` to each profile row.

    The one true-distance kernel: squared deviations accumulate in
    fixed :data:`_CHUNK`-column chunks in ascending column order, so
    any two calls — a single scalar grade, a full-store sweep, a
    pruned refine over a gathered candidate subset — produce
    bit-identical floats for the same row.

    With ``abandon_above`` set, a row whose *partial* sum already
    proves its distance strictly above the bound stops accumulating
    (squared deviations are non-negative, so partials only grow); its
    reported distance is ``+inf``.  Returns ``(distances,
    abandoned_count)``.
    """
    rows = np.atleast_2d(np.asarray(rows))
    n, n_columns = rows.shape
    partial = np.zeros(n)
    if abandon_above is None or not np.isfinite(abandon_above):
        for lo in range(0, n_columns, _CHUNK):
            diff = rows[:, lo : lo + _CHUNK] - query[lo : lo + _CHUNK]
            partial += (diff * diff).sum(axis=1)
        return np.sqrt(partial), 0
    limit = float(abandon_above) * float(abandon_above) * _ABANDON_SLACK
    alive = np.ones(n, dtype=bool)
    abandoned = 0
    for lo in range(0, n_columns, _CHUNK):
        live = np.flatnonzero(alive)
        if not len(live):
            break
        diff = rows[live, lo : lo + _CHUNK] - query[lo : lo + _CHUNK]
        partial[live] += (diff * diff).sum(axis=1)
        if lo + _CHUNK < n_columns:
            dead = partial[live] > limit
            if bool(dead.any()):
                alive[live[dead]] = False
                abandoned += int(dead.sum())
    distances = np.sqrt(partial)
    distances[~alive] = np.inf
    return distances, abandoned


class _Cluster:
    """One cluster: representative sketch, members, coverage radius.

    ``radius`` is the largest sketch-space distance from the
    representative to any member *ever admitted* — deletions leave it
    alone (shrinking it is never needed for soundness, only for
    tightness, and the staleness rebuild restores tightness anyway).
    """

    __slots__ = ("representative", "member_ids", "radius")

    def __init__(self, representative: np.ndarray) -> None:
        self.representative = representative
        self.member_ids: "list[int]" = []
        self.radius = 0.0

    def admit(self, sequence_id: int, gap: float) -> None:
        self.member_ids.append(int(sequence_id))
        if gap > self.radius:
            self.radius = float(gap)


class ClusterIndex:
    """Cluster-representative pruning index over one leaf store.

    Lazily built from the store's segment columns on first use
    (``ColumnarSegmentStore.cluster_index()``), then kept in lock-step
    with the store by replaying its mutation journal: each sync
    re-profiles the journal-dirty ids still live in one batch, updates
    their rows in one pass (dead ids leave, new ids are merged in) and
    reassigns them in ascending id order to the nearest representative
    (or founds a new cluster), and
    a full rebuild runs when the journal has compacted past the last
    synced generation or when :func:`stale_rebuild_due` says
    incremental reassignments have degraded the seeded partition.

    Not safe for concurrent mutation — like the store it mirrors, one
    query evaluates against one shard's index at a time (the scatter
    runs at most one stage task per shard).
    """

    #: Incremental admits join the nearest representative when within
    #: ``_TAU_SLACK`` times the mean assignment gap observed at build
    #: time, else found their own cluster.
    _TAU_SLACK = 2.0
    #: Staleness floor before a ratio rebuild can trigger — low:
    #: reassignments erode pruning power quickly.
    _STALE_FLOOR = 64

    def __init__(self, store: "ColumnarSegmentStore") -> None:
        self._store = store
        self._ids = np.empty(0, dtype=np.int64)
        self._features = np.empty((0, N_FEATURES))
        self._sketches = np.empty((0, SKETCH_DIMS))
        self._clusters: "list[_Cluster]" = []
        self._cluster_of: "dict[int, _Cluster]" = {}
        # Probe-side view (live clusters, representative matrix, radii,
        # per-cluster row positions) built lazily on the first query
        # after any mutation — queries between mutations reuse it.
        self._probe_cache: "tuple | None" = None
        self._tau = 0.0
        self._synced_generation: "int | None" = None
        self._stale_mutations = 0
        # Lifecycle + pruning telemetry (cumulative, plus last-query).
        self.builds = 0
        self.rebuilds = 0
        self.queries = 0
        self.clusters_probed = 0
        self.clusters_pruned = 0
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
    def n_clusters(self) -> int:
        return sum(1 for cluster in self._clusters if cluster.member_ids)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the profile/sketch matrices (the bulk)."""
        return self._ids.nbytes + self._features.nbytes + self._sketches.nbytes

    def report(self) -> dict:
        """Telemetry counters for ``storage_report``."""
        rows = self.last_rows_considered
        last_fraction = (
            1.0 - self.last_candidates_refined / rows if rows else 0.0
        )
        return {
            "built": self._synced_generation is not None,
            "sequences": len(self._ids),
            "representatives": self.n_clusters,
            "builds": self.builds,
            "rebuilds": self.rebuilds,
            "stale_mutations": self._stale_mutations,
            "nbytes": self.nbytes,
            "queries": self.queries,
            "clusters_probed": self.clusters_probed,
            "clusters_pruned": self.clusters_pruned,
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
    # Maintenance: journal replay + staleness rebuild
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Bring the index to the store's current generation.

        Cheap no-op when nothing changed; one batched journal replay
        (:meth:`_replay`) over the whole dirty set otherwise; full
        rebuild when the journal compacted past the baseline or
        accumulated reassignments trip the staleness ratio.
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
        self._stale_mutations += len(dirty)
        if stale_rebuild_due(self._stale_mutations, len(self._ids), self._STALE_FLOOR):
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
        gather per matrix.  They are then assigned by the leader rule in
        ascending id order.  Removing a member never changes a
        representative or a radius, so removing every dirty id before
        assigning any yields the same clusters, radii and member order
        as removing and re-admitting id by id.
        """
        self._probe_cache = None
        for sequence_id in dirty.tolist():
            cluster = self._cluster_of.pop(sequence_id, None)
            if cluster is not None:
                cluster.member_ids.remove(sequence_id)
        ids = self._ids
        rows = np.searchsorted(ids, dirty)
        present = rows < len(ids)
        present[present] = ids[rows[present]] == dirty[present]
        store_ids = self._store.sequence_ids
        store_rows = np.searchsorted(store_ids, dirty)
        live = store_rows < len(store_ids)
        live[live] = store_ids[store_rows[live]] == dirty[live]
        admitted = dirty[live]
        features = self._profile_rows(store_rows[live])
        sketches = sketch_of(features)
        if bool(present.all()) and bool(live.all()):
            # Only appends: the id set is unchanged, rows are rewritten in place.
            self._features[rows] = features
            self._sketches[rows] = sketches
        else:
            keep = np.ones(len(ids), dtype=bool)
            keep[rows[present]] = False
            merged = np.concatenate((ids[keep], admitted))
            order = np.argsort(merged, kind="stable")
            self._ids = merged[order]
            self._features = np.concatenate((self._features[keep], features))[order]
            self._sketches = np.concatenate((self._sketches[keep], sketches))[order]
        self._assign(admitted, sketches)

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
        """Re-profile and re-cluster the whole store, id-ascending."""
        store = self._store
        was_built = self._synced_generation is not None
        n = store.n_sequences
        self._ids = store.sequence_ids[:n].astype(np.int64, copy=True)
        self._features = self._profile_rows(np.arange(n))
        self._sketches = (
            sketch_of(self._features) if n else np.empty((0, SKETCH_DIMS))
        )
        self._clusters = []
        self._cluster_of = {}
        if n:
            # ~sqrt(n) seed representatives taken at quantiles of the
            # lexicographically *sorted* sketches (deduplicated), then
            # one vectorized nearest-seed assignment — clusters stay
            # small enough that a probe refines O(sqrt(n)) rows, the
            # build avoids the quadratic leader pass, and sorting
            # before seeding spreads seeds over the sketch range no
            # matter how ingest order correlates with shape.  Cluster
            # *quality* only affects speed; any partition is correct
            # under the radius bound.
            n_seeds = min(n, int(np.ceil(np.sqrt(n))))
            sorted_order = np.lexsort(self._sketches.T[::-1])
            seed_positions = sorted_order[(np.arange(n_seeds) * n) // n_seeds]
            seeds = np.unique(self._sketches[seed_positions], axis=0)
            labels = np.empty(n, dtype=np.int64)
            assign_gaps = np.empty(n)
            for lo in range(0, n, 2048):
                block = self._sketches[lo : lo + 2048]
                gaps = np.linalg.norm(
                    block[:, None, :] - seeds[None, :, :], axis=2
                )
                block_labels = np.argmin(gaps, axis=1)
                labels[lo : lo + 2048] = block_labels
                assign_gaps[lo : lo + 2048] = gaps[
                    np.arange(len(block)), block_labels
                ]
            self._clusters = [_Cluster(seed.copy()) for seed in seeds]
            for position in range(n):
                cluster = self._clusters[int(labels[position])]
                sequence_id = int(self._ids[position])
                cluster.admit(sequence_id, float(assign_gaps[position]))
                self._cluster_of[sequence_id] = cluster
            # A degenerate corpus (all-identical sketches) gets tau 0:
            # exact twins still join, anything else founds a cluster.
            self._tau = self._TAU_SLACK * float(assign_gaps.mean())
        else:
            self._tau = 0.0
        self._probe_cache = None
        self._synced_generation = store.generation
        self._stale_mutations = 0
        self.builds += 1
        if was_built:
            self.rebuilds += 1

    def _assign(self, sequence_ids: np.ndarray, sketches: np.ndarray) -> None:
        """Leader rule, id by id: join the nearest representative within
        tau, else found a new cluster (deterministic: first-best wins).

        Gaps to the representatives that exist before the batch are one
        array operation for all ids; an id also weighs the clusters
        founded earlier in the batch, after them in cluster order — the
        same first-best choice as one restacked argmin per id.
        """
        n_old = len(self._clusters)
        if n_old:
            representatives = np.stack([cluster.representative for cluster in self._clusters])
            diff = representatives[None, :, :] - sketches[:, None, :]
            old_gaps = np.sqrt((diff * diff).sum(axis=-1))
        founded: "list[np.ndarray]" = []
        for i, (sequence_id, sketch) in enumerate(zip(sequence_ids.tolist(), sketches)):
            best, gap = -1, np.inf
            if n_old:
                best = int(np.argmin(old_gaps[i]))
                gap = old_gaps[i, best]
            if founded:
                new_gaps = _sketch_gaps(np.array(founded), sketch)
                newest = int(np.argmin(new_gaps))
                if new_gaps[newest] < gap:
                    best, gap = n_old + newest, new_gaps[newest]
            if best >= 0 and gap <= self._tau:
                cluster = self._clusters[best]
                cluster.admit(sequence_id, float(gap))
            else:
                cluster = _Cluster(sketch.copy())
                cluster.admit(sequence_id, 0.0)
                self._clusters.append(cluster)
                founded.append(sketch)
            self._cluster_of[sequence_id] = cluster

    # ------------------------------------------------------------------
    # Query: probe representatives -> lower-bound prune -> heap refine
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
        distance and sorting — the lower-bound invariant makes every
        prune a proof, and the max-heap compares ``(distance, id)``
        tuples so equal distances resolve to the smaller id.  Call
        :meth:`sync` first (the store accessor does).
        """
        self.queries += 1
        self.last_rows_considered = len(self._ids)
        self.last_candidates_refined = 0
        if k <= 0 or not len(self._ids):
            return []
        query_sketch = sketch_of(np.asarray(query_features))
        scale = lower_bound_scale()
        if self._probe_cache is None:
            live = [cluster for cluster in self._clusters if cluster.member_ids]
            self._probe_cache = (
                live,
                np.stack([cluster.representative for cluster in live]),
                np.array([cluster.radius for cluster in live]),
                [
                    np.searchsorted(
                        self._ids,
                        np.sort(np.asarray(cluster.member_ids, dtype=np.int64)),
                    )
                    for cluster in live
                ],
            )
        live, representatives, radii, positions_of = self._probe_cache
        cluster_bounds = scale * np.maximum(
            0.0, _sketch_gaps(representatives, query_sketch) - radii
        )
        order = np.argsort(cluster_bounds, kind="stable")
        # (-distance, -id) max-heap: the root is the *worst* retained
        # pair under ascending (distance, id), so replacement keeps the
        # k best with the exact sort_key tie-break.
        heap: "list[tuple[float, int]]" = []
        probed = 0
        for rank, cluster_position in enumerate(order):
            bound = threshold if len(heap) < k else min(threshold, -heap[0][0])
            if cluster_bounds[cluster_position] > bound:
                # Bounds ascend and the k-th best only improves: every
                # remaining cluster is pruned by the same comparison.
                self.clusters_pruned += len(order) - rank
                for remaining in order[rank:]:
                    self.members_pruned += len(live[int(remaining)].member_ids)
                break
            probed += 1
            member_positions = positions_of[int(cluster_position)]
            member_bounds = scale * _sketch_gaps(
                self._sketches[member_positions], query_sketch
            )
            surviving = member_bounds <= bound
            self.members_pruned += int(len(member_positions) - surviving.sum())
            if not bool(surviving.any()):
                continue
            refine_positions = member_positions[surviving]
            self.candidates_refined += len(refine_positions)
            self.last_candidates_refined += len(refine_positions)
            distances, abandoned = chunked_distances(
                self._features[refine_positions], query_features, abandon_above=bound
            )
            self.early_abandoned += abandoned
            for offset in np.flatnonzero(np.isfinite(distances)):
                distance = float(distances[offset])
                if distance > threshold:
                    continue
                item = (-distance, -int(self._ids[refine_positions[offset]]))
                if len(heap) < k:
                    heapq.heappush(heap, item)
                elif item > heap[0]:
                    heapq.heapreplace(heap, item)
        self.clusters_probed += probed
        return sorted((-distance, -negated_id) for distance, negated_id in heap)
