"""Spans around calls into each layer, installed from outside ``src/``.

The traced run wraps the public entry points of every layer where the
caller looks the name up (a class attribute for methods, the calling
module's namespace for functions imported by name), records one span
per call, and restores the originals afterwards.  Spans stay in memory
while the run measures and are written out once it ends.

A span is ``[name, layer, start_ns, end_ns, parent, op]``: ``parent``
is the index of the enclosing span (``-1`` for a root) and ``op`` the
timed benchmark op the call belongs to (``-1`` during untimed
upkeep).  Calls are single-threaded and
nested, so a span's children never overlap and its self time is its
duration minus theirs.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable

import repro.query.database as database_module
from repro.core.representation import FunctionSeriesRepresentation
from repro.engine.cache import PlanResultCache
from repro.engine.clustering import ClusterIndex
from repro.engine.columnar import ColumnarSegmentStore
from repro.engine.executor import QueryExecutor, QueryPlanner
from repro.engine.nfa import ColumnPatternMatcher
from repro.engine.sharding import ShardedSegmentStore
from repro.index.inverted import InvertedFileIndex
from repro.index.pattern_index import PatternIndex
from repro.storage.archive import ArchivalStore, LocalStore

NAME, LAYER, START, END, PARENT, OP = range(6)


class Tracer:
    """Records nested spans for one traced phase."""

    def __init__(self) -> None:
        self.spans: "list[list[Any]]" = []
        self.op = -1
        self._stack: "list[int]" = []
        self._patches: "list[tuple[Any, str, bool, Any]]" = []

    def _open(self, name: str, layer: str) -> "list[Any]":
        parent = self._stack[-1] if self._stack else -1
        span = [name, layer, time.perf_counter_ns(), 0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: "list[Any]") -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, layer: str, func: Callable[..., Any], *args: Any) -> Any:
        """Run ``func(*args)`` inside a span (the benchmark's own op spans)."""
        return self._wrap(name, layer, func)(*args)

    def _wrap(self, name: str, layer: str, func: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name, layer)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def patch(self, owner: Any, attribute: str, layer: str) -> None:
        """Wrap ``owner.attribute`` (a class or a module) in a span."""
        original = inspect.getattr_static(owner, attribute)
        own = attribute in vars(owner)
        name = f"{getattr(owner, '__name__', owner)}.{attribute}"
        if isinstance(original, (classmethod, staticmethod)):
            wrapped: Any = type(original)(self._wrap(name, layer, original.__func__))
        else:
            wrapped = self._wrap(name, layer, original)
        self._patches.append((owner, attribute, own, original))
        setattr(owner, attribute, wrapped)

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, own, original = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def write(self, path: Path) -> None:
        """Write the spans out as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "layer", "start_ns", "end_ns", "parent", "op")
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def install(tracer: Tracer, breaker_type: type) -> None:
    """Patch every layer entry point the per-layer metrics are taken at."""
    targets: "list[tuple[Any, str, str]]" = [
        (breaker_type, "represent_many", "segmentation"),
        (breaker_type, "extend_indices_many", "segmentation"),
        (FunctionSeriesRepresentation, "from_breakpoints_many", "core.representation"),
        (FunctionSeriesRepresentation, "from_breakpoints_reusing", "core.representation"),
        (database_module, "find_peaks_many", "core.features"),
        (database_module, "find_peaks", "core.features"),
        (PatternIndex, "add_symbols_many", "index.trie"),
        (PatternIndex, "update_symbols", "index.trie"),
        (PatternIndex, "search", "index.trie"),
        (PatternIndex, "match_full", "index.trie"),
        (InvertedFileIndex, "add_block", "index.inverted"),
        (InvertedFileIndex, "replace_tail", "index.inverted"),
        (InvertedFileIndex, "sequences_near", "index.inverted"),
        (ArchivalStore, "store", "storage"),
        (ArchivalStore, "replace", "storage"),
        (LocalStore, "store", "storage"),
        (ColumnarSegmentStore, "extend", "engine.columnar"),
        (ColumnarSegmentStore, "replace_many", "engine.columnar"),
        (ShardedSegmentStore, "extend", "engine.columnar"),
        (ShardedSegmentStore, "replace_many", "engine.columnar"),
        (QueryPlanner, "plan", "engine.planner"),
        (QueryExecutor, "execute", "engine.executor"),
        (QueryExecutor, "run_stages_subset", "engine.cache"),
        (PlanResultCache, "revalidate", "engine.cache"),
        (ClusterIndex, "sync", "engine.clustering"),
        (ClusterIndex, "topk", "engine.clustering"),
        (ColumnPatternMatcher, "fullmatch_column", "engine.nfa"),
    ]
    for owner, attribute, layer in targets:
        tracer.patch(owner, attribute, layer)


def self_times(spans: "list[list[Any]]") -> "list[int]":
    """Each span's duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def summarize(
    spans: "list[list[Any]]",
    field: int = LAYER,
    weights: "list[float] | None" = None,
) -> "dict[str, dict[str, float]]":
    """Per layer (or per span name): calls, summed self time, and the
    inclusive time of the calls not nested in another call of the same
    key, all in ms.

    With ``weights``, a span's times are multiplied by the weight of its
    op (the op's normalisation scale), and spans outside any timed op
    (``op`` -1, the untimed upkeep) are left out.
    """
    totals: "dict[str, dict[str, float]]" = {}
    for span, own in zip(spans, self_times(spans)):
        weight = 1.0
        if weights is not None:
            if span[OP] < 0:
                continue
            weight = weights[span[OP]]
        key = span[field]
        entry = totals.setdefault(key, {"calls": 0.0, "self_ms": 0.0, "inclusive_ms": 0.0})
        entry["calls"] += 1
        entry["self_ms"] += own / 1e6 * weight
        parent = span[PARENT]
        if parent < 0 or spans[parent][field] != key:
            entry["inclusive_ms"] += (span[END] - span[START]) / 1e6 * weight
    return totals
