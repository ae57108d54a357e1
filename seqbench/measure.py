"""Measurement helpers: the reference slice, normalised time, tails, GC
pauses and memory by module."""

from __future__ import annotations

import gc
import math
import time
import tracemalloc
from typing import Any, Callable

import numpy as np

#: What one reference slice costs on the nominal machine, in ms.  Every
#: timing the benchmark reports is wall time scaled by
#: ``REF_NOMINAL_MS / machine.ref_ms``: it reads as milliseconds on a
#: machine whose slice takes exactly this long.  Set at the fast state
#: of a 2-vCPU VM (Python 3.11.7, NumPy 2.4.6), whose slice reads
#: 0.49-0.53 ms fast and 0.77-0.86 ms slow.  Changing it, or the slice,
#: is a change of the benchmark.
REF_NOMINAL_MS = 0.5

#: The slice's NumPy half sorts this array in 4,096-element pieces.
_REF_ELEMENTS = 32_768  # 256 KB of float64
_REF_PIECE = 4_096
_REF_STEPS = 3_000

#: ``tracemalloc`` groups: the modules ROADMAP's memory breakdown names,
#: keyed by their path under ``src/repro``; everything else is "other".
MEMORY_GROUPS = (
    "core.representation",
    "core.segment",
    "functions.linear",
    "index.trie",
    "index.inverted",
    "storage.serialization",
    "engine.columnar",
)


def _slice_work(data: np.ndarray) -> int:
    """The fixed CPU work: a dict/loop half and a NumPy sort half."""
    table: "dict[int, int]" = {}
    for step in range(_REF_STEPS):
        key = step * 7919 % 251
        table[key] = table.get(key, 0) + step
    for start in range(0, len(data), _REF_PIECE):
        np.sort(data[start : start + _REF_PIECE])
    return len(table)


class ReferenceSlice:
    """Benchmark-owned CPU work that measures the machine, not the program.

    The VM this benchmark was tuned on runs at one of two speeds (the
    slice reads about 0.49 or 0.78 ms) in spells of a few milliseconds,
    and the share of slow spells wanders between 10% and 90% over
    seconds; process CPU time drifts as much as wall time.  Running this
    slice between requests and scaling each request by the slices around
    it takes that drift out of every reported timing.  The slice is immune
    to the program it runs beside: the collector is off around it (a
    bigger program heap cannot slow it), it runs once untimed before the
    timed pass (the program's cache footprint cannot reach it), and it
    is timed in thread CPU time (another thread holding the interpreter
    lock cannot inflate it).
    """

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).random(_REF_ELEMENTS)

    def run(self) -> float:
        """One slice: its thread-CPU milliseconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            _slice_work(self._data)
            start = time.thread_time_ns()
            _slice_work(self._data)
            elapsed = time.thread_time_ns() - start
        finally:
            if enabled:
                gc.enable()
        return elapsed / 1e6

    def mean(self, n: int) -> float:
        """The mean of ``n`` slices, in ms."""
        return float(np.mean([self.run() for __ in range(n)]))


def scale(ref_ms: float) -> float:
    """The factor that turns wall time measured while the slice read
    ``ref_ms`` into nominal-machine time."""
    return REF_NOMINAL_MS / ref_ms


def bracket_scales(refs: "list[float]") -> "list[float]":
    """Per interval, the scale from the mean of the two slices around it.

    ``refs[i]`` ran just before interval ``i`` and ``refs[i + 1]`` just
    after it.  The VM's slow spells last milliseconds and their share
    wanders over seconds, so a single slice reads one of two modes; the
    pair around an interval estimates the share that interval saw, where
    a run-wide median would jump from one mode to the other.
    """
    return [scale((before + after) / 2) for before, after in zip(refs, refs[1:])]


def percentile(values: "list[float]", q: float) -> float:
    """The ``q``-th percentile (linear interpolation), 0.0 for no samples."""
    return float(np.percentile(values, q)) if values else 0.0


def tail_mean(values: "list[float]", share: float = 0.1) -> float:
    """Mean of the slowest ``share`` of ``values`` (at least one).

    Unlike a high percentile it moves smoothly as the share of requests
    that hit a rare slow mode (a gen-2 collection) changes, instead of
    jumping when the percentile crosses from one mode into the other.
    """
    if not values:
        return 0.0
    k = max(1, math.floor(len(values) * share))
    return float(np.mean(sorted(values)[-k:]))


class GcMonitor:
    """Counts garbage collections and their pauses while ``active``."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_ns = 0
        self.active = True
        self._started = 0

    def _callback(self, phase: str, info: "dict[str, Any]") -> None:
        if phase == "start":
            self._started = time.perf_counter_ns()
        elif self.active:
            self.pause_ns += time.perf_counter_ns() - self._started
            self.collections[info["generation"]] += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)


def module_of(filename: str) -> str:
    """``.../src/repro/index/trie.py`` -> ``index.trie``; else ``other``."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    if marker not in path or not path.endswith(".py"):
        return "other"
    dotted = path[path.rindex(marker) + len(marker) : -3].replace("/", ".")
    return dotted if dotted in MEMORY_GROUPS else "other"


def traced_bytes(build: Callable[[], Any]) -> "tuple[Any, int, dict[str, int]]":
    """Build an object under ``tracemalloc``; return it, the bytes it
    holds, and those bytes grouped by allocating module.

    The groups partition the traced total; a mismatch means the
    attribution lost or double-counted bytes and raises.
    """
    gc.collect()
    tracemalloc.start()
    try:
        built = build()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    groups = dict.fromkeys(MEMORY_GROUPS + ("other",), 0)
    total = 0
    for statistic in snapshot.statistics("filename"):
        groups[module_of(statistic.traceback[0].filename)] += statistic.size
        total += statistic.size
    if sum(groups.values()) != sum(trace.size for trace in snapshot.traces):
        raise RuntimeError("memory groups do not sum to the traced total")
    return built, total, groups
