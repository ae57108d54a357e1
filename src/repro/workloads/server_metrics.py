"""Synthetic server-metrics workloads (latency and CPU traces).

Operational telemetry is the modern counterpart of the paper's "large
data sequences": long, mostly piecewise-flat series punctuated by
structure a function-series representation captures compactly.  Two
trace shapes:

``latency_trace``
    Request-latency samples on a flat service baseline with occasional
    *bursts* — sharp spikes that decay over a few samples, the latency
    tail of a slow dependency.
``cpu_trace``
    CPU-utilization samples that step between sustained *plateaus*
    (deployment or load-shift levels) with short ramps in between.

``server_metrics_corpus`` mixes the two into amplitude-separated
*families* (baseline level × burst/plateau regime), which is exactly
the structure lower-bound pruning thrives on: traces in the same family
share a profile, traces across families are far apart, so a top-k
query over the corpus proves most traces too far from their sketches
alone.  Every generator is deterministic given its
seed.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import SequenceError
from repro.core.sequence import Sequence

__all__ = ["latency_trace", "cpu_trace", "server_metrics_corpus"]


def latency_trace(
    n_points: int = 120,
    baseline: float = 20.0,
    n_bursts: int = 3,
    burst_height: float = 80.0,
    noise: float = 0.8,
    seed: int = 0,
    name: str = "latency",
) -> Sequence:
    """One request-latency trace: flat baseline plus decaying bursts.

    Each burst jumps ``burst_height`` (±25%, seeded) above the baseline
    and decays geometrically over the following samples — the classic
    latency-spike signature.  Burst onsets are spread across the trace
    with seeded jitter so no two seeds align.
    """
    if n_points < 16:
        raise SequenceError("latency traces need at least 16 points")
    if baseline < 0 or burst_height <= 0:
        raise SequenceError("baseline must be non-negative and burst_height positive")
    if n_bursts < 0:
        raise SequenceError("n_bursts must be non-negative")
    rng = np.random.default_rng(seed)
    values = np.full(n_points, baseline)
    if n_bursts:
        spacing = n_points / (n_bursts + 1)
        for burst in range(n_bursts):
            onset = int((burst + 1) * spacing + rng.integers(-3, 4))
            onset = min(max(onset, 1), n_points - 2)
            height = burst_height * rng.uniform(0.75, 1.25)
            decay = rng.uniform(0.45, 0.65)
            length = min(8, n_points - onset)
            values[onset : onset + length] += height * decay ** np.arange(length)
    if noise > 0:
        values += rng.uniform(-noise, noise, size=n_points)
    return Sequence.from_values(values, name=name)


def cpu_trace(
    n_points: int = 120,
    levels: "tuple[float, ...]" = (25.0, 60.0, 40.0),
    ramp: int = 3,
    noise: float = 0.6,
    seed: int = 0,
    name: str = "cpu",
) -> Sequence:
    """One CPU-utilization trace: sustained plateaus with short ramps.

    The trace dwells on each level of ``levels`` in order (equal
    seeded-jittered dwell times), connecting consecutive plateaus with
    a ``ramp``-sample linear transition — the load-shift / deployment
    step shape.
    """
    if n_points < 16:
        raise SequenceError("cpu traces need at least 16 points")
    if not levels:
        raise SequenceError("cpu traces need at least one plateau level")
    if any(level < 0 for level in levels):
        raise SequenceError("plateau levels must be non-negative")
    if ramp < 1:
        raise SequenceError("ramp must be at least one sample")
    rng = np.random.default_rng(seed)
    boundaries = np.linspace(0, n_points, len(levels) + 1).astype(int)
    if len(levels) > 1:
        jitter = rng.integers(-2, 3, size=len(levels) - 1)
        boundaries[1:-1] = np.clip(
            boundaries[1:-1] + jitter, 1, n_points - 1
        )
    values = np.empty(n_points)
    for i, level in enumerate(levels):
        values[boundaries[i] : boundaries[i + 1]] = level
    for boundary in boundaries[1:-1]:
        lo = max(int(boundary) - ramp // 2, 0)
        hi = min(lo + ramp + 1, n_points)
        if hi - lo >= 2:
            values[lo:hi] = np.linspace(values[lo], values[hi - 1], hi - lo)
    if noise > 0:
        values += rng.uniform(-noise, noise, size=n_points)
    return Sequence.from_values(values, name=name)


def server_metrics_corpus(
    n_sequences: int = 100,
    n_points: int = 120,
    n_families: int = 8,
    seed: int = 17,
) -> "list[Sequence]":
    """A corpus of latency/CPU traces in amplitude-separated families.

    Families alternate between burst-shaped latency traces and
    plateau-shaped CPU traces, each family pinned to its own baseline
    band so members cluster tightly and families stay far apart —
    the top-k pruning benchmark's corpus.  Deterministic per seed;
    sequences are named ``metrics-<family>-<i>``.
    """
    if n_sequences < 1:
        raise SequenceError("corpus needs at least one sequence")
    if n_families < 1:
        raise SequenceError("corpus needs at least one family")
    rng = np.random.default_rng(seed)
    corpus: "list[Sequence]" = []
    for i in range(n_sequences):
        family = i % n_families
        trace_seed = int(rng.integers(1 << 30))
        name = f"metrics-{family}-{i}"
        band = 15.0 + 30.0 * family
        if family % 2 == 0:
            corpus.append(
                latency_trace(
                    n_points=n_points,
                    baseline=band,
                    n_bursts=2 + family // 2 % 3,
                    burst_height=40.0 + 10.0 * family,
                    seed=trace_seed,
                    name=name,
                )
            )
        else:
            base = band
            corpus.append(
                cpu_trace(
                    n_points=n_points,
                    levels=(base, base + 20.0 + 5.0 * family, base + 8.0),
                    seed=trace_seed,
                    name=name,
                )
            )
    return corpus
