"""Phases, checks and metrics of one benchmark run (see ``run.py``)."""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

from seqbench import tracing
from seqbench.measure import (
    GcMonitor,
    ReferenceSlice,
    bracket_scales,
    percentile,
    tail_mean,
    traced_bytes,
)
from seqbench.workloads import FAMILIES, WORKLOADS

#: Where the traced run writes its spans.
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Set-up is timed at least ``SETUP_REPEATS`` times, and until the
#: builds add up to ``SETUP_SECONDS`` of wall time, so a one-second
#: build is not judged on three samples of a drifting machine.  Each
#: build is normalised by the mean of the ``SETUP_SLICES`` reference
#: slices run right before it and right after it.
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0
SETUP_SLICES = 15
#: Reference slices run once the inputs exist and before any database
#: does: ``machine.ref_prebuild_ms``.  Beside ``machine.ref_ms`` it shows
#: whether the program has started to slow the reference itself.
PREBUILD_SLICES = 40
#: A run holds at least this many requests, so its slowest tenth has at
#: least fifteen samples.
MIN_REQUESTS = 150
MEMORY_SEQUENCES = 256


def _phase(
    workload: Any,
    db: Any,
    seconds: float,
    reference: ReferenceSlice,
    tracer: Any = None,
    after: "Callable[[Any], None] | None" = None,
) -> "dict[str, Any]":
    """Run the op list against ``db`` for ``seconds`` of op latency.

    A request is the run of ops up to one that ends a round (one batch,
    one round of the seven families, one monitoring tick); its latency
    is the sum of its ops' latencies.  One reference slice runs before
    the first request and one after every request, outside the timed
    calls.  The phase stops at the first cycle end once ``seconds`` and
    ``MIN_REQUESTS`` are reached.  A record is ``(kind, family, ms,
    rows, request)``.
    """
    kept: "dict[str, Any]" = {}
    records: "list[tuple[str, str, float, int, int]]" = []
    requests: "list[float]" = []
    refs = [reference.run()]
    open_ms = 0.0
    failed = 0
    busy_ns = 0
    ops = workload.ops()
    with GcMonitor() as monitor:
        while True:
            op = next(ops)
            timed = op.kind != "reset"
            monitor.active = timed
            result = None
            start = time.perf_counter_ns()
            if tracer is not None:
                tracer.op = len(records) if timed else -1
            try:
                if tracer is None or not timed:
                    result = workload.run(db, op)
                else:
                    result = tracer.call(f"op.{op.family}", "op", workload.run, db, op)
            except Exception:  # a failed op is counted, reported and skipped
                failed += 1
                traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter_ns() - start
            if result is not None:
                workload.observe(kept, db, op, result)
            if after is not None:
                after(op)
            if not timed:
                continue
            busy_ns += elapsed
            rows = len(result) if op.kind == "read" and result is not None else 0
            records.append((op.kind, op.family, elapsed / 1e6, rows, len(requests)))
            open_ms += elapsed / 1e6
            if op.ends_round:
                requests.append(open_ms)
                open_ms = 0.0
                refs.append(reference.run())
            if op.ends_cycle and busy_ns >= seconds * 1e9 and len(requests) >= MIN_REQUESTS:
                break
    return {
        "records": records,
        "requests": requests,
        "refs": refs,
        "failed": failed,
        "busy_s": busy_ns / 1e9,
        "gc": monitor,
        "kept": kept,
    }


def _timings(phase: "dict[str, Any]") -> "dict[str, float]":
    """A phase's end-to-end timings, wall and reference-normalised.

    Each request is scaled by the slices around it; an op by its
    request's scale.
    """
    scales = bracket_scales(phase["refs"])
    requests = phase["requests"]
    normalised = [ms * factor for ms, factor in zip(requests, scales)]
    n_ops = len(phase["records"])
    return {
        "ref_ms": statistics.fmean(phase["refs"]),
        "ops_per_s": n_ops / (sum(normalised) / 1e3),
        "request_p50_ms": percentile(normalised, 50),
        "request_tail10_ms": tail_mean(normalised),
        "request_p95_ms": percentile(normalised, 95),
        "wall.ops_per_s": n_ops / phase["busy_s"],
        "wall.request_p50_ms": percentile(requests, 50),
        "wall.request_tail10_ms": tail_mean(requests),
    }


def _op_scales(phase: "dict[str, Any]") -> "list[float]":
    """Each op's normalisation: that of the request it belongs to."""
    scales = bracket_scales(phase["refs"])
    return [scales[record[4]] for record in phase["records"]]


def _latencies(phase: "dict[str, Any]", kind: str, family: str) -> "list[float]":
    """Normalised latencies of one kind and family of op."""
    return [
        ms * factor
        for (op_kind, op_family, ms, __, __), factor in zip(phase["records"], _op_scales(phase))
        if op_kind == kind and op_family == family
    ]


def _setup(
    workload: Any, reference: ReferenceSlice, repeats: int, seconds: float = 0.0
) -> "tuple[Any, list[float], list[float]]":
    """Build the starting database at least ``repeats`` times and until
    the builds took ``seconds``; keep the last.  Returns it, each
    build's wall seconds and each build's normalised seconds."""
    walls: "list[float]" = []
    refs = [reference.mean(SETUP_SLICES)]
    db = None
    while len(walls) < repeats or sum(walls) < seconds:
        if db is not None:
            db.close()
            db = None
        gc.collect()
        start = time.perf_counter()
        db = workload.build()
        walls.append(time.perf_counter() - start)
        refs.append(reference.mean(SETUP_SLICES))
    normalised = [wall * factor for wall, factor in zip(walls, bracket_scales(refs))]
    return db, walls, normalised


def _memory(workload: Any) -> "tuple[float, dict[str, float]]":
    """Bytes per sequence held by a database over the first sequences."""
    db, total, groups = traced_bytes(lambda: workload.build(MEMORY_SEQUENCES))
    n = len(db)
    db.close()
    return total / n, {group: size / n for group, size in groups.items()}


def _report_failures(failures: "list[str]") -> None:
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)


def _end_to_end(
    workload: Any, seconds: float, reference: ReferenceSlice
) -> "tuple[dict[str, tuple[float, str]], int, int]":
    prebuild_ms = reference.mean(PREBUILD_SLICES)
    db, walls, setups = _setup(workload, reference, SETUP_REPEATS, SETUP_SECONDS)
    # The starting database's compression: the archive keeps the raw
    # bytes of deleted sequences, which the ingest workload makes.
    report = db.storage_report()
    phase = _phase(workload, db, seconds, reference)
    failures = workload.verify(db, phase["kept"])
    db.close()
    del db
    resident, __ = _memory(workload)
    _report_failures(failures)
    attempted = len(phase["records"])
    failed = phase["failed"] + len(failures)
    timings = _timings(phase)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (timings["ops_per_s"], "1/s"),
        "request_p50_ms": (timings["request_p50_ms"], "ms"),
        "request_tail10_ms": (timings["request_tail10_ms"], "ms"),
        "resident_bytes_per_seq": (resident, "B"),
        "repr_bytes_per_raw_byte": (report["representation_bytes"] / report["raw_bytes"], "ratio"),
        "ok_op_share": (1.0 - min(failed, attempted) / attempted, "ratio"),
    }
    _print_context(phase, timings, prebuild_ms)
    print(
        f"# setup: builds={len(walls)} slices_per_build={SETUP_SLICES} "
        f"wall_s={['%.3f' % s for s in walls]} normalised_s={['%.3f' % s for s in setups]}"
    )
    return metrics, attempted, failed


def _print_context(
    phase: "dict[str, Any]", timings: "dict[str, float]", prebuild_ms: float
) -> None:
    """The sample counts and the drift markers behind a phase's numbers."""
    monitor = phase["gc"]
    print(
        f"# samples: ops={len(phase['records'])} requests={len(phase['requests'])} "
        f"tail10_requests={max(1, len(phase['requests']) // 10)} "
        f"ref_slices={len(phase['refs'])} busy_s={phase['busy_s']:.3f}"
    )
    print(
        f"# drift: machine.ref_ms={timings['ref_ms']:.4f} "
        f"machine.ref_prebuild_ms={prebuild_ms:.4f} "
        f"wall.ops_per_s={timings['wall.ops_per_s']:.3f} "
        f"wall.request_p50_ms={timings['wall.request_p50_ms']:.3f} "
        f"wall.request_tail10_ms={timings['wall.request_tail10_ms']:.3f}"
    )
    print(
        f"# python.gc: collections={monitor.collections} "
        f"pause_ms={monitor.pause_ns / 1e6:.1f} "
        f"pause_share={monitor.pause_ns / 1e9 / phase['busy_s']:.4f}"
    )


def _per_layer(
    workload: Any, seconds: float, reference: ReferenceSlice
) -> "tuple[dict[str, tuple[float, str]], int, int]":
    prebuild_ms = reference.mean(PREBUILD_SLICES)
    # Untraced: the latencies, GC pauses and throughput tracing would distort.
    db, __, __ = _setup(workload, reference, 1)
    plain = _phase(workload, db, seconds, reference)
    failures = workload.verify(db, plain["kept"])
    db.close()
    del db

    db, __, __ = _setup(workload, reference, 1)
    before = _counters(db)
    # A NEAREST answered from the cache runs no search; average the
    # pruned fraction over the ops whose search did run.
    topk = {"queries": db.store.cluster_report()["queries"], "searches": 0, "pruned": 0.0}

    def after(op: Any) -> None:
        if op.family == "nearest":
            report = db.store.cluster_report()
            if report["queries"] > topk["queries"]:
                topk["searches"] += 1
                topk["pruned"] += report["last_pruned_fraction"]
            topk["queries"] = report["queries"]

    tracer = tracing.Tracer()
    tracing.install(tracer, type(db.breaker))
    try:
        traced = _phase(workload, db, seconds, reference, tracer=tracer, after=after)
    finally:
        tracer.unpatch()
    delta = {key: value - before[key] for key, value in _counters(db).items()}
    failures += workload.verify(db, traced["kept"])
    _report_failures(failures)
    tracer.write(OUT_DIR / f"spans-{workload.name}-{workload.seed}.jsonl")

    n_ops = len(traced["records"])
    reads = [record for record in traced["records"] if record[0] == "read"]
    n_queries = len(reads)
    n_nearest = sum(1 for record in reads if record[1] == "nearest")
    plain_timings = _timings(plain)
    traced_timings = _timings(traced)
    # A span is normalised by the scale of the request it ran in.
    weights = _op_scales(traced)
    layers = tracing.summarize(tracer.spans, weights=weights)
    names = tracing.summarize(tracer.spans, tracing.NAME, weights=weights)
    report = db.storage_report()
    n_seqs = len(db)
    # PatternIndex does not expose its trie's node count; read it directly.
    trie_nodes = db.pattern_index._trie.node_count() + db.behavior_index._trie.node_count()
    db.close()
    del db
    __, memory = _memory(workload)

    def per(value: float, n: int) -> float:
        return value / n if n else 0.0

    def self_ms(layer: str) -> float:
        return layers.get(layer, {}).get("self_ms", 0.0)

    def inclusive_ms(key: str, table: "dict[str, dict[str, float]]") -> float:
        return table.get(key, {}).get("inclusive_ms", 0.0)

    metrics: "dict[str, tuple[float, str]]" = {}
    for layer in (
        "segmentation",
        "core.representation",
        "core.features",
        "index.trie",
        "index.inverted",
        "storage",
        "engine.columnar",
    ):
        metrics[f"{layer}.self_ms_per_op"] = (per(self_ms(layer), n_ops), "ms")
    metrics.update(
        {
            "segmentation.segments_per_seq": (report["total_segments"] / n_seqs, "count"),
            "index.trie.nodes_per_seq": (trie_nodes / n_seqs, "count"),
            "storage.bytes_written_per_raw_byte": (
                per(delta["bytes_written"], delta["raw_bytes"]),
                "ratio",
            ),
            "storage.archive_reads_per_query": (per(delta["archive_reads"], n_queries), "count"),
            "engine.columnar.bytes_per_seq": (report["engine_bytes"] / n_seqs, "B"),
            "engine.journal.entries": (report["journal"]["entries"], "count"),
            "engine.journal.compactions": (report["journal"]["compactions"], "count"),
            "engine.executor.plan_ms_per_query": (
                per(inclusive_ms("engine.planner", layers), n_queries),
                "ms",
            ),
            "engine.executor.self_ms_per_query": (
                per(self_ms("engine.executor"), n_queries),
                "ms",
            ),
            "engine.executor.snapshot_retries": (delta["snapshot_retries"], "count"),
            "engine.cache.hit_ratio": (per(delta["hits"], n_queries), "ratio"),
            "engine.cache.evictions_per_query": (per(delta["evictions"], n_queries), "count"),
            "engine.cache.delta_hit_ratio": (per(delta["delta_hits"], n_queries), "ratio"),
            "engine.cache.revalidate_ms_per_query": (
                per(inclusive_ms("engine.cache", layers), n_queries),
                "ms",
            ),
            "engine.cache.topk_refills": (delta["topk_refills"], "count"),
            "engine.clustering.sync_ms_per_op": (
                per(inclusive_ms("ClusterIndex.sync", names), n_ops),
                "ms",
            ),
            "engine.clustering.pruned_fraction": (
                per(topk["pruned"], int(topk["searches"])),
                "ratio",
            ),
            "engine.clustering.refined_per_query": (
                per(delta["candidates_refined"], n_nearest),
                "count",
            ),
            "engine.nfa.self_ms_per_query": (per(self_ms("engine.nfa"), n_queries), "ms"),
            "query.rows_per_query": (per(sum(record[3] for record in reads), n_queries), "count"),
        }
    )
    for family in FAMILIES:
        metrics[f"query.{family}.p50_ms"] = (
            percentile(_latencies(plain, "read", family), 50),
            "ms",
        )
    n_plain = len(plain["records"])
    metrics["requests.count"] = (len(plain["requests"]), "count")
    metrics["requests.p95_ms"] = (plain_timings["request_p95_ms"], "ms")
    metrics["python.gc.pause_share"] = (plain["gc"].pause_ns / 1e9 / plain["busy_s"], "ratio")
    metrics["python.gc.gen2_collections_per_op"] = (
        per(plain["gc"].collections[2], n_plain),
        "count",
    )
    for group, size in memory.items():
        metrics[f"mem.{group}.bytes_per_seq"] = (size, "B")
    metrics["machine.ref_ms"] = (plain_timings["ref_ms"], "ms")
    metrics["machine.ref_prebuild_ms"] = (prebuild_ms, "ms")
    metrics["wall.ops_per_s"] = (plain_timings["wall.ops_per_s"], "1/s")
    metrics["wall.request_p50_ms"] = (plain_timings["wall.request_p50_ms"], "ms")
    metrics["tracing.overhead_ratio"] = (
        plain_timings["ops_per_s"] / traced_timings["ops_per_s"],
        "ratio",
    )
    _print_context(plain, plain_timings, prebuild_ms)
    print(
        f"# traced phase: spans={len(tracer.spans)} ops={n_ops} "
        f"machine.ref_ms={traced_timings['ref_ms']:.4f}"
    )
    attempted = n_plain + n_ops
    failed = plain["failed"] + traced["failed"] + len(failures)
    return metrics, attempted, failed


def _counters(db: Any) -> "dict[str, float]":
    """Monotone counters whose change over the traced phase is reported."""
    cache = db.cache_stats()
    clusters = db.store.cluster_report()
    return {
        "hits": cache["hits"],
        "evictions": cache["evictions"],
        "delta_hits": cache["delta_hits"],
        "topk_refills": cache["topk_refills"],
        "snapshot_retries": db.executor.stats()["snapshot_retries"],
        "candidates_refined": clusters["candidates_refined"],
        "archive_reads": db.archive.log.reads,
        "bytes_written": db.archive.log.bytes_written + db.local_store.log.bytes_written,
        "raw_bytes": db.archive.total_bytes(),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    reference = ReferenceSlice()
    if args.trace:
        metrics, attempted, failed = _per_layer(workload, args.seconds, reference)
    else:
        metrics, attempted, failed = _end_to_end(workload, args.seconds, reference)
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0
