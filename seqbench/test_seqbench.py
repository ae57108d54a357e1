"""The benchmark's own tests: seeded inputs, printed metrics, whole-cycle
runs, span, normalisation and tail arithmetic, and the reference slice.

Workload sizes are shrunk so every run here takes seconds; the code
paths are the ones the full-size benchmark runs.
"""

from __future__ import annotations

import gc
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from seqbench import bench, measure, tracing
from seqbench.workloads import FAMILIES, WORKLOADS, EcgIngest, EcgReadMix, EcgStream

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Tiny workloads: the same code paths at a fraction of the size."""
    monkeypatch.setattr(EcgIngest, "PRELOAD", 48)
    monkeypatch.setattr(EcgIngest, "BATCH", 8)
    monkeypatch.setattr(EcgIngest, "EPOCH", 4)
    monkeypatch.setattr(EcgIngest, "CHECK_EVERY", 2)
    monkeypatch.setattr(EcgReadMix, "SEQUENCES", 48)
    monkeypatch.setattr(EcgStream, "SEQUENCES", 48)
    monkeypatch.setattr(bench, "MIN_REQUESTS", 12)
    monkeypatch.setattr(bench, "MEMORY_SEQUENCES", 16)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 2)
    monkeypatch.setattr(bench, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(bench, "SETUP_SLICES", 2)
    monkeypatch.setattr(bench, "PREBUILD_SLICES", 2)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)


def _comparable(value):
    if isinstance(value, np.ndarray):
        return ("array", value.tolist())
    if isinstance(value, (list, tuple)):
        return tuple(_comparable(item) for item in value)
    if hasattr(value, "values") and hasattr(value, "times"):
        return ("sequence", value.times.tolist(), value.values.tolist())
    return value


def _op_list(workload, n):
    return [
        (op.kind, op.family, _comparable(op.payload), op.check, op.ends_round, op.ends_cycle)
        for op in itertools.islice(workload.ops(), n)
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_ops(small, name):
    first, second, other = (WORKLOADS[name](seed) for seed in (5, 5, 6))
    assert _op_list(first, 24) == _op_list(second, 24)
    assert _op_list(first, 24) != _op_list(other, 24)
    first_db, second_db = first.build(), second.build()
    assert first_db.storage_report()["raw_bytes"] == second_db.storage_report()["raw_bytes"]
    assert first_db.archive.content_digest() == second_db.archive.content_digest()


def test_read_mix_rounds_hold_every_family_once(small):
    ops = list(itertools.islice(EcgReadMix(3).ops(), 7 * 20))
    for start in range(0, len(ops), 7):
        round_ = ops[start : start + 7]
        assert sorted(op.family for op in round_) == sorted(FAMILIES)
        assert [op.ends_round for op in round_] == [False] * 6 + [True]
        assert [op.ends_cycle for op in round_] == [False] * 6 + [True]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_runs_end_on_whole_cycles(small, monkeypatch, name):
    """A run stops at the first cycle end past its budget: whole ingest
    epochs (with the untimed resets between them), whole read rounds,
    whole stream ticks."""
    monkeypatch.setattr(bench, "MIN_REQUESTS", 5)
    workload = WORKLOADS[name](4)
    db = workload.build()
    phase = bench._phase(workload, db, 0.0, measure.ReferenceSlice())
    db.close()
    records, requests = phase["records"], phase["requests"]
    assert len(phase["refs"]) == len(requests) + 1
    assert sum(requests) == pytest.approx(phase["busy_s"] * 1e3)
    if name == "ecg_ingest":
        assert len(requests) == len(records) == 2 * EcgIngest.EPOCH
        assert phase["kept"]["live"] == EcgIngest.EPOCH * EcgIngest.BATCH
    elif name == "ecg_read_mix":
        assert len(records) == 7 * len(requests) == 7 * 5
    else:
        assert len(records) == 8 * len(requests) == 8 * 5
        assert [record[0] for record in records[:8]] == ["write"] + ["read"] * 7
    # Each op is tagged with the request it belongs to.
    assert [record[4] for record in records] == sorted(record[4] for record in records)
    assert records[-1][4] == len(requests) - 1


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_prints_with_its_unit(small, capsys, name, trace, section):
    assert bench.main(["--workload", name, "--seed", "3", "--seconds", "0.05",
                       "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for metric, entry in result["metrics"].items():
        assert isinstance(entry["value"], float)
        assert any(line.split()[:1] == [metric] and line.split()[-1] == entry["unit"]
                   for line in lines[:-1])
    if section == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_benchmark_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == sorted(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _span(name, layer, start, end, parent, op=0):
    return [name, layer, start, end, parent, op]


def test_self_time_on_a_synthetic_span_tree():
    # op [0, 100] -> a [10, 60] -> b [20, 30], c [35, 55] -> d [40, 45];
    #             -> e [70, 90]  (same layer as a, not nested in a)
    spans = [
        _span("op", "op", 0, 100, -1),
        _span("a", "L1", 10, 60, 0),
        _span("b", "L2", 20, 30, 1),
        _span("c", "L1", 35, 55, 1),
        _span("d", "L3", 40, 45, 3),
        _span("e", "L1", 70, 90, 0),
    ]
    assert tracing.self_times(spans) == [30, 20, 10, 15, 5, 20]
    in_ns = [
        [name, layer, start * 10**6, end * 10**6, parent, op]
        for name, layer, start, end, parent, op in spans
    ]
    layers = tracing.summarize(in_ns)
    assert layers["L1"] == {"calls": 3, "self_ms": 55.0, "inclusive_ms": 70.0}
    assert layers["L2"]["self_ms"] == 10.0 and layers["L3"]["inclusive_ms"] == 5.0
    assert sum(entry["self_ms"] for entry in layers.values()) == 100.0
    # Weighted by op: a second op at half scale, and an untimed span left out.
    in_ns += [
        ["op", "op", 200 * 10**6, 240 * 10**6, -1, 1],
        ["f", "L1", 210 * 10**6, 230 * 10**6, 6, 1],
        ["g", "L1", 300 * 10**6, 310 * 10**6, -1, -1],
    ]
    weighted = tracing.summarize(in_ns, weights=[1.0, 0.5])
    assert weighted["L1"] == {"calls": 4, "self_ms": 65.0, "inclusive_ms": 80.0}
    assert weighted["op"]["self_ms"] == 30.0 + 10.0
    assert tracing.summarize(in_ns, tracing.NAME, weights=[1.0, 0.5])["f"]["self_ms"] == 10.0


class _Owner:
    @classmethod
    def build(cls, x):
        return x + 1

    def method(self, x):
        return x * 2


class _Child(_Owner):
    pass


def test_patch_records_nested_spans_and_restores_originals():
    originals = dict(vars(_Owner)), dict(vars(_Child))
    tracer = tracing.Tracer()
    tracer.patch(_Child, "build", "L1")
    tracer.patch(_Child, "method", "L2")
    tracer.op = 7
    assert tracer.call("op", "op", lambda: _Child().method(_Child.build(1))) == 4
    assert [(s[tracing.NAME], s[tracing.PARENT], s[tracing.OP]) for s in tracer.spans] == [
        ("op", -1, 7), ("_Child.build", 0, 7), ("_Child.method", 0, 7)
    ]
    tracer.unpatch()
    assert (dict(vars(_Owner)), dict(vars(_Child))) == originals


def test_memory_groups_partition_the_traced_total():
    assert measure.module_of("/x/src/repro/index/trie.py") == "index.trie"
    assert measure.module_of("/x/src/repro/query/database.py") == "other"
    assert measure.module_of("<frozen importlib>") == "other"
    built, total, groups = measure.traced_bytes(lambda: [list(range(100)) for __ in range(50)])
    assert len(built) == 50 and total > 0
    assert sum(groups.values()) == total


def test_percentile_and_gc_monitor():
    assert measure.percentile([], 50) == 0.0
    assert measure.percentile([1.0, 2.0, 3.0], 50) == 2.0
    with measure.GcMonitor() as monitor:
        gc.collect()
        monitor.active = False
        gc.collect()
    assert monitor.collections[2] == 1 and monitor.pause_ns > 0


def test_tail_mean_is_the_mean_of_the_slowest_tenth():
    assert measure.tail_mean([]) == 0.0
    assert measure.tail_mean([3.0, 1.0, 2.0]) == 3.0
    assert measure.tail_mean([float(v) for v in range(1, 21)]) == 19.5
    values = [float(v) for v in range(100)]
    assert measure.tail_mean(values) == sum(range(90, 100)) / 10


def test_normalisation_arithmetic(monkeypatch):
    monkeypatch.setattr(measure, "REF_NOMINAL_MS", 0.5)
    assert measure.scale(1.0) == 0.5
    # A request is scaled by the mean of the slices before and after it.
    assert measure.bracket_scales([0.5, 1.0, 1.0]) == pytest.approx([0.5 / 0.75, 0.5])
    phase = {
        "records": [
            ("write", "x", 10.0, 0, 0),
            ("read", "y", 20.0, 0, 1),
            ("read", "y", 20.0, 0, 1),
        ],
        "requests": [10.0, 40.0],
        "refs": [0.5, 1.0, 1.0],
        "busy_s": 0.05,
    }
    timings = bench._timings(phase)
    normalised = [10.0 * 0.5 / 0.75, 40.0 * 0.5]
    assert timings["request_p50_ms"] == pytest.approx(sum(normalised) / 2)
    assert timings["request_tail10_ms"] == pytest.approx(20.0)
    assert timings["ops_per_s"] == pytest.approx(3 / (sum(normalised) / 1e3))
    assert timings["wall.ops_per_s"] == pytest.approx(60.0)
    assert timings["wall.request_p50_ms"] == pytest.approx(25.0)
    assert timings["ref_ms"] == pytest.approx(2.5 / 3)
    assert bench._op_scales(phase) == pytest.approx([0.5 / 0.75, 0.5, 0.5])
    assert bench._latencies(phase, "read", "y") == pytest.approx([10.0, 10.0])


def test_reference_slice_runs_with_the_collector_off(monkeypatch):
    seen = []
    work = measure._slice_work

    def spy(data):
        seen.append(gc.isenabled())
        return work(data)

    monkeypatch.setattr(measure, "_slice_work", spy)
    reference = measure.ReferenceSlice()
    assert gc.isenabled()
    assert reference.run() > 0
    # One untimed warm pass, one timed pass, both with the collector off.
    assert seen == [False, False]
    assert gc.isenabled()
    gc.disable()
    try:
        reference.run()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert reference.mean(3) > 0
