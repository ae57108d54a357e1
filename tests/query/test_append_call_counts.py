"""An append batch pays each per-batch layer once, not once per item.

One :meth:`SequenceDatabase.append_many` of 16 sequences on 4 shards must
fit every changed suffix in one kernel call, splice each touched shard's
column tables once each, and leave the cluster indexes a replay that
profiles each shard's dirty rows in one call, with no per-id
``np.insert`` / ``np.delete``.  These counts keep per-item loops from
creeping back into the streaming write path.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import repro.core.representation as representation_module
from repro.core.representation import FunctionSeriesRepresentation
from repro.core.sequence import Sequence
from repro.engine.clustering import ClusterIndex
from repro.engine.columnar import ColumnarSegmentStore, _ColumnSet
from repro.query import SequenceDatabase
from repro.segmentation import IncrementalRegressionBreaker


def _corpus(count=48, n=120, seed=4):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    return [
        Sequence(t, 4.0 * np.sin(t / rng.uniform(3.0, 9.0)) + rng.normal(0.0, 0.1, n), name=f"c{i}")
        for i in range(count)
    ]


def _counting(counter, key, func):
    def wrapper(*args, **kwargs):
        counter[key(*args)] += 1
        return func(*args, **kwargs)

    return wrapper


def _forbidden(name):
    def probe(*args, **kwargs):
        raise AssertionError(f"{name} called during a cluster replay")

    return probe


def test_append_batch_calls_each_layer_once(monkeypatch):
    corpus = _corpus()
    db = SequenceDatabase(breaker=IncrementalRegressionBreaker(0.35), n_shards=4)
    ids = db.insert_all([Sequence(s.times[:80], s.values[:80], name=s.name) for s in corpus])
    for shard in db.store.shards():
        shard.cluster_index()  # built: the next sync is a journal replay
    assert not hasattr(ColumnarSegmentStore, "_replace_one")
    assert not hasattr(_ColumnSet, "replace_range")

    calls: Counter = Counter()
    many = FunctionSeriesRepresentation.from_breakpoints_many.__func__
    monkeypatch.setattr(
        FunctionSeriesRepresentation,
        "from_breakpoints_many",
        classmethod(_counting(calls, lambda *a: "from_breakpoints_many", many)),
    )
    monkeypatch.setattr(
        representation_module,
        "regression_lines",
        _counting(calls, lambda *a: "regression_lines", representation_module.regression_lines),
    )
    monkeypatch.setattr(
        _ColumnSet, "splice", _counting(calls, lambda self, *a: id(self), _ColumnSet.splice)
    )
    batch = ids[::3]
    assert len(batch) == 16
    db.append_many([(i, corpus[i].values[80:]) for i in batch])
    assert calls.pop("from_breakpoints_many") == 1
    assert calls.pop("regression_lines") == 1
    touched = {db.store.shard_index(i) for i in batch}
    assert touched == {0, 1, 2, 3}
    expected = Counter(
        id(table)
        for index in touched
        for table in (
            db.store.shards()[index]._segments,
            db.store.shards()[index]._behavior,
            db.store.shards()[index]._rr,
        )
    )
    assert calls == expected  # one splice per table per touched shard

    profiled: Counter = Counter()
    monkeypatch.setattr(
        ClusterIndex,
        "_profile_rows",
        _counting(profiled, lambda self, *a: id(self), ClusterIndex._profile_rows),
    )
    monkeypatch.setattr(np, "insert", _forbidden("np.insert"))
    monkeypatch.setattr(np, "delete", _forbidden("np.delete"))
    indexes = [shard.cluster_index() for shard in db.store.shards()]
    monkeypatch.undo()
    assert all(index.rebuilds == 0 for index in indexes)
    assert profiled == Counter(id(index) for index in indexes)
    db.store.check_consistency()
