"""Plan-level result cache: hits, misses, and generation invalidation."""

from __future__ import annotations

import gc
import sys
import weakref

import pytest

from repro.core.errors import EngineError
from repro.core.tolerance import DimensionDeviation, MatchGrade
from repro.engine import PlanResultCache
from repro.engine.cache import _matches_bytes
from repro.query import (
    IntervalQuery,
    PatternQuery,
    PeakCountQuery,
    SequenceDatabase,
    ShapeQuery,
    SteepnessQuery,
)
from repro.query.queries import Query
from repro.query.results import QueryMatch
from repro.segmentation import InterpolationBreaker
from repro.workloads import fever_corpus, goalpost_fever, k_peak_sequence

GOALPOST = "(0|-)* + (0|-)^+ + (0|-)*"


@pytest.fixture
def db():
    db = SequenceDatabase(breaker=InterpolationBreaker(0.5))
    db.insert_all(fever_corpus(n_two_peak=4, n_one_peak=3, n_three_peak=3))
    return db


class CountingQuery(PeakCountQuery):
    """A fingerprinted query that counts how often its stages run."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.vector_calls = 0

    def _vector_filter(self, database, store, candidate_ids):
        self.vector_calls += 1
        return super()._vector_filter(database, store, candidate_ids)


class TestHitsAndMisses:
    def test_requery_hits_and_skips_stages(self, db):
        query = CountingQuery(2)
        first = db.query(query)
        assert query.vector_calls == 1
        second = db.query(query)
        assert query.vector_calls == 1  # no stage ran on the hit
        assert first == second
        assert db.result_cache.hits == 1
        assert db.result_cache.misses == 1

    def test_equal_queries_share_entries(self, db):
        db.query(PeakCountQuery(2))
        db.query(PeakCountQuery(2))  # distinct object, same fingerprint
        assert db.result_cache.hits == 1
        db.query(PeakCountQuery(2, count_tolerance=1))  # different fingerprint
        assert db.result_cache.misses == 2

    def test_include_approximate_keyed_separately(self, db):
        query = PeakCountQuery(2, count_tolerance=1)
        broad = db.query(query, include_approximate=True)
        narrow = db.query(query, include_approximate=False)
        assert db.result_cache.hits == 0
        assert narrow == [m for m in broad if m.is_exact]
        assert db.query(query, include_approximate=False) == narrow
        assert db.result_cache.hits == 1

    def test_cache_false_bypasses(self, db):
        query = CountingQuery(2)
        db.query(query, cache=False)
        db.query(query, cache=False)
        assert query.vector_calls == 2
        assert db.result_cache.stats()["entries"] == 0

    def test_every_builtin_query_type_is_cacheable(self, db):
        queries = [
            PatternQuery(GOALPOST),
            PeakCountQuery(2),
            IntervalQuery(12.0, 2.0),
            SteepnessQuery(1.0),
            ShapeQuery(goalpost_fever(), duration_tolerance=0.5, amplitude_tolerance=0.5),
        ]
        for query in queries:
            assert query.fingerprint() is not None
            first = db.query(query)
            assert db.query(query) == first
        assert db.result_cache.hits == len(queries)

    def test_subclass_does_not_share_parent_cache_entries(self, db):
        # A subclass may override grading semantics; its fingerprint
        # embeds the concrete class, so it can never be served the
        # parent's memoized results (or vice versa).
        class StrictPeaks(PeakCountQuery):
            pass

        assert PeakCountQuery(2).fingerprint() != StrictPeaks(2).fingerprint()
        db.query(PeakCountQuery(2))
        db.query(StrictPeaks(2))
        assert db.result_cache.hits == 0
        assert db.result_cache.misses == 2

    def test_third_party_query_without_fingerprint_is_uncacheable(self, db):
        class AdHoc(Query):
            def grade(self, database, sequence_id):
                from repro.core.tolerance import MatchGrade

                return QueryMatch(sequence_id, database.name_of(sequence_id), MatchGrade.EXACT)

        query = AdHoc()
        assert query.fingerprint() is None
        db.query(query)
        db.query(query)
        assert db.result_cache.stats()["entries"] == 0
        assert "uncacheable" in db.explain(query)


class TestInvalidation:
    def test_insert_invalidates(self, db):
        query = PeakCountQuery(2)
        before = db.query(query)
        new_id = db.insert(k_peak_sequence([6.0, 18.0], noise=0.0, name="fresh"))
        after = db.query(query)
        assert db.result_cache.hits == 0
        assert new_id in {m.sequence_id for m in after}
        assert {m.sequence_id for m in after} == {m.sequence_id for m in before} | {new_id}

    def test_insert_all_and_insert_representation_invalidate(self, db):
        query = PatternQuery(GOALPOST)
        db.query(query)
        db.insert_all(fever_corpus(n_two_peak=1, n_one_peak=0, n_three_peak=0))
        db.query(query)
        assert db.result_cache.hits == 0
        rep = InterpolationBreaker(0.5).represent(goalpost_fever(), curve_kind="regression")
        db.insert_representation(rep, name="pre-broken")
        db.query(query)
        assert db.result_cache.hits == 0
        assert db.result_cache.invalidations == 2

    def test_delete_invalidates(self, db):
        query = PeakCountQuery(2)
        before = db.query(query)
        victim = before[0].sequence_id
        db.delete(victim)
        after = db.query(query)
        assert db.result_cache.hits == 0
        assert victim not in {m.sequence_id for m in after}

    def test_breaker_reassignment_invalidates(self, db):
        # Reassigning the pipeline's breaker changes what ShapeQuery
        # matches; the cached answer must not survive it.
        query = ShapeQuery(goalpost_fever(), duration_tolerance=0.5, amplitude_tolerance=0.5)
        db.query(query)
        db.breaker = InterpolationBreaker(8.0)
        assert "cache-miss" in db.explain(query)
        assert db.query(query) == db.query(query, engine=False)
        assert db.result_cache.hits == 0

    def test_hit_resumes_after_requery(self, db):
        query = SteepnessQuery(1.0)
        db.query(query)
        db.delete(db.ids()[0])
        db.query(query)
        db.query(query)
        assert db.result_cache.hits == 1


class TestExplainShowsCacheState:
    def test_miss_then_hit_then_delta(self, db):
        query = PeakCountQuery(2)
        assert "cache-miss" in db.explain(query)
        db.query(query)
        assert "cache-hit" in db.explain(query)
        db.insert(k_peak_sequence([6.0], noise=0.0, name="bump"))
        # The stale entry would be patched, not recomputed: one dirty id.
        assert "cache: delta-revalidated (1 dirty)" in db.explain(query)

    def test_explain_does_not_touch_stats(self, db):
        query = PeakCountQuery(2)
        db.query(query)
        stats = db.result_cache.stats()
        db.explain(query)
        assert db.result_cache.stats() == stats


class TestCacheMechanics:
    def test_lru_eviction(self):
        cache = PlanResultCache(max_entries=2)
        cache.store(("a",), 0, [])
        cache.store(("b",), 0, [])
        assert cache.lookup(("a",), 0) == []  # refresh "a"
        cache.store(("c",), 0, [])  # evicts "b"
        assert cache.lookup(("b",), 0) is None
        assert cache.lookup(("a",), 0) == []
        assert cache.lookup(("c",), 0) == []

    def test_stale_entry_retained_for_revalidation(self):
        # A stale entry is a miss, but it is *kept*: the executor
        # delta-revalidates it from the mutation journal instead of
        # recomputing the world.  Invalidation is counted once per
        # staleness, not once per lookup.
        cache = PlanResultCache()
        cache.store(("q",), 3, [])
        assert cache.lookup(("q",), 4) is None
        assert cache.invalidations == 1
        assert len(cache) == 1
        assert cache.lookup(("q",), 4) is None
        assert cache.invalidations == 1
        assert cache.misses == 2
        epoch, matches, vector = cache.stale_entry(("q",), 4)
        assert epoch == 3 and matches == () and vector is None
        # Refreshing it at the new epoch makes it a hit again.
        cache.revalidate(("q",), 4, (7,), [], dirty_count=2)
        assert cache.stale_entry(("q",), 4) is None
        assert cache.lookup(("q",), 4) == []
        assert cache.revalidations == 1
        assert cache.delta_hits == 1
        assert cache.delta_fallbacks == 0

    def test_returned_list_is_a_copy(self):
        cache = PlanResultCache()
        cache.store(("q",), 0, [])
        first = cache.lookup(("q",), 0)
        first.append("garbage")
        assert cache.lookup(("q",), 0) == []

    def test_bad_capacity_rejected(self):
        with pytest.raises(EngineError):
            PlanResultCache(max_entries=0)

    def test_cache_does_not_pin_the_database(self):
        db = SequenceDatabase(breaker=InterpolationBreaker(0.5))
        db.insert(k_peak_sequence([6.0], noise=0.0, name="solo"))
        db.query(PeakCountQuery(1))
        ref = weakref.ref(db)
        del db
        gc.collect()
        assert ref() is None


class TestQueryParametersAreFixed:
    """Cache fingerprints memoize query content, so the parameters they
    derive from are read-only; reassignment must fail, not poison."""

    def test_pattern_query_parameters_read_only(self):
        query = PatternQuery("+-")
        with pytest.raises(AttributeError):
            query.pattern = "(0|-)*"
        with pytest.raises(AttributeError):
            query.collapse_runs = False

    def test_exemplar_query_exemplar_read_only(self):
        query = PeakCountQuery(2)
        with pytest.raises(AttributeError):
            query.count = 3  # query-defining params are read-only everywhere
        from repro.query import ExemplarQuery
        from repro.workloads import goalpost_fever

        exemplar_query = ExemplarQuery(goalpost_fever(), epsilon=1.0)
        with pytest.raises(AttributeError):
            exemplar_query.exemplar = goalpost_fever(n_points=33)

    def test_keep_raw_mutation_invalidates_cache(self):
        from repro.core.errors import QueryError
        from repro.query import ExemplarQuery
        from repro.workloads import goalpost_fever

        db = SequenceDatabase(breaker=InterpolationBreaker(0.5))
        db.insert(goalpost_fever())
        query = ExemplarQuery(goalpost_fever(), epsilon=100.0)
        assert len(db.query(query)) == 1
        db.keep_raw = False
        with pytest.raises(QueryError, match="keep_raw"):
            db.query(query)  # must re-evaluate and raise, not serve stale


class TestSizeAwareEviction:
    """The cache is bounded by estimated entry bytes, not just count."""

    def _matches(self, n, name="x" * 40):
        from repro.core.tolerance import DimensionDeviation, MatchGrade

        return [
            QueryMatch(
                i,
                name,
                MatchGrade.APPROXIMATE,
                (DimensionDeviation("peak_count", 1.0, 2.0),),
            )
            for i in range(n)
        ]

    def test_bytes_tracked_and_released(self):
        cache = PlanResultCache(max_entries=8, max_bytes=1 << 20)
        assert cache.estimated_bytes == 0
        cache.store(("a",), 0, self._matches(10))
        one_entry = cache.estimated_bytes
        assert one_entry > 0
        cache.store(("b",), 0, self._matches(10))
        assert cache.estimated_bytes > one_entry
        # Stale entries stay resident (awaiting delta revalidation) and
        # keep paying for their bytes until replaced or cleared.
        assert cache.lookup(("a",), 1) is None
        assert cache.lookup(("b",), 1) is None
        assert cache.estimated_bytes > one_entry
        cache.clear()
        assert cache.estimated_bytes == 0

    def test_revalidation_accounts_patched_payload(self):
        # The byte budget must reflect what the entry holds *now*: a
        # revalidated answer that shrank (or grew) re-estimates from the
        # patched match list, not the original insert.
        cache = PlanResultCache(max_entries=8, max_bytes=1 << 20)
        cache.store(("q",), 0, self._matches(200), vector=(0,))
        original = cache.estimated_bytes
        cache.revalidate(("q",), 1, (1,), self._matches(3), dirty_count=5)
        shrunk = cache.estimated_bytes
        assert shrunk < original
        control = PlanResultCache(max_entries=8, max_bytes=1 << 20)
        control.store(("q",), 1, self._matches(3), vector=(1,))
        assert shrunk == control.estimated_bytes
        cache.revalidate(("q",), 2, (2,), self._matches(400), dirty_count=5)
        assert cache.estimated_bytes > original

    def test_delta_patch_charge_equals_full_estimate(self):
        # A delta patch re-charges only the dirty matches; the figure
        # must equal a fresh store of the same patched list.
        cache = PlanResultCache(max_entries=8, max_bytes=1 << 20)
        cache.store(("q",), 0, self._matches(50), vector=(0,))
        __, old_matches, ___ = cache.stale_entry(("q",), 1)
        dirty = {3, 10, 11, 70}
        fresh = [
            QueryMatch(i, "renamed-" * (i % 4), m.grade, m.deviations * 2)
            for i, m in ((3, old_matches[3]), (70, old_matches[0]))
        ]
        patched = [m for m in old_matches if m.sequence_id not in dirty] + fresh
        cache.revalidate(
            ("q",), 1, (1,), patched, dirty_count=len(dirty),
            patched_from=(old_matches, dirty),
        )
        control = PlanResultCache(max_entries=8, max_bytes=1 << 20)
        control.store(("q",), 1, patched, vector=(1,))
        assert cache.estimated_bytes == control.estimated_bytes
        assert cache.lookup(("q",), 1) == patched
        assert cache.delta_hits == 1

    def test_delta_patch_on_replaced_entry_re_estimates(self):
        # If the entry was replaced after the patch was computed, the
        # declared base no longer matches; the whole answer is charged.
        cache = PlanResultCache(max_entries=8, max_bytes=1 << 20)
        cache.store(("q",), 0, self._matches(50), vector=(0,))
        __, old_matches, ___ = cache.stale_entry(("q",), 1)
        cache.store(("q",), 0, self._matches(5), vector=(0,))
        patched = list(old_matches[:20])
        cache.revalidate(
            ("q",), 1, (1,), patched, dirty_count=1,
            patched_from=(old_matches, {99}),
        )
        control = PlanResultCache(max_entries=8, max_bytes=1 << 20)
        control.store(("q",), 1, patched, vector=(1,))
        assert cache.estimated_bytes == control.estimated_bytes

    def test_executor_delta_keeps_bytes_exact(self, db):
        query = PeakCountQuery(1)
        answer = db.query(query)
        for round_index in range(3):
            db.insert(k_peak_sequence([5.0], noise=0.0, name=f"late-{round_index}"))
            db.delete(answer[0].sequence_id)
            answer = db.query(query)
            assert answer == db.query(query, cache=False)
        assert db.result_cache.delta_hits == 3
        (entry_key,) = db.result_cache._entries
        control = PlanResultCache()
        control.store(entry_key, 0, answer)
        assert db.result_cache.estimated_bytes == control.estimated_bytes

    def test_byte_budget_evicts_lru(self):
        cache = PlanResultCache(max_entries=100, max_bytes=None)
        cache.store(("probe",), 0, self._matches(25))
        per_entry = cache.estimated_bytes
        budget = int(per_entry * 2.5)  # room for two entries, not three
        cache = PlanResultCache(max_entries=100, max_bytes=budget)
        cache.store(("a",), 0, self._matches(25))
        cache.store(("b",), 0, self._matches(25))
        cache.store(("c",), 0, self._matches(25))
        assert cache.lookup(("a",), 0) is None  # oldest evicted by bytes
        assert cache.lookup(("b",), 0) is not None
        assert cache.lookup(("c",), 0) is not None
        assert cache.evictions == 1
        assert cache.estimated_bytes <= budget

    def test_more_matches_cost_more(self):
        small = PlanResultCache()
        small.store(("q",), 0, self._matches(5))
        large = PlanResultCache()
        large.store(("q",), 0, self._matches(500))
        assert large.estimated_bytes > small.estimated_bytes

    def test_oversized_answer_not_cached(self):
        cache = PlanResultCache(max_entries=8, max_bytes=512)
        cache.store(("huge",), 0, self._matches(1000))
        assert len(cache) == 0
        assert cache.oversized == 1
        assert cache.lookup(("huge",), 0) is None
        # A small answer still caches fine under the same budget.
        cache.store(("tiny",), 0, [])
        assert cache.lookup(("tiny",), 0) == []

    def test_restore_replaces_old_bytes(self):
        cache = PlanResultCache(max_entries=8, max_bytes=1 << 20)
        cache.store(("q",), 0, self._matches(100))
        big = cache.estimated_bytes
        cache.store(("q",), 1, self._matches(2))
        assert len(cache) == 1
        assert cache.estimated_bytes < big

    def test_clear_resets_bytes(self):
        cache = PlanResultCache()
        cache.store(("q",), 0, self._matches(10))
        cache.clear()
        assert cache.estimated_bytes == 0
        assert len(cache) == 0

    def test_bad_byte_budget_rejected(self):
        with pytest.raises(EngineError):
            PlanResultCache(max_bytes=0)

    def test_stats_surface_through_storage_report(self):
        db = SequenceDatabase(breaker=InterpolationBreaker(0.5))
        db.insert(k_peak_sequence([6.0], noise=0.0, name="solo"))
        db.query(PeakCountQuery(1))
        db.query(PeakCountQuery(1))
        stats = db.storage_report()["result_cache"]
        assert stats == db.cache_stats() == db.result_cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["estimated_bytes"] > 0
        for key in ("max_entries", "max_bytes", "misses", "invalidations", "evictions", "oversized"):
            assert key in stats


def test_matches_bytes_equals_per_match_loop():
    # The estimate decides eviction order, so it must equal the
    # per-match getsizeof loop it replaced, figure for figure.
    class Name(str):
        """A str subclass: carries a GC header and a dict."""

    deviation = DimensionDeviation("profile_distance", 0.5, 1.0)
    names = ["ecg-7", "", "fièvre-ß", "心电图-12", "x" * 300, "naïve" * 40, "🫀-3"]
    matches = [
        QueryMatch(i, name, MatchGrade.APPROXIMATE, (deviation,) * (i % 3))
        for i, name in enumerate(names * 3)
    ]

    def loop(items):
        cost = 0
        for match in items:
            cost += 96 + sys.getsizeof(match.name)
            cost += 120 * len(match.deviations)
        return cost

    assert {len(match.deviations) for match in matches} == {0, 1, 2}
    assert _matches_bytes(matches) == loop(matches)
    assert _matches_bytes(tuple(matches)) == loop(matches)
    assert _matches_bytes(m for m in matches if m.sequence_id % 2) == loop(
        m for m in matches if m.sequence_id % 2
    )
    assert _matches_bytes([]) == 0
    # A name that is not an exact str takes the getsizeof path.
    odd = matches + [QueryMatch(99, Name("ecg-99"), MatchGrade.EXACT, (deviation,))]
    assert _matches_bytes(odd) == loop(odd)
