"""ServingEngine: warm caches must never change results, edge cases included."""

import json
import threading
import time

import numpy as np
import pytest

from repro import (
    AbsorbingTimeRecommender,
    MostPopularRecommender,
    PureSVDRecommender,
    ServingEngine,
)
from repro.exceptions import ConfigError, NotFittedError, UnknownUserError
from repro.service import EngineReport, rows_from_ranked_arrays


def stateless_rows(recommender, users, k):
    """The recommender's own stateless ranking, as cohort report rows."""
    labels = np.asarray(list(recommender.dataset.item_labels), dtype=object)
    return rows_from_ranked_arrays(
        users, *recommender.recommend_batch_arrays(users, k=k), labels)


@pytest.fixture(scope="module")
def fitted_at(small_synth):
    return AbsorbingTimeRecommender().fit(small_synth.dataset)


@pytest.fixture()
def engine(fitted_at):
    return ServingEngine(fitted_at)


class TestConstruction:
    def test_requires_fitted(self):
        with pytest.raises(NotFittedError):
            ServingEngine(AbsorbingTimeRecommender())

    def test_requires_recommender(self):
        with pytest.raises(ConfigError):
            ServingEngine("not a model")

    def test_from_artifact(self, fitted_at, tmp_path):
        path = fitted_at.save(str(tmp_path / "model"))
        engine = ServingEngine.from_artifact(path)
        assert engine.recommender.name == "AT"
        original = [r.item for r in fitted_at.recommend(3, k=5)]
        served = [r.item for r in engine.recommend(3, k=5)]
        assert original == served

    def test_answer_is_the_batch_row_however_booted(self, fitted_at,
                                                    tmp_path):
        # Every read resolves through the result cache, then the model: an
        # answer is exactly recommend_batch_arrays' float64 row, cold or
        # warm, eager or memory-mapped.
        path = fitted_at.save(str(tmp_path / "model"))
        users = [0, 7, 3, 7]
        items, scores = fitted_at.recommend_batch_arrays(users, k=6)
        for engine in (ServingEngine(fitted_at),
                       ServingEngine.from_artifact(path, mmap=True)):
            for _ in range(2):
                for row, ranked in enumerate(engine.recommend_many(users, k=6)):
                    keep = items[row] >= 0
                    assert [r.item for r in ranked] == items[row][keep].tolist()
                    assert [r.score for r in ranked] == \
                        scores[row][keep].tolist()


class TestCohortServing:
    def test_matches_stateless_serving(self, fitted_at, engine):
        users = np.arange(0, 100, 9)
        report = engine.serve_cohort(users, k=6)
        assert report.rows == stateless_rows(fitted_at, users, k=6)
        assert report.n_users == users.size

    def test_warm_pass_identical_and_counted(self, engine):
        users = np.arange(0, 60, 5)
        cold = engine.serve_cohort(users, k=5)
        warm = engine.serve_cohort(users, k=5)
        assert cold.rows == warm.rows
        assert cold.result_cache_misses == users.size
        assert warm.result_cache_hits == users.size
        assert warm.result_cache_hit_rate == 1.0

    def test_empty_cohort(self, engine):
        report = engine.serve_cohort(np.empty(0, dtype=np.int64), k=5)
        assert report.n_users == 0
        assert report.rows == []
        assert report.users_per_second == 0.0

    def test_duplicate_users_count_as_hits(self, engine):
        report = engine.serve_cohort(np.array([2, 2, 2]), k=4)
        assert report.result_cache_misses == 1
        assert report.result_cache_hits == 2
        assert [r for r in report.rows if r["rank"] == 1][0] == \
            [r for r in report.rows if r["rank"] == 1][1]

    def test_summary_carries_scoring_stats(self, engine):
        report = engine.serve_cohort(np.arange(8), k=4)
        summary = report.summary()
        assert {"users", "seconds", "result_hits", "scoring_hits"} <= set(summary)

    def test_out_of_range_users_rejected(self, engine):
        with pytest.raises(ConfigError, match="out-of-range"):
            engine.serve_cohort(np.array([0, 99_999]))

    def test_result_cache_disabled(self, fitted_at):
        engine = ServingEngine(fitted_at, result_cache_size=0)
        users = np.arange(6)
        cold = engine.serve_cohort(users, k=4)
        warm = engine.serve_cohort(users, k=4)
        assert cold.rows == warm.rows
        assert cold.result_cache_misses == 6
        assert warm.result_cache_hits == 0
        assert engine.stats()["result_entries"] == 0

    def test_result_cache_eviction_bounded(self, fitted_at):
        engine = ServingEngine(fitted_at, result_cache_size=4)
        report = engine.serve_cohort(np.arange(12), k=3)
        assert report.n_users == 12
        assert engine.stats()["result_entries"] <= 4

    def test_hits_evicted_mid_call_are_not_resolved(self, fitted_at):
        """A tiny cache whose own inserts evict this call's hits still
        serves those hits from the one lookup pass, never re-solving them."""
        engine = ServingEngine(fitted_at, result_cache_size=2)
        engine.serve_cohort(np.array([0, 1]), k=3)
        report = engine.serve_cohort(np.array([0, 1, 2, 3]), k=3)
        assert report.result_cache_hits == 2
        assert report.result_cache_misses == 2
        assert report.n_solves == report.result_cache_misses
        assert report.rows == stateless_rows(fitted_at, np.arange(4), k=3)


class TestColdStartUsers:
    def test_cold_start_user_yields_no_rows(self, small_synth):
        # A user whose every rating is removed has an empty absorbing set.
        dataset = small_synth.dataset
        user = 7
        pairs = [(user, int(i)) for i in dataset.items_of_user(user)]
        depleted = dataset.without_ratings(pairs)
        engine = ServingEngine(AbsorbingTimeRecommender().fit(depleted))
        report = engine.serve_cohort(np.array([user, 0]), k=5)
        assert all(row["user"] != user for row in report.rows)
        assert any(row["user"] == 0 for row in report.rows)
        assert engine.recommend(user, k=5) == []


class TestSingleQuery:
    def test_matches_model_recommend(self, fitted_at, engine):
        for user in (0, 11, 57):
            assert [r.item for r in engine.recommend(user, k=7)] == \
                [r.item for r in fitted_at.recommend(user, k=7)]

    def test_exclusion_refilter(self, fitted_at, engine):
        full = [r.item for r in engine.recommend(4, k=8)]
        refiltered = [r.item for r in engine.recommend(4, k=8,
                                                       exclude=full[:2])]
        assert refiltered[:6] == full[2:8]
        assert set(full[:2]).isdisjoint(refiltered)

    def test_unknown_user_rejected(self, engine):
        with pytest.raises(UnknownUserError):
            engine.recommend(99_999)

    def test_user_checked_before_k(self, engine):
        # A bad user and a bad k in one request: the user error wins, on
        # the single-request path and the batch path alike.
        with pytest.raises(UnknownUserError):
            engine.recommend(99_999, k=0)
        with pytest.raises(UnknownUserError):
            engine.recommend_many([0, 99_999], k=0)
        with pytest.raises(ConfigError, match="k"):
            engine.recommend_many([0, 1], k=0)

    def test_exclude_rated_semantics_kept_apart(self, engine, fitted_at,
                                                small_synth):
        # Both settings share one result cache; neither may answer the other.
        unfiltered = [r.item for r in engine.recommend(9, k=8,
                                                       exclude_rated=False)]
        served = [r.item for r in engine.recommend(9, k=8)]
        rated = set(small_synth.dataset.items_of_user(9).tolist())
        assert rated.isdisjoint(served)
        assert served == [r.item for r in fitted_at.recommend(9, k=8)]
        assert unfiltered == [
            r.item for r in fitted_at.recommend(9, k=8, exclude_rated=False)
        ]


class TestWarmAndStats:
    def test_warm_prefills_every_user(self, fitted_at, small_synth):
        engine = ServingEngine(fitted_at)
        engine.warm(k=4)
        report = engine.serve_cohort(np.arange(small_synth.dataset.n_users),
                                     k=4)
        assert report.result_cache_misses == 0

    def test_clear_caches(self, fitted_at):
        engine = ServingEngine(fitted_at)
        engine.serve_cohort(np.arange(5), k=3)
        engine.clear_caches()
        stats = engine.stats()
        assert stats["result_entries"] == 0
        assert stats["result_hits"] == 0

    def test_works_for_non_walk_algorithms(self, small_synth):
        for cls in (MostPopularRecommender, PureSVDRecommender):
            fitted = cls().fit(small_synth.dataset)
            engine = ServingEngine(fitted)
            report = engine.serve_cohort(np.arange(10), k=5)
            assert report.scoring_cache == {}
            assert report.rows == stateless_rows(fitted, np.arange(10), k=5)


class TestStageTimings:
    def test_stage_timings_reported(self, fitted_at):
        engine = ServingEngine(fitted_at)
        report = engine.serve_cohort(np.arange(0, 30, 2), k=4)
        assert {"lookup", "solve", "assemble"} <= set(report.timings)
        assert all(v >= 0 for v in report.timings.values())
        assert "solve_s" in report.summary()

    def test_timings_exclude_concurrent_callers(self, fitted_at, monkeypatch):
        """A run's stage timings are its own: another caller's solve, made
        while this run waits, is neither added to them nor resets them."""
        engine = ServingEngine(fitted_at, result_cache_size=0)
        real = fitted_at.recommend_batch_arrays
        other_done = threading.Event()

        def other_caller():
            engine.recommend_many([7], k=3)
            other_done.set()

        def solve(users, **kwargs):
            if 0 in users:  # this run's solve waits out the other caller's
                other = threading.Thread(target=other_caller)
                other.start()
                other.join(timeout=10)
            else:
                time.sleep(0.3)
            return real(users, **kwargs)

        monkeypatch.setattr(fitted_at, "recommend_batch_arrays", solve)
        report = engine.serve_cohort(np.arange(4), k=3)
        assert other_done.is_set()
        assert report.timings["solve"] <= report.seconds


class TestDedupeAndSolveCounts:
    def test_duplicates_solved_once_and_fanned_out(self, fitted_at):
        engine = ServingEngine(fitted_at)
        report = engine.serve_cohort(np.array([3, 5, 3, 5, 3]), k=4)
        assert report.n_users == 5
        assert report.n_solves == 2  # one per distinct user
        by_rank_one = [r for r in report.rows if r["rank"] == 1]
        per_user = {r["user"]: r["item"] for r in by_rank_one}
        for row in by_rank_one:
            assert row["item"] == per_user[row["user"]]
        # And the rows match a duplicate-free serve of the same users.
        clean = ServingEngine(fitted_at).serve_cohort(np.array([3]), k=4)
        assert [r for r in report.rows if r["user"] == 3][:4] == clean.rows

    def test_warm_pass_reports_zero_solves(self, fitted_at):
        engine = ServingEngine(fitted_at)
        users = np.arange(0, 20, 3)
        cold = engine.serve_cohort(users, k=4)
        warm = engine.serve_cohort(users, k=4)
        assert cold.n_solves == users.size
        assert warm.n_solves == 0


class TestZeroRevalidation:
    def test_cached_group_served_twice_validates_once(self, small_synth):
        """The prepared-operator contract: no O(nnz) validation scan on the
        warm path — a group's matrix is validated exactly once, at cache
        build time, however many times it is served afterwards."""
        fitted = AbsorbingTimeRecommender().fit(small_synth.dataset)
        engine = ServingEngine(fitted, result_cache_size=0)
        users = np.arange(0, 60, 5)
        cold = engine.serve_cohort(users, k=5)
        validations_cold = cold.scoring_cache["operator_validations"]
        solves_cold = cold.scoring_cache["operator_solves"]
        assert validations_cold >= 1
        warm = engine.serve_cohort(users, k=5)
        assert warm.rows == cold.rows
        # More solves ran, yet not a single extra validation.
        assert warm.scoring_cache["operator_solves"] > solves_cold
        assert warm.scoring_cache["operator_validations"] == validations_cold


class TestReportJsonSafety:
    """Regression: a zero-second run must stay JSON-serializable."""

    def test_zero_seconds_clamps_users_per_second(self):
        report = EngineReport(n_users=5, seconds=0.0)
        assert report.users_per_second == 0.0

    def test_summary_round_trips_through_json(self):
        # A fully warm cohort on a fast machine can land seconds == 0;
        # float("inf") here used to serialize as bare `Infinity`, which is
        # not valid JSON.
        report = EngineReport(n_users=5, seconds=0.0)
        payload = json.dumps(report.summary())
        assert json.loads(payload)["users_per_sec"] == 0.0

    def test_live_summary_always_json_safe(self, engine):
        report = engine.serve_cohort(np.arange(4), k=3)
        report.seconds = 0.0  # simulate an unmeasurably fast run
        json.loads(json.dumps(report.summary()))


class TestInputHygiene:
    """Regression: bool user ids and awkward exclude shapes."""

    def test_bool_user_rejected(self, engine):
        # isinstance(True, int) holds; recommend(False) must not silently
        # serve user 0.
        with pytest.raises(UnknownUserError):
            engine.recommend(True)
        with pytest.raises(UnknownUserError):
            engine.recommend(False)

    def test_empty_exclude_variants(self, engine):
        base = [r.item for r in engine.recommend(3, k=5)]
        for empty in ([], set(), (), np.array([], dtype=np.float64)):
            assert [r.item
                    for r in engine.recommend(3, k=5, exclude=empty)] == base

    def test_float_exclude_matches_int_exclude(self, engine):
        base = [r.item for r in engine.recommend(3, k=6)]
        as_float = np.asarray(base[:2], dtype=np.float64)
        assert [r.item for r in engine.recommend(3, k=4, exclude=as_float)] \
            == [r.item for r in engine.recommend(3, k=4, exclude=base[:2])]

    def test_fractional_exclude_rejected(self, engine):
        with pytest.raises(ConfigError, match="non-integral"):
            engine.recommend(3, exclude=np.array([1.5]))

    def test_bool_exclude_rejected(self, engine):
        with pytest.raises(ConfigError, match="boolean"):
            engine.recommend(3, exclude=[True, False])

    def test_mixed_bool_cohort_rejected(self, engine):
        # np.asarray promotes [3, True] to int64 before any dtype check
        # can fire; serve_cohort must hand raw input to the element scan.
        with pytest.raises(ConfigError, match="boolean"):
            engine.serve_cohort([3, True], k=3)
        with pytest.raises(ConfigError, match="boolean"):
            engine.recommender.recommend_batch([3, True], k=3)


def ranked_tuples(ranked):
    return [(r.item, r.label, r.score) for r in ranked]


class TestLookupMany:
    """The non-solving probe: cached answers only, counted exactly once."""

    def test_miss_returns_none_and_never_solves(self, engine):
        assert engine.lookup_many([0, 1], k=4) == [None, None]
        stats = engine.stats()
        assert stats["solves"] == 0
        assert stats["result_hits"] == stats["result_misses"] == 0

    @pytest.mark.parametrize("k, exclude, exclude_rated", [
        (3, None, True), (7, None, True), (4, [1, 2, 5], True),
        (5, None, False), (4, [0, 3], False),
    ])
    def test_hit_is_bit_identical_to_recommend(self, engine, k, exclude,
                                               exclude_rated):
        users = [2, 9, 2, 14]
        excludes = [exclude] * len(users)
        expected = engine.recommend_many(users, k=k,
                                         exclude_rated=exclude_rated,
                                         excludes=excludes)
        probed = engine.lookup_many(users, k=k, exclude_rated=exclude_rated,
                                    excludes=excludes)
        assert [ranked_tuples(r) for r in probed] == \
            [ranked_tuples(r) for r in expected]

    def test_exclusions_probe_at_depth_k_plus_bans(self, engine):
        engine.recommend(6, k=3, exclude=[1, 2])  # caches depth 5
        assert engine.lookup_many([6], k=5) != [None]
        assert engine.lookup_many([6], k=3) == [None]
        assert engine.lookup_many([6], k=4, excludes=[[1, 2]]) == [None]
        probed = engine.lookup_many([6], k=3, excludes=[[7, 8]])[0]
        assert ranked_tuples(probed) == \
            ranked_tuples(engine.recommend(6, k=3, exclude=[7, 8]))

    def test_counts_hits_and_leaves_misses_to_the_solve(self, engine):
        engine.recommend(0, k=4)
        before = engine.stats()
        probed = engine.lookup_many([0, 1, 0], k=4)
        assert [p is None for p in probed] == [False, True, False]
        after = engine.stats()
        assert after["result_hits"] - before["result_hits"] == 2
        assert after["result_misses"] == before["result_misses"]
        engine.recommend_many([1], k=4)  # the miss is counted once, here
        assert engine.stats()["result_misses"] == before["result_misses"] + 1

    def test_validates_like_recommend_many(self, engine):
        with pytest.raises(UnknownUserError):
            engine.lookup_many([0, 10**6], k=3)
        with pytest.raises(ConfigError, match="excludes"):
            engine.lookup_many([0, 1], k=3, excludes=[None])
        with pytest.raises(ConfigError):
            engine.lookup_many([0], k=0)

    def test_uncached_engine_answers_none_without_the_lock(self, fitted_at):
        engine = ServingEngine(fitted_at, result_cache_size=0)
        engine.recommend(0, k=3)
        engine._lock = None  # any `with self._lock` would now raise
        assert engine.lookup_many([0, 0], k=3) == [None, None]
