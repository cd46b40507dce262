"""ServingEngine incremental updates: live absorption, targeted eviction,
versioning, staleness consolidation, and the `repro update` CLI front.

The governing invariant mirrors the recommender-level parity contract:
after `apply_updates`, cohort rows must be bit-identical to a freshly
booted engine over a from-scratch refit on the merged dataset — while the
untouched share of both cache layers keeps serving warm.
"""

import numpy as np
import pytest

from repro import (
    AbsorbingTimeRecommender,
    LDARecommender,
    MostPopularRecommender,
    ServingEngine,
)
from repro.data.dataset import RatingDataset
from repro.exceptions import ConfigError, DataFormatError
from repro.service import UpdateReport, load_event_file


def _blocks_dataset() -> RatingDataset:
    rng = np.random.default_rng(17)
    triples = [(f"A{u}", f"ai{i}", float(rng.integers(1, 6)))
               for u in range(9) for i in range(7) if rng.random() < 0.5]
    triples += [(f"B{u}", f"bi{i}", float(rng.integers(1, 6)))
                for u in range(7) for i in range(5) if rng.random() < 0.55]
    return RatingDataset.from_triples(triples, duplicates="last")


@pytest.fixture()
def warm_engine():
    dataset = _blocks_dataset()
    engine = ServingEngine(AbsorbingTimeRecommender(subgraph_size=12).fit(dataset))
    engine.serve_cohort(np.arange(dataset.n_users), k=5)
    return dataset, engine


EVENTS = [("A0", "ai1", 4.0), ("rookie", "ai2", 5.0)]  # touches block A only


class TestApplyUpdates:
    def test_parity_with_fresh_engine_on_merged_data(self, warm_engine):
        dataset, engine = warm_engine
        engine.apply_updates(EVENTS)
        users = np.arange(engine.dataset.n_users)
        served = engine.serve_cohort(users, k=5)
        fresh = ServingEngine(
            AbsorbingTimeRecommender(subgraph_size=12).fit(engine.dataset)
        )
        assert served.rows == fresh.serve_cohort(users, k=5).rows

    def test_eviction_restricted_to_affected_users(self, warm_engine):
        dataset, engine = warm_engine
        report = engine.apply_updates(EVENTS)
        assert report.mode == "incremental"
        assert 0 < report.n_affected_users < engine.dataset.n_users
        assert report.result_rows_evicted == report.n_affected_users - 1  # rookie had no entry
        served = engine.serve_cohort(np.arange(engine.dataset.n_users), k=5)
        # Untouched block B comes straight from the surviving result cache.
        assert served.result_cache_hits > 0
        assert served.n_solves == report.n_affected_users

    def test_scoring_cache_retention_reported(self, warm_engine):
        dataset, engine = warm_engine
        report = engine.apply_updates(EVENTS)
        assert report.scoring_cache["retained_groups"] > 0
        assert report.scoring_cache["invalidated_groups"] > 0

    def test_versioning_and_pending_counts(self, warm_engine):
        dataset, engine = warm_engine
        assert engine.model_version == 1
        report = engine.apply_updates(EVENTS)
        assert (report.model_version, engine.model_version) == (2, 2)
        assert engine.pending_events == len(EVENTS)
        report2 = engine.apply_updates([("B0", "bi1", 3.0)])
        assert report2.model_version == 3
        assert engine.pending_events == len(EVENTS) + 1

    def test_empty_batch_is_a_noop(self, warm_engine):
        dataset, engine = warm_engine
        report = engine.apply_updates([])
        assert isinstance(report, UpdateReport)
        assert (report.mode, report.n_events) == ("none", 0)
        assert engine.model_version == 1

    def test_new_users_and_items_served_live(self, warm_engine):
        dataset, engine = warm_engine
        engine.apply_updates([("rookie", "ai1", 5.0), ("A0", "fresh-item", 4.0)])
        rookie = engine.dataset.user_id("rookie")
        recs = engine.recommend(rookie, k=3)
        assert recs and all(r.item != engine.dataset.item_id("ai1")
                            for r in recs)

    def test_duplicates_policy_forwarded(self, warm_engine):
        dataset, engine = warm_engine
        from repro.exceptions import DataError

        rated_item = dataset.item_labels[int(dataset.items_of_user(0)[0])]
        # Default engine policy is "last": the re-rate lands.
        engine.apply_updates([("A0", rated_item, 2.0)])
        assert engine.dataset.rating(0, dataset.item_id(rated_item)) == 2.0
        # An explicit "error" override rejects a second re-rate.
        with pytest.raises(DataError, match="already rated"):
            engine.apply_updates([("A0", rated_item, 3.0)], duplicates="error")

    def test_consolidation_at_max_pending(self):
        dataset = _blocks_dataset()
        engine = ServingEngine(
            AbsorbingTimeRecommender(subgraph_size=12).fit(dataset),
            max_pending_events=3,
        )
        first = engine.apply_updates([("A0", "ai1", 2.0)])
        assert not first.consolidated and engine.pending_events == 1
        second = engine.apply_updates([("A1", "ai2", 3.0), ("B0", "bi1", 4.0)])
        assert second.consolidated
        assert engine.pending_events == 0
        # consolidate() itself bumped the version once more.
        assert engine.model_version == second.model_version == 4
        users = np.arange(engine.dataset.n_users)
        fresh = ServingEngine(
            AbsorbingTimeRecommender(subgraph_size=12).fit(engine.dataset)
        )
        assert engine.serve_cohort(users, k=5).rows == \
            fresh.serve_cohort(users, k=5).rows

    def test_refit_fallback_resets_the_staleness_clock(self):
        # A refit-mode update already IS a consolidation: pending_events
        # must restart at zero, never trigger a redundant second fit.
        dataset = _blocks_dataset()
        engine = ServingEngine(MostPopularRecommender().fit(dataset),
                               max_pending_events=2)
        report = engine.apply_updates([("A0", "ai1", 2.0), ("A1", "ai2", 3.0)])
        assert report.mode == "incremental"  # MostPopular updates in place
        lda_engine = ServingEngine(
            LDARecommender(n_topics=3).fit(dataset), max_pending_events=2,
        )
        report = lda_engine.apply_updates([("A0", "ai1", 2.0),
                                           ("A1", "ai2", 3.0)])
        assert report.mode == "refit"
        assert not report.consolidated
        assert lda_engine.pending_events == 0

    def test_refit_fallback_clears_all_results(self):
        dataset = _blocks_dataset()
        engine = ServingEngine(MostPopularRecommender().fit(dataset))
        engine.serve_cohort(np.arange(dataset.n_users), k=5)
        report = engine.apply_updates([("A0", "ai1", 2.0)])
        assert report.n_affected_users is None
        assert report.result_rows_evicted == dataset.n_users
        served = engine.serve_cohort(np.arange(engine.dataset.n_users), k=5)
        fresh = ServingEngine(MostPopularRecommender().fit(engine.dataset))
        assert served.rows == fresh.serve_cohort(
            np.arange(engine.dataset.n_users), k=5).rows

    def test_invalid_config_rejected(self):
        dataset = _blocks_dataset()
        fitted = MostPopularRecommender().fit(dataset)
        with pytest.raises(ConfigError):
            ServingEngine(fitted, max_pending_events=0)
        with pytest.raises(ConfigError):
            ServingEngine(fitted, update_duplicates="sum")


class TestCacheHooks:
    def test_clear_caches_drops_both_layers(self, warm_engine):
        dataset, engine = warm_engine
        assert engine.recommender.transition_cache is not None
        assert len(engine._results) > 0
        engine.clear_caches()
        assert len(engine._results) == 0
        assert engine.recommender.transition_cache is None
        # Serving still works, rebuilding from scratch.
        report = engine.serve_cohort(np.arange(4), k=3)
        assert report.n_solves == 4

    def test_invalidate_user_evicts_only_that_user(self, warm_engine):
        dataset, engine = warm_engine
        assert engine.invalidate_user(0) == 1
        assert engine.invalidate_user(0) == 0  # already gone
        report = engine.serve_cohort(np.arange(3), k=5)
        assert report.n_solves == 1
        assert report.result_cache_hits == 2
        with pytest.raises(Exception):
            engine.invalidate_user(10_000)

    def test_report_carries_cache_sizes_and_version(self, warm_engine):
        dataset, engine = warm_engine
        report = engine.serve_cohort(np.arange(5), k=5)
        summary = report.summary()
        assert summary["result_entries"] == len(engine._results)
        assert summary["scoring_entries"] == \
            engine.recommender.transition_cache.stats()["entries"]
        assert summary["version"] == 1
        stats = engine.stats()
        assert stats["model_version"] == 1
        assert stats["pending_events"] == 0


class TestEventFileAndCli:
    def test_load_event_file(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_text(
            "# comment line\n"
            "A0 ai1 4.0\n"
            "\n"
            "rookie ai2 5  # trailing comment\n"
        )
        events = load_event_file(str(path))
        assert events == [("A0", "ai1", 4.0), ("rookie", "ai2", 5.0)]

    def test_load_event_file_rejects_bad_lines(self, tmp_path):
        bad = tmp_path / "bad.log"
        bad.write_text("A0 ai1\n")
        with pytest.raises(DataFormatError, match="expected"):
            load_event_file(str(bad))
        nan = tmp_path / "nan.log"
        nan.write_text("A0 ai1 lots\n")
        with pytest.raises(DataFormatError, match="numeric"):
            load_event_file(str(nan))
        empty = tmp_path / "empty.log"
        empty.write_text("# nothing\n")
        with pytest.raises(DataFormatError, match="no rating events"):
            load_event_file(str(empty))

    def test_cli_update_replays_log_and_saves(self, tmp_path, capsys):
        from repro.cli import main

        dataset = _blocks_dataset()
        artifact = AbsorbingTimeRecommender(subgraph_size=12).fit(dataset) \
            .save(str(tmp_path / "model"))
        events = tmp_path / "events.log"
        events.write_text("A0 ai1 4.0\nrookie ai2 5.0\nB0 brand-new 3.0\n")
        out = tmp_path / "updated.npz"
        code = main(["update", "--artifact", artifact,
                     "--events", str(events), "--batch-size", "2",
                     "--serve-users", "6", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "applied event batches" in printed
        assert "model version 3" in printed  # two batches -> two bumps
        from repro.core.artifacts import load_artifact
        reloaded = load_artifact(str(out))
        assert reloaded.dataset.n_users == dataset.n_users + 1
        fresh = AbsorbingTimeRecommender(subgraph_size=12).fit(reloaded.dataset)
        np.testing.assert_array_equal(reloaded.score_users(),
                                      fresh.score_users())
