"""Multi-process shard fleet: parity, updates, WAL checkpoints, lifecycle.

The fault-free contract of :class:`ProcessShardFleet`: everything it
answers — single queries, batches, cohorts, update reports — must be
bit-identical to the in-process :class:`ShardedEngine` serving the same
artifacts, because the workers run the very same engine code behind a
pipe. Supervision (crashes, restarts, degraded mode) is exercised in
``test_fleet_faults.py``; here the processes stay healthy.
"""

import os

import numpy as np
import pytest

from repro import AbsorbingTimeRecommender, ShardedEngine, ShardPlan
from repro.data.synthetic import federated_dataset, giant_component
from repro.exceptions import (
    ConfigError,
    ShardUnavailableError,
    UnknownUserError,
)
from repro.service import EDGE_CUT_HINT, ProcessShardFleet

N_SHARDS = 3


@pytest.fixture(scope="module")
def federated():
    return federated_dataset(5, scale=0.12, seed=3)


@pytest.fixture(scope="module")
def artifacts_dir(federated, tmp_path_factory):
    plan = ShardPlan.build(federated, N_SHARDS)
    sharded = ShardedEngine.fit(federated, AbsorbingTimeRecommender,
                                plan=plan)
    path = str(tmp_path_factory.mktemp("fleet-artifacts"))
    sharded.save(path)
    return path


@pytest.fixture(scope="module")
def inproc(artifacts_dir):
    return ShardedEngine.from_directory(artifacts_dir)


@pytest.fixture()
def fleet(artifacts_dir, tmp_path):
    with ProcessShardFleet.from_directory(
            artifacts_dir, wal_dir=str(tmp_path / "wal")) as fleet:
        yield fleet


def _assert_rows_match(fleet_rows, inproc_rows):
    assert len(fleet_rows) == len(inproc_rows)
    for ours, theirs in zip(fleet_rows, inproc_rows):
        assert {k: v for k, v in ours.items() if k != "score"} \
            == {k: v for k, v in theirs.items() if k != "score"}
        assert ours["score"] == pytest.approx(theirs["score"], abs=1e-12)


class TestServingParity:
    def test_recommend_matches_in_process(self, federated, fleet, inproc):
        for user in range(0, federated.n_users, 7):
            ours = fleet.recommend(user, k=10)
            theirs = inproc.recommend(user, k=10)
            assert [(r.item, r.label) for r in ours] \
                == [(r.item, r.label) for r in theirs]
            assert [r.score for r in ours] \
                == pytest.approx([r.score for r in theirs], abs=1e-12)

    def test_recommend_many_matches_in_process(self, federated, fleet, inproc):
        users = list(range(0, federated.n_users, 5))
        ours = fleet.recommend_many(users, k=5)
        theirs = inproc.recommend_many(users, k=5)
        assert len(ours) == len(theirs) == len(users)
        for a, b in zip(ours, theirs):
            assert [(r.item, r.label) for r in a] \
                == [(r.item, r.label) for r in b]

    def test_serve_cohort_matches_and_stamps_health(self, federated, fleet,
                                                    inproc):
        cohort = np.arange(federated.n_users)
        ours = fleet.serve_cohort(cohort, k=10)
        theirs = inproc.serve_cohort(cohort, k=10)
        _assert_rows_match(ours.rows, theirs.rows)
        # The fleet report additionally carries supervision state.
        assert ours.restarts == 0
        assert ours.replayed_batches == 0
        assert len(ours.shard_health) == N_SHARDS
        assert all(row["state"] == "up" for row in ours.shard_health)
        summary = ours.summary()
        assert summary["restarts"] == 0
        assert summary["replayed_batches"] == 0

    def test_exclusions_honoured(self, fleet, inproc):
        banned = [r.item for r in fleet.recommend(0, k=3)]
        ours = fleet.recommend(0, k=3, exclude=banned)
        theirs = inproc.recommend(0, k=3, exclude=banned)
        assert not set(banned) & {r.item for r in ours}
        assert [(r.item, r.score) for r in ours] \
            == [(r.item, r.score) for r in theirs]

    def test_unknown_user_rejected_without_rpc(self, federated, fleet):
        with pytest.raises(UnknownUserError):
            fleet.recommend(federated.n_users + 50, k=3)

    def test_invalidate_user_matches_in_process(self, fleet, inproc):
        # Both transports evict the fleet row and the shard engine's entry
        # and return the shard engine's count.
        inproc.clear_caches()
        shard = inproc.shard_of_user(0)
        for tier in (fleet, inproc):
            tier.warm(k=10)
        dropped = [tier.invalidate_user(0) for tier in (fleet, inproc)]
        assert dropped == [1, 1]
        stats = [tier.stats() for tier in (fleet, inproc)]
        assert stats[0]["row_entries"] == stats[1]["row_entries"]
        assert stats[0]["shards"][shard]["result_entries"] \
            == stats[1]["shards"][shard]["result_entries"]
        assert [tier.invalidate_user(0) for tier in (fleet, inproc)] == [0, 0]
        fleet.close()
        with pytest.raises(ShardUnavailableError):
            fleet.invalidate_user(0)

    def test_row_cache_serves_second_pass(self, federated, fleet):
        cohort = np.arange(min(32, federated.n_users))
        cold = fleet.serve_cohort(cohort, k=10)
        warm = fleet.serve_cohort(cohort, k=10)
        _assert_rows_match(warm.rows, cold.rows)
        assert fleet.stats()["row_entries"] >= cohort.size


class TestUpdates:
    def _events(self, federated):
        return [
            (federated.user_labels[0], federated.item_labels[0], 5.0),
            ("brand-new-user", federated.item_labels[0], 4.0),
        ]

    def test_update_report_matches_in_process(self, federated, artifacts_dir,
                                              fleet, tmp_path):
        reference = ShardedEngine.from_directory(artifacts_dir)
        events = self._events(federated)
        ours = fleet.apply_updates(events, duplicates="last")
        theirs = reference.apply_updates(events, duplicates="last")
        for field in ("n_events", "n_shards_touched", "n_new_users",
                      "n_new_items", "n_replaced"):
            assert getattr(ours, field) == getattr(theirs, field), field
        assert ours.replayed_batches == 0
        assert fleet.n_users == reference.n_users == federated.n_users + 1

    def test_new_user_served_with_parity(self, federated, artifacts_dir,
                                         fleet):
        reference = ShardedEngine.from_directory(artifacts_dir)
        events = self._events(federated)
        fleet.apply_updates(events, duplicates="last")
        reference.apply_updates(events, duplicates="last")
        new_user = fleet.n_users - 1
        ours = fleet.recommend(new_user, k=10)
        theirs = reference.recommend(new_user, k=10)
        assert [(r.item, r.label) for r in ours] \
            == [(r.item, r.label) for r in theirs]
        assert [r.score for r in ours] \
            == pytest.approx([r.score for r in theirs], abs=1e-12)

    def test_one_eviction_pass_counts_dropped_rows(self, federated, fleet):
        # S3: the fleet-level row cache is scanned once per batch (after
        # every touched shard applied), and the report says what fell out.
        cohort = np.arange(min(40, federated.n_users))
        fleet.serve_cohort(cohort, k=10)
        cached_before = fleet.stats()["row_entries"]
        assert cached_before >= cohort.size
        shard = fleet.shard_of_user(0)
        report = fleet.apply_updates(
            [(federated.user_labels[0], federated.item_labels[0], 2.0)],
            duplicates="last",
        )
        assert report.fleet_rows_evicted > 0
        assert "fleet_rows_evicted" in report.summary()
        # Only the touched shard's rows fell out; other shards stay warm.
        evicted = cached_before - fleet.stats()["row_entries"]
        assert evicted == report.fleet_rows_evicted
        untouched = [u for u in cohort if fleet.shard_of_user(u) != shard]
        assert len(untouched) <= fleet.stats()["row_entries"]

    def test_bad_batch_rejects_before_wal_and_mutation(self, federated,
                                                       fleet):
        from repro.exceptions import DataError
        before = fleet.n_users
        with pytest.raises(DataError):
            fleet.apply_updates([
                ("another-new-user", federated.item_labels[0], 4.0),
                (federated.user_labels[0], federated.item_labels[0], 99.0),
            ])
        assert fleet.n_users == before
        for shard in range(N_SHARDS):
            assert fleet._wal_read(shard) == []

    def test_non_serializable_label_rejected(self, federated, fleet):
        with pytest.raises(ConfigError, match="JSON-serializable"):
            fleet.apply_updates(
                [(object(), federated.item_labels[0], 3.0)]
            )


class TestCheckpointAndWal:
    def test_wal_written_then_truncated_by_save(self, federated, fleet,
                                                tmp_path):
        event = (federated.user_labels[0], federated.item_labels[0], 1.0)
        fleet.apply_updates([event], duplicates="last")
        shard = fleet.shard_of_user(0)
        assert len(fleet._wal_read(shard)) == 1
        out = str(tmp_path / "checkpoint")
        fleet.save(out)
        for s in range(N_SHARDS):
            assert fleet._wal_read(s) == []
        # The checkpoint reloads — in-process or as a new fleet — with the
        # update already baked in (nothing left to replay).
        reloaded = ShardedEngine.from_directory(out)
        assert [(r.item, r.score) for r in reloaded.recommend(0, k=5)] \
            == [(r.item, r.score) for r in fleet.recommend(0, k=5)]

    def test_boot_replays_leftover_wal(self, federated, artifacts_dir,
                                       tmp_path):
        # A supervisor that dies after fsync but before checkpointing
        # leaves the batch in the WAL; the next boot replays it.
        wal_dir = str(tmp_path / "wal")
        event = (federated.user_labels[0], federated.item_labels[0], 1.5)
        with ProcessShardFleet.from_directory(artifacts_dir,
                                              wal_dir=wal_dir) as first:
            first.apply_updates([event], duplicates="last")
            expected = [(r.item, r.score) for r in first.recommend(0, k=5)]
            shard = first.shard_of_user(0)
            assert len(first._wal_read(shard)) == 1
        with ProcessShardFleet.from_directory(artifacts_dir,
                                              wal_dir=wal_dir) as second:
            assert second.replayed_batches == 1
            assert [(r.item, r.score)
                    for r in second.recommend(0, k=5)] == expected

    def test_torn_wal_tail_is_dropped(self, federated, artifacts_dir,
                                      tmp_path):
        wal_dir = str(tmp_path / "wal")
        event = (federated.user_labels[0], federated.item_labels[0], 2.5)
        with ProcessShardFleet.from_directory(artifacts_dir,
                                              wal_dir=wal_dir) as first:
            first.apply_updates([event], duplicates="last")
            shard = first.shard_of_user(0)
            wal_path = first._wal_path(shard)
        with open(wal_path, "a", encoding="utf-8") as handle:
            handle.write('{"events": [["torn')  # crash mid-append
        with ProcessShardFleet.from_directory(artifacts_dir,
                                              wal_dir=wal_dir) as second:
            assert second.replayed_batches == 1  # whole record only
            second.recommend(0, k=5)
            # Boot repaired the file: the fragment is physically gone, so
            # the next append starts on a fresh line.
            with open(wal_path, encoding="utf-8") as handle:
                assert "torn" not in handle.read()

    def test_append_after_torn_tail_does_not_lose_batches(
            self, federated, artifacts_dir, tmp_path):
        # The dangerous sequence: torn tail → repair on boot-replay →
        # *new acknowledged batch appended*. Without truncation the new
        # batch would fuse onto the fragment into one unparseable line
        # and every later replay would silently discard it.
        wal_dir = str(tmp_path / "wal")
        event = (federated.user_labels[0], federated.item_labels[0], 3.5)
        with ProcessShardFleet.from_directory(artifacts_dir,
                                              wal_dir=wal_dir) as first:
            shard = first.shard_of_user(0)
            wal_path = first._wal_path(shard)
            with open(wal_path, "a", encoding="utf-8") as handle:
                handle.write('{"events": [["torn')  # crash mid-append
            first.restart_shard(shard)  # replay path repairs the tail
            first.apply_updates([event], duplicates="last")
            expected = [(r.item, r.score) for r in first.recommend(0, k=5)]
            assert len(first._wal_read(shard)) == 1
        with ProcessShardFleet.from_directory(artifacts_dir,
                                              wal_dir=wal_dir) as second:
            assert second.replayed_batches == 1
            assert [(r.item, r.score)
                    for r in second.recommend(0, k=5)] == expected


class TestLifecycle:
    def test_health_and_stats(self, fleet):
        health = fleet.health()
        assert health["status"] == "ok"
        assert [row["shard"] for row in health["shards"]] \
            == list(range(N_SHARDS))
        pids = [row["pid"] for row in health["shards"]]
        assert len(set(pids)) == N_SHARDS
        assert all(pid != os.getpid() for pid in pids)
        stats = fleet.stats()
        assert stats["n_shards"] == N_SHARDS
        assert stats["restarts"] == 0
        assert "ProcessShardFleet" in repr(fleet)

    def test_close_is_idempotent_and_downs_the_fleet(self, artifacts_dir,
                                                     tmp_path):
        fleet = ProcessShardFleet.from_directory(
            artifacts_dir, wal_dir=str(tmp_path / "wal"))
        pids = [fleet.worker_pid(s) for s in range(N_SHARDS)]
        fleet.close()
        fleet.close()
        assert fleet.health()["status"] == "degraded"
        with pytest.raises(ShardUnavailableError):
            fleet.recommend(0, k=3)
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # the worker processes are gone

    def test_rejects_mismatched_plan(self, federated, artifacts_dir,
                                     tmp_path):
        other = ShardPlan.build(federated, 2)
        paths = [os.path.join(artifacts_dir, f"shard-{s:03d}.npz")
                 for s in range(N_SHARDS)]
        with pytest.raises(ConfigError):
            ProcessShardFleet(other, paths, str(tmp_path / "wal"))


class TestHaloHint:
    def test_stale_ghost_hint_names_edge_cut_replan(self, tmp_path):
        # S4: on an edge-cut fleet a new item lands only on its user's
        # owner shard; replicas holding a ghost of that user go stale and
        # the report hints the re-plan command by name.
        giant = giant_component(scale=0.12, seed=7)
        plan = ShardPlan.build_edge_cut(giant, 3, halo_hops=2)
        sharded = ShardedEngine.fit(giant, AbsorbingTimeRecommender,
                                    plan=plan)
        path = str(tmp_path / "halo-artifacts")
        sharded.save(path)
        with ProcessShardFleet.from_directory(path) as fleet:
            target = None
            with fleet._routing_lock:
                for user in range(giant.n_users):
                    label = giant.user_labels[user]
                    owner = fleet._user_shard_by_label[label]
                    if fleet._shards_with_locked(label, "user", {}) - {owner}:
                        target = (label, owner)
                        break
            assert target is not None, "2-hop halos should replicate users"
            label, owner = target
            report = fleet.apply_updates([(label, "fresh-item", 4.0)])
            assert report.n_new_items == 1
            assert [shard for shard, _ in report.per_shard] == [owner]
            assert report.stale_ghost_events == 1
            assert EDGE_CUT_HINT in report.hint
            assert "shard-fit --partitioner edge-cut" in report.hint
            assert report.summary()["hint"] == report.hint
            # The fleet still serves and resolves the new item globally.
            assert fleet.n_items == giant.n_items + 1
            fleet.recommend(0, k=3)


class TestCrossTierHaloParity:
    """Both transports share one router, so on an edge-cut plan the same
    update batches must route, report, reject and rank identically."""

    def test_halo_updates_match_in_process_tier(self, tmp_path):
        giant = giant_component(scale=0.12, seed=7)
        plan = ShardPlan.build_edge_cut(giant, 4, halo_hops=1)
        path = str(tmp_path / "halo-artifacts")
        ShardedEngine.fit(giant, AbsorbingTimeRecommender,
                          plan=plan).save(path)
        inproc = ShardedEngine.from_directory(path)
        with inproc._routing_lock:
            holders = inproc._shards_with_locked
            user = giant.user_labels[0]
            co_located = (user, giant.item_labels[giant.matrix[0].indices[0]],
                          5.0)
            replicated = next(
                label for label in giant.user_labels
                if holders(label, "user", {})
                - {inproc._user_shard_by_label[label]})
            uncovered = next(
                (u, i) for u in giant.user_labels for i in giant.item_labels
                if not holders(u, "user", {}) & holders(i, "item", {}))
        batches = [
            ([co_located], "last"),
            ([(replicated, "fresh-item", 4.0)], None),
        ]
        with ProcessShardFleet.from_directory(path) as fleet:
            for events, duplicates in batches:
                ours = fleet.apply_updates(events, duplicates=duplicates)
                theirs = inproc.apply_updates(events, duplicates=duplicates)
                summary, expected = ours.summary(), theirs.summary()
                summary.pop("seconds")
                expected.pop("seconds")
                assert summary == expected
                assert [s for s, _ in ours.per_shard] == \
                    [s for s, _ in theirs.per_shard]
            assert ours.stale_ghost_events == 1
            messages = []
            for tier in (fleet, inproc):
                with pytest.raises(ConfigError,
                                   match="no shard holds both") as excinfo:
                    tier.apply_updates([(*uncovered, 3.0)])
                messages.append(str(excinfo.value))
            assert messages[0] == messages[1]
            assert fleet.n_items == inproc.n_items == giant.n_items + 1
            everyone = np.arange(fleet.n_users)
            _assert_rows_match(fleet.serve_cohort(everyone, k=5).rows,
                               inproc.serve_cohort(everyone, k=5).rows)
