"""Concurrency stress: the fleet row cache must never serve pre-update rows.

The race under test: :meth:`ShardedEngine.apply_updates` bumps a shard's
model version and evicts that shard's users from the fleet row cache,
while reader threads hammer :meth:`ShardedEngine.serve_cohort` on the same
users. A solve that started *before* the update may finish *after* it —
the version-stamped insert must refuse to cache those stale rows, and any
read that starts after the update completes must see post-update rows.

The oracle is a single :class:`ServingEngine` over the same data receiving
the same events: its post-update cohort rows are the only acceptable
answer for post-update reads. Each round rates the target user's current
top-ranked item, which guarantees the user's row changes (the item
becomes rated, so ``exclude_rated=True`` must drop it).
"""

import threading
import time

import numpy as np
import pytest

from repro import AbsorbingTimeRecommender, ServingEngine, ShardedEngine
from repro.data.synthetic import federated_dataset

N_SHARDS = 3
K = 5
N_READERS = 4
N_ROUNDS = 3


@pytest.fixture()
def federated():
    return federated_dataset(4, scale=0.12, seed=21)


@pytest.fixture()
def pair(federated):
    """A fleet and its single-engine oracle, fitted on the same data."""
    fleet = ShardedEngine.fit(federated, AbsorbingTimeRecommender,
                              n_shards=N_SHARDS)
    single = ServingEngine(AbsorbingTimeRecommender().fit(federated))
    return fleet, single


def _top_item_label(single, user):
    """The label of the user's current #1 item (the next thing they rate)."""
    return str(single.recommend(user, k=1)[0].label)


class TestRowCacheUnderConcurrentUpdates:
    def test_readers_never_observe_pre_update_rows(self, pair, federated):
        fleet, single = pair
        cohort = np.arange(0, federated.n_users, 2)
        target = int(cohort[0])
        user_label = str(federated.user_labels[target])

        # Warm the fleet row cache: the stale-entry hazard only exists
        # when cached rows are in play before the update lands.
        fleet.serve_cohort(np.arange(federated.n_users), k=K)

        errors = []
        stop = threading.Event()
        updated = threading.Event()   # set once apply_updates has returned
        expected = {}                 # filled with post-update oracle rows

        def reader():
            while not stop.is_set():
                flag = updated.is_set()  # snapshot BEFORE the read starts
                try:
                    rows = fleet.serve_cohort(cohort, k=K).rows
                except Exception as exc:  # noqa: BLE001 - collected for report
                    errors.append(f"serve_cohort raised: {exc!r}")
                    return
                if flag and rows != expected["rows"]:
                    errors.append(
                        "post-update read returned pre-update rows "
                        f"(round {expected['round']})")
                    return
                time.sleep(0.001)  # unfair RLock: let the updater in

        for round_no in range(N_ROUNDS):
            events = [(user_label, _top_item_label(single, target), 5.0)]
            # Oracle first: expected post-update rows exist before the
            # fleet update can possibly complete.
            single.apply_updates(events)
            expected.update(rows=single.serve_cohort(cohort, k=K).rows,
                            round=round_no)

            stop.clear()
            updated.clear()
            threads = [threading.Thread(target=reader)
                       for _ in range(N_READERS)]
            for thread in threads:
                thread.start()

            fleet.apply_updates(events)
            updated.set()
            # Let the readers take several guaranteed post-update reads.
            for _ in range(3):
                if fleet.serve_cohort(cohort, k=K).rows != expected["rows"]:
                    errors.append(f"main-thread post-update read stale "
                                  f"(round {round_no})")
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "reader thread hung"

            assert not errors, errors[0]

        # After all rounds the cache must have fully converged on the
        # oracle — a persistent stale row-cache entry would surface here.
        assert fleet.serve_cohort(cohort, k=K).rows == \
            single.serve_cohort(cohort, k=K).rows

    def test_update_mid_flight_refuses_stale_cache_insert(self, pair,
                                                          federated):
        # Deterministic version of the race: the target shard's version
        # bumps while its cohort slice is being solved; the fleet must
        # serve the rows but keep them out of the row cache.
        fleet, _ = pair
        target = 0
        shard = fleet.shard_of_user(target)
        engine = fleet.engines[shard]
        original = engine._serve_cohort_arrays
        fired = threading.Event()

        def bump_mid_solve(*args, **kwargs):
            if not fired.is_set():
                fired.set()
                engine.model_version += 1
            return original(*args, **kwargs)

        engine._serve_cohort_arrays = bump_mid_solve
        try:
            report = fleet.serve_cohort(np.array([target]), k=K)
        finally:
            engine._serve_cohort_arrays = original
        assert fired.is_set() and report.rows
        assert all(key[0] != target for key in fleet._rows)

    def test_parallel_cohorts_against_rolling_updates(self, pair, federated):
        # Broad-spectrum hammering: rolling updates across MANY users while
        # reader threads serve disjoint cohorts. Nothing may raise, and the
        # end state must match the oracle exactly.
        fleet, single = pair
        n_users = federated.n_users
        cohorts = [np.arange(start, n_users, 3) for start in range(3)]
        errors = []
        stop = threading.Event()

        def reader(cohort):
            while not stop.is_set():
                try:
                    report = fleet.serve_cohort(cohort, k=K)
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))
                    return
                if len(report.rows) != len(cohort) * K and report.rows:
                    # Partial cohorts are fine (cold users rank < K items);
                    # raggedness beyond that would be a torn read.
                    sizes = {row["user"] for row in report.rows}
                    if len(sizes) != len(cohort):
                        errors.append("torn cohort: missing users")
                        return
                time.sleep(0.001)  # unfair RLock: let the updater in

        threads = [threading.Thread(target=reader, args=(cohort,))
                   for cohort in cohorts for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for user in range(0, n_users, max(7, n_users // 6)):
                label = str(federated.user_labels[user])
                events = [(label, _top_item_label(single, user), 4.0)]
                fleet.apply_updates(events)
                single.apply_updates(events)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "reader thread hung"
        assert not errors, errors[0]

        everyone = np.arange(n_users)
        assert fleet.serve_cohort(everyone, k=K).rows == \
            single.serve_cohort(everyone, k=K).rows


class TestReadsBetweenShardApplyAndAbsorb:
    """A shard engine serves its new items as soon as its own
    ``apply_updates`` returns, before the fleet front has absorbed their
    labels. Reads landing in that window must remap through a map that
    covers the answer, not index past the end of an older one."""

    def test_reads_in_the_window_return_ranked_lists(self, pair, federated):
        fleet, _ = pair
        rater = 0
        shard = fleet.shard_of_user(rater)
        rated = federated.matrix[rater].indices[0]
        # A co-rater shares the rater's component, so the walk reaches the
        # item the rater is about to add.
        reader = int(next(
            u for u in federated.matrix.tocsc()[:, rated].indices
            if u != rater
        ))
        engine = fleet.engines[shard]
        original = engine.apply_updates
        seen = {}

        def apply_then_read(*args, **kwargs):
            update = original(*args, **kwargs)
            k = engine.dataset.n_items
            seen["k"] = k
            seen["recommend"] = fleet.recommend(reader, k=k)
            seen["recommend_many"] = fleet.recommend_many([reader], k=k)[0]
            seen["serve_cohort"] = fleet.serve_cohort([reader], k=k).rows
            return update

        engine.apply_updates = apply_then_read
        try:
            fleet.apply_updates(
                [(federated.user_labels[rater], "fresh-item", 5.0)])
        finally:
            del engine.apply_updates
        fresh = federated.n_items  # the first global id updates append
        assert fleet.n_items == federated.n_items + 1
        for name in ("recommend", "recommend_many"):
            assert fresh in [r.item for r in seen[name]], name
        assert fresh in [row["item"] for row in seen["serve_cohort"]]
        # The window's answers are the post-update answers.
        assert seen["recommend"] == fleet.recommend(reader, k=seen["k"])
        assert seen["recommend_many"] == seen["recommend"]
