"""Thread-safety smoke: concurrent recommend / invalidate_user callers.

The engine's deployment shape is many reader threads over one process-wide
instance. The result cache (an OrderedDict plus hit/miss counters) is the
shared mutable state; these tests hammer it from a thread pool and assert
the invariants the lock guarantees: no exceptions, no lost counter
increments (every single-user request is exactly one hit or one miss), no
corrupted entries — and results identical to a serial engine throughout.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import AbsorbingTimeRecommender, ServingEngine

N_THREADS = 8
ROUNDS = 6


@pytest.fixture(scope="module")
def fitted_at(small_synth):
    return AbsorbingTimeRecommender().fit(small_synth.dataset)


@pytest.fixture(scope="module")
def serial_rows(fitted_at, small_synth):
    engine = ServingEngine(fitted_at)
    return {
        user: [(r.item, r.score) for r in engine.recommend(user, k=5)]
        for user in range(small_synth.dataset.n_users)
    }


def test_concurrent_recommend_counters_consistent(fitted_at, small_synth,
                                                  serial_rows):
    engine = ServingEngine(fitted_at)
    n_users = small_synth.dataset.n_users
    users = list(range(n_users)) * ROUNDS

    def hit(user):
        return user, [(r.item, r.score) for r in engine.recommend(user, k=5)]

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        results = list(pool.map(hit, users))

    for user, rows in results:
        assert rows == serial_rows[user], f"user {user} served wrong rows"
    # Every request resolved as exactly one hit or one miss — lost
    # increments under contention would break this accounting.
    assert engine.result_cache_hits + engine.result_cache_misses == len(users)
    # No lost entries: every user's list is cached exactly once. (Two
    # threads may legitimately both miss the same cold key concurrently,
    # so the miss count is bounded below, not pinned.)
    assert len(engine._results) == n_users
    assert engine.result_cache_misses >= n_users


def test_concurrent_recommend_and_invalidate(fitted_at, small_synth,
                                             serial_rows):
    engine = ServingEngine(fitted_at)
    n_users = small_synth.dataset.n_users
    rng = np.random.default_rng(7)
    reads = [("read", int(u))
             for u in rng.integers(0, n_users, size=n_users * ROUNDS)]
    evictions = [("evict", int(u))
                 for u in rng.integers(0, n_users, size=n_users)]
    ops = reads + evictions
    rng.shuffle(ops)

    def run(op):
        kind, user = op
        if kind == "read":
            return user, [(r.item, r.score) for r in engine.recommend(user, k=5)]
        engine.invalidate_user(user)
        return None

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        results = [r for r in pool.map(run, ops) if r is not None]

    # Interleaved eviction must never surface a wrong or partial list.
    for user, rows in results:
        assert rows == serial_rows[user], f"user {user} served wrong rows"
    assert engine.result_cache_hits + engine.result_cache_misses == len(reads)
    # The cache survives the storm in a servable state.
    after = engine.serve_cohort(np.arange(n_users), k=5)
    for row in after.rows:
        if row["rank"] == 1:
            assert (row["item"], row["score"]) == serial_rows[row["user"]][0]


def test_probe_then_solve_counts_each_request_once(fitted_at, small_synth,
                                                    serial_rows):
    """The front end's read shape under contention: probe, solve on a miss.

    A probe hit counts once in the probe and a miss once in the solve that
    follows, so with evictions interleaved every read is still exactly one
    hit or one miss, and every answer matches the serial engine.
    """
    engine = ServingEngine(fitted_at)
    n_users = small_synth.dataset.n_users
    rng = np.random.default_rng(11)
    ops = [("read", int(u))
           for u in rng.integers(0, n_users, size=n_users * ROUNDS)]
    n_reads = len(ops)
    ops += [("evict", int(u)) for u in rng.integers(0, n_users, size=n_users)]
    rng.shuffle(ops)

    def run(op):
        kind, user = op
        if kind == "evict":
            engine.invalidate_user(user)
            return None
        ranked = engine.lookup_many([user], k=5)[0]
        if ranked is None:
            ranked = engine.recommend_many([user], k=5)[0]
        return user, [(r.item, r.score) for r in ranked]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            results = [r for r in pool.map(run, ops, timeout=60)
                       if r is not None]
    finally:
        sys.setswitchinterval(interval)

    for user, rows in results:
        assert rows == serial_rows[user], f"user {user} served wrong rows"
    assert len(results) == n_reads
    assert engine.result_cache_hits + engine.result_cache_misses == n_reads


def test_version_bump_blocks_stale_reinsert(fitted_at, small_synth):
    """A solve that raced an update must not re-cache its pre-update rows.

    Simulated deterministically: bump model_version while a user's rows are
    being solved (hook into _score_users), then check the cache refused the
    insert — the request is still answered, but the next one re-solves
    against the updated model.
    """
    engine = ServingEngine(fitted_at)
    original = engine._score_users

    def bump_mid_solve(users, k, exclude_rated):
        engine.model_version += 1  # an update landing mid-solve
        return original(users, k, exclude_rated)

    engine._score_users = bump_mid_solve
    rows = engine.recommend(3, k=5)
    assert rows  # served, even though caching was refused
    engine._score_users = original
    assert all(key[0] != 3 for key in engine._results)
