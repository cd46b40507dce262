"""The micro-batching front end vs request-at-a-time serving, with receipts.

The front end's promise mirrors the paper's efficiency argument (Table 5):
an absorbing-cost solve over a *cohort* costs barely more than over one
user, so concurrent single-user requests should ride one coalesced
multi-RHS solve instead of queueing for serial ones. This bench drives a
live :class:`~repro.service.BatchingServer` with a seeded load generator
and measures exactly that trade:

* **closed loop** — ``CONCURRENCY`` workers, each awaiting its response
  before sending the next request; one shuffled pass over every distinct
  user with cold caches (the solve-bound regime where batching pays),
  then a warm repeat (the overhead-bound regime where it must not hurt).
  Batched (``max_batch=32``, 2 ms straggler window) vs unbatched
  (``max_batch=1``) on identical request sequences.
* **open loop** — Poisson arrivals at a rate calibrated from the measured
  batched throughput, the arrival process independent of completions;
  latency percentiles and the queue high-water mark land in the payload.
* **overload** — a deliberate stampede of cold requests at a tiny
  admission queue (cache hits are answered inline and never shed, so the
  caches are cleared first): the books must balance exactly (accepted +
  shed == fired, shed requests all typed
  :class:`~repro.exceptions.OverloadedError`, nothing hangs).

Asserted: every batched response is **bit-identical** to direct
``engine.recommend`` (items, labels, scores); overload accounting is
exact; and the batched server clears ≥ ``MIN_SPEEDUP_ANY`` × the
unbatched cold throughput at any scale, ≥ ``MIN_SPEEDUP_STRICT`` × at
(near-)default scale. Results land in ``BENCH_server.json``.
"""

import asyncio
import json
import os

import numpy as np

from benchmarks.conftest import bench_scale, strict_assertions
from repro import AbsorbingTimeRecommender, ServingEngine
from repro.exceptions import OverloadedError
from repro.experiments import ExperimentConfig, make_data
from repro.service import BatchingServer
from repro.utils.timer import Timer, per_second

K = 10
SEED = 29
CONCURRENCY = 64          # outstanding requests in the closed loop
MAX_BATCH = 32
MAX_DELAY_MS = 2.0
OVERLOAD_QUEUE = 8
OVERLOAD_FIRED = 300
MIN_SPEEDUP_ANY = 1.2     # batched vs unbatched, cold, any scale
MIN_SPEEDUP_STRICT = 2.0  # the ISSUE gate, enforced at scale >= 0.5

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(_REPO_ROOT, "BENCH_server.json")


def _closed_loop(engine, users, *, max_batch, cold):
    """Serve ``users`` through a fresh server with ``CONCURRENCY`` closed-loop
    workers; returns (elapsed_s, responses_by_position, report)."""
    if cold:
        engine.clear_caches()

    async def scenario():
        queue = list(enumerate(users))
        responses = [None] * len(users)

        async def worker(server):
            while queue:
                position, user = queue.pop()
                responses[position] = await server.recommend(int(user), k=K)

        async with BatchingServer(
                engine, max_batch_size=max_batch,
                max_delay_ms=MAX_DELAY_MS if max_batch > 1 else 0.0,
                max_queue=max(4 * CONCURRENCY, 1024)) as server:
            with Timer() as timer:
                await asyncio.gather(*[worker(server)
                                       for _ in range(CONCURRENCY)])
            return timer.elapsed, responses, server.report()

    return asyncio.run(scenario())


def _open_loop(engine, users, rate_per_s, rng):
    """Poisson arrivals at ``rate_per_s``, independent of completions."""
    engine.clear_caches()
    gaps = rng.exponential(1.0 / rate_per_s, size=len(users))

    async def scenario():
        async with BatchingServer(
                engine, max_batch_size=MAX_BATCH,
                max_delay_ms=MAX_DELAY_MS,
                max_queue=max(len(users), 1024)) as server:

            async def fire(user):
                return await server.recommend(int(user), k=K)

            tasks = []
            with Timer() as timer:
                for user, gap in zip(users, gaps):
                    tasks.append(asyncio.ensure_future(fire(user)))
                    await asyncio.sleep(gap)
                await asyncio.gather(*tasks)
            return timer.elapsed, server.report()

    return asyncio.run(scenario())


def _overload(engine):
    """A stampede against a tiny queue: exact typed shedding, no hangs.

    The caches are cleared first: a cached user is answered inline at
    admission and never shed, so a warm stampede would test nothing.
    """
    engine.clear_caches()

    async def scenario():
        async with BatchingServer(engine, max_batch_size=MAX_BATCH,
                                  max_delay_ms=0.0,
                                  max_queue=OVERLOAD_QUEUE) as server:
            results = await asyncio.gather(*[
                server.recommend(0, k=K) for _ in range(OVERLOAD_FIRED)],
                return_exceptions=True)
            return results, server.report()

    return asyncio.run(scenario())


def test_server_throughput_parity_and_shedding():
    scale = bench_scale()
    rng = np.random.default_rng(SEED)
    train = make_data("movielens", ExperimentConfig(scale=scale)).dataset
    engine = ServingEngine(AbsorbingTimeRecommender().fit(train))
    users = rng.permutation(train.n_users)

    # -- closed loop, cold: the solve-bound regime batching exists for ----
    unbatched_s, unbatched_rows, unbatched_report = _closed_loop(
        engine, users, max_batch=1, cold=True)
    batched_s, batched_rows, batched_report = _closed_loop(
        engine, users, max_batch=MAX_BATCH, cold=True)

    # Parity gate: every batched response bit-identical to the direct path.
    for user, served in zip(users, batched_rows):
        direct = engine.recommend(int(user), k=K)
        assert [(r.item, str(r.label), r.score) for r in served] == \
            [(r.item, str(r.label), r.score) for r in direct]
    # ... and to the unbatched server (same front end, no coalescing).
    assert [[(r.item, r.score) for r in row] for row in batched_rows] == \
        [[(r.item, r.score) for r in row] for row in unbatched_rows]

    cold_unbatched_rps = per_second(len(users), unbatched_s)
    cold_batched_rps = per_second(len(users), batched_s)
    speedup = cold_batched_rps / max(cold_unbatched_rps, 1e-12)

    # -- closed loop, warm: batching must not tax the cache-hit path ------
    warm_unbatched_s, _, _ = _closed_loop(engine, users, max_batch=1,
                                          cold=False)
    warm_batched_s, _, _ = _closed_loop(engine, users, max_batch=MAX_BATCH,
                                        cold=False)

    # -- open loop: Poisson arrivals at ~60% of measured capacity ---------
    open_rate = max(cold_batched_rps * 0.6, 50.0)
    open_s, open_report = _open_loop(engine, users, open_rate, rng)

    # -- overload: exact typed shedding -----------------------------------
    overload_results, overload_report = _overload(engine)
    shed = [r for r in overload_results if isinstance(r, OverloadedError)]
    served = [r for r in overload_results if isinstance(r, list)]
    assert len(shed) + len(served) == OVERLOAD_FIRED  # nothing hung/vanished
    assert len(shed) > 0  # the stampede actually overflowed the queue
    assert overload_report.n_rejected_overload == len(shed)
    assert overload_report.n_accepted == len(served)
    assert overload_report.n_completed == len(served)
    assert overload_report.queue_depth == 0

    payload = {
        "bench": "server",
        "algorithm": "AT",
        "scale": scale,
        "n_users": int(train.n_users),
        "n_items": int(train.n_items),
        "n_requests": int(len(users)),
        "k": K,
        "concurrency": CONCURRENCY,
        "max_batch": MAX_BATCH,
        "max_delay_ms": MAX_DELAY_MS,
        "cold_unbatched_rps": round(cold_unbatched_rps, 1),
        "cold_batched_rps": round(cold_batched_rps, 1),
        "batched_vs_unbatched": round(speedup, 2),
        "warm_unbatched_s": round(warm_unbatched_s, 4),
        "warm_batched_s": round(warm_batched_s, 4),
        "batched_mean_batch": round(batched_report.mean_batch_size, 2),
        "batched_p50_ms": round(batched_report.latency_ms_p50, 3),
        "batched_p95_ms": round(batched_report.latency_ms_p95, 3),
        "batched_p99_ms": round(batched_report.latency_ms_p99, 3),
        "unbatched_p50_ms": round(unbatched_report.latency_ms_p50, 3),
        "unbatched_p95_ms": round(unbatched_report.latency_ms_p95, 3),
        "open_loop_rate_rps": round(open_rate, 1),
        "open_loop_s": round(open_s, 4),
        "open_loop_p50_ms": round(open_report.latency_ms_p50, 3),
        "open_loop_p95_ms": round(open_report.latency_ms_p95, 3),
        "open_loop_p99_ms": round(open_report.latency_ms_p99, 3),
        "open_loop_max_queue_depth": int(open_report.max_queue_depth),
        "overload_fired": OVERLOAD_FIRED,
        "overload_queue": OVERLOAD_QUEUE,
        "overload_served": len(served),
        "overload_shed": len(shed),
        "overload_rejections_exact": True,
        "parity_batched_vs_direct": True,
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nserver bench: {json.dumps(payload, indent=2, sort_keys=True)}")

    # The batching win must be real at any scale; the ISSUE's 2x gate is
    # enforced where constant costs can't dominate (scale >= 0.5).
    assert batched_report.mean_batch_size > 1.0
    assert speedup >= MIN_SPEEDUP_ANY
    if strict_assertions():
        assert speedup >= MIN_SPEEDUP_STRICT
    # Open-loop admission stayed bounded and everything was answered.
    assert open_report.n_completed == len(users)
    assert open_report.n_rejected_overload == 0
