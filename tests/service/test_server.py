"""The micro-batching front end: parity, coalescing, backpressure, deadlines.

The load-bearing contract is in the module docstring of
:mod:`repro.service.server`: batching changes *when* the solve runs, never
what it computes — every response must be bit-identical to calling
``engine.recommend`` directly. The rest is operational behaviour under
stress: bounded queues shed with exact typed counters (never hang, never
grow), deadlines abandon requests cleanly, shutdown drains what was
admitted, and the HTTP binding maps every typed error to its status code.
"""

import asyncio
import json
import time

import numpy as np
import pytest

from repro import (
    AbsorbingTimeRecommender,
    ServingEngine,
    ShardedEngine,
)
from repro.data.synthetic import federated_dataset
from repro.exceptions import (
    ConfigError,
    DeadlineExceededError,
    OverloadedError,
    UnknownUserError,
)
from repro.service import BatchingServer, HttpFrontend


@pytest.fixture(scope="module")
def fitted_at(small_synth):
    return AbsorbingTimeRecommender().fit(small_synth.dataset)


@pytest.fixture()
def engine(fitted_at):
    return ServingEngine(fitted_at)


@pytest.fixture(scope="module")
def fleet():
    return ShardedEngine.fit(federated_dataset(4, scale=0.12, seed=7),
                             AbsorbingTimeRecommender, n_shards=3)


def run(coro):
    """Drive one async test body on a fresh event loop."""
    return asyncio.run(coro)


def assert_same_rankings(got, expected):
    """Bit-identical: same items, same labels, same float scores."""
    assert [(r.item, r.label, r.score) for r in got] == \
        [(r.item, r.label, r.score) for r in expected]


class _SlowEngine:
    """Delegating wrapper whose solves take ``delay_s`` — deadline fodder."""

    def __init__(self, engine, delay_s):
        self.engine = engine
        self.dataset = engine.dataset
        self.delay_s = delay_s

    def recommend(self, *args, **kwargs):
        return self.engine.recommend(*args, **kwargs)

    def recommend_many(self, users, **kwargs):
        time.sleep(self.delay_s)
        return self.engine.recommend_many(users, **kwargs)


class TestRecommendMany:
    """The synchronous batch hook itself, before any asyncio is involved."""

    def test_matches_recommend_loop(self, engine):
        users = list(range(0, engine.dataset.n_users, 3))
        batched = engine.recommend_many(users, k=7)
        for user, ranked in zip(users, batched):
            assert_same_rankings(ranked, engine.recommend(user, k=7))

    def test_mixed_excludes_group_by_depth(self, engine):
        users = [0, 1, 2, 3]
        excludes = [None, [5], [5, 6, 7], None]
        batched = engine.recommend_many(users, k=4, excludes=excludes)
        for user, banned, ranked in zip(users, excludes, batched):
            assert_same_rankings(
                ranked, engine.recommend(user, k=4, exclude=banned))

    def test_include_rated_path(self, engine):
        users = [2, 4, 6]
        batched = engine.recommend_many(users, k=5, exclude_rated=False)
        for user, ranked in zip(users, batched):
            assert_same_rankings(
                ranked, engine.recommend(user, k=5, exclude_rated=False))

    def test_sharded_fleet(self, fleet):
        users = list(range(0, fleet.n_users, 4))
        batched = fleet.recommend_many(users, k=5)
        for user, ranked in zip(users, batched):
            assert_same_rankings(ranked, fleet.recommend(user, k=5))

    def test_sharded_fleet_global_excludes(self, fleet):
        users = [0, 1, fleet.n_users - 1]
        # Global item ids; each shard must see only its translated slice.
        excludes = [[0, 1, 2], None, [fleet.n_items - 1, 3]]
        batched = fleet.recommend_many(users, k=4, excludes=excludes)
        for user, banned, ranked in zip(users, excludes, batched):
            assert_same_rankings(
                ranked, fleet.recommend(user, k=4, exclude=banned))

    def test_duplicate_users_each_answered(self, engine):
        batched = engine.recommend_many([5, 5, 5], k=3)
        expected = engine.recommend(5, k=3)
        for ranked in batched:
            assert_same_rankings(ranked, expected)

    def test_empty_batch(self, engine, fleet):
        assert engine.recommend_many([], k=3) == []
        assert fleet.recommend_many([], k=3) == []

    def test_excludes_length_mismatch(self, engine):
        with pytest.raises(ConfigError, match="excludes"):
            engine.recommend_many([0, 1], k=3, excludes=[None])

    def test_unknown_user_rejected(self, engine):
        with pytest.raises(UnknownUserError):
            engine.recommend_many([0, 10**6], k=3)


class TestBatchingServerParity:
    def test_concurrent_requests_bit_identical(self, engine):
        users = list(range(0, engine.dataset.n_users, 2))

        async def scenario():
            async with BatchingServer(engine, max_batch_size=16,
                                      max_delay_ms=5.0) as server:
                return await asyncio.gather(*[
                    server.recommend(user, k=8) for user in users])

        for user, ranked in zip(users, run(scenario())):
            assert_same_rankings(ranked, engine.recommend(user, k=8))

    def test_mixed_k_and_excludes_stay_identical(self, engine):
        specs = [(0, 3, None), (1, 8, [2, 4]), (2, 3, [9]),
                 (3, 5, None), (4, 8, None), (5, 3, [0, 1, 2, 3])]

        async def scenario():
            async with BatchingServer(engine, max_batch_size=8,
                                      max_delay_ms=5.0) as server:
                return await asyncio.gather(*[
                    server.recommend(user, k=k, exclude=banned)
                    for user, k, banned in specs])

        for (user, k, banned), ranked in zip(specs, run(scenario())):
            assert_same_rankings(
                ranked, engine.recommend(user, k=k, exclude=banned))

    def test_sharded_fleet_behind_server(self, fleet):
        users = list(range(0, fleet.n_users, 3))

        async def scenario():
            async with BatchingServer(fleet, max_batch_size=16,
                                      max_delay_ms=5.0) as server:
                return await asyncio.gather(*[
                    server.recommend(user, k=6) for user in users])

        for user, ranked in zip(users, run(scenario())):
            assert_same_rankings(ranked, fleet.recommend(user, k=6))


class TestCoalescing:
    def test_concurrent_arrivals_share_solves(self, engine):
        n = 48

        async def scenario():
            async with BatchingServer(engine, max_batch_size=16,
                                      max_delay_ms=20.0) as server:
                await asyncio.gather(*[
                    server.recommend(user % engine.dataset.n_users, k=4)
                    for user in range(n)])
                return server.report()

        report = run(scenario())
        assert report.n_completed == n
        assert report.n_batches < n  # actually coalesced
        assert max(report.batch_sizes) > 1
        assert sum(size * count
                   for size, count in report.batch_sizes.items()) == n

    def test_batch_size_one_disables_batching(self, engine):
        async def scenario():
            async with BatchingServer(engine, max_batch_size=1) as server:
                await asyncio.gather(*[
                    server.recommend(user, k=3) for user in range(10)])
                return server.report()

        report = run(scenario())
        assert report.batch_sizes == {1: 10}
        assert report.n_batches == 10

    def test_sequential_requests_never_wait_for_ghosts(self, engine):
        # With an empty queue each lone request is its own batch of one —
        # max_delay only ever delays when a batch is actually forming.
        async def scenario():
            async with BatchingServer(engine, max_batch_size=32,
                                      max_delay_ms=50.0) as server:
                for user in range(4):
                    await server.recommend(user, k=3)
                return server.report()

        report = run(scenario())
        assert report.batch_sizes == {1: 4}


class TestBackpressure:
    def test_overload_sheds_with_exact_counters(self, engine):
        n, max_queue = 200, 4

        async def scenario():
            async with BatchingServer(engine, max_batch_size=8,
                                      max_delay_ms=0.0,
                                      max_queue=max_queue) as server:
                results = await asyncio.gather(*[
                    server.recommend(user % engine.dataset.n_users, k=3)
                    for user in range(n)], return_exceptions=True)
                return results, server.report()

        results, report = run(scenario())
        shed = [r for r in results if isinstance(r, OverloadedError)]
        served = [r for r in results if isinstance(r, list)]
        # gather admits synchronously before the batch loop runs once, so
        # exactly max_queue requests fit and the rest are typed rejections.
        assert len(shed) == n - max_queue
        assert len(served) == max_queue
        assert report.n_rejected_overload == n - max_queue
        assert report.n_accepted == max_queue
        assert report.n_completed == max_queue
        assert report.max_queue_depth <= max_queue
        assert report.queue_depth == 0  # nothing left pending

    def test_overload_message_is_typed_and_actionable(self, engine):
        async def scenario():
            async with BatchingServer(engine, max_queue=1) as server:
                with pytest.raises(OverloadedError, match="queue is full"):
                    await asyncio.gather(*[
                        server.recommend(0, k=3) for _ in range(50)])

        run(scenario())

    def test_server_keeps_serving_after_shedding(self, engine):
        async def scenario():
            async with BatchingServer(engine, max_queue=2,
                                      max_delay_ms=0.0) as server:
                await asyncio.gather(*[
                    server.recommend(0, k=3) for _ in range(30)],
                    return_exceptions=True)
                return await server.recommend(1, k=3)  # queue drained: fine

        assert_same_rankings(run(scenario()), engine.recommend(1, k=3))

    def test_cache_hit_is_never_shed(self, engine):
        # max_queue bounds the solve backlog only: a hit takes no queue
        # slot, so a full queue of cold requests cannot shed it.
        expected = engine.recommend(0, k=3)

        async def scenario():
            async with BatchingServer(engine, max_queue=1,
                                      max_delay_ms=0.0) as server:
                return await asyncio.gather(
                    server.recommend(1, k=3), server.recommend(2, k=3),
                    server.recommend(0, k=3), return_exceptions=True)

        cold, shed, hit = run(scenario())
        assert isinstance(cold, list)
        assert isinstance(shed, OverloadedError)  # the queue really was full
        assert isinstance(hit, list)  # served, not shed
        assert_same_rankings(hit, expected)

    def test_not_running_rejects(self, engine):
        async def scenario():
            server = BatchingServer(engine)
            with pytest.raises(OverloadedError, match="not running"):
                await server.recommend(0)
            async with server:
                pass
            with pytest.raises(OverloadedError, match="not running"):
                await server.recommend(0)

        run(scenario())


class TestDeadlines:
    def test_slow_solve_misses_deadline(self, engine):
        slow = _SlowEngine(engine, delay_s=0.2)

        async def scenario():
            async with BatchingServer(slow, timeout_ms=25.0) as server:
                with pytest.raises(DeadlineExceededError, match="deadline"):
                    await server.recommend(0, k=3)
                return server.report()

        report = run(scenario())
        assert report.n_rejected_deadline == 1
        assert report.n_accepted == 1
        assert report.n_completed == 0  # late rows discarded, not delivered

    def test_per_request_timeout_overrides_default(self, engine):
        slow = _SlowEngine(engine, delay_s=0.15)

        async def scenario():
            async with BatchingServer(slow) as server:  # no default deadline
                ranked = await server.recommend(0, k=3)  # waits, succeeds
                with pytest.raises(DeadlineExceededError):
                    await server.recommend(1, k=3, timeout_ms=20.0)
                return ranked, server.report()

        ranked, report = run(scenario())
        assert_same_rankings(ranked, engine.recommend(0, k=3))
        assert report.n_completed == 1
        assert report.n_rejected_deadline == 1

    def test_books_balance_under_mixed_outcomes(self, engine):
        slow = _SlowEngine(engine, delay_s=0.05)

        async def scenario():
            async with BatchingServer(slow, max_batch_size=8,
                                      max_delay_ms=1.0) as server:
                await asyncio.gather(*[
                    server.recommend(user, k=3,
                                     timeout_ms=5.0 if user % 2 else None)
                    for user in range(12)], return_exceptions=True)
                return server.report()

        report = run(scenario())
        assert report.n_accepted == 12
        assert report.n_accepted == (report.n_completed + report.n_failed
                                     + report.n_rejected_deadline)


class TestLifecycle:
    def test_stop_drains_admitted_requests(self, engine):
        async def scenario():
            server = await BatchingServer(engine, max_batch_size=4,
                                          max_delay_ms=50.0).start()
            pending = [asyncio.ensure_future(server.recommend(user, k=3))
                       for user in range(9)]
            await asyncio.sleep(0)  # admit them all, none solved yet
            await server.stop()  # must answer all nine, then exit
            return await asyncio.gather(*pending), server.report()

        results, report = run(scenario())
        assert len(results) == 9
        assert report.n_completed == 9
        for user, ranked in enumerate(results):
            assert_same_rankings(ranked, engine.recommend(user, k=3))

    def test_double_start_rejected_and_stop_idempotent(self, engine):
        async def scenario():
            server = await BatchingServer(engine).start()
            with pytest.raises(ConfigError, match="already started"):
                await server.start()
            await server.stop()
            await server.stop()  # no-op, no error

        run(scenario())

    def test_report_before_start_is_all_zero(self, engine):
        report = BatchingServer(engine).report()
        assert report.seconds == 0.0
        assert report.requests_per_second == 0.0
        assert report.n_accepted == 0


class TestAdmissionValidation:
    def test_rejects_engines_without_batch_hook(self):
        with pytest.raises(ConfigError, match="recommend_many"):
            BatchingServer(object())

    @pytest.mark.parametrize("kwargs", [
        {"max_batch_size": 0}, {"max_batch_size": True},
        {"max_delay_ms": -1.0}, {"max_delay_ms": float("nan")},
        {"max_delay_ms": "2"}, {"max_queue": 0}, {"timeout_ms": 0.0},
        {"timeout_ms": float("inf")}, {"timeout_ms": True},
        {"latency_window": 0},
    ])
    def test_constructor_rejects_bad_knobs(self, engine, kwargs):
        with pytest.raises(ConfigError):
            BatchingServer(engine, **kwargs)

    def test_bad_requests_fail_at_admission_not_in_batch(self, engine):
        async def scenario():
            async with BatchingServer(engine) as server:
                with pytest.raises(UnknownUserError):
                    await server.recommend(10**6)
                with pytest.raises(UnknownUserError):
                    await server.recommend(True)
                with pytest.raises(ConfigError):
                    await server.recommend(0, k=0)
                with pytest.raises((ConfigError, UnknownUserError)):
                    await server.recommend(0, k=3, exclude=[True])
                for timeout_ms in (0, -5, float("nan"), True):
                    with pytest.raises(ConfigError, match="timeout_ms"):
                        await server.recommend(1, k=3, timeout_ms=timeout_ms)
                return server.report()

        report = run(scenario())
        assert report.n_accepted == 0  # nothing malformed reached the queue


class TestInlineHits:
    """Result-cache hits are answered at admission, never queued."""

    @pytest.mark.parametrize("k, exclude, exclude_rated", [
        (3, None, True), (8, None, True), (4, [1, 2, 5], True),
        (5, None, False), (4, [0, 3], False),
    ])
    def test_inline_answers_bit_identical(self, engine, k, exclude,
                                          exclude_rated):
        users = list(range(0, 24, 3))
        expected = [engine.recommend(user, k=k, exclude_rated=exclude_rated,
                                     exclude=exclude) for user in users]

        async def scenario():
            async with BatchingServer(engine, max_batch_size=16,
                                      max_delay_ms=5.0) as server:
                ranked = await asyncio.gather(*[
                    server.recommend(user, k=k, exclude_rated=exclude_rated,
                                     exclude=exclude) for user in users])
                return ranked, server.report()

        ranked, report = run(scenario())
        assert report.inline_hits == len(users)
        assert report.n_batches == 0
        for got, want in zip(ranked, expected):
            assert_same_rankings(got, want)

    def test_warm_requests_skip_the_batch_and_the_solve(self, engine):
        n = 30
        users = [user % 10 for user in range(n)]
        engine.recommend_many(list(range(10)), k=4)
        before = engine.stats()

        async def scenario():
            async with BatchingServer(engine, max_batch_size=8,
                                      max_delay_ms=20.0) as server:
                await asyncio.gather(*[server.recommend(user, k=4)
                                       for user in users])
                return server.report()

        report = run(scenario())
        after = engine.stats()
        assert report.n_batches == 0
        assert after["solves"] == before["solves"]
        assert after["result_misses"] == before["result_misses"]
        assert after["result_hits"] - before["result_hits"] == n
        assert report.inline_hits == n
        # Inline hits keep the books balanced and feed the latency window.
        assert report.n_accepted == report.n_completed == n
        assert report.latency_ms_max > 0.0
        assert report.queue_depth == report.max_queue_depth == 0

    def test_miss_still_batched_then_hits_inline(self, engine):
        async def scenario():
            async with BatchingServer(engine, max_delay_ms=0.0) as server:
                cold = await server.recommend(5, k=3)
                warm = await server.recommend(5, k=3)
                return cold, warm, server.report()

        cold, warm, report = run(scenario())
        assert_same_rankings(cold, warm)
        assert report.n_batches == 1
        assert report.inline_hits == 1
        assert report.n_completed == 2

    def test_uncached_engine_batches_every_request(self, fitted_at):
        engine = ServingEngine(fitted_at, result_cache_size=0)
        engine.warm()

        async def scenario():
            async with BatchingServer(engine, max_batch_size=1) as server:
                for user in (0, 1, 0, 1):
                    await server.recommend(user, k=10)
                return server.report()

        report = run(scenario())
        assert report.inline_hits == 0
        assert report.n_batches == 4
        assert report.n_completed == 4

    def test_report_endpoint_counts_inline_hits(self, engine):
        async def scenario():
            async with BatchingServer(engine) as server:
                async with HttpFrontend(server, port=0) as front:
                    await http_get(front.port, "/recommend?user=4&k=3")
                    await http_get(front.port, "/recommend?user=4&k=3")
                    return await http_get(front.port, "/report")

        status, payload = run(scenario())
        assert status == 200
        assert payload["inline_hits"] == 1
        assert payload["completed"] == 2 and payload["batches"] == 1

    def test_sharded_fleet_keeps_the_queue_path(self, fleet):
        users = [0, 1, 0, 1]

        async def scenario():
            async with BatchingServer(fleet, max_batch_size=1) as server:
                for user in users:
                    await server.recommend(user, k=3)
                return server.report()

        report = run(scenario())
        assert report.inline_hits == 0
        assert report.n_batches == len(users)


async def http_get(port, path):
    """Tiny raw-socket HTTP client (one request, Connection: close)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n"
                     "Connection: close\r\n\r\n".encode())
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split()[1])
        length = int([line.split(b":", 1)[1]
                      for line in head.split(b"\r\n")
                      if line.lower().startswith(b"content-length:")][0])
        body = await reader.readexactly(length)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return status, json.loads(body)


class TestHttpFrontend:
    def test_recommend_parity_over_the_wire(self, engine):
        users = list(range(0, engine.dataset.n_users, 6))

        async def scenario():
            async with BatchingServer(engine, max_batch_size=16,
                                      max_delay_ms=5.0) as server:
                async with HttpFrontend(server, port=0) as front:
                    return await asyncio.gather(*[
                        http_get(front.port, f"/recommend?user={user}&k=6")
                        for user in users])

        for user, (status, payload) in zip(users, run(scenario())):
            expected = engine.recommend(user, k=6)
            assert status == 200
            assert payload["user"] == user
            assert payload["items"] == [r.item for r in expected]
            assert payload["labels"] == [str(r.label) for r in expected]
            # JSON floats round-trip exactly: scores stay bit-identical.
            assert payload["scores"] == [r.score for r in expected]

    def test_query_parameters_are_honoured(self, engine):
        async def scenario():
            async with BatchingServer(engine) as server:
                async with HttpFrontend(server, port=0) as front:
                    return await http_get(
                        front.port,
                        "/recommend?user=3&k=4&exclude_rated=false"
                        "&exclude=1,2,3")

        status, payload = run(scenario())
        expected = engine.recommend(3, k=4, exclude_rated=False,
                                    exclude=[1, 2, 3])
        assert status == 200
        assert payload["items"] == [r.item for r in expected]
        assert payload["scores"] == [r.score for r in expected]

    def test_health_report_and_error_codes(self, engine):
        async def scenario():
            async with BatchingServer(engine) as server:
                async with HttpFrontend(server, port=0) as front:
                    port = front.port
                    health = await http_get(port, "/health")
                    await http_get(port, "/recommend?user=0&k=3")
                    report = await http_get(port, "/report")
                    missing = await http_get(port, "/recommend")
                    bad_k = await http_get(port, "/recommend?user=0&k=zero")
                    unknown = await http_get(port,
                                             "/recommend?user=999999")
                    lost = await http_get(port, "/nope")
                    bad_timeout = await http_get(
                        port, "/recommend?user=0&k=3&timeout_ms=-1")
                    return (health, report, missing, bad_k, unknown, lost,
                            bad_timeout)

        (health, report, missing, bad_k, unknown, lost,
         bad_timeout) = run(scenario())
        assert health[0] == 200
        assert health[1]["status"] == "ok"
        assert health[1]["shards"] == []  # single engine: nothing to degrade
        assert report[0] == 200 and report[1]["completed"] == 1
        assert missing[0] == 400 and "user" in missing[1]["error"]
        assert bad_k[0] == 400
        assert unknown[0] == 404
        assert lost[0] == 404
        assert bad_timeout[0] == 400 and "timeout_ms" in bad_timeout[1]["error"]

    def test_post_is_rejected(self, engine):
        async def scenario():
            async with BatchingServer(engine) as server:
                async with HttpFrontend(server, port=0) as front:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", front.port)
                    writer.write(b"POST /recommend HTTP/1.1\r\n"
                                 b"Host: t\r\nConnection: close\r\n\r\n")
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    writer.close()
                    return int(head.split()[1])

        assert run(scenario()) == 405

    def test_keep_alive_serves_many_requests_per_connection(self, engine):
        async def scenario():
            async with BatchingServer(engine) as server:
                async with HttpFrontend(server, port=0) as front:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", front.port)
                    statuses = []
                    for user in range(3):
                        writer.write(f"GET /recommend?user={user} HTTP/1.1"
                                     "\r\nHost: t\r\n\r\n".encode())
                        await writer.drain()
                        head = await reader.readuntil(b"\r\n\r\n")
                        statuses.append(int(head.split()[1]))
                        length = int([ln.split(b":", 1)[1]
                                      for ln in head.split(b"\r\n")
                                      if ln.lower().startswith(
                                          b"content-length:")][0])
                        await reader.readexactly(length)
                    writer.close()
                    return statuses, server.report()

        statuses, report = run(scenario())
        assert statuses == [200, 200, 200]
        assert report.n_completed == 3

    def test_stop_closes_idle_keep_alive_connections(self, engine):
        loop_errors = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context))
            async with BatchingServer(engine) as server:
                front = await HttpFrontend(server, port=0).start()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", front.port)
                writer.write(b"GET /recommend?user=0&k=3 HTTP/1.1\r\n"
                             b"Host: t\r\n\r\n")
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                length = int([ln.split(b":", 1)[1]
                              for ln in head.split(b"\r\n")
                              if ln.lower().startswith(b"content-length:")][0])
                await reader.readexactly(length)
                # The client now idles on a keep-alive connection.
                await asyncio.wait_for(front.stop(), 1.0)
                tail = await asyncio.wait_for(reader.read(), 1.0)
                writer.close()
                return int(head.split()[1]), tail

        status, tail = run(scenario())
        assert status == 200
        assert tail == b""  # EOF: the server closed the idle connection
        assert loop_errors == []

    def test_stop_lets_in_flight_request_finish(self, engine):
        async def scenario():
            async with BatchingServer(_SlowEngine(engine, 0.3)) as server:
                front = await HttpFrontend(server, port=0).start()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", front.port)
                writer.write(b"GET /recommend?user=0&k=3 HTTP/1.1\r\n"
                             b"Host: t\r\n\r\n")
                await writer.drain()
                while server.n_accepted == 0:  # the request is now in flight
                    await asyncio.sleep(0.005)
                stopping = asyncio.create_task(front.stop())
                response = await asyncio.wait_for(reader.read(), 5.0)
                await asyncio.wait_for(stopping, 5.0)
                writer.close()
                return response

        response = run(scenario())
        head, _, body = response.partition(b"\r\n\r\n")
        assert int(head.split()[1]) == 200
        payload = json.loads(body)
        assert payload["items"] == [r.item for r in engine.recommend(0, k=3)]

    def test_overload_maps_to_429(self, engine):
        async def scenario():
            async with BatchingServer(engine, max_queue=1,
                                      max_delay_ms=0.0) as server:
                async with HttpFrontend(server, port=0) as front:
                    responses = await asyncio.gather(*[
                        http_get(front.port, "/recommend?user=0&k=3")
                        for _ in range(20)])
                    return responses, server.report()

        responses, report = run(scenario())
        codes = sorted(status for status, _ in responses)
        assert set(codes) <= {200, 429}
        assert codes.count(429) == report.n_rejected_overload
        assert codes.count(200) == report.n_completed
        assert 429 in codes  # the stampede actually shed something

    def test_deadline_maps_to_504(self, engine):
        slow = _SlowEngine(engine, delay_s=0.2)

        async def scenario():
            async with BatchingServer(slow, timeout_ms=20.0) as server:
                async with HttpFrontend(server, port=0) as front:
                    return await http_get(front.port,
                                          "/recommend?user=0&k=3")

        status, payload = run(scenario())
        assert status == 504
        assert "deadline" in payload["error"]

    def test_requires_batching_server(self):
        with pytest.raises(ConfigError, match="BatchingServer"):
            HttpFrontend("not a server")
