"""The three workloads, each measured untraced and, with ``trace``, traced.

Every workload draws all of its inputs from ``seed`` before its timed
window, checks its outputs against a direct reference, and returns an
:class:`Outcome`. The model data is fixed per workload (``DATA_SEED``) so
that set-up and memory compare across seeds; the seed varies the traffic.
Rates are absolute constants, never calibrated per run.

End-to-end latency and throughput are medians over ``SEGMENTS`` runs of
consecutive operations, so that a burst of interference from outside the
benchmark moves one segment, not the reported figure.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from repro.exceptions import ReproError

from perfbench import common, tracer as tracing
from perfbench.common import SETUP_BOOTS, median, percentile
from perfbench.http_child import MAX_BATCH, MAX_DELAY_MS, MAX_QUEUE

K = 10
DATA_SEED = 7
SEGMENTS = 10
HTTP_RATE = 200.0          # requests/s offered to http_warm_zipf
HTTP_CONNECTIONS = 2
COLD_RATE = 200.0          # requests/s offered to server_cold_open
READS_PER_WRITE = 9
READ_USERS = 16
WRITE_EVENTS = 8
FLEET_TENANTS = 4
FLEET_SHARDS = 2
#: Closed-loop operations per second of window: a fixed amount of work,
#: so that every run ends with the same model state (the writes grow it).
#: The loop stops early, and says so, at ``FLEET_DEADLINE`` windows.
FLEET_OPS_PER_S = 150
FLEET_DEADLINE = 3.0
#: A generator whose p99 lateness (send - due) exceeds this fell behind.
LAG_LIMIT_MS = 20.0
#: Limit on joining the server child and the fleet workers.
JOIN_TIMEOUT_S = 20.0

E2E_UNITS = common.metric_units("end_to_end")
#: Every per-layer metric and its unit; a layer that does no work in a
#: workload reports 0 there.
LAYER_UNITS = common.metric_units("per_layer")


@dataclass
class Window:
    """One timed window and its books.

    ``ops`` holds ``(start, end, kind)`` for every operation that passed
    its check, in send order; ``start`` is the due time in an open loop
    and the send time in the closed loop.
    """

    ops: list = field(default_factory=list)
    lags_ms: list = field(default_factory=list)
    offered: int = 0
    failed: int = 0

    def latencies_ms(self, kind: str = "read") -> list:
        return [1000.0 * (end - start) for start, end, k in self.ops
                if k == kind]

    def segment_medians(self) -> tuple[float, float, float]:
        """Read p50 and p99 (ms) and operations/s, each the median over
        ``SEGMENTS`` equal runs of consecutive operations."""
        bounds = np.linspace(0, len(self.ops), SEGMENTS + 1).astype(int)
        p50s, p99s, rates = [], [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            segment = self.ops[lo:hi]
            reads = [1000.0 * (end - start)
                     for start, end, kind in segment if kind == "read"]
            wall = max(end for _, end, _ in segment) - segment[0][0] \
                if segment else 0.0
            if reads and wall > 0:
                p50s.append(percentile(reads, 50))
                p99s.append(percentile(reads, 99))
                rates.append(len(segment) / wall)
        return median(p50s), median(p99s), median(rates)

    def loadgen(self) -> dict:
        lag_p99 = percentile(self.lags_ms, 99)
        return {
            "loadgen.lag_ms_p99": lag_p99,
            "loadgen.lag_ms_max": max(self.lags_ms, default=0.0),
            "loadgen.offered": self.offered,
            "loadgen.completed": len(self.ops),
            "loadgen.behind": int(lag_p99 > LAG_LIMIT_MS
                                  or len(self.ops) + self.failed
                                  < self.offered),
        }


@dataclass
class Outcome:
    """What a workload run hands back to ``run.py``."""

    e2e: dict
    layers: dict
    attempted: int
    failed: int
    problems: list
    ledger: list
    spans: list = field(default_factory=list)


# -- shared helpers --------------------------------------------------------------

def _movielens_model(scale: float):
    from repro import AbsorbingTimeRecommender, generate_dataset, movielens_like

    dataset = generate_dataset(movielens_like(scale), seed=DATA_SEED).dataset
    return dataset, AbsorbingTimeRecommender().fit(dataset)


def _tail_mask(dataset) -> np.ndarray:
    """Items in the 20%-of-ratings tail of the initial training data."""
    from repro.data.longtail import long_tail_split

    mask = np.zeros(dataset.n_items, dtype=bool)
    mask[long_tail_split(dataset).tail_items] = True
    return mask


def _tail_share(item_lists, tail: np.ndarray) -> float:
    """Share of served top-k slots whose item is in the tail."""
    slots = in_tail = 0
    for items in item_lists:
        slots += len(items)
        in_tail += int(tail[np.asarray(items, dtype=np.int64)].sum())
    return in_tail / slots if slots else 0.0


def _e2e(window: Window, tail_lists, tail, pss: float, boots) -> dict:
    p50, _, rate = window.segment_medians()
    return {
        "latency_p50_ms": p50,
        "throughput_ops": rate,
        "tail_share": _tail_share(tail_lists, tail),
        "pss_mb": pss,
        "setup_s": median(boots),
    }


def _base_layers(window: Window) -> dict:
    """Every per-layer metric at 0, then the ones every workload has."""
    layers = dict.fromkeys(LAYER_UNITS, 0.0)
    layers.update(window.loadgen())
    # Reported, not gated: the read p99 does not repeat within a tenth
    # between runs on a shared host.
    layers["e2e.latency_p99_ms"] = window.segment_medians()[1]
    return layers


def _overhead(traced: Window, untraced: Window) -> float:
    base = percentile(untraced.latencies_ms(), 50)
    return percentile(traced.latencies_ms(), 50) / base - 1.0 if base else 0.0


def _batch_of(requests, batches):
    """Pair each request span with the engine span of the batch it rode.

    A request is answered right after its batch's engine call returns, so
    its batch is the latest-ending engine span that lies inside the
    request span and served the request's user. ``batches`` is sorted by
    end time.
    """
    ends = [span[3] for span in batches]
    paired = []
    for request in requests:
        user = request[6]["user"]
        index = int(np.searchsorted(ends, request[3], side="right")) - 1
        while index >= 0 and batches[index][3] >= request[2]:
            batch = batches[index]
            if batch[2] >= request[2] and user in batch[6]["users"]:
                paired.append((request, batch))
                break
            index -= 1
    return paired


def _stack_layers(spans, peak_gbps: float, cache_stats: dict) -> dict:
    """Engine, recommender, solver and transition-cache metrics."""
    self_s = tracing.self_times(spans)
    engine = tracing.by_name(spans, "engine")
    recommender = tracing.by_name(spans, "recommender")
    solver = tracing.by_name(spans, "solver")
    scored = sum(len(span[6]["users"]) for span in recommender)
    columns = sum(span[6]["columns"] for span in solver)
    solve_s = sum(span[3] - span[2] for span in solver)
    moved = sum(common.solve_bytes(span[6]) for span in solver)
    achieved = moved / solve_s / 1e9 if solve_s > 0 else 0.0
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    return {
        "engine.recommend_many_ms_p50": percentile(
            tracing.durations_ms(engine), 50),
        "engine.recommend_many_ms_p99": percentile(
            tracing.durations_ms(engine), 99),
        "engine.self_ms_p50": percentile(
            [1000.0 * self_s[span[0]] for span in engine], 50),
        "engine.update_ms_p50": percentile(
            tracing.durations_ms(tracing.by_name(spans, "engine.update")), 50),
        "recommender.self_ms_p50": percentile(
            [1000.0 * self_s[span[0]] for span in recommender], 50),
        "recommender.ms_per_user": (sum(tracing.durations_ms(recommender))
                                    / scored if scored else 0.0),
        "solver.columns": columns,
        "solver.ms_per_column": 1000.0 * solve_s / columns if columns else 0.0,
        "solver.achieved_gbps": achieved,
        "solver.peak_gbps": peak_gbps,
        "solver.roofline_frac": achieved / peak_gbps if peak_gbps > 0 else 0.0,
        "graph.cache.hit_rate": (cache_stats.get("hits", 0) / lookups
                                 if lookups else 0.0),
        "graph.cache.operator_validations": cache_stats.get(
            "operator_validations", 0),
    }


def _batching_layers(spans, report: dict) -> dict:
    requests = tracing.by_name(spans, "batching")
    batches = sorted(tracing.by_name(spans, "engine"), key=lambda s: s[3])
    waits = [1000.0 * ((request[3] - request[2]) - (batch[3] - batch[2]))
             for request, batch in _batch_of(requests, batches)]
    sizes = [len(batch[6]["users"]) for batch in batches]
    return {
        "batching.queue_wait_ms_p50": percentile(waits, 50),
        "batching.batches": len(batches),
        "batching.mean_batch": sum(sizes) / len(sizes) if sizes else 0.0,
        "batching.max_queue_depth": report["max_queue_depth"],
        "batching.shed": report["rejected_overload"],
    }


def _peak_for(operators: dict, dtype: str) -> float:
    """Roofline peak on the largest transition matrix the stack solved on."""
    if not operators:
        return 0.0
    largest = max(operators.values(), key=lambda op: op.transition.nnz)
    return common.peak_spmm_gbps(largest, dtype)


def _capture_operators(recommender, user: int = 0) -> dict:
    """The prepared operators one direct cohort-of-one solve runs on."""
    tracer = tracing.Tracer()
    tracer.install_stack()
    try:
        recommender.recommend_batch_arrays(np.array([user]), k=K)
    finally:
        tracer.uninstall()
    return tracer.operators


def _engine_delta(before: dict, after: dict) -> dict:
    hits = after["result_hits"] - before["result_hits"]
    misses = after["result_misses"] - before["result_misses"]
    return {
        "engine.result_hits": hits,
        "engine.result_misses": misses,
        "engine.result_hit_rate": hits / (hits + misses)
        if hits + misses else 0.0,
    }


def _solver_p50(spans) -> float:
    return percentile(tracing.durations_ms(tracing.by_name(spans, "solver")),
                      50)


def _ledger(e2e_p50: float, rows, overhead: float) -> list:
    lines = [f"ledger: layer self time p50 against the end-to-end read p50 "
             f"{e2e_p50:.3f} ms (shares overlap; they need not sum to 1)"]
    for layer, value in rows:
        share = value / e2e_p50 if e2e_p50 > 0 else 0.0
        lines.append(f"ledger:   {layer:<24} {value:9.3f} ms  "
                     f"{100.0 * share:6.1f}% of e2e p50")
    lines.append(f"ledger: tracing overhead {100.0 * overhead:+.1f}% "
                 "(traced p50 / untraced p50 - 1)")
    lines.append("ledger: solver GB/s are computed bytes (nnz, index width, "
                 "dtype, columns, tau) over solve time, against a bare "
                 "csr_matvecs probe on the same matrix; nothing is counted "
                 "by hardware")
    return lines


# -- http_warm_zipf --------------------------------------------------------------

class _Child:
    """The HTTP server child and its line-oriented control pipe."""

    def __init__(self, root: str, artifact: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.http_child",
             "--artifact", artifact],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.process.stdout, selectors.EVENT_READ)

    def read(self, timeout_s: float = 120.0) -> dict:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self._selector.select(deadline - time.monotonic()):
                line = self.process.stdout.readline()
                if not line:
                    raise RuntimeError("server child exited early")
                return json.loads(line)
        raise RuntimeError("server child did not answer in time")

    def command(self, text: str) -> dict:
        self.process.stdin.write((text + "\n").encode())
        self.process.stdin.flush()
        return self.read()

    def stop(self) -> bool:
        """Ask the child to quit; True when it exited cleanly in time."""
        try:
            if self.process.poll() is None:
                self.process.stdin.write(b"quit\n")
                self.process.stdin.flush()
            self.process.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.process.wait(JOIN_TIMEOUT_S)
            clean = self.process.returncode == 0
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(JOIN_TIMEOUT_S)
            clean = False
        self._selector.close()
        self.process.stdout.close()
        return clean


async def _http_window(port: int, due: np.ndarray, users: np.ndarray):
    """Open loop over keep-alive connections; returns the request records.

    A record is ``(due, send, done, status, body, nbytes, port, seq)``;
    ``None`` marks a request that got no response. A request waits for a
    free connection after it is due, and that wait counts in its latency.
    """
    connections = [await asyncio.open_connection("127.0.0.1", port)
                   for _ in range(HTTP_CONNECTIONS)]
    queue: asyncio.Queue = asyncio.Queue()
    records: list = [None] * due.size
    lags: list = []
    start = time.perf_counter() + 0.05

    async def produce():
        for index, offset in enumerate(due):
            target = start + offset
            delay = target - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(1000.0 * (time.perf_counter() - target))
            queue.put_nowait(index)
        for _ in connections:
            queue.put_nowait(None)

    async def consume(reader, writer):
        port_id = writer.get_extra_info("sockname")[1]
        seq = 0
        while (index := await queue.get()) is not None:
            seq += 1
            send = time.perf_counter()
            try:
                writer.write(f"GET /recommend?user={int(users[index])}&k={K}"
                             " HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
                head = await reader.readuntil(b"\r\n\r\n")
                lines = head.decode("latin-1").split("\r\n")
                length = next(int(line.split(":", 1)[1]) for line in lines
                              if line.lower().startswith("content-length:"))
                body = await reader.readexactly(length)
            except (ConnectionError, asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError, StopIteration):
                return  # the connection is gone; its requests stay None
            records[index] = (start + due[index], send, time.perf_counter(),
                              int(lines[0].split()[1]), body,
                              len(head) + length, port_id, seq)

    try:
        await asyncio.gather(produce(), *[consume(r, w)
                                          for r, w in connections])
    finally:
        # Close the keep-alive connections before the server child is
        # asked to stop: HttpFrontend.stop() leaves idle ones open.
        for _, writer in connections:
            writer.close()
        for _, writer in connections:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return records, lags


def _http_check(records, lags, users, reference) -> tuple[Window, list]:
    """Every response must equal ``engine.recommend`` for the user asked
    about: items, labels and scores, bit for bit."""
    window = Window(offered=len(records), lags_ms=lags)
    served = []
    for user, record in zip(users, records):
        payload = (json.loads(record[4])
                   if record is not None and record[3] == 200 else None)
        expected = reference(int(user))
        if (payload is None or payload["user"] != int(user)
                or payload["items"] != [r.item for r in expected]
                or payload["labels"] != [str(r.label) for r in expected]
                or payload["scores"] != [r.score for r in expected]):
            window.failed += 1
            continue
        window.ops.append((record[0], record[2], "read"))
        served.append(payload["items"])
    return window, served


def _http_layers(records, spans, dump) -> dict:
    """HTTP cost: the client's round trip minus the server's
    ``BatchingServer.recommend`` span, paired by connection and sequence."""
    server = {span[5]: span for span in tracing.by_name(spans, "batching")}
    added, sizes = [], []
    for record in records:
        if record is None:
            continue
        sizes.append(record[5])
        span = server.get(f"{record[6]}:{record[7]}")
        if span is not None:
            added.append(1000.0 * ((record[2] - record[1])
                                   - (span[3] - span[2])))
    layers = _batching_layers(spans, dump["server"])
    layers["http.added_ms_p50"] = percentile(added, 50)
    layers["http.response_bytes"] = sum(sizes) / len(sizes) if sizes else 0.0
    layers.update(_engine_delta(dump["engine_before"], dump["engine"]))
    return layers


def http_warm_zipf(root: str, run_dir: str, seed: int, seconds: float,
                   trace: bool, scale: float = 1.0) -> Outcome:
    from repro import ServingEngine, save_artifact

    dataset, model = _movielens_model(scale)
    artifact = os.path.join(run_dir, "model.npz")
    save_artifact(model, artifact)
    tail = _tail_mask(dataset)
    rng = np.random.default_rng(seed)
    due = common.poisson_schedule(rng, HTTP_RATE, seconds)
    users = common.zipf_users(rng, dataset.n_users, due.size)

    problems: list = []
    child = _Child(root, artifact)
    traced = None
    try:
        ready = child.read()
        port = ready["port"]
        records, lags = asyncio.run(_http_window(port, due, users))
        if trace:
            span_file = os.path.join(run_dir, "spans.json")
            child.command("trace on")
            traced = asyncio.run(_http_window(port, due, users))
            child.command(f"trace off {span_file}")
        pss = common.pss_mb([ready["pid"]])
    finally:
        if not child.stop():
            problems.append("server child did not exit cleanly in time")

    reference_engine = ServingEngine.from_artifact(artifact)
    expected: dict = {}

    def reference(user):
        if user not in expected:
            expected[user] = reference_engine.recommend(user, k=K)
        return expected[user]

    window, served = _http_check(records, lags, users, reference)
    e2e = _e2e(window, served, tail, pss, ready["boot_s"])
    layers = _base_layers(window)
    attempted, failed = window.offered, window.failed
    ledger, spans = [], []
    if traced is not None:
        traced_window, _ = _http_check(*traced, users, reference)
        attempted += traced_window.offered
        failed += traced_window.failed
        with open(span_file) as handle:
            dump = json.load(handle)
        spans = [tuple(span) for span in dump["spans"]]
        recommender = reference_engine.recommender
        layers.update(_stack_layers(
            spans, _peak_for(_capture_operators(recommender),
                             recommender.serving_dtype),
            dump["engine"]["scoring_cache"]))
        layers.update(_http_layers(traced[0], spans, dump))
        layers["trace.overhead_frac"] = _overhead(traced_window, window)
        ledger = _ledger(percentile(window.latencies_ms(), 50), [
            ("http (added)", layers["http.added_ms_p50"]),
            ("batching (queue wait)", layers["batching.queue_wait_ms_p50"]),
            ("engine (self)", layers["engine.self_ms_p50"]),
            ("recommender (self)", layers["recommender.self_ms_p50"]),
            ("solver", _solver_p50(spans)),
        ], layers["trace.overhead_frac"])
    layers["checks.error_rate"] = failed / attempted if attempted else 0.0
    return Outcome(e2e, layers, attempted, failed, problems, ledger, spans)


# -- server_cold_open --------------------------------------------------------------

async def _server_window(server, due: np.ndarray, users: np.ndarray):
    """Open loop of coroutine arrivals; records are ``(due, done, result)``."""
    records: list = [None] * due.size
    lags: list = []
    tasks = []
    start = time.perf_counter() + 0.05

    async def one(index, target):
        try:
            ranked = await server.recommend(int(users[index]), k=K)
        except Exception as exc:  # a failed request is counted, not fatal
            ranked = exc
        records[index] = (target, time.perf_counter(), ranked)

    for index, offset in enumerate(due):
        target = start + offset
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(1000.0 * (time.perf_counter() - target))
        tasks.append(asyncio.create_task(one(index, target)))
    await asyncio.gather(*tasks)
    return records, lags


def _run_server_window(engine, due, users, tracer=None):
    from repro.service import BatchingServer

    async def scenario():
        # serve-http's shipped defaults, as the HTTP server child uses.
        async with BatchingServer(engine, max_batch_size=MAX_BATCH,
                                  max_delay_ms=MAX_DELAY_MS,
                                  max_queue=MAX_QUEUE) as server:
            records, lags = await _server_window(server, due, users)
            return records, lags, server.report().summary()

    if tracer is not None:
        tracer.install_stack()
    try:
        return asyncio.run(scenario())
    finally:
        if tracer is not None:
            tracer.uninstall()


def _server_check(records, lags, users, reference) -> tuple[Window, list]:
    window = Window(offered=len(records), lags_ms=lags)
    served = []
    for user, (due_at, done, ranked) in zip(users, records):
        if isinstance(ranked, Exception) or ranked != reference(int(user)):
            window.failed += 1
            continue
        window.ops.append((due_at, done, "read"))
        served.append([r.item for r in ranked])
    return window, served


def server_cold_open(root: str, run_dir: str, seed: int, seconds: float,
                     trace: bool, scale: float = 1.0) -> Outcome:
    from repro import ServingEngine, save_artifact

    dataset, model = _movielens_model(scale)
    artifact = os.path.join(run_dir, "model.npz")
    save_artifact(model, artifact)
    tail = _tail_mask(dataset)
    rng = np.random.default_rng(seed)
    due = common.poisson_schedule(rng, COLD_RATE, seconds)
    users = rng.integers(0, dataset.n_users, size=due.size)
    # Nothing serves the fitted model (the engine loads the artifact), so
    # neither it nor the training data may count in the process's Pss.
    del dataset, model

    def boot(_):
        # result_cache_size=0: every request reaches the scoring layer.
        engine = ServingEngine.from_artifact(artifact, result_cache_size=0)
        engine.warm()
        return engine

    engine, boots = common.timed_boots(boot, SETUP_BOOTS)

    records, lags, _ = _run_server_window(engine, due, users)
    pss = common.pss_mb([os.getpid()])
    if trace:
        tracer = tracing.Tracer()
        before = engine.stats()
        traced = _run_server_window(engine, due, users, tracer)
        after = engine.stats()

    reference_engine = ServingEngine.from_artifact(artifact)
    expected: dict = {}

    def reference(user):
        if user not in expected:
            expected[user] = reference_engine.recommend(user, k=K)
        return expected[user]

    window, served = _server_check(records, lags, users, reference)
    e2e = _e2e(window, served, tail, pss, boots)
    layers = _base_layers(window)
    attempted, failed = window.offered, window.failed
    ledger, spans = [], []
    if trace:
        traced_window, _ = _server_check(traced[0], traced[1], users,
                                         reference)
        attempted += traced_window.offered
        failed += traced_window.failed
        spans = tracer.spans
        layers.update(_stack_layers(
            spans, _peak_for(tracer.operators,
                             engine.recommender.serving_dtype),
            after["scoring_cache"]))
        layers.update(_batching_layers(spans, traced[2]))
        layers.update(_engine_delta(before, after))
        layers["trace.overhead_frac"] = _overhead(traced_window, window)
        ledger = _ledger(percentile(window.latencies_ms(), 50), [
            ("batching (queue wait)", layers["batching.queue_wait_ms_p50"]),
            ("engine (self)", layers["engine.self_ms_p50"]),
            ("recommender (self)", layers["recommender.self_ms_p50"]),
            ("solver", _solver_p50(spans)),
        ], layers["trace.overhead_frac"])
    layers["checks.error_rate"] = failed / attempted if attempted else 0.0
    return Outcome(e2e, layers, attempted, failed, [], ledger, spans)


# -- fleet_read_write ----------------------------------------------------------------

def _fleet_ops(rng, dataset, plan, n_ops: int) -> list:
    """``n_ops`` operations: 9 reads of 16 Zipf users, then one write of 8
    events inside one tenant and one shard (so component routing holds)."""
    tenant_of_user = np.array([label.split(":", 1)[0]
                               for label in dataset.user_labels])
    tenant_of_item = np.array([label.split(":", 1)[0]
                               for label in dataset.item_labels])
    tenants = sorted(set(tenant_of_user))
    users_of = {t: np.flatnonzero(tenant_of_user == t) for t in tenants}
    items_of = {(t, s): np.flatnonzero((tenant_of_item == t)
                                       & (plan.item_shard == s))
                for t in tenants for s in range(plan.n_shards)}
    cycle = READS_PER_WRITE + 1
    n_reads = n_ops - n_ops // cycle
    readers = iter(common.zipf_users(rng, dataset.n_users,
                                     (n_reads, READ_USERS)))
    ops = []
    for index in range(n_ops):
        if index % cycle < READS_PER_WRITE:
            ops.append(("read", [int(u) for u in next(readers)]))
            continue
        tenant = tenants[int(rng.integers(len(tenants)))]
        events = []
        for _ in range(WRITE_EVENTS):
            user = int(rng.choice(users_of[tenant]))
            item = int(rng.choice(items_of[tenant,
                                           int(plan.user_shard[user])]))
            events.append((dataset.user_labels[user],
                           dataset.item_labels[item],
                           float(rng.integers(1, 6))))
        ops.append(("write", events))
    return ops


def _digest(ranked_lists) -> int:
    return hash(tuple(tuple((r.item, r.label, r.score) for r in ranked)
                      for ranked in ranked_lists))


def _update_key(report) -> tuple:
    """What a write changed in the model. Rows evicted are left out: they
    count cache entries, which depend on the reads served before."""
    return (report.n_shards_touched, report.n_new_users, report.n_new_items,
            report.n_replaced)


def _replay(engine, ops, deadline_s: float | None = None,
            served: list | None = None):
    """Run ``ops`` one after another: the one-thread closed loop.

    Stops after the operation that crosses ``deadline_s`` when given.
    Returns ``(timeline, outputs, rows_evicted)``: per finished operation
    its ``(start, end, kind)`` (``None`` when it raised) and a digest of
    its output. Read items are appended to ``served`` when given.
    """
    timeline, outputs, rows_evicted = [], [], 0
    start = time.perf_counter()
    for kind, payload in ops:
        began = time.perf_counter()
        try:
            if kind == "read":
                result = engine.recommend_many(payload, k=K)
                for ranked in result:
                    if isinstance(ranked, Exception):
                        raise ranked  # a down shard's positions
            else:
                result = engine.apply_updates(payload)
            ended = time.perf_counter()
        except ReproError as exc:
            timeline.append(None)
            outputs.append(repr(exc))
        else:
            timeline.append((began, ended, kind))
            if kind == "read":
                outputs.append(_digest(result))
                if served is not None:
                    served.extend([r.item for r in ranked]
                                  for ranked in result)
            else:
                outputs.append(_update_key(result))
                rows_evicted += (result.result_rows_evicted
                                 + result.fleet_rows_evicted)
        if deadline_s is not None and time.perf_counter() - start >= deadline_s:
            break
    return timeline, outputs, rows_evicted


def _window(timeline, outputs, expected: dict) -> Window:
    """Books of a closed-loop timeline; an operation fails when it raised
    or its output differs from ``expected[index]`` (where given)."""
    window = Window(offered=len(timeline))
    for index, entry in enumerate(timeline):
        if entry is None or (index in expected
                             and outputs[index] != expected[index]):
            window.failed += 1
        else:
            window.ops.append(entry)
    return window


def _summed(engine_stats: list) -> dict:
    return {key: sum(stats[key] for stats in engine_stats)
            for key in ("result_hits", "result_misses")}


def _checked_subset(ops) -> list:
    """Indices the untraced run checks: every write and the read right
    after each write (and the first operation), i.e. the rows a write
    may have changed. Skipped reads change no ranking, so replaying only
    these keeps the replay's model state identical to the fleet's."""
    return [index for index, (kind, _) in enumerate(ops)
            if kind == "write" or index == 0 or ops[index - 1][0] == "write"]


def _ladder(artifacts: str):
    from repro import ShardedEngine

    engine = ShardedEngine.from_directory(artifacts)
    engine.warm()
    return engine


def fleet_read_write(root: str, run_dir: str, seed: int, seconds: float,
                     trace: bool, scale: float = 1.0) -> Outcome:
    from repro import AbsorbingTimeRecommender, ShardedEngine
    from repro.data.synthetic import federated_dataset
    from repro.service import ProcessShardFleet

    dataset = federated_dataset(FLEET_TENANTS, scale=scale, seed=DATA_SEED)
    fitted = ShardedEngine.fit(dataset, AbsorbingTimeRecommender,
                               n_shards=FLEET_SHARDS)
    artifacts = os.path.join(run_dir, "fleet")
    fitted.save(artifacts)
    tail = _tail_mask(dataset)
    rng = np.random.default_rng(seed)
    ops = _fleet_ops(rng, dataset, fitted.plan,
                     int(FLEET_OPS_PER_S * seconds))
    # The supervisor's Pss counts the serving stack, not the benchmark's
    # training data and fitted engine.
    del dataset, fitted

    def boot(index):
        # Each boot gets a fresh WAL directory: nothing to replay.
        fleet = ProcessShardFleet.from_directory(
            artifacts, wal_dir=os.path.join(run_dir, f"wal-{index}"))
        fleet.warm()
        return fleet

    fleet, boots = common.timed_boots(boot, SETUP_BOOTS,
                                      ProcessShardFleet.close)
    problems, served = [], []
    try:
        timeline, outputs, rows_evicted = _replay(
            fleet, ops, FLEET_DEADLINE * seconds, served)
        workers = [fleet.worker_pid(s) for s in range(fleet.n_shards)]
        pss = common.pss_mb([os.getpid()] + [p for p in workers if p])
        health = fleet.health()
    finally:
        fleet.close()
    survivors = common.wait_children_gone(JOIN_TIMEOUT_S)
    if survivors:
        problems.append(f"fleet workers still running: {survivors}")
    if health["restarts"]:
        problems.append(f"fleet restarted {health['restarts']} worker(s)")
    done = ops[:len(timeline)]

    # Output check: an in-process ShardedEngine replay of the same trace.
    if trace:
        checked = list(range(len(done)))
        base_timeline, base_outputs, _ = _replay(_ladder(artifacts), done)
        base = _window(base_timeline, base_outputs, {})
    else:
        checked = _checked_subset(done)
        _, subset_outputs, _ = _replay(_ladder(artifacts),
                                       [done[i] for i in checked])
        base_outputs = dict(zip(checked, subset_outputs))
    expected = {i: base_outputs[i] for i in checked}
    window = _window(timeline, outputs, expected)
    e2e = _e2e(window, served, tail, pss, boots)
    write_p50 = percentile(window.latencies_ms("write"), 50)
    layers = _base_layers(window)
    layers.update({
        "fleet.write_p50_ms": write_p50,
        "fleet.write_p99_ms": percentile(window.latencies_ms("write"), 99),
        "fleet.rows_evicted": rows_evicted,
        "fleet.restarts": health["restarts"],
        "fleet.replayed_batches": health["replayed_batches"],
        "loadgen.offered": len(ops),
        "loadgen.completed": len(window.ops),
        "loadgen.behind": int(len(done) < len(ops)),
    })
    attempted, failed = window.offered, window.failed
    ledger, spans = [], []
    if trace:
        read_p50 = percentile(window.latencies_ms(), 50)
        layers["fleet.rpc_added_ms_p50"] = (
            read_p50 - percentile(base.latencies_ms(), 50))
        layers["fleet.write_added_ms_p50"] = (
            write_p50 - percentile(base.latencies_ms("write"), 50))
        ladder = _ladder(artifacts)
        before = [engine.stats() for engine in ladder.engines]
        tracer = tracing.Tracer()
        tracer.install_stack()
        try:
            traced_timeline, traced_outputs, _ = _replay(ladder, done)
        finally:
            tracer.uninstall()
        after = [engine.stats() for engine in ladder.engines]
        traced = _window(traced_timeline, traced_outputs, expected)
        attempted += traced.offered
        failed += traced.failed
        spans = tracer.spans
        cache = {key: sum(stats["scoring_cache"].get(key, 0)
                          for stats in after)
                 for key in ("hits", "misses", "operator_validations")}
        layers.update(_stack_layers(
            spans, _peak_for(tracer.operators,
                             ladder.engines[0].recommender.serving_dtype),
            cache))
        layers.update(_engine_delta(_summed(before), _summed(after)))
        self_s = tracing.self_times(spans)
        layers["sharding.route_ms_p50"] = percentile(
            [1000.0 * self_s[span[0]]
             for span in tracing.by_name(spans, "sharding")], 50)
        layers["trace.overhead_frac"] = _overhead(traced, base)
        ledger = _ledger(read_p50, [
            ("fleet (rpc added)", layers["fleet.rpc_added_ms_p50"]),
            ("sharding (self)", layers["sharding.route_ms_p50"]),
            ("engine (self)", layers["engine.self_ms_p50"]),
            ("recommender (self)", layers["recommender.self_ms_p50"]),
            ("solver", _solver_p50(spans)),
        ], layers["trace.overhead_frac"])
    layers["checks.error_rate"] = failed / attempted if attempted else 0.0
    return Outcome(e2e, layers, attempted, failed, problems, ledger, spans)


WORKLOADS = {
    "http_warm_zipf": http_warm_zipf,
    "server_cold_open": server_cold_open,
    "fleet_read_write": fleet_read_write,
}
