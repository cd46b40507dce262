"""Fault-tolerant multi-process shard fleet: supervisor, WAL, degraded serving.

The in-process :class:`~repro.service.sharding.ShardedEngine` shares one
fate with its shards: a segfault, a poisoned update or a wedged solve in
any shard takes the whole tier down. This module moves each shard into its
**own worker process** and puts a supervisor in front, so the failure
domain shrinks from "the fleet" to "one shard". Routing, the global index
space and the row cache belong to the shared
:class:`~repro.service.router.ShardRouter`; this module holds only what
is process-specific:

* :class:`ProcessShardFleet` runs one worker per shard over a
  ``multiprocessing`` pipe (stdlib only — no new dependencies). Each
  worker boots its :class:`~repro.service.ServingEngine` from the shard's
  saved artifact (:func:`~repro.core.artifacts.load_artifact`, no
  refitting) and answers a small RPC vocabulary: serve, validate, apply,
  save, stats, ping.
* **Supervision.** Every request runs under a per-request timeout with a
  fast-path crash detector (the supervisor polls the pipe in 50 ms slices
  and checks ``Process.is_alive()``, so a SIGKILL'd worker is noticed in
  milliseconds, not after the full timeout). A dead or wedged worker is
  restarted from its artifact with bounded exponential backoff; read-only
  requests are retried on the replacement, and when the retry budget runs
  out the shard is marked *down*.
* **Write-ahead log.** Update batches are appended (JSON line, flushed
  and ``fsync``'d) to a per-shard WAL *after* worker-side validation and
  *before* dispatch, so the WAL only ever holds batches that are
  guaranteed to replay cleanly. A worker killed mid-update is restarted
  and the WAL replayed in order — the engine's model version and ranking
  state come back **bit-identical** to a never-crashed worker, whether
  the crash hit before or after the mutation (apply RPCs are never
  re-sent over the wire; the replay *is* the retry, so a batch can never
  double-apply). :meth:`save` checkpoints every shard and then truncates
  the WALs — on the next boot there is nothing to replay.
* **Degraded serving.** A shard that exhausts its restart budget stops
  the fleet for *its* users only: ``recommend`` / ``serve_cohort`` raise
  :class:`~repro.exceptions.ShardUnavailableError`, ``recommend_many``
  returns that error object at the down positions, and every healthy
  shard keeps answering. :meth:`health` reports per-shard state (surfaced
  as HTTP 503 by :class:`~repro.service.server.HttpFrontend`) and
  :meth:`restart_shard` brings a shard back — replaying any update
  batches that were stranded in its WAL.

Durability boundary: the WAL makes *worker* crashes lossless, and the
checkpoint **seqno** makes supervisor crashes lossless too. Every WAL
record carries a per-shard monotone sequence number; :meth:`save` folds
each shard's last *applied* seqno into the checkpoint artifact's header
(``extra.wal_seq``, readable in O(open) via ``peek_artifact``), so if the
supervisor dies between a shard's checkpoint and the WAL truncation that
follows it, the next boot *skips* the batches the checkpoint already
contains instead of double-replaying them — counted as
``skipped_replay_batches`` in ``health()``/``stats()``/reports. A torn
final WAL line (supervisor killed mid-append) is safely dropped —
appends are fsync'd before dispatch, so a torn line was never applied
anywhere — and the file is truncated back to the last whole record, so
later appends can never fuse with the fragment into an unparseable line.

Scripted failures for tests live in :mod:`repro.service.faults`; the
fleet wires a :class:`~repro.service.faults.FaultSpec` into the target
shard's first worker incarnation (every incarnation when ``persistent``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time

import repro.exceptions as _exceptions
from repro.core.artifacts import peek_artifact
from repro.exceptions import (
    ConfigError,
    ReproError,
    ShardUnavailableError,
    UnknownItemError,
    UnknownUserError,
)
from repro.service.faults import FaultSpec
from repro.service.router import FleetReport, FleetUpdateReport, ShardRouter
from repro.service.sharding import (
    ShardPlan,
    _PLAN_FILENAME,
    _load_directory_plan,
    _shard_artifact_name,
    validate_shard_events,
)
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = ["ProcessShardFleet"]

#: RPC methods that count as *serving* requests for FaultSpec triggers
#: (pings and supervision traffic must never perturb a scripted failure).
_SERVING_METHODS = frozenset({"recommend_many", "serve_cohort"})

#: Sentinel returned by the non-retryable request path when the worker
#: crashed mid-apply and the batch was recovered through WAL replay — the
#: caller reads the replayed response off the worker handle instead.
_REPLAYED = object()


class _WorkerCrashed(Exception):
    """Internal: the worker process died under a request (exit, EOF, pipe)."""


class _WorkerHung(Exception):
    """Internal: the worker stayed alive but missed the request deadline."""


# -- error marshalling ---------------------------------------------------------
#
# Exceptions cross the pipe as plain dicts, not pickled exception objects:
# default pickling re-calls ``cls(formatted_message)``, which double-wraps
# the constructor-formatting errors (``UnknownUserError("unknown user: 'x'")``
# would render "unknown user: \"unknown user: 'x'\""), and a worker raising
# something unpicklable must not take the supervisor down with it.


def _marshal_error(exc: BaseException) -> dict:
    payload = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, UnknownUserError):
        payload["user"] = exc.user
    if isinstance(exc, UnknownItemError):
        payload["item"] = exc.item
    return payload


def _unmarshal_error(payload: dict) -> Exception:
    name = payload.get("type", "")
    message = payload.get("message", "")
    if name == "UnknownUserError":
        return UnknownUserError(payload.get("user"))
    if name == "UnknownItemError":
        return UnknownItemError(payload.get("item"))
    cls = getattr(_exceptions, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        try:
            return cls(message)
        except TypeError:
            return ReproError(message)
    return RuntimeError(f"shard worker failed ({name}): {message}")


# -- worker process ------------------------------------------------------------


def _worker_main(conn, shard: int, artifact_path: str,
                 engine_kwargs: dict | None, fault: FaultSpec | None) -> None:
    """One shard's process: boot the engine, answer RPCs until shutdown.

    Protocol: the worker first sends a *hello* (``("ok", {...})`` with the
    dataset shape and full label lists — the supervisor builds its routing
    tables from it), then answers each received ``(method, payload)`` with
    ``("ok", result)`` or ``("error", marshalled)``. Errors never kill the
    loop; only a closed pipe, a shutdown RPC or an injected fault does.
    """
    import repro  # noqa: F401  (populates RECOMMENDER_REGISTRY under spawn)
    from repro.service.engine import ServingEngine

    # The supervisor owns lifecycle; a Ctrl-C on the terminal must reach
    # the parent's drain logic, not SIGINT every worker mid-request.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        engine = ServingEngine.from_artifact(artifact_path,
                                             **(engine_kwargs or {}))
    except BaseException as exc:  # boot failure is the hello
        try:
            conn.send(("error", _marshal_error(exc)))
        except (BrokenPipeError, OSError):
            pass
        conn.close()
        return
    dataset = engine.dataset
    conn.send(("ok", {
        "type": "hello",
        "pid": os.getpid(),
        "n_ratings": int(dataset.n_ratings),
        "user_labels": list(dataset.user_labels),
        "item_labels": list(dataset.item_labels),
        "model_version": engine.model_version,
    }))
    served = 0
    while True:
        try:
            method, payload = conn.recv()
        except (EOFError, OSError):
            break
        if method == "shutdown":
            try:
                conn.send(("ok", None))
            except (BrokenPipeError, OSError):
                pass
            break
        if method in _SERVING_METHODS:
            served += 1
            if fault is not None:
                if fault.kill_at_request == served:
                    os.kill(os.getpid(), signal.SIGKILL)
                if fault.hang_at_request == served:
                    time.sleep(fault.hang_seconds)
        try:
            result = _worker_handle(engine, method, payload, fault)
            conn.send(("ok", result))
        except BaseException as exc:
            try:
                conn.send(("error", _marshal_error(exc)))
            except (BrokenPipeError, OSError):
                break
    conn.close()


def _worker_handle(engine, method: str, payload: dict,
                   fault: FaultSpec | None):
    """Dispatch one RPC against the worker's engine."""
    if method == "ping":
        return {"pid": os.getpid(), "model_version": engine.model_version}
    if method == "recommend_many":
        ranked_lists = engine.recommend_many(
            payload["users"], k=payload["k"],
            exclude_rated=payload["exclude_rated"],
            excludes=payload["excludes"],
        )
        return [[(int(r.item), r.label, float(r.score)) for r in ranked]
                for ranked in ranked_lists]
    if method == "serve_cohort":
        report, _, items, scores = engine._serve_cohort_arrays(
            payload["users"], k=payload["k"],
            batch_size=payload["batch_size"],
            exclude_rated=payload["exclude_rated"],
        )
        return {"report": report, "items": items, "scores": scores}
    if method == "validate_events":
        validate_shard_events(
            engine.dataset, payload["events"],
            payload["duplicates"] or engine.update_duplicates,
        )
        return None
    if method == "apply_updates":
        if fault is not None and fault.crash_mid_update == "before-apply":
            os.kill(os.getpid(), signal.SIGKILL)
        report = engine.apply_updates(payload["events"],
                                      duplicates=payload["duplicates"])
        if fault is not None and fault.crash_mid_update == "after-apply":
            # The hard recovery case: state mutated, ack never sent.
            os.kill(os.getpid(), signal.SIGKILL)
        dataset = engine.dataset
        return {
            "report": report,
            "new_user_labels": list(dataset.user_labels[payload["known_users"]:]),
            "new_item_labels": list(dataset.item_labels[payload["known_items"]:]),
            "model_version": engine.model_version,
            "n_ratings": int(dataset.n_ratings),
        }
    if method == "save":
        from repro.core.artifacts import save_artifact

        # The supervisor folds the shard's last applied WAL seqno into the
        # checkpoint header; a future boot skips replaying batches the
        # checkpoint already contains (supervisor-death window, §13).
        return save_artifact(engine.recommender, payload["path"],
                             extra_meta={"wal_seq": payload["wal_seq"]})
    if method == "stats":
        return engine.stats()
    if method == "clear_caches":
        engine.clear_caches()
        return None
    if method == "invalidate_user":
        return engine.invalidate_user(payload["user"])
    raise ConfigError(f"unknown fleet worker method {method!r}")


# -- supervisor ----------------------------------------------------------------


class _ShardWorker:
    """Supervisor-side handle for one shard's worker process.

    ``user_labels`` / ``item_labels`` mirror the worker's dataset label
    lists (hello + every absorbed apply response), change only under both
    ``worker.lock`` and ``_routing_lock``, and are the shard's labels as
    the router sees them; replayed labels land below the router's known
    count, so WAL replay registers nothing twice. ``model_version`` feeds
    the row cache's version gate and is guarded by its lock.
    """

    def __init__(self, shard: int, artifact_path: str,
                 checkpoint_seq: int = 0):
        self.shard = shard
        self.artifact_path = artifact_path
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.state = "down"  # guarded-by: worker.lock
        self.down_reason = ""
        self.incarnation = 0
        self.restarts = 0
        self.replayed_batches = 0
        self.request_failures = 0
        self.model_version = 0  # guarded-by: router._lock
        self.n_ratings = 0
        self.user_labels: list = []  # guarded-by: worker.lock
        self.item_labels: list = []  # guarded-by: worker.lock
        self.last_replay_result: dict | None = None  # guarded-by: worker.lock
        # WAL sequencing: ``checkpoint_seq`` is the last seqno the shard's
        # boot artifact contains (from its header; 0 for a fresh fit),
        # ``applied_seq`` the last seqno applied to the live worker,
        # ``next_seq`` the number the next appended batch takes. Replay
        # skips records with seq <= checkpoint_seq.
        self.checkpoint_seq = checkpoint_seq  # guarded-by: worker.lock
        self.applied_seq = checkpoint_seq  # guarded-by: worker.lock
        self.next_seq = checkpoint_seq + 1  # guarded-by: worker.lock
        self.skipped_replay_batches = 0
        # Most recent successful restart: wall seconds and a monotonic
        # stamp (for "latest across the fleet" in health()).
        self.last_restart_s: float | None = None
        self.last_restart_at = 0.0


class ProcessShardFleet(ShardRouter):
    """A supervised multi-process shard fleet with WAL-backed updates.

    The process transport of :class:`~repro.service.router.ShardRouter`:
    the same serving surface as
    :class:`~repro.service.sharding.ShardedEngine` — ``recommend`` /
    ``recommend_many`` / ``serve_cohort`` / ``warm`` / ``apply_updates`` /
    ``save`` / ``stats`` / ``health`` — and the same router (routing, global
    index space, fleet-level LRU row cache), but each shard lives in its
    own worker process restarted on failure (module docstring).

    Parameters
    ----------
    plan:
        The fleet's :class:`~repro.service.sharding.ShardPlan`.
    artifact_paths:
        One saved model artifact per shard — the recovery point every
        restart boots from. Validated up front via
        :func:`~repro.core.artifacts.peek_artifact` (O(open) per shard);
        a supervisor that cannot restart a shard should refuse to start.
    wal_dir:
        Directory for the per-shard write-ahead logs
        (``shard-NNN.wal.jsonl``); created if missing. Leftover logs from
        a previous run are replayed at boot.
    request_timeout_s, boot_timeout_s:
        Per-request and per-boot deadlines. A worker that misses a
        request deadline while alive is *hung*: it is killed and
        restarted (a wedged solve never blocks the tier forever).
    max_restart_attempts:
        Spawn attempts per restart, with exponential backoff
        ``min(backoff_max_s, backoff_base_s * 2**attempt)`` between them;
        exhausted means the shard is marked down.
    max_request_retries:
        How many times a *read-only* request is re-sent to a restarted
        replacement before the shard is marked down. Apply requests are
        never re-sent: the WAL replay performed by the restart **is** the
        retry (re-sending could double-apply).
    start_method:
        ``multiprocessing`` start method (``None`` = platform default,
        fork on Linux — workers then skip re-importing the package).
    faults:
        ``{shard: FaultSpec}`` scripted failures for tests
        (:mod:`repro.service.faults`).
    result_cache_size:
        Fleet-level LRU row cache bound, exactly as in ``ShardedEngine``
        (``0`` disables it).
    engine_kwargs:
        Forwarded to every worker's
        :meth:`~repro.service.engine.ServingEngine.from_artifact`.
    """

    def __init__(self, plan: ShardPlan, artifact_paths, wal_dir: str, *,
                 request_timeout_s: float = 30.0,
                 boot_timeout_s: float = 120.0,
                 max_restart_attempts: int = 3,
                 max_request_retries: int = 2,
                 backoff_base_s: float = 0.05,
                 backoff_max_s: float = 2.0,
                 start_method: str | None = None,
                 faults: dict | None = None,
                 result_cache_size: int = 65536,
                 engine_kwargs: dict | None = None):
        if not isinstance(plan, ShardPlan):
            raise ConfigError(
                f"ProcessShardFleet requires a ShardPlan; "
                f"got {type(plan).__name__}"
            )
        artifact_paths = [str(p) for p in artifact_paths]
        if len(artifact_paths) != plan.n_shards:
            raise ConfigError(
                f"plan has {plan.n_shards} shards; "
                f"got {len(artifact_paths)} artifact paths"
            )
        for name, value in (("request_timeout_s", request_timeout_s),
                            ("boot_timeout_s", boot_timeout_s),
                            ("backoff_base_s", backoff_base_s),
                            ("backoff_max_s", backoff_max_s)):
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or value <= 0:
                raise ConfigError(f"{name} must be a positive number; "
                                  f"got {value!r}")
        self.request_timeout_s = float(request_timeout_s)
        self.boot_timeout_s = float(boot_timeout_s)
        self.max_restart_attempts = check_positive_int(
            max_restart_attempts, "max_restart_attempts"
        )
        self.max_request_retries = check_non_negative_int(
            max_request_retries, "max_request_retries"
        )
        super().__init__(plan, result_cache_size)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self._engine_kwargs = dict(engine_kwargs or {})
        self._faults: dict[int, FaultSpec] = {}
        for shard, spec in (faults or {}).items():
            shard = plan._check_shard(shard)
            if not isinstance(spec, FaultSpec):
                raise ConfigError(
                    f"faults[{shard}] must be a FaultSpec; "
                    f"got {type(spec).__name__}"
                )
            if not spec.is_noop:
                self._faults[shard] = spec
        # Restart must always find a loadable artifact: validate every
        # header now, before any process spawns. The same O(open) peek
        # yields each checkpoint's recorded WAL seqno (0 when absent —
        # fresh fits and legacy artifacts), the floor below which replay
        # skips.
        checkpoint_seqs = []
        for path in artifact_paths:
            meta = peek_artifact(path)
            extra = meta.get("extra") or {}
            checkpoint_seqs.append(int(extra.get("wal_seq", 0)))
        self.wal_dir = str(wal_dir)
        os.makedirs(self.wal_dir, exist_ok=True)
        self._ctx = multiprocessing.get_context(start_method)
        self._closed = False
        # Serialises updates and saves. Ordering: _update_lock →
        # worker.lock → _routing_lock → _lock; the router's tables are
        # absorbed with only a worker lock held when a read-triggered
        # restart replays a WAL.
        self._update_lock = threading.RLock()

        self._workers = [_ShardWorker(shard, artifact_paths[shard],
                                      checkpoint_seq=checkpoint_seqs[shard])
                         for shard in range(plan.n_shards)]
        try:
            for worker in self._workers:
                with worker.lock:
                    self._spawn_locked(worker)  # boot failure raises
                    worker.state = "up"
            self._build_routing()
            # Replay WALs a previous supervisor left behind (it died after
            # dispatching batches but before checkpointing them).
            for worker in self._workers:
                with worker.lock:
                    try:
                        self._replay_wal_locked(worker)
                    except (_WorkerCrashed, _WorkerHung):
                        self._restart_locked(worker)
        except BaseException:
            self.close()
            raise

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_directory(cls, path: str, wal_dir: str | None = None,
                       **kwargs) -> "ProcessShardFleet":
        """Boot a fleet from a :meth:`ShardedEngine.save`-layout directory.

        Expects ``plan.npz`` plus one ``shard-NNN.npz`` artifact per
        shard; the WAL directory defaults to ``<path>/wal`` so crash
        recovery state lives next to the artifacts it replays onto.
        """
        plan = _load_directory_plan(path)
        artifact_paths = [os.path.join(path, _shard_artifact_name(shard))
                          for shard in range(plan.n_shards)]
        if wal_dir is None:
            wal_dir = os.path.join(path, "wal")
        return cls(plan, artifact_paths, wal_dir, **kwargs)

    # -- process lifecycle -----------------------------------------------------

    def _arm_fault(self, worker: _ShardWorker) -> FaultSpec | None:
        fault = self._faults.get(worker.shard)
        if fault is None:
            return None
        if worker.incarnation == 0 or fault.persistent:
            return fault
        return None

    def _spawn_locked(self, worker: _ShardWorker) -> None:
        """Start one worker process and consume its hello (lock held)."""
        fault = self._arm_fault(worker)
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, worker.shard, worker.artifact_path,
                  self._engine_kwargs, fault),
            daemon=True,
            name=f"repro-shard-{worker.shard}",
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.incarnation += 1
        hello = self._recv_reply(worker, self.boot_timeout_s)
        with self._lock:
            worker.model_version = hello["model_version"]
        worker.n_ratings = hello["n_ratings"]
        with self._routing_lock:
            worker.user_labels = list(hello["user_labels"])
            worker.item_labels = list(hello["item_labels"])
        worker.last_replay_result = None

    def _cleanup_locked(self, worker: _ShardWorker) -> None:
        """Tear down a dead/wedged worker's process and pipe (lock held)."""
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.conn = None
        process = worker.process
        if process is not None:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=2.0)
            else:
                process.join(timeout=2.0)
            worker.process = None

    def _mark_down_locked(self, worker: _ShardWorker, reason: str) -> None:
        self._cleanup_locked(worker)
        worker.state = "down"
        worker.down_reason = reason

    def _restart_locked(self, worker: _ShardWorker) -> bool:
        """Respawn a crashed worker and replay its WAL (lock held).

        Up to ``max_restart_attempts`` spawn+replay attempts with
        exponential backoff; success counts one restart and returns True,
        exhaustion marks the shard down and returns False. A persistent
        fault re-arms in the replacement, so a scripted always-crash
        deterministically drives the shard down.
        """
        began = time.monotonic()
        self._cleanup_locked(worker)
        failure = "unknown"
        for attempt in range(self.max_restart_attempts):
            if attempt:
                time.sleep(min(self.backoff_max_s,
                               self.backoff_base_s * (2 ** (attempt - 1))))
            try:
                self._spawn_locked(worker)
                self._replay_wal_locked(worker)
            except Exception as exc:
                # Not just _WorkerCrashed/_WorkerHung/ReproError: a boot
                # failure unmarshals to whatever the hello error carried
                # (RuntimeError for non-Repro types), and any escape here
                # would leave state "up" with a dead process behind it.
                failure = f"{type(exc).__name__}: {exc}"
                self._cleanup_locked(worker)
                continue
            worker.restarts += 1
            worker.state = "up"
            worker.down_reason = ""
            # Restart-to-healthy wall time: kill detection to replayed
            # replacement, the fleet's recovery SLO (health()/FleetReport).
            worker.last_restart_at = time.monotonic()
            worker.last_restart_s = worker.last_restart_at - began
            return True
        self._mark_down_locked(
            worker,
            f"restart failed after {self.max_restart_attempts} attempt(s) "
            f"(last: {failure})",
        )
        return False

    def restart_shard(self, shard: int, clear_fault: bool = True) -> dict:
        """Operator hook: bring a down (or running) shard's worker back.

        Replays any update batches stranded in the shard's WAL, so an
        apply that died with the shard also completes here. Clears the
        shard's scripted fault by default (the operator fixed the cause).
        Returns the shard's post-restart health row; raises
        :class:`~repro.exceptions.ShardUnavailableError` when the restart
        budget fails again.
        """
        shard = self.plan._check_shard(shard)
        with self._update_lock:
            worker = self._workers[shard]
            with worker.lock:
                if clear_fault:
                    self._faults.pop(shard, None)
                if not self._restart_locked(worker):
                    raise ShardUnavailableError(shard, worker.down_reason)
        return self.health()["shards"][shard]

    def close(self) -> None:
        """Shut every worker down (graceful RPC, then terminate). Idempotent."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            with worker.lock:
                if (worker.conn is not None and worker.process is not None
                        and worker.process.is_alive()):
                    try:
                        worker.conn.send(("shutdown", None))
                        worker.conn.poll(1.0)
                    except (BrokenPipeError, OSError):
                        pass
                self._cleanup_locked(worker)
                worker.state = "down"
                worker.down_reason = "fleet closed"

    def __enter__(self) -> "ProcessShardFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # best-effort: don't leak worker processes
        try:
            self.close()
        except Exception:
            pass

    # -- request plumbing ------------------------------------------------------

    def _recv_reply(self, worker: _ShardWorker, timeout: float):
        """Wait for one reply, detecting crash fast and hang at deadline."""
        conn = worker.conn
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _WorkerHung(
                    f"shard {worker.shard} missed its {timeout:.1f}s deadline"
                )
            try:
                ready = conn.poll(min(0.05, remaining))
            except (BrokenPipeError, OSError):
                raise _WorkerCrashed("pipe closed") from None
            if ready:
                try:
                    status, result = conn.recv()
                except (EOFError, OSError):
                    raise _WorkerCrashed("pipe closed mid-reply") from None
                if status == "ok":
                    return result
                raise _unmarshal_error(result)
            if worker.process is not None and not worker.process.is_alive():
                # Drain a reply that raced the exit before declaring death.
                try:
                    if conn.poll(0):
                        status, result = conn.recv()
                        if status == "ok":
                            return result
                        raise _unmarshal_error(result)
                except (EOFError, OSError):
                    pass
                code = worker.process.exitcode
                raise _WorkerCrashed(f"worker exited with code {code}")

    def _send_recv(self, worker: _ShardWorker, method: str, payload,
                   timeout: float):
        try:
            worker.conn.send((method, payload))
        except (BrokenPipeError, OSError):
            raise _WorkerCrashed("pipe closed on send") from None
        return self._recv_reply(worker, timeout)

    def _request(self, shard: int, method: str, payload,
                 retryable: bool = True):
        worker = self._workers[shard]
        with worker.lock:
            return self._request_locked(worker, method, payload, retryable)

    def _request_locked(self, worker: _ShardWorker, method: str, payload,
                        retryable: bool):
        """One supervised RPC: crash/hang → restart (+WAL replay) → retry.

        Read-only requests are re-sent to the replacement up to
        ``max_request_retries`` times. Apply requests return the
        ``_REPLAYED`` sentinel instead — the restart already replayed the
        batch off the WAL, and re-sending it could double-apply.
        """
        if worker.state != "up":
            raise ShardUnavailableError(
                worker.shard, worker.down_reason or "worker is down"
            )
        attempts = 0
        while True:
            try:
                return self._send_recv(worker, method, payload,
                                       self.request_timeout_s)
            except _WorkerHung:
                worker.request_failures += 1
            except _WorkerCrashed:
                worker.request_failures += 1
            if not self._restart_locked(worker):
                raise ShardUnavailableError(worker.shard, worker.down_reason)
            if not retryable:
                return _REPLAYED
            attempts += 1
            if attempts > self.max_request_retries:
                self._mark_down_locked(
                    worker,
                    f"request failed {attempts} time(s); retry budget "
                    "exhausted",
                )
                raise ShardUnavailableError(worker.shard, worker.down_reason)

    # -- write-ahead log -------------------------------------------------------

    def _wal_path(self, shard: int) -> str:
        return os.path.join(self.wal_dir, f"shard-{shard:03d}.wal.jsonl")

    def _wal_append(self, shard: int, events, duplicates: str | None,
                    seq: int) -> None:
        """Durably append one batch (flush + fsync) before it is dispatched.

        ``seq`` is the shard's monotone batch number; a checkpoint that
        contains this batch records it (``extra.wal_seq`` in the artifact
        header), and replay skips any record at or below that floor.
        """
        try:
            line = json.dumps({
                "seq": int(seq),
                "events": [[user, item, float(rating)]
                           for user, item, rating in events],
                "duplicates": duplicates,
            })
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                "update event labels must be JSON-serializable so the "
                f"write-ahead log can replay them: {exc}"
            ) from None
        with open(self._wal_path(shard), "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _wal_read(self, shard: int) -> list[dict]:
        """The shard's pending batches, oldest first — repairing torn tails.

        A torn final line (supervisor killed mid-append) is dropped: the
        append is fsync'd *before* dispatch, so a torn batch was never
        applied anywhere and the caller simply resubmits it. Dropping is
        not enough, though — the fragment has no trailing newline, so a
        later append in ``"a"`` mode would fuse a valid batch onto it
        into one permanently unparseable line that replay would silently
        skip past, losing acknowledged updates. The file is therefore
        truncated back to the last whole valid record before the WAL
        accepts any further appends.
        """
        path = self._wal_path(shard)
        if not os.path.exists(path):
            return []
        batches: list[dict] = []
        with open(path, "rb") as handle:
            data = handle.read()
        valid_end = 0
        for raw in data.splitlines(keepends=True):
            if not raw.endswith(b"\n"):
                break  # incomplete final line: crash mid-append
            stripped = raw.strip()
            if stripped:
                try:
                    record = json.loads(stripped.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    break
                batches.append(record)
            valid_end += len(raw)
        if valid_end < len(data):
            with open(path, "r+b") as handle:
                handle.truncate(valid_end)
                os.fsync(handle.fileno())
        return batches

    def _wal_truncate(self, shard: int) -> None:
        with open(self._wal_path(shard), "w", encoding="utf-8") as handle:
            handle.flush()
            os.fsync(handle.fileno())

    def _replay_wal_locked(self, worker: _ShardWorker) -> int:
        """Re-apply the shard's WAL to a freshly booted worker (lock held).

        Replies are absorbed exactly like live apply responses — the label
        mirror makes already-known labels no-ops, so replay is idempotent
        at the routing layer — and the final reply is parked on
        ``last_replay_result`` for the apply path that triggered the
        restart. Raises ``_WorkerCrashed`` / ``_WorkerHung`` upward into
        the restart loop if the replacement dies mid-replay.
        """
        replayed = 0
        skipped = 0
        top_seq = worker.checkpoint_seq
        for record in self._wal_read(worker.shard):
            seq = record.get("seq")
            if seq is not None:
                seq = int(seq)
                top_seq = max(top_seq, seq)
                if seq <= worker.checkpoint_seq:
                    # The boot artifact is a checkpoint that already
                    # contains this batch (supervisor died between save()
                    # and WAL truncation) — replaying it would double-apply.
                    skipped += 1
                    continue
            response = self._send_recv(worker, "apply_updates", {
                "events": [tuple(event) for event in record["events"]],
                "duplicates": record.get("duplicates"),
                "known_users": len(worker.user_labels),
                "known_items": len(worker.item_labels),
            }, self.request_timeout_s)
            self._absorb_apply_response_locked(worker, response)
            worker.last_replay_result = response
            if seq is not None:
                worker.applied_seq = max(worker.applied_seq, seq)
            replayed += 1
        # Sequence numbers must stay monotone across restarts even when
        # the tail of the log was only skimmed, never replayed.
        worker.next_seq = max(worker.next_seq, top_seq + 1)
        worker.replayed_batches += replayed
        worker.skipped_replay_batches += skipped
        return replayed

    # -- transport hooks -------------------------------------------------------

    def _shard_labels_locked(self, shard: int) -> tuple:
        worker = self._workers[shard]
        return worker.user_labels, worker.item_labels

    def _shard_version_locked(self, shard: int) -> int:
        return self._workers[shard].model_version

    def _shard_loads(self) -> list:
        return [worker.n_ratings for worker in self._workers]

    def _recommend_shard(self, shard, users, k, exclude_rated, excludes):
        return self._request(shard, "recommend_many", {
            "users": users, "k": k, "exclude_rated": exclude_rated,
            "excludes": excludes})

    def _invalidate_shard(self, shard: int, user: int) -> int:
        return self._request(shard, "invalidate_user", {"user": user})

    def _serve_shard(self, shard, users, k, batch_size, exclude_rated):
        result = self._request(shard, "serve_cohort", {
            "users": users, "k": k, "batch_size": batch_size,
            "exclude_rated": exclude_rated})
        return result["report"], result["items"], result["scores"]

    def _validate_shard(self, shard, events, duplicates) -> None:
        # Worker-side and mutating nothing: a bad batch (or a down shard,
        # which raises ShardUnavailableError) rejects with the fleet
        # untouched and nothing logged.
        self._request(shard, "validate_events",
                      {"events": events, "duplicates": duplicates})

    def _apply_shard(self, shard: int, shard_events, duplicates: str | None):
        """WAL-append then dispatch one shard's slice; recover via replay.

        The append happens *inside* ``worker.lock``: a batch may only
        enter the WAL while no restart can replay it. Appending outside
        the lock would let a read request that crashed the worker replay
        the just-logged batch during its restart, after which the dispatch
        below would apply it a second time.
        """
        worker = self._workers[shard]
        with worker.lock:
            seq = worker.next_seq
            worker.next_seq += 1
            self._wal_append(shard, shard_events, duplicates, seq)
            worker.last_replay_result = None
            result = self._request_locked(worker, "apply_updates", {
                "events": shard_events,
                "duplicates": duplicates,
                "known_users": len(worker.user_labels),
                "known_items": len(worker.item_labels),
            }, retryable=False)
            if result is _REPLAYED:
                # The restart's WAL replay applied this batch (it was the
                # log's tail); its reply was parked on the handle, and the
                # replay already absorbed the labels and advanced
                # ``applied_seq`` past this record.
                response = worker.last_replay_result
                if response is None:  # pragma: no cover - defensive
                    raise ShardUnavailableError(
                        shard, "batch lost during crash recovery"
                    )
            else:
                response = result
                worker.applied_seq = max(worker.applied_seq, seq)
                self._absorb_apply_response_locked(worker, response)
        return response["report"]

    def _absorb_apply_response_locked(self, worker: _ShardWorker,
                                      response: dict) -> None:
        """Fold one apply reply into the label mirror and the router (a
        replayed reply re-grows the mirror along the original path)."""
        with self._routing_lock:
            worker.user_labels.extend(response["new_user_labels"])
            worker.item_labels.extend(response["new_item_labels"])
            self._absorb_labels_locked(worker.shard)
        with self._lock:
            worker.model_version = response["model_version"]
        worker.n_ratings = response["n_ratings"]

    # -- supervision counters --------------------------------------------------

    @property
    def restarts(self) -> int:
        """Lifetime successful worker restarts across the fleet."""
        return sum(worker.restarts for worker in self._workers)

    @property
    def replayed_batches(self) -> int:
        """Lifetime WAL batches replayed into restarted workers."""
        return sum(worker.replayed_batches for worker in self._workers)

    @property
    def skipped_replay_batches(self) -> int:
        """Lifetime WAL batches skipped at replay because the boot
        checkpoint already contained them (``extra.wal_seq`` floor)."""
        return sum(worker.skipped_replay_batches for worker in self._workers)

    @property
    def last_restart_s(self) -> float | None:
        """Wall seconds of the fleet's most recent successful restart
        (kill detection → replayed replacement), or ``None`` before any."""
        latest = None
        for worker in self._workers:
            if worker.last_restart_s is None:
                continue
            if latest is None or worker.last_restart_at > latest.last_restart_at:
                latest = worker
        return None if latest is None else latest.last_restart_s

    def worker_pid(self, shard: int) -> int | None:
        """The shard worker's current OS pid (for tests/benchmarks that
        inject real signals), or ``None`` when the shard is down."""
        worker = self._workers[self.plan._check_shard(shard)]
        process = worker.process
        return process.pid if process is not None and process.is_alive() \
            else None

    # -- serving ---------------------------------------------------------------

    def recommend_many(self, users, k: int = 10, exclude_rated: bool = True,
                       excludes=None) -> list:
        """Batch of independent requests, routed per shard worker.

        Degraded mode is per-position: a request owned by a down shard
        yields a :class:`~repro.exceptions.ShardUnavailableError`
        *instance* at its position (the micro-batching front end turns it
        into that request's error) while every healthy shard's positions
        carry normal ranked lists.
        """
        return self._recommend_many(users, k, exclude_rated, excludes)

    def serve_cohort(self, users, k: int = 10, batch_size: int = 256,
                     exclude_rated: bool = True) -> FleetReport:
        """Serve a cohort across the worker fleet (row cache → shard RPCs).

        The router's cohort path, plus the fleet's supervision counters
        and the per-shard health the cohort was served under. A cohort
        touching a down shard raises
        :class:`~repro.exceptions.ShardUnavailableError` — trim the cohort
        to healthy users (or ``restart_shard``) to proceed degraded.
        """
        report = super().serve_cohort(users, k=k, batch_size=batch_size,
                                      exclude_rated=exclude_rated)
        report.restarts = self.restarts
        report.replayed_batches = self.replayed_batches
        report.skipped_replay_batches = self.skipped_replay_batches
        report.last_restart_s = self.last_restart_s
        report.shard_health = self.health()["shards"]
        return report

    # -- incremental updates ---------------------------------------------------

    def apply_updates(self, events, duplicates: str | None = None,
                      ) -> FleetUpdateReport:
        """Route, WAL-log and dispatch an update batch across the workers.

        Routing is the router's. The fleet then, per touched shard:
        validates the slice *worker-side*, appends it to the shard's WAL
        (fsync'd), and dispatches it. A worker crashing mid-apply is
        restarted and recovers the batch from the WAL —
        ``replayed_batches`` on the report says it happened; the merged
        reports are identical either way. All touched shards must be *up*
        when the batch starts; a shard going down mid-batch leaves its
        slice durably in its WAL, applied by the next successful
        ``restart_shard``.
        """
        with self._update_lock:
            replayed_before = self.replayed_batches
            report = self._apply_updates(events, duplicates)
            report.replayed_batches = self.replayed_batches - replayed_before
        return report

    # -- persistence -----------------------------------------------------------

    def save(self, path: str) -> str:
        """Checkpoint the fleet: plan + per-shard artifacts, then WAL reset.

        Every shard saves first; only when *all* succeed are the WALs
        truncated and the restart artifacts re-pointed at the checkpoint
        — a failed save leaves every WAL (and the old restart points)
        intact. Each shard's checkpoint records the last WAL seqno it
        contains (``extra.wal_seq`` in the artifact header), so even a
        supervisor killed *between* a shard's save and its WAL truncation
        cannot double-apply: the next boot reads the seqno in O(open) and
        skips the already-checkpointed batches. Reload with
        :meth:`from_directory` or hand the directory to
        :meth:`ShardedEngine.from_directory` (the formats are shared).
        """
        with self._update_lock:
            os.makedirs(path, exist_ok=True)
            self.plan.save(os.path.join(path, _PLAN_FILENAME))
            written: list[tuple[int, str, int]] = []
            for shard in range(self.n_shards):
                worker = self._workers[shard]
                target = os.path.join(path, _shard_artifact_name(shard))
                with worker.lock:
                    seq = worker.applied_seq
                    self._request_locked(worker, "save",
                                         {"path": target, "wal_seq": seq},
                                         retryable=True)
                written.append((shard, target, seq))
            for shard, target, seq in written:
                worker = self._workers[shard]
                # Truncation, the restart re-point and the seqno floor move
                # together under the worker lock: a read-triggered restart
                # racing this loop either replays the full WAL onto the old
                # artifact or boots the checkpoint with the floor in place
                # — never a mix.
                with worker.lock:
                    self._wal_truncate(shard)
                    worker.artifact_path = target
                    worker.checkpoint_seq = seq
        return path

    # -- lifecycle / introspection ---------------------------------------------

    def clear_caches(self) -> None:
        """Drop the fleet row cache and each live worker's cache layers."""
        self._clear_rows()
        for shard in range(self.n_shards):
            try:
                self._request(shard, "clear_caches", {})
            except ShardUnavailableError:
                continue

    def health(self, ping: bool = False) -> dict:
        """Fleet health: ``status`` plus one row per shard.

        ``ping=False`` (the default, and what the HTTP probe uses) is
        non-blocking: state comes from the supervisor's book-keeping plus
        a liveness peek at each process, so a worker that died since its
        last request shows ``"crashed"`` without waiting a timeout.
        ``ping=True`` actively round-trips every shard — which *heals*:
        a crashed worker is restarted (or marked down) on the spot.
        """
        if ping:
            for shard in range(self.n_shards):
                if self._workers[shard].state != "up":
                    continue
                try:
                    self._request(shard, "ping", {})
                except ShardUnavailableError:
                    pass
        with self._lock:
            versions = [worker.model_version for worker in self._workers]
        status = "ok"
        shards = []
        for worker, version in zip(self._workers, versions):
            state = worker.state
            # One read into a local: a concurrent _cleanup_locked may set
            # worker.process to None between checks, and the probe must
            # never raise from its own race.
            process = worker.process
            alive = process is not None and process.is_alive()
            if state == "up" and not alive:
                state = "crashed"
            entry = {
                "shard": worker.shard,
                "state": state,
                "model_version": version,
                "restarts": worker.restarts,
                "replayed_batches": worker.replayed_batches,
                "skipped_replay_batches": worker.skipped_replay_batches,
                "pid": process.pid if alive else None,
            }
            if worker.last_restart_s is not None:
                entry["last_restart_s"] = round(worker.last_restart_s, 4)
            if state != "up":
                status = "degraded"
                if worker.down_reason:
                    entry["reason"] = worker.down_reason
            shards.append(entry)
        report = {
            "status": status,
            "shards": shards,
            "restarts": self.restarts,
            "replayed_batches": self.replayed_batches,
            "skipped_replay_batches": self.skipped_replay_batches,
        }
        last_restart_s = self.last_restart_s
        if last_restart_s is not None:
            report["last_restart_s"] = round(last_restart_s, 4)
        return report

    def stats(self) -> dict:
        """Fleet shape, row-cache and supervision counters + worker stats."""
        fleet = self._router_stats()
        fleet.update(restarts=self.restarts,
                     replayed_batches=self.replayed_batches,
                     skipped_replay_batches=self.skipped_replay_batches)
        shards = []
        for shard in range(self.n_shards):
            try:
                worker_stats = self._request(shard, "stats", {})
            except ShardUnavailableError:
                worker_stats = {"state": "down"}
            shards.append({"shard": shard, **worker_stats})
        fleet["shards"] = shards
        return fleet

    def __repr__(self) -> str:
        down = sum(1 for worker in self._workers if worker.state != "up")
        return (
            f"ProcessShardFleet(n_shards={self.n_shards}, "
            f"n_users={self.n_users}, n_items={self.n_items}, "
            f"down={down}, restarts={self.restarts})"
        )
