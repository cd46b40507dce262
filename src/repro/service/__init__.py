"""Serving layer: stateful engine, cohort serving jobs, sharded fleets.

Built on the batch scoring API (:meth:`repro.core.base.Recommender.score_users`
/ ``recommend_batch``): :class:`ServingEngine` loads a model artifact (or
wraps a fitted recommender), owns the warm scoring caches plus an LRU result
cache, and serves single queries and bounded-memory chunked cohorts with
cache-hit stats and throughput (``result_cache_size=0`` makes it the
stateless cohort job);
:class:`ShardPlan` partitions the graph by connected component into
shards, score-exact for the walk family (or by edge-cut with k-hop halos,
within a one-sided error bound).
One :class:`~repro.service.router.ShardRouter` routes requests and
label-routed updates to the shards, keeps the fleet-level row cache and
merges :class:`FleetReport`\\ s, behind two transports:
:class:`ShardedEngine` calls one in-process engine per shard, and
:class:`ProcessShardFleet` runs one *worker process per shard* under a
supervisor — health checks, bounded-backoff restarts, a per-shard
write-ahead log replayed on recovery, and degraded serving (healthy shards
keep answering while a dead shard raises
:class:`~repro.exceptions.ShardUnavailableError`), with :class:`FaultSpec`
scripting deterministic crashes for failure-injection tests.
``python -m repro.cli fit`` / ``serve`` / ``serve-batch`` / ``shard-fit``
are the command-line fronts.
"""

from repro.service.engine import EngineReport, ServingEngine, UpdateReport
from repro.service.faults import CRASH_POINTS, FaultSpec
from repro.service.fleet import ProcessShardFleet
from repro.service.serving import (
    load_event_file,
    load_user_file,
    rows_from_ranked_arrays,
)
from repro.service.server import (
    BatchingServer,
    HttpFrontend,
    ServerReport,
    percentile,
)
from repro.service.sharding import (
    EDGE_CUT_HINT,
    PARTITIONERS,
    SHARD_PLAN_FORMAT_VERSION,
    FleetReport,
    FleetUpdateReport,
    ShardedEngine,
    ShardPlan,
    validate_shard_events,
)

__all__ = [
    "BatchingServer",
    "CRASH_POINTS",
    "EDGE_CUT_HINT",
    "EngineReport",
    "FaultSpec",
    "PARTITIONERS",
    "FleetReport",
    "FleetUpdateReport",
    "HttpFrontend",
    "ProcessShardFleet",
    "ServerReport",
    "ServingEngine",
    "SHARD_PLAN_FORMAT_VERSION",
    "ShardPlan",
    "ShardedEngine",
    "UpdateReport",
    "load_event_file",
    "load_user_file",
    "percentile",
    "rows_from_ranked_arrays",
    "validate_shard_events",
]
