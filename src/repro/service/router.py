"""Shard routing, written once for both fleet transports.

The paper's walk scores (Eq. 7–10) never leave a user's connected
component, so a sharded tier routes every request exactly; edge-cut
plans add k-hop halo replicas whose error is one-sided (DESIGN.md §12).
None of this depends on whether a shard runs in-process or in a worker
process, so :class:`ShardRouter` owns all of it:

* the label→shard tables, the halo holder sets (which shards hold a
  label at all, owned or ghost) and the global↔local index maps, all
  guarded by ``_routing_lock``;
* event routing — component union-find or halo replica fan-out — with
  its cross-shard error messages, and exclusion translation;
* label absorption as shards register new users and items;
* the fleet-level LRU row cache (guarded by ``_lock``): version-gated on
  insert, evicted per touched shard;
* the per-shard grouping and merging behind ``recommend_many``,
  ``serve_cohort`` and ``apply_updates``, and the merged
  :class:`FleetReport` / :class:`FleetUpdateReport`.

A transport subclasses it and answers the ``_shard_*`` hooks:
:class:`~repro.service.sharding.ShardedEngine` calls in-process
:class:`~repro.service.ServingEngine`\\ s,
:class:`~repro.service.fleet.ProcessShardFleet` sends pipe RPCs to
supervised worker processes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.base import Recommendation
from repro.exceptions import ConfigError, ShardUnavailableError, UnknownUserError
from repro.service.serving import _label_array, rows_from_ranked_arrays
from repro.utils.timer import Timer, per_second
from repro.utils.validation import (
    as_exclude_array,
    as_index_array,
    check_non_negative_int,
    check_positive_int,
    is_index,
)

__all__ = ["EDGE_CUT_HINT", "FleetReport", "FleetUpdateReport", "ShardRouter"]

#: Hint appended to cross-shard rejection errors and stale-halo reports.
EDGE_CUT_HINT = (
    "re-plan with `repro shard-fit --partitioner edge-cut --halo-hops K` "
    "on the merged data"
)


@dataclass
class FleetReport:
    """One cohort run across the shard fleet, with per-shard breakdowns.

    ``rows`` carry **global** user/item indices (and the global item
    labels), in cohort order, exactly as an unsharded engine would emit
    them. ``per_shard`` holds ``(shard_id, EngineReport)`` pairs for the
    shards the cohort touched; the per-shard reports cover their lookup
    and solve stages (row assembly happens once, fleet-side, and is
    included in the fleet ``seconds``).
    """

    rows: list = field(default_factory=list)
    n_users: int = 0
    k: int = 10
    seconds: float = 0.0
    n_shards: int = 0
    row_cache_hits: int = 0
    row_cache_misses: int = 0
    per_shard: list = field(default_factory=list)
    #: Process-fleet supervision counters (always zero / empty for the
    #: in-process ShardedEngine): lifetime worker restarts, WAL batches
    #: replayed into restarted workers, and the per-shard health rows the
    #: run was served under. ``summary()`` surfaces them only when
    #: ``shard_health`` is populated, so in-process summaries are unchanged.
    restarts: int = 0
    replayed_batches: int = 0
    #: WAL batches skipped on replay because a checkpoint's recorded seqno
    #: already contained them (supervisor died between checkpoint and WAL
    #: truncation; see DESIGN.md §13/§14).
    skipped_replay_batches: int = 0
    #: Wall-clock seconds of the fleet's most recent successful worker
    #: restart (kill detection through replayed-and-healthy), ``None``
    #: until a restart has happened. First-class here so the
    #: restart-to-healthy latency the mmap artifacts buy is observable in
    #: production reports, not only in benchmarks.
    last_restart_s: float | None = None
    shard_health: list = field(default_factory=list)

    @property
    def users_per_second(self) -> float:
        """Fleet throughput; clamped to 0.0 when the clock resolved no time
        (:func:`~repro.utils.timer.per_second` — ``inf`` would corrupt JSON
        summaries)."""
        return per_second(self.n_users, self.seconds)

    @property
    def n_solves(self) -> int:
        return sum(report.n_solves for _, report in self.per_shard)

    @property
    def result_cache_hits(self) -> int:
        """Requests answered from a cache: the fleet's row cache plus the
        shard engines' result caches (a fleet row-cache miss falls through
        to a shard, where it counts again as that layer's hit or miss)."""
        return self.row_cache_hits + sum(
            report.result_cache_hits for _, report in self.per_shard
        )

    @property
    def result_cache_misses(self) -> int:
        return sum(report.result_cache_misses for _, report in self.per_shard)

    @property
    def result_cache_hit_rate(self) -> float:
        total = self.result_cache_hits + self.result_cache_misses
        return self.result_cache_hits / total if total else 0.0

    def summary(self) -> dict:
        """One fleet-level summary row (JSON-safe)."""
        row = {
            "users": self.n_users,
            "k": self.k,
            "seconds": round(self.seconds, 4),
            "users_per_sec": round(self.users_per_second, 1),
            "shards": self.n_shards,
            "shards_hit": len(self.per_shard),
            "solves": self.n_solves,
            "row_hits": self.row_cache_hits,
            "result_hits": self.result_cache_hits,
            "result_misses": self.result_cache_misses,
            "result_hit_rate": round(self.result_cache_hit_rate, 3),
        }
        if self.shard_health:
            row["restarts"] = self.restarts
            row["replayed_batches"] = self.replayed_batches
            row["skipped_replay_batches"] = self.skipped_replay_batches
            if self.last_restart_s is not None:
                row["last_restart_s"] = round(self.last_restart_s, 4)
            row["shards_down"] = sum(
                1 for entry in self.shard_health
                if entry.get("state") != "up"
            )
        return row

    def shard_summaries(self) -> list[dict]:
        """Per-shard summary rows, each tagged with its shard id."""
        return [{"shard": shard, **report.summary()}
                for shard, report in self.per_shard]


@dataclass
class FleetUpdateReport:
    """One ``apply_updates`` batch across the fleet.

    ``per_shard`` holds ``(shard_id, UpdateReport)`` pairs for the shards
    that received events; untouched shards keep serving warm and do not
    appear. On an edge-cut (halo) fleet, ``hint`` is set when some events
    could not reach every replica of their endpoints — the untouched ghost
    copies are now stale (bounded drift, DESIGN.md §12) and a re-plan
    refreshes them; component fleets never set it (they reject cross-shard
    edges outright instead).
    """

    n_events: int = 0
    seconds: float = 0.0
    per_shard: list = field(default_factory=list)
    stale_ghost_events: int = 0
    hint: str | None = None
    #: Rows dropped from the fleet-level row cache by this batch — one
    #: eviction pass over the cache after every touched shard has applied
    #: (not one per shard), so a batch spanning S shards costs one cache
    #: scan instead of S.
    fleet_rows_evicted: int = 0
    #: WAL batches replayed because a worker crashed while this batch was
    #: in flight (multi-process fleet only; always 0 in-process).
    replayed_batches: int = 0

    @property
    def n_shards_touched(self) -> int:
        return len(self.per_shard)

    @property
    def n_new_users(self) -> int:
        return sum(report.n_new_users for _, report in self.per_shard)

    @property
    def n_new_items(self) -> int:
        return sum(report.n_new_items for _, report in self.per_shard)

    @property
    def n_replaced(self) -> int:
        return sum(report.n_replaced for _, report in self.per_shard)

    @property
    def result_rows_evicted(self) -> int:
        return sum(report.result_rows_evicted for _, report in self.per_shard)

    def summary(self) -> dict:
        """One fleet-level summary row (JSON-safe)."""
        row = {
            "events": self.n_events,
            "shards_touched": self.n_shards_touched,
            "new_users": self.n_new_users,
            "new_items": self.n_new_items,
            "replaced": self.n_replaced,
            "results_evicted": self.result_rows_evicted,
            "fleet_rows_evicted": self.fleet_rows_evicted,
            "seconds": round(self.seconds, 4),
        }
        if self.replayed_batches:
            row["replayed_batches"] = self.replayed_batches
        if self.hint is not None:
            row["stale_ghost_events"] = self.stale_ghost_events
            row["hint"] = self.hint
        return row

    def shard_summaries(self) -> list[dict]:
        """Per-shard summary rows, each tagged with its shard id."""
        return [{"shard": shard, **report.summary()}
                for shard, report in self.per_shard]


def _grow_axis(global_of, shard_of, local_of, shard: int, count: int):
    """One axis's tables with ``count`` new local nodes of ``shard``
    appended: they take the next global ids and the next local ids."""
    first_global, first_local = shard_of.size, global_of.size
    return (
        np.concatenate([global_of, np.arange(
            first_global, first_global + count, dtype=np.int64)]),
        np.concatenate([shard_of, np.full(count, shard, dtype=np.int64)]),
        np.concatenate([local_of, np.arange(
            first_local, first_local + count, dtype=np.int64)]),
    )


class ShardRouter:
    """Routing state and logic shared by the in-process and process fleets.

    Global user/item indices are the plan's; users and items registered
    later by updates are appended to the global space in the order the
    shards absorb them. External labels are the stable identity across
    the fleet. On top of the shards' own caches the router keeps a
    bounded LRU **row cache** of fully materialised response rows per
    ``(user, k, exclude_rated)`` — the global remap and row assembly exist
    only above the shard tier, so a fully warm cohort is answered without
    touching a shard. Rows are shared across serves; treat reports as
    read-only. Updates evict the touched shards' users from it (a
    conservative superset of the affected users).

    **Transport hooks.** A subclass owns the shards and implements the
    ``_shard_*`` methods below. Hooks ending in ``_locked`` run with a
    router lock held and must not block; the others are called with no
    router lock held. ``_apply_shard`` must absorb the shard's new labels
    (:meth:`_absorb_labels`) before it returns.

    **Locks.** ``_routing_lock`` guards the routing tables and ``_lock``
    (reentrant) the row cache; they never nest the other way round, and
    neither is held across a shard call.
    """

    def __init__(self, plan, result_cache_size: int):
        self.plan = plan
        self.result_cache_size = check_non_negative_int(
            result_cache_size, "result_cache_size"
        )
        self._routing_lock = threading.Lock()
        self._lock = threading.RLock()
        self._rows: OrderedDict[tuple, list] = OrderedDict()  # guarded-by: router._lock
        self.row_cache_hits = 0  # guarded-by: router._lock
        self.row_cache_misses = 0  # guarded-by: router._lock

    # -- transport hooks -------------------------------------------------------

    def _shard_labels_locked(self, shard: int) -> tuple:
        """``(user_labels, item_labels)`` in the shard's local index order."""
        raise NotImplementedError

    def _shard_version_locked(self, shard: int) -> int:
        """The shard's current model version (``_lock`` held)."""
        raise NotImplementedError

    def _shard_loads(self) -> list:
        """Ratings per shard: the least-loaded rule's measure."""
        raise NotImplementedError

    def _recommend_shard(self, shard: int, users: list, k: int,
                         exclude_rated: bool, excludes: list) -> list:
        """One ranked list of ``(local item, label, score)`` per user."""
        raise NotImplementedError

    def _serve_shard(self, shard: int, users: np.ndarray, k: int,
                     batch_size: int, exclude_rated: bool) -> tuple:
        """``(EngineReport, items, scores)``, items shard-local."""
        raise NotImplementedError

    def _invalidate_shard(self, shard: int, user: int) -> int:
        """Evict a shard-local user's result rows; returns how many."""
        raise NotImplementedError

    def _validate_shard(self, shard: int, events: list,
                        duplicates: str | None) -> None:
        """Reject the shard's slice without mutating anything."""
        raise NotImplementedError

    def _apply_shard(self, shard: int, events: list,
                     duplicates: str | None):
        """Apply the slice, absorb its new labels, return its UpdateReport."""
        raise NotImplementedError

    # -- routing tables --------------------------------------------------------

    def _build_routing(self) -> None:
        """Build every routing table from the shards' label lists.

        Every non-ghost label (owned by the plan, or appended by absorbed
        updates) must live in exactly one shard; ghost labels are replicas
        and must be owned elsewhere.
        """
        plan = self.plan
        with self._routing_lock:
            labels = [self._shard_labels_locked(shard)
                      for shard in range(plan.n_shards)]
            for shard, (user_labels, item_labels) in enumerate(labels):
                base_users = plan.shard_users(shard).size
                base_items = plan.shard_items(shard).size
                if (len(user_labels) < base_users
                        or len(item_labels) < base_items):
                    raise ConfigError(
                        f"shard {shard} serves {len(user_labels)} users × "
                        f"{len(item_labels)} items; the plan assigns it "
                        f"{base_users} × {base_items} (owned + ghosts) — "
                        "artifact/plan mismatch"
                    )
            self._user_shard = plan.user_shard.copy()  # guarded-by: _routing_lock
            self._user_local = plan.user_local.copy()  # guarded-by: _routing_lock
            self._item_shard = plan.item_shard.copy()  # guarded-by: _routing_lock
            self._item_local = plan.item_local.copy()  # guarded-by: _routing_lock
            # Per-shard local → global translation: owned nodes, then halo
            # ghosts (the shard dataset's row/column order), then anything
            # updates appended later.
            self._user_global = [plan.shard_users(s) for s in range(plan.n_shards)]  # guarded-by: _routing_lock
            self._item_global = [plan.shard_items(s) for s in range(plan.n_shards)]  # guarded-by: _routing_lock
            self._item_labels = np.empty(plan.n_items, dtype=object)  # guarded-by: _routing_lock
            for shard, (_, item_labels) in enumerate(labels):
                base = self._item_global[shard]
                self._item_labels[base] = _label_array(item_labels[:base.size])
            # Halo plans keep a dense global→local item map per shard (−1
            # where absent) so exclusions translate for ghost items too, and
            # holder sets answering "which shards hold this label at all".
            # guarded-by: _routing_lock
            self._item_local_in_shard: list | None = (
                [np.empty(0, dtype=np.int64)] * plan.n_shards
                if plan.has_halos else None
            )
            self._user_holders: dict | None = {} if plan.has_halos else None  # guarded-by: _routing_lock
            self._item_holders: dict | None = {} if plan.has_halos else None  # guarded-by: _routing_lock
            self._user_shard_by_label: dict = {}  # guarded-by: _routing_lock
            self._item_shard_by_label: dict = {}  # guarded-by: _routing_lock
            for shard in range(plan.n_shards):
                self._absorb_labels_locked(shard)
            for shard, (user_labels, item_labels) in enumerate(labels):
                for axis, axis_labels, lookup, holders, owned, ghosts in (
                        ("user", user_labels, self._user_shard_by_label,
                         self._user_holders, plan.users_of_shard(shard).size,
                         plan.ghost_users_of_shard(shard).size),
                        ("item", item_labels, self._item_shard_by_label,
                         self._item_holders, plan.items_of_shard(shard).size,
                         plan.ghost_items_of_shard(shard).size)):
                    for position, label in enumerate(axis_labels):
                        if holders is not None:
                            holders.setdefault(label, set()).add(shard)
                        if owned <= position < owned + ghosts:
                            continue  # ghost replica; verified below
                        owner = lookup.setdefault(label, shard)
                        if owner != shard:
                            raise ConfigError(
                                f"{axis} label {label!r} appears in shards "
                                f"{owner} and {shard}; shard datasets must "
                                "be disjoint"
                            )
            if not plan.has_halos:
                return
            for shard, (user_labels, item_labels) in enumerate(labels):
                for axis, axis_labels, lookup, owned, ghosts in (
                        ("user", user_labels, self._user_shard_by_label,
                         plan.users_of_shard(shard).size,
                         plan.ghost_users_of_shard(shard).size),
                        ("item", item_labels, self._item_shard_by_label,
                         plan.items_of_shard(shard).size,
                         plan.ghost_items_of_shard(shard).size)):
                    for label in axis_labels[owned:owned + ghosts]:
                        owner = lookup.get(label)
                        if owner is None or owner == shard:
                            raise ConfigError(
                                f"ghost {axis} label {label!r} in shard "
                                f"{shard} is not owned by any other shard — "
                                "plan/artifact mismatch"
                            )
            for shard in range(plan.n_shards):
                self._rebuild_item_map_locked(shard)

    def _rebuild_item_map_locked(self, shard: int) -> None:
        """Recompute one shard's dense global→local item map (halo plans)."""
        lookup = np.full(self._item_shard.size, -1, dtype=np.int64)
        lookup[self._item_global[shard]] = np.arange(
            self._item_global[shard].size, dtype=np.int64
        )
        self._item_local_in_shard[shard] = lookup

    def _absorb_labels(self, shard: int) -> None:
        """Append a shard's post-update users/items to the global space."""
        with self._routing_lock:
            self._absorb_labels_locked(shard)

    def _absorb_labels_locked(self, shard: int) -> None:
        """Register the shard's labels beyond the known count.

        Idempotent: labels below the known count are skipped, so a second
        absorb — a reader pulling ahead of the writer, or a WAL replay
        re-announcing labels — registers nothing twice.
        """
        user_labels, item_labels = self._shard_labels_locked(shard)
        fresh = user_labels[self._user_global[shard].size:]
        if len(fresh):
            self._user_global[shard], self._user_shard, self._user_local = (
                _grow_axis(self._user_global[shard], self._user_shard,
                           self._user_local, shard, len(fresh)))
            for label in fresh:
                self._user_shard_by_label[label] = shard
                if self._user_holders is not None:
                    self._user_holders.setdefault(label, set()).add(shard)
        fresh = item_labels[self._item_global[shard].size:]
        if len(fresh):
            self._item_global[shard], self._item_shard, self._item_local = (
                _grow_axis(self._item_global[shard], self._item_shard,
                           self._item_local, shard, len(fresh)))
            self._item_labels = np.concatenate(
                [self._item_labels, _label_array(fresh)])
            for label in fresh:
                self._item_shard_by_label[label] = shard
                if self._item_holders is not None:
                    self._item_holders.setdefault(label, set()).add(shard)
            if self._item_local_in_shard is not None:
                # The global item space grew: every shard's dense map
                # must cover the new tail indices.
                for other in range(self.n_shards):
                    self._rebuild_item_map_locked(other)

    def _item_globals(self, shard: int, top: int) -> np.ndarray:
        """The shard's local→global item map, covering local index ``top``.

        An in-process read landing between a shard's apply and the
        front's absorb gets an answer naming items not absorbed yet; the
        reader absorbs them itself, so no answer is remapped through a map
        older than it. (On the process fleet the worker lock already
        orders every read RPC after the apply's absorb.)
        """
        with self._routing_lock:
            if top >= self._item_global[shard].size:
                self._absorb_labels_locked(shard)
            return self._item_global[shard]

    def _translate_exclusions_locked(self, shard: int,
                                     banned: np.ndarray) -> np.ndarray:
        """Global exclusion indices → the shard's local item indices.

        Exclusions the shard cannot see (other shards' items outside its
        halo) are dropped — the shard can never recommend them anyway. On
        halo plans the map covers ghost items too, so a ban on an item the
        shard merely replicates still suppresses it.
        """
        in_range = banned[(banned >= 0) & (banned < self._item_shard.size)]
        if self._item_local_in_shard is not None:
            local = self._item_local_in_shard[shard][in_range]
            return local[local >= 0]
        mine = in_range[self._item_shard[in_range] == shard]
        return self._item_local[mine]

    # -- shape -----------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    @property
    def n_users(self) -> int:
        with self._routing_lock:
            return self._user_shard.size

    @property
    def n_items(self) -> int:
        with self._routing_lock:
            return self._item_shard.size

    def _locate_user(self, user: int) -> tuple[int, int]:
        """``(shard, local index)`` of a global user."""
        with self._routing_lock:
            if not is_index(user, self._user_shard.size):
                raise UnknownUserError(user)
            return int(self._user_shard[user]), int(self._user_local[user])

    def _check_user(self, user: int) -> None:
        self._locate_user(user)

    def shard_of_user(self, user: int) -> int:
        """The shard id serving a global user index."""
        return self._locate_user(user)[0]

    # -- serving ---------------------------------------------------------------

    def recommend(self, user: int, k: int = 10, exclude_rated: bool = True,
                  exclude=None) -> list[Recommendation]:
        """Top-``k`` for one global user, answered by the owning shard.

        ``exclude`` takes **global** item indices; exclusions living in
        other shards are dropped (the user's shard can never recommend
        them) and the rest are translated to shard-local indices. Returned
        recommendations carry global item indices and labels. Runs as a
        one-request :meth:`recommend_many`, so a down shard raises its
        :class:`~repro.exceptions.ShardUnavailableError`.
        """
        ranked = self.recommend_many([user], k=k, exclude_rated=exclude_rated,
                                     excludes=[exclude])[0]
        if isinstance(ranked, ShardUnavailableError):
            raise ranked
        return ranked

    def _recommend_many(self, users, k: int, exclude_rated: bool,
                        excludes) -> list:
        """Group requests by owning shard, ask each shard once, remap back.

        Exclusions translate as in :meth:`recommend`; a shard whose
        transport raises :class:`~repro.exceptions.ShardUnavailableError`
        yields that error *instance* at each of its positions.
        """
        users = list(users)
        if excludes is None:
            excludes = [None] * len(users)
        else:
            excludes = list(excludes)
            if len(excludes) != len(users):
                raise ConfigError(
                    f"excludes has {len(excludes)} entries for "
                    f"{len(users)} users"
                )
        out: list = [None] * len(users)
        by_shard: dict[int, tuple[list, list, list]] = {}
        with self._routing_lock:
            for position, (user, exclude) in enumerate(zip(users, excludes)):
                if not is_index(user, self._user_shard.size):
                    raise UnknownUserError(user)
                shard = int(self._user_shard[user])
                banned = as_exclude_array(exclude)
                if banned.size:
                    banned = self._translate_exclusions_locked(shard, banned)
                positions, local_users, local_bans = by_shard.setdefault(
                    shard, ([], [], [])
                )
                positions.append(position)
                local_users.append(int(self._user_local[user]))
                local_bans.append(banned)
        k = check_positive_int(k, "k")
        for shard, (positions, local_users, local_bans) in by_shard.items():
            try:
                ranked_lists = self._recommend_shard(
                    shard, local_users, k, bool(exclude_rated), local_bans)
            except ShardUnavailableError as exc:
                for position in positions:
                    out[position] = exc
                continue
            top = max((item for ranked in ranked_lists
                       for item, _, _ in ranked), default=-1)
            lookup = self._item_globals(shard, top)
            for position, ranked in zip(positions, ranked_lists):
                out[position] = [
                    Recommendation(int(lookup[item]), label, float(score))
                    for item, label, score in ranked
                ]
        return out

    def serve_cohort(self, users, k: int = 10, batch_size: int = 256,
                     exclude_rated: bool = True) -> FleetReport:
        """Serve a cohort of global user indices across the fleet.

        Users with a row-cache entry are answered without touching any
        shard. The rest are split by owning shard, answered by each
        shard's arrays path, remapped from shard-local to global item
        indices, materialised as rows (which enter the row cache) and
        merged back in cohort order — byte-for-byte the shape an
        unsharded engine's report carries.
        """
        k = check_positive_int(k, "k")
        exclude_rated = bool(exclude_rated)
        users = as_index_array(users, self.n_users, "users")
        report = FleetReport(n_users=int(users.size), k=k,
                             n_shards=self.n_shards)
        with Timer() as timer:
            per_position: list = [None] * users.size
            missing = list(range(users.size))
            if self.result_cache_size:
                with self._lock:
                    missing = []
                    for position, user in enumerate(users):
                        key = (int(user), k, exclude_rated)
                        entry = self._rows.get(key)
                        if entry is None:
                            missing.append(position)
                        else:
                            self._rows.move_to_end(key)
                            per_position[position] = entry
                    report.row_cache_hits = users.size - len(missing)
                    report.row_cache_misses = len(missing)
                    self.row_cache_hits += report.row_cache_hits
                    self.row_cache_misses += report.row_cache_misses
                    versions = [self._shard_version_locked(shard)
                                for shard in range(self.n_shards)]
            if missing:
                miss_users = users[np.asarray(missing, dtype=np.int64)]
                items = np.full((miss_users.size, k), -1, dtype=np.int64)
                scores = np.full((miss_users.size, k), -np.inf)
                with self._routing_lock:
                    shard_of = self._user_shard[miss_users]
                    local_of = self._user_local[miss_users]
                for shard in np.unique(shard_of).tolist():
                    rows_of_shard = np.flatnonzero(shard_of == shard)
                    shard_report, shard_items, shard_scores = self._serve_shard(
                        shard, local_of[rows_of_shard], k, batch_size,
                        exclude_rated)
                    lookup = self._item_globals(
                        shard, int(shard_items.max(initial=-1)))
                    valid = shard_items >= 0
                    items[rows_of_shard] = np.where(
                        valid, lookup[np.where(valid, shard_items, 0)], -1
                    )
                    scores[rows_of_shard] = shard_scores
                    report.per_shard.append((shard, shard_report))
                # Taken after every remap: the label array then covers each
                # global id the (append-only) maps above could produce.
                with self._routing_lock:
                    item_labels = self._item_labels
                flat = rows_from_ranked_arrays(
                    miss_users, items, scores, item_labels
                )
                bounds = np.concatenate(
                    [[0], np.cumsum((items >= 0).sum(axis=1))]
                )
                for index, position in enumerate(missing):
                    per_position[position] = flat[bounds[index]:
                                                  bounds[index + 1]]
                if self.result_cache_size:
                    with self._lock:
                        # Shard solves ran outside the lock; skip inserting
                        # rows whose shard moved to a new model meanwhile
                        # (its users were or will be evicted) — re-caching
                        # them would serve pre-update rows indefinitely.
                        for index, position in enumerate(missing):
                            shard = int(shard_of[index])
                            if self._shard_version_locked(shard) != versions[shard]:
                                continue
                            key = (int(users[position]), k, exclude_rated)
                            self._rows[key] = per_position[position]
                        while len(self._rows) > self.result_cache_size:
                            self._rows.popitem(last=False)
            report.rows = [row for user_rows in per_position
                           for row in user_rows or ()]
        report.seconds = timer.elapsed
        return report

    def warm(self, users=None, k: int = 10, batch_size: int = 256) -> FleetReport:
        """Pre-fill the row cache and every shard's caches (default: every
        user)."""
        if users is None:
            users = np.arange(self.n_users, dtype=np.int64)
        return self.serve_cohort(users, k=k, batch_size=batch_size)

    # -- incremental updates ---------------------------------------------------

    def _apply_updates(self, events, duplicates: str | None
                       ) -> FleetUpdateReport:
        """Route a batch, validate every slice, then apply shard by shard.

        The whole batch is pre-validated — rating values and scale, the
        ``duplicates`` policy, cross-shard edges — before any shard
        mutates, so a bad event rejects the batch with the fleet untouched
        (shards apply sequentially; without the pre-pass a bad event for
        shard 2 would leave shards 0–1 updated and a retry would
        double-apply). Untouched shards keep serving fully warm.
        """
        events = list(events)
        report = FleetUpdateReport(n_events=len(events))
        if not events:
            return report
        with Timer() as timer:
            loads = self._shard_loads()
            with self._routing_lock:
                if self.plan.has_halos:
                    routed, stale = self._route_events_halo_locked(events,
                                                                   loads)
                else:
                    routed = self._route_events_component_locked(events,
                                                                 loads)
                    stale = 0
            touched = [shard for shard in range(self.n_shards)
                       if routed[shard]]
            for shard in touched:
                self._validate_shard(shard, routed[shard], duplicates)
            for shard in touched:
                report.per_shard.append(
                    (shard, self._apply_shard(shard, routed[shard],
                                              duplicates)))
            # One row-cache eviction pass for the whole batch, after every
            # touched shard has applied (all model versions already bumped,
            # so serve_cohort's version-gated insert cannot re-admit a
            # pre-update row behind this sweep) — a batch spanning S shards
            # costs one cache scan, not S.
            report.fleet_rows_evicted = self._evict_shard_rows(touched)
            if stale:
                report.stale_ghost_events = stale
                report.hint = (
                    f"{stale} event(s) could not reach every halo replica "
                    "of their endpoints; the untouched ghost copies drift "
                    f"within the documented bound — {EDGE_CUT_HINT}"
                )
        report.seconds = timer.elapsed
        return report

    def _route_events_component_locked(self, events, loads) -> list[list]:
        """Union-find routing for component plans.

        Every connected label group of the batch lands on one shard: the
        shard its known labels live in (new labels register there too),
        else the least-loaded shard (fewest ratings, ties to the lowest
        id). Known labels in two shards would merge components across a
        shard boundary: :class:`~repro.exceptions.ConfigError`.
        """
        # Labels namespaced "u"/"i": a user and an item may legitimately
        # share an external label.
        parent: dict = {}

        def find(key):
            root = key
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(key, key) != key:  # path compression
                parent[key], key = root, parent[key]
            return root

        for event in events:
            user_root = find(("u", event[0]))
            item_root = find(("i", event[1]))
            if user_root != item_root:
                parent[item_root] = user_root
        group_shard: dict = {}
        group_label: dict = {}
        for kind, position, lookup in (
                ("u", 0, self._user_shard_by_label),
                ("i", 1, self._item_shard_by_label)):
            for event in events:
                label = event[position]
                known = lookup.get(label)
                if known is None:
                    continue
                root = find((kind, label))
                owner = group_shard.setdefault(root, known)
                group_label.setdefault(root, label)
                if owner != known:
                    raise ConfigError(
                        self._cross_shard_message_locked(
                            events, group_label[root], owner, label, known
                        )
                    )
        routed: list[list] = [[] for _ in range(self.n_shards)]
        loads = list(loads)
        for event in events:
            root = find(("u", event[0]))
            shard = group_shard.get(root)
            if shard is None:  # every label in the group is brand-new
                shard = int(np.argmin(loads))
                group_shard[root] = shard
            loads[shard] += 1
            routed[shard].append(event)
        return routed

    def _cross_shard_message_locked(self, events, label_a, shard_a, label_b,
                                    shard_b) -> str:
        """Name the offending cross-shard edge as concretely as possible.

        Prefers an actual event whose two endpoints live in different
        shards (the direct cut edge); falls back to the two conflicting
        group labels when the link is transitive through new labels.
        """
        for user_label, item_label, _ in events:
            user_owner = self._user_shard_by_label.get(user_label)
            item_owner = self._item_shard_by_label.get(item_label)
            if (user_owner is not None and item_owner is not None
                    and user_owner != item_owner):
                return (
                    f"update event (user={user_label!r}, "
                    f"item={item_label!r}) is a cross-shard edge: the user "
                    f"lives in shard {user_owner}, the item in shard "
                    f"{item_owner}; a component-sharded tier cannot apply "
                    f"it — {EDGE_CUT_HINT}"
                )
        return (
            f"update batch links {label_a!r} (shard {shard_a}) with "
            f"{label_b!r} (shard {shard_b}) through new labels; "
            "cross-shard edges cannot be applied to a component-sharded "
            f"tier — {EDGE_CUT_HINT}"
        )

    def _route_events_halo_locked(self, events, loads
                                  ) -> tuple[list[list], int]:
        """Per-event replica routing for edge-cut plans.

        An event whose endpoints are co-located in at least one shard goes
        to *every* shard holding both (owner and ghost replicas alike — a
        co-located apply keeps the frozen degree deficit exact). An event
        introducing a new label lands on the known endpoint's owner shard;
        replicas holding only that endpoint go stale within the documented
        bound. An edge between two known labels co-located nowhere exceeds
        the halo and raises :class:`~repro.exceptions.ConfigError`.

        Returns ``(routed, stale)``: per-shard slices (an event may be in
        several) and the count of events some replica missed. ``pending_*``
        track labels registered earlier in the batch.
        """
        routed: list[list] = [[] for _ in range(self.n_shards)]
        loads = list(loads)
        pending_users: dict = {}
        pending_items: dict = {}
        stale = 0
        for event in events:
            user_label, item_label = event[0], event[1]
            user_shards = self._shards_with_locked(
                user_label, "user", pending_users)
            item_shards = self._shards_with_locked(
                item_label, "item", pending_items)
            if user_shards and item_shards:
                both = sorted(user_shards & item_shards)
                if not both:
                    user_owner = self._user_shard_by_label.get(
                        user_label, pending_users.get(user_label))
                    item_owner = self._item_shard_by_label.get(
                        item_label, pending_items.get(item_label))
                    raise ConfigError(
                        f"update event (user={user_label!r}, "
                        f"item={item_label!r}) joins shard {user_owner} to "
                        f"shard {item_owner} but no shard holds both "
                        "endpoints — the edge exceeds the plan's "
                        f"{self.plan.halo_hops}-hop halo; {EDGE_CUT_HINT}"
                    )
                for shard in both:
                    routed[shard].append(event)
                    loads[shard] += 1
                if (user_shards | item_shards) - set(both):
                    stale += 1
            elif user_shards or item_shards:
                # One endpoint is brand-new: register it on the known
                # endpoint's owner shard (the authoritative copy).
                if user_shards:
                    owner = self._user_shard_by_label.get(
                        user_label, pending_users.get(user_label))
                    pending_items[item_label] = owner
                    replicas = user_shards
                else:
                    owner = self._item_shard_by_label.get(
                        item_label, pending_items.get(item_label))
                    pending_users[user_label] = owner
                    replicas = item_shards
                routed[owner].append(event)
                loads[owner] += 1
                if replicas - {owner}:
                    stale += 1
            else:
                shard = int(np.argmin(loads))
                routed[shard].append(event)
                loads[shard] += 1
                pending_users[user_label] = shard
                pending_items[item_label] = shard
        return routed, stale

    def _shards_with_locked(self, label, axis: str, pending: dict) -> set:
        """Every shard holding ``label`` (owned or ghost) on a halo plan,
        plus a registration pending earlier in the current batch."""
        holders = self._user_holders if axis == "user" else self._item_holders
        shards = set(holders.get(label, ()))
        if label in pending:
            shards.add(pending[label])
        return shards

    # -- row cache -------------------------------------------------------------

    def _evict_shard_rows(self, shards) -> int:
        """Drop the row cache's entries for the given shards' users.

        A conservative superset of the update's affected users (the shards
        evict precisely; the front only knows the shards) — over-eviction
        costs a re-route, never a stale row. One scan for the whole
        touched-shard set.
        """
        touched = set(int(s) for s in shards)
        if not touched:
            return 0
        with self._routing_lock:
            user_shard = self._user_shard
        with self._lock:
            stale = [key for key in self._rows
                     if int(user_shard[key[0]]) in touched]
            for key in stale:
                del self._rows[key]
            return len(stale)

    def invalidate_user(self, user: int) -> int:
        """Evict one global user's rows: fleet row cache + shard cache.

        Returns the number of entries the owning shard's engine dropped; a
        down shard raises its :class:`~repro.exceptions.ShardUnavailableError`
        after the fleet rows are gone.
        """
        shard, local = self._locate_user(user)
        with self._lock:
            stale = [key for key in self._rows if key[0] == int(user)]
            for key in stale:
                del self._rows[key]
        return self._invalidate_shard(shard, local)

    def _clear_rows(self) -> None:
        with self._lock:
            self._rows.clear()
            self.row_cache_hits = 0
            self.row_cache_misses = 0

    def _router_stats(self) -> dict:
        """Fleet shape and row-cache counters."""
        with self._routing_lock:
            n_users, n_items = self._user_shard.size, self._item_shard.size
        with self._lock:
            return {
                "n_shards": self.n_shards,
                "n_users": n_users,
                "n_items": n_items,
                "row_entries": len(self._rows),
                "row_hits": self.row_cache_hits,
                "row_misses": self.row_cache_misses,
            }
