"""Component-sharded serving tier: one engine per graph partition.

The paper's walk recommenders (Eq. 7–10) score strictly *within* a user's
connected component — a walk can never leave it, items outside it score
``-inf``. The user–item graph therefore partitions naturally into
independent shards, and a serving deployment can split one big engine into
a fleet of small ones with **zero loss of ranking quality** for the walk
family:

* :class:`ShardPlan` partitions a :class:`~repro.data.RatingDataset` by
  connected component into balanced shards — greedy bin-packing on
  component nnz (the walk-solve cost measure), users/items re-indexed per
  shard with label-preserving maps, saved/loaded as a versioned ``.npz``;
* :class:`ShardedEngine` owns one :class:`~repro.service.ServingEngine`
  per shard and is the in-process transport of
  :class:`~repro.service.router.ShardRouter`, which routes every request
  to the owning shard and merges the answers: ``recommend(user)`` by the
  user's shard, ``serve_cohort`` by splitting the cohort and merging
  ranked arrays back in cohort order, and ``apply_updates`` by event label
  (events on known users/items go to their shard, events introducing
  brand-new labels go to the least-loaded shard). Per-shard artifacts
  reuse :mod:`repro.core.artifacts` (``fit`` → ``save`` →
  ``from_directory``, no refitting); the merged per-shard reports are
  :class:`FleetReport` / :class:`FleetUpdateReport`.

Why shard at all? Besides being the load-bearing step toward multi-process
and multi-host serving (each shard is an independent, individually
persistable unit with its own caches and update stream), sharding shrinks
the serving working set: a cohort's dense score matrix is
``batch × shard_items`` instead of ``batch × all_items``, so cold solves
allocate and scan less memory (measured in ``benchmarks/bench_sharded.py``).

**Semantics caveat.** Routing a user to their component's shard is
score-exact for component-local scorers (the walk family: AT, AC1, AC2,
HT, and the graph baselines). Globally coupled algorithms (MostPopular,
PureSVD, kNN, LDA) rank only the shard's items when sharded — candidates
outside the user's component disappear. That is a *semantics change* for
those baselines; shard them only when per-tenant catalogues are the intent
(the federated-shards deployment shape).

**Cross-shard updates.** On a component plan, a rating event joining a
user in shard A to an item in shard B would merge two components across
shard boundaries; no single engine can absorb it.
:meth:`ShardedEngine.apply_updates` detects this and raises
:class:`~repro.exceptions.ConfigError` naming the offending edge — the
remedy is a re-plan (``repro.cli shard-fit``, ideally with
``--partitioner edge-cut``), not a silent wrong routing.

**Edge-cut plans with k-hop halos.** A realistic MovieLens-shaped graph
has one giant component, so component sharding degenerates to a single
shard. :meth:`ShardPlan.build_edge_cut` splits components by a greedy
balanced edge-cut (seeded BFS growth + boundary vertex moves minimising
cut nnz under an LPT-style balance constraint) and attaches to each shard
the **k-hop halo** of ghost users/items around its owned nodes. Each
shard's dataset keeps the ghost rows and tracks the rating mass of edges
severed at the halo boundary as a *degree deficit*
(:meth:`~repro.data.RatingDataset.subset` with
``track_cut_degrees=True``), so the shard's walk operator divides by
global degrees and boundary rows absorb leaked mass exactly instead of
renormalising it — the τ-truncated walk then matches the unsharded solve
bit-for-bit wherever the halo saturates the walk's reach, and is a
one-sided bounded-error underestimate otherwise (DESIGN.md §12). Events
whose endpoints are co-located in at least one shard apply exactly (the
frozen deficit stays correct); updates that only some replicas see leave
those ghost copies stale, surfaced via ``FleetUpdateReport.hint``.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.sparse.csgraph import breadth_first_order

from repro.core.base import Recommendation, Recommender
from repro.data.dataset import RatingDataset
from repro.exceptions import (
    ArtifactError,
    ConfigError,
    DataError,
    UnknownItemError,
    UnknownUserError,
)
from repro.graph.bipartite import UserItemGraph
from repro.service.engine import ServingEngine, UpdateReport
from repro.service.router import (
    EDGE_CUT_HINT,
    FleetReport,
    FleetUpdateReport,
    ShardRouter,
)
from repro.utils.atomic import atomic_savez
from repro.utils.validation import (
    check_in_options,
    check_non_negative_int,
    check_positive_int,
)

__all__ = [
    "SHARD_PLAN_FORMAT_VERSION",
    "PARTITIONERS",
    "EDGE_CUT_HINT",
    "ShardPlan",
    "FleetReport",
    "FleetUpdateReport",
    "ShardedEngine",
    "validate_shard_events",
]

#: On-disk format version of saved shard plans; bump on any layout change.
#: A plan whose version is absent or different raises
#: :class:`~repro.exceptions.ArtifactError` — routing traffic through a
#: stale partition must fail loudly, never silently. Version 2 added the
#: edge-cut partitioner's halo metadata (ghost users/items per shard,
#: ``halo_hops``, ``partitioner``); version-1 files predate halos and are
#: rejected rather than silently served without ghost translation.
SHARD_PLAN_FORMAT_VERSION = 2

_PLAN_FILENAME = "plan.npz"

#: The partition strategies a plan can carry.
PARTITIONERS = ("component", "edge-cut")

def _shard_artifact_name(shard: int) -> str:
    return f"shard-{shard:03d}.npz"


def _load_directory_plan(path: str) -> "ShardPlan":
    """The plan of a sharded-artifact directory (``plan.npz``)."""
    plan_path = os.path.join(path, _PLAN_FILENAME)
    if not os.path.exists(plan_path):
        raise ArtifactError(
            f"{path!r} is not a sharded-artifact directory "
            f"(no {_PLAN_FILENAME})"
        )
    return ShardPlan.load(plan_path)


def validate_shard_events(dataset: RatingDataset, events,
                          policy: str) -> None:
    """Validate one shard's event slice against its dataset, mutating nothing.

    The shared pre-pass both fleet tiers run before any shard absorbs a
    batch (see :meth:`ShardedEngine.apply_updates`): rating values checked
    against the dataset's scale via
    :meth:`~repro.data.RatingDataset.check_event_rating`, and under
    ``policy == "error"`` duplicate pairs — within the batch or against
    already-stored ratings — rejected with the same
    :class:`~repro.exceptions.DataError` shapes :meth:`RatingDataset.extend`
    would raise. The multi-process fleet additionally runs it worker-side
    before a batch enters the write-ahead log, so the WAL only ever holds
    batches that are guaranteed to replay cleanly.
    """
    seen: set = set()
    for user_label, item_label, rating in events:
        dataset.check_event_rating(user_label, item_label, rating)
        if policy != "error":
            continue
        pair = (user_label, item_label)
        if pair in seen:
            raise DataError(
                f"duplicate event for (user={user_label!r}, "
                f"item={item_label!r}); pass duplicates='last' to keep "
                "the latest value"
            )
        seen.add(pair)
        try:
            already = dataset.rating(dataset.user_id(user_label),
                                     dataset.item_id(item_label)) != 0
        except (UnknownUserError, UnknownItemError):
            already = False
        if already:
            raise DataError(
                f"(user={user_label!r}, item={item_label!r}) is already "
                "rated; pass duplicates='last' to overwrite"
            )


def _concat_ragged(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pack a list of int arrays as (values, offsets) for npz storage."""
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([a.size for a in arrays])
    values = (np.concatenate(arrays).astype(np.int64) if offsets[-1]
              else np.empty(0, dtype=np.int64))
    return values, offsets


def _split_ragged(values: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    """Inverse of :func:`_concat_ragged`."""
    values = np.asarray(values, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    return [values[offsets[i]:offsets[i + 1]].copy()
            for i in range(offsets.size - 1)]


def _lpt_order(weights: np.ndarray) -> np.ndarray:
    """Deterministic LPT processing order: descending weight, ties by label.

    ``np.lexsort`` sorts by its *last* key first, so this is primary
    descending weight with an explicit ascending-index secondary key —
    weight ties always resolve to the lower component label, making plan
    construction byte-reproducible across runs and platforms (regression
    pinned in the test suite).
    """
    weights = np.asarray(weights)
    return np.lexsort((np.arange(weights.size), -weights))


def _split_component(graph: UserItemGraph, comp_nodes: np.ndarray,
                     count: int, refine_passes: int) -> list[np.ndarray]:
    """Split one connected component into ``count`` balanced node parts.

    Seeded BFS growth: breadth-first order from the component's
    highest-degree node (ties to the lowest index), sliced where the
    cumulative degree mass crosses each balanced boundary — contiguous BFS
    slices keep most edges internal. A fix-up guarantees every part owns at
    least one user and one item, then ``refine_passes`` greedy sweeps move
    boundary vertices to the neighboring part holding the strict majority
    of their edge weight (reducing cut nnz) whenever the move respects the
    LPT-style balance cap and the bipartite floor. Fully deterministic.
    """
    adjacency = graph.adjacency
    degrees = graph.degrees
    n_users = graph.n_users
    local = np.lexsort((np.arange(comp_nodes.size), -degrees[comp_nodes]))
    seed = int(comp_nodes[local[0]])
    order = np.asarray(
        breadth_first_order(adjacency, seed, directed=False,
                            return_predecessors=False),
        dtype=np.int64,
    )
    if order.size != comp_nodes.size:
        raise ConfigError(
            "BFS did not cover the component; graph labels are inconsistent"
        )
    weights = degrees[order]
    cum = np.cumsum(weights)
    total = float(cum[-1])
    split_at: list[int] = []
    prev = 0
    for j in range(1, count):
        position = int(np.searchsorted(cum, total * j / count))
        position = max(position, prev + 1)
        position = min(position, order.size - (count - j))
        split_at.append(position)
        prev = position
    part_of = np.full(graph.n_nodes, -1, dtype=np.int64)
    for j, piece in enumerate(np.split(order, split_at)):
        part_of[piece] = j

    part_weight = np.bincount(part_of[order], weights=weights,
                              minlength=count)
    user_nodes = order[order < n_users]
    item_nodes = order[order >= n_users]
    part_users = np.bincount(part_of[user_nodes], minlength=count)
    part_items = np.bincount(part_of[item_nodes], minlength=count)

    def rebalance_kind(kind_nodes: np.ndarray, kind_counts: np.ndarray) -> None:
        # Give every part at least one node of this kind, stealing the
        # BFS-latest such node from the richest part (ties to lower id).
        while True:
            starved = np.flatnonzero(kind_counts == 0)
            if starved.size == 0:
                return
            donor = int(np.argmax(kind_counts))
            taken = kind_nodes[part_of[kind_nodes] == donor][-1]
            receiver = int(starved[0])
            part_weight[donor] -= degrees[taken]
            part_weight[receiver] += degrees[taken]
            kind_counts[donor] -= 1
            kind_counts[receiver] += 1
            part_of[taken] = receiver

    rebalance_kind(user_nodes, part_users)
    rebalance_kind(item_nodes, part_items)

    cap = 1.2 * total / count  # LPT-style balance: ≤120% of the fair share
    for _ in range(refine_passes):
        moved = 0
        for node in order:
            node = int(node)
            current = int(part_of[node])
            start, end = adjacency.indptr[node], adjacency.indptr[node + 1]
            neighbor_parts = part_of[adjacency.indices[start:end]]
            inside = neighbor_parts >= 0
            gains = np.bincount(neighbor_parts[inside],
                                weights=adjacency.data[start:end][inside],
                                minlength=count)
            best = int(np.argmax(gains))  # ties resolve to the lower part id
            if best == current or gains[best] <= gains[current]:
                continue
            weight = float(degrees[node])
            if part_weight[best] + weight > cap:
                continue
            if node < n_users:
                if part_users[current] <= 1:
                    continue
                part_users[current] -= 1
                part_users[best] += 1
            else:
                if part_items[current] <= 1:
                    continue
                part_items[current] -= 1
                part_items[best] += 1
            part_of[node] = best
            part_weight[current] -= weight
            part_weight[best] += weight
            moved += 1
        if not moved:
            break
    return [order[part_of[order] == j] for j in range(count)]


def _khop_ghosts(graph: UserItemGraph, node_shard: np.ndarray,
                 n_shards: int, hops: int) -> tuple[list, list]:
    """Per-shard k-hop ghost users/items around the owned node sets.

    Grown by sparse boolean mat-vec over the full adjacency (O(nnz) per
    hop per shard); stops early when a halo saturates its components —
    which is exactly when the shard's solves become bit-identical to the
    unsharded ones (no edges left to cut).
    """
    adjacency = graph.adjacency
    ghost_users: list[np.ndarray] = []
    ghost_items: list[np.ndarray] = []
    for shard in range(n_shards):
        owned = node_shard == shard
        mask = owned.copy()
        for _ in range(hops):
            grown = mask | ((adjacency @ mask.astype(np.float64)) > 0)
            if np.array_equal(grown, mask):
                break
            mask = grown
        ghosts = np.flatnonzero(mask & ~owned)
        ghost_users.append(ghosts[ghosts < graph.n_users])
        ghost_items.append(ghosts[ghosts >= graph.n_users] - graph.n_users)
    return ghost_users, ghost_items


class ShardPlan:
    """A partition of a dataset's users and items into serving shards.

    Parameters
    ----------
    user_shard, item_shard:
        Shard id per global user / item index. Every shard must own at
        least one user and one item (a shard dataset must be non-empty).
    n_shards:
        Total shard count; defaults to ``max(shard ids) + 1``.
    ghost_users, ghost_items:
        Optional halo metadata (one global-index array per shard): the
        k-hop ghost nodes each shard keeps *in addition to* its owned
        nodes so walk sweeps stay local. Requires ``halo_hops``.
    halo_hops:
        The halo radius ``k`` the ghosts were computed with (``None`` for
        component plans — no ghosts, no cut edges).
    partitioner:
        ``"component"`` (components atomic, :meth:`build`) or
        ``"edge-cut"`` (components splittable, :meth:`build_edge_cut`).

    Use :meth:`build` to derive a balanced, component-closed plan from a
    dataset, or :meth:`build_edge_cut` for a halo-carrying edge-cut plan;
    hand-written plans are validated for shape here and for edge-cuts in
    :meth:`shard_dataset`.

    Local indexing convention: within a shard, owned users (and items)
    come first, ordered by ascending *global* index — so a one-shard plan
    is the identity mapping, the property the score-parity tests pin down
    — and ghost nodes are appended after them, also ascending.
    """

    def __init__(self, user_shard, item_shard, n_shards: int | None = None,
                 ghost_users: list | None = None,
                 ghost_items: list | None = None,
                 halo_hops: int | None = None,
                 partitioner: str = "component"):
        user_shard = np.asarray(user_shard, dtype=np.int64)
        item_shard = np.asarray(item_shard, dtype=np.int64)
        if user_shard.ndim != 1 or item_shard.ndim != 1:
            raise ConfigError("user_shard and item_shard must be 1-D arrays")
        if user_shard.size == 0 or item_shard.size == 0:
            raise ConfigError("a shard plan needs at least one user and one item")
        if user_shard.min() < 0 or item_shard.min() < 0:
            raise ConfigError("shard ids must be non-negative")
        top = int(max(user_shard.max(), item_shard.max()))
        if n_shards is None:
            n_shards = top + 1
        n_shards = check_positive_int(n_shards, "n_shards")
        if top >= n_shards:
            raise ConfigError(
                f"shard id {top} out of range for n_shards={n_shards}"
            )
        user_counts = np.bincount(user_shard, minlength=n_shards)
        item_counts = np.bincount(item_shard, minlength=n_shards)
        empty = np.flatnonzero((user_counts == 0) | (item_counts == 0))
        if empty.size:
            raise ConfigError(
                f"shard(s) {empty.tolist()} own no users or no items; every "
                "shard must be a servable dataset"
            )
        self.user_shard = user_shard
        self.item_shard = item_shard
        self.n_shards = int(n_shards)
        self._shard_users = [np.flatnonzero(user_shard == s)
                             for s in range(n_shards)]
        self._shard_items = [np.flatnonzero(item_shard == s)
                             for s in range(n_shards)]
        self.user_local = np.empty(user_shard.size, dtype=np.int64)
        self.item_local = np.empty(item_shard.size, dtype=np.int64)
        for members in self._shard_users:
            self.user_local[members] = np.arange(members.size)
        for members in self._shard_items:
            self.item_local[members] = np.arange(members.size)
        self.partitioner = check_in_options(
            partitioner, "partitioner", PARTITIONERS
        )
        if halo_hops is None:
            if ghost_users or ghost_items:
                raise ConfigError("ghost arrays require halo_hops")
            self.halo_hops: int | None = None
            self._ghost_users = [np.empty(0, dtype=np.int64)
                                 for _ in range(self.n_shards)]
            self._ghost_items = [np.empty(0, dtype=np.int64)
                                 for _ in range(self.n_shards)]
        else:
            self.halo_hops = check_positive_int(halo_hops, "halo_hops")
            self._ghost_users = self._check_ghosts(
                ghost_users, self._shard_users, self.user_shard, "user"
            )
            self._ghost_items = self._check_ghosts(
                ghost_items, self._shard_items, self.item_shard, "item"
            )

    def _check_ghosts(self, ghosts, owned, shard_of, axis: str) -> list:
        if ghosts is None:
            ghosts = [np.empty(0, dtype=np.int64)] * self.n_shards
        ghosts = [np.asarray(g, dtype=np.int64).ravel() for g in ghosts]
        if len(ghosts) != self.n_shards:
            raise ConfigError(
                f"ghost_{axis}s has {len(ghosts)} entries for "
                f"{self.n_shards} shards"
            )
        checked = []
        for shard, members in enumerate(ghosts):
            members = np.unique(members)  # ascending, deduplicated
            if members.size and (members[0] < 0
                                 or members[-1] >= shard_of.size):
                raise ConfigError(f"shard {shard} ghost {axis}s out of range")
            if members.size and np.any(shard_of[members] == shard):
                raise ConfigError(
                    f"shard {shard} lists owned {axis}s as ghosts"
                )
            checked.append(members)
        return checked

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, dataset: RatingDataset, n_shards: int,
              graph: UserItemGraph | None = None) -> "ShardPlan":
        """Partition ``dataset`` into ``n_shards`` balanced shards.

        Connected components are the atomic units (a walk never crosses
        one, so splitting a component would change scores); they are
        bin-packed greedily by descending rating count onto the
        least-loaded shard — the classic LPT heuristic, within 4/3 of the
        optimal makespan. Components without any rating (isolated users or
        items) carry no solve cost, so they balance on *node* count
        instead — otherwise they would all pile onto whichever shard holds
        the fewest ratings. Requires at least ``n_shards`` components with
        ratings; fewer means the graph cannot be cut without changing
        scores, and the plan refuses.
        """
        if not isinstance(dataset, RatingDataset):
            raise ConfigError(
                f"ShardPlan.build expects a RatingDataset; "
                f"got {type(dataset).__name__}"
            )
        n_shards = check_positive_int(n_shards, "n_shards")
        if graph is None:
            graph = UserItemGraph(dataset)
        elif graph.dataset is not dataset:
            raise ConfigError("graph was built over a different dataset")
        labels = graph.component_labels()
        nnz = graph.component_nnz()
        n_rated = int((nnz > 0).sum())
        if n_shards > n_rated:
            raise ConfigError(
                f"cannot build {n_shards} shards: the graph has only "
                f"{n_rated} connected component(s) with ratings, and a "
                "component cannot be split without changing walk scores"
            )
        present = np.zeros(nnz.size, dtype=bool)
        present[labels] = True
        sizes = np.bincount(labels, minlength=nnz.size)
        order = _lpt_order(nnz)  # desc nnz, ties broken by ascending label
        loads = np.zeros(n_shards, dtype=np.int64)
        node_loads = np.zeros(n_shards, dtype=np.int64)
        component_shard = np.full(nnz.size, -1, dtype=np.int64)
        for component in order:
            if not present[component]:
                continue
            if nnz[component] > 0:
                shard = int(np.argmin(loads))
            else:
                shard = int(np.argmin(node_loads))
            component_shard[component] = shard
            loads[shard] += int(nnz[component])
            node_loads[shard] += int(sizes[component])
        return cls(
            component_shard[labels[:dataset.n_users]],
            component_shard[labels[dataset.n_users:]],
            n_shards=n_shards,
        )

    @classmethod
    def build_edge_cut(cls, dataset: RatingDataset, n_shards: int,
                       halo_hops: int = 2,
                       graph: UserItemGraph | None = None,
                       refine_passes: int = 2) -> "ShardPlan":
        """Partition ``dataset`` into ``n_shards`` by a greedy edge-cut.

        Unlike :meth:`build`, connected components are *splittable*: a
        component too big for one shard is divided by seeded BFS growth
        (hub-seeded breadth-first order sliced at balanced degree-mass
        boundaries) followed by ``refine_passes`` sweeps of greedy boundary
        vertex moves that reduce cut nnz while an LPT-style balance
        constraint holds. Shard parts are then LPT bin-packed exactly like
        :meth:`build`. The returned plan carries, per shard, the
        ``halo_hops``-hop **ghost** users/items around its owned nodes —
        the extra rows :meth:`shard_dataset` keeps (with cut-edge degree
        deficits) so each shard's τ-truncated walk solves are exact where
        the halo saturates the walk's reach and a one-sided bounded-error
        underestimate otherwise (DESIGN.md §12). ``halo_hops >= 1``
        guarantees every owned user's full rating row stays in its shard,
        which keeps absorbing sets and ``exclude_rated`` exact.

        A one-shard edge-cut plan owns everything, has no ghosts, and is
        the identity mapping — bit-identical to unsharded serving.
        """
        if not isinstance(dataset, RatingDataset):
            raise ConfigError(
                f"ShardPlan.build_edge_cut expects a RatingDataset; "
                f"got {type(dataset).__name__}"
            )
        n_shards = check_positive_int(n_shards, "n_shards")
        halo_hops = check_positive_int(halo_hops, "halo_hops")
        refine_passes = check_non_negative_int(refine_passes, "refine_passes")
        if graph is None:
            graph = UserItemGraph(dataset)
        elif graph.dataset is not dataset:
            raise ConfigError("graph was built over a different dataset")
        labels = graph.component_labels()
        nnz = graph.component_nnz()
        present = np.zeros(nnz.size, dtype=bool)
        present[labels] = True
        sizes = np.bincount(labels, minlength=nnz.size)
        user_counts = np.bincount(labels[:dataset.n_users], minlength=nnz.size)
        item_counts = np.bincount(labels[dataset.n_users:], minlength=nnz.size)
        rated = np.flatnonzero(present & (nnz > 0))
        if rated.size == 0:
            raise ConfigError("dataset has no rated components to shard")

        # How many parts each rated component contributes. Every component
        # starts atomic; when there are fewer components than shards the
        # remaining parts go one at a time to the component with the
        # largest nnz-per-part quotient (highest-averages apportionment —
        # deterministic, ties to the lower label), capped by how many
        # user+item-bearing parts the component can actually yield.
        parts_of = {int(c): 1 for c in rated}
        caps = {int(c): max(1, min(int(user_counts[c]), int(item_counts[c])))
                for c in rated}
        extra = n_shards - rated.size
        while extra > 0:
            candidates = [c for c in parts_of if parts_of[c] < caps[c]]
            if not candidates:
                raise ConfigError(
                    f"cannot build {n_shards} shards: the graph's rated "
                    "components only support "
                    f"{sum(caps.values())} user+item-bearing parts"
                )
            best = max(candidates,
                       key=lambda c: (nnz[c] / parts_of[c], -c))
            parts_of[best] += 1
            extra -= 1

        node_shard = np.full(graph.n_nodes, -1, dtype=np.int64)
        part_nodes: list[np.ndarray] = []
        part_weights: list[int] = []
        for component in rated:
            comp_nodes = np.flatnonzero(labels == component)
            count = parts_of[int(component)]
            if count == 1:
                pieces = [comp_nodes]
            else:
                pieces = _split_component(graph, comp_nodes, count,
                                          refine_passes)
            for piece in pieces:
                part_nodes.append(piece)
                part_weights.append(int(graph.degrees[piece].sum()))

        # LPT-pack the parts onto shards (identical policy to `build`).
        loads = np.zeros(n_shards, dtype=np.int64)
        node_loads = np.zeros(n_shards, dtype=np.int64)
        for index in _lpt_order(np.asarray(part_weights)):
            shard = int(np.argmin(loads))
            nodes = part_nodes[index]
            node_shard[nodes] = shard
            loads[shard] += part_weights[index]
            node_loads[shard] += nodes.size
        # Zero-nnz components (isolated nodes) carry no solve cost or cut
        # edges; spread them by node count, as in `build`.
        for component in _lpt_order(sizes):
            if not present[component] or nnz[component] > 0:
                continue
            shard = int(np.argmin(node_loads))
            nodes = np.flatnonzero(labels == component)
            node_shard[nodes] = shard
            node_loads[shard] += nodes.size

        ghost_users, ghost_items = _khop_ghosts(
            graph, node_shard, n_shards, halo_hops
        )
        return cls(
            node_shard[:dataset.n_users],
            node_shard[dataset.n_users:],
            n_shards=n_shards,
            ghost_users=ghost_users,
            ghost_items=ghost_items,
            halo_hops=halo_hops,
            partitioner="edge-cut",
        )

    # -- shape ---------------------------------------------------------------

    @property
    def n_users(self) -> int:
        return self.user_shard.size

    @property
    def n_items(self) -> int:
        return self.item_shard.size

    @property
    def has_halos(self) -> bool:
        """Whether this is an edge-cut plan carrying ghost metadata."""
        return self.halo_hops is not None

    def users_of_shard(self, shard: int) -> np.ndarray:
        """Global user indices owned by ``shard``, ascending."""
        return self._shard_users[self._check_shard(shard)]

    def items_of_shard(self, shard: int) -> np.ndarray:
        """Global item indices owned by ``shard``, ascending."""
        return self._shard_items[self._check_shard(shard)]

    def ghost_users_of_shard(self, shard: int) -> np.ndarray:
        """Global user indices ``shard`` keeps as halo ghosts, ascending."""
        return self._ghost_users[self._check_shard(shard)]

    def ghost_items_of_shard(self, shard: int) -> np.ndarray:
        """Global item indices ``shard`` keeps as halo ghosts, ascending."""
        return self._ghost_items[self._check_shard(shard)]

    def shard_users(self, shard: int) -> np.ndarray:
        """Owned-then-ghost global user indices — the shard dataset's rows."""
        shard = self._check_shard(shard)
        return np.concatenate([self._shard_users[shard],
                               self._ghost_users[shard]])

    def shard_items(self, shard: int) -> np.ndarray:
        """Owned-then-ghost global item indices — the shard dataset's columns."""
        shard = self._check_shard(shard)
        return np.concatenate([self._shard_items[shard],
                               self._ghost_items[shard]])

    def _check_shard(self, shard: int) -> int:
        if isinstance(shard, bool) or not isinstance(shard, (int, np.integer)):
            raise ConfigError(f"shard must be an int; got {shard!r}")
        if not 0 <= shard < self.n_shards:
            raise ConfigError(
                f"shard {shard} out of range [0, {self.n_shards})"
            )
        return int(shard)

    # -- materialisation -----------------------------------------------------

    def shard_dataset(self, dataset: RatingDataset, shard: int) -> RatingDataset:
        """The sub-dataset ``shard`` serves, labels preserved.

        Component plans guard against edge cuts: every rating of a kept
        user must land in the shard (true by construction for
        :meth:`build` plans, violated by hand-written plans that split a
        component) — a cut rating would silently vanish from the shard's
        graph and change scores. The error names one offending edge.

        Edge-cut plans instead keep each shard's ghost rows/columns
        (owned first, ghosts appended, both ascending by global index) and
        *expect* cuts at the halo boundary: the subset tracks the severed
        rating mass as degree deficits, which the graph layer adds back
        into its degree vector so boundary transition rows absorb leaked
        walk mass exactly (DESIGN.md §12). Owned users must still keep
        every rated item inside the halo — guaranteed by
        ``halo_hops >= 1`` for built plans, checked here for hand-written
        ones (a truncated absorbing set would change ranking semantics,
        not just add bounded error).
        """
        shard = self._check_shard(shard)
        if dataset.n_users != self.n_users or dataset.n_items != self.n_items:
            raise ConfigError(
                f"plan covers {self.n_users} users × {self.n_items} items; "
                f"dataset has {dataset.n_users} × {dataset.n_items}"
            )
        owned_users = self._shard_users[shard]
        if self.has_halos:
            users = self.shard_users(shard)
            items = self.shard_items(shard)
            sub = dataset.subset(users=users, items=items,
                                 track_cut_degrees=True)
            deficit = sub.user_degree_deficit
            if deficit is not None and deficit[:owned_users.size].any():
                bad = int(np.flatnonzero(deficit[:owned_users.size])[0])
                raise ConfigError(
                    f"shard {shard} cuts rating(s) of owned user "
                    f"{dataset.user_labels[owned_users[bad]]!r}; a halo plan "
                    "must keep every owned user's rated items inside the "
                    "halo (use ShardPlan.build_edge_cut with halo_hops >= 1)"
                )
            return sub
        items = self._shard_items[shard]
        sub = dataset.subset(users=owned_users, items=items)
        expected = int(dataset.user_activity()[owned_users].sum())
        if sub.n_ratings != expected:
            user, item = self._find_cut_edge(dataset, shard)
            raise ConfigError(
                f"shard {shard} cuts {expected - sub.n_ratings} rating(s) "
                "across shard boundaries — e.g. user "
                f"{dataset.user_labels[user]!r} (shard {shard}) rated item "
                f"{dataset.item_labels[item]!r} "
                f"(shard {int(self.item_shard[item])}); a component plan "
                "must keep every user's rated items in the user's shard — "
                f"use ShardPlan.build, or {EDGE_CUT_HINT}"
            )
        return sub

    def _find_cut_edge(self, dataset: RatingDataset,
                       shard: int) -> tuple[int, int]:
        """First (user, item) rating this shard's cut severs (global ids)."""
        matrix = dataset.matrix
        for user in self._shard_users[shard]:
            row = matrix.indices[matrix.indptr[user]:matrix.indptr[user + 1]]
            outside = row[self.item_shard[row] != shard]
            if outside.size:
                return int(user), int(outside[0])
        raise ConfigError(f"shard {shard} has no cut edges")  # pragma: no cover

    def summary(self, dataset: RatingDataset | None = None) -> list[dict]:
        """One row per shard: sizes (+ rating balance when ``dataset`` given).

        Edge-cut plans add ghost counts and, with a dataset, the number of
        ratings the halo boundary cuts (the shard's bounded-error surface).
        """
        rows = []
        activity = dataset.user_activity() if dataset is not None else None
        for shard in range(self.n_shards):
            row = {
                "shard": shard,
                "users": int(self._shard_users[shard].size),
                "items": int(self._shard_items[shard].size),
            }
            if self.has_halos:
                row["ghost_users"] = int(self._ghost_users[shard].size)
                row["ghost_items"] = int(self._ghost_items[shard].size)
            if activity is not None:
                row["ratings"] = int(activity[self._shard_users[shard]].sum())
                if self.has_halos:
                    sub = dataset.subset(
                        users=self.shard_users(shard),
                        items=self.shard_items(shard),
                        track_cut_degrees=True,
                    )
                    halo_activity = int(
                        dataset.user_activity()[self.shard_users(shard)].sum()
                    )
                    row["halo_ratings"] = int(sub.n_ratings) - row["ratings"]
                    row["cut_ratings"] = halo_activity - int(sub.n_ratings)
            rows.append(row)
        return rows

    # -- persistence ---------------------------------------------------------

    @staticmethod
    def _npz_path(path: str) -> str:
        return path if str(path).endswith(".npz") else f"{path}.npz"

    def save(self, path: str) -> str:
        """Persist the plan as a versioned ``.npz``; returns the path written.

        Format version 2: the component fields of version 1 plus the halo
        metadata — ``partitioner`` (index into :data:`PARTITIONERS`),
        ``halo_hops`` (``-1`` for component plans) and the per-shard ghost
        arrays packed as concatenated values + offsets.
        """
        path = self._npz_path(path)
        ghost_user_values, ghost_user_offsets = _concat_ragged(self._ghost_users)
        ghost_item_values, ghost_item_offsets = _concat_ragged(self._ghost_items)
        # Atomic (temp + os.replace): a fleet supervisor boots from this
        # file, and a crash mid-save must leave the previous plan intact.
        atomic_savez(path, {
            "format_version": np.array(SHARD_PLAN_FORMAT_VERSION,
                                       dtype=np.int64),
            "n_shards": np.array(self.n_shards, dtype=np.int64),
            "user_shard": self.user_shard,
            "item_shard": self.item_shard,
            "partitioner": np.array(PARTITIONERS.index(self.partitioner),
                                    dtype=np.int64),
            "halo_hops": np.array(
                -1 if self.halo_hops is None else self.halo_hops,
                dtype=np.int64,
            ),
            "ghost_user_values": ghost_user_values,
            "ghost_user_offsets": ghost_user_offsets,
            "ghost_item_values": ghost_item_values,
            "ghost_item_offsets": ghost_item_offsets,
        }, compressed=True)
        return path

    @classmethod
    def load(cls, path: str) -> "ShardPlan":
        """Reload a plan written by :meth:`save` (strict format versioning).

        Version-1 plans (pre-halo) are rejected with
        :class:`~repro.exceptions.ArtifactError`: halo-aware code paths
        must never route through a plan that cannot say which nodes are
        ghosts — rebuild the plan instead.
        """
        try:
            archive = np.load(cls._npz_path(path), allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise ArtifactError(f"cannot read shard plan {path!r}: {exc}") from None
        with archive:
            if "format_version" not in archive.files:
                raise ArtifactError(
                    f"{path!r} has no shard-plan format version; rebuild it "
                    "with ShardPlan.build"
                )
            version = int(archive["format_version"])
            if version != SHARD_PLAN_FORMAT_VERSION:
                raise ArtifactError(
                    f"{path!r} has shard-plan format version {version}; this "
                    f"build reads {SHARD_PLAN_FORMAT_VERSION} — rebuild the plan"
                )
            halo_hops = int(archive["halo_hops"])
            partitioner = PARTITIONERS[int(archive["partitioner"])]
            if halo_hops < 0:
                return cls(archive["user_shard"], archive["item_shard"],
                           n_shards=int(archive["n_shards"]),
                           partitioner=partitioner)
            return cls(
                archive["user_shard"], archive["item_shard"],
                n_shards=int(archive["n_shards"]),
                ghost_users=_split_ragged(archive["ghost_user_values"],
                                          archive["ghost_user_offsets"]),
                ghost_items=_split_ragged(archive["ghost_item_values"],
                                          archive["ghost_item_offsets"]),
                halo_hops=halo_hops,
                partitioner=partitioner,
            )

    def __repr__(self) -> str:
        halo = f", halo_hops={self.halo_hops}" if self.has_halos else ""
        return (
            f"ShardPlan(n_shards={self.n_shards}, n_users={self.n_users}, "
            f"n_items={self.n_items}, partitioner={self.partitioner!r}{halo})"
        )


class ShardedEngine(ShardRouter):
    """A fleet of per-shard :class:`ServingEngine`\\ s behind one front.

    The in-process transport of :class:`~repro.service.router.ShardRouter`:
    the public surface mirrors the single engine — ``recommend`` /
    ``recommend_many`` / ``serve_cohort`` / ``apply_updates`` / ``warm`` /
    ``stats`` — and every request is routed to the shard that owns the
    user (or, for update events, the event's labels) and answered there
    by a direct call into that shard's engine. Routing, the global index
    space and the fleet row cache are the router's.

    Parameters
    ----------
    plan:
        The :class:`ShardPlan` the engines were fitted from.
    engines:
        One fitted :class:`ServingEngine` per shard, aligned with the
        plan's shard ids. Engines whose datasets have grown beyond the
        plan (updated artifacts) are absorbed: the extra labels join the
        global index space.
    result_cache_size:
        Bound on the fleet row cache (entries are per-user ranked lists,
        LRU-evicted beyond it); ``0`` disables it and every cohort request
        goes through its shard engine (whose own caches still apply).

    Build with :meth:`fit` (plan → per-shard fit) or
    :meth:`from_directory` (per-shard artifacts written by :meth:`save` or
    ``repro.cli shard-fit``).
    """

    def __init__(self, plan: ShardPlan, engines,
                 result_cache_size: int = 65536):
        engines = list(engines)
        if not isinstance(plan, ShardPlan):
            raise ConfigError(
                f"ShardedEngine requires a ShardPlan; got {type(plan).__name__}"
            )
        if len(engines) != plan.n_shards:
            raise ConfigError(
                f"plan has {plan.n_shards} shards; got {len(engines)} engines"
            )
        for shard, engine in enumerate(engines):
            if not isinstance(engine, ServingEngine):
                raise ConfigError(
                    f"engine {shard} is {type(engine).__name__}; "
                    "expected ServingEngine"
                )
        super().__init__(plan, result_cache_size)
        self.engines = engines
        self._build_routing()

    # -- construction --------------------------------------------------------

    @classmethod
    def fit(cls, dataset: RatingDataset, recommender_factory,
            n_shards: int | None = None, plan: ShardPlan | None = None,
            **engine_kwargs) -> "ShardedEngine":
        """Plan (unless given), fit one recommender per shard, wrap engines.

        ``recommender_factory`` is a zero-argument callable returning a
        fresh unfitted :class:`~repro.core.base.Recommender` (each shard
        gets its own instance); ``engine_kwargs`` are forwarded to every
        per-shard :class:`ServingEngine` (cache sizes, update policy).
        """
        if plan is None:
            if n_shards is None:
                raise ConfigError("ShardedEngine.fit needs n_shards or a plan")
            plan = ShardPlan.build(dataset, n_shards)
        engines = []
        for shard in range(plan.n_shards):
            recommender = recommender_factory()
            if not isinstance(recommender, Recommender):
                raise ConfigError(
                    "recommender_factory must return a Recommender; got "
                    f"{type(recommender).__name__}"
                )
            recommender.fit(plan.shard_dataset(dataset, shard))
            engines.append(ServingEngine(recommender, **engine_kwargs))
        return cls(plan, engines)

    @classmethod
    def from_directory(cls, path: str, **engine_kwargs) -> "ShardedEngine":
        """Boot a fleet from a directory written by :meth:`save`.

        Expects ``plan.npz`` plus one ``shard-NNN.npz`` model artifact per
        shard (loaded through :func:`repro.core.artifacts.load_artifact`
        via :meth:`ServingEngine.from_artifact` — no refitting).
        ``engine_kwargs`` reach every shard's
        :meth:`ServingEngine.from_artifact`; pass ``mmap=True`` to
        memory-map all shard artifacts instead of materialising them.
        """
        plan = _load_directory_plan(path)
        engines = [
            ServingEngine.from_artifact(
                os.path.join(path, _shard_artifact_name(shard)), **engine_kwargs
            )
            for shard in range(plan.n_shards)
        ]
        return cls(plan, engines)

    def save(self, path: str) -> str:
        """Write ``plan.npz`` + per-shard model artifacts into ``path``.

        Reload with :meth:`from_directory`. Saving after updates persists
        the grown shard datasets; on reload, post-update users/items rejoin
        the global index space in shard order (their *labels* — the stable
        identity — are unchanged).
        """
        os.makedirs(path, exist_ok=True)
        self.plan.save(os.path.join(path, _PLAN_FILENAME))
        for shard, engine in enumerate(self.engines):
            engine.recommender.save(
                os.path.join(path, _shard_artifact_name(shard))
            )
        return path

    # -- transport hooks -----------------------------------------------------

    def _shard_labels_locked(self, shard: int) -> tuple:
        # Datasets are immutable and swapped whole, so this is a snapshot.
        dataset = self.engines[shard].dataset
        return dataset.user_labels, dataset.item_labels

    def _shard_version_locked(self, shard: int) -> int:
        return self.engines[shard].model_version

    def _shard_loads(self) -> list:
        return [engine.dataset.n_ratings for engine in self.engines]

    def _recommend_shard(self, shard, users, k, exclude_rated, excludes):
        ranked_lists = self.engines[shard].recommend_many(
            users, k=k, exclude_rated=exclude_rated, excludes=excludes)
        return [[(r.item, r.label, r.score) for r in ranked]
                for ranked in ranked_lists]

    def _invalidate_shard(self, shard, user):
        return self.engines[shard].invalidate_user(user)

    def _serve_shard(self, shard, users, k, batch_size, exclude_rated):
        report, _, items, scores = self.engines[shard]._serve_cohort_arrays(
            users, k=k, batch_size=batch_size, exclude_rated=exclude_rated)
        return report, items, scores

    def _validate_shard(self, shard, events, duplicates) -> None:
        engine = self.engines[shard]
        validate_shard_events(engine.dataset, events,
                              duplicates or engine.update_duplicates)

    def _apply_shard(self, shard, events, duplicates) -> UpdateReport:
        update = self.engines[shard].apply_updates(events,
                                                   duplicates=duplicates)
        self._absorb_labels(shard)
        return update

    # -- serving -------------------------------------------------------------

    def recommend_many(self, users, k: int = 10, exclude_rated: bool = True,
                       excludes=None) -> list[list[Recommendation]]:
        """A batch of independent single-user requests, routed per shard.

        The fleet-side half of the micro-batching hook: requests are
        grouped by owning shard, each shard answers its slice through
        :meth:`ServingEngine.recommend_many` (one coalesced solve per
        depth group), and item indices are remapped shard-local → global.
        Exclusions are translated exactly as :meth:`recommend` translates
        them, so responses are bit-identical to calling :meth:`recommend`
        once per request.
        """
        return self._recommend_many(users, k, exclude_rated, excludes)

    # -- incremental updates --------------------------------------------------

    def apply_updates(self, events, duplicates: str | None = None,
                      ) -> FleetUpdateReport:
        """Route ``(user_label, item_label, rating)`` events to their shards.

        Component plans route each connected label group of the batch to
        the one shard its known labels live in (new groups to the
        least-loaded shard) and reject a group spanning two shards; halo
        plans fan each event out to every shard holding both endpoints
        (see :class:`~repro.service.router.ShardRouter`). The whole batch
        is validated before any shard mutates; each touched shard then
        absorbs its slice through :meth:`ServingEngine.apply_updates`.
        """
        return self._apply_updates(events, duplicates)

    # -- lifecycle / introspection -------------------------------------------

    def clear_caches(self) -> None:
        """Drop the fleet row cache and both cache layers on every shard."""
        self._clear_rows()
        for engine in self.engines:
            engine.clear_caches()

    def health(self) -> dict:
        """Per-shard health, in the shape the HTTP ``/health`` probe serves.

        In-process shards share the front's fate — they cannot be
        individually down — so the status is always ``"ok"``; the
        multi-process :class:`~repro.service.fleet.ProcessShardFleet`
        implements the same hook with real up/down/restart state, and
        :class:`~repro.service.server.HttpFrontend` answers 503 whenever
        the hook reports anything but ``"ok"``.
        """
        return {
            "status": "ok",
            "shards": [
                {"shard": shard, "state": "up",
                 "model_version": engine.model_version}
                for shard, engine in enumerate(self.engines)
            ],
        }

    def stats(self) -> dict:
        """Fleet shape and row-cache counters plus each shard's own stats."""
        fleet = self._router_stats()
        fleet["shards"] = [engine.stats() for engine in self.engines]
        return fleet

    def __repr__(self) -> str:
        return (
            f"ShardedEngine(n_shards={self.n_shards}, n_users={self.n_users}, "
            f"n_items={self.n_items})"
        )
