"""The common recommender interface.

Every algorithm in this library — the paper's four graph recommenders and
all baselines — implements :class:`Recommender`:

* :meth:`Recommender.fit` ingests a :class:`~repro.data.RatingDataset`;
* :meth:`Recommender.score_items` returns a score per item for a user, where
  **higher is better** (time/cost-ranked algorithms negate internally) and
  ``-inf`` marks items the algorithm refuses to recommend (unreachable in the
  graph, outside the candidate subgraph, …);
* :meth:`Recommender.recommend` turns scores into a top-k list, excluding
  already-rated items by default;
* :meth:`Recommender.score_users` / :meth:`Recommender.recommend_batch` are
  the batch-serving counterparts: one ``(n_users, n_items)`` score matrix /
  one ranked list per user for a whole query cohort. A generic fallback
  stacks per-user scores; algorithms whose hot path vectorises (multi-RHS
  walk solves, factor-matrix products, …) override
  :meth:`Recommender._score_users_batch` to answer the cohort in one shot.
  :meth:`Recommender.recommend_batch_arrays` is the array-shaped variant
  (padded int item / float score matrices) that the serving layer builds
  rows and caches from without materialising per-item objects;
* :meth:`Recommender.state_dict` / :meth:`Recommender.load_state_dict` are
  the persistence contract: every fitted recommender round-trips through a
  plain dict of numpy arrays (and from there to a versioned ``.npz``
  artifact via :mod:`repro.core.artifacts`), enabling the offline-fit /
  online-serve split. Subclasses declare their fitted state through
  :meth:`Recommender.get_config` (constructor arguments, JSON-serializable)
  and :meth:`Recommender._state_arrays` / ``_load_state_arrays`` (fitted
  numpy/sparse arrays);
* :meth:`Recommender.partial_fit` is the incremental-update contract: absorb
  a :class:`~repro.data.dataset.DatasetDelta` of rating events (new users,
  new items, re-rates) *without* a full refit, bit-identical in scoring to a
  from-scratch fit on the merged dataset. Node-local algorithms override
  :meth:`Recommender._partial_fit` to refresh touched state only; globally
  coupled ones fall back to the (parity-trivial) refit default.

The uniform sign convention is what lets one evaluation harness (Recall@N,
popularity, diversity, similarity, efficiency) run every algorithm
unchanged.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import DatasetDelta, RatingDataset
from repro.exceptions import ArtifactError, ConfigError, NotFittedError
from repro.utils.topk import top_k_indices
from repro.utils.validation import (
    as_index_array,
    check_in_options,
    check_positive_int,
)

__all__ = ["Recommendation", "Recommender", "PartialFitReport"]


@dataclass(frozen=True)
class Recommendation:
    """One ranked recommendation: item index, its label, and the score."""

    item: int
    label: object
    score: float


@dataclass
class PartialFitReport:
    """Outcome of one :meth:`Recommender.partial_fit` call.

    Attributes
    ----------
    mode:
        ``"incremental"`` — derived state was refreshed for the touched
        nodes only — or ``"refit"`` — the algorithm fell back to a full fit
        on the merged dataset (globally coupled models: SVD factors, LDA
        topics, dense similarity matrices). Both modes satisfy the parity
        contract: scoring after ``partial_fit`` is bit-identical to a
        from-scratch fit on the merged dataset.
    n_events, n_new_users, n_new_items:
        Echo of the applied delta's shape.
    affected_users:
        Merged user indices whose scores may have changed, or ``None`` when
        every user is affected (the refit fallback, and incremental models
        with global score coupling such as popularity ranking). The serving
        engine evicts exactly these users from its result cache.
    touched_components:
        Component labels the update touched (graph-backed models only).
    seconds:
        Wall-clock of the update.
    """

    mode: str
    n_events: int
    n_new_users: int
    n_new_items: int
    affected_users: np.ndarray | None
    touched_components: tuple | None = None
    seconds: float = 0.0

    @property
    def n_affected_users(self) -> int | None:
        """Count of affected users, or ``None`` meaning "all"."""
        return None if self.affected_users is None else int(self.affected_users.size)

    def summary(self) -> dict:
        """One summary row for reporting."""
        return {
            "mode": self.mode,
            "events": self.n_events,
            "new_users": self.n_new_users,
            "new_items": self.n_new_items,
            "affected_users": ("all" if self.affected_users is None
                               else int(self.affected_users.size)),
            "seconds": round(self.seconds, 4),
        }


class Recommender(abc.ABC):
    """Abstract base class for all recommendation algorithms.

    Subclasses implement :meth:`_fit` (ingest the dataset, precompute
    models) and :meth:`_score_user` (score every item for one user).
    """

    #: Short name used in experiment tables ("HT", "AT", "AC2", "PureSVD", …).
    name: str = "recommender"

    def __init__(self):
        self.dataset: RatingDataset | None = None
        self._serving_dtype = "float64"

    # -- template methods ---------------------------------------------------

    @abc.abstractmethod
    def _fit(self, dataset: RatingDataset) -> None:
        """Algorithm-specific fitting; ``self.dataset`` is already set."""

    @abc.abstractmethod
    def _score_user(self, user: int) -> np.ndarray:
        """Scores for every item (length ``n_items``), higher = better."""

    def _score_users_batch(self, users: np.ndarray) -> np.ndarray:
        """Scores for every item for each user in ``users``.

        The generic fallback stacks :meth:`_score_user` row by row.
        Vectorised algorithms override this with an implementation whose
        row ``k`` agrees with scoring ``users[k]`` alone — bit-identical for
        the sparse solvers, to floating-point rounding for BLAS-backed
        products — and typically delegate :meth:`_score_user` back to a
        batch of one so the two paths share one code path. Implementations
        must return a fresh ``(len(users), n_items)`` float array — callers
        may mutate it.
        """
        dataset = self.dataset
        out = np.empty((users.size, dataset.n_items), dtype=np.float64)
        for row, user in enumerate(users):
            scores = np.asarray(self._score_user(int(user)), dtype=np.float64)
            if scores.shape != (dataset.n_items,):
                raise ConfigError(
                    f"{type(self).__name__}._score_user returned shape {scores.shape}; "
                    f"expected ({dataset.n_items},)"
                )
            out[row] = scores
        return out

    # -- persistence contract -----------------------------------------------

    def get_config(self) -> dict:
        """Constructor arguments recreating this instance (JSON-serializable).

        The artifact loader instantiates ``cls(**config)`` before restoring
        the fitted arrays, so everything a subclass's ``__init__`` validates
        must appear here. The default is an empty dict (no parameters).
        """
        return {}

    def _state_arrays(self) -> dict:
        """Fitted state as a flat ``name -> numpy array / scipy sparse`` dict.

        Subclasses override this together with :meth:`_load_state_arrays`;
        keys must be stable across versions (they become ``.npz`` member
        names). ``self.dataset`` is persisted by the base class and is *not*
        part of this dict.
        """
        return {}

    def _load_state_arrays(self, arrays: dict) -> None:
        """Restore the fitted state saved by :meth:`_state_arrays`.

        Called by :meth:`load_state_dict` after ``self.dataset`` has been
        restored; must leave the instance equivalent to a freshly fitted one
        without re-running any training.
        """
        if arrays:
            raise ArtifactError(
                f"{type(self).__name__} does not expect state arrays; "
                f"got {sorted(arrays)}"
            )

    def state_dict(self) -> dict:
        """The fitted state as a plain dict (the in-memory artifact).

        Layout: ``{"class", "config", "dataset", "arrays"}`` where
        ``dataset`` is :meth:`RatingDataset.to_arrays` output and ``arrays``
        is :meth:`_state_arrays` output. Use
        :func:`repro.core.artifacts.save_artifact` (or :meth:`save`) to
        write it as a versioned ``.npz``.
        """
        dataset = self._require_fitted()
        return {
            "class": type(self).__name__,
            "config": self.get_config(),
            "dataset": dataset.to_arrays(),
            "arrays": self._state_arrays(),
        }

    def load_state_dict(self, state: dict) -> "Recommender":
        """Restore a fitted state produced by :meth:`state_dict`.

        The receiving instance must be of the class that produced the state
        (construct it with the artifact's config first); returns ``self``,
        fitted and ready to serve — no training is re-run.
        """
        try:
            saved_class = state["class"]
            dataset_arrays = state["dataset"]
            arrays = state["arrays"]
        except (KeyError, TypeError):
            raise ArtifactError(
                "state dict must have 'class', 'dataset' and 'arrays' entries"
            ) from None
        if saved_class != type(self).__name__:
            raise ArtifactError(
                f"state dict was saved by {saved_class!r}; "
                f"cannot load into {type(self).__name__!r}"
            )
        # A state dict flagged "trusted" (set by the artifact loader for
        # memory-mapped loads of this library's own saves) skips dataset
        # re-validation — the scans would page the whole mapping in and
        # re-prove what save_artifact already proved.
        self.dataset = RatingDataset.from_arrays(
            dataset_arrays, validate=not state.get("trusted", False)
        )
        self._load_state_arrays(dict(arrays))
        return self

    def save(self, path: str) -> str:
        """Persist the fitted model as a versioned ``.npz`` artifact.

        Convenience wrapper for :func:`repro.core.artifacts.save_artifact`;
        reload with :func:`repro.core.artifacts.load_artifact`. Returns the
        path written (``.npz`` appended when missing).
        """
        from repro.core.artifacts import save_artifact

        return save_artifact(self, path)

    # -- dtype policy --------------------------------------------------------

    @property
    def serving_dtype(self) -> str:
        """The numeric policy of the scoring hot path.

        ``"float64"`` (default) is the reference precision; ``"float32"``
        halves the memory bandwidth of the solvers that honour it (the
        random-walk recommenders' prepared operators). Algorithms without a
        bandwidth-bound solve ignore the policy and always score in float64
        — the dtype-parity test suite asserts that switching the policy
        never changes a top-10 ranking for any registered recommender.
        """
        return getattr(self, "_serving_dtype", "float64")

    def set_serving_dtype(self, dtype: str) -> "Recommender":
        """Set the serving dtype policy; returns ``self`` for chaining."""
        self._serving_dtype = check_in_options(
            dtype, "dtype", ("float64", "float32")
        )
        return self

    def scoring_cache_stats(self) -> dict | None:
        """Warm-cache counters of the scoring layer, or ``None``.

        Algorithms that memoize request-independent structures (the walk
        recommenders' :class:`~repro.graph.cache.TransitionCache`) report
        their hit/miss counters here; the serving engine folds them into its
        reports. The default — no scoring-layer cache — is ``None``.
        """
        return None

    # -- public API --------------------------------------------------------

    def fit(self, dataset: RatingDataset) -> "Recommender":
        """Fit the recommender on a dataset and return ``self``."""
        if not isinstance(dataset, RatingDataset):
            raise ConfigError(
                f"fit expects a RatingDataset; got {type(dataset).__name__}"
            )
        self.dataset = dataset
        self._fit(dataset)
        return self

    def partial_fit(self, delta: DatasetDelta) -> PartialFitReport:
        """Absorb a batch of rating events without refitting from scratch.

        ``delta`` must come from :meth:`RatingDataset.extend` on **this**
        recommender's fitted dataset (base shape is validated). The parity
        contract — asserted for every registered recommender in
        ``tests/test_incremental_parity.py`` — is that scoring after
        ``partial_fit`` is *bit-identical* to a from-scratch ``fit`` on
        ``delta.dataset``. Algorithms with per-node derived state (the
        random-walk recommenders, graph baselines, popularity) override
        :meth:`_partial_fit` to refresh touched nodes only; the default
        falls back to a full refit on the merged dataset, which satisfies
        the contract trivially.
        """
        dataset = self._require_fitted()
        if not isinstance(delta, DatasetDelta):
            raise ConfigError(
                f"partial_fit expects a DatasetDelta; got {type(delta).__name__}"
            )
        if (delta.base_n_users, delta.base_n_items, delta.base_n_ratings) != (
                dataset.n_users, dataset.n_items, dataset.n_ratings):
            raise ConfigError(
                f"delta base ({delta.base_n_users} users, {delta.base_n_items} "
                f"items, {delta.base_n_ratings} ratings) does not match the "
                f"fitted dataset ({dataset.n_users} users, {dataset.n_items} "
                f"items, {dataset.n_ratings} ratings)"
            )
        start = time.perf_counter()
        report = self._partial_fit(delta)
        report.seconds = time.perf_counter() - start
        return report

    def _partial_fit(self, delta: DatasetDelta) -> PartialFitReport:
        """Algorithm-specific incremental update; default = full refit.

        Overrides must leave the instance bit-identical (for scoring) to a
        fresh ``fit(delta.dataset)`` and report which users' scores may
        have changed (``affected_users=None`` = all).
        """
        self.fit(delta.dataset)
        return PartialFitReport(
            mode="refit", n_events=delta.n_events,
            n_new_users=delta.n_new_users, n_new_items=delta.n_new_items,
            affected_users=None,
        )

    def clear_scoring_cache(self) -> None:
        """Drop any scoring-layer memo structures (default: nothing to drop).

        Algorithms owning warm caches (the walk recommenders'
        :class:`~repro.graph.cache.TransitionCache`, CommuteTime's
        pseudoinverse memo) override this; the serving engine's
        ``clear_caches`` calls it so a running deployment can shed both
        cache layers without discarding the engine.
        """

    @property
    def is_fitted(self) -> bool:
        return self.dataset is not None

    def _require_fitted(self) -> RatingDataset:
        if self.dataset is None:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")
        return self.dataset

    def score_items(self, user: int, candidates: np.ndarray | None = None) -> np.ndarray:
        """Score items for ``user``; higher = more recommendable.

        With ``candidates`` (item indices), returns scores aligned with that
        array; otherwise returns scores for the full catalogue. ``-inf``
        means "cannot recommend".
        """
        dataset = self._require_fitted()
        dataset._check_user(user)
        scores = np.asarray(self._score_user(int(user)), dtype=np.float64)
        if scores.shape != (dataset.n_items,):
            raise ConfigError(
                f"{type(self).__name__}._score_user returned shape {scores.shape}; "
                f"expected ({dataset.n_items},)"
            )
        if candidates is None:
            return scores
        return scores[self._check_candidates_array(candidates)]

    def recommend(self, user: int, k: int = 10, exclude_rated: bool = True,
                  candidates: np.ndarray | None = None) -> list[Recommendation]:
        """Top-``k`` recommendations for ``user``.

        Items scored ``-inf`` are never returned, so the list may be shorter
        than ``k`` (e.g. a cold-start user on a graph method). A single user
        is served as a cohort of one, so this and :meth:`recommend_batch`
        can never disagree.
        """
        dataset = self._require_fitted()
        dataset._check_user(user)
        return self.recommend_batch(
            np.array([int(user)], dtype=np.int64), k,
            exclude_rated=exclude_rated, candidates=candidates,
        )[0]

    def recommend_items(self, user: int, k: int = 10, **kwargs) -> np.ndarray:
        """Like :meth:`recommend` but returning just the item-index array."""
        return np.array(
            [r.item for r in self.recommend(user, k, **kwargs)], dtype=np.int64
        )

    # -- batch API ---------------------------------------------------------

    def _check_users_array(self, users) -> np.ndarray:
        dataset = self._require_fitted()
        if users is None:
            return np.arange(dataset.n_users, dtype=np.int64)
        return as_index_array(users, dataset.n_users, "users")

    def _check_candidates_array(self, candidates) -> np.ndarray:
        dataset = self._require_fitted()
        return as_index_array(candidates, dataset.n_items, "candidates")

    def score_users(self, users: np.ndarray | None = None,
                    candidates: np.ndarray | None = None) -> np.ndarray:
        """Score matrix ``(len(users), n_items)`` for a cohort of users.

        The batch counterpart of :meth:`score_items`: row ``k`` holds the
        scores of ``users[k]`` (higher = better, ``-inf`` = cannot
        recommend). ``users=None`` scores every user. With ``candidates``,
        columns are aligned with that item-index array instead of the full
        catalogue.

        Vectorised subclasses answer the whole cohort in one pass (shared
        transition matrices, multi-RHS solves, one factor-matrix product);
        the base implementation falls back to a per-user loop, so the method
        is always available.
        """
        dataset = self._require_fitted()
        users = self._check_users_array(users)
        scores = np.asarray(self._score_users_batch(users), dtype=np.float64)
        if scores.shape != (users.size, dataset.n_items):
            raise ConfigError(
                f"{type(self).__name__}._score_users_batch returned shape "
                f"{scores.shape}; expected ({users.size}, {dataset.n_items})"
            )
        if candidates is None:
            return scores
        return scores[:, self._check_candidates_array(candidates)]

    def recommend_batch_arrays(self, users: np.ndarray | None = None,
                               k: int = 10, exclude_rated: bool = True,
                               candidates: np.ndarray | None = None,
                               ) -> tuple[np.ndarray, np.ndarray]:
        """Ranked top-``k`` lists for a cohort as padded arrays.

        Returns ``(items, scores)``, both shaped ``(len(users), k)``: row
        ``r`` holds the ranked item indices for ``users[r]`` with ``-1``
        padding (and ``-inf`` score) where the list is shorter than ``k``
        (cold-start users, ``-inf``-scored items). Padding is always
        trailing. This is the allocation-friendly shape the serving layer
        (cohort rows, the engine's result cache) consumes directly; :meth:`recommend_batch` wraps it in
        :class:`Recommendation` objects.
        """
        dataset = self._require_fitted()
        k = check_positive_int(k, "k")
        users = self._check_users_array(users)
        scores = self.score_users(users)
        if exclude_rated:
            for row, user in enumerate(users):
                scores[row, dataset.items_of_user(int(user))] = -np.inf
        if candidates is not None:
            mask = np.full(dataset.n_items, -np.inf)
            mask[self._check_candidates_array(candidates)] = 0.0
            scores = scores + mask
        items = np.full((users.size, k), -1, dtype=np.int64)
        out_scores = np.full((users.size, k), -np.inf)
        for row in range(users.size):
            order = top_k_indices(scores[row], k)
            ranked = scores[row, order]
            # top_k_indices sorts -inf (and NaN) last, so the finite prefix
            # is exactly the servable list.
            length = int(np.isfinite(ranked).sum())
            items[row, :length] = order[:length]
            out_scores[row, :length] = ranked[:length]
        return items, out_scores

    def recommend_batch(self, users: np.ndarray | None = None, k: int = 10,
                        exclude_rated: bool = True,
                        candidates: np.ndarray | None = None,
                        ) -> list[list[Recommendation]]:
        """Top-``k`` lists for a cohort — ``recommend`` for many users at once.

        Returns one list per user, in ``users`` order, each matching what
        :meth:`recommend` would return for that user alone: the same items in
        the same order, with scores agreeing to floating-point rounding (most
        algorithms are bit-identical; BLAS-backed ones like PureSVD may
        differ in the last ulp). The cohort shares a single batch scoring
        pass.
        """
        dataset = self._require_fitted()
        users = self._check_users_array(users)
        items, scores = self.recommend_batch_arrays(
            users, k, exclude_rated=exclude_rated, candidates=candidates
        )
        labels = dataset.item_labels
        return [
            [Recommendation(int(item), labels[int(item)], float(score))
             for item, score in zip(row_items, row_scores) if item >= 0]
            for row_items, row_scores in zip(items, scores)
        ]

    def recommend_batch_items(self, users: np.ndarray | None = None,
                              k: int = 10, **kwargs) -> list[np.ndarray]:
        """Like :meth:`recommend_batch` but returning item-index arrays."""
        return [
            np.array([r.item for r in recs], dtype=np.int64)
            for recs in self.recommend_batch(users, k, **kwargs)
        ]

    def __repr__(self) -> str:
        state = "fitted" if self.is_fitted else "unfitted"
        return f"{type(self).__name__}(name={self.name!r}, {state})"
