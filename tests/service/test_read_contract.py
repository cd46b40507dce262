"""One read contract across the serving tiers.

Every tier — :class:`ServingEngine`, the in-process :class:`ShardedEngine`
and the multi-process :class:`ProcessShardFleet` — resolves a request in
one order (result cache, then model) and must treat its arguments alike:
the same users rejected with the same typed errors, exclusions re-filtering
the ranked list the same way, and an answer that does not depend on
whether it came cold, warm, alone or inside a batch.
"""

import numpy as np
import pytest

from repro import AbsorbingTimeRecommender, ServingEngine, ShardedEngine
from repro.data.synthetic import federated_dataset
from repro.exceptions import ConfigError, UnknownUserError
from repro.service import ProcessShardFleet

TIERS = ("engine", "sharded", "fleet")


@pytest.fixture(scope="module")
def data():
    return federated_dataset(3, scale=0.1, seed=5)


@pytest.fixture(scope="module")
def tiers(data, tmp_path_factory):
    sharded = ShardedEngine.fit(data, AbsorbingTimeRecommender, n_shards=2)
    path = sharded.save(str(tmp_path_factory.mktemp("contract-fleet")))
    with ProcessShardFleet.from_directory(
            path, wal_dir=str(tmp_path_factory.mktemp("contract-wal"))) as fleet:
        yield {
            "engine": ServingEngine(AbsorbingTimeRecommender().fit(data)),
            "sharded": sharded,
            "fleet": fleet,
        }


@pytest.fixture(params=TIERS)
def tier(request, tiers):
    return tiers[request.param]


def _items(ranked):
    return [r.item for r in ranked]


class TestAnswers:
    def test_single_answer_is_its_batch_row(self, tier, data):
        users = list(range(0, data.n_users, 9))
        batched = tier.recommend_many(users, k=8)
        for user, ranked in zip(users, batched):
            single = tier.recommend(user, k=8)
            assert _items(single) == _items(ranked)
            assert [r.score for r in single] == [r.score for r in ranked]

    def test_repeated_answers_identical(self, tier):
        first = tier.recommend(5, k=10)
        for _ in range(2):
            again = tier.recommend(5, k=10)
            assert [(r.item, r.label, r.score) for r in again] \
                == [(r.item, r.label, r.score) for r in first]

    def test_labels_name_the_items(self, tier, data):
        for rec in tier.recommend(0, k=10):
            assert rec.label == data.item_labels[rec.item]

    def test_rated_items_excluded_by_default(self, tier, data):
        rated = set(data.items_of_user(2).tolist())
        assert rated.isdisjoint(_items(tier.recommend(2, k=10)))
        unfiltered = _items(tier.recommend(2, k=len(rated) + 10,
                                           exclude_rated=False))
        assert rated & set(unfiltered)

    def test_k_beyond_catalogue_is_clamped(self, tier, data):
        served = tier.recommend(0, k=10**6)
        assert 0 < len(served) <= data.n_items
        assert len(set(_items(served))) == len(served)


class TestExclusion:
    def test_exclusion_promotes_next_ranked(self, tier):
        full = _items(tier.recommend(0, k=10))
        refiltered = _items(tier.recommend(0, k=10, exclude=full[:3]))
        assert refiltered[:7] == full[3:10]
        assert set(full[:3]).isdisjoint(refiltered)

    def test_exclusion_can_exhaust_catalogue(self, tier, data):
        everything = list(range(data.n_items))
        assert tier.recommend(0, k=5, exclude=everything) == []

    def test_empty_exclude_variants(self, tier):
        base = _items(tier.recommend(0, k=5))
        for empty in ([], set(), (), np.array([], dtype=np.float64)):
            assert _items(tier.recommend(0, k=5, exclude=empty)) == base

    def test_float_exclude_matches_int_exclude(self, tier):
        full = _items(tier.recommend(0, k=6))
        as_float = np.asarray(full[:2], dtype=np.float64)
        assert _items(tier.recommend(0, k=4, exclude=as_float)) \
            == _items(tier.recommend(0, k=4, exclude=full[:2]))

    def test_fractional_exclude_rejected(self, tier):
        # int64 coercion would silently truncate 0.5 -> item 0.
        with pytest.raises(ConfigError, match="non-integral"):
            tier.recommend(0, exclude=np.array([0.5]))

    def test_exclude_as_set_accepted(self, tier):
        full = _items(tier.recommend(0, k=6))
        assert _items(tier.recommend(0, k=4, exclude=set(full[:2]))) \
            == full[2:6]

    def test_exclude_iterator_respected(self, tier):
        # A one-shot iterable must not be exhausted before the re-filter
        # sees it.
        full = _items(tier.recommend(4, k=8))
        refiltered = _items(tier.recommend(4, k=8, exclude=iter(full[:2])))
        assert set(full[:2]).isdisjoint(refiltered)
        assert refiltered[:6] == full[2:8]


class TestRejections:
    def test_unknown_user_rejected(self, tier):
        for user in (-1, tier.n_users, tier.n_users + 50):
            with pytest.raises(UnknownUserError):
                tier.recommend(user, k=3)

    def test_bool_user_rejected(self, tier):
        # True is an int subclass; it must not silently serve user 1.
        for user in (True, False, np.True_):
            with pytest.raises(UnknownUserError):
                tier.recommend(user, k=3)
        for batch in ([0, True], [np.False_]):
            with pytest.raises(UnknownUserError):
                tier.recommend_many(batch, k=3)

    def test_user_checked_before_k(self, tier):
        # A bad user and a bad k in one request: the user error wins on
        # every tier, alone or inside a batch.
        with pytest.raises(UnknownUserError):
            tier.recommend(tier.n_users + 5, k=0)
        with pytest.raises(UnknownUserError):
            tier.recommend_many([0, tier.n_users + 5], k=0)

    def test_invalid_k_rejected_for_known_user(self, tier):
        for k in (0, -1):
            with pytest.raises(ConfigError, match="k"):
                tier.recommend(0, k=k)
