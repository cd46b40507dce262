"""TransitionCache: memoized walk structures must be correct, counted, bounded."""

import numpy as np
import pytest

from repro import AbsorbingTimeRecommender
from repro.graph.bipartite import UserItemGraph
from repro.exceptions import ConfigError
from repro.graph.cache import TransitionCache
from repro.utils.sparse import row_normalize


@pytest.fixture()
def graph(small_synth):
    return UserItemGraph(small_synth.dataset)


@pytest.fixture()
def multi_component():
    """Four disjoint user-item blocks -> four components to cache."""
    from repro.data.dataset import RatingDataset

    triples = [(f"u{b}{u}", f"i{b}{i}", float(1 + (u + i) % 5))
               for b in range(4) for u in range(3) for i in range(3)]
    dataset = RatingDataset.from_triples(triples, duplicates="last")
    return dataset, UserItemGraph(dataset)


class TestGroupEntries:
    def test_group_matches_direct_computation(self, graph):
        cache = TransitionCache(graph)
        labels = graph.component_labels()
        key = (int(labels[0]),)
        entry = cache.group(key)
        nodes = np.flatnonzero(np.isin(labels, np.array(key)))
        np.testing.assert_array_equal(entry.nodes, nodes)
        expected = row_normalize(
            graph.adjacency[nodes][:, nodes].tocsr(), allow_zero_rows=True
        )
        np.testing.assert_array_equal(entry.transition.toarray(),
                                      expected.toarray())
        np.testing.assert_array_equal(entry.user_mask, nodes < graph.n_users)
        np.testing.assert_array_equal(
            entry.item_indices, nodes[~entry.user_mask] - graph.n_users
        )

    def test_global_entry_reuses_graph_transition(self, graph):
        cache = TransitionCache(graph)
        entry = cache.group(None)
        assert entry.transition is graph.transition_matrix()
        assert entry.nodes.size == graph.n_nodes

    def test_hits_and_misses_counted(self, graph):
        cache = TransitionCache(graph)
        key = (int(graph.component_labels()[0]),)
        first = cache.group(key)
        second = cache.group(key)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.stats()["hit_rate"] == 0.5

    def test_entropy_slice(self, graph):
        entropy = np.arange(graph.n_nodes, dtype=np.float64)
        cache = TransitionCache(graph, node_entropy=entropy)
        entry = cache.group(None)
        np.testing.assert_array_equal(entry.node_entropy, entropy)

    def test_entropy_length_validated(self, graph):
        with pytest.raises(ConfigError, match="n_nodes"):
            TransitionCache(graph, node_entropy=np.ones(3))


class TestBfsEntries:
    def test_bfs_memoized_per_query(self, graph, small_synth):
        cache = TransitionCache(graph)
        seeds = small_synth.dataset.items_of_user(0)
        absorbing = graph.item_nodes(seeds)
        sub1, trans1 = cache.bfs(0, seeds, absorbing, 5)
        sub2, trans2 = cache.bfs(0, seeds, absorbing, 5)
        assert sub1 is sub2 and trans1 is trans2
        assert cache.hits == 1
        # A different µ is a different expansion → separate entry.
        cache.bfs(0, seeds, absorbing, 7)
        assert cache.misses == 2


class TestEviction:
    def test_lru_bound_respected(self, graph):
        cache = TransitionCache(graph, max_entries=2)
        labels = graph.component_labels()
        components = np.unique(labels)[:3]
        assert components.size >= 1
        for c in components:
            cache.group((int(c),))
        assert len(cache) <= 2

    def test_lru_evicts_oldest_group_under_small_bound(self, multi_component):
        dataset, graph = multi_component
        labels = np.unique(graph.component_labels())
        assert labels.size >= 3
        cache = TransitionCache(graph, max_entries=2)
        a, b, c = (int(l) for l in labels[:3])
        entry_a = cache.group((a,))
        cache.group((b,))
        cache.group((a,))  # refresh A: B is now the least-recently-used
        cache.group((c,))  # bound 2 exceeded -> the oldest (B) is evicted
        assert ("group", a) in cache._groups
        assert ("group", c) in cache._groups
        assert ("group", b) not in cache._groups
        assert cache.group((a,)) is entry_a  # A survived, same object

    def test_counters_stay_monotone_under_eviction_churn(self, multi_component):
        dataset, graph = multi_component
        labels = np.unique(graph.component_labels())
        cache = TransitionCache(graph, max_entries=2)
        seen = (0, 0)
        for step in range(12):
            cache.group((int(labels[step % labels.size]),))
            now = (cache.hits, cache.misses)
            assert now[0] >= seen[0] and now[1] >= seen[1]
            assert sum(now) == sum(seen) + 1
            seen = now

    def test_readmission_revalidates_exactly_once_per_live_operator(
            self, multi_component):
        # An evicted group rebuilt later gets a fresh prepared operator that
        # validates once — the aggregate validation count always equals the
        # number of live operators, never more (no warm-path revalidation).
        dataset, graph = multi_component
        labels = np.unique(graph.component_labels())
        cache = TransitionCache(graph, max_entries=2)
        a, b, c = (int(l) for l in labels[:3])
        for key in (a, b, c, a):  # the last call re-admits the evicted A
            entry = cache.group((key,))
            entry.operator.solve(np.array([0]), n_iterations=2)
        stats = cache.operator_stats()
        assert stats["operators"] == 2
        assert stats["validations"] == stats["operators"]
        assert stats["solves"] >= 2

    def test_bfs_churn_cannot_evict_group_entries(self, graph, small_synth):
        # Per-query BFS entries live in their own LRU: flooding it must leave
        # the shared group transitions untouched.
        cache = TransitionCache(graph, max_bfs_entries=2)
        group_entry = cache.group(None)
        for user in range(8):
            seeds = small_synth.dataset.items_of_user(user)
            cache.bfs(user, seeds, graph.item_nodes(seeds), 3)
        assert cache.stats()["bfs_entries"] <= 2
        assert cache.group(None) is group_entry

    def test_clear_resets_everything(self, graph):
        cache = TransitionCache(graph)
        cache.group(None)
        cache.group(None)
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)


class TestRecommenderIntegration:
    def test_cache_built_lazily_and_reported(self, small_synth):
        recommender = AbsorbingTimeRecommender().fit(small_synth.dataset)
        assert recommender.scoring_cache_stats() is None
        users = np.arange(0, 40, 7)
        first = recommender.score_users(users)
        stats_after_first = recommender.scoring_cache_stats()
        assert stats_after_first is not None
        second = recommender.score_users(users)
        stats_after_second = recommender.scoring_cache_stats()
        np.testing.assert_array_equal(first, second)
        assert stats_after_second["hits"] > stats_after_first["hits"]

    def test_refit_invalidates_cache(self, small_synth, medium_synth):
        recommender = AbsorbingTimeRecommender().fit(small_synth.dataset)
        recommender.score_users(np.arange(4))
        assert recommender.transition_cache is not None
        recommender.fit(medium_synth.dataset)
        assert recommender.transition_cache is None
        # And scoring the new dataset works with fresh structures.
        scores = recommender.score_users(np.arange(4))
        assert scores.shape == (4, medium_synth.dataset.n_items)

    def test_solo_bfs_queries_hit_cache_on_repeat(self):
        from repro.data.dataset import RatingDataset

        triples = [(f"u{i}", f"i{j}", 3.0)
                   for i in range(6) for j in range(8) if (i + j) % 2]
        dataset = RatingDataset.from_triples(triples)
        recommender = AbsorbingTimeRecommender(subgraph_size=2).fit(dataset)
        users = np.arange(dataset.n_users)
        first = recommender.score_users(users)
        hits_before = recommender.transition_cache.hits
        second = recommender.score_users(users)
        np.testing.assert_array_equal(first, second)
        assert recommender.transition_cache.hits > hits_before


class TestTargetedInvalidation:
    """apply_update must evict touched components only, everything counted."""

    def _update(self, dataset, graph, events):
        delta = dataset.extend(events, duplicates="last")
        return delta, graph.apply_delta(delta)

    def test_untouched_groups_survive_touched_are_evicted(self, multi_component):
        dataset, graph = multi_component
        labels = graph.component_labels()
        cache = TransitionCache(graph)
        touched_key = (int(labels[dataset.user_id("u00")]),)
        safe_key = (int(labels[dataset.user_id("u10")]),)
        cache.group(touched_key)
        safe_entry = cache.group(safe_key)
        _, update = self._update(dataset, graph, [("u00", "i01", 3.0)])
        counts = cache.apply_update(update)
        assert counts == {"invalidated_groups": 1, "retained_groups": 1,
                          "invalidated_bfs": 0, "retained_bfs": 0}
        assert cache.group(safe_key) is safe_entry  # still warm, a hit
        stats = cache.stats()
        assert stats["invalidated_groups"] == 1
        assert stats["retained_groups"] == 1

    def test_global_entry_always_evicted(self, multi_component):
        dataset, graph = multi_component
        cache = TransitionCache(graph)
        cache.group(None)
        _, update = self._update(dataset, graph, [("u00", "i01", 3.0)])
        assert cache.apply_update(update)["invalidated_groups"] == 1
        assert len(cache) == 0

    def test_user_shift_remaps_retained_nodes(self, multi_component):
        dataset, graph = multi_component
        labels = graph.component_labels()
        cache = TransitionCache(graph)
        safe_key = (int(labels[dataset.user_id("u10")]),)
        before = cache.group(safe_key)
        _, update = self._update(dataset, graph, [("brand-new", "i00", 2.0)])
        cache.apply_update(update)
        after = cache.group(safe_key)
        assert after.operator is before.operator  # warm structures reused
        expected = np.where(before.nodes < graph.n_users,
                            before.nodes, before.nodes + 1)
        np.testing.assert_array_equal(after.nodes, expected)
        np.testing.assert_array_equal(after.item_indices, before.item_indices)
        # And the remapped entry matches what a cold cache would build.
        cold = TransitionCache(update.graph).group(safe_key)
        np.testing.assert_array_equal(cold.nodes, after.nodes)
        np.testing.assert_array_equal(cold.transition.toarray(),
                                      after.transition.toarray())

    def test_bfs_entries_evicted_on_user_shift_or_touch(self, multi_component):
        dataset, graph = multi_component
        cache = TransitionCache(graph)
        seeds = dataset.items_of_user(dataset.user_id("u00"))
        safe_seeds = dataset.items_of_user(dataset.user_id("u10"))
        cache.bfs(0, seeds, graph.item_nodes(seeds), 2)
        cache.bfs(3, safe_seeds, graph.item_nodes(safe_seeds), 2)
        # Touch block 0 only: block 1's BFS entry survives.
        _, update = self._update(dataset, graph, [("u00", "i01", 3.0)])
        counts = cache.apply_update(update)
        assert counts["invalidated_bfs"] == 1
        assert counts["retained_bfs"] == 1
        # A user shift invalidates all BFS entries (their keys embed node ids).
        dataset2, graph2 = update.graph.dataset, update.graph
        _, update2 = self._update(dataset2, graph2, [("someone", "i10", 2.0)])
        assert cache.apply_update(update2)["invalidated_bfs"] == 1
        assert cache.stats()["bfs_entries"] == 0

    @pytest.mark.parametrize("bfs", [False, True])
    def test_entry_built_across_an_update_is_not_kept(self, multi_component,
                                                       bfs):
        # A miss builds outside the lock; an update landing mid-build must
        # not let the old-graph entry into the maps the update installed.
        dataset, graph = multi_component
        cache = TransitionCache(graph)
        _, update = self._update(dataset, graph, [("brand-new", "i00", 2.0)])
        stale = object()

        def build_then_update():
            cache.apply_update(update)
            return stale

        assert cache._get(bfs, ("k",), build_then_update) is stale
        assert cache.graph is update.graph
        assert len(cache) == 0
        fresh = object()
        assert cache._get(bfs, ("k",), lambda: fresh) is fresh
        assert cache._get(bfs, ("k",), lambda: stale) is fresh

    def test_entropy_vector_swapped_and_validated(self, multi_component):
        dataset, graph = multi_component
        cache = TransitionCache(graph)
        _, update = self._update(dataset, graph, [("u00", "i01", 3.0)])
        with pytest.raises(ConfigError, match="n_nodes"):
            cache.apply_update(update, node_entropy=np.ones(3))
        entropy = np.arange(update.graph.n_nodes, dtype=np.float64)
        cache.apply_update(update, node_entropy=entropy)
        assert cache.graph is update.graph
        np.testing.assert_array_equal(cache.node_entropy, entropy)
        with pytest.raises(ConfigError, match="GraphUpdate"):
            cache.apply_update("nope")


class TestPreparedOperators:
    def test_group_entry_carries_validated_operator(self, graph):
        cache = TransitionCache(graph)
        entry = cache.group(None)
        assert entry.operator.transition is entry.transition
        assert entry.operator.validations == 1

    def test_group_served_twice_validates_once(self, graph):
        cache = TransitionCache(graph)
        entry = cache.group(None)
        entry.operator.solve(np.array([0]), n_iterations=3)
        entry.operator.solve(np.array([0]), n_iterations=3)
        again = cache.group(None)
        assert again.operator is entry.operator
        stats = cache.operator_stats()
        assert stats["operators"] == 1
        assert stats["validations"] == 1
        assert stats["solves"] == 2
        assert cache.stats()["operator_validations"] == 1

    def test_bfs_entry_carries_operator(self, graph, small_synth):
        from repro.solver import WalkOperator

        cache = TransitionCache(graph)
        seeds = small_synth.dataset.items_of_user(0)
        absorbing = graph.item_nodes(seeds)
        sub, operator = cache.bfs(0, seeds, absorbing, 5)
        assert isinstance(operator, WalkOperator)
        assert operator.n_nodes == sub.n_nodes
        assert operator.validations == 1
        _, again = cache.bfs(0, seeds, absorbing, 5)
        assert again is operator
        assert cache.operator_stats()["validations"] == 1
