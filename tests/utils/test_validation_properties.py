"""Seeded property tests: validation accepts/rejects consistently everywhere.

The validation helpers exist so that every public entry point draws the
same line between "a user/item index" and "something that merely converts
to one" (booleans, fractional floats, nested arrays). Hypothesis drives
adversarial inputs through :func:`as_index_array` / :func:`as_exclude_array`
/ ``RatingDataset._check_user`` directly, then through the stacked entry
points — :class:`ServingEngine` and :class:`ShardedEngine` — asserting they all agree: an input is either
accepted by every tier or rejected by every tier with a typed error.

``derandomize=True`` keeps the suite seeded/deterministic in CI while
still exploring the space across code changes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AbsorbingTimeRecommender,
    ServingEngine,
    ShardedEngine,
)
from repro.data.synthetic import federated_dataset
from repro.exceptions import ConfigError, ReproError, UnknownUserError
from repro.utils.validation import as_exclude_array, as_index_array, is_index

SETTINGS = dict(max_examples=60, deadline=None, derandomize=True)

SIZE = 50  # index space for the direct helper properties


# -- strategies ---------------------------------------------------------------

valid_indices = st.integers(min_value=0, max_value=SIZE - 1)

booleans = st.sampled_from([True, False, np.True_, np.False_])

fractional_floats = st.floats(
    min_value=0.0, max_value=SIZE - 1, exclude_max=True,
    allow_nan=False, allow_infinity=False,
).filter(lambda x: x != int(x))

integral_floats = valid_indices.map(float)

container = st.sampled_from([list, tuple, np.array])


def as_container(kind, items):
    if kind is np.array and not items:
        return np.empty(0, dtype=np.int64)
    return kind(items)


# -- as_index_array ----------------------------------------------------------


class TestAsIndexArray:
    @settings(**SETTINGS)
    @given(st.lists(valid_indices, max_size=20), container)
    def test_valid_inputs_round_trip(self, items, kind):
        out = as_index_array(as_container(kind, items), SIZE, "users")
        assert out.dtype == np.int64
        assert out.tolist() == items

    @settings(**SETTINGS)
    @given(st.lists(valid_indices, max_size=10), booleans,
           st.integers(min_value=0, max_value=10))
    def test_bool_anywhere_rejected(self, items, flag, position):
        items.insert(min(position, len(items)), flag)
        with pytest.raises(ConfigError, match="boolean"):
            as_index_array(items, SIZE, "users")
        # The same poison survives numpy promotion of an object array.
        with pytest.raises(ConfigError, match="boolean"):
            as_index_array(np.array(items, dtype=object), SIZE, "users")

    @settings(**SETTINGS)
    @given(st.lists(valid_indices, min_size=1, max_size=10))
    def test_all_bool_array_rejected(self, items):
        mask = np.array(items, dtype=np.int64) % 2 == 0
        with pytest.raises(ConfigError, match="boolean"):
            as_index_array(mask, SIZE, "users")

    @settings(**SETTINGS)
    @given(st.lists(integral_floats, min_size=1, max_size=20))
    def test_integral_floats_accepted_exactly(self, items):
        out = as_index_array(np.array(items), SIZE, "users")
        assert out.tolist() == [int(v) for v in items]

    @settings(**SETTINGS)
    @given(st.lists(valid_indices, max_size=10), fractional_floats)
    def test_fractional_float_rejected(self, items, poison):
        with pytest.raises(ConfigError):
            as_index_array(np.array(items + [poison]), SIZE, "users")

    @settings(**SETTINGS)
    @given(st.lists(valid_indices, max_size=10),
           st.integers(min_value=SIZE, max_value=SIZE * 3) | st.integers(
               min_value=-SIZE, max_value=-1))
    def test_out_of_range_rejected(self, items, poison):
        with pytest.raises(ConfigError, match="out-of-range"):
            as_index_array(items + [poison], SIZE, "users")

    @settings(**SETTINGS)
    @given(st.sampled_from([[], (), set(), np.empty(0, dtype=np.int64),
                            np.empty(0, dtype=np.float64), iter(())]))
    def test_empty_containers_become_empty_arrays(self, empty):
        out = as_index_array(empty, SIZE, "users")
        assert out.dtype == np.int64 and out.size == 0

    @settings(**SETTINGS)
    @given(valid_indices)
    def test_scalar_is_cohort_of_one(self, index):
        assert as_index_array(index, SIZE, "users").tolist() == [index]


# -- as_exclude_array --------------------------------------------------------


class TestAsExcludeArray:
    @settings(**SETTINGS)
    @given(st.lists(st.integers(min_value=-10**6, max_value=10**6),
                    max_size=20), container)
    def test_any_int_accepted_out_of_range_included(self, items, kind):
        # Exclusions only ever *drop* items, so range is not checked here.
        out = as_exclude_array(as_container(kind, items))
        assert out.dtype == np.int64
        assert out.tolist() == items

    @settings(**SETTINGS)
    @given(st.lists(valid_indices, max_size=10), booleans,
           st.integers(min_value=0, max_value=10))
    def test_bool_anywhere_rejected(self, items, flag, position):
        items.insert(min(position, len(items)), flag)
        with pytest.raises(ConfigError, match="boolean"):
            as_exclude_array(items)

    @settings(**SETTINGS)
    @given(st.lists(valid_indices, max_size=10), fractional_floats)
    def test_fractional_float_rejected(self, items, poison):
        with pytest.raises(ConfigError, match="non-integral"):
            as_exclude_array(np.array(items + [poison]))

    @settings(**SETTINGS)
    @given(st.lists(integral_floats, min_size=1, max_size=20))
    def test_integral_floats_cast_exactly(self, items):
        assert as_exclude_array(np.array(items)).tolist() == \
            [int(v) for v in items]

    def test_none_and_empty_mean_no_exclusions(self):
        for empty in (None, [], (), set(), np.empty(0)):
            out = as_exclude_array(empty)
            assert out.dtype == np.int64 and out.size == 0

    @settings(**SETTINGS)
    @given(st.lists(valid_indices, min_size=1, max_size=10))
    def test_sets_and_generators_accepted(self, items):
        assert sorted(as_exclude_array(set(items)).tolist()) == \
            sorted(set(items))
        assert as_exclude_array(iter(items)).tolist() == items


# -- is_index vs _check_user -------------------------------------------------


scalar_candidates = (
    st.integers(min_value=-SIZE, max_value=2 * SIZE)
    | booleans
    | st.sampled_from([0.0, 1.5, float(SIZE), np.int32(3), np.int64(7),
                       np.float64(2.0), None, "3"])
)


@pytest.fixture(scope="module")
def dataset():
    """A small immutable dataset for the scalar gate (read-only checks)."""
    return federated_dataset(2, scale=0.1, seed=9)


class TestScalarIndexGate:
    @settings(**SETTINGS)
    @given(scalar_candidates)
    def test_check_user_agrees_with_is_index(self, dataset, value):
        if is_index(value, dataset.n_users):
            dataset._check_user(value)  # must not raise
        else:
            with pytest.raises(UnknownUserError):
                dataset._check_user(value)

    @settings(**SETTINGS)
    @given(booleans)
    def test_bools_are_never_indices(self, flag):
        assert not is_index(flag, SIZE)

    @settings(**SETTINGS)
    @given(st.integers(min_value=0, max_value=SIZE - 1))
    def test_numpy_integers_are_indices(self, value):
        assert is_index(np.int64(value), SIZE)
        assert is_index(np.int32(value), SIZE)


# -- cross-entry-point consistency -------------------------------------------


@pytest.fixture(scope="module")
def tiers():
    """The serving tiers over one dataset: engine and fleet."""
    data = federated_dataset(3, scale=0.1, seed=5)
    fitted = AbsorbingTimeRecommender().fit(data)
    engine = ServingEngine(fitted)
    fleet = ShardedEngine.fit(data, AbsorbingTimeRecommender, n_shards=2)
    return engine, fleet


def outcome(func):
    """'ok' or the ReproError subclass name — the comparable verdict."""
    try:
        func()
        return "ok"
    except ReproError as exc:
        return type(exc).__name__


class TestEntryPointConsistency:
    @settings(**SETTINGS)
    @given(st.integers(min_value=-5, max_value=200) | booleans
           | st.sampled_from([np.int32(1), np.int64(0), 1.0, 2.5, None]))
    def test_user_argument_verdicts_agree(self, tiers, user):
        engine, fleet = tiers
        verdicts = {
            "engine": outcome(lambda: engine.recommend(user, k=3)),
            "fleet": outcome(lambda: fleet.recommend(user, k=3)),
        }
        assert len(set(verdicts.values())) == 1, verdicts

    @settings(**SETTINGS)
    @given(st.one_of(
        st.none(),
        st.lists(st.integers(min_value=-3, max_value=100), max_size=8),
        st.lists(st.integers(min_value=0, max_value=40),
                 max_size=6).map(set),
        st.lists(booleans, min_size=1, max_size=4),
        st.lists(st.integers(min_value=0, max_value=10),
                 max_size=4).flatmap(
            lambda ints: booleans.map(lambda flag: ints + [flag])),
        st.lists(integral_floats, max_size=6).map(np.array),
        st.lists(fractional_floats, min_size=1, max_size=6).map(np.array),
        st.sampled_from([[], (), np.empty(0), 3, "0,1"]),
    ))
    def test_exclude_argument_verdicts_agree(self, tiers, exclude):
        engine, fleet = tiers
        if isinstance(exclude, set):
            exclude = list(exclude)  # same object for both tiers
        verdicts = {
            "engine": outcome(
                lambda: engine.recommend(0, k=3, exclude=exclude)),
            "fleet": outcome(
                lambda: fleet.recommend(0, k=3, exclude=exclude)),
        }
        assert len(set(verdicts.values())) == 1, verdicts

    @settings(**SETTINGS)
    @given(st.lists(st.integers(min_value=0, max_value=30),
                    min_size=1, max_size=6))
    def test_accepted_excludes_actually_drop_items(self, tiers, exclude):
        engine, fleet = tiers
        for tier in (engine, fleet):
            served = tier.recommend(0, k=5, exclude=exclude)
            assert not {r.item for r in served} & set(exclude)
