"""Tests for the stateless cohort job (an uncached engine) and user files."""

import numpy as np
import pytest

from repro import MostPopularRecommender, ServingEngine
from repro.exceptions import DataFormatError
from repro.service import load_user_file


def serve_uncached(recommender, users, **kwargs):
    """The stateless cohort job ``repro.cli serve-batch`` runs."""
    return ServingEngine(recommender, result_cache_size=0).serve_cohort(
        users, **kwargs)


class TestServeUserCohort:
    def test_rows_cover_cohort(self, tiny_dataset):
        recommender = MostPopularRecommender().fit(tiny_dataset)
        report = serve_uncached(recommender, [0, 1, 2], k=2)
        assert report.n_users == 3 and report.k == 2
        assert {row["user"] for row in report.rows} == {0, 1, 2}
        assert all(1 <= row["rank"] <= 2 for row in report.rows)

    def test_rows_match_recommend_batch(self, tiny_dataset):
        recommender = MostPopularRecommender().fit(tiny_dataset)
        report = serve_uncached(recommender, [0, 2], k=3, batch_size=1)
        expected = recommender.recommend_batch(np.array([0, 2]), k=3)
        got = {(row["user"], row["rank"]): row["item"] for row in report.rows}
        for user, ranked in zip((0, 2), expected):
            for rank, rec in enumerate(ranked, start=1):
                assert got[(user, rank)] == rec.item

    def test_throughput_fields(self, tiny_dataset):
        recommender = MostPopularRecommender().fit(tiny_dataset)
        report = serve_uncached(recommender, [0], k=1)
        summary = report.summary()
        assert summary["users"] == 1
        assert report.users_per_second > 0


class TestLoadUserFile:
    def test_parses_indices_comments_blanks(self, tmp_path):
        path = tmp_path / "users.txt"
        path.write_text("0\n\n# a comment\n2  # trailing\n1\n2\n")
        users = load_user_file(str(path), n_users=3)
        np.testing.assert_array_equal(users, [0, 2, 1, 2])

    def test_rejects_non_integer(self, tmp_path):
        path = tmp_path / "users.txt"
        path.write_text("zero\n")
        with pytest.raises(DataFormatError, match="user index"):
            load_user_file(str(path), n_users=3)

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "users.txt"
        path.write_text("99\n")
        with pytest.raises(DataFormatError, match="out-of-range"):
            load_user_file(str(path), n_users=3)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "users.txt"
        path.write_text("# only comments\n")
        with pytest.raises(DataFormatError, match="no user indices"):
            load_user_file(str(path), n_users=3)


class TestCohortDedupe:
    def test_duplicates_solved_once_rows_identical(self, tiny_dataset):
        from repro import MostPopularRecommender

        fitted = MostPopularRecommender().fit(tiny_dataset)
        cohort = np.array([1, 0, 1, 2, 0, 1])
        report = serve_uncached(fitted, cohort, k=3)
        baseline = serve_uncached(fitted, np.array([0, 1, 2]), k=3)
        assert report.n_users == 6
        assert report.n_solves == 3 < report.n_users
        assert "solves" in report.summary()
        per_user = {u: [r for r in baseline.rows if r["user"] == u]
                    for u in (0, 1, 2)}
        # Rows come back in cohort order, duplicates fanned out verbatim.
        expected = [row for u in cohort for row in per_user[int(u)]]
        assert report.rows == expected
