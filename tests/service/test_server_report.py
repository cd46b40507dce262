"""Deterministic unit tests for the front end's latency accounting.

No server, no clock: :func:`repro.service.percentile` on known samples,
the batch-size histogram arithmetic, and the ``ServerReport`` JSON
round-trip (including the ``seconds == 0`` throughput clamp) are all pure
functions — pin them down exactly.
"""

import json

import numpy as np
import pytest

from repro.service import ServerReport, percentile
from repro.exceptions import ConfigError


class TestPercentile:
    def test_single_sample_is_every_percentile(self):
        assert percentile([7.0], 0) == 7.0
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 100) == 7.0

    def test_median_of_even_length_is_midpoint(self):
        assert percentile([1.0, 3.0], 50) == 2.0
        assert percentile([10.0, 20.0, 30.0, 40.0], 50) == 25.0

    def test_median_of_odd_length_is_central_value(self):
        assert percentile([5.0, 1.0, 3.0], 50) == 3.0

    def test_extremes_are_min_and_max(self):
        data = [4.0, 9.0, 1.0, 7.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 9.0

    def test_linear_interpolation_known_values(self):
        # ranks: (n-1) * q/100 over sorted [10, 20, 30, 40, 50]
        data = [50.0, 10.0, 40.0, 20.0, 30.0]
        assert percentile(data, 25) == 20.0
        assert percentile(data, 90) == pytest.approx(46.0)
        assert percentile(data, 95) == pytest.approx(48.0)
        assert percentile(data, 99) == pytest.approx(49.6)

    def test_matches_numpy_linear_method(self, rng):
        data = rng.exponential(5.0, size=257).tolist()
        for q in (0, 1, 10, 50, 90, 95, 99, 99.9, 100):
            assert percentile(data, q) == pytest.approx(
                float(np.percentile(data, q)), rel=1e-12)

    def test_input_order_is_irrelevant(self, rng):
        data = rng.normal(size=64).tolist()
        shuffled = list(data)
        rng.shuffle(shuffled)
        assert percentile(data, 95) == percentile(shuffled, 95)

    def test_input_is_not_mutated(self):
        data = [3.0, 1.0, 2.0]
        percentile(data, 50)
        assert data == [3.0, 1.0, 2.0]

    def test_empty_clamps_to_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile((), 99) == 0.0

    @pytest.mark.parametrize("q", [-1, 100.5, float("nan"), float("inf"),
                                   "50", None, True])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ConfigError):
            percentile([1.0, 2.0], q)


class TestServerReport:
    def _report(self):
        return ServerReport(
            n_accepted=100, n_completed=90, n_failed=2,
            n_rejected_overload=5, n_rejected_deadline=3, inline_hits=26,
            n_batches=10, batch_sizes={1: 2, 8: 3, 32: 5},
            latency_ms_p50=1.5, latency_ms_p95=4.25, latency_ms_p99=9.125,
            latency_ms_mean=2.0, latency_ms_max=12.5,
            queue_depth=4, max_queue_depth=64, seconds=2.5,
        )

    def test_requests_per_second(self):
        assert self._report().requests_per_second == 36.0

    def test_zero_seconds_clamps_throughput(self):
        report = ServerReport(n_completed=50, seconds=0.0)
        assert report.requests_per_second == 0.0  # never inf
        assert json.loads(json.dumps(report.summary()))["requests_per_sec"] \
            == 0.0

    def test_mean_batch_size(self):
        # (1*2 + 8*3 + 32*5) / 10 batches
        assert self._report().mean_batch_size == pytest.approx(18.6)
        assert ServerReport().mean_batch_size == 0.0  # no batches yet

    def test_summary_is_json_safe_with_string_histogram_keys(self):
        summary = self._report().summary()
        payload = json.loads(json.dumps(summary))
        assert payload["batch_sizes"] == {"1": 2, "8": 3, "32": 5}
        assert payload["accepted"] == 100
        assert payload["inline_hits"] == 26
        assert payload["p95_ms"] == 4.25
        assert payload["requests_per_sec"] == 36.0

    def test_summary_histogram_keys_sorted_numerically(self):
        summary = ServerReport(n_batches=3,
                               batch_sizes={10: 1, 2: 1, 1: 1}).summary()
        assert list(summary["batch_sizes"]) == ["1", "2", "10"]

    def test_json_round_trip_is_lossless(self):
        report = self._report()
        wire = json.dumps(report.summary())
        rebuilt = ServerReport.from_summary(json.loads(wire))
        assert rebuilt == report
        assert rebuilt.summary() == report.summary()
        assert rebuilt.batch_sizes == {1: 2, 8: 3, 32: 5}  # int keys again
        assert rebuilt.inline_hits == 26

    def test_round_trip_of_empty_report(self):
        report = ServerReport()
        rebuilt = ServerReport.from_summary(
            json.loads(json.dumps(report.summary())))
        assert rebuilt == report
        assert rebuilt.inline_hits == 0
        assert rebuilt.requests_per_second == 0.0

    def test_books_balance_in_fixture(self):
        report = self._report()
        in_flight = report.n_accepted - (report.n_completed + report.n_failed
                                         + report.n_rejected_deadline)
        assert in_flight == 5  # accepted = completed + failed + deadline + flight
