"""Runtime LockOrderSanitizer: the deliberate-inversion test the ISSUE
asks for (``_routing_lock`` then ``worker.lock``), witness-graph
potential-deadlock detection across two threads, and the instrument()
entry points."""

import threading
from pathlib import Path

import pytest

from repro.analysis.config import AnalysisConfig, load_config
from repro.analysis.sanitizer import (
    LockOrderSanitizer,
    LockOrderViolation,
    SanitizedLock,
    instrument,
    wrap,
)

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture()
def sanitizer():
    return LockOrderSanitizer(load_config(REPO / "analysis.toml"))


class TestDeliberateInversion:
    def test_routing_then_worker_raises_readable_report(self, sanitizer):
        """The seeded inversion: ``_routing_lock`` before ``worker.lock``
        inverts the declared hierarchy and must raise *before* the
        acquire — remove the sanitizer guard and this test fails."""
        routing = wrap(threading.Lock(), sanitizer, "_routing_lock")
        worker = wrap(threading.Lock(), sanitizer, "worker.lock")
        with routing:
            with pytest.raises(LockOrderViolation) as excinfo:
                worker.acquire()
        report = str(excinfo.value)
        assert "lock-order violation" in report
        assert "acquiring 'worker.lock' while holding '_routing_lock'" \
            in report
        assert "declared order: _update_lock < worker.lock < _routing_lock" \
            in report
        assert "'_routing_lock' acquired at:" in report
        assert "acquisition attempted at:" in report
        assert "test_sanitizer.py" in report  # real stack frames
        assert sanitizer.violations == [report]
        # The guarded lock was never taken; nothing is wedged.
        assert not worker.locked()

    def test_same_sequence_with_raw_locks_does_not_raise(self):
        """Companion: without instrumentation nothing catches the
        inversion — the raise above is the sanitizer's doing."""
        routing, worker = threading.Lock(), threading.Lock()
        with routing:
            assert worker.acquire()
            worker.release()

    def test_correct_order_is_silent(self, sanitizer):
        update = wrap(threading.RLock(), sanitizer, "_update_lock")
        worker = wrap(threading.Lock(), sanitizer, "worker.lock")
        routing = wrap(threading.Lock(), sanitizer, "_routing_lock")
        with update:
            with worker:
                with routing:
                    pass
        assert sanitizer.violations == []

    def test_release_resets_held_stack(self, sanitizer):
        routing = wrap(threading.Lock(), sanitizer, "_routing_lock")
        worker = wrap(threading.Lock(), sanitizer, "worker.lock")
        with routing:
            pass
        with worker:  # no longer held, so no inversion
            pass
        assert sanitizer.violations == []


class TestSelfDeadlock:
    def test_nonreentrant_reacquire_raises(self, sanitizer):
        worker = wrap(threading.Lock(), sanitizer, "worker.lock")
        with worker:
            with pytest.raises(LockOrderViolation) as excinfo:
                worker.acquire()
        assert "self-deadlock" in str(excinfo.value)

    def test_rlock_reentry_is_counted_not_flagged(self, sanitizer):
        update = wrap(threading.RLock(), sanitizer, "_update_lock")
        with update:
            with update:
                pass
            # still held after the inner release
            assert sanitizer.held_names() == ["_update_lock"]
        assert sanitizer.held_names() == []
        assert sanitizer.violations == []


class TestWitnessGraph:
    def test_two_thread_reverse_edge_reports_both_stacks(self):
        """a→b in one thread, then b→a in another: no rank exists for
        either lock, but the witness graph catches the potential
        deadlock and names both threads with their stacks."""
        sanitizer = LockOrderSanitizer(AnalysisConfig())
        alpha = wrap(threading.Lock(), sanitizer, "alpha")
        beta = wrap(threading.Lock(), sanitizer, "beta")

        def forward():
            with alpha:
                with beta:
                    pass

        thread = threading.Thread(target=forward, name="forward-thread")
        thread.start()
        thread.join()

        with beta:
            with pytest.raises(LockOrderViolation) as excinfo:
                alpha.acquire()
        report = str(excinfo.value)
        assert "potential deadlock" in report
        assert "'forward-thread'" in report
        assert "acquires 'alpha' while holding 'beta'" in report
        assert "previously acquired 'beta' while holding 'alpha'" in report
        # Both sides carry acquisition stacks from this file.
        assert report.count("test_sanitizer.py") >= 2


class TestInstrument:
    def test_instrument_resolves_canonical_names_and_descends(self):
        """instrument() maps attributes to the declared lock names via
        the owning class (one level deep into list attributes), so a
        fleet-shaped object gets the real hierarchy enforced."""
        sanitizer = LockOrderSanitizer(load_config(REPO / "analysis.toml"))

        class _ShardWorker:
            def __init__(self):
                self.lock = threading.Lock()

        class ShardRouter:
            def __init__(self):
                self._routing_lock = threading.Lock()

        class ProcessShardFleet(ShardRouter):
            def __init__(self):
                super().__init__()
                self._workers = [_ShardWorker()]

        fleet = ProcessShardFleet()
        instrument(fleet, sanitizer)
        worker = fleet._workers[0]
        assert isinstance(fleet._routing_lock, SanitizedLock)
        assert fleet._routing_lock.name == "_routing_lock"
        assert isinstance(worker.lock, SanitizedLock)
        assert worker.lock.name == "worker.lock"

        with fleet._routing_lock:
            with pytest.raises(LockOrderViolation):
                worker.lock.acquire()

    def test_instrument_is_idempotent(self):
        sanitizer = LockOrderSanitizer(AnalysisConfig())

        class Holder:
            def __init__(self):
                self._lock = threading.Lock()

        holder = Holder()
        instrument(holder, sanitizer)
        proxy = holder._lock
        instrument(holder, sanitizer)
        assert holder._lock is proxy
