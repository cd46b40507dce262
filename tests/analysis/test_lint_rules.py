"""Per-rule fixture tests: one true positive and one near-miss
negative per checker, against the miniature fixtures/analysis.toml."""

from pathlib import Path

import pytest

from repro.analysis.config import load_config
from repro.analysis.engine import run_lint

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="module")
def config():
    return load_config(FIXTURES / "analysis.toml")


def lint(config, *names):
    return run_lint([FIXTURES / name for name in names],
                    config=config, root=FIXTURES)


def line_of(name, needle):
    """1-based line number of the first fixture line containing needle."""
    for number, text in enumerate(
            (FIXTURES / name).read_text().splitlines(), 1):
        if needle in text:
            return number
    raise AssertionError(f"{needle!r} not found in {name}")


class TestLockOrder:
    def test_inversion_reported_with_full_chain(self, config):
        result = lint(config, "lockorder_bad.py")
        assert [f.rule for f in result.new] == ["lock-order"]
        finding = result.new[0]
        assert finding.key == (
            "lock-order:lockorder_bad.py:Widget.backwards:inner->outer")
        assert "inverting the declared order" in finding.message
        # Full acquisition chain, file:line for both edges plus the hop.
        assert [(hop["file"], hop["line"]) for hop in finding.chain] == [
            ("lockorder_bad.py", line_of("lockorder_bad.py",
                                         "with self._inner:")),
            ("lockorder_bad.py", line_of("lockorder_bad.py",
                                         "self._take_outer()")),
            ("lockorder_bad.py", line_of("lockorder_bad.py",
                                         "with self._outer:")),
        ]
        assert finding.chain[0]["note"] == "inner acquired here"
        assert finding.chain[-1]["note"] == "Widget._take_outer acquires outer"

    def test_forward_nesting_through_helper_is_clean(self, config):
        result = lint(config, "lockorder_ok.py")
        assert result.findings == []


class TestGuardedAttribute:
    def test_unlocked_write_flagged(self, config):
        result = lint(config, "guarded_bad.py")
        assert [f.rule for f in result.new] == ["guarded-attribute"]
        finding = result.new[0]
        assert finding.key == (
            "guarded-attribute:guarded_bad.py:Counter.bump:Counter.value")
        assert finding.line == line_of("guarded_bad.py", "self.value += 1")
        assert "'counter.lock'" in finding.message
        # Chain points back at the guarded-by declaration site.
        assert finding.chain[0]["line"] == line_of(
            "guarded_bad.py", "guarded-by: counter.lock")

    def test_locked_write_and_locked_suffix_are_clean(self, config):
        result = lint(config, "guarded_ok.py")
        assert result.findings == []


class TestBlockingUnderLock:
    def test_transitive_send_under_routing_lock_flagged(self, config):
        result = lint(config, "blocking_bad.py")
        assert [f.rule for f in result.new] == ["blocking-under-lock"]
        finding = result.new[0]
        assert finding.key == (
            "blocking-under-lock:blocking_bad.py:Router.publish"
            ":route.lock:send")
        assert "blocking call send()" in finding.message
        assert [(hop["file"], hop["line"]) for hop in finding.chain] == [
            ("blocking_bad.py", line_of("blocking_bad.py",
                                        "with self._route_lock:")),
            ("blocking_bad.py", line_of("blocking_bad.py",
                                        "self._push(payload)")),
            ("blocking_bad.py", line_of("blocking_bad.py",
                                        "self._conn.send(payload)")),
        ]

    def test_send_after_lock_release_is_clean(self, config):
        result = lint(config, "blocking_ok.py")
        assert result.findings == []


class TestInheritedLocks:
    """Locks, guarded attributes and helpers declared on a base class in
    another module still bind in its subclasses, and a base template
    method holding a lock reaches the subclass's hook override."""

    def test_subclass_violations_flagged_across_modules(self, config):
        result = lint(config, "inherit_base.py", "inherit_bad.py")
        assert sorted(f.key for f in result.new) == [
            "blocking-under-lock:inherit_base.py:TableBase.publish"
            ":table.lock:send",
            "guarded-attribute:inherit_bad.py:Transport.peek:TableBase.table",
            "lock-order:inherit_bad.py:Transport.backwards"
            ":cache.lock->table.lock",
        ]
        by_rule = {f.rule: f for f in result.new}
        assert [(hop["file"], hop["line"])
                for hop in by_rule["lock-order"].chain] == [
            ("inherit_bad.py", line_of("inherit_bad.py",
                                       "with self._cache_lock:")),
            ("inherit_bad.py", line_of("inherit_bad.py",
                                       "self._take_table()")),
            ("inherit_base.py", line_of("inherit_base.py",
                                        "with self._table_lock:")),
        ]
        assert [(hop["file"], hop["line"])
                for hop in by_rule["blocking-under-lock"].chain] == [
            ("inherit_base.py", line_of("inherit_base.py",
                                        "held across the hook")),
            ("inherit_base.py", line_of("inherit_base.py",
                                        "self._deliver(payload)")),
            ("inherit_bad.py", line_of("inherit_bad.py",
                                       "self._conn.send(payload)")),
        ]

    def test_subclass_following_the_rules_is_clean(self, config):
        result = lint(config, "inherit_base.py", "inherit_ok.py")
        assert result.findings == []


class TestExceptionTaxonomy:
    def test_raw_valueerror_flagged(self, config):
        result = lint(config, "taxonomy_bad.py")
        assert [f.rule for f in result.new] == ["exception-taxonomy"]
        finding = result.new[0]
        assert finding.key == (
            "exception-taxonomy:taxonomy_bad.py:parse_scale:ValueError")
        assert "cannot be baselined" in finding.message

    def test_taxonomy_subclass_allowed_and_reraise_are_clean(self, config):
        result = lint(config, "taxonomy_ok.py")
        assert result.findings == []


class TestInlineSuppression:
    def test_ignore_comment_drops_the_finding(self, config, tmp_path):
        module = tmp_path / "suppressed.py"
        module.write_text(
            "def bad():\n"
            "    raise ValueError('x')"
            "  # analysis: ignore[exception-taxonomy]\n"
        )
        result = run_lint([module], config=config, root=tmp_path)
        assert result.findings == []

    def test_ignore_comment_is_rule_specific(self, config, tmp_path):
        module = tmp_path / "suppressed.py"
        module.write_text(
            "def bad():\n"
            "    raise ValueError('x')  # analysis: ignore[lock-order]\n"
        )
        result = run_lint([module], config=config, root=tmp_path)
        assert [f.rule for f in result.new] == ["exception-taxonomy"]
