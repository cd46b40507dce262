"""The repo's own source must lint clean against the committed
baseline, with zero exception-taxonomy findings (which can never be
baselined) and no stale or unjustified baseline entries."""

from pathlib import Path

import pytest

from repro.analysis import blocking, lock_order
from repro.analysis.config import load_config
from repro.analysis.engine import run_lint
from repro.analysis.findings import Baseline

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def repo_lint():
    config = load_config(REPO / "analysis.toml")
    baseline = Baseline.load(REPO / "analysis-baseline.json")
    result = run_lint([REPO / "src"], config=config, baseline=baseline)
    return result, baseline


def test_src_is_clean_against_committed_baseline(repo_lint):
    result, _ = repo_lint
    assert [f.render() for f in result.new] == []


def test_zero_taxonomy_findings_not_even_baselined(repo_lint):
    result, _ = repo_lint
    taxonomy = [f.render() for f in result.findings
                if f.rule == "exception-taxonomy"]
    assert taxonomy == []


def test_baseline_has_no_stale_entries(repo_lint):
    result, baseline = repo_lint
    current = {f.key for f in result.findings}
    stale = sorted(set(baseline.entries) - current)
    assert stale == []


def test_every_baseline_entry_is_justified(repo_lint):
    _, baseline = repo_lint
    unjustified = sorted(
        key for key, why in baseline.entries.items()
        if not why.strip() or why.startswith("TODO"))
    assert unjustified == []


def test_router_code_stays_covered(repo_lint):
    """The shard router lives in its own module; the checks must still
    see the fleet's WAL-replay absorb take ``_routing_lock``, the router's
    template methods reach the fleet's RPC hooks, and the router tables'
    guarded-by declarations."""
    result, _ = repo_lint
    program = result.program
    by_name = {f.qualname: f for f in program.functions}
    acquired = lock_order.transitive_acquires(program)
    replay = by_name["ProcessShardFleet._replay_wal_locked"]
    assert "_routing_lock" in acquired[id(replay)]
    closure = blocking.blocking_closure(program)
    assert "send" in closure[id(by_name["ShardRouter._apply_updates"])]
    guarded = {(d.klass, d.attr): d.lock for d in program.guarded}
    assert guarded[("ShardRouter", "_user_shard")] == "_routing_lock"
    assert guarded[("ShardRouter", "_rows")] == "router._lock"
