"""Blocking-under-lock checker.

The routing lock serialises every request's shard lookup; holding it
across a pipe RPC, fsync, file write, or solver call would turn one
slow worker into a fleet-wide stall.  This checker flags any call that
is blocking — by name (``send``, ``fsync``, ``solve``, ...) or
transitively, through any resolvable chain of repo functions that ends
in one — made while a lock listed in ``[blocking].no_blocking_under``
is held.
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.model import FunctionInfo, Program

RULE = "blocking-under-lock"


def blocking_closure(program: Program) -> dict[int, dict[str, list]]:
    """``id(func) -> {blocking call name: witness chain}`` fixpoint.

    A call counts as directly blocking when its name is configured
    blocking *and* it does not resolve to a repo function (a repo
    method that happens to be called ``flush`` is judged by what it
    does, not its name).
    """
    blocking_names = set(program.config.blocking_calls)
    closure: dict[int, dict[str, list]] = {}
    resolved: dict[tuple[int, int], list[FunctionInfo]] = {}
    for func in program.functions:
        mine: dict[str, list] = {}
        for index, site in enumerate(func.calls):
            callees = program.resolve_targets(site, func)
            resolved[(id(func), index)] = callees
            if not callees and site.callee in blocking_names:
                mine.setdefault(site.callee, [{
                    "file": func.file, "line": site.line,
                    "note": f"{func.qualname} calls {site.callee}()",
                }])
        closure[id(func)] = mine
    changed = True
    while changed:
        changed = False
        for func in program.functions:
            mine = closure[id(func)]
            for index, site in enumerate(func.calls):
                for callee in resolved[(id(func), index)]:
                    if callee is func:
                        continue
                    for name, chain in closure[id(callee)].items():
                        if name in mine:
                            continue
                        mine[name] = [{
                            "file": func.file, "line": site.line,
                            "note": f"{func.qualname} calls "
                                    f"{callee.qualname}",
                        }] + chain
                        changed = True
    return closure


def check(program: Program) -> list[Finding]:
    config = program.config
    forbidden = set(config.no_blocking_under)
    if not forbidden or not config.blocking_calls:
        return []
    closure = blocking_closure(program)
    blocking_names = set(config.blocking_calls)
    findings: list[Finding] = []
    seen: set[str] = set()

    def report(func: FunctionInfo, lock, name: str, chain: list) -> None:
        key = f"{RULE}:{func.file}:{func.qualname}:{lock.lock}:{name}"
        if key in seen:
            return
        seen.add(key)
        findings.append(Finding(
            rule=RULE, file=func.file, line=chain[0]["line"],
            message=(
                f"{func.qualname}: blocking call {name}() reached while "
                f"holding {lock.lock!r} (acquired at "
                f"{lock.file}:{lock.line}); no RPC/fsync/file/solver "
                f"work may run under this lock"
            ),
            key=key,
            chain=[{
                "file": lock.file, "line": lock.line,
                "note": f"{lock.lock} acquired here",
            }] + chain))

    for func in program.functions:
        for site in func.calls:
            locks = [h for h in site.held if h.lock in forbidden]
            if not locks:
                continue
            callees = program.resolve_targets(site, func)
            if not callees and site.callee in blocking_names:
                for lock in locks:
                    report(func, lock, site.callee, [{
                        "file": func.file, "line": site.line,
                        "note": f"{func.qualname} calls {site.callee}()",
                    }])
            for callee in callees:
                for name, chain in closure[id(callee)].items():
                    for lock in locks:
                        report(func, lock, name, [{
                            "file": func.file, "line": site.line,
                            "note": f"{func.qualname} calls "
                                    f"{callee.qualname}",
                        }] + chain)
    return findings
