"""Lock-order checker: inter-procedural acquisition-edge validation.

Builds, for every function, the set of locks it may transitively
acquire (with a witness chain of call hops down to the actual ``with``
statement), then validates every acquisition edge — lock B taken while
lock A is held — against the linear order declared in analysis.toml.
An edge whose ranks run backwards is an inversion; re-acquiring a
non-reentrant lock is a self-deadlock; edges among unranked locks are
collected into a witness graph and flagged when they form a cycle.
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.model import FunctionInfo, HeldLock, Program

RULE = "lock-order"


def transitive_acquires(program: Program) -> dict[int, dict[str, list]]:
    """``id(func) -> {lock: witness chain}`` fixpoint over the call graph.

    A witness chain is ``[{"file", "line", "note"}, ...]`` from the
    first call hop down to the ``with`` statement that takes the lock.
    """
    acquired: dict[int, dict[str, list]] = {}
    for func in program.functions:
        mine: dict[str, list] = {}
        for acq in func.acquires:
            mine.setdefault(acq.lock, [{
                "file": func.file, "line": acq.line,
                "note": f"{func.qualname} acquires {acq.lock}",
            }])
        acquired[id(func)] = mine
    resolved: dict[tuple[int, int], list[FunctionInfo]] = {}
    for func in program.functions:
        for index, site in enumerate(func.calls):
            resolved[(id(func), index)] = program.resolve_targets(site, func)
    changed = True
    while changed:
        changed = False
        for func in program.functions:
            mine = acquired[id(func)]
            for index, site in enumerate(func.calls):
                for callee in resolved[(id(func), index)]:
                    if callee is func:
                        continue
                    for lock, chain in acquired[id(callee)].items():
                        if lock in mine:
                            continue
                        mine[lock] = [{
                            "file": func.file, "line": site.line,
                            "note": f"{func.qualname} calls "
                                    f"{callee.qualname}",
                        }] + chain
                        changed = True
    return acquired


def check(program: Program) -> list[Finding]:
    config = program.config
    acquired = transitive_acquires(program)
    findings: list[Finding] = []
    seen: set[str] = set()
    # Witness graph over every edge (including legal ones) for the
    # cycle pass: (A, B) -> representative chain.
    edges: dict[tuple[str, str], tuple[FunctionInfo, list]] = {}

    def consider(func: FunctionInfo, held: HeldLock, lock: str,
                 chain: list) -> None:
        full_chain = [{
            "file": held.file, "line": held.line,
            "note": f"{held.lock} acquired here",
        }] + chain
        edges.setdefault((held.lock, lock), (func, full_chain))
        rank_held = config.rank(held.lock)
        rank_next = config.rank(lock)
        message = None
        if held.lock == lock:
            spec = config.spec(lock)
            if spec is not None and not spec.reentrant:
                message = (
                    f"re-acquires non-reentrant lock {lock!r} while "
                    "already holding it (self-deadlock)"
                )
        elif (rank_held is not None and rank_next is not None
                and rank_held > rank_next):
            message = (
                f"acquires {lock!r} while holding {held.lock!r}, "
                f"inverting the declared order "
                f"({lock!r} ranks before {held.lock!r} in analysis.toml)"
            )
        if message is None:
            return
        key = f"{RULE}:{func.file}:{func.qualname}:{held.lock}->{lock}"
        if key in seen:
            return
        seen.add(key)
        findings.append(Finding(
            rule=RULE, file=func.file, line=full_chain[-1]["line"]
            if full_chain[-1]["file"] == func.file else func.line,
            message=f"{func.qualname}: {message}",
            key=key, chain=full_chain))

    for func in program.functions:
        for acq in func.acquires:
            for held in acq.held:
                consider(func, held, acq.lock, [{
                    "file": func.file, "line": acq.line,
                    "note": f"{func.qualname} acquires {acq.lock}",
                }])
        for site in func.calls:
            if not site.held:
                continue
            for callee in program.resolve_targets(site, func):
                for lock, chain in acquired[id(callee)].items():
                    for held in site.held:
                        consider(func, held, lock, [{
                            "file": func.file, "line": site.line,
                            "note": f"{func.qualname} calls "
                                    f"{callee.qualname}",
                        }] + chain)

    findings.extend(_cycle_findings(program, edges, seen))
    return findings


def _cycle_findings(program: Program, edges, seen: set[str]):
    """Flag cycles among edges the rank check could not order.

    With a total declared order, every ranked inversion is already a
    finding; this pass catches cycles through *unranked* locks, which
    have no rank to invert.
    """
    graph: dict[str, set[str]] = {}
    for (a, b), _ in edges.items():
        if a != b:
            graph.setdefault(a, set()).add(b)
    out = []
    for (a, b), (func, chain) in sorted(edges.items()):
        if a == b:
            continue
        if program.config.rank(a) is not None \
                and program.config.rank(b) is not None:
            continue  # rank pass owns ordered pairs
        if _reaches(graph, b, a):
            key = f"{RULE}:{func.file}:{func.qualname}:cycle:{a}->{b}"
            if key in seen:
                continue
            seen.add(key)
            out.append(Finding(
                rule=RULE, file=func.file, line=chain[-1]["line"],
                message=(
                    f"{func.qualname}: acquisition cycle — {a!r} is taken "
                    f"before {b!r} here, but {b!r} is also taken before "
                    f"{a!r} elsewhere (potential deadlock)"
                ),
                key=key, chain=chain))
    return out


def _reaches(graph: dict[str, set[str]], start: str, goal: str) -> bool:
    stack, visited = [start], set()
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        if node in visited:
            continue
        visited.add(node)
        stack.extend(graph.get(node, ()))
    return False
