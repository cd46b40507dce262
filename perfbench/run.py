"""Serving-stack benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload http_warm_zipf --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root; the library is imported from ``src``.
Workloads (reasons in ``BENCHMARK.json``):

* ``http_warm_zipf`` — open-loop Poisson requests at 200/s over two
  keep-alive connections to an HTTP server child (``serve-http``
  defaults), Zipf-skewed users, every answer a result-cache hit;
* ``server_cold_open`` — open-loop Poisson coroutine arrivals at 200/s
  into an in-process ``BatchingServer`` over an engine with no result
  cache, uniform users, so every request is solved;
* ``fleet_read_write`` — a one-thread closed loop against a 2-worker
  ``ProcessShardFleet``: 9 reads of 16 Zipf users per write of 8 events.

``--trace 0`` measures with no tracing installed and reports the
end-to-end metrics. ``--trace 1`` measures the same inputs untraced and
then traced, and reports the per-layer metrics, including the tracing
overhead, after printing the layer ledger; the spans are written to
``.perfbench_tmp/spans-<workload>-seed<seed>.json``. Layers that cannot be wrapped
(the fleet's worker processes) are measured as a ladder: the same
operations are replayed on the in-process ``ShardedEngine`` and the
difference is what the fleet adds.

Every output is checked: HTTP and ``BatchingServer`` answers against a
direct ``engine.recommend``, fleet reads and writes against an in-process
replay of the same operations. A failed or mismatched operation counts in
``failed``; ``correct`` is false when any did, or when a process the run
started was still running after the run. Bytes moved by the solver are
computed from the matrix and dense-block sizes, not measured.

Exit status is 0 when a result was printed, non-zero otherwise (for
example when ``src`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    parser = argparse.ArgumentParser(description="serving-stack benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("http_warm_zipf", "server_cold_open",
                                 "fleet_read_write"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> dict:
    """One measured run; returns the result object ``main`` prints.

    ``scale`` sizes the model data; the benchmark runs at 1.0 and only the
    self-test runs smaller.
    """
    from perfbench import common
    from perfbench.workloads import E2E_UNITS, LAYER_UNITS, WORKLOADS

    with common.scratch_dir(ROOT, "run-") as run_dir:
        outcome = WORKLOADS[workload](ROOT, run_dir, seed, seconds, trace,
                                      scale=scale)
    problems = list(outcome.problems)
    survivors = common.wait_children_gone(5.0)
    if survivors:
        problems.append(f"processes left running: {survivors}")
    if trace:
        metrics = {name: {"value": outcome.layers[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        for line in outcome.ledger:
            print(line)
        spans_path = os.path.join(ROOT, ".perfbench_tmp",
                                  f"spans-{workload}-seed{seed}.json")
        with open(spans_path, "w") as handle:
            json.dump(outcome.spans, handle)
        print(f"spans: {len(outcome.spans)} written to {spans_path}")
    else:
        metrics = {name: {"value": outcome.e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    for name, entry in metrics.items():
        print(f"{workload} {name} = {entry['value']:.6g} {entry['unit']}")
    if outcome.layers.get("loadgen.behind"):
        print(f"FLAG: the load generator fell behind (lag p99 "
              f"{outcome.layers['loadgen.lag_ms_p99']:.2f} ms, completed "
              f"{outcome.layers['loadgen.completed']:.0f} of "
              f"{outcome.layers['loadgen.offered']:.0f} offered)")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(f"{workload}: attempted {outcome.attempted}, failed "
          f"{outcome.failed}, error_rate "
          f"{outcome.layers['checks.error_rate']:.6g}")
    return {
        "correct": outcome.failed == 0 and not problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"error: cannot import the library from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
