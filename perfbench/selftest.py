"""Tiny-scale self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload end to end at scale 0.15 for one second, untraced and
traced, in this process through ``run.run``, and asserts that each run's
output checks pass, that its result object has exactly the keys the
benchmark prints, and that it carries exactly the metrics
``BENCHMARK.json`` names, each with its unit. Finally it runs the
benchmark's command line in a directory holding only ``BENCHMARK.json``
and the benchmark's own files, and checks that it fails cleanly, without a
result. Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 180
SCALE = 0.15

sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
from perfbench import common, run  # noqa: E402


def _check_run(spec: dict, workload: str, trace: int) -> None:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.run(workload, seed=3, seconds=1.0, trace=bool(trace),
                         scale=SCALE)
    json.loads(json.dumps(result))  # printable as the result line
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, f"{workload}: {printed.getvalue()}"
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    assert set(result["metrics"]) == set(units), \
        sorted(set(result["metrics"]) ^ set(units))
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name], (name, entry)
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            (name, value)
        if not trace:
            assert value > 0, f"{workload} {name} is {value}"
    if trace:
        assert any(line.startswith("ledger:") for line in
                   printed.getvalue().splitlines()), "no ledger printed"
        assert result["metrics"]["fleet.restarts"]["value"] == 0
    print(f"ok  {workload} trace={trace}: {result['attempted']} operations "
          "attempted")


def _check_bare_directory() -> None:
    with common.scratch_dir(ROOT, "bare-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "server_cold_open", "--seed", "3", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S)
        assert done.returncode != 0, "ran without the library"
        assert '"correct"' not in done.stdout, "printed a result"
    print("ok  fails without a result where only the benchmark exists")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    assert names == ["http_warm_zipf", "server_cold_open",
                     "fleet_read_write"], names
    for workload in names:
        for trace in (0, 1):
            _check_run(spec, workload, trace)
    _check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
