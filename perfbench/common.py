"""Shared pieces: seeded draws, percentiles, memory, processes, roofline."""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import tempfile
import time

import numpy as np

#: Zipf exponent of the skewed user draws.
ZIPF_S = 1.1
#: Set-ups per run; ``setup_s`` is their median.
SETUP_BOOTS = 9
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def metric_units(section: str) -> dict:
    """Name -> unit of every metric ``BENCHMARK.json`` lists in ``section``
    (``end_to_end`` or ``per_layer``), in the order listed there."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def percentile(samples, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default); 0.0 if empty.

    The benchmark keeps its own copy rather than measuring with the
    library's ``percentile``, which is part of the code under test.
    """
    data = sorted(samples)
    if not data:
        return 0.0
    rank = (len(data) - 1) * q / 100.0
    low, high = math.floor(rank), math.ceil(rank)
    return data[low] + (data[high] - data[low]) * (rank - low)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- seeded inputs ---------------------------------------------------------------

def zipf_users(rng: np.random.Generator, n_users: int, size) -> np.ndarray:
    """Zipf(s=1.1)-skewed user ids; the rank-to-user map is a seeded shuffle."""
    weights = 1.0 / np.arange(1, n_users + 1) ** ZIPF_S
    order = rng.permutation(n_users)
    ranks = rng.choice(n_users, size=size, p=weights / weights.sum())
    return order[ranks]


def poisson_schedule(rng: np.random.Generator, rate: float,
                     seconds: float) -> np.ndarray:
    """Due times (s, ascending) of a Poisson stream over ``[0, seconds)``.

    Conditioned on its count, a Poisson process places its arrivals as
    sorted uniform draws; fixing the count at ``rate * seconds`` keeps the
    offered load identical across seeds while the arrival pattern varies.
    """
    count = max(int(round(rate * seconds)), 1)
    return np.sort(rng.uniform(0.0, seconds, size=count))


# -- processes and memory --------------------------------------------------------

def pss_mb(pids) -> float:
    """Summed proportional set size of ``pids`` in MiB (Linux smaps_rollup)."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def live_children() -> list[int]:
    """Pids of this process's children that are still running (not zombies)."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if fields[1] == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def wait_children_gone(timeout_s: float) -> list[int]:
    """Wait up to ``timeout_s`` for every child to end; returns survivors."""
    deadline = time.monotonic() + timeout_s
    while True:
        alive = live_children()
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


def timed_boots(boot, count: int, close=None):
    """Set a serving stack up ``count`` times, timing each ``boot(index)``.

    Returns the last stack (the one that serves) and the seconds of every
    boot. Earlier stacks are closed and their garbage collected before
    the next boot, so that it lands neither in a boot's time nor in the
    memory measured later.
    """
    stack, seconds = None, []
    for index in range(count):
        if stack is not None and close is not None:
            close(stack)
        stack = None
        gc.collect()
        start = time.perf_counter()
        stack = boot(index)
        seconds.append(time.perf_counter() - start)
    return stack, seconds


def scratch_dir(root: str, prefix: str) -> tempfile.TemporaryDirectory:
    """A fresh directory under ``<root>/.perfbench_tmp``, removed on exit."""
    base = os.path.join(root, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=prefix, dir=base)


# -- solver roofline ---------------------------------------------------------------

def spmm_bytes(n: int, nnz: int, idx_bytes: int, val_bytes: int,
               columns: int) -> int:
    """Bytes one ``Y += P @ X`` call moves, computed from the operand sizes.

    The CSR matrix is read once (values, column indices, row pointers),
    ``X`` is read once and ``Y`` is read and written once. Reuse of ``X``
    rows out of cache is not counted, so this is the compulsory traffic.
    """
    matrix = nnz * (idx_bytes + val_bytes) + (n + 1) * idx_bytes
    return matrix + 3 * n * columns * val_bytes


def solve_bytes(attrs: dict) -> int:
    """Computed bytes of one ``solve_multi`` call: ``tau - 1`` SpMM sweeps
    per column chunk (the first sweep is the pinned cost column)."""
    columns, chunk = attrs["columns"], max(attrs["chunk"], 1)
    total = 0
    for lo in range(0, columns, chunk):
        width = min(chunk, columns - lo)
        total += (attrs["tau"] - 1) * spmm_bytes(
            attrs["n"], attrs["nnz"], attrs["idx_bytes"], attrs["val_bytes"],
            width)
    return total


def peak_spmm_gbps(operator, dtype: str, budget_s: float = 0.6) -> float:
    """STREAM-style probe: the bare ``csr_matvecs`` kernel on ``operator``'s
    matrix at a few column counts; the best computed GB/s is the peak."""
    from scipy.sparse._sparsetools import csr_matvecs

    matrix = operator.matrix(dtype)
    n = matrix.shape[0]
    np_dtype = np.float32 if dtype == "float32" else np.float64
    rng = np.random.default_rng(0)
    best = 0.0
    widths = (1, 8, 32)
    for width in widths:
        x = rng.random((n, width)).astype(np_dtype)
        y = np.zeros((n, width), dtype=np_dtype)
        moved = spmm_bytes(n, matrix.nnz, matrix.indices.dtype.itemsize,
                           np.dtype(np_dtype).itemsize, width)
        times = []
        stop = time.perf_counter() + budget_s / len(widths)
        while time.perf_counter() < stop or len(times) < 5:
            start = time.perf_counter()
            csr_matvecs(n, matrix.shape[1], width, matrix.indptr,
                        matrix.indices, matrix.data, x.ravel(), y.ravel())
            times.append(time.perf_counter() - start)
        best = max(best, moved / median(times) / 1e9)
    return best
