"""Kernel probes at fixed seeds, timed outside the tracer.

``det_poly`` on one random n x n x 3 tensor for n = 2..8 (n <= 6 takes the
symbolic path, larger n the interpolation path), and one CP-ALS iteration
from ``cp_als(t, 3, restarts=1, tol=0, stall_tol=0, max_iter=K)`` on a fixed
random 3 x 3 x 3 tensor: with both tolerances 0 no early exit fires, so the
call runs exactly K iterations.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import slocc3

ALS_ITERS = 200
MIN_REPS = 5
MIN_PROBE_S = 0.02


def _median_call_s(fn):
    """Median time of one call over at least MIN_REPS calls and MIN_PROBE_S,
    and the number of calls."""
    times = []
    while len(times) < MIN_REPS or sum(times) < MIN_PROBE_S:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def _tensor(seed, dims):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)


def kernel_probes():
    """Probe metrics, and the number of calls behind each median."""
    out, reps = {}, {}
    for n in range(2, 9):
        t = _tensor(n, (n, n, 3))
        name = f"detpoly.det_poly.n{n}_us"
        median, reps[name] = _median_call_s(lambda: slocc3.det_poly(t))
        out[name] = median * 1e6
    t = _tensor(9, (3, 3, 3))
    median, reps["rank.als_iter_us"] = _median_call_s(lambda: slocc3.cp_als(
        t, 3, restarts=1, tol=0.0, stall_tol=0.0, max_iter=ALS_ITERS))
    out["rank.als_iter_us"] = median / ALS_ITERS * 1e6
    return out, reps
