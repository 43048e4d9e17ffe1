"""Machine-speed gauge: a fixed reference kernel timed between operations.

The benchmark shares its machine with other tenants, and the speed it gets
drifts by up to 1.5x over seconds to minutes.  The gauge times a fixed
kernel of the kind of work the library does (small complex LAPACK calls,
einsum, Python loops, JSON) about five times a second, and the benchmark
scales each op time by ``REFERENCE_S / (median of the last few samples)``:
the time the op would take when the kernel runs in ``REFERENCE_S``.  The
raw times are kept in the result file.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# median time of one kernel sample on the 2-vCPU x86_64 sandbox (Python
# 3.11, numpy 2.4, OpenBLAS) where the baseline was taken
REFERENCE_S = 0.0035
SAMPLE_EVERY_S = 0.2
WINDOW = 7

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))
_B = _RNG.standard_normal((6, 3)) + 0j
_DOC = {"entries": [[0.5, -1.25]] * 36, "dims": [2, 3, 6]}


def kernel_seconds() -> float:
    """Time of one run of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(20):
        np.linalg.svd(_A)
        np.linalg.eigh(_A @ _A.conj().T)
        np.linalg.lstsq(_A, _B, rcond=None)
        np.einsum("ij,jk->ik", _A, _A)
        sum(i * i for i in range(150))
        json.loads(json.dumps(_DOC))
    return time.perf_counter() - t0


class Gauge:
    def __init__(self):
        self.samples = [kernel_seconds() for _ in range(WINDOW)]
        self._last = time.perf_counter()

    def factor(self) -> float:
        """Scale for the next op time, sampling the kernel when due."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.samples.append(kernel_seconds())
            self._last = time.perf_counter()
        return REFERENCE_S / statistics.median(self.samples[-WINDOW:])


def factor_now() -> float:
    """Scale from WINDOW back-to-back samples, for a one-off measurement."""
    return REFERENCE_S / statistics.median(kernel_seconds() for _ in range(WINDOW))
