"""Fixed reference kernels that tell how fast the machine runs right now.

On a shared 2-core box the speed of the same process drifts by up to 1.9x
over tens of seconds (every core alike, CPU time along with wall time), so
raw wall times of ten runs spread by 25-50% of their median. The benchmark
therefore times a reference kernel between calls and reports each time
scaled to the kernel's nominal duration (set-up is scaled by the ``mixed``
kernel timed right after it, cold CLI processes by a reference process,
see REF_PROCESS_ARGS):

    scaled = measured * nominal / reference time measured alongside

The kernels' work resembles the program's: interpreter-bound loops over
2x2 numpy products and norms, a 16x16 SVD, complex GEMMs. They never call
gamowlab, so a change to the program cannot move them. The raw times are
kept in the run's details.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Reference time after each call, as a share of the call's own time.
REF_SHARE = 0.1

#: Arguments to the interpreter for the reference process that scales a cold
#: CLI run: process start-up and a numpy import, timed before and after it.
#: Start-up drifts differently from computation, so it needs its own reference.
REF_PROCESS_ARGS = ["-c", "import numpy"]

#: Typical wall time of the reference process on the same box.
REF_PROCESS_NOMINAL_S = 0.15

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(2, 2)) + 1j * _rng.normal(size=(2, 2))
_B = _A.T.copy()
_M16 = _rng.normal(size=(16, 16)) + 1j * _rng.normal(size=(16, 16))
_M64 = _rng.normal(size=(64, 64)) + 1j * _rng.normal(size=(64, 64))
_M128 = _rng.normal(size=(128, 128)) + 1j * _rng.normal(size=(128, 128))


def _small() -> None:
    acc = 0.0
    for _ in range(100):
        c = _A @ _B - _B @ _A
        acc += float(np.linalg.norm(c)) + sum(range(40))


def _mixed() -> None:
    _small()
    np.linalg.svd(_M16)
    _M64 @ _M64


def _gemm() -> None:
    for _ in range(4):
        _M128 @ _M128


#: Reference kernels: name -> (one pass, its typical duration on the 2-core
#: box that set the baseline). The nominal duration only fixes the scale of
#: the reported times. Each workload is scaled by the kernel whose work is
#: most like its own (``workloads.WORKLOADS``): the per-call ratio of
#: program to reference time then varies least.
KERNELS = {
    "small": (_small, 0.0012),  # interpreter-bound 2x2 products and norms
    "mixed": (_mixed, 0.0015),  # the same plus a 16x16 SVD and a 64x64 GEMM
    "gemm": (_gemm, 0.0019),  # 128x128 complex GEMMs
}


def reference_s(kernel: str, min_s: float = 0.0) -> float:
    """Mean wall time of one pass of ``kernel``.

    Passes repeat until together they last at least ``min_s`` (one pass at
    least), so a long call is matched by a reference long enough to average
    out the machine's speed over a comparable stretch.
    """
    one_pass = KERNELS[kernel][0]
    t0 = time.perf_counter()
    passes, elapsed = 0, 0.0
    while passes == 0 or elapsed < min_s:
        one_pass()
        passes += 1
        elapsed = time.perf_counter() - t0
    return elapsed / passes


def scale(times: list[float], refs: list[float], kernel: str) -> list[float]:
    """Scale each time by the mean of the ``kernel`` timings just before and after it.

    ``refs[i]`` is timed right after ``times[i]``, so the first call has
    only the reference after it.
    """
    nominal = KERNELS[kernel][1]
    return [t * nominal / ((refs[i - 1] + refs[i]) / 2 if i else refs[0]) for i, t in enumerate(times)]


def local_reference_s() -> float:
    """Median of five ``mixed`` kernel timings taken now."""
    return statistics.median(reference_s("mixed") for _ in range(5))
