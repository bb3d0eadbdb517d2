"""Host-speed reference: a fixed kernel timed next to every set-up and op.

On a shared host the speed of a core drifts by up to about 1.5x for tens of
seconds to minutes at a time (other tenants on the same physical cores).
Interpreter work and small numpy calls slow by about the full factor while it
lasts; streaming numpy over large arrays slows much less. A 30 s run can fall
wholly inside a slow or a fast spell, so on the search workloads, which are
made of the first kind of work, the raw op times of identical code moved by
15-30% between runs.

For a workload marked ``rescaled`` the benchmark therefore reports each
set-up and op in *reference seconds*:

    wall_s * NOMINAL_S / kernel_s

where ``kernel_s`` is the mean of the kernel passes right before and right
after it. That is the wall time rescaled to a host on which the kernel takes
``NOMINAL_S``; on a quiet host it is close to the plain wall time. The kernel
lives in the benchmark, not in ``src``, so a change to the program cannot
change it; a faster program gives a smaller time and nothing else. The sweep
workload is not rescaled: its ops are mostly streaming numpy, its raw times
stay steady, and rescaling them by this kernel only added the kernel's noise.

The kernel mixes interpreter work (loops, dict stores), small numpy calls
dominated by call overhead (a 16x16 fancy gather) and a streaming pass over
an array larger than the core's own caches. Each part is the fastest of
several repeats, so a single interruption does not count as a slow host.
"""

import time

import numpy as np

# kernel time on a quiet 2-core Xeon host (Python 3.11.7, numpy 2.4.6)
NOMINAL_S = 0.0055
REPEATS = 5

_TABLE = np.linspace(0.0, 1.0, 441 * 441).reshape(441, 441)
_IDX = (np.arange(16) * 27) % 441
_BIG = np.linspace(0.0, 1.0, 1_000_000)  # 8 MB: adds 8 MB to the worker's peak RSS


def _interpreter():
    acc, table = 0, {}
    for i in range(10_000):
        acc += (i * i) % 7
        table[i & 255] = acc


def _small_numpy():
    total = 0.0
    for i in range(300):
        total += float(_TABLE[np.ix_(_IDX, (_IDX + i) % 441)].sum())


def _streaming():
    np.sqrt(_BIG, out=_BIG)  # values tend to 1 and stay finite
    float(_BIG.sum())


def kernel_s() -> float:
    """Seconds of one pass of the reference kernel: the sum over its parts of
    each part's fastest of ``REPEATS`` runs."""
    total = 0.0
    for part in (_interpreter, _small_numpy, _streaming):
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - t0)
        total += best
    return total


def reference_s(wall_s: float, ref_kernel_s: float) -> float:
    """``wall_s`` rescaled to a host on which the kernel takes ``NOMINAL_S``."""
    return wall_s * NOMINAL_S / ref_kernel_s
