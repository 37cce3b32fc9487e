"""Host-speed reference kernels for the in-process workloads.

The benchmark host runs at two speeds: neighbours on the same physical cores
slow every instruction by ~1.5x, for periods from a fraction of a second to
minutes. CPU time slows with wall time, so neither can separate the
program's cost from the host's state. Each op is therefore also reported
relative to a fixed kernel timed right before and right after it:

    normalized = wall time * REFERENCE_S / mean(kernel before, kernel after)

The kernels use numpy and scipy only, never impostoron, so a change to the
program cannot change them. Each imitates the character of one workload's
hot path, because the slow state hits scalar dispatch, vector code and
process start differently.
REFERENCE_S is the kernel's time in the host's fast state (Intel Xeon,
2 vCPUs, Python 3.11, numpy 2.4, scipy 1.17), so a normalized time reads as the wall time
that state gives.
"""

import subprocess
import sys
from time import perf_counter

import numpy as np

_VEC = np.random.default_rng(0).normal(size=1 << 15)
_MAT = np.random.default_rng(1).normal(size=(512, 512))


def scalar():
    """numpy calls on 0-d values, as eval_neat and cm_mix make on scalars."""
    for _ in range(150):
        y = np.asarray(0.7) * 2.0 + 1j
        z = np.abs(y) ** 2
        np.any(z < 0)


def vector():
    """FFT, matrix-vector product and sort on 32k doubles, as in signal."""
    for _ in range(2):
        np.fft.rfft(_VEC)
        _MAT @ _VEC[:512]
        np.sort(_VEC)


def imports():
    """A Python process that imports numpy and scipy.optimize, as a CLI call does."""
    subprocess.run([sys.executable, "-c", "import numpy, scipy.optimize"], check=True)


#: Fast-state time of each kernel (s): the 25th percentile of 3000 calls
#: (187 of `imports`).
REFERENCE_S = {"scalar": 0.85e-3, "vector": 1.45e-3, "imports": 0.60}


def timed(name: str) -> float:
    """Wall time (s) of one call of the named kernel."""
    kernel = globals()[name]
    start = perf_counter()
    kernel()
    return perf_counter() - start
