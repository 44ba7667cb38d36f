"""A fixed reference computation that measures how fast the host runs now.

On a shared host, other tenants slow every process by up to a third for
seconds to minutes at a time, so two runs of the same code minutes apart
read differently by more than any useful bound.  Every benchmark sample
therefore times this computation right before and right after its call, in
its own process, and ``run.py`` scales the sample's times by

    REFERENCE_NOMINAL_S / (reference time)

so that they read as seconds on a host where the reference takes
REFERENCE_NOMINAL_S.  The computation is the benchmark's own code and never
calls the program, so a faster program still reads faster.  It mixes the
kinds of work the workloads do: interpreted Python (import, seeding,
bookkeeping), batched small complex matrix products (exact propagation) and
passes over fresh memory (long noise paths, Shor outcome arrays).

It runs in the sampled process, so it must not move that process's
``ru_maxrss`` or its allocator's state: its arrays stay below glibc's
default mmap threshold (128 KiB), which a larger freed block would raise,
and its fresh memory is mapped and unmapped directly, 4 MiB at a time,
below the smallest workload's own peak above the imported program.
"""

import mmap
import time

import numpy as np

#: seconds the reference takes on a quiet 2-vCPU Xeon VM (Python 3.11,
#: numpy 2.4); it fixes the unit of the scaled times, not their ratios
REFERENCE_NOMINAL_S = 0.25


def _python_loop():
    total = 0
    for i in range(1_000_000):
        total += i * i
    return total


def _matrix_products():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((256, 4, 4)) + 1j * rng.standard_normal((256, 4, 4))
    x = m
    for _ in range(512):
        x = np.matmul(x, m) * 0.1
    return x[0, 0, 0]


def _fresh_memory():
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(6):
        with mmap.mmap(-1, 4 << 20) as pages:
            a = np.frombuffer(pages, dtype=np.float64)
            rng.standard_normal(out=a)
            total += float(np.cumsum(a, out=a)[-1])
            del a
    return total


def reference_seconds():
    """Time one pass of the reference computation."""
    t0 = time.perf_counter()
    _python_loop()
    _matrix_products()
    _fresh_memory()
    return time.perf_counter() - t0
