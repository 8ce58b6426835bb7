"""Host speed, measured with a fixed piece of work that runs no polya_net code.

The benchmark's machine may be a virtual machine on a shared host whose
speed drifts, by up to a half, over phases that last from seconds to tens of
minutes.  The drift moves every timing of a run together, so the gated times are divided by the host's slowdown measured
next to them: ``probe()`` is timed before and after each operation and in
each set-up, and a time ``t`` taken while the probe ran in ``p`` seconds is
reported as ``t * REF_PROBE_S / p``, that is, in seconds at the speed at
which the probe takes ``REF_PROBE_S``.  The raw times are reported beside
them.

The probe's work is of the two kinds the workloads spend their time in:
interpreter-bound loops over small Python objects (the exact enumeration,
node marginals, the SIS recursion) and numpy passes over arrays of a few
megabytes (the Monte Carlo kernel).  A change to polya_net cannot change
the probe's time, only the time being divided.  The probe stays in cache,
so it does not see contention for memory bandwidth; the part of the drift
that comes from there stays in the normalised times.
"""

import threading
import time

import numpy as np

# The probe's median time on a 2-vCPU virtual machine (Intel Xeon at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6), so that normalised times read close
# to the seconds measured there.
REF_PROBE_S = 0.066


def _array_work() -> None:
    values = np.random.default_rng(0).random(200_000)
    for _ in range(4):
        np.cumsum(values)
        np.count_nonzero(values < 0.5)
        values.argsort()


def probe(threads: int = 1) -> float:
    """Seconds taken by the fixed work.  Its array part runs on ``threads``
    threads at once, so that a workload on several threads is measured
    against the speed of as many processors."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(150_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    others = [threading.Thread(target=_array_work) for _ in range(threads - 1)]
    for other in others:
        other.start()
    _array_work()
    for other in others:
        other.join()
    return time.perf_counter() - start
