"""A fixed reference job that gauges how fast the machine runs right now.

On a shared host the same request can take a third longer for a minute or
more while neighbours are busy. The worker runs this job before each request
and after the last one, outside the request's timing, and the benchmark
scales a pass's times by ``REFERENCE_S`` over the median time of the job in
that pass. The job uses no ebring code, so a change to the package cannot
move it. It does the kind of work ebring's passes spend their time on, dict
and tuple work and numpy table arithmetic, in about a MiB so that it does not
raise the pass's peak memory.
"""

from __future__ import annotations

import time

import numpy as np

# The job's median CPU seconds on the machine the baseline was measured on
# (see README.md): scaled times read as seconds of that machine at its usual
# speed.
REFERENCE_S = 0.18


def _job() -> int:
    keys = [(i * 2654435761) % (1 << 31) for i in range(10_000)]
    total = 0
    for shift in range(24):
        memo: dict = {}
        for k in keys:
            memo[(k & 0xFFFF, k >> 16)] = memo.get(((k >> shift) & 0xFFFF, k >> 17), 0) + 1
        total += len(memo)
    for i in range(100_000):
        total += i * i % 7
    table = np.arange(1 << 16, dtype=np.int64)
    for _ in range(32):
        out = (table * 7 + 3) % 1021
        out.sort()
        total += int(out[-1])
    return total


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the reference job."""
    wall, cpu = time.perf_counter(), time.process_time()
    _job()
    return time.perf_counter() - wall, time.process_time() - cpu
