"""Keep the shared host's speed changes out of the timings.

On a shared host a vCPU can run this code up to 1.5 times slower for
seconds at a time while another tenant uses the same physical core, and
the host's memory bandwidth varies with the other tenants' load. Two
measures act on this process only:

- `pin_fastest_cpu()` moves the single-threaded workload, before each timed
  iteration, to the allowed CPU on which a short Python probe runs fastest
  now. With one allowed CPU it does nothing.
- `reference_s()` times a fixed numpy kernel that no convexa change can
  alter. Timed beside each iteration, it slows down with the host, so an
  iteration's time divided by it cancels most of the host's speed change
  while a change in the program's own cost passes through unchanged.
"""

import os
import time

import numpy as np

CPUS = sorted(os.sched_getaffinity(0))
_PROBE_STEPS = 20_000  # about 1.5 ms of interpreter work
# 400,000 doubles (3.2 MB each): exp, multiply and add stream them from
# memory; writing in place keeps the kernel from allocating
_REFERENCE = np.linspace(0.0, 1.0, 400_000)
_SCRATCH = np.empty_like(_REFERENCE)


def _probe_s() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(_PROBE_STEPS):
        total += i * i
    return time.perf_counter() - start


def pin_fastest_cpu() -> None:
    if len(CPUS) < 2:
        return
    timings = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        _probe_s()  # the first run after a move pays for cold caches
        timings.append((_probe_s(), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def unpin() -> None:
    os.sched_setaffinity(0, CPUS)


def reference_s() -> float:
    """Wall time of two passes of exp(a) * a + a over the reference array."""
    a, out = _REFERENCE, _SCRATCH
    start = time.perf_counter()
    for _ in range(2):
        np.exp(a, out=out)
        np.multiply(out, a, out=out)
        np.add(out, a, out=out)
    return time.perf_counter() - start
