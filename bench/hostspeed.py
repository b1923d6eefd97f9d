"""The speed of the core the benchmark runs on, measured while it runs.

The reference host lends the benchmark two virtual cores of a shared
machine, and neither has a speed.  From one second to the next, and each
on its own, a core runs a fixed loop in anything between 1.0 and 2.0
times its best, CPU time included, and a request takes longer in the same
measure; the best itself drifts by a quarter over a few hours.  A whole
window, or a whole set of runs, can fall into one state, so no mean,
median or quantile of wall-clock times repeats within the benchmark's
bounds: ten runs of one serial workload spread their requests per second
by 0.05 to 0.17 of the median in an ordinary hour and by 0.20 to 0.53 in
a bad one, and the medians of two sets an hour apart differed by 0.10 to
0.28.

What does repeat is time counted in units of that loop.  So the harness
and the server's whole session are confined to one core (the load is
serial: exactly one of them runs at any time), the client times the loop
of :func:`probe` on that core between every two requests, and every time
the benchmark reports is divided by how much slower than
``REFERENCE_S`` the probes around it ran (:func:`slowdown`).  The same
runs then spread by 0.02 to 0.08 (0.04 to 0.12 in the bad hour) and their
medians agree within 0.04.  The result file holds every factor, so each
figure can be turned back into what the clock read.
"""

from __future__ import annotations

import os
import time
from statistics import fmean, median

import numpy as np

#: One loop is half interpreter, half NumPy, as the server is: this many
#: iterations of Python arithmetic, then this many passes of four
#: element-wise kernels over 2 000 x 24 doubles (five arrays, 1.9 MB:
#: more than a core's own cache, as the server's stacks are).  A third of
#: a millisecond; a probe is three loops, about 1 ms against 10 to 50 ms
#: for a query of the fast workloads.  Python alone missed a neighbour that fills the shared
#: cache (requests 8 % slower, the loop not at all).
PROBE_ITERATIONS = 3_500
PROBE_PASSES = 2
#: What the loop takes between two requests in an ordinary hour of the
#: reference host (CPython 3.11, NumPy 2.4).  It fixes the scale of every
#: reported time: they read as they would on a core that runs the loop in
#: exactly this.
REFERENCE_S = 0.00035

_A = np.linspace(0.0, 1.0, 48_000).reshape(2_000, 24)
_B = _A[::-1].copy()
_D, _P, _C = np.empty_like(_A), np.ones_like(_A), np.empty_like(_A)

#: The cores this process may use, before it confines itself to one.
_ALLOWED = sorted(os.sched_getaffinity(0))


def _loop() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    for _ in range(PROBE_PASSES):
        np.subtract(_A, _B, out=_D)
        np.abs(_D, out=_D)
        np.minimum(_P, _D, out=_C)
        np.add(_C, _D, out=_C)
    return time.perf_counter() - started


def probe() -> float:
    """Seconds the fixed loop takes on this thread's core, now: the
    median of three, so that a loop which another thread cut into (a
    6.8 ms reading beside a 0.9 s request once moved a slow workload's
    whole window by a half) does not count."""
    return median(_loop() for _ in range(3))


def reading(probes: int = 5) -> float:
    """The mean of a few probes in a row: the core's pace at an instant
    that has no request of its own to stand beside."""
    return fmean(probe() for _ in range(probes))


def slowdown(probes, weights=None) -> float:
    """How much slower than the reference the core ran over *probes*,
    each counted by its weight (the time it stands for)."""
    probes = list(probes)
    if weights is None:
        return fmean(probes) / REFERENCE_S
    weights = list(weights)
    return sum(p * w for p, w in zip(probes, weights)) / sum(weights) / REFERENCE_S


def _move(pid: int, cpu: int) -> None:
    """Confine every thread of *pid* to *cpu* (threads and children
    started later inherit it)."""
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return  # exited
    for task in tasks:
        try:
            os.sched_setaffinity(int(task), {cpu})
        except OSError:
            pass  # the thread ended meanwhile


def settle(pids=()) -> int:
    """Move this process and *pids* to the core that gets through thirty
    loops soonest now (a core another process is busy on takes twice as
    long over them, though each single loop may run at full speed);
    returns it.  Called while nothing else of the harness runs."""
    best_cpu, best = _ALLOWED[0], None
    if len(_ALLOWED) > 1:
        for cpu in _ALLOWED:
            os.sched_setaffinity(0, {cpu})
            took = sum(_loop() for _ in range(30))
            if best is None or took < best:
                best_cpu, best = cpu, took
    for pid in (os.getpid(), *pids):
        _move(pid, best_cpu)
    return best_cpu


def release() -> None:
    """Give this process back every core it may use."""
    for task in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(task), _ALLOWED)
