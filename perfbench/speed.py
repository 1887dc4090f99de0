"""Host-speed probe: scale measured times to one reference speed.

On shared virtual machines the same code runs at a speed that drifts by
10-20 % over seconds to minutes, and by up to 2x between runs, as other
tenants load the physical cores and caches. The drift shows in thread
CPU time as much as in wall time, so it is a change of speed, not time
spent descheduled. Left in, it is larger than most changes the
benchmark must detect.

The probe is a fixed unit of the kinds of work the program does —
interpreter loops, small NumPy calls, object allocation and a gather
over a 32 KiB buffer — timed in *thread CPU time*: it follows the
host's speed but does not count time the thread waits, so the
benchmark's own pool workers competing for cores do not inflate it.
It must not follow the program's state, or a change that grows the
program's heap or working set would slow the probe and hide part of its
own cost: the garbage collector is off while it runs (its allocations
cannot start a collection over the program's live objects), and its
data is touched before the clock starts and fits in L1/L2, so the
program's working set cannot leave it cold. Runs take a probe at
control-period boundaries (at most one per ``PROBE_EVERY_S`` of
stepping, outside the timed steps) and scale each period's times by
``PROBE_NOMINAL_S / local probe median``. A reported time is therefore
the time the step would have taken on a host where the probe takes
``PROBE_NOMINAL_S``; the raw times are printed beside them. Set-up
times are reported raw: the program runs without a break from
interpreter start to ready, and probes taken just before and after a
set-up track its time only weakly (``README.md`` has the figures).
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Probe CPU time that defines the reference speed (about the median
#: on a 2-core x86-64 cloud VM; the absolute value only sets the scale).
PROBE_NOMINAL_S = 7.8e-4
#: Least stepping time between two probes within a run.
PROBE_EVERY_S = 0.01
#: Probes on each side of a period used for its local speed.
WINDOW = 4

_VECTOR = np.arange(16.0)
_GATHER = np.random.default_rng(0).random(1 << 12)
_INDICES = np.random.default_rng(1).integers(0, 1 << 12, 1 << 12)


def probe() -> float:
    """Thread CPU seconds of one fixed unit of mixed work."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        _GATHER.sum()
        _INDICES.sum()
        started = time.thread_time()
        total = 0
        for i in range(1000):
            total += i * i % 7
        x = _VECTOR
        for _ in range(40):
            x = np.clip(x * 1.0001 + 0.5, 0.0, None)
            x.sum()
        rows = {}
        for i in range(150):
            rows[i % 50] = [i, i * 0.5, (i, i + 1)]
            np.maximum(_VECTOR, i)
        for _ in range(8):
            _GATHER.take(_INDICES).sum()
        return time.thread_time() - started
    finally:
        if collecting:
            gc.enable()


def factor(probes: "list[float]") -> float:
    """Scale from the speed ``probes`` show to the reference speed."""
    return PROBE_NOMINAL_S / statistics.median(probes)


def period_factors(probes: "list[tuple[int, float]]", periods: int) -> "list[float]":
    """One scale per period from ``(first period, probe seconds)`` samples.

    A period takes the median of the probes within ``WINDOW`` places of
    the last probe taken at or before it.
    """
    factors = []
    index = 0
    for period in range(periods):
        while index + 1 < len(probes) and probes[index + 1][0] <= period:
            index += 1
        window = probes[max(0, index - WINDOW) : index + WINDOW + 1]
        factors.append(factor([seconds for _, seconds in window]))
    return factors
