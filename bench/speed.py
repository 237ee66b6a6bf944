"""The host's current speed, from a fixed blend of interpreter and numpy work.

The benchmark's host shares its cores with other machines' work: the same
op can take half as long again a minute later, and that drift outlasts any
run, so longer runs do not remove it.  ``calibrate`` times a fixed blend of
the kinds of work the workloads do, and ``closed_loop`` runs it between ops.
Reported times are scaled to the speed at which the blend takes
``REFERENCE_S``: an op that took t while the blend took c1 just before it and
c2 just after it is reported as t * REFERENCE_S / ((c1 + c2) / 2).  The
blend does not touch qndsim, so no change to the package can move it.
"""

import time

import numpy as np

# What calibrate() takes on an idle core of the 2-vCPU Xeon the bounds were
# tuned on.  Only the unit of the scaled times depends on it.
REFERENCE_S = 0.010

_LEVELS = np.arange(38.0)
_AMPLITUDES = np.linspace(0.0, 1.0, 38) + 0j
_MEDIUM = np.linspace(0.0, 4.0, 100_000)
_LARGE = np.linspace(0.0, 4.0, 400_000)


def calibrate() -> float:
    """Seconds for about 2.5 ms each of interpreter work, small-array numpy
    calls, and medium and large array arithmetic."""
    t0 = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    v = _AMPLITUDES
    for _ in range(250):
        f = v * np.exp(-((_LEVELS - 3.3) ** 2) / 4.0)
        v = f / np.linalg.norm(f)
    for _ in range(6):
        total += float(np.exp(-_MEDIUM * _MEDIUM).sum())
    total += float(np.exp(-_LARGE * _LARGE).sum())
    return time.perf_counter() - t0
