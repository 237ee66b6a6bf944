"""Time one set-up of a workload in a fresh interpreter.

    python3 bench/probe.py WORKLOAD SEED

Set-up is what a ``qnd`` user pays on every invocation: importing qndsim
(with numpy and scipy), building the workload's inputs and one warm-up op.
Prints the set-up seconds, then the seconds ``speed.calibrate`` takes right
after it (median of three), by which the caller scales the first.
"""

import statistics
import sys
import time

t0 = time.perf_counter()

import bootstrap  # noqa: E402

bootstrap.prepare()

import workloads  # noqa: E402

workloads.start(sys.argv[1], int(sys.argv[2]))
setup = time.perf_counter() - t0

import speed  # noqa: E402

print(setup, statistics.median(speed.calibrate() for _ in range(3)))
