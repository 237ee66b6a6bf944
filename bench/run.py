"""qndsim benchmark: one workload, one closed-loop client, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: bright-kernel, dim-tables, trajectories (see README.md here).
One client in one process issues the next op only after the last one has
finished, with BLAS and OpenMP pinned to one thread.  Ops run in whole
cycles of the workload's op kinds until ``--seconds`` have passed, so every
run has the same mix.  Every op's output is checked; a raise or a failed
check counts as a failed op.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead wraps
each qndsim module's entry points, runs the loop traced, replays the same
ops untraced to price the tracing, prints the per-layer metrics and writes
every span to ``.bench_out/<workload>.spans.csv.gz``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

import bootstrap

# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 5

# op_tail_ms is the highest percentile with at least this many ops beyond it.
TAIL_BEYOND = 10

WORKLOAD_NAMES = ("bright-kernel", "dim-tables", "trajectories")


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Seconds one fresh interpreter takes to import qndsim, build inputs and warm up.

    Returns the set-up time and the calibration time measured right after it.
    """
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
    done = subprocess.run(
        [sys.executable, probe, name, str(seed)],
        capture_output=True, text=True, timeout=150, cwd=bootstrap.ROOT,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"set-up probe exited {done.returncode}")
    setup, calibration = done.stdout.split()[-2:]
    return float(setup), float(calibration)


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies_ms)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in bootstrap.THREAD_VARS},
    }


def end_to_end(args):
    probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    import speed
    import workloads
    from loop import closed_loop

    problems = workloads.self_test()
    workload = workloads.start(args.workload, args.seed)
    loop = closed_loop(workload, args.seconds)

    setups = [setup * speed.REFERENCE_S / calibration for setup, calibration in probes]
    scaled = loop.scaled()
    ms = [1e3 * t for t in scaled]
    tail_ms, tail_pct = tail(ms)
    completed = loop.attempted - len(loop.failures)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (completed / sum(scaled), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ok_share": (completed / loop.attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        "times are scaled to the reference speed of speed.py; measured as is: "
        f"setup {statistics.median(p[0] for p in probes):.4f} s, "
        f"ops {completed / loop.busy:.4f} /s, p50 {statistics.median(loop.latencies) * 1e3:.3f} ms, "
        f"median scale {loop.scale:.4f}",
        f"setup_s: median of {SETUP_REPEATS} fresh processes",
        f"op_tail_ms: p{tail_pct:.1f} of {loop.attempted} ops",
        "ops_per_s and the latencies time the calls only, not the output checks",
    ]
    return loop, metrics, problems, notes


def per_layer(args):
    import tracing
    import workloads
    from loop import closed_loop

    problems = workloads.self_test()
    workload = workloads.start(args.workload, args.seed)
    tracer = tracing.Tracer()
    workload.tracer = tracer
    tracer.install()
    try:
        loop = closed_loop(workload, args.seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    # The untraced replay repeats the first third of the traced ops, in whole cycles.
    cycle = len(workload.cycle)
    replayed = cycle * -(-loop.attempted // (3 * cycle))
    plain = closed_loop(workload, args.seconds, ops=replayed, checking=False)

    out_dir = os.path.join(bootstrap.ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"{args.workload}.spans.csv.gz")
    tracer.write(spans_path)

    ops = loop.attempted
    totals = tracer.layer_totals()
    counts = tracer.counts
    metrics = {}
    timed = {
        "measurement": ("calls", "busy_s", "self_s"),
        "correlations": ("calls", "busy_s", "self_s"),
        "fock": ("calls", "busy_s"),
        "approx": ("calls", "busy_s", "self_s"),
        "trajectories": ("calls", "busy_s", "self_s"),
        "figures": ("calls", "busy_s", "self_s"),
        "cli": ("calls", "busy_s", "self_s"),
    }
    for layer, keys in timed.items():
        for key in keys:
            unit = "count/op" if key == "calls" else "s/op"
            scale = 1.0 if key == "calls" else loop.scale
            metrics[f"{layer}.{key}"] = (totals[layer][key] * scale / ops, unit)
    cells = counts["measurement.cells"]
    passes = counts["trajectories.passes"]
    metrics.update({
        "measurement.cells": (cells / ops, "count/op"),
        "measurement.nonzero_share": (
            counts["measurement.band_cells"] / cells if cells else 0.0, "share"
        ),
        "measurement.peak_alloc_mb": (tracer.peak_alloc / 2**20, "MB"),
        "correlations.grid_points": (counts["correlations.grid_points"] / ops, "count/op"),
        "fock.basis_levels": (counts["fock.basis_levels"] / ops, "count/op"),
        "fock.cutoff_rejected": (counts["fock.cutoff_rejected"] / ops, "count/op"),
        "trajectories.passes": (passes / ops, "count/op"),
        "trajectories.us_per_pass": (
            1e6 * tracer.pass_seconds() * loop.scale / passes if passes else 0.0, "us"
        ),
        "figures.rows": (counts["figures.rows"] / ops, "count/op"),
        "cli.bytes_out": (counts["cli.bytes_out"] / ops, "B/op"),
        "trace.overhead_share": (
            sum(loop.scaled()[:replayed]) / sum(plain.scaled()) - 1.0, "share"
        ),
    })
    notes = [
        f"per-layer counts and times are per op, over {ops} traced ops; times are scaled "
        f"to the reference speed of speed.py by {loop.scale:.4f}",
        f"trace.overhead_share: traced {sum(loop.latencies[:replayed]):.3f} s vs untraced "
        f"{plain.busy:.3f} s, as measured, for the first {replayed} ops",
        f"spans: {spans_path}",
    ]
    return loop, metrics, problems, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap.prepare()

    loop, metrics, problems, notes = (per_layer if args.trace else end_to_end)(args)

    print("env " + json.dumps(environment(args), sort_keys=True))
    for note in notes:
        print(note)
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    for failure in loop.failures[:10]:
        print(f"failed op: {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not problems and not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
