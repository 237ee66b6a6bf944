"""The closed loop: one client issuing a workload's ops back to back."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import speed


@dataclass
class Loop:
    """Latency of every op, the failures, and the speed samples taken around ops.

    ``calibrations[i]`` and ``calibrations[i + 1]`` were taken just before
    and just after op i.
    """

    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def scale(self) -> float:
        """Factor taking this loop's times to the reference speed (see speed.py)."""
        return speed.REFERENCE_S / statistics.median(self.calibrations)

    def scaled(self) -> list[float]:
        """Each latency at the reference speed, by the calibrations either side of it.

        The host's speed flips within seconds, so scaling op by op keeps a
        slow spell from moving an op from one side of a percentile to the other.
        """
        c = self.calibrations
        return [
            t * 2.0 * speed.REFERENCE_S / (c[i] + c[i + 1])
            for i, t in enumerate(self.latencies)
        ]


def closed_loop(workload, seconds: float, tracer=None, ops: int | None = None,
                checking: bool = True) -> Loop:
    """Run ops back to back: whole cycles until ``seconds`` pass, or exactly ``ops`` ops.

    Only ``run()`` is timed.  A raise or a failed check is a failed op, and
    the loop goes on.  The tracer, if any, is active only inside ``run()``.
    """
    loop = Loop()
    cycle = len(workload.cycle)
    start = time.perf_counter()
    index = 0
    while True:
        if ops is not None:
            if index >= ops:
                break
        elif index % cycle == 0 and time.perf_counter() - start >= seconds:
            break
        label, run, check = workload.op(index)
        loop.calibrations.append(speed.calibrate())
        if tracer is not None:
            tracer.op = index
            tracer.active = True
        error = None
        t0 = time.perf_counter()
        try:
            output = run()
        except Exception as exc:
            error = f"{label}: {type(exc).__name__}: {exc}"
        loop.latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if error is None and checking:
            try:
                problems = check(output)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                error = f"{label}: " + "; ".join(problems)
        if error is not None:
            loop.failures.append(error)
        index += 1
    loop.calibrations.append(speed.calibrate())
    return loop
