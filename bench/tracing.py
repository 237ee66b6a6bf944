"""Per-layer spans for the traced run, taken from outside the package.

Each layer is one qndsim module.  ``Tracer.install`` replaces every public
function of a layer (plus the private kernel ``measurement._profiles``, and
the methods of ``fock.PureState``) with a wrapper, in every qndsim module
namespace that refers to it, so calls are caught the way other modules make
them.  A call from one layer into another opens a span whose parent is the
caller's span; a call within the same layer runs inside the open span.  A
layer's self time is its span durations minus the child spans inside them.

Spans live in flat arrays while the run goes on and are written out once at
the end.  Counters record the work each layer was handed, computed from the
call arguments.  The source tree is not modified.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
import tracemalloc
from array import array
from collections import Counter

import numpy as np

LAYERS = ("fock", "measurement", "correlations", "approx", "trajectories", "figures", "cli")

# Private functions that other layers call directly.
EXTRA_ENTRY_POINTS = {("measurement", "_profiles")}

# g_dn(x)^2 = exp(-x^2 / dn^2) is 0.0 in float64 beyond this many widths.
BAND_WIDTHS = 38.6

# The dense kernel, whose peak allocation is reported.  Allocations are
# tracked only while it runs, so tracking slows nothing else.
KERNEL = ("measurement", "_profiles")

# Trajectory entry points that run readout passes.
PASS_FUNCTIONS = ("repeated_measurement", "sample_outcome")


def _band_cells(grid: np.ndarray, levels: int, dn: float) -> int:
    """Cells (outcome, level) with |n - n_m| <= BAND_WIDTHS * dn."""
    radius = BAND_WIDTHS * dn
    lo = np.maximum(np.ceil(grid - radius), 0.0)
    hi = np.minimum(np.floor(grid + radius), levels - 1.0)
    return int(np.maximum(hi - lo + 1.0, 0.0).sum())


def _count_kernel(counts, bound, result):
    levels = bound["state"].amplitudes.size
    grid = np.atleast_1d(np.asarray(bound["n_m"], dtype=float))
    counts["measurement.cells"] += grid.size * levels
    counts["measurement.band_cells"] += _band_cells(grid, levels, float(bound["delta_n"]))


def _count_grid(counts, bound, result):
    counts["correlations.grid_points"] += bound["config"].grid().size


def _count_state(counts, bound, result):
    counts["fock.basis_levels"] += bound["self"].amplitudes.size


def _count_pass(counts, bound, result):
    counts["trajectories.passes"] += 1


def _count_rows(counts, bound, result):
    counts["figures.rows"] += len(result.rows)


COUNTERS = {
    ("measurement", "_profiles"): _count_kernel,
    ("measurement", "apply_measurement_operator"): _count_kernel,
    ("correlations", "quantization_coherence_correlation"): _count_grid,
    ("correlations", "average_quantization"): _count_grid,
    ("fock", "PureState.__init__"): _count_state,
    ("trajectories", "sample_outcome"): _count_pass,
    ("figures", "figure_table"): _count_rows,
    ("figures", "sweep_table"): _count_rows,
    ("figures", "sample_table"): _count_rows,
}


class Tracer:
    """Collects spans and counters while ``active``; see the module docstring."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.counts: Counter = Counter()
        self.functions: list[str] = []
        self.peak_alloc = 0
        self._stack: list[tuple[int, int]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._layer = array("b")
        self._func = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")

    def add(self, name: str, value: float = 1) -> None:
        """Count work a layer did that its arguments do not show."""
        if self.active:
            self.counts[name] += value

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer: int, func: int) -> int:
        index = len(self._start)
        self._layer.append(layer)
        self._func.append(func)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._op.append(self.op)
        self._end.append(0.0)
        self._stack.append((index, layer))
        self._start.append(time.perf_counter())
        return index

    def _exit(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    def _call(self, fn, args, kwargs, kernel: bool):
        if not kernel:
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def _wrap(self, fn, layer_name: str, qualname: str):
        layer = LAYERS.index(layer_name)
        func = len(self.functions)
        self.functions.append(qualname)
        counter = COUNTERS.get((layer_name, qualname))
        signature = inspect.signature(fn) if counter else None
        kernel = (layer_name, qualname) == KERNEL
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if tracer._stack and tracer._stack[-1][1] == layer:
                result = tracer._call(fn, args, kwargs, kernel)
            else:
                index = tracer._enter(layer, func)
                try:
                    result = tracer._call(fn, args, kwargs, kernel)
                finally:
                    tracer._exit(index)
            if counter is not None:
                counter(tracer.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point."""
        replacements: dict[int, object] = {}
        for name in LAYERS:
            module = sys.modules[f"qndsim.{name}"]
            for attr, obj in list(vars(module).items()):
                if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
                    continue
                if attr.startswith("_") and (name, attr) not in EXTRA_ENTRY_POINTS:
                    continue
                replacements[id(obj)] = (obj, self._wrap(obj, name, attr))
        for modname, module in list(sys.modules.items()):
            if modname != "qndsim" and not modname.startswith("qndsim."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = replacements.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, attr, entry[1])

        pure_state = sys.modules["qndsim.fock"].PureState
        for attr, obj in list(vars(pure_state).items()):
            if attr != "__init__" and attr.startswith("_"):
                continue
            qualname = f"PureState.{attr}"
            if isinstance(obj, classmethod):
                self._patch(pure_state, attr, classmethod(self._wrap(obj.__func__, "fock", qualname)))
            elif inspect.isfunction(obj):
                self._patch(pure_state, attr, self._wrap(obj, "fock", qualname))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original function back."""
        self.active = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self._start, dtype=float)
        end = np.frombuffer(self._end, dtype=float)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        layer = np.frombuffer(self._layer, dtype=np.int8)
        return start, end, parent, layer

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Spans (calls), busy seconds and self seconds of each layer."""
        start, end, parent, layer = self._arrays()
        duration = end - start
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=start.size)
        self_time = duration - child_time
        totals = {}
        for i, name in enumerate(LAYERS):
            mine = layer == i
            totals[name] = {
                "calls": int(mine.sum()),
                "busy_s": float(duration[mine].sum()),
                "self_s": float(self_time[mine].sum()),
            }
        return totals

    def pass_seconds(self) -> float:
        """Busy time of the trajectory spans that ran readout passes."""
        start, end, _, _ = self._arrays()
        ids = [i for i, name in enumerate(self.functions) if name in PASS_FUNCTIONS]
        mine = np.isin(np.frombuffer(self._func, dtype=np.int32), ids)
        return float((end - start)[mine].sum())

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV: op, span, parent, layer, function, start, end."""
        start, end, parent, layer = self._arrays()
        t0 = float(start.min()) if start.size else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as handle:
            handle.write("op,span,parent,layer,function,start_s,end_s\n")
            for i in range(start.size):
                handle.write(
                    f"{self._op[i]},{i},{parent[i]},{LAYERS[layer[i]]},{self.functions[self._func[i]]},"
                    f"{start[i] - t0:.9f},{end[i] - t0:.9f}\n"
                )
