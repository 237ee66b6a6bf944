"""Reference arithmetic shared by the test modules."""

import numpy as np

# Probability the support of :func:`support` may leave beyond each end.
SUPPORT_TAIL = 1e-16


def support(state):
    """First and last levels of ``state`` that leave at most ``SUPPORT_TAIL`` beyond each end."""
    p = state.probabilities()
    below = np.searchsorted(np.cumsum(p), SUPPORT_TAIL, side="right")
    above = np.searchsorted(np.cumsum(p[::-1]), SUPPORT_TAIL, side="right")
    return int(below), p.size - 1 - int(above)


def trapezoid(values: np.ndarray, step: float):
    """Composite trapezoid rule on a uniform grid."""
    return step * (values.sum() - 0.5 * (values[0] + values[-1]))


def windows_view(values: np.ndarray, width: int) -> np.ndarray:
    """Read-only view of every run of ``width`` consecutive entries along the last axis.

    ``windows_view(v, width)[..., i, k]`` is ``v[..., i + k]``; ``values`` must
    be C-contiguous.  Built from the strides by hand: ``sliding_window_view``
    gives the same view at several times the cost of this small a call.
    """
    *lead, size = values.shape
    step = values.strides[-1]
    view = np.ndarray(
        (*lead, size - width + 1, width), values.dtype, values,
        strides=(*values.strides[:-1], step, step),
    )
    view.flags.writeable = False
    return view
