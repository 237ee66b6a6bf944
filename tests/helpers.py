"""Reference arithmetic shared by the test modules."""

import numpy as np


def trapezoid(values: np.ndarray, step: float):
    """Composite trapezoid rule on a uniform grid."""
    return step * (values.sum() - 0.5 * (values[0] + values[-1]))
