"""Gaussian-window photon-number readout with adjustable resolution.

A readout of resolution ``delta_n`` that returns the pointer value ``n_m``
acts on a pure state by multiplying each number amplitude with a Gaussian
window centered at the outcome,

    w(n) = (2 pi delta_n^2)**-0.25 * exp(-(n - n_m)^2 / (4 delta_n^2)).

The squared norm of the filtered vector is the outcome probability density
(per unit ``n_m``), and renormalizing the filtered vector gives the
conditional post-measurement state.  Density and coherence profiles over an
outcome grid, quadrature averages over outcomes, and the equivalent phase
noise of the back-action are all derived from that single kernel.

Products of the window factor exactly into the normalized Gaussian
g(x) = (2 pi delta_n^2)**-0.5 exp(-x^2 / (2 delta_n^2)):

    w(n)^2      = g(n_m - n)
    w(n) w(n+1) = exp(-1/(8 delta_n^2)) g(n_m - n - 1/2),

so every profile is a real Gaussian band sum over the number levels.  In
float64, g is exactly 0.0 beyond 38.6 widths, so the kernel visits only the
levels within ``_BAND_WIDTHS`` = 38.7 widths of each outcome, and takes the
outcomes in chunks of about ``_CHUNK_CELLS`` = 65 536 (outcome, level) cells:
work grows with grid size times band width, not grid size times basis size,
and temporary memory stays at a few MB.  Sequential readouts compose the
same way: windows at outcomes x_1..x_j multiply into one window of width
delta_n / sqrt(j) at their mean, which gives every pass of a trajectory its
posterior without building the states in between.

Everything is a pure function of its inputs; sweeps over outcome grids are
vectorized internally and safe to parallelize externally.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridTooNarrow, InvalidParam, ToleranceWarning, ZeroProbability
from .fock import PureState, expectation_a

# Densities below this are treated as a vanished outcome: renormalizing the
# filtered vector there would divide rounding noise by rounding noise.
DENSITY_FLOOR = 1e-300

# Inferred excess phase noise more negative than this is physically
# inconsistent input rather than round-off.
_EXCESS_NOISE_TOL = 1e-9

# Outcome grids and likelihood sums reach this many resolution widths beyond
# the basis [0, n_max]: there each level's Gaussian g has fallen to
# exp(-8^2 / 2) = exp(-32), about 1e-14 of its peak.
_PAD_WIDTHS = 8.0

# g(x) underflows to 0.0 once x^2 / (2 delta_n^2) > 745.14, i.e. beyond 38.61
# widths; the band radius keeps a margin over that.
_BAND_WIDTHS = 38.7

# Kernel cells (outcome, level) evaluated at once.  Bounds each chunk's
# temporaries to a few MB whatever the grid size, band width or basis size.
_CHUNK_CELLS = 65536


def _check_delta_n(delta_n: float, allow_inf: bool = False) -> float:
    delta_n = float(delta_n)
    if math.isnan(delta_n) or delta_n <= 0.0:
        raise InvalidParam("delta_n must be positive")
    if math.isinf(delta_n) and not allow_inf:
        raise InvalidParam("delta_n must be finite")
    return delta_n


def _grid(n_m) -> np.ndarray:
    """Outcome or outcomes ``n_m`` as a 1-D float grid."""
    return np.atleast_1d(np.asarray(n_m, dtype=float))


def _scalar_or_array(n_m, values: np.ndarray):
    """``values`` on the grid of ``n_m``: a Python scalar when ``n_m`` is one."""
    return values[0].item() if np.ndim(n_m) == 0 else values


def window_amplitudes(n: np.ndarray, n_m: float, delta_n: float) -> np.ndarray:
    """Gaussian window w(n) applied to each number level by the readout."""
    return (2.0 * math.pi * delta_n**2) ** -0.25 * np.exp(
        -((n - n_m) ** 2) / (4.0 * delta_n**2)
    )


class FilteredState(NamedTuple):
    """Amplitudes after the measurement window, before renormalization.

    ``norm_squared`` is the squared norm of ``amplitudes`` and equals the
    outcome probability density.
    """

    amplitudes: np.ndarray
    norm_squared: float


def apply_measurement_operator(
    state: PureState, n_m: float, delta_n: float
) -> FilteredState:
    """Apply the Gaussian readout window for outcome ``n_m`` without renormalizing."""
    delta_n = _check_delta_n(delta_n)
    n = np.arange(state.amplitudes.size)
    filtered = state.amplitudes * window_amplitudes(n, float(n_m), delta_n)
    norm_sq = float(np.sum(np.abs(filtered) ** 2))
    return FilteredState(filtered, norm_sq)


def _profiles(
    state: PureState, n_m: np.ndarray, delta_n: float
) -> tuple[np.ndarray, np.ndarray]:
    """Density P(n_m) and coherence-weighted density <a>_f(n_m) P(n_m) on a grid.

    By the window factorization these are the band sums

        P(n_m)            = sum_n p_n g(n_m - n)
        <a>_f(n_m) P(n_m) = exp(-1/(8 dn^2)) sum_n b_n g(n_m - n - 1/2)

    with p_n = |c_n|^2 and b_n = conj(c_n) c_{n+1} sqrt(n + 1).

    Both Gaussians come from one exponential per cell, e(x) = exp(-x^2/(4 dn^2)):
    g(x) = N e(x)^2 and exp(-1/(8 dn^2)) g(x - 1/2) = N e(x) e(x - 1), with
    N = (2 pi dn^2)**-0.5 and x = n_m - n.  Each outcome visits the levels with
    |n - n_m| <= _BAND_WIDTHS * dn + 1/2, which holds every nonzero term of
    both sums; the band start is clipped to [0, n_max + 1 - width], so a band
    wider than the basis covers every level.  The grid need not be sorted.
    Outcomes are taken in chunks of about ``_CHUNK_CELLS`` cells.
    """
    c = state.amplitudes
    levels = c.size
    p = np.abs(c) ** 2
    b = np.zeros(levels, dtype=np.complex128)
    b[:-1] = np.conj(c[:-1]) * c[1:] * np.sqrt(np.arange(1, levels))
    reach = _BAND_WIDTHS * delta_n + 0.5
    width = int(min(levels, 2.0 * reach + 1.0))
    p_bands = sliding_window_view(p, width)
    b_bands = sliding_window_view(b, width)
    offsets = np.arange(width)
    inv_4var = 1.0 / (4.0 * delta_n**2)
    density = np.empty(n_m.size)
    coherence = np.empty(n_m.size, dtype=np.complex128)
    rows = max(1, _CHUNK_CELLS // width)
    for start in range(0, n_m.size, rows):
        block = n_m[start : start + rows]
        # fmax/fmin give a NaN outcome a valid band start; its values stay NaN.
        first = np.fmin(np.fmax(np.ceil(block - reach), 0.0), levels - width)
        first = first.astype(np.intp)
        x = (block - first)[:, None] - offsets
        e = np.exp(-inv_4var * x * x)
        density[start : start + rows] = np.einsum("ij,ij,ij->i", p_bands[first], e, e)
        pair = e[:, :-1] * e[:, 1:]
        coherence[start : start + rows] = np.einsum("ij,ij->i", b_bands[first][:, :-1], pair)
    norm = (2.0 * math.pi * delta_n**2) ** -0.5
    return norm * density, norm * coherence


def _sequential_posteriors(
    state: PureState, outcomes: np.ndarray, delta_n: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, PureState]:
    """Posterior moments after each of a sequence of readouts, all at once.

    Windows of width dn at outcomes x_1..x_j multiply into one window of
    width w_j = dn / sqrt(j) at their running mean m_j, so the state after
    pass j has amplitudes proportional to c_n exp(-(n - m_j)^2 / (4 w_j^2)).
    These are evaluated in the log domain, shifted so the largest is 1 on
    each pass, which leaves no pass to underflow however sharp it is.

    Pass j needs only the levels with |n - m_j| <= _BAND_WIDTHS * w_j + 1/2,
    clipped to the basis as in :func:`_profiles`.  Passes are taken in chunks
    of about ``_CHUNK_CELLS`` cells; every pass in a chunk visits the band
    width of the chunk's first, widest pass, centered on its own m_j.

    Returns the mean photon number, its variance and |<a>| after each pass,
    and the conditional state after the last pass.

    Raises
    ------
    ZeroProbability
        If a pass's band holds no amplitude, i.e. an outcome lies far
        outside the state's support.
    """
    c = state.amplitudes
    levels = c.size
    magnitude = np.abs(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mag = np.log(magnitude)
        unit = np.where(magnitude > 0.0, c / magnitude, 0.0)
    # Phase of conj(c_n) c_{n+1}, weighted by sqrt(n + 1): times a_n a_{n+1}
    # it gives the field-expectation terms of the windowed state.
    field = np.zeros(levels, dtype=np.complex128)
    field[:-1] = np.conj(unit[:-1]) * unit[1:] * np.sqrt(np.arange(1, levels))
    passes = np.arange(1, outcomes.size + 1)
    running_mean = np.cumsum(outcomes) / passes
    inv_4var = passes / (4.0 * delta_n**2)
    mean = np.empty(outcomes.size)
    var = np.empty(outcomes.size)
    coherence = np.empty(outcomes.size)
    start = 0
    while start < outcomes.size:
        reach = _BAND_WIDTHS * delta_n / math.sqrt(start + 1) + 0.5
        width = int(min(levels, 2.0 * reach + 1.0))
        stop = start + max(1, _CHUNK_CELLS // width)
        m = running_mean[start:stop]
        first = np.fmin(np.fmax(np.ceil(m - reach), 0.0), levels - width).astype(np.intp)
        n = first[:, None] + np.arange(width)
        log_amp = log_mag[n] - inv_4var[start:stop, None] * (n - m[:, None]) ** 2
        peak = log_amp.max(axis=1, keepdims=True)
        if not np.all(np.isfinite(peak)):
            raise ZeroProbability("an outcome lies far outside the state's support")
        amp = np.exp(log_amp - peak)
        weight = amp * amp
        total = weight.sum(axis=1)
        mean[start:stop] = np.einsum("ij,ij->i", weight, n) / total
        centered = n - mean[start:stop, None]
        var[start:stop] = np.einsum("ij,ij,ij->i", weight, centered, centered) / total
        pair = amp[:, :-1] * amp[:, 1:]
        coherence[start:stop] = np.abs(np.einsum("ij,ij->i", field[n[:, :-1]], pair)) / total
        start = stop
    final = np.zeros(levels, dtype=np.complex128)
    final[first[-1] : first[-1] + width] = unit[n[-1]] * amp[-1] / math.sqrt(total[-1])
    return mean, var, coherence, PureState(final)


def outcome_density(state: PureState, n_m, delta_n: float):
    """Probability density of reading ``n_m``; accepts a scalar or an array.

    Equals (2 pi delta_n^2)**-0.5 sum_n |c_n|^2 exp(-(n - n_m)^2 / (2 delta_n^2)),
    the squared norm of the filtered vector.
    """
    delta_n = _check_delta_n(delta_n)
    density, _ = _profiles(state, _grid(n_m), delta_n)
    return _scalar_or_array(n_m, density)


def coherence_density(state: PureState, n_m, delta_n: float):
    """Field expectation of the filtered, unnormalized state: <a>_f(n_m) P(n_m)."""
    delta_n = _check_delta_n(delta_n)
    _, coherence = _profiles(state, _grid(n_m), delta_n)
    return _scalar_or_array(n_m, coherence)


@dataclass(frozen=True)
class OutcomeRecord:
    """One readout: outcome, its density, the conditional state, its coherence."""

    n_m: float
    density: float
    post_state: PureState
    coherence: complex


def measure(state: PureState, n_m: float, delta_n: float) -> OutcomeRecord:
    """Condition ``state`` on the outcome ``n_m``.

    Raises
    ------
    ZeroProbability
        If the outcome density underflows, i.e. ``n_m`` lies far outside the
        state's support.
    """
    filtered = apply_measurement_operator(state, n_m, delta_n)
    if filtered.norm_squared < DENSITY_FLOOR:
        raise ZeroProbability(
            f"outcome {n_m} has vanishing density for this state at delta_n={delta_n}"
        )
    post = PureState.from_unnormalized(filtered.amplitudes)
    return OutcomeRecord(
        n_m=float(n_m),
        density=filtered.norm_squared,
        post_state=post,
        coherence=expectation_a(post),
    )


def coherence_after(state: PureState, n_m, delta_n: float):
    """Field expectation of the conditional state after reading ``n_m``.

    Scalar in, complex out; array in, complex array out.

    Raises
    ------
    ZeroProbability
        Where the outcome density underflows.
    """
    delta_n = _check_delta_n(delta_n)
    density, coherence = _profiles(state, _grid(n_m), delta_n)
    if np.any(density < DENSITY_FLOOR):
        raise ZeroProbability("an outcome lies far outside the state's support")
    ratio = coherence / density
    return _scalar_or_array(n_m, ratio)


def integer_half_integer_ratio(state: PureState, delta_n: float) -> float:
    """Total likelihood of integer outcomes relative to half-integer outcomes.

    Sums the outcome density over all integers and over all half-integers
    covering the state's support.  The envelope of the number distribution
    cancels between the two sums, so the ratio isolates the periodic
    quantization contrast and is the same for every state.
    """
    delta_n = _check_delta_n(delta_n)
    pad = int(math.ceil(_PAD_WIDTHS * delta_n)) + 1
    integers = np.arange(-pad, state.n_max + pad + 1, dtype=float)
    p_int, _ = _profiles(state, integers, delta_n)
    p_half, _ = _profiles(state, integers + 0.5, delta_n)
    return float(p_int.sum() / p_half.sum())


@dataclass(frozen=True)
class MeasurementConfig:
    """Resolution plus a uniform outcome grid for quadrature over outcomes.

    For full-line averages the grid must cover the state's support with
    ``_PAD_WIDTHS`` = 8 resolution widths of padding; ``adequate`` builds such
    a grid with a step that also resolves the unit-period fringes.
    """

    delta_n: float
    grid_min: float
    grid_max: float
    grid_step: float
    quad_tol: float = 1e-8

    def __post_init__(self):
        _check_delta_n(self.delta_n)
        if not (math.isfinite(self.grid_min) and math.isfinite(self.grid_max)):
            raise InvalidParam("grid bounds must be finite")
        if self.grid_step <= 0 or not math.isfinite(self.grid_step):
            raise InvalidParam("grid_step must be positive")
        if self.grid_min >= self.grid_max:
            raise InvalidParam("grid_min must be below grid_max")
        if self.quad_tol <= 0:
            raise InvalidParam("quad_tol must be positive")

    @classmethod
    def adequate(cls, delta_n: float, n_max: int) -> "MeasurementConfig":
        delta_n = _check_delta_n(delta_n)
        return cls(
            delta_n=delta_n,
            grid_min=-_PAD_WIDTHS * delta_n,
            grid_max=n_max + _PAD_WIDTHS * delta_n,
            grid_step=min(delta_n / 8.0, 0.25),
        )

    def grid(self) -> np.ndarray:
        count = int(math.ceil((self.grid_max - self.grid_min) / self.grid_step - 1e-9))
        return self.grid_min + self.grid_step * np.arange(count + 1)


def trapezoid(values: np.ndarray, step: float):
    """Composite trapezoid rule on a uniform grid."""
    return step * (values.sum() - 0.5 * (values[0] + values[-1]))


def grid_profiles(
    state: PureState, config: MeasurementConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The config's outcome grid with the density and coherence profiles on it.

    Raises
    ------
    GridTooNarrow
        If the probability mass captured by the grid falls short of
        ``1 - quad_tol``.
    """
    grid = config.grid()
    density, coherence = _profiles(state, grid, config.delta_n)
    mass = float(trapezoid(density, config.grid_step))
    if mass < 1.0 - config.quad_tol:
        raise GridTooNarrow(
            f"grid captures probability mass {mass:.12g} < 1 - quad_tol"
        )
    return grid, density, coherence


def average_coherence(state: PureState, config: MeasurementConfig) -> complex:
    """Outcome-averaged coherence: quadrature of <a>_f(n_m) P(n_m) over the grid.

    For any state this equals exp(-1/(8 delta_n^2)) times the initial field
    expectation, up to quadrature error.

    Raises
    ------
    GridTooNarrow
        If the probability mass captured by the grid falls short of
        ``1 - quad_tol``.
    """
    _, _, coherence = grid_profiles(state, config)
    return complex(trapezoid(coherence, config.grid_step))


def decoherence_factor(delta_n: float) -> float:
    """Average coherence reduction exp(-1/(8 delta_n^2)) caused by one readout."""
    delta_n = _check_delta_n(delta_n, allow_inf=True)
    if math.isinf(delta_n):
        return 1.0
    return math.exp(-1.0 / (8.0 * delta_n**2))


def equivalent_phase_noise(delta_n: float) -> float:
    """Variance of the Gaussian phase noise equivalent to one readout.

    Returns 1/(4 delta_n^2): the minimum phase disturbance compatible with
    number resolution ``delta_n``.  An infinite ``delta_n`` (no measurement)
    gives zero.
    """
    delta_n = _check_delta_n(delta_n, allow_inf=True)
    if math.isinf(delta_n):
        return 0.0
    return 1.0 / (4.0 * delta_n**2)


def infer_excess_noise(observed_ratio: float, delta_n: float) -> float:
    """Excess phase-noise variance beyond the measurement minimum.

    ``observed_ratio`` is the measured coherence reduction
    |<a>_after(avg)| / |<a>_before| in (0, 1].  The total phase-noise
    variance is -2 ln(ratio); subtracting the minimum 1/(4 delta_n^2) gives
    the excess.  Values negative within round-off are clamped to zero with a
    warning; more negative values are inconsistent inputs.
    """
    observed_ratio = float(observed_ratio)
    if not (0.0 < observed_ratio <= 1.0):
        raise InvalidParam("observed_ratio must lie in (0, 1]")
    delta_n = _check_delta_n(delta_n, allow_inf=True)
    total = -2.0 * math.log(observed_ratio)
    excess = total - equivalent_phase_noise(delta_n)
    if excess < 0.0:
        if excess < -_EXCESS_NOISE_TOL:
            raise InvalidParam(
                f"observed_ratio {observed_ratio} exceeds the ideal bound for "
                f"delta_n={delta_n}: excess {excess:.3e}"
            )
        warnings.warn(
            f"excess noise {excess:.3e} clamped to 0 within tolerance",
            ToleranceWarning,
            stacklevel=2,
        )
        excess = 0.0
    return excess
