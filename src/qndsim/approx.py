"""Closed-form approximations of the readout statistics for bright fields.

For a coherent state whose number spread is wide compared to the resolution,
the outcome statistics factorize into a smooth Gaussian envelope and a
1-periodic quantization factor.  The periodic factor is a comb of Gaussians
at (half-)integer centers and has a rapidly converging harmonic series:

    comb(x) = 1 + 2 sum_k exp(-2 pi^2 delta_n^2 k^2) cos(2 pi k x)

for the integer comb; the half-integer comb is comb(x + 1/2).  (The half
shift turns each harmonic by pi*k, so odd harmonics flip sign; the usual
lowest-order reading keeps k = 1 only, giving 1 -/+ 2 q cos(2 pi x).)
Keeping only k = 1 yields the lowest-order fringe formulas; dropping the
periodic factor altogether gives the classical limit.

The series keeps, at each resolution, the fewest harmonics whose dropped
tail has a closed-form geometric bound below ``SERIES_TOL``
(:func:`_series_lengths`).  Below ``_DIRECT_BELOW`` = 0.1 that takes
hundreds of harmonics, whose rounding adds up past ``SERIES_TOL``, so there
the comb is summed directly over its Gaussians (:func:`_direct_combs`),
which the Jacobi imaginary transformation makes the same function
(DLMF 20.7(viii)).

Error reports compare these closed forms with the exact kernel at the
integer and half-integer outcomes nearest the mean intensity.  A report
over many resolutions (:func:`_error_columns`, behind the sweep table) takes
all of its probes in one kernel pass, with one window width per probe, and
evaluates the closed forms as numpy arrays, one row per resolution.
:func:`error_report` is its one-resolution case: the same expressions on
arrays of one, so each row has the one-resolution bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import measurement
from .errors import InvalidParam, RegimeWarning, ZeroProbability
from .fock import CoherentParams, PureState, coherent_state

# Bound on the dropped tail of the quantization-comb harmonic series.
SERIES_TOL = 1e-14

# Below this resolution the single-harmonic fringe formulas are unreliable.
LOWEST_ORDER_MIN_DELTA_N = 0.2

# Probe points closer than this many resolution widths to n = 0 feel the
# half-line truncation of the physical number comb.
_BOUNDARY_SIGMAS = 5.0

# 2 pi^2, the rate of the comb's harmonics: exp(-2 pi^2 dn^2 k^2).
_HARMONIC_RATE = 2.0 * math.pi**2

# Widths below this sum the comb's Gaussians rather than its harmonics.
_DIRECT_BELOW = 0.1


def fringe_amplitude(delta_n: float) -> float:
    """First harmonic coefficient exp(-2 pi^2 delta_n^2) of the quantization comb."""
    return math.exp(-2.0 * math.pi**2 * delta_n**2)


def _squares(resolutions) -> np.ndarray:
    """dn**2 of each resolution, as numpy squares it."""
    return np.power(np.asarray(resolutions, dtype=float), 2.0)


def _series_lengths(var: np.ndarray) -> np.ndarray:
    """Fewest harmonics K whose dropped tail is below ``SERIES_TOL``, at each squared width ``var``.

    With q = exp(-2 pi^2 dn^2), (K + 1 + j)^2 >= (K + 1)^2 + (2 K + 3) j bounds
    the tail by a geometric series: 2 sum_{k > K} q^(k^2) <= 2 q^((K+1)^2) /
    (1 - q^(2 K + 3)).  Returns the least K whose bound is below
    ``SERIES_TOL``.  The numerator alone needs (K + 1)^2 > ln(2 / SERIES_TOL)
    / (2 pi^2 dn^2); each width starts a harmonic below that and steps up.
    """
    rate = _HARMONIC_RATE * var
    count = np.maximum(np.floor(np.sqrt(math.log(2.0 / SERIES_TOL) / rate)) - 1.0, 0.0)
    while True:
        tail = 2.0 * np.exp(-rate * (count + 1.0) ** 2)
        above = tail >= -SERIES_TOL * np.expm1(-rate * (2.0 * count + 3.0))
        if not above.any():
            return count.astype(np.intp)
        count += above


def quantization_sum(n_m, delta_n: float):
    """Periodic quantization factor of the integer comb via its harmonic series.

    The half-integer comb is ``quantization_sum(n_m + 0.5, delta_n)``.  The
    series keeps the harmonics of :func:`_series_lengths`, so it agrees with
    the directly summed comb of Gaussians to the series truncation
    tolerance; below ``delta_n`` = 0.1 the comb is that direct sum.  Accepts
    scalar or array ``n_m``.
    """
    delta_n = measurement._check_delta_n(delta_n)
    value = _quantization_sums(measurement._grid(n_m), _squares([delta_n]))[0]
    return measurement._scalar_or_array(n_m, value)


def _quantization_sums(grid: np.ndarray, var: np.ndarray) -> np.ndarray:
    """:func:`quantization_sum` on ``grid``, one row per squared width ``var`` (:func:`_squares`).

    Rows of widths below ``_DIRECT_BELOW`` are direct sums (:func:`_direct_combs`).
    Every other row adds its harmonics k = 1..K (:func:`_series_lengths`) in
    increasing k, with the coefficients exp(-2 pi^2 dn^2 k^2); a row's zero
    amplitudes beyond its K add 2 * 0 * cos = +-0, which leaves the sum's
    bits as they are, so a row has the same bits in any batch.  Both paths take
    each point less its nearest integer (exact, in [-1/2, 1/2]): the comb is
    1-periodic, and cos(2 pi k x) loses digits as x grows.
    """
    grid = grid - np.round(grid)
    # dn < 0.1 exactly when dn^2 < 0.1**2: squaring is monotone, and no float
    # below 0.1 squares to 0.1**2.
    direct = var < _DIRECT_BELOW**2
    if direct.any():
        value = np.empty((var.size, grid.size))
        value[direct] = _direct_combs(grid, var[direct])
        if not direct.all():
            value[~direct] = _quantization_sums(grid, var[~direct])
        return value
    counts = _series_lengths(var)
    harmonics = np.arange(1.0, counts.max() + 1.0)
    exponents = (-_HARMONIC_RATE * var)[:, None] * harmonics * harmonics
    amplitudes = np.where(harmonics <= counts[:, None], np.exp(exponents), 0.0)
    value = np.ones((var.size, grid.size))
    for k in range(1, harmonics.size + 1):
        value += 2.0 * amplitudes[:, k - 1, None] * np.cos(2.0 * math.pi * k * grid)
    return value


def _direct_combs(grid: np.ndarray, var: np.ndarray) -> np.ndarray:
    """The comb (2 pi dn^2)**-0.5 sum_n exp(-(x - n)^2 / (2 dn^2)) on ``grid``, one row per ``var``.

    Sums the integers -1, 0 and 1 at points x in [-1/2, 1/2], as
    :func:`_quantization_sums` reduces them.  Every other integer lies at
    least 1.5 from x: at widths below ``_DIRECT_BELOW`` that is 15 widths,
    where the dropped terms stay below 1e-48 of the peak (2 pi dn^2)**-0.5.
    """
    offsets = grid[:, None] - np.array([-1.0, 0.0, 1.0])
    terms = np.exp((-0.5 / var)[:, None, None] * (offsets * offsets))
    return np.add.reduce(terms, axis=-1) * np.power(2.0 * math.pi * var, -0.5)[:, None]


def classical_probability(mean_intensity: float, n_m):
    """Smooth Gaussian outcome density of a classical field of given intensity."""
    if not (mean_intensity > 0.0) or not math.isfinite(mean_intensity):
        raise InvalidParam("mean_intensity must be positive and finite")
    grid = measurement._grid(n_m)
    value = (2.0 * math.pi * mean_intensity) ** -0.5 * np.exp(
        -((grid - mean_intensity) ** 2) / (2.0 * mean_intensity)
    )
    return measurement._scalar_or_array(n_m, value)


def classical_coherence(params: CoherentParams, delta_n: float, n_m):
    """Classical post-readout field: sqrt(n_m + 1/2) at the input phase, dephased.

    The magnitude follows the square root of the observed intensity; the
    initial field enters only through its phase.
    """
    value = _classical_coherences(params, [delta_n], measurement._grid(n_m))[0]
    return measurement._scalar_or_array(n_m, value)


def _classical_coherences(params: CoherentParams, resolutions, grid: np.ndarray) -> np.ndarray:
    """:func:`classical_coherence` on ``grid``, one row per resolution."""
    if np.any(grid < -0.5):
        raise InvalidParam("n_m must be at least -1/2")
    factors = measurement._decoherence_factors(np.asarray(resolutions, dtype=float))
    phase = complex(math.cos(params.phase), -math.sin(params.phase))
    return phase * np.sqrt(grid + 0.5) * factors[:, None]


class LowestOrder(NamedTuple):
    probability: float | np.ndarray
    coherence: complex | np.ndarray


def lowest_order(params: CoherentParams, delta_n: float, n_m) -> LowestOrder:
    """Single-harmonic fringe formulas for outcome density and coherence.

    P = P_class (1 + 2 q cos 2 pi n_m) and
    <a>_f = <a>_class (1 - 2 q cos 2 pi n_m) / (1 + 2 q cos 2 pi n_m)
    with q = exp(-2 pi^2 delta_n^2).  Warns below delta_n = 0.2, where the
    single harmonic is no longer adequate.
    """
    if params.magnitude == 0.0:
        raise InvalidParam("lowest-order fringes require a bright field")
    delta_n = measurement._check_delta_n(delta_n)
    if delta_n < LOWEST_ORDER_MIN_DELTA_N:
        warnings.warn(
            f"single-harmonic fringe formulas are unreliable for delta_n={delta_n} < 0.2",
            RegimeWarning,
            stacklevel=2,
        )
    grid = measurement._grid(n_m)
    fringes = _fringes(
        classical_probability(params.mean_photon_number, grid),
        _classical_coherences(params, [delta_n], grid),
        _modulation(_squares([delta_n]), grid),
    )
    return LowestOrder(*(measurement._scalar_or_array(n_m, value[0]) for value in fringes))


def _modulation(var: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Single-harmonic fringe 2 q cos(2 pi n_m) on ``grid``, one row per squared width ``var``."""
    q = np.exp(-_HARMONIC_RATE * var)
    return 2.0 * q[:, None] * np.cos(2.0 * math.pi * grid)


def _fringes(
    probability: np.ndarray, coherence: np.ndarray, modulation: np.ndarray
) -> LowestOrder:
    """The fringe formulas of :func:`lowest_order` on classical curves and a ``modulation``."""
    return LowestOrder(
        probability * (1.0 + modulation), coherence * (1.0 - modulation) / (1.0 + modulation)
    )


@dataclass(frozen=True)
class ApproximationReport:
    """Exact kernel versus closed forms at one integer and one half-integer probe.

    ``max_coherence_error`` and ``max_probability_error`` compare the
    lowest-order formulas against the exact kernel, so they combine two
    approximations: the single-harmonic truncation of the periodic factor
    and the symmetric-Gaussian idealization of the Poissonian envelope.
    ``max_fringe_truncation_error`` isolates the first by comparing the
    lowest-order coherence fringe against the fully summed periodic factor;
    this is the component that shrinks as the resolution coarsens.
    """

    delta_n: float
    probe_points: tuple[float, float]
    exact_probability: tuple[float, float]
    lowest_order_probability: tuple[float, float]
    classical_probability: tuple[float, float]
    exact_coherence: tuple[complex, complex]
    lowest_order_coherence: tuple[complex, complex]
    classical_coherence: tuple[complex, complex]
    max_probability_error: float
    max_coherence_error: float
    max_fringe_truncation_error: float
    boundary_flag: bool


class _ErrorColumns(NamedTuple):
    """:class:`ApproximationReport`'s fields as arrays: a row per resolution, a column per probe.

    ``probe_points`` and ``classical_probability`` do not depend on the
    resolution and hold the two probes' values only.
    """

    delta_n: np.ndarray
    probe_points: np.ndarray
    exact_probability: np.ndarray
    lowest_order_probability: np.ndarray
    classical_probability: np.ndarray
    exact_coherence: np.ndarray
    lowest_order_coherence: np.ndarray
    classical_coherence: np.ndarray
    max_probability_error: np.ndarray
    max_coherence_error: np.ndarray
    max_fringe_truncation_error: np.ndarray
    boundary_flag: np.ndarray


def error_report(
    params: CoherentParams, delta_n: float, n_max: int | None = None
) -> ApproximationReport:
    """Quantify the fringe approximations for a coherent input at its brightest point.

    Probes the integer and half-integer outcomes nearest the mean intensity,
    where the fringe formulas are least accurate.  ``boundary_flag`` is set
    when the probes sit within five resolution widths of n = 0, where the
    one-sided physical comb deviates from the two-sided periodic factor.
    The one-resolution case of :func:`_error_columns`.

    Raises
    ------
    ZeroProbability
        If a probe's outcome density underflows, which happens for the
        half-integer probe once delta_n is below about 0.0135.
    """
    delta_n = measurement._check_delta_n(delta_n)
    if params.magnitude == 0.0:
        raise InvalidParam("error report requires a bright field")
    (_, probes, exact_p, lowest_p, class_p, exact_a, lowest_a, class_a, *errors, flag) = (
        _error_columns(params, coherent_state(params, n_max), [delta_n])
    )
    return ApproximationReport(
        delta_n, tuple(probes.tolist()), tuple(exact_p[0].tolist()), tuple(lowest_p[0].tolist()),
        tuple(class_p.tolist()), tuple(exact_a[0].tolist()), tuple(lowest_a[0].tolist()),
        tuple(class_a[0].tolist()), *(error.item() for error in errors), flag.item(),
    )


def _error_columns(params: CoherentParams, state: PureState, resolutions) -> _ErrorColumns:
    """:func:`error_report` at each of ``resolutions`` on the built ``state``, as columns.

    ``params`` must be bright.  The two probes at every resolution go
    through one kernel pass, with one window width per probe, and the closed
    forms are array expressions over the resolutions, which the
    one-resolution report takes on arrays of one.  A row differs from the
    one-resolution report at most by the kernel's summation order within a
    band: the exact values and the two errors built on them by under 1e-14
    relative, the closed forms and ``max_fringe_truncation_error`` not at all.

    Raises
    ------
    ZeroProbability
        If a probe's outcome density falls below ``DENSITY_FLOOR``; the
        message names the probe and the smallest resolution where it does.
    """
    resolutions = np.asarray(resolutions, dtype=float)
    base = math.floor(params.mean_photon_number)
    probes = np.array([base, base + 0.5])
    density, coherence = measurement._band_profiles(
        state, np.tile(probes, resolutions.size), np.repeat(resolutions, 2)
    )
    exact_p = density.reshape(-1, 2)
    vanished = ~(exact_p >= measurement.DENSITY_FLOOR)  # also catches NaN
    if vanished.any():
        failing = np.flatnonzero(vanished.any(axis=1))
        row = failing[np.argmin(resolutions[failing])]
        probe = float(probes[np.argmax(vanished[row])])
        raise ZeroProbability(
            f"error probe n_m = {probe} has outcome density below "
            f"{measurement.DENSITY_FLOOR:g} at delta_n = {resolutions[row]:g}"
            + (f", among {len(failing)} failing resolutions" if len(failing) > 1 else "")
        )
    exact_a = coherence.reshape(-1, 2) / exact_p

    var = _squares(resolutions)
    modulation = _modulation(var, probes)
    class_p = classical_probability(params.mean_photon_number, probes)
    class_a = _classical_coherences(params, resolutions, probes)
    approx = _fringes(class_p, class_a, modulation)

    p_err = np.max(np.abs(approx.probability - exact_p) / exact_p, axis=1)
    a_err = np.max(np.abs(np.abs(approx.coherence) - np.abs(exact_a)) / np.abs(exact_a), axis=1)

    # Truncation component alone: single-harmonic fringe vs the full series.
    sums = _quantization_sums(np.concatenate([probes + 0.5, probes]), var)
    full_fringe = sums[:, :2] / sums[:, 2:]
    truncated_fringe = (1.0 - modulation) / (1.0 + modulation)
    fringe_err = np.max(np.abs(truncated_fringe - full_fringe) / np.abs(full_fringe), axis=1)

    return _ErrorColumns(
        resolutions, probes, exact_p, approx.probability, class_p, exact_a, approx.coherence,
        class_a, p_err, a_err, fringe_err, probes[0] < _BOUNDARY_SIGMAS * resolutions,
    )
