"""Closed-form approximations of the readout statistics for bright fields.

For a coherent state whose number spread is wide compared to the resolution,
the outcome statistics factorize into a smooth Gaussian envelope and a
1-periodic quantization factor.  The periodic factor is a comb of Gaussians
at (half-)integer centers and has a rapidly converging harmonic series:

    comb(x) = 1 + 2 sum_k exp(-2 pi^2 delta_n^2 k^2) cos(2 pi k (x + offset))

with offset 0 for the integer comb and 1/2 for the half-integer comb.  (The
half-offset shifts each harmonic by pi*k, so odd harmonics flip sign; the
usual lowest-order reading keeps k = 1 only, giving 1 -/+ 2 q cos(2 pi x).)
Keeping only k = 1 yields the lowest-order fringe formulas; dropping the
periodic factor altogether gives the classical limit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import measurement
from .errors import InvalidParam, RegimeWarning
from .fock import CoherentParams, PureState, coherent_state

# Default bound on the dropped tail of the quantization-comb harmonic series.
SERIES_TOL = 1e-14

# Below this resolution the single-harmonic fringe formulas are unreliable.
LOWEST_ORDER_MIN_DELTA_N = 0.2

# Probe points closer than this many resolution widths to n = 0 feel the
# half-line truncation of the physical number comb.
_BOUNDARY_SIGMAS = 5.0


def fringe_amplitude(delta_n: float, k: int = 1) -> float:
    """Harmonic coefficient exp(-2 pi^2 delta_n^2 k^2) of the quantization comb."""
    return math.exp(-2.0 * math.pi**2 * delta_n**2 * k * k)


@dataclass(frozen=True)
class FourierTruncation:
    """Number of harmonics retained when evaluating the quantization comb."""

    k_max: int

    def __post_init__(self):
        if self.k_max < 0:
            raise InvalidParam("k_max must be non-negative")

    @classmethod
    def for_resolution(
        cls, delta_n: float, series_tol: float = SERIES_TOL
    ) -> "FourierTruncation":
        """Fewest harmonics whose dropped tail stays below ``series_tol``."""
        delta_n = measurement._check_delta_n(delta_n)
        if not (0.0 < series_tol < 1.0):
            raise InvalidParam("series_tol must lie in (0, 1)")
        limit = math.log(1.0 / series_tol) / (2.0 * math.pi**2 * delta_n**2)
        trunc = cls(k_max=int(math.floor(math.sqrt(limit))))
        while trunc.dropped_tail_bound(delta_n) >= series_tol:
            trunc = cls(trunc.k_max + 1)
        return trunc

    def dropped_tail_bound(self, delta_n: float) -> float:
        """Upper bound on twice the summed coefficients beyond ``k_max``."""
        total = 0.0
        k = self.k_max + 1
        while True:
            term = fringe_amplitude(delta_n, k)
            total += term
            if term < 1e-30 or k > self.k_max + 64:
                break
            k += 1
        return 2.0 * total


def quantization_sum(n_m, delta_n: float, offset: float = 0.0):
    """Periodic quantization factor via its harmonic series.

    ``offset`` selects the comb of Gaussian centers: 0 for integers, 1/2 for
    half-integers.  The series keeps the harmonics of
    :meth:`FourierTruncation.for_resolution`, so it agrees with the directly
    summed comb of Gaussians to the series truncation tolerance.  Accepts
    scalar or array ``n_m``.
    """
    if offset not in (0.0, 0.5):
        raise InvalidParam("offset must be 0 or 1/2")
    delta_n = measurement._check_delta_n(delta_n)
    grid = measurement._grid(n_m)
    value = np.ones_like(grid)
    for k in range(1, FourierTruncation.for_resolution(delta_n).k_max + 1):
        value += (
            2.0 * fringe_amplitude(delta_n, k) * np.cos(2.0 * math.pi * k * (grid + offset))
        )
    return measurement._scalar_or_array(n_m, value)


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
    grid = measurement._grid(n_m)
    if np.any(grid < -0.5):
        raise InvalidParam("n_m must be at least -1/2")
    factor = measurement.decoherence_factor(delta_n)
    phase = complex(math.cos(params.phase), -math.sin(params.phase))
    value = phase * np.sqrt(grid + 0.5) * factor
    return measurement._scalar_or_array(n_m, value)


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
    modulation = 2.0 * fringe_amplitude(delta_n) * np.cos(2.0 * math.pi * grid)
    probability = classical_probability(params.mean_photon_number, grid) * (1.0 + modulation)
    coherence = (
        classical_coherence(params, delta_n, grid) * (1.0 - modulation) / (1.0 + modulation)
    )
    return LowestOrder(
        measurement._scalar_or_array(n_m, probability),
        measurement._scalar_or_array(n_m, coherence),
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


def error_report(
    params: CoherentParams, delta_n: float, n_max: int | None = None
) -> ApproximationReport:
    """Quantify the fringe approximations for a coherent input at its brightest point.

    Probes the integer and half-integer outcomes nearest the mean intensity,
    where the fringe formulas are least accurate.  ``boundary_flag`` is set
    when the probes sit within five resolution widths of n = 0, where the
    one-sided physical comb deviates from the two-sided periodic factor.
    """
    delta_n = measurement._check_delta_n(delta_n)
    if params.magnitude == 0.0:
        raise InvalidParam("error report requires a bright field")
    return _error_report(params, coherent_state(params, n_max), delta_n)


def _error_report(
    params: CoherentParams, state: PureState, delta_n: float
) -> ApproximationReport:
    """:func:`error_report` on the already built ``state`` of a bright ``params``."""
    base = math.floor(params.mean_photon_number)
    probes = np.array([base, base + 0.5])
    exact_p, exact_a = measurement._conditional_profiles(state, probes, delta_n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        approx = lowest_order(params, delta_n, probes)
    class_p = classical_probability(params.mean_photon_number, probes)
    class_a = classical_coherence(params, delta_n, probes)

    p_err = float(np.max(np.abs(approx.probability - exact_p) / exact_p))
    a_err = float(np.max(np.abs(np.abs(approx.coherence) - np.abs(exact_a)) / np.abs(exact_a)))

    # Truncation component alone: single-harmonic fringe vs the full series.
    full_fringe = quantization_sum(probes, delta_n, 0.5) / quantization_sum(
        probes, delta_n, 0.0
    )
    modulation = 2.0 * fringe_amplitude(delta_n) * np.cos(2.0 * math.pi * probes)
    truncated_fringe = (1.0 - modulation) / (1.0 + modulation)
    fringe_err = float(np.max(np.abs(truncated_fringe - full_fringe) / np.abs(full_fringe)))

    return ApproximationReport(
        delta_n=delta_n,
        probe_points=(float(probes[0]), float(probes[1])),
        exact_probability=(float(exact_p[0]), float(exact_p[1])),
        lowest_order_probability=(float(approx.probability[0]), float(approx.probability[1])),
        classical_probability=(float(class_p[0]), float(class_p[1])),
        exact_coherence=(complex(exact_a[0]), complex(exact_a[1])),
        lowest_order_coherence=(complex(approx.coherence[0]), complex(approx.coherence[1])),
        classical_coherence=(complex(class_a[0]), complex(class_a[1])),
        max_probability_error=p_err,
        max_coherence_error=a_err,
        max_fringe_truncation_error=fringe_err,
        boundary_flag=bool(probes[0] < _BOUNDARY_SIGMAS * delta_n),
    )
