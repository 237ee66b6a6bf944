"""Quantization of outcomes and its anticorrelation with surviving coherence.

The quantization of a readout value is Q(n_m) = cos(2 pi n_m): +1 on
integers, -1 on half-integers.  Its outcome average depends only on the
resolution, and the covariance between Q and the post-readout field
expectation is negative for every resolution: outcomes that look quantized
come with extra dephasing, outcomes between integers preserve coherence.
The same structure appears operator-side when the squared parity is split
around the field operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import approx, measurement
from .errors import InvalidParam
from .fock import (
    CoherentParams,
    PureState,
    coherent_state,
    expectation_a,
    expectation_parity_squared,
)
from .measurement import MeasurementConfig

# Resolutions on which |covariance| is unimodal, narrowed to _ARGMAX_TOL by the search.
_ARGMAX_BRACKET = (0.1, 1.0)
_ARGMAX_TOL = 1e-5


def quantization(n_m):
    """How close an outcome is to an integer: cos(2 pi n_m) in [-1, 1]."""
    return measurement._scalar_or_array(n_m, np.cos(2.0 * math.pi * measurement._grid(n_m)))


def average_quantization(state: PureState, config: MeasurementConfig) -> float:
    """Outcome-averaged quantization, by quadrature of Q(n_m) P(n_m).

    Each number level contributes a Gaussian centered on an integer, so the
    average equals exp(-2 pi^2 delta_n^2) for every normalized state; the
    quadrature value is returned unassisted by that closed form.
    """
    return float(measurement._quadratures(state, [measurement._config(config)])[1][0])


@dataclass(frozen=True)
class CorrelationReport:
    """Quadrature-evaluated quantization/coherence statistics at one resolution.

    ``correlation`` is the covariance ``q_coherence_product - q_bar *
    avg_coherence`` computed from the quadrature values, so that identity is
    exact by construction.  ``analytic_deltas`` records how far each
    quadrature lies from its closed form; ``consistent`` checks them against
    ``QUAD_TOL``.
    """

    delta_n: float
    q_bar: float
    avg_coherence: complex
    q_coherence_product: complex
    correlation: complex
    analytic_deltas: dict[str, float]

    @property
    def consistent(self) -> bool:
        return all(delta <= measurement.QUAD_TOL for delta in self.analytic_deltas.values())


def quantization_coherence_correlation(
    params: CoherentParams,
    config: MeasurementConfig,
    n_max: int | None = None,
) -> CorrelationReport:
    """Covariance of outcome quantization with post-readout coherence.

    All three averages are quadratures over the outcome grid; the closed
    forms (q_bar = exp(-2 pi^2 dn^2), average coherence = alpha times the
    dephasing factor, and correlation = -2 q_bar times the dephased alpha)
    enter only as cross-checks recorded in ``analytic_deltas``.
    """
    config = measurement._config(config)
    return _correlation_reports(params, coherent_state(params, n_max), [config])[0]


def _covariances(state: PureState, configs) -> tuple[np.ndarray, ...]:
    """q_bar, the averages of <a>_f and Q <a>_f, and their covariance, per config, in one pass."""
    _, q_bars, averages, products = measurement._quadratures(state, configs)
    return q_bars, averages, products, products - q_bars * averages


def _correlation_reports(
    params: CoherentParams, state: PureState, configs
) -> list[CorrelationReport]:
    """One report per config on the built ``state`` of ``params``, from one quadrature pass."""
    columns = [column.tolist() for column in _covariances(state, configs)]
    return [
        _correlation_report(params, config.delta_n, *sums)
        for config, *sums in zip(configs, *columns)
    ]


def _correlation_report(
    params: CoherentParams, dn: float, q_bar: float,
    avg_coherence: complex, q_product: complex, correlation: complex,
) -> CorrelationReport:
    """The report at resolution ``dn`` from its averages and covariance (:func:`_covariances`)."""
    q_bar_cf = approx.fringe_amplitude(dn)
    avg_cf = params.alpha * measurement.decoherence_factor(dn)
    corr_cf = -2.0 * q_bar_cf * avg_cf
    deltas = {
        "q_bar": abs(q_bar - q_bar_cf),
        "avg_coherence": abs(avg_coherence - avg_cf),
        "q_coherence_product": abs(q_product - (-q_bar_cf * avg_cf)),
        "correlation": abs(correlation - corr_cf),
    }
    return CorrelationReport(
        delta_n=dn,
        q_bar=q_bar,
        avg_coherence=avg_coherence,
        q_coherence_product=q_product,
        correlation=correlation,
        analytic_deltas=deltas,
    )


def correlation_at(params: CoherentParams, delta_n: float) -> complex:
    """Convenience wrapper: the covariance at one resolution on an adequate grid."""
    state = coherent_state(params)
    return _covariances(state, [MeasurementConfig.adequate(delta_n, state.n_max)])[3].item()


def argmax_correlation_resolution(params: CoherentParams) -> float:
    """Resolution maximizing |covariance|, located by golden-section search.

    The quadrature-evaluated |covariance| is unimodal on ``_ARGMAX_BRACKET``;
    the search narrows it to ``_ARGMAX_TOL``.  The state is built once.
    """
    if params.magnitude == 0.0:
        raise InvalidParam("correlation maximum requires a bright field")
    state = coherent_state(params)

    def objective(dn: float) -> float:
        return -abs(_covariances(state, [MeasurementConfig.adequate(dn, state.n_max)])[3].item())

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = _ARGMAX_BRACKET
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > _ARGMAX_TOL:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = objective(x2)
    return 0.5 * (lo + hi)


def _apply_parity(amplitudes: np.ndarray) -> np.ndarray:
    signs = np.where(np.arange(amplitudes.size) % 2 == 0, 1.0, -1.0)
    return signs * amplitudes


def _apply_annihilation(amplitudes: np.ndarray) -> np.ndarray:
    out = np.zeros_like(amplitudes)
    n = np.arange(1, amplitudes.size)
    out[:-1] = np.sqrt(n) * amplitudes[1:]
    return out


def parity_ordered_correlation(state: PureState) -> complex:
    """Parity-sandwiched field correlation: <Pi a Pi> - <Pi^2><a>.

    Parity anticommutes with the field operator, so the sandwiched term is
    -<a> and the whole expression equals -2<a> for every state, even though
    the squared parity itself is identically one.  Evaluated literally by
    applying the operators, not via that shortcut.
    """
    c = state.amplitudes
    flipped = _apply_parity(c)
    sandwiched = complex(np.vdot(flipped, _apply_annihilation(flipped)))
    return sandwiched - expectation_parity_squared(state) * expectation_a(state)


class OrderingDemo(NamedTuple):
    symmetric: complex
    sandwiched: complex


def ordering_ambiguity_demo(state: PureState) -> OrderingDemo:
    """Two operator orderings of the same formal product, evaluated literally.

    Returns (<a Pi^2 + Pi^2 a>/2, <Pi a Pi>), which equal (<a>, -<a>): the
    orderings disagree whenever the field expectation is nonzero.
    """
    c = state.amplitudes
    parity_sq = _apply_parity(_apply_parity(c))
    symmetric = 0.5 * (
        complex(np.vdot(c, _apply_annihilation(parity_sq)))
        + complex(np.vdot(c, _apply_parity(_apply_parity(_apply_annihilation(c)))))
    )
    flipped = _apply_parity(c)
    sandwiched = complex(np.vdot(flipped, _apply_annihilation(flipped)))
    return OrderingDemo(symmetric=symmetric, sandwiched=sandwiched)
