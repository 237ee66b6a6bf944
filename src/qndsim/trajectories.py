"""Monte Carlo sampling of readout outcomes and repeated-readout trajectories.

Outcomes are drawn exactly: the outcome density is a number-distribution
mixture of Gaussians, so picking a level with probability |c_n|^2 and then a
normal deviate centered on it reproduces the density with no discretization
bias.  Feeding each conditional state into the next readout narrows the
posterior; many passes at fixed resolution converge to a projective
number measurement, and the ensemble-averaged coherence decays exactly as if
Gaussian phase noise of variance 1/(4 delta_n^2) had been applied per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import measurement
from .errors import InvalidParam
from .fock import (
    CoherentParams,
    PureState,
    choose_truncation,
    coherent_state,
    expectation_a,
    expectation_n,
    variance_n,
)
from .measurement import OutcomeRecord

_CHUNK = 2048


def _as_generator(rng) -> tuple[np.random.Generator, int | None]:
    """Accept a seed or a Generator; return the generator and the seed if known."""
    if isinstance(rng, np.random.Generator):
        return rng, None
    seed = int(rng)
    return np.random.default_rng(seed), seed


def sample_outcome(state: PureState, delta_n: float, rng) -> OutcomeRecord:
    """Draw one outcome from the exact density and condition the state on it.

    Mixture sampling: pick a number level with probability |c_n|^2, then draw
    the pointer value from a normal of width ``delta_n`` around it.
    """
    delta_n = measurement._check_delta_n(delta_n)
    gen, _ = _as_generator(rng)
    probs = state.probabilities()
    probs = probs / probs.sum()
    level = int(gen.choice(probs.size, p=probs))
    n_m = float(gen.normal(level, delta_n))
    return measurement.measure(state, n_m, delta_n)


class TrajectoryStep(NamedTuple):
    """Per-pass summary: outcome and conditional-state moments."""

    n_m: float
    mean_n: float
    var_n: float
    coherence_mag: float


@dataclass(frozen=True)
class Trajectory:
    """One sequential readout record at fixed resolution.

    ``seed`` is the integer seed when one was supplied (None when the caller
    passed a live generator).  ``final_state`` is the conditional state after
    the last pass.
    """

    delta_n: float
    seed: int | None
    steps: list[TrajectoryStep]
    final_state: PureState

    @property
    def outcomes(self) -> np.ndarray:
        return np.array([step.n_m for step in self.steps])


def repeated_measurement(
    state: PureState, delta_n: float, count: int, rng
) -> Trajectory:
    """Apply ``count`` sequential readouts, feeding each conditional state forward.

    The final posterior equals that of a single readout at resolution
    ``delta_n / sqrt(count)`` located at the mean of the recorded outcomes
    (Gaussian windows multiply), which :func:`effective_post_state` builds
    directly.
    """
    if count < 1:
        raise InvalidParam("count must be at least 1")
    delta_n = measurement._check_delta_n(delta_n)
    gen, seed = _as_generator(rng)
    current = state
    steps: list[TrajectoryStep] = []
    for _ in range(count):
        record = sample_outcome(current, delta_n, gen)
        current = record.post_state
        steps.append(
            TrajectoryStep(
                n_m=record.n_m,
                mean_n=expectation_n(current),
                var_n=variance_n(current),
                coherence_mag=abs(record.coherence),
            )
        )
    return Trajectory(delta_n=delta_n, seed=seed, steps=steps, final_state=current)


def effective_post_state(
    state: PureState, outcomes: Sequence[float], delta_n: float
) -> PureState:
    """Conditional state of one readout equivalent to a sequence of them.

    A product of Gaussian windows of width ``delta_n`` at the recorded
    outcomes equals, up to normalization, a single window of width
    ``delta_n / sqrt(k)`` at their mean.
    """
    outcomes = np.asarray(outcomes, dtype=float)
    if outcomes.size == 0:
        raise InvalidParam("need at least one outcome")
    delta_n = measurement._check_delta_n(delta_n)
    effective_dn = delta_n / math.sqrt(outcomes.size)
    return measurement.measure(state, float(outcomes.mean()), effective_dn).post_state


@dataclass(frozen=True)
class PhaseDiffusionResult:
    """Two Monte Carlo routes to the average coherence reduction, plus the target.

    ``measurement_ratio`` averages the conditional coherence over sampled
    outcomes; ``dephasing_ratio`` averages the field expectation over random
    phase rotations with the equivalent noise variance.  Both estimate
    ``analytic_ratio`` = exp(-1/(8 delta_n^2)); the standard errors qualify
    the agreement.
    """

    measurement_ratio: float
    measurement_stderr: float
    dephasing_ratio: float
    dephasing_stderr: float
    analytic_ratio: float


def phase_diffusion_equivalence(
    params: CoherentParams, delta_n: float, samples: int, rng
) -> PhaseDiffusionResult:
    """Check that readout back-action averages like Gaussian phase diffusion.

    Route one samples outcomes and averages the conditional coherence; route
    two applies random phase rotations exp(-i theta n) with theta drawn from
    a normal of variance 1/(4 delta_n^2) and averages the rotated field
    expectation.  Ratios are projections onto the initial field direction,
    normalized by its magnitude.
    """
    if samples < 1000:
        raise InvalidParam("need at least 1000 samples for stable error bars")
    delta_n = measurement._check_delta_n(delta_n)
    if params.magnitude == 0.0:
        raise InvalidParam("phase-noise comparison requires a nonzero field")
    gen, _ = _as_generator(rng)

    n_max = max(choose_truncation(params, 1e-12), 16)
    state = coherent_state(params, n_max)
    c = state.amplitudes
    n = np.arange(c.size)
    root = np.sqrt(n[1:])
    a_initial = expectation_a(state)
    direction = a_initial / abs(a_initial)

    # Route one: outcome-sampled conditional coherence.
    probs = state.probabilities()
    levels = gen.choice(probs.size, size=samples, p=probs / probs.sum())
    pointer = gen.normal(levels, delta_n)
    conditional = measurement.coherence_after(state, pointer, delta_n)
    projections = np.real(conditional * np.conj(direction)) / abs(a_initial)
    mc_ratio = float(projections.mean())
    mc_stderr = float(projections.std(ddof=1) / math.sqrt(samples))

    # Route two: random phase rotations with the equivalent noise variance.
    sigma = math.sqrt(measurement.equivalent_phase_noise(delta_n))
    thetas = gen.normal(0.0, sigma, size=samples)
    rotations = np.empty(samples)
    for start in range(0, samples, _CHUNK):
        block = thetas[start : start + _CHUNK]
        rotated = c[None, :] * np.exp(-1j * np.outer(block, n))
        a_rot = np.sum(np.conj(rotated[:, :-1]) * rotated[:, 1:] * root[None, :], axis=1)
        rotations[start : start + _CHUNK] = np.real(a_rot * np.conj(direction))
    rotations /= abs(a_initial)
    deph_ratio = float(rotations.mean())
    deph_stderr = float(rotations.std(ddof=1) / math.sqrt(samples))

    return PhaseDiffusionResult(
        measurement_ratio=mc_ratio,
        measurement_stderr=mc_stderr,
        dephasing_ratio=deph_ratio,
        dephasing_stderr=deph_stderr,
        analytic_ratio=measurement.decoherence_factor(delta_n),
    )
