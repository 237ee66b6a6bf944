"""Monte Carlo sampling of readout outcomes and repeated-readout trajectories.

Outcomes are drawn exactly: the outcome density is a number-distribution
mixture of Gaussians, so picking a level with probability |c_n|^2 and then a
normal deviate centered on it reproduces the density with no discretization
bias.  A readout never changes the photon number, so k sequential readouts
share that hidden level: their joint density is
sum_n |c_n|^2 prod_i N(x_i; n, delta_n^2), and a trajectory is one level
draw followed by k independent normal deviates around it.  The posterior
after j passes is one Gaussian window of width delta_n / sqrt(j) at the
running mean of the outcomes; many passes converge to a projective number
measurement, and the ensemble-averaged coherence decays exactly as if
Gaussian phase noise of variance 1/(4 delta_n^2) had been applied per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import measurement
from .errors import InvalidParam
from .fock import CoherentParams, PureState, coherent_state, default_cutoff, expectation_a
from .measurement import OutcomeRecord


def _as_generator(rng) -> tuple[np.random.Generator, int | None]:
    """Accept a seed or a Generator; return the generator and the seed if known."""
    if isinstance(rng, np.random.Generator):
        return rng, None
    seed = int(rng)
    return np.random.default_rng(seed), seed


def _draw_level(
    state: PureState, gen: np.random.Generator, size: int | None = None
) -> np.integer | np.ndarray:
    """Draw a photon number (or ``size`` of them) with probability |c_n|^2."""
    probs = state.probabilities()
    return gen.choice(probs.size, size=size, p=probs / probs.sum())


def sample_outcome(state: PureState, delta_n: float, rng) -> OutcomeRecord:
    """Draw one outcome from the exact density and condition the state on it.

    Mixture sampling: pick a number level with probability |c_n|^2, then draw
    the pointer value from a normal of width ``delta_n`` around it.
    """
    delta_n = measurement._check_delta_n(delta_n)
    gen, _ = _as_generator(rng)
    n_m = float(gen.normal(_draw_level(state, gen), delta_n))
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
    """Apply ``count`` sequential readouts at resolution ``delta_n``.

    Draws the hidden photon number once, with probability |c_n|^2, then all
    ``count`` outcomes as independent normal deviates of width ``delta_n``
    around it; with ``count=1`` this is the draw :func:`sample_outcome`
    makes.  The conditional state after pass j is one readout of width
    ``delta_n / sqrt(j)`` at the running mean of the first j outcomes (Gaussian
    windows multiply), so every step's moments come from that window, as
    :func:`effective_post_state` builds it for the last pass.
    """
    if count < 1:
        raise InvalidParam("count must be at least 1")
    delta_n = measurement._check_delta_n(delta_n)
    gen, seed = _as_generator(rng)
    outcomes = gen.normal(_draw_level(state, gen), delta_n, size=count)
    mean_n, var_n, coherence_mag, final = measurement._sequential_posteriors(
        state, outcomes, delta_n
    )
    steps = list(
        map(TrajectoryStep, outcomes.tolist(), mean_n.tolist(), var_n.tolist(), coherence_mag.tolist())
    )
    return Trajectory(delta_n=delta_n, seed=seed, steps=steps, final_state=final)


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

    state = coherent_state(params, default_cutoff(params))
    a_initial = expectation_a(state)
    direction = a_initial / abs(a_initial)

    # Route one: outcome-sampled conditional coherence.
    pointer = gen.normal(_draw_level(state, gen, samples), delta_n)
    conditional = measurement.coherence_after(state, pointer, delta_n)
    projections = np.real(conditional * np.conj(direction)) / abs(a_initial)
    mc_ratio = float(projections.mean())
    mc_stderr = float(projections.std(ddof=1) / math.sqrt(samples))

    # Route two: random phase rotations with the equivalent noise variance.
    # Rotating the state by exp(-i theta n) rotates its field expectation to
    # exp(-i theta) <a>, so no rotated state is needed.
    sigma = math.sqrt(measurement.equivalent_phase_noise(delta_n))
    thetas = gen.normal(0.0, sigma, size=samples)
    rotations = np.real(a_initial * np.exp(-1j * thetas) * np.conj(direction)) / abs(a_initial)
    deph_ratio = float(rotations.mean())
    deph_stderr = float(rotations.std(ddof=1) / math.sqrt(samples))

    return PhaseDiffusionResult(
        measurement_ratio=mc_ratio,
        measurement_stderr=mc_stderr,
        dephasing_ratio=deph_ratio,
        dephasing_stderr=deph_stderr,
        analytic_ratio=measurement.decoherence_factor(delta_n),
    )
