"""Monte Carlo sampling of readout outcomes and repeated-readout trajectories.

Outcomes are drawn exactly: the outcome density is a number-distribution
mixture of Gaussians, so picking a level with probability |c_n|^2 and then a
normal deviate centered on it reproduces the density with no discretization
bias.  A readout never changes the photon number, so k sequential readouts
share that hidden level: their joint density is
sum_n |c_n|^2 prod_i N(x_i; n, delta_n^2), and a trajectory is one level
draw followed by k independent normal deviates around it.  The posterior
after j passes is one Gaussian window of width delta_n / sqrt(j) at the
running mean of the outcomes, so single readouts and trajectories alike are
conditioned by one banded pass over the level moments (p_n, b_n).  Many passes
converge to a projective number measurement, and the ensemble-averaged
coherence decays exactly as if Gaussian phase noise of variance
1/(4 delta_n^2) had been applied per pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import measurement
from .errors import InvalidParam, _integer
from .fock import CoherentParams, PureState, coherent_state, expectation_a
from .measurement import OutcomeRecord


def _as_generator(rng) -> tuple[np.random.Generator, int | None]:
    """Accept a seed or a Generator; return the generator and the seed if known."""
    if isinstance(rng, np.random.Generator):
        return rng, None
    seed = _integer(rng, "seed")
    if seed < 0:
        raise InvalidParam("seed must be non-negative")
    return np.random.default_rng(seed), seed


def _draw_level(
    state: PureState, gen: np.random.Generator, size: int | tuple[int, ...] | None = None
) -> np.integer | np.ndarray:
    """Draw a photon number (or an array of ``size`` of them) with probability |c_n|^2.

    One uniform deviate per level searched in :meth:`PureState.level_cdf`:
    the draws ``gen.choice(levels, size, p=|c_n|^2)`` makes, from the same
    stream.
    """
    return state.level_cdf().searchsorted(gen.random(size), side="right")


def _draw_outcomes(state: PureState, delta_n: float, gen, count: int, runs=None) -> tuple:
    """Hidden levels, and readouts of ``count`` passes over each, shape (count,), or (runs, count).

    level + delta_n z, scaled and shifted in place: what ``gen.normal(level, delta_n)`` draws.
    The levels are one integer, or shape (runs,).
    """
    level = _draw_level(state, gen, runs)
    outcomes = gen.standard_normal(count if runs is None else (runs, count))
    outcomes *= delta_n
    outcomes += float(level) if runs is None else level[:, None]
    return level, outcomes


def sample_outcome(state: PureState, delta_n: float, rng) -> OutcomeRecord:
    """Draw one outcome from the exact density and condition the state on it.

    Mixture sampling: pick a number level with probability |c_n|^2, then draw
    the pointer value from a normal of width ``delta_n`` around it.
    """
    delta_n = measurement._check_delta_n(delta_n)
    gen, _ = _as_generator(rng)
    n_m = float(_draw_outcomes(state, delta_n, gen, 1)[1][0])
    return measurement.measure(state, n_m, delta_n)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sequential readout records at fixed resolution, one array entry per pass.

    ``outcomes`` holds the read-only readout values; ``mean_n``, ``var_n``,
    ``coherence`` and ``coherence_mag`` the mean photon number, its
    variance, the complex <a> and its magnitude |<a>| of the conditional
    state after each pass.  ``final_amplitudes`` holds the read-only,
    unit-norm conditional amplitudes after the last pass.  One record has
    arrays of shape (count,) and (levels,); a batch of ``runs`` records puts
    a leading runs axis on each.  ``seed`` is the integer seed when one was
    supplied (None when the caller passed a live generator).

    The moment arrays are computed on first read, all of them by one second
    walk over the passes (:func:`measurement._sequential_posteriors`), and
    every later read returns the same arrays; ``coherence_mag`` is
    ``np.abs(coherence)``.  Callers that read only the outcomes and the
    final state never pay for them; for that the record keeps its input
    state alive.
    """

    delta_n: float
    seed: int | None
    outcomes: np.ndarray
    final_amplitudes: np.ndarray
    _state: PureState = field(repr=False)

    @functools.cached_property
    def _moments(self) -> tuple[np.ndarray, ...]:
        # The block walk takes (count, runs): .T is a view both ways.
        _, mean_n, var_n, coherence, _ = measurement._sequential_posteriors(
            self._state, self.outcomes.T, self.delta_n
        )
        return mean_n.T, var_n.T, coherence.T, np.abs(coherence.T)

    @property
    def mean_n(self) -> np.ndarray:
        return self._moments[0]

    @property
    def var_n(self) -> np.ndarray:
        return self._moments[1]

    @property
    def coherence(self) -> np.ndarray:
        return self._moments[2]

    @property
    def coherence_mag(self) -> np.ndarray:
        return self._moments[3]

    @property
    def final_state(self) -> PureState:
        """The conditional state after the last pass of a single record.

        Each access wraps ``final_amplitudes`` in a new ``PureState``, without a copy.
        """
        if self.final_amplitudes.ndim != 1:
            raise InvalidParam("a batch has one final state per run; read final_amplitudes")
        return PureState._unit(self.final_amplitudes)


def repeated_measurement(
    state: PureState, delta_n: float, count: int, rng, runs: int | None = None
) -> Trajectory:
    """Apply ``count`` sequential readouts at resolution ``delta_n``.

    Draws the hidden photon number once, with probability |c_n|^2, then all
    ``count`` outcomes as independent normal deviates of width ``delta_n``
    around it; with ``count=1`` this is the draw :func:`sample_outcome`
    makes.  The conditional state after pass j is one readout of width
    ``delta_n / sqrt(j)`` at the running mean of the first j outcomes (Gaussian
    windows multiply), so every pass's moments come from that window, as
    :func:`effective_post_state` builds it for the last pass.  The call
    checks every pass's density and builds the final amplitudes; the
    per-pass moments wait for their first read (:class:`Trajectory`).  The
    densities before the last pass are checked by the drawn level's own
    term where that suffices, and band-summed otherwise
    (:func:`measurement._certified`).

    ``runs`` makes that many independent records in one pass over the level
    moments: ``runs`` levels are drawn first, then a (runs, count) block of
    outcomes, and every array of the result gains a leading runs axis.
    ``runs=1`` draws the same stream as the default single record and gives
    the same values.  A batch's rows are not always the bits of their
    single-record calls: its chunks can end inside a pass, and its sums run
    over blocks of rows, so a row's terms may be grouped differently.  Each
    row's ``mean_n``, ``var_n`` and ``coherence_mag`` lie within 1e-13 of
    its single-record values, relative or absolute (``np.allclose`` with
    ``rtol = atol = 1e-13``), and its final amplitudes have fidelity at
    least 1 - 1e-12 to theirs.  The gaps seen at alpha 3 are a few ulps,
    at most 5e-16 relative.

    Raises
    ------
    ZeroProbability
        If a pass's density underflows (:func:`measurement._sequential_posteriors`).
    """
    seed, outcomes, walk = _sampled_walk(state, delta_n, count, rng, runs, moments=False)
    final = walk[4]
    outcomes.setflags(write=False)
    final.setflags(write=False)
    return Trajectory(delta_n, seed, outcomes, final, state)


def _sampled_walk(state: PureState, delta_n, count, rng, runs, moments: bool) -> tuple:
    """The checked inputs, draw and posterior walk of :func:`repeated_measurement`.

    Returns the integer seed (None for a live generator), the outcomes and
    what :func:`measurement._sequential_posteriors` returns for them: the
    densities, means, variances, <a> and final amplitudes.  Without
    ``moments`` the drawn levels vouch for the densities of every pass
    before the last, and only the final amplitudes are not None; with them
    every pass is band-summed, as a :class:`Trajectory`'s first read does.
    """
    count = _integer(count, "count")
    if count < 1:
        raise InvalidParam("count must be at least 1")
    if runs is not None:
        runs = _integer(runs, "runs")
        if runs < 1:
            raise InvalidParam("runs must be at least 1")
    delta_n = measurement._check_delta_n(delta_n)
    gen, seed = _as_generator(rng)
    levels, outcomes = _draw_outcomes(state, delta_n, gen, count, runs)
    # The posterior pass takes a block as (count, runs): .T is a view both ways.
    walk = measurement._sequential_posteriors(
        state, outcomes.T, delta_n, moments=moments, levels=None if moments else levels
    )
    return seed, outcomes, walk


def effective_post_state(
    state: PureState, outcomes: Sequence[float], delta_n: float
) -> PureState:
    """Conditional state of one readout equivalent to a sequence of them.

    A product of Gaussian windows of width ``delta_n`` at the recorded
    outcomes equals, up to normalization, a single window of width
    ``delta_n / sqrt(k)`` at their mean, applied by :func:`measurement.measure`.
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
    samples = _integer(samples, "samples")
    if samples < 1000:
        raise InvalidParam("need at least 1000 samples for stable error bars")
    delta_n = measurement._check_delta_n(delta_n)
    if params.magnitude == 0.0:
        raise InvalidParam("phase-noise comparison requires a nonzero field")
    gen, _ = _as_generator(rng)

    state = coherent_state(params)
    a_initial = expectation_a(state)
    direction = a_initial / abs(a_initial)

    # Route one: outcome-sampled conditional coherence.
    pointer = _draw_outcomes(state, delta_n, gen, 1, samples)[1][:, 0]
    conditional = measurement.coherence_after(state, pointer, delta_n)
    projections = np.real(conditional * np.conj(direction)) / abs(a_initial)
    mc_ratio = float(projections.mean())
    mc_stderr = float(projections.std(ddof=1) / math.sqrt(samples))

    # Route two: random phase rotations with the equivalent noise variance.
    # Rotating the state by exp(-i theta n) rotates its field expectation to
    # exp(-i theta) <a>, whose projection on the initial direction is
    # |<a>| cos(theta), so no rotated state is needed.
    sigma = math.sqrt(measurement.equivalent_phase_noise(delta_n))
    thetas = gen.normal(0.0, sigma, size=samples)
    rotations = np.cos(thetas)
    deph_ratio = float(rotations.mean())
    deph_stderr = float(rotations.std(ddof=1) / math.sqrt(samples))

    return PhaseDiffusionResult(
        measurement_ratio=mc_ratio,
        measurement_stderr=mc_stderr,
        dephasing_ratio=deph_ratio,
        dephasing_stderr=deph_stderr,
        analytic_ratio=measurement.decoherence_factor(delta_n),
    )
