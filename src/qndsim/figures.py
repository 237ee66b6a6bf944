"""Plot-ready tables: fringe profiles, resolution sweeps, and sampled shots.

Each builder returns a :class:`Table` of named float columns plus a config
echo, ready for the CSV/JSON writers in :mod:`qndsim.cli`.  Coherence columns
hold magnitudes; the input phase only rotates them globally.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import approx, correlations, measurement, trajectories
from .errors import InvalidParam, RegimeWarning
from .fock import CoherentParams, coherent_state, default_cutoff

# Readout resolutions of the four fringe-profile tables.
PROFILE_RESOLUTIONS = {1: 0.7, 2: 0.4, 3: 0.3, 4: 0.2}

# Outcome span of a profile table by default: from 0 for dim fields, from
# half a span below the mean photon number for bright ones, where the fringes
# sit far from 0.
_PROFILE_SPAN = 20.0

# Profiles 2 and 3 carry fringe columns normalized by the classical values
# at the integer nearest the mean intensity.
_NORMALIZED_IDS = (2, 3)


@dataclass
class Table:
    """Named float columns with a reproducibility echo of the inputs."""

    columns: list[str]
    rows: list[list[float]]
    config: dict = field(default_factory=dict)


def _default_params() -> CoherentParams:
    return CoherentParams(3.0, 0.0)


def figure_table(
    figure_id: int,
    params: CoherentParams | None = None,
    delta_n: float | None = None,
    grid_min: float | None = None,
    grid_max: float | None = None,
    grid_step: float = 0.02,
    dn_min: float = 0.1,
    dn_max: float = 1.0,
    dn_step: float = 0.002,
) -> Table:
    """One of the five standard tables.

    Tables 1-4 profile the outcome density and post-readout coherence over an
    outcome grid at a fixed resolution (0.7, 0.4, 0.3, 0.2), with the dashed
    reference curve matching each regime: the classical limit at 0.7, the
    single-harmonic fringe formulas at 0.4 and 0.3, and at 0.2 the fringe
    formula for the density but the classical curve for the coherence (the
    fringe formula for coherence has broken down there).  Table 5 sweeps the
    resolution and tabulates the quantization average, the normalized
    covariance magnitude, and the dephasing factor.

    The outcome grid spans ``_PROFILE_SPAN`` = 20 from ``grid_min``, which
    defaults to max(0, floor(|alpha|^2) - 10): 0 to 20 for the standard
    alpha = 3.
    """
    if figure_id not in (1, 2, 3, 4, 5):
        raise InvalidParam("figure id must be 1..5")
    params = params or _default_params()
    if figure_id == 5:
        return _sweep_correlation_table(params, dn_min, dn_max, dn_step)

    dn = delta_n if delta_n is not None else PROFILE_RESOLUTIONS[figure_id]
    dn = measurement._check_delta_n(dn)
    if grid_min is None:
        grid_min = max(0.0, math.floor(params.mean_photon_number) - _PROFILE_SPAN / 2)
    if grid_max is None:
        grid_max = grid_min + _PROFILE_SPAN
    if grid_step <= 0 or grid_min >= grid_max:
        raise InvalidParam("grid bounds must satisfy min < max with positive step")

    n_max = default_cutoff(params)
    state = coherent_state(params, n_max)
    count = int(round((grid_max - grid_min) / grid_step))
    grid = grid_min + grid_step * np.arange(count + 1)

    p_exact = measurement.outcome_density(state, grid, dn)
    a_exact = np.abs(measurement.coherence_after(state, grid, dn))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        approximate = approx.lowest_order(params, dn, grid)
    class_p = approx.classical_probability(params.mean_photon_number, grid)
    class_a = np.abs(approx.classical_coherence(params, dn, grid))

    if figure_id == 1:
        p_dashed, a_dashed = class_p, class_a
    elif figure_id == 4:
        p_dashed, a_dashed = np.asarray(approximate.probability), class_a
    else:
        p_dashed = np.asarray(approximate.probability)
        a_dashed = np.abs(approximate.coherence)

    columns = ["n_m", "p_exact", "p_approx", "a_f_exact", "a_f_dashed"]
    data = [grid, p_exact, p_dashed, a_exact, a_dashed]
    if figure_id in _NORMALIZED_IDS:
        anchor = float(math.floor(params.mean_photon_number))
        p_ref = approx.classical_probability(params.mean_photon_number, anchor)
        a_ref = abs(approx.classical_coherence(params, dn, anchor))
        columns += ["p_mod_norm", "a_f_mod_norm"]
        data += [p_exact / p_ref, a_exact / a_ref]

    rows = [list(map(float, row)) for row in zip(*data)]
    return Table(
        columns=columns,
        rows=rows,
        config={
            "figure": figure_id,
            "alpha": params.magnitude,
            "phase": params.phase,
            "delta_n": dn,
            "grid_min": grid_min,
            "grid_max": grid_max,
            "grid_step": grid_step,
        },
    )


def _sweep_correlation_table(
    params: CoherentParams, dn_min: float, dn_max: float, dn_step: float
) -> Table:
    if not (0 < dn_min < dn_max) or dn_step <= 0:
        raise InvalidParam("need 0 < dn_min < dn_max and a positive step")
    n_max = default_cutoff(params)
    rows = []
    count = int(round((dn_max - dn_min) / dn_step))
    for k in range(count + 1):
        dn = dn_min + k * dn_step
        config = measurement.MeasurementConfig.adequate(dn, n_max)
        report = correlations.quantization_coherence_correlation(params, config, n_max)
        rows.append(
            [
                float(dn),
                abs(report.correlation) / params.magnitude,
                report.q_bar,
                measurement.decoherence_factor(dn),
            ]
        )
    return Table(
        columns=["delta_n", "c_over_alpha", "q_bar", "decoherence_factor"],
        rows=rows,
        config={
            "figure": 5,
            "alpha": params.magnitude,
            "phase": params.phase,
            "dn_min": dn_min,
            "dn_max": dn_max,
            "dn_step": dn_step,
        },
    )


def sweep_table(
    params: CoherentParams | None,
    dn_min: float,
    dn_max: float,
    dn_step: float,
) -> Table:
    """Resolution sweep of the headline statistics, one row per resolution.

    Columns: quadrature quantization average, normalized average-coherence
    factor, normalized covariance magnitude, and the two closed-form error
    measures of the fringe formulas at the brightest probes.
    """
    params = params or _default_params()
    if not (0 < dn_min < dn_max) or dn_step <= 0:
        raise InvalidParam("need 0 < dn_min < dn_max and a positive step")
    n_max = default_cutoff(params)
    rows = []
    count = int(round((dn_max - dn_min) / dn_step))
    for k in range(count + 1):
        dn = dn_min + k * dn_step
        config = measurement.MeasurementConfig.adequate(dn, n_max)
        report = correlations.quantization_coherence_correlation(params, config, n_max)
        err = approx.error_report(params, dn, n_max)
        rows.append(
            [
                float(dn),
                report.q_bar,
                abs(report.avg_coherence) / params.magnitude,
                abs(report.correlation) / params.magnitude,
                err.max_coherence_error,
                err.max_fringe_truncation_error,
            ]
        )
    return Table(
        columns=[
            "delta_n",
            "q_bar",
            "avg_coherence_factor",
            "c_over_alpha",
            "coh_err_vs_exact",
            "coh_err_truncation",
        ],
        rows=rows,
        config={
            "alpha": params.magnitude,
            "phase": params.phase,
            "dn_min": dn_min,
            "dn_max": dn_max,
            "dn_step": dn_step,
        },
    )


def sample_table(
    params: CoherentParams | None,
    delta_n: float,
    count: int,
    seed: int,
) -> Table:
    """Sequential readout shots on a fresh coherent state, one row per draw."""
    params = params or _default_params()
    if count < 1:
        raise InvalidParam("count must be at least 1")
    n_max = default_cutoff(params)
    state = coherent_state(params, n_max)
    trajectory = trajectories.repeated_measurement(state, delta_n, count, int(seed))
    rows = [
        [float(i), step.n_m, step.mean_n, step.var_n, step.coherence_mag]
        for i, step in enumerate(trajectory.steps)
    ]
    return Table(
        columns=["step", "n_m", "post_mean_n", "post_var_n", "a_f_abs"],
        rows=rows,
        config={
            "alpha": params.magnitude,
            "phase": params.phase,
            "delta_n": delta_n,
            "count": count,
            "seed": int(seed),
        },
    )
