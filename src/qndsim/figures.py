"""Plot-ready tables: fringe profiles, resolution sweeps, and sampled shots.

Each builder names its float columns and hands them to one table helper,
which turns them into rows and echoes the inputs (always with ``alpha`` and
``phase``) for the CSV/JSON writers in :mod:`qndsim.cli`; the tables differ
only in their columns.  Coherence columns hold magnitudes; the input phase
only rotates them globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import approx, correlations, measurement, trajectories
from .errors import InvalidParam
from .fock import CoherentParams, PureState, coherent_state

# Readout resolutions of the four fringe-profile tables.
PROFILE_RESOLUTIONS = {1: 0.7, 2: 0.4, 3: 0.3, 4: 0.2}

# Whether the dashed (density, coherence) curves of profile tables 1-4 are the
# single-harmonic fringe formulas rather than the classical limit.
_FRINGE_DASHED = {1: (False, False), 2: (True, True), 3: (True, True), 4: (True, False)}

# Outcome span of a profile table by default: from 0 for dim fields, from
# half a span below the mean photon number for bright ones, where the fringes
# sit far from 0.
_PROFILE_SPAN = 20.0

# Rows a range may hold: far above a default table's 1 001, far below 10^9.
_MAX_ROWS = 10**6

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


def _table(params: CoherentParams, columns: dict, **config) -> Table:
    """Rows of floats from equal-length named columns; echoes the field too."""
    return Table(
        columns=list(columns),
        rows=np.column_stack(list(columns.values())).tolist(),
        config={**config, "alpha": params.magnitude, "phase": params.phase},
    )


def _steps(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... up to stop; 1e-9 of a step absorbs rounding in the span."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise InvalidParam("range bounds and step must be finite")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_ROWS:
        raise InvalidParam(f"range would hold more than {_MAX_ROWS} rows")
    return start + step * np.arange(math.floor(span) + 1)


def _resolution_sweep(
    params: CoherentParams, dn_min: float, dn_max: float, dn_step: float
) -> tuple[dict, PureState]:
    """Correlation columns at dn_min, dn_min + dn_step, ... up to dn_max.

    Returns the columns ``delta_n``, ``q_bar``, ``avg_coherence_factor`` and
    ``c_over_alpha``, from one quadrature pass over every resolution, and the
    state they average over.  The columns are normalized by |alpha|, so the
    field must be bright.
    """
    if not (0 < dn_min < dn_max) or dn_step <= 0:
        raise InvalidParam("need 0 < dn_min < dn_max and a positive step")
    if params.magnitude == 0.0:
        raise InvalidParam("resolution sweep requires a bright field")
    state = coherent_state(params)
    resolutions = _steps(dn_min, dn_max, dn_step).tolist()
    configs = [measurement.MeasurementConfig.adequate(dn, state.n_max) for dn in resolutions]
    q_bar, average, _, correlation = correlations._covariances(state, configs)
    # hypot is bit-equal to abs() of a Python complex; numpy's complex abs is not.
    columns = {
        "delta_n": resolutions,
        "q_bar": q_bar,
        "avg_coherence_factor": np.hypot(average.real, average.imag) / params.magnitude,
        "c_over_alpha": np.hypot(correlation.real, correlation.imag) / params.magnitude,
    }
    return columns, state


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

    Raises
    ------
    InvalidParam
        Also if the outcome grid reaches where the state's outcome density
        underflows, far from the mean photon number.
    """
    if figure_id not in (1, 2, 3, 4, 5):
        raise InvalidParam("figure id must be 1..5")
    params = params or _default_params()
    if figure_id == 5:
        sweep, _ = _resolution_sweep(params, dn_min, dn_max, dn_step)
        columns = {key: sweep[key] for key in ("delta_n", "c_over_alpha", "q_bar")}
        columns["decoherence_factor"] = list(map(measurement.decoherence_factor, sweep["delta_n"]))
        return _table(params, columns, figure=5, dn_min=dn_min, dn_max=dn_max, dn_step=dn_step)

    dn = delta_n if delta_n is not None else PROFILE_RESOLUTIONS[figure_id]
    dn = measurement._check_delta_n(dn)
    if grid_min is None:
        grid_min = max(0.0, math.floor(params.mean_photon_number) - _PROFILE_SPAN / 2)
    if grid_max is None:
        grid_max = grid_min + _PROFILE_SPAN
    if grid_step <= 0 or grid_min >= grid_max:
        raise InvalidParam("grid bounds must satisfy min < max with positive step")

    state = coherent_state(params)
    grid = _steps(grid_min, grid_max, grid_step)

    p_exact, coherence = measurement._profiles(state, grid, dn)
    vanished = ~(p_exact >= measurement.DENSITY_FLOOR)  # also catches NaN
    if vanished.any():
        raise InvalidParam(measurement._underflow(
            state, grid[vanished], dn,
            f"outcome grid [{grid_min:g}, {grid_max:g}] reaches outside the state's "
            f"support around <n> = {params.mean_photon_number:g}",
        ))
    a_exact = np.abs(coherence / p_exact)
    if params.magnitude == 0.0:
        raise InvalidParam("lowest-order fringes require a bright field")
    class_p = approx.classical_probability(params.mean_photon_number, grid)
    class_a = approx._classical_coherences(params, [dn], grid)
    fringe = approx._fringes(class_p, class_a, approx._modulation([dn], grid))
    fringe_p, fringe_a = _FRINGE_DASHED[figure_id]
    columns = {
        "n_m": grid,
        "p_exact": p_exact,
        "p_approx": fringe.probability[0] if fringe_p else class_p,
        "a_f_exact": a_exact,
        "a_f_dashed": np.abs((fringe.coherence if fringe_a else class_a)[0]),
    }
    if figure_id in _NORMALIZED_IDS:
        anchor = float(math.floor(params.mean_photon_number))
        p_ref = approx.classical_probability(params.mean_photon_number, anchor)
        a_ref = abs(approx.classical_coherence(params, dn, anchor))
        columns["p_mod_norm"] = p_exact / p_ref
        columns["a_f_mod_norm"] = a_exact / a_ref
    return _table(
        params, columns, figure=figure_id, delta_n=dn,
        grid_min=grid_min, grid_max=grid_max, grid_step=grid_step,
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
    columns, state = _resolution_sweep(params, dn_min, dn_max, dn_step)
    reports = approx._error_columns(params, state, columns["delta_n"])
    columns["coh_err_vs_exact"] = [report.max_coherence_error for report in reports]
    columns["coh_err_truncation"] = [report.max_fringe_truncation_error for report in reports]
    return _table(params, columns, dn_min=dn_min, dn_max=dn_max, dn_step=dn_step)


def sample_table(
    params: CoherentParams | None,
    delta_n: float,
    count: int,
    seed: int,
) -> Table:
    """Sequential readout shots on a fresh coherent state, one row per draw."""
    params = params or _default_params()
    state = coherent_state(params)
    trajectory = trajectories.repeated_measurement(state, delta_n, count, seed)
    columns = {
        "step": np.arange(count),
        "n_m": trajectory.outcomes,
        "post_mean_n": trajectory.mean_n,
        "post_var_n": trajectory.var_n,
        "a_f_abs": trajectory.coherence_mag,
    }
    return _table(params, columns, delta_n=delta_n, count=count, seed=trajectory.seed)
