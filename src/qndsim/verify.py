"""Acceptance suite: every headline number, checked at a pinned tolerance.

Each criterion is a generator of ``(label, value, expected, tolerance[,
mode])`` checks, registered once with ``@_criterion(name, group)``.  The
registry stamps the name and group onto every check as a :class:`CheckRow`,
fills :data:`CRITERIA` and derives :data:`GROUPS` from it.  A criterion
passes when all of its rows pass.  The CLI ``verify`` command prints one
line per row and exits nonzero if anything fails; the pytest acceptance
module asserts the same rows.  All randomized checks use fixed seeds, so a
pass is reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import approx, correlations, measurement, trajectories
from .errors import InvalidParam, QndError, RegimeWarning, ToleranceWarning
from .fock import (
    CoherentParams,
    coherent_state,
    expectation_a,
    expectation_n,
    fidelity,
    random_state,
)

_SEED = 20250808
_BENCH = CoherentParams(3.0, 0.0)
_BENCH_N_MAX = 60


@dataclass(frozen=True)
class CheckRow:
    """One comparison: |value - expected| <= tolerance (or a one-sided bound)."""

    criterion: str
    group: str
    label: str
    value: float
    expected: float
    tolerance: float
    mode: str = "abs"  # "abs" | "le" | "ge"

    @property
    def passed(self) -> bool:
        if math.isnan(self.value):
            return False
        if self.mode == "le":
            return self.value <= self.expected
        if self.mode == "ge":
            return self.value >= self.expected
        return abs(self.value - self.expected) <= self.tolerance


def format_row(row: CheckRow) -> str:
    status = "PASS" if row.passed else "FAIL"
    relation = {"abs": "~", "le": "<=", "ge": ">="}[row.mode]
    return (
        f"{status}  [{row.group}] {row.label}: value={row.value:.10g} "
        f"{relation} expected={row.expected:.10g} tol={row.tolerance:.3g}"
    )


# Criterion name -> function returning its CheckRows, in run order.
CRITERIA: dict[str, Callable[[], list[CheckRow]]] = {}
# Group name (for ``--only``) -> the criterion names it runs.
GROUPS: dict[str, list[str]] = {}


def _criterion(name: str, group: str):
    """Register a generator of checks as the criterion ``name`` in ``group``."""

    def register(checks):
        @functools.wraps(checks)
        def criterion() -> list[CheckRow]:
            return [CheckRow(name, group, *check) for check in checks()]

        CRITERIA[name] = criterion
        GROUPS.setdefault(group, []).append(name)
        return criterion

    return register


def _benchmark_state():
    return coherent_state(_BENCH, _BENCH_N_MAX)


@_criterion("fringe-modulation", "fringe")
def criterion_fringe_modulation():
    """Quadrature fringe modulation 2*q_bar at resolutions 0.4 and 0.3."""
    state = _benchmark_state()
    for dn, quoted in ((0.4, 0.085), (0.3, 0.338)):
        config = measurement.MeasurementConfig.adequate(dn, state.n_max)
        value = 2.0 * correlations.average_quantization(state, config)
        yield (f"2*q_bar at dn={dn} vs closed form",
               value, 2.0 * approx.fringe_amplitude(dn), 0.001)
        yield f"2*q_bar at dn={dn} vs quoted {quoted}", value, quoted, 0.002


@_criterion("decoherence-factor", "decoherence")
def criterion_decoherence_factor():
    """Quadrature average-coherence factor at resolutions 0.3 and 0.2."""
    state = _benchmark_state()
    for dn, quoted in ((0.3, 0.25), (0.2, 0.044)):
        config = measurement.MeasurementConfig.adequate(dn, state.n_max)
        value = abs(measurement.average_coherence(state, config)) / _BENCH.magnitude
        yield (f"|avg coherence|/alpha at dn={dn} vs closed form",
               value, measurement.decoherence_factor(dn), 1e-6)
        yield f"|avg coherence|/alpha at dn={dn} vs quoted {quoted}", value, quoted, 0.001


@_criterion("likelihood-ratios", "ratios")
def criterion_likelihood_ratios():
    """Total integer vs half-integer outcome likelihood from the exact kernel.

    Summing the density over all integers and all half-integers cancels the
    envelope of the number distribution, isolating the quantization contrast
    the quoted ratios describe.
    """
    state = _benchmark_state()
    for dn, expected, tol in ((0.4, 1.19, 0.03), (0.3, 2.0, 0.1), (0.2, 10.0, 2.0)):
        value = measurement.integer_half_integer_ratio(state, dn)
        yield f"integer/half-integer likelihood at dn={dn}", value, expected, tol


@_criterion("coherence-contrast", "contrast")
def criterion_coherence_contrast():
    """Post-readout coherence at a half-integer over an integer outcome, dn=0.3."""
    state = _benchmark_state()
    ratio = abs(measurement.coherence_after(state, 9.5, 0.3)) / abs(
        measurement.coherence_after(state, 9.0, 0.3)
    )
    yield "|a_f(9.5)| / |a_f(9.0)| at dn=0.3", ratio, 4.0, 0.5


@_criterion("deep-quantum-coherence", "deep")
def criterion_deep_quantum():
    """Half-integer outcomes keep large coherence even at dn=0.2."""
    state = _benchmark_state()
    dn = 0.2
    a_half = abs(measurement.coherence_after(state, 9.5, dn))
    a_int = abs(measurement.coherence_after(state, 9.0, dn))
    target = math.sqrt(10.0) / 2.0
    classical_half = measurement.decoherence_factor(dn) * math.sqrt(10.0)
    classical_int = measurement.decoherence_factor(dn) * math.sqrt(9.5)
    yield "|a_f(9.5)| at dn=0.2 vs sqrt(10)/2 (2%)", a_half, target, 0.02 * target
    yield "|a_f(9.5)| exceeds 10x classical average", a_half, 10.0 * classical_half, 0.0, "ge"
    yield "|a_f(9.0)| below a tenth of classical average", a_int, 0.1 * classical_int, 0.0, "le"


@_criterion("lowest-order-accuracy", "approx")
def criterion_lowest_order_accuracy():
    """Single-harmonic coherence-fringe accuracy thresholds, and the breakdown.

    The thresholds bound the harmonic-truncation component of the error
    (``max_fringe_truncation_error``); the full deviation from the exact
    kernel additionally carries the Poisson-envelope asymmetry and is
    reported by ``error_report`` separately.
    """
    for bound, resolutions in ((0.01, (0.27, 0.30, 0.35)), (0.10, (0.23, 0.25))):
        for dn in resolutions:
            report = approx.error_report(_BENCH, dn, _BENCH_N_MAX)
            yield (f"fringe truncation error at dn={dn} within {bound:.0%}",
                   report.max_fringe_truncation_error, bound, 0.0, "le")
    breakdown = approx.error_report(_BENCH, 0.15, _BENCH_N_MAX)
    yield ("fringe truncation error at dn=0.15 exceeds 10% (breakdown)",
           breakdown.max_fringe_truncation_error, 0.10, 0.0, "ge")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        approx.lowest_order(_BENCH, 0.15, 9.0)
    flagged = any(issubclass(w.category, RegimeWarning) for w in caught)
    yield "regime warning raised below dn=0.2", 1.0 if flagged else 0.0, 1.0, 0.0


@_criterion("correlation-maximum", "correlation")
def criterion_correlation_maximum():
    """Location and value of the quantization/coherence covariance maximum."""
    target = 1.0 / (2.0 * math.sqrt(math.pi))
    dn_star = correlations.argmax_correlation_resolution(_BENCH, 0.1, 1.0, tol=1e-5)
    config = measurement.MeasurementConfig.adequate(dn_star, _BENCH_N_MAX)
    q_bar = correlations.average_quantization(_benchmark_state(), config)
    reference = math.exp(-math.pi / 2.0)
    yield "argmax of |covariance| over dn", dn_star, target, 1e-4
    yield "q_bar at the maximum vs exp(-pi/2)", q_bar, reference, 1e-4
    yield ("dephasing factor at the maximum vs exp(-pi/2)",
           measurement.decoherence_factor(dn_star), reference, 1e-4)


@_criterion("exact-factorization", "factorization")
def criterion_exact_factorization():
    """Quadrature of Q(n_m) <a>_f(n_m) P(n_m) factorizes for arbitrary states."""
    rng = np.random.default_rng(_SEED)
    n_max = 63
    for dn in (0.2, 0.3, 0.5, 1.0):
        min_level = int(math.ceil(5.0 * dn))
        config = measurement.MeasurementConfig.adequate(dn, n_max)
        grid = config.grid()
        q_values = correlations.quantization(grid)
        factor = approx.fringe_amplitude(dn) * measurement.decoherence_factor(dn)
        worst = 0.0
        for _ in range(50):
            state = random_state(n_max, rng, min_level=min_level)
            _, coherence = measurement._profiles(state, grid, dn)
            product = measurement.trapezoid(q_values * coherence, config.grid_step)
            target = -factor * expectation_a(state)
            worst = max(worst, abs(product - target))
        yield f"max |quadrature - closed form| over 50 states at dn={dn}", worst, 0.0, 1e-8


@_criterion("parity-identities", "parity")
def criterion_parity_identities():
    """Operator-ordering identities on random states."""
    rng = np.random.default_rng(_SEED + 1)
    worst_corr = 0.0
    worst_demo = 0.0
    for _ in range(100):
        state = random_state(int(rng.integers(1, 48)), rng)
        a_val = expectation_a(state)
        worst_corr = max(
            worst_corr, abs(correlations.parity_ordered_correlation(state) + 2.0 * a_val)
        )
        demo = correlations.ordering_ambiguity_demo(state)
        worst_demo = max(worst_demo, abs(demo.symmetric - a_val), abs(demo.sandwiched + a_val))
    yield "max |sandwiched correlation + 2<a>| over 100 states", worst_corr, 0.0, 1e-10
    yield "max ordering-demo deviation from (<a>, -<a>)", worst_demo, 0.0, 1e-10


@_criterion("povm-completeness", "povm")
def criterion_povm_completeness():
    """Outcome densities integrate to one; conditional states stay normalized."""
    rng = np.random.default_rng(_SEED + 2)
    worst_mass = 0.0
    worst_norm = 0.0
    for dn in (0.1, 0.5, 1.0, 2.5, 5.0):
        for _ in range(10):
            state = random_state(int(rng.integers(1, 64)), rng)
            config = measurement.MeasurementConfig.adequate(dn, state.n_max)
            grid = config.grid()
            density, _ = measurement._profiles(state, grid, dn)
            mass = measurement.trapezoid(density, config.grid_step)
            worst_mass = max(worst_mass, abs(mass - 1.0))
            outcome = rng.normal(expectation_n(state), dn)
            post = measurement.measure(state, outcome, dn).post_state
            worst_norm = max(worst_norm, abs(np.linalg.norm(post.amplitudes) - 1.0))
    yield "max |integral of P - 1| over states and dn in [0.1, 5]", worst_mass, 0.0, 1e-8
    yield "max |post-state norm - 1|", worst_norm, 0.0, 1e-12


@_criterion("repeated-measurement", "repeat")
def criterion_repeated_measurement():
    """Sequential readouts compose into one sharper readout; posteriors martingale."""
    state = _benchmark_state()
    trajectory = trajectories.repeated_measurement(state, 1.0, 100, _SEED + 3)
    effective = trajectories.effective_post_state(state, trajectory.outcomes, 1.0)
    fid = fidelity(trajectory.final_state, effective)

    rng = np.random.default_rng(_SEED + 4)
    runs = 10_000
    bins = np.arange(6, 13)
    prior = state.probabilities()[bins]
    samples = np.empty((runs, bins.size))
    for i in range(runs):
        final = trajectories.repeated_measurement(state, 1.0, 2, rng).final_state
        samples[i] = final.probabilities()[bins]
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(runs)
    z_max = float(np.max(np.abs(samples.mean(axis=0) - prior) / stderr))
    yield "fidelity of 100-pass trajectory vs effective single readout", fid, 1.0, 1e-10
    yield "martingale max |z| over number bins (10^4 trajectories)", z_max, 3.0, 0.0, "le"


@_criterion("phase-diffusion", "phase")
def criterion_phase_diffusion():
    """Back-action equals minimum-variance phase diffusion, MC and exactly."""
    for i, dn in enumerate((0.3, 0.5, 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ToleranceWarning)
            result = trajectories.phase_diffusion_equivalence(_BENCH, dn, 100_000, _SEED + 5 + i)
            try:
                excess = measurement.infer_excess_noise(measurement.decoherence_factor(dn), dn)
            except QndError:
                excess = math.nan
        yield (f"measurement-averaged ratio at dn={dn} within 5 SE", result.measurement_ratio,
               result.analytic_ratio, 5.0 * result.measurement_stderr)
        yield (f"phase-rotation ratio at dn={dn} within 5 SE", result.dephasing_ratio,
               result.analytic_ratio, 5.0 * result.dephasing_stderr)
        yield f"ideal readout infers zero excess noise at dn={dn}", excess, 0.0, 1e-9


def run_acceptance(only: str | None = None) -> list[CheckRow]:
    """Run all (or one group of, or one) acceptance criteria and return their rows."""
    if only is None:
        names = list(CRITERIA)
    elif only in GROUPS:
        names = GROUPS[only]
    elif only in CRITERIA:
        names = [only]
    else:
        raise InvalidParam(
            f"unknown group {only!r}; choose from {sorted(GROUPS)} or a criterion name"
        )
    return [row for name in names for row in CRITERIA[name]()]
