"""Variable-resolution photon-number measurement statistics.

A finite-resolution number readout multiplies each photon-number amplitude
by a Gaussian window around the pointer value.  This package provides the
exact outcome statistics of that kernel on a truncated number basis, the
bright-field closed forms (classical limit and single-harmonic fringes),
the quantization/coherence anticorrelation statistics, Monte Carlo outcome
and trajectory sampling, and a CLI that emits plot-ready tables and runs the
acceptance checks.
"""

__version__ = "0.1.0"

from .errors import (
    GridTooNarrow,
    InvalidParam,
    QndError,
    RegimeWarning,
    ToleranceWarning,
    TruncationTooSmall,
    ZeroProbability,
)
from .fock import (
    CoherentParams,
    PureState,
    choose_truncation,
    coherent_state,
    default_cutoff,
    expectation_a,
    expectation_n,
    expectation_parity,
    expectation_parity_squared,
    fidelity,
    number_state,
    overlap,
    random_state,
    variance_n,
)
from .measurement import (
    MeasurementConfig,
    OutcomeRecord,
    average_coherence,
    coherence_after,
    coherence_density,
    decoherence_factor,
    equivalent_phase_noise,
    infer_excess_noise,
    integer_half_integer_ratio,
    measure,
    outcome_density,
)
from .approx import (
    ApproximationReport,
    classical_coherence,
    classical_probability,
    error_report,
    fringe_amplitude,
    lowest_order,
    quantization_sum,
)
from .correlations import (
    CorrelationReport,
    argmax_correlation_resolution,
    average_quantization,
    correlation_at,
    ordering_ambiguity_demo,
    parity_ordered_correlation,
    quantization,
    quantization_coherence_correlation,
)
from .trajectories import (
    PhaseDiffusionResult,
    Trajectory,
    effective_post_state,
    phase_diffusion_equivalence,
    repeated_measurement,
    sample_outcome,
)

__all__ = [name for name in dir() if not name.startswith("_")]
