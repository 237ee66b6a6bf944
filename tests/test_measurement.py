import math
import warnings

import numpy as np
import pytest

from qndsim import (
    CoherentParams,
    classical_coherence,
    classical_probability,
    gaussian_comb,
    lowest_order,
    quantization,
    quantization_sum,
    GridTooNarrow,
    InvalidParam,
    MeasurementConfig,
    ToleranceWarning,
    ZeroProbability,
    apply_measurement_operator,
    average_coherence,
    coherence_after,
    coherence_density,
    coherent_state,
    decoherence_factor,
    equivalent_phase_noise,
    expectation_a,
    infer_excess_noise,
    integer_half_integer_ratio,
    measure,
    number_state,
    outcome_density,
    random_state,
)
from qndsim.measurement import trapezoid


ALPHA3 = CoherentParams(3.0, 0.0)


@pytest.fixture(scope="module")
def alpha3_state():
    return coherent_state(ALPHA3, 60)


def poisson_weight(lam, n):
    return math.exp(-lam) * lam**n / math.factorial(n)


def density_oracle(lam, n_m, dn, n_max=60):
    # brute-force mixture of Gaussians with exact factorial weights
    return sum(
        poisson_weight(lam, n)
        * math.exp(-((n - n_m) ** 2) / (2 * dn * dn))
        for n in range(n_max + 1)
    ) / math.sqrt(2 * math.pi * dn * dn)


def coherence_oracle(alpha, n_m, dn, n_max=60):
    # closed form for coherent input: dephased alpha times shifted/unshifted comb ratio
    lam = abs(alpha) ** 2
    shifted = sum(
        poisson_weight(lam, n) * math.exp(-((n + 0.5 - n_m) ** 2) / (2 * dn * dn))
        for n in range(n_max + 1)
    )
    plain = sum(
        poisson_weight(lam, n) * math.exp(-((n - n_m) ** 2) / (2 * dn * dn))
        for n in range(n_max + 1)
    )
    return alpha * math.exp(-1 / (8 * dn * dn)) * shifted / plain


class TestApplyOperator:
    def test_vacuum_scaling(self):
        for dn in (0.2, 1.0, 3.0):
            filtered = apply_measurement_operator(number_state(0), 0.0, dn)
            scale = (2 * math.pi * dn * dn) ** -0.25
            assert filtered.amplitudes[0] == pytest.approx(scale, rel=1e-15)
            assert filtered.norm_squared == pytest.approx(scale**2, rel=1e-14)

    def test_eigenstate_density_is_gaussian_readout(self):
        for n in (0, 3, 12):
            for n_m in (-0.5, float(n), n + 0.7, n + 2.0):
                for dn in (0.15, 0.6, 2.0):
                    filtered = apply_measurement_operator(number_state(n, 15), n_m, dn)
                    expected = math.exp(-((n - n_m) ** 2) / (2 * dn * dn)) / math.sqrt(
                        2 * math.pi * dn * dn
                    )
                    assert filtered.norm_squared == pytest.approx(expected, rel=1e-12)

    def test_point_ratio_about_two(self, alpha3_state):
        # integer outcomes are about twice as likely as half-integer ones at dn=0.3
        p9 = apply_measurement_operator(alpha3_state, 9.0, 0.3).norm_squared
        p95 = apply_measurement_operator(alpha3_state, 9.5, 0.3).norm_squared
        assert 1.9 < p9 / p95 < 2.4

    def test_rejects_bad_delta_n(self):
        with pytest.raises(InvalidParam):
            apply_measurement_operator(number_state(0), 0.0, 0.0)
        with pytest.raises(InvalidParam):
            outcome_density(number_state(0), 0.0, -1.0)


class TestOutcomeDensity:
    def test_vacuum_peak(self):
        assert outcome_density(number_state(0), 0.0, 1.0) == pytest.approx(
            (2 * math.pi) ** -0.5, rel=1e-14
        )

    def test_matches_apply_norm(self, alpha3_state):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n_m = rng.uniform(-1, 15)
            dn = rng.uniform(0.1, 2.0)
            direct = outcome_density(alpha3_state, n_m, dn)
            squared = apply_measurement_operator(alpha3_state, n_m, dn).norm_squared
            assert direct == pytest.approx(squared, rel=1e-13)

    def test_against_mixture_oracle(self, alpha3_state):
        grid = np.arange(4.0, 14.0001, 0.25)
        values = outcome_density(alpha3_state, grid, 0.7)
        oracle = np.array([density_oracle(9.0, x, 0.7) for x in grid])
        assert np.max(np.abs(values - oracle)) < 1e-12

    def test_no_visible_fringes_at_dn_07(self, alpha3_state):
        # quantization contrast is within a few 1e-4 of flat
        ratio = integer_half_integer_ratio(alpha3_state, 0.7)
        assert abs(ratio - 1.0) < 1e-3

    def test_modulation_depth_at_dn_04(self, alpha3_state):
        # fringe contrast (sum over integers vs half-integers) at dn = 0.4
        ratio = integer_half_integer_ratio(alpha3_state, 0.4)
        depth = (ratio - 1.0) / (ratio + 1.0)
        assert depth == pytest.approx(0.085, abs=0.001)

    def test_vectorized_matches_scalar(self, alpha3_state):
        grid = np.array([2.0, 9.0, 9.5])
        values = outcome_density(alpha3_state, grid, 0.3)
        for x, v in zip(grid, values):
            assert outcome_density(alpha3_state, float(x), 0.3) == pytest.approx(v, rel=1e-15)


class TestMeasure:
    def test_eigenstate_fixed_point(self):
        state = number_state(5, 10)
        record = measure(state, 5.3, 0.2)
        assert record.post_state.amplitudes[5] == pytest.approx(1.0, abs=1e-14)
        others = np.delete(record.post_state.amplitudes, 5)
        assert np.all(others == 0.0)
        assert record.density == pytest.approx(
            math.exp(-0.09 / 0.08) / math.sqrt(2 * math.pi * 0.04), rel=1e-12
        )

    def test_eigenstate_fixed_point_sweep(self):
        for n in (0, 4, 9):
            state = number_state(n, 12)
            for n_m in (n - 0.4, float(n), n + 1.1):
                for dn in (0.2, 1.0):
                    record = measure(state, n_m, dn)
                    assert abs(record.post_state.amplitudes[n]) == pytest.approx(1.0, abs=1e-14)

    def test_half_integer_outcome_coherence(self, alpha3_state):
        # at sharp resolution a half-integer outcome keeps half the classical amplitude
        record = measure(alpha3_state, 9.5, 0.2)
        assert abs(record.coherence) == pytest.approx(math.sqrt(10.0) / 2.0, rel=0.02)

    def test_full_record_against_oracle(self, alpha3_state):
        record = measure(alpha3_state, 9.0, 0.3)
        assert record.density == pytest.approx(density_oracle(9.0, 9.0, 0.3), abs=1e-10)
        assert record.coherence == pytest.approx(coherence_oracle(3.0, 9.0, 0.3), abs=1e-10)
        assert record.coherence == pytest.approx(expectation_a(record.post_state), abs=1e-14)
        norm = np.linalg.norm(record.post_state.amplitudes)
        assert abs(norm - 1.0) < 1e-12

    def test_zero_probability(self, alpha3_state):
        with pytest.raises(ZeroProbability):
            measure(alpha3_state, 300.0, 0.1)
        with pytest.raises(ZeroProbability):
            measure(alpha3_state, -60.0, 0.1)

    def test_purity_preserved_on_random_states(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            state = random_state(int(rng.integers(1, 40)), rng)
            n_m = rng.normal(loc=10.0, scale=3.0)
            dn = rng.uniform(0.1, 5.0)
            try:
                record = measure(state, n_m, dn)
            except ZeroProbability:
                continue
            assert abs(np.linalg.norm(record.post_state.amplitudes) - 1.0) < 1e-12


class TestCoherenceAfter:
    def test_number_state_has_none(self):
        for n_m in (2.0, 5.5):
            assert coherence_after(number_state(5, 8), n_m, 0.4) == 0j

    def test_classical_regime_value(self, alpha3_state):
        # wide window: dephased square-root law with fringe factor near one
        value = coherence_after(alpha3_state, 9.0, 0.7)
        classical = math.sqrt(9.5) * math.exp(-1 / (8 * 0.49))
        assert abs(value) == pytest.approx(classical, rel=0.02)

    def test_fringe_contrast_factor_four(self, alpha3_state):
        ratio = abs(coherence_after(alpha3_state, 9.5, 0.3)) / abs(
            coherence_after(alpha3_state, 9.0, 0.3)
        )
        assert ratio == pytest.approx(4.0, abs=0.5)

    def test_matches_measure_record(self, alpha3_state):
        record = measure(alpha3_state, 8.7, 0.25)
        assert coherence_after(alpha3_state, 8.7, 0.25) == pytest.approx(
            record.coherence, abs=1e-14
        )

    def test_coherence_density_is_product(self, alpha3_state):
        grid = np.array([8.0, 9.0, 9.5])
        product = coherence_density(alpha3_state, grid, 0.3)
        expected = coherence_after(alpha3_state, grid, 0.3) * outcome_density(
            alpha3_state, grid, 0.3
        )
        assert np.allclose(product, expected, rtol=1e-13)

    def test_input_phase_only_rotates(self):
        # the readout window is real in the number basis, so the input phase
        # passes straight through to the conditional coherence
        rotated = coherent_state(CoherentParams(3.0, 1.2), 60)
        plain = coherent_state(ALPHA3, 60)
        for n_m in (8.8, 9.5):
            a_rot = coherence_after(rotated, n_m, 0.3)
            a_plain = coherence_after(plain, n_m, 0.3)
            assert abs(a_rot) == pytest.approx(abs(a_plain), rel=1e-12)
            assert np.angle(a_rot) == pytest.approx(-1.2, abs=1e-12)


class TestAverageCoherence:
    def test_vacuum_zero(self):
        config = MeasurementConfig.adequate(0.5, 0)
        assert average_coherence(number_state(0), config) == 0j

    def test_quoted_factors(self, alpha3_state):
        for dn, factor in ((0.3, 0.25), (0.2, 0.044)):
            config = MeasurementConfig.adequate(dn, 60)
            value = average_coherence(alpha3_state, config)
            closed = 3.0 * decoherence_factor(dn)
            assert value.real == pytest.approx(closed, abs=1e-10)
            assert value.real / 3.0 == pytest.approx(factor, abs=1e-3)

    def test_identity_for_random_states(self):
        rng = np.random.default_rng(7)
        for dn in (0.2, 0.8, 3.0):
            for _ in range(5):
                state = random_state(int(rng.integers(1, 40)), rng)
                config = MeasurementConfig.adequate(dn, state.n_max)
                value = average_coherence(state, config)
                target = decoherence_factor(dn) * expectation_a(state)
                assert abs(value - target) < 1e-8

    def test_grid_too_narrow(self, alpha3_state):
        config = MeasurementConfig(delta_n=0.3, grid_min=7.0, grid_max=11.0, grid_step=0.02)
        with pytest.raises(GridTooNarrow):
            average_coherence(alpha3_state, config)

    def test_completeness(self):
        rng = np.random.default_rng(8)
        for dn in (0.1, 0.5, 2.0, 5.0):
            state = random_state(int(rng.integers(1, 50)), rng)
            config = MeasurementConfig.adequate(dn, state.n_max)
            grid = config.grid()
            density = outcome_density(state, grid, dn)
            mass = trapezoid(density, config.grid_step)
            assert abs(mass - 1.0) < 1e-8


class TestEnsembleDephasingKernel:
    def test_offdiagonal_damping(self):
        # quadrature oracle: integral of the two windows over outcomes
        for dn in (0.3, 1.0):
            config = MeasurementConfig.adequate(dn, 12)
            grid = config.grid()
            for n, m in ((0, 1), (2, 5), (3, 9)):
                wn = (2 * math.pi * dn * dn) ** -0.25 * np.exp(
                    -((n - grid) ** 2) / (4 * dn * dn)
                )
                wm = (2 * math.pi * dn * dn) ** -0.25 * np.exp(
                    -((m - grid) ** 2) / (4 * dn * dn)
                )
                overlap_integral = trapezoid(wn * wm, config.grid_step)
                expected = math.exp(-((n - m) ** 2) / (8 * dn * dn))
                assert overlap_integral == pytest.approx(expected, abs=1e-10)


class TestMeasurementConfig:
    def test_validation(self):
        with pytest.raises(InvalidParam):
            MeasurementConfig(delta_n=0.0, grid_min=0, grid_max=1, grid_step=0.1)
        with pytest.raises(InvalidParam):
            MeasurementConfig(delta_n=1.0, grid_min=1, grid_max=0, grid_step=0.1)
        with pytest.raises(InvalidParam):
            MeasurementConfig(delta_n=1.0, grid_min=0, grid_max=1, grid_step=0.0)
        with pytest.raises(InvalidParam):
            MeasurementConfig(delta_n=1.0, grid_min=0, grid_max=1, grid_step=0.1, quad_tol=0)

    def test_adequate_covers(self):
        config = MeasurementConfig.adequate(0.4, 60)
        assert config.grid_min <= -8 * 0.4 and config.grid_max >= 60 + 8 * 0.4
        assert config.grid_step <= 0.4 / 8
        grid = config.grid()
        assert grid[0] == pytest.approx(config.grid_min)
        assert grid[-1] >= config.grid_max - config.grid_step


class TestPhaseNoise:
    def test_equivalent_phase_noise_values(self):
        assert equivalent_phase_noise(0.5) == pytest.approx(1.0, rel=1e-15)
        assert equivalent_phase_noise(math.inf) == 0.0
        assert equivalent_phase_noise(1 / (2 * math.sqrt(math.pi))) == pytest.approx(
            math.pi, rel=1e-12
        )
        with pytest.raises(InvalidParam):
            equivalent_phase_noise(0.0)

    def test_infer_excess_ideal_is_zero(self):
        for dn in (0.2, 0.5, 2.0):
            with warnings.catch_warnings():
                # rounding may land an epsilon above the bound; clamp is fine
                warnings.simplefilter("ignore", ToleranceWarning)
                excess = infer_excess_noise(decoherence_factor(dn), dn)
            assert excess == pytest.approx(0.0, abs=1e-9)

    def test_infer_excess_clamps_roundoff(self):
        # a ratio an epsilon above the ideal bound is clamped to zero, flagged
        with pytest.warns(ToleranceWarning):
            excess = infer_excess_noise(decoherence_factor(0.5) * (1 + 1e-12), 0.5)
        assert excess == 0.0

    def test_infer_excess_unit_ratio(self):
        assert infer_excess_noise(1.0, math.inf) == 0.0

    def test_infer_excess_worked_example(self):
        # -2 ln 0.1 = 4.605170186, minimum 1/(4*0.09) = 2.777777778
        value = infer_excess_noise(0.1, 0.3)
        assert value == pytest.approx(-2 * math.log(0.1) - 1 / 0.36, rel=1e-12)
        assert value == pytest.approx(1.8274, abs=1e-4)

    def test_infer_excess_rejects_bad_input(self):
        with pytest.raises(InvalidParam):
            infer_excess_noise(0.0, 0.3)
        with pytest.raises(InvalidParam):
            infer_excess_noise(1.5, 0.3)
        with pytest.raises(InvalidParam):
            # ratio above the ideal bound for this resolution
            infer_excess_noise(0.9, 0.2)


class TestIntegerHalfIntegerRatio:
    def test_state_independent(self, alpha3_state):
        value_coherent = integer_half_integer_ratio(alpha3_state, 0.3)
        value_number = integer_half_integer_ratio(number_state(4, 30), 0.3)
        assert value_coherent == pytest.approx(value_number, rel=1e-10)

    def test_matches_harmonic_contrast(self, alpha3_state):
        # oracle: (1 + 2 sum q^{k^2}) / (1 + 2 sum (-1)^k q^{k^2})
        for dn in (0.2, 0.3, 0.4):
            top = 1 + 2 * sum(math.exp(-2 * math.pi**2 * dn * dn * k * k) for k in range(1, 9))
            bottom = 1 + 2 * sum(
                (-1) ** k * math.exp(-2 * math.pi**2 * dn * dn * k * k) for k in range(1, 9)
            )
            assert integer_half_integer_ratio(alpha3_state, dn) == pytest.approx(
                top / bottom, rel=1e-9
            )


# Every function that accepts a scalar or an array outcome, with the type a
# scalar outcome must give back.
_SCALAR_OR_ARRAY = {
    "outcome_density": (lambda n, s: outcome_density(s, n, 0.3), (float,)),
    "coherence_density": (lambda n, s: coherence_density(s, n, 0.3), (complex,)),
    "coherence_after": (lambda n, s: coherence_after(s, n, 0.3), (complex,)),
    "quantization": (lambda n, s: quantization(n), (float,)),
    "quantization_sum": (lambda n, s: quantization_sum(n, 0.3, 0.5), (float,)),
    "gaussian_comb": (lambda n, s: gaussian_comb(n, 0.3), (float,)),
    "classical_probability": (lambda n, s: classical_probability(9.0, n), (float,)),
    "classical_coherence": (lambda n, s: classical_coherence(ALPHA3, 0.3, n), (complex,)),
    "lowest_order": (lambda n, s: lowest_order(ALPHA3, 0.3, n), (float, complex)),
}


@pytest.mark.parametrize("name", sorted(_SCALAR_OR_ARRAY))
@pytest.mark.parametrize("outcome", [9.3, np.float64(9.3), np.asarray(9.3)])
def test_scalar_outcome_gives_python_scalar(name, outcome, alpha3_state):
    fn, types = _SCALAR_OR_ARRAY[name]
    scalar = fn(outcome, alpha3_state)
    array = fn(np.array([9.3]), alpha3_state)
    if len(types) == 1:
        scalar, array = (scalar,), (array,)
    for value, values, kind in zip(scalar, array, types):
        assert type(value) is kind
        assert isinstance(values, np.ndarray) and values.shape == (1,)
        assert value == values[0]
