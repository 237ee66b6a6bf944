import math
import warnings

import numpy as np
import pytest

from qndsim import (
    CoherentParams,
    classical_coherence,
    classical_probability,
    lowest_order,
    quantization,
    quantization_sum,
    GridTooNarrow,
    InvalidParam,
    MeasurementConfig,
    ToleranceWarning,
    ZeroProbability,
    average_coherence,
    coherence_after,
    coherence_density,
    coherent_state,
    decoherence_factor,
    equivalent_phase_noise,
    expectation_a,
    grid_profiles,
    infer_excess_noise,
    integer_half_integer_ratio,
    measure,
    number_state,
    outcome_density,
    random_state,
)
from qndsim.measurement import DENSITY_FLOOR, trapezoid

from test_kernel import assert_measure_matches_dense, dense_profiles


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
    """The readout window as ``measure`` applies it, against the dense reference."""

    def test_vacuum_scaling(self):
        # the window at its center is (2 pi dn^2)**-0.25
        for dn in (0.2, 1.0, 3.0):
            scale = (2 * math.pi * dn * dn) ** -0.25
            record = assert_measure_matches_dense(number_state(0), 0.0, dn)
            assert record.density == pytest.approx(scale**2, rel=1e-14)
            assert record.post_state.amplitudes[0] == 1.0

    def test_eigenstate_density_is_gaussian_readout(self):
        for n in (0, 3, 12):
            for n_m in (-0.5, float(n), n + 0.7, n + 2.0):
                for dn in (0.15, 0.6, 2.0):
                    state = number_state(n, 15)
                    expected = math.exp(-((n - n_m) ** 2) / (2 * dn * dn)) / math.sqrt(
                        2 * math.pi * dn * dn
                    )
                    density = outcome_density(state, n_m, dn)
                    assert density == pytest.approx(expected, rel=1e-12)
                    if expected < DENSITY_FLOOR:
                        with pytest.raises(ZeroProbability):
                            measure(state, n_m, dn)
                    else:
                        assert assert_measure_matches_dense(state, n_m, dn).density == density

    def test_point_ratio_about_two(self, alpha3_state):
        # integer outcomes are about twice as likely as half-integer ones at dn=0.3
        p9 = assert_measure_matches_dense(alpha3_state, 9.0, 0.3).density
        p95 = assert_measure_matches_dense(alpha3_state, 9.5, 0.3).density
        assert 1.9 < p9 / p95 < 2.4

    def test_rejects_bad_delta_n(self):
        with pytest.raises(InvalidParam):
            measure(number_state(0), 0.0, 0.0)
        with pytest.raises(InvalidParam):
            outcome_density(number_state(0), 0.0, -1.0)


class TestOutcomeDensity:
    def test_vacuum_peak(self):
        assert outcome_density(number_state(0), 0.0, 1.0) == pytest.approx(
            (2 * math.pi) ** -0.5, rel=1e-14
        )

    def test_matches_apply_norm(self, alpha3_state):
        # the density is the squared norm of the windowed amplitudes
        rng = np.random.default_rng(0)
        for _ in range(20):
            n_m = rng.uniform(-1, 15)
            dn = rng.uniform(0.1, 2.0)
            direct = outcome_density(alpha3_state, n_m, dn)
            squared, _, _ = dense_profiles(alpha3_state, np.array([n_m]), dn)
            assert direct == pytest.approx(squared[0], rel=1e-13)
            assert measure(alpha3_state, n_m, dn).density == direct

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


@pytest.mark.parametrize("readout", [measure, coherence_after])
def test_vanished_density_names_its_cause(readout):
    # The default basis of alpha = 3 is levels 0..37, all of them in the support:
    # at its mean a window of 0.012 falls between levels, 60 lies beyond them.
    state = coherent_state(ALPHA3)
    with pytest.raises(ZeroProbability, match="n_m = 9.5 with delta_n = 0.012 falls between"):
        readout(state, 9.5, 0.012)
    with pytest.raises(ZeroProbability, match="^an outcome lies far outside the state's support$"):
        readout(state, 60.0, 0.012)


@pytest.mark.parametrize("n_m", [math.nan, np.array([9.0, math.nan])])
def test_nan_outcome_vanishes_like_an_underflow(n_m):
    # A NaN density fails the floor test, as it does in measure.
    state = coherent_state(ALPHA3)
    with pytest.raises(ZeroProbability, match="^an outcome lies far outside the state's support$"):
        coherence_after(state, n_m, 0.3)


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
        config = MeasurementConfig.adequate(0.3, 11)
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
            MeasurementConfig(delta_n=0.0, n_max=1, per_unit=10)
        # A float n_max would build a config whose quadratures fail later.
        for n_max in (-1, 37.0, 37.5, math.inf, math.nan):
            with pytest.raises(InvalidParam):
                MeasurementConfig(delta_n=1.0, n_max=n_max, per_unit=10)
        assert MeasurementConfig(0.3, np.int64(37), np.int64(6)).grid_step == 1 / 6

    def test_step_must_be_on_a_lattice(self):
        assert MeasurementConfig(0.3, 12, 50).grid_step == 0.02
        assert MeasurementConfig(0.3, 12, 7).grid_step == 1 / 7
        for per_unit in (0, -3, 2.5, 6.0, math.inf, math.nan, "6"):
            with pytest.raises(InvalidParam):
                MeasurementConfig(delta_n=0.3, n_max=12, per_unit=per_unit)

    def test_grid_is_the_lattice_run_over_the_bounds(self):
        # The basis 0..2 padded by 8 widths, 2.4, reaches -2.4 and 4.4.
        config = MeasurementConfig(0.3, 2, 4)
        assert np.array_equal(config.grid(), np.arange(-10, 19) / 4)
        adequate = MeasurementConfig.adequate(0.3, 60)
        assert adequate.per_unit == 6 and adequate.grid_step == 1 / 6
        assert adequate.grid()[0] == -15 / 6
        assert adequate.grid()[-1] == 375 / 6

    def test_adequate_covers(self):
        config = MeasurementConfig.adequate(0.4, 60)
        for dn in (0.05, 0.1, 0.4, 1.0, 3.0, 5.0, 50.0):
            h = MeasurementConfig.adequate(dn, 60).grid_step
            assert 2 * math.exp(-2 * math.pi**2 * dn**2 * (1 / h - 1) ** 2) <= 1e-16
        grid = config.grid()
        low, high = -8 * 0.4, 60 + 8 * 0.4
        assert low - config.grid_step < grid[0] <= low
        assert high <= grid[-1] < high + config.grid_step


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

    @pytest.mark.parametrize("dn", [0.05, 0.07, 0.1, 0.2, 0.3, 0.4, 0.7, 1.0])
    def test_matches_literal_lattice_sums(self, alpha3_state, dn):
        # The density summed over the integer points of the M = 2 lattice and
        # over its half-integer points, each on its own.  At small dn the
        # half-integers carry about exp(-1/(8 dn^2)) of the mass (e^-50 at
        # 0.05), below the rounding of mass - (Q sum), so that form would fail.
        for state in (alpha3_state, number_state(4, 30)):
            grid, density, _ = grid_profiles(state, MeasurementConfig(dn, state.n_max, 2))
            integers = grid == np.round(grid)
            literal = density[integers].sum() / density[~integers].sum()
            assert integer_half_integer_ratio(state, dn) == pytest.approx(literal, rel=1e-14)


# Every function that accepts a scalar or an array outcome, with the type a
# scalar outcome must give back.
_SCALAR_OR_ARRAY = {
    "outcome_density": (lambda n, s: outcome_density(s, n, 0.3), (float,)),
    "coherence_density": (lambda n, s: coherence_density(s, n, 0.3), (complex,)),
    "coherence_after": (lambda n, s: coherence_after(s, n, 0.3), (complex,)),
    "quantization": (lambda n, s: quantization(n), (float,)),
    "quantization_sum": (lambda n, s: quantization_sum(n, 0.3), (float,)),
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
