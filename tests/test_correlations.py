import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qndsim import (
    CoherentParams,
    GridTooNarrow,
    InvalidParam,
    MeasurementConfig,
    PureState,
    argmax_correlation_resolution,
    average_coherence,
    average_quantization,
    coherent_state,
    correlation_at,
    decoherence_factor,
    expectation_a,
    fringe_amplitude,
    number_state,
    ordering_ambiguity_demo,
    parity_ordered_correlation,
    quantization,
    quantization_coherence_correlation,
    random_state,
)
from qndsim import correlations
from qndsim.correlations import _apply_annihilation, _apply_parity
from qndsim.measurement import QUAD_TOL, _profiles

from helpers import support, trapezoid
from test_kernel import grid_profiles, make_state

ALPHA3 = CoherentParams(3.0, 0.0)
PEAK_RESOLUTION = 1 / (2 * math.sqrt(math.pi))


def closed_q_bar(dn):
    return math.exp(-2 * math.pi**2 * dn * dn)


@settings(max_examples=15, deadline=None)
@given(
    alpha=st.floats(0.0, 100.0),
    phase=st.floats(-math.pi, math.pi),
    delta_n=st.floats(0.05, 5.0),
)
@example(alpha=100.0, phase=0.3, delta_n=0.05)
@example(alpha=100.0, phase=0.3, delta_n=5.0)
def test_quadratures_match_closed_forms(alpha, phase, delta_n):
    """POVM completeness, q_bar and the dephasing factor on the adequate grid."""
    params = CoherentParams(alpha, phase)
    state = coherent_state(params)
    config = MeasurementConfig.adequate(delta_n, state.n_max)
    grid, density, coherence = grid_profiles(state, config)
    assert abs(trapezoid(density, config.grid_step) - 1.0) <= 1e-8
    q_bar = trapezoid(quantization(grid) * density, config.grid_step)
    assert abs(q_bar - fringe_amplitude(delta_n)) <= QUAD_TOL
    average = trapezoid(coherence, config.grid_step)
    assert abs(average - decoherence_factor(delta_n) * params.alpha) <= QUAD_TOL


def grid_statistics(grid, density, coherence, step):
    """q_bar, average coherence and their covariance by quadrature of the profiles."""
    q_values = quantization(grid)
    q_bar = trapezoid(q_values * density, step)
    average = trapezoid(coherence, step)
    return q_bar, average, trapezoid(q_values * coherence, step) - q_bar * average


@settings(max_examples=40, deadline=None)
@given(
    n_max=st.integers(0, 400),
    delta_n=st.floats(0.05, 5.0),
    kind=st.sampled_from(["random", "upper", "poisson"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_aliasing_bounded_grid_matches_fine_grid(n_max, delta_n, kind, seed):
    """The adequate grid, trimmed to the state's support, against a dn/8 lattice over the basis."""
    state = make_state(kind, n_max, np.random.default_rng(seed))
    fine = MeasurementConfig(delta_n, n_max, math.ceil(8 / delta_n))
    grid = fine.grid()
    want = grid_statistics(grid, *_profiles(state, grid, delta_n), fine.grid_step)
    config = MeasurementConfig.adequate(delta_n, n_max)
    got = grid_statistics(*grid_profiles(state, config), config.grid_step)
    tol = 1e-11 * max(1.0, abs(expectation_a(state)))
    assert all(abs(g - w) <= tol for g, w in zip(got, want))


def test_grid_profiles_trims_the_grid_to_the_support():
    # The benchmark's alpha=25 quadrature: 1 015 levels, support 431..841, so
    # 2 491 of the 6 120 points of the lattice j/6.
    state = coherent_state(CoherentParams(25.0, 0.4), 1015)
    config = MeasurementConfig.adequate(0.3, state.n_max)
    grid, density, coherence = grid_profiles(state, config)
    first, last = support(state)
    low, high = first - 8 * 0.3, last + 8 * 0.3
    assert low - config.grid_step < grid[0] <= low
    assert high <= grid[-1] < high + config.grid_step
    full = config.grid()
    start = int(np.searchsorted(full, grid[0]))
    assert np.array_equal(grid, full[start : start + grid.size])
    assert grid.size < full.size
    j = round(grid[0] * 6) + np.arange(grid.size)
    assert config.per_unit == 6 and np.array_equal(grid, j / 6)
    # The lattice kernel sums in another order than _profiles, on exact offsets.
    want_density, want_coherence = _profiles(state, grid, 0.3)
    kept = density >= 1e-12 * density.max()
    assert np.all(np.abs(density - want_density)[kept] <= 1e-11 * want_density[kept])
    assert np.all(np.abs(coherence - want_coherence)[kept] <= 1e-11 * np.abs(want_coherence[kept]))


# The scan that sets the bounds of analytic_deltas on adequate lattices.
SCAN_ALPHAS = (0.0, 1.0, 3.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 80.0, 100.0)
SCAN_RESOLUTIONS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0)
SCAN_PHASES = (0.0, 0.7, -2.1)
SCAN_BOUNDS = {
    "q_bar": 1e-14,
    "avg_coherence": 7.4e-12,
    "q_coherence_product": 1e-12,
    "correlation": 1e-12,
}


@pytest.mark.parametrize("alpha", SCAN_ALPHAS)
def test_analytic_deltas_over_the_scan(alpha):
    """396 reports: 12 alphas, 11 resolutions, 3 phases, each on its adequate lattice."""
    for phase in SCAN_PHASES:
        params = CoherentParams(alpha, phase)
        state = coherent_state(params)
        configs = [MeasurementConfig.adequate(dn, state.n_max) for dn in SCAN_RESOLUTIONS]
        reports = correlations._correlation_reports(params, state, configs)
        for dn, report in zip(SCAN_RESOLUTIONS, reports):
            for name, bound in SCAN_BOUNDS.items():
                delta = report.analytic_deltas[name]
                assert delta <= bound, (alpha, phase, dn, name, delta)


@pytest.mark.parametrize("alpha", (60.0, 80.0, 100.0))
def test_quadrature_error_against_the_states_own_moments(alpha):
    """The quadratures' own summation error, apart from the state's p_n error.

    Against the closed forms of the state itself, <a> exp(-1/(8 dn^2)) with
    the state's own <a>, the scan's averages are off by rounding alone; the
    state's <a> misses alpha by up to 7.4e-12 at alpha 100, which is what fills
    the scan's ``avg_coherence`` bound.
    """
    for phase in SCAN_PHASES:
        params = CoherentParams(alpha, phase)
        state = coherent_state(params)
        configs = [MeasurementConfig.adequate(dn, state.n_max) for dn in SCAN_RESOLUTIONS]
        target = expectation_a(state)
        reports = correlations._correlation_reports(params, state, configs)
        for dn, report in zip(SCAN_RESOLUTIONS, reports):
            error = abs(report.avg_coherence - target * decoherence_factor(dn))
            assert error <= 5e-14, (phase, dn, error)
            assert abs(report.q_bar - fringe_amplitude(dn)) <= 1e-15, (phase, dn)


class TestQuantization:
    def test_integer_is_plus_one(self):
        assert quantization(9.0) == pytest.approx(1.0, abs=1e-12)

    def test_half_integer_is_minus_one(self):
        assert quantization(9.5) == pytest.approx(-1.0, abs=1e-12)

    def test_quarter_point_is_zero(self):
        assert quantization(9.25) == pytest.approx(0.0, abs=1e-12)

    def test_vectorized(self):
        values = quantization(np.array([0.0, 0.5, 0.25]))
        assert values == pytest.approx([1.0, -1.0, 0.0], abs=1e-12)


class TestAverageQuantization:
    def test_peak_resolution_value(self):
        state = coherent_state(ALPHA3, 60)
        config = MeasurementConfig.adequate(PEAK_RESOLUTION, 60)
        value = average_quantization(state, config)
        assert value == pytest.approx(math.exp(-math.pi / 2), abs=1e-10)
        assert value == pytest.approx(0.208, abs=1e-3)

    def test_classical_limit_vanishes(self):
        state = coherent_state(ALPHA3, 60)
        config = MeasurementConfig.adequate(2.0, 60)
        assert abs(average_quantization(state, config)) < 1e-10

    def test_quadrature_matches_closed_form_dn_03(self):
        state = coherent_state(ALPHA3, 60)
        config = MeasurementConfig.adequate(0.3, 60)
        value = average_quantization(state, config)
        assert value == pytest.approx(closed_q_bar(0.3), abs=1e-10)
        assert value == pytest.approx(0.169, abs=1e-3)

    def test_state_independence(self):
        # holds for any state whose levels sit well inside the grid
        rng = np.random.default_rng(12)
        for dn in (0.25, 0.6, 1.2):
            expected = closed_q_bar(dn)
            for state in (
                number_state(7, 20),
                random_state(30, rng, min_level=int(math.ceil(5 * dn))),
            ):
                config = MeasurementConfig.adequate(dn, state.n_max)
                assert average_quantization(state, config) == pytest.approx(
                    expected, abs=1e-8
                )

    def test_grid_too_narrow(self):
        state = coherent_state(ALPHA3, 60)
        # Levels 0..25 and 8 widths leave out 3.3e-7 of the Poisson(9) mass.
        config = MeasurementConfig.adequate(0.3, 25)
        with pytest.raises(GridTooNarrow, match="mass 0.99999967"):
            average_quantization(state, config)


@pytest.mark.parametrize(
    "entry",
    [
        lambda config: quantization_coherence_correlation(ALPHA3, config),
        lambda config: average_coherence(coherent_state(ALPHA3), config),
        lambda config: average_quantization(coherent_state(ALPHA3), config),
    ],
    ids=["quantization_coherence_correlation", "average_coherence", "average_quantization"],
)
@pytest.mark.parametrize("config", [0.3, None, (0.3, 37, 5)], ids=["float", "none", "tuple"])
def test_entries_refuse_a_non_config(entry, config):
    with pytest.raises(InvalidParam, match="config must be a MeasurementConfig"):
        entry(config)


class TestCorrelationReport:
    def test_peak_values(self):
        config = MeasurementConfig.adequate(PEAK_RESOLUTION, 40)
        report = quantization_coherence_correlation(ALPHA3, config)
        assert abs(report.correlation) == pytest.approx(2 * math.exp(-math.pi) * 3, abs=1e-8)
        assert abs(report.correlation) == pytest.approx(0.2593, abs=2e-4)
        assert report.q_bar == pytest.approx(0.208, abs=1e-3)
        assert abs(report.avg_coherence) / 3 == pytest.approx(0.208, abs=1e-3)

    def test_internal_consistency_exact(self):
        config = MeasurementConfig.adequate(0.3, 40)
        report = quantization_coherence_correlation(ALPHA3, config)
        identity = report.q_coherence_product - report.q_bar * report.avg_coherence
        assert report.correlation == identity

    def test_product_equals_negative_product_of_averages(self):
        config = MeasurementConfig.adequate(0.3, 40)
        report = quantization_coherence_correlation(ALPHA3, config)
        assert report.q_coherence_product == pytest.approx(
            -report.q_bar * report.avg_coherence, abs=1e-8
        )

    def test_analytic_deltas_small(self):
        for dn in (0.2, 0.4, 0.9):
            config = MeasurementConfig.adequate(dn, 40)
            report = quantization_coherence_correlation(ALPHA3, config)
            assert report.consistent
            assert max(report.analytic_deltas.values()) < 1e-8

    def test_bright_field_consistent(self):
        # alpha=100 on its 11 440-level basis: a 64 092-point adequate grid.
        config = MeasurementConfig.adequate(0.3, 11_440)
        report = quantization_coherence_correlation(CoherentParams(100.0, 0.7), config, 11_440)
        assert report.consistent

    def test_limits_vanish(self):
        assert abs(correlation_at(ALPHA3, 3.0)) < 1e-8
        assert abs(correlation_at(ALPHA3, 0.05)) < 1e-8

    def test_anticorrelation_sign(self):
        for phase in (0.0, 1.1, -2.3):
            params = CoherentParams(2.0, phase)
            for dn in (0.2, 0.4, 1.0):
                c = correlation_at(params, dn)
                assert (c * np.conj(params.alpha)).real < 0.0

    def test_matches_operator_correlation(self):
        # covariance over dephasing factor and q_bar reproduces the
        # parity-sandwiched correlation of the input state
        state = coherent_state(ALPHA3, 60)
        for dn in (0.25, 0.4):
            config = MeasurementConfig.adequate(dn, 60)
            report = quantization_coherence_correlation(ALPHA3, config)
            reduced = report.correlation / (report.q_bar * decoherence_factor(dn))
            assert reduced == pytest.approx(parity_ordered_correlation(state), abs=1e-8)


class TestExactFactorization:
    def test_random_states(self):
        rng = np.random.default_rng(5)
        n_max = 48
        for dn in (0.2, 0.5, 1.0):
            config = MeasurementConfig.adequate(dn, n_max)
            grid = config.grid()
            q_values = quantization(grid)
            factor = closed_q_bar(dn) * decoherence_factor(dn)
            for _ in range(5):
                state = random_state(n_max, rng, min_level=int(math.ceil(5 * dn)))
                _, coherence = _profiles(state, grid, dn)
                product = trapezoid(q_values * coherence, config.grid_step)
                assert abs(product - (-factor * expectation_a(state))) < 1e-8


class TestParityCorrelation:
    def test_number_state(self):
        assert parity_ordered_correlation(number_state(6)) == 0j

    def test_two_level_superposition(self):
        state = PureState.from_unnormalized([1.0, 1.0])
        assert parity_ordered_correlation(state) == pytest.approx(-1.0, abs=1e-14)

    def test_coherent_state(self):
        state = coherent_state(ALPHA3, 60)
        assert parity_ordered_correlation(state) == pytest.approx(-6.0, abs=1e-8)

    def test_equals_minus_twice_field(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            state = random_state(int(rng.integers(1, 40)), rng)
            assert abs(
                parity_ordered_correlation(state) + 2 * expectation_a(state)
            ) < 1e-10


class TestOrderingDemo:
    def test_number_state(self):
        demo = ordering_ambiguity_demo(number_state(3))
        assert demo.symmetric == 0j
        assert demo.sandwiched == 0j

    def test_two_level_superposition(self):
        demo = ordering_ambiguity_demo(PureState.from_unnormalized([1.0, 1.0]))
        assert demo.symmetric == pytest.approx(0.5, abs=1e-14)
        assert demo.sandwiched == pytest.approx(-0.5, abs=1e-14)

    def test_coherent_state(self):
        demo = ordering_ambiguity_demo(coherent_state(ALPHA3, 60))
        assert demo.symmetric == pytest.approx(3.0, abs=1e-8)
        assert demo.sandwiched == pytest.approx(-3.0, abs=1e-8)

    def test_orderings_differ_by_sign(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            state = random_state(int(rng.integers(1, 30)), rng)
            demo = ordering_ambiguity_demo(state)
            a_val = expectation_a(state)
            assert demo.symmetric == pytest.approx(a_val, abs=1e-10)
            assert demo.sandwiched == pytest.approx(-a_val, abs=1e-10)

    def test_operator_helpers(self):
        amps = np.array([1.0, 2.0, 3.0], dtype=complex)
        flipped = _apply_parity(amps)
        assert np.allclose(flipped, [1.0, -2.0, 3.0])
        lowered = _apply_annihilation(amps)
        assert np.allclose(lowered, [2.0, 3.0 * math.sqrt(2), 0.0])


class TestArgmax:
    def test_builds_the_state_once(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return coherent_state(*args, **kwargs)

        monkeypatch.setattr(correlations, "coherent_state", counting)
        argmax_correlation_resolution(ALPHA3)
        assert len(built) == 1

    def test_location(self):
        dn_star = argmax_correlation_resolution(ALPHA3)
        assert abs(dn_star - PEAK_RESOLUTION) < 1e-4

    @pytest.mark.parametrize("magnitude", [1.0, 30.0])
    def test_location_away_from_alpha_3(self, magnitude):
        dn_star = argmax_correlation_resolution(CoherentParams(magnitude, 0.7))
        assert abs(dn_star - PEAK_RESOLUTION) < 1e-4

    def test_dark_field(self):
        # The covariance is 0 at every resolution, so there is no maximum.
        with pytest.raises(InvalidParam, match="bright field"):
            argmax_correlation_resolution(CoherentParams(0.0))

    def test_both_factors_equal_at_peak(self):
        dn_star = argmax_correlation_resolution(ALPHA3)
        assert closed_q_bar(dn_star) == pytest.approx(decoherence_factor(dn_star), abs=1e-4)
