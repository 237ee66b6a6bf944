import math

import mpmath
import numpy as np
import pytest

from qndsim import (
    ApproximationReport,
    CoherentParams,
    InvalidParam,
    RegimeWarning,
    classical_coherence,
    classical_probability,
    coherent_state,
    error_report,
    fringe_amplitude,
    lowest_order,
    outcome_density,
    quantization_sum,
)
from qndsim import approx, figures, measurement
from qndsim.approx import SERIES_TOL, _quantization_sums, _series_lengths, _squares
from qndsim.errors import ZeroProbability

from helpers import trapezoid

ALPHA3 = CoherentParams(3.0, 0.0)


def gaussian_comb(n_m, delta_n, offset=0.0):
    """Direct evaluation of the quantization comb: the oracle of the harmonic series.

    (2 pi delta_n^2)**-0.5 sum_n exp(-(n - offset - n_m)^2 / (2 delta_n^2))
    over all integers n within ten widths of the window; the dropped tails
    are below 1e-21.  Scalar in, scalar out.
    """
    grid = np.atleast_1d(np.asarray(n_m, dtype=float))
    lo = math.floor(grid.min() + offset - 10.0 * delta_n) - 1
    hi = math.ceil(grid.max() + offset + 10.0 * delta_n) + 1
    centers = np.arange(lo, hi + 1, dtype=float)
    total = np.sum(
        np.exp(-((centers[None, :] - offset - grid[:, None]) ** 2) / (2.0 * delta_n**2)),
        axis=1,
    )
    value = (2.0 * math.pi * delta_n**2) ** -0.5 * total
    return value if np.ndim(n_m) else value[0]


def comb_at_40_digits(n_m, delta_n):
    """(2 pi delta_n^2)**-0.5 sum_n exp(-(n - n_m)^2 / (2 delta_n^2)) at 40 digits.

    Sums every integer within 40 widths and 3 levels of ``n_m``; the rest is
    below exp(-800) of the peak.
    """
    with mpmath.workdps(40):
        x, dn = mpmath.mpf(n_m), mpmath.mpf(delta_n)
        reach = 3 + int(40 * delta_n)
        nearest = int(mpmath.nint(x))
        total = mpmath.fsum(
            mpmath.exp(-((x - n) ** 2) / (2 * dn**2))
            for n in range(nearest - reach, nearest + reach + 1)
        )
        return total / mpmath.sqrt(2 * mpmath.pi * dn**2)


def dropped_tail(delta_n, count):
    """2 sum_{k > count} q^(k^2), q = exp(-2 pi^2 delta_n^2), at 40 digits."""
    with mpmath.workdps(40):
        q = mpmath.exp(-2 * mpmath.pi**2 * mpmath.mpf(delta_n) ** 2)
        k = count + 1
        term, ratio, total = q ** (k * k), q ** (2 * k + 1), mpmath.mpf(0)
        while term > mpmath.mpf("1e-40"):
            total += term
            term *= ratio
            ratio *= q * q
        return 2 * total


def tail_bound(delta_n, count):
    """The geometric bound 2 q^((K+1)^2) / (1 - q^(2 K + 3)) on that tail, at 40 digits."""
    with mpmath.workdps(40):
        q = mpmath.exp(-2 * mpmath.pi**2 * mpmath.mpf(delta_n) ** 2)
        return 2 * q ** ((count + 1) ** 2) / (1 - q ** (2 * count + 3))


class TestQuantizationSum:
    def test_theta_identity(self):
        # harmonic series vs direct comb across the full resolution range
        grid = np.arange(0.0, 20.0001, 0.05)
        for dn in np.arange(0.15, 3.0001, 0.05):
            for offset in (0.0, 0.5):
                series = quantization_sum(grid + offset, float(dn))
                comb = gaussian_comb(grid, float(dn), offset)
                assert np.max(np.abs(series - comb)) < 1e-10
        # Below dn 0.1 the comb is summed directly; its peak is about 0.4 / dn,
        # and the error is measured against that peak.  dn 0.1 keeps the
        # series, at the bound it had.
        for dn in (0.001, 0.00103, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1):
            near = np.concatenate([grid, 9.0 + dn * np.linspace(-4.0, 4.0, 81)])
            peak = gaussian_comb(0.0, dn)
            bound = 1e-14 if dn < 0.1 else 1e-12
            for offset in (0.0, 0.5):
                series = quantization_sum(near + offset, dn)
                comb = gaussian_comb(near, dn, offset)
                assert np.max(np.abs(series - comb)) < bound * peak, dn

    def test_small_widths_match_the_comb_at_40_digits(self):
        # Where the series would keep hundreds of harmonics, the direct sum
        # is within a few ulps of the comb's peak.  From dn 0.1 the series,
        # summed at each point less its nearest integer, is within
        # SERIES_TOL of the peak however large n_m grows.
        grid = np.concatenate([
            np.arange(0.0, 20.0001, 0.25), 9.0 + np.linspace(-0.5, 0.5, 41), [1e-7, 1e5 + 0.5],
            *(center + np.linspace(-0.5, 0.5, 11) for center in (18.0, 1000.0, 10_000.0)),
        ])
        widths = (0.001, 0.00103, 0.002, 0.005, 0.01, 0.02, 0.05, 0.07, 0.099, 0.1, 0.3, 1.0)
        for dn in widths:
            near = np.concatenate([grid, 9.0 + dn * np.linspace(-4.0, 4.0, 41)])
            exact = [comb_at_40_digits(x, dn) for x in near]
            peak = comb_at_40_digits(0.0, dn)
            error = np.abs(quantization_sum(near, dn) - np.array(exact, dtype=float))
            assert np.max(error) < (1e-15 if dn < 0.1 else SERIES_TOL) * peak, dn

    def test_small_widths_keep_their_bits_in_a_batch(self):
        grid = np.linspace(0.0, 3.0, 31)
        widths = [0.05, 0.3, 0.001, 0.8, 0.1]
        batch = _quantization_sums(grid, _squares(widths))
        for row, dn in zip(batch, widths):
            assert row.tobytes() == _quantization_sums(grid, _squares([dn]))[0].tobytes()

    def test_classical_limit_is_flat(self):
        for n_m in (0.0, 0.25, 7.5, 13.0):
            assert quantization_sum(n_m, 2.0) == pytest.approx(1.0, abs=1e-8)
            assert quantization_sum(n_m + 0.5, 2.0) == pytest.approx(1.0, abs=1e-8)

    def test_lowest_order_value_at_integer(self):
        # 1 + 2 exp(-2 pi^2 0.16) = 1.085 to lowest order
        assert quantization_sum(9.0, 0.4) == pytest.approx(1.085, abs=1e-3)

    def test_half_offset_at_quarter_point(self):
        # matches the comb at a point where odd and even harmonics differ
        value = quantization_sum(9.25, 0.25)
        assert value == pytest.approx(gaussian_comb(9.25, 0.25, 0.0), abs=1e-12)

    def test_comb_is_one_periodic(self):
        grid = np.arange(0.0, 10.0, 0.1)
        for offset in (0.0, 0.5):
            a = gaussian_comb(grid, 0.3, offset)
            b = gaussian_comb(grid + 1.0, 0.3, offset)
            assert np.max(np.abs(a - b)) < 1e-13


class TestFourierTruncation:
    def test_dropped_tail_below_tolerance(self):
        # Down to dn 0.001, where over a thousand harmonics are kept and the
        # bound's denominator 1 - q^(2 K + 3) is about 0.05.
        widths = sorted({*np.geomspace(1e-3, 5.0, 400).tolist(), 0.00103})
        for dn, count in zip(widths, _series_lengths(_squares(widths)).tolist()):
            assert dropped_tail(dn, count) < SERIES_TOL, dn
            assert tail_bound(dn, count) < SERIES_TOL, dn
            if count:
                # the count is the least one the bound allows
                assert tail_bound(dn, count - 1) >= SERIES_TOL, dn

    def test_invalid(self):
        with pytest.raises(InvalidParam):
            quantization_sum(0.5, 0.0)


class TestClassicalProbability:
    def test_peak_value(self):
        assert classical_probability(9.0, 9.0) == pytest.approx(
            (18 * math.pi) ** -0.5, rel=1e-14
        )
        assert classical_probability(9.0, 9.0) == pytest.approx(0.1330, abs=1e-4)

    def test_one_sigma_point(self):
        expected = (18 * math.pi) ** -0.5 * math.exp(-0.5)
        assert classical_probability(9.0, 12.0) == pytest.approx(expected, rel=1e-14)
        assert classical_probability(9.0, 12.0) == pytest.approx(0.0807, abs=1e-4)

    def test_poisson_asymmetry_dominates_deviation(self):
        # the smooth envelope misses the skew of the true number weights:
        # too low below the mean, too high above it
        state = coherent_state(ALPHA3, 60)
        low = outcome_density(state, 8.0, 0.7) - classical_probability(9.0, 8.0)
        high = outcome_density(state, 11.0, 0.7) - classical_probability(9.0, 11.0)
        assert low > 0.0
        assert high < 0.0
        grid = np.arange(0.0, 20.0001, 0.1)
        deviation = np.abs(
            outcome_density(state, grid, 0.7) - classical_probability(9.0, grid)
        )
        assert np.max(deviation) < 0.015

    def test_moments(self):
        grid = np.arange(-20.0, 40.0001, 0.05)
        density = classical_probability(9.0, grid)
        assert trapezoid(density, 0.05) == pytest.approx(1.0, abs=1e-10)
        assert trapezoid(grid * density, 0.05) == pytest.approx(9.0, abs=1e-8)

    def test_invalid(self):
        with pytest.raises(InvalidParam):
            classical_probability(0.0, 1.0)


class TestClassicalCoherence:
    def test_square_root_law_without_dephasing(self):
        assert classical_coherence(ALPHA3, math.inf, 8.5) == pytest.approx(3.0)

    def test_dephased_value(self):
        value = classical_coherence(ALPHA3, 0.7, 9.0)
        assert value == pytest.approx(math.sqrt(9.5) * math.exp(-1 / 3.92), rel=1e-12)
        assert abs(value) == pytest.approx(2.3882, abs=1e-4)

    def test_phase_factorizes(self):
        rotated = classical_coherence(CoherentParams(3.0, math.pi / 2), 0.7, 9.0)
        plain = classical_coherence(ALPHA3, 0.7, 9.0)
        assert abs(rotated) == pytest.approx(abs(plain), rel=1e-14)
        assert np.angle(rotated) == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_invalid_below_half(self):
        with pytest.raises(InvalidParam):
            classical_coherence(ALPHA3, 0.5, -0.75)


class TestLowestOrder:
    def test_probability_ratio_dn_03(self):
        p_int = lowest_order(ALPHA3, 0.3, 9.0).probability
        p_half = lowest_order(ALPHA3, 0.3, 9.5).probability
        envelope = classical_probability(9.0, 9.0) / classical_probability(9.0, 9.5)
        assert (p_int / p_half) / envelope == pytest.approx(2.02, abs=0.01)

    def test_probability_ratio_dn_04(self):
        p_int = lowest_order(ALPHA3, 0.4, 9.0).probability
        p_half = lowest_order(ALPHA3, 0.4, 9.5).probability
        envelope = classical_probability(9.0, 9.0) / classical_probability(9.0, 9.5)
        assert (p_int / p_half) / envelope == pytest.approx(1.19, abs=0.01)

    def test_classical_limit_recovered(self):
        fringe = 2 * fringe_amplitude(1.0)
        assert fringe == pytest.approx(5.4e-9, abs=1e-9)
        result = lowest_order(ALPHA3, 1.0, 9.0)
        assert result.probability == pytest.approx(
            classical_probability(9.0, 9.0), rel=1e-8
        )
        assert abs(result.coherence) == pytest.approx(
            abs(classical_coherence(ALPHA3, 1.0, 9.0)), rel=1e-7
        )

    def test_regime_warning(self):
        with pytest.warns(RegimeWarning):
            lowest_order(ALPHA3, 0.15, 9.0)

    def test_uniform_convergence_to_classical(self):
        grid = np.arange(0.0, 20.0001, 0.1)
        for dn in (1.5, 2.0, 3.0):
            result = lowest_order(ALPHA3, dn, grid)
            p_diff = np.max(np.abs(result.probability - classical_probability(9.0, grid)))
            a_diff = np.max(
                np.abs(result.coherence - classical_coherence(ALPHA3, dn, grid))
            )
            assert p_diff < 1e-8
            assert a_diff < 1e-8

    def test_complementary_fringes(self):
        grid = np.arange(5.0, 13.0001, 0.05)
        dn = 0.35
        result = lowest_order(ALPHA3, dn, grid)
        p_factor = result.probability / classical_probability(9.0, grid)
        a_factor = result.coherence / classical_coherence(ALPHA3, dn, grid)
        modulation = 2 * fringe_amplitude(dn) * np.cos(2 * math.pi * grid)
        product = p_factor * (a_factor * p_factor)
        assert np.allclose(product.real, 1.0 - modulation**2, atol=1e-12)
        assert np.all(product.real <= 1.0 + 1e-12)
        quarter = np.isclose(np.cos(2 * math.pi * grid), 0.0, atol=1e-9)
        assert np.all(product.real[~quarter] < 1.0)


class TestErrorReport:
    def test_probe_points(self):
        report = error_report(ALPHA3, 0.3)
        assert report.probe_points == (9.0, 9.5)
        assert isinstance(report, ApproximationReport)
        assert not report.boundary_flag

    def test_truncation_error_thresholds(self):
        for dn in (0.27, 0.30, 0.35):
            assert error_report(ALPHA3, dn).max_fringe_truncation_error <= 0.01
        for dn in (0.23, 0.25):
            assert error_report(ALPHA3, dn).max_fringe_truncation_error <= 0.10
        assert error_report(ALPHA3, 0.15).max_fringe_truncation_error > 0.10

    def test_envelope_component_reported(self):
        # vs the exact kernel, the symmetric-envelope idealization adds a
        # few-percent floor at these resolutions
        report = error_report(ALPHA3, 0.3)
        assert 0.01 < report.max_coherence_error < 0.05
        assert report.max_coherence_error >= report.max_fringe_truncation_error

    def test_deep_classical_regime(self):
        report = error_report(ALPHA3, 0.7)
        assert report.max_fringe_truncation_error < 1e-6
        assert report.max_coherence_error < 0.02

    def test_boundary_flag(self):
        assert error_report(CoherentParams(1.0), 0.35).boundary_flag

    def test_values_are_mutually_consistent(self):
        report = error_report(ALPHA3, 0.3)
        lo = lowest_order(ALPHA3, 0.3, 9.0)
        assert report.lowest_order_probability[0] == pytest.approx(lo.probability)
        assert report.lowest_order_coherence[0] == pytest.approx(lo.coherence)
        assert report.classical_probability[0] == pytest.approx(
            classical_probability(9.0, 9.0)
        )


class TestErrorColumns:
    @pytest.mark.parametrize("alpha", [1.0, 3.0, 30.0])
    def test_sweep_columns_match_one_resolution_reports(self, alpha):
        params = CoherentParams(alpha)
        table = figures.sweep_table(params, 0.1, 1.0, 0.002)
        columns = dict(zip(table.columns, map(list, zip(*table.rows))))
        reports = [error_report(params, dn) for dn in columns["delta_n"]]
        want = [report.max_fringe_truncation_error for report in reports]
        assert columns["coh_err_truncation"] == want
        exact = np.array([report.max_coherence_error for report in reports])
        assert np.max(np.abs(np.array(columns["coh_err_vs_exact"]) - exact)) <= 1e-14
        batch = approx._error_columns(params, coherent_state(params), columns["delta_n"])
        flags = [report.boundary_flag for report in reports]
        assert batch.boundary_flag.tolist() == flags
        assert any(flags) == (alpha == 1.0)

    @pytest.mark.parametrize("alpha, phase", [(1.0, 0.0), (3.0, 0.4), (30.0, -2.1), (100.0, 1.0)])
    def test_columns_equal_every_report_field(self, alpha, phase):
        """Closed forms exactly; kernel values and errors within 1e-14 relative (sum order)."""
        params = CoherentParams(alpha, phase)
        resolutions = 0.1 + 0.002 * np.arange(451)
        columns = approx._error_columns(params, coherent_state(params), resolutions)
        kernel = {
            "exact_probability", "exact_coherence", "max_probability_error", "max_coherence_error",
        }
        for k in range(0, 451, 9):
            report = error_report(params, float(resolutions[k]))
            for name, column in columns._asdict().items():
                got = column if name in ("probe_points", "classical_probability") else column[k]
                want = np.asarray(getattr(report, name))
                if name in kernel:
                    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), name
                else:
                    assert np.array_equal(got, want), name

    def test_sweep_takes_its_error_probes_in_one_kernel_call(self, monkeypatch):
        calls = []
        kernel = measurement._band_profiles

        def counting(state, n_m, delta_n):
            calls.append(np.size(delta_n))
            return kernel(state, n_m, delta_n)

        monkeypatch.setattr(measurement, "_band_profiles", counting)
        assert len(figures.sweep_table(ALPHA3, 0.1, 1.0, 0.002).rows) == 451
        assert calls == [902]

    def test_vanishing_probe_names_the_smallest_failing_resolution(self):
        # Between levels the density at 9.5 underflows once dn < 0.0135.
        state = coherent_state(ALPHA3)
        with pytest.raises(ZeroProbability) as caught:
            approx._error_columns(ALPHA3, state, [0.3, 0.013, 0.011, 0.5])
        assert str(caught.value) == (
            "error probe n_m = 9.5 has outcome density below 1e-300 at delta_n = 0.011"
            ", among 2 failing resolutions"
        )
