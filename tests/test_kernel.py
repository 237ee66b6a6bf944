"""The banded readout kernel against the literal windowed contraction.

``dense_profiles`` is the reference: it windows the amplitudes at every
(outcome, level) cell and contracts, with no banding, no factorization and
no chunking.  The kernel must match it to 1e-12 relative wherever the
density is above ``DENSITY_FLOOR``.  The coherence is a sum of terms of
either sign, so its error is measured against the sum of the terms'
magnitudes (plus ``DENSITY_FLOOR``, for the few subnormal terms).

``dense_condition`` is the reference for one outcome's conditional state:
the windowed amplitudes c * w, normalized, in the linear domain.  ``measure``
must match both references to the same tolerances, and its state
``dense_condition``'s to a fidelity of 1 - 1e-12.
"""

import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln

from qndsim import (
    CoherentParams,
    GridTooNarrow,
    MeasurementConfig,
    PureState,
    ZeroProbability,
    coherence_after,
    coherent_state,
    fidelity,
    measure,
    number_state,
    outcome_density,
    random_state,
)
from qndsim import figures, measurement
from qndsim.measurement import (
    _BAND_WIDTHS,
    _CERTIFIED,
    _CHUNK_CELLS,
    _PAD_WIDTHS,
    _PROFILE_WIDTHS,
    DENSITY_FLOOR,
    QUAD_TOL,
    _adequate_lattices,
    _band_profiles,
    _band_schedule,
    _band_sums,
    _band_weights,
    _lattice_floors,
    _profiles,
    _quadratures,
    _reach,
    _too_narrow,
    _window_constants,
)
from qndsim.trajectories import _draw_outcomes

from helpers import support, trapezoid, windows_view

RTOL = 1e-12


def dense_profiles(state, grid, delta_n):
    """Density, coherence and coherence term-magnitude sum, cell by cell."""
    c = state.amplitudes
    n = np.arange(c.size)
    w = (2.0 * math.pi * delta_n**2) ** -0.25 * np.exp(
        -((n[None, :] - grid[:, None]) ** 2) / (4.0 * delta_n**2)
    )
    filtered = c[None, :] * w
    density = np.sum(np.abs(filtered) ** 2, axis=1)
    terms = np.conj(filtered[:, :-1]) * filtered[:, 1:] * np.sqrt(n[1:])[None, :]
    return density, terms.sum(axis=1), np.abs(terms).sum(axis=1)


class DenseRecord(NamedTuple):
    """Conditional state, its <a> and the <a> terms' magnitude sum."""

    post_state: PureState
    coherence: complex
    scale: float


def dense_condition(state, n_m, delta_n):
    """Condition ``state`` on ``n_m``: window the amplitudes, normalize, take <a>."""
    c = state.amplitudes
    n = np.arange(c.size)
    w = (2.0 * math.pi * delta_n**2) ** -0.25 * np.exp(-((n - n_m) ** 2) / (4.0 * delta_n**2))
    post = PureState.from_unnormalized(c * w)
    u = post.amplitudes
    terms = np.conj(u[:-1]) * u[1:] * np.sqrt(n[1:])
    return DenseRecord(post, complex(terms.sum()), float(np.abs(terms).sum()))


def assert_measure_matches_dense(state, n_m, delta_n):
    """``measure`` at one outcome against both references; returns its record."""
    record = measure(state, n_m, delta_n)
    ref_density = dense_profiles(state, np.array([n_m]), delta_n)[0][0]
    ref = dense_condition(state, n_m, delta_n)
    assert record.n_m == n_m
    assert abs(record.density - ref_density) <= RTOL * ref_density
    assert abs(record.coherence - ref.coherence) <= RTOL * (ref.scale + DENSITY_FLOOR)
    assert fidelity(record.post_state, ref.post_state) >= 1.0 - RTOL
    return record


def assert_matches_dense(state, grid, delta_n):
    density, coherence = _profiles(state, grid, delta_n)
    ref_density, ref_coherence, scale = dense_profiles(state, grid, delta_n)
    live = ref_density > DENSITY_FLOOR
    assert np.all(np.abs(density - ref_density)[live] <= RTOL * ref_density[live])
    assert np.all(density[~live] <= 2.0 * DENSITY_FLOOR)
    error = np.abs(coherence - ref_coherence)[live]
    assert np.all(error <= RTOL * (scale[live] + DENSITY_FLOOR))


def make_state(kind, n_max, rng):
    if kind == "random":
        return random_state(n_max, rng)
    if kind == "upper":
        return random_state(n_max, rng, min_level=int(rng.integers(0, n_max + 1)))
    # A coherent state cut at n_max: a Poisson envelope with a linear phase.
    n = np.arange(n_max + 1)
    mean = n_max * rng.uniform(0.01, 0.8) + 0.5
    log_weight = n * math.log(mean) - mean - gammaln(n + 1)
    phase = rng.uniform(-math.pi, math.pi)
    return PureState.from_unnormalized(np.exp(0.5 * log_weight - 1j * phase * n))


def make_grid(n_max, delta_n, points, rng):
    """Unsorted outcomes over the support, its Gaussian tails and far outside it."""
    pad = 40.0 * delta_n + 2.0
    near = rng.uniform(-pad, n_max + pad, size=points)
    far = np.array([-1e6, -3.0 * pad, n_max + 3.0 * pad, n_max + 1e6])
    grid = np.concatenate([near, rng.integers(0, n_max + 1, size=3) + 0.5, far])
    return rng.permutation(grid)


@settings(max_examples=60, deadline=None)
@given(
    n_max=st.integers(0, 400),
    delta_n=st.floats(0.05, 5.0),
    kind=st.sampled_from(["random", "upper", "poisson"]),
    points=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_dense_contraction(n_max, delta_n, kind, points, seed):
    rng = np.random.default_rng(seed)
    state = make_state(kind, n_max, rng)
    assert_matches_dense(state, make_grid(n_max, delta_n, points, rng), delta_n)


@settings(max_examples=25, deadline=None)
@given(
    n_max=st.integers(0, 30),
    delta_n=st.floats(1.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_wider_than_basis(n_max, delta_n, seed):
    rng = np.random.default_rng(seed)
    assert_matches_dense(random_state(n_max, rng), make_grid(n_max, delta_n, 20, rng), delta_n)


def test_many_chunks():
    rng = np.random.default_rng(7)
    state = random_state(60, rng)
    grid = rng.permutation(np.linspace(-2.0, 62.0, 40_000))
    assert_matches_dense(state, grid, 0.1)


@pytest.mark.parametrize("delta_n", [0.07, 0.3, 2.0])
def test_a_constant_width_array_is_the_float_call_bit_for_bit(delta_n):
    rng = np.random.default_rng(11)
    state = make_state("poisson", 200, rng)
    grid = make_grid(200, delta_n, 300, rng)
    want = _profiles(state, grid, delta_n)
    got = _band_profiles(state, grid, np.full(grid.size, delta_n))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_one_width_per_outcome_matches_per_width_calls(order):
    # Narrow windows ride in chunks of wider bands, which may sum them in
    # another order: the match is to rounding, not to the bit.
    rng = np.random.default_rng(23)
    state = make_state("poisson", 300, rng)
    resolutions = np.array([0.05, 0.1, 0.2, 0.28, 0.35, 1.0, 1.7, 3.0])
    grid = rng.uniform(-5.0, 305.0, (resolutions.size, 50))
    widths = np.repeat(resolutions, 50)
    arrange = {
        "ascending": np.arange(widths.size),
        "descending": np.arange(widths.size)[::-1],
        "shuffled": rng.permutation(widths.size),
    }[order]
    density, coherence = _band_profiles(state, grid.ravel()[arrange], widths[arrange])
    back = np.argsort(arrange)
    density, coherence = density[back].reshape(grid.shape), coherence[back].reshape(grid.shape)
    for row, delta_n in enumerate(resolutions):
        want_density, want_coherence = _profiles(state, grid[row], delta_n)
        ref_density, ref_coherence, scale = dense_profiles(state, grid[row], delta_n)
        assert np.all(np.abs(density[row] - want_density) <= 1e-14 * want_density)
        assert np.all(np.abs(coherence[row] - want_coherence) <= 1e-14 * (scale + DENSITY_FLOOR))
        live = ref_density > DENSITY_FLOOR
        assert np.all(np.abs(density[row] - ref_density)[live] <= RTOL * ref_density[live])
        error = np.abs(coherence[row] - ref_coherence)[live]
        assert np.all(error <= RTOL * (scale[live] + DENSITY_FLOOR))


def test_windows_are_the_sliding_window_view_read_only():
    values = np.arange(36.0).reshape(3, 12)
    windows = windows_view(values, 5)
    assert np.array_equal(windows, sliding_window_view(values, 5, axis=1))
    assert not windows.flags.writeable
    complex_values = values[0] * (1 + 2j)
    assert np.array_equal(windows_view(complex_values, 4), sliding_window_view(complex_values, 4))


def band_width(w, levels, factor=_BAND_WIDTHS):
    return np.minimum(levels, 2.0 * (factor * w + 0.5) + 1.0)


FACTORS = pytest.mark.parametrize("factor", [_BAND_WIDTHS, _PROFILE_WIDTHS])


@FACTORS
@pytest.mark.parametrize("passes, delta_n", [(200, 2.0), (2000, 0.3), (7, 5.0)])
def test_chunks_end_where_the_band_halves(passes, delta_n, factor):
    # Sequential posteriors narrow as dn / sqrt(j); 1 016 levels, as at alpha 25.
    widths = delta_n / np.sqrt(np.arange(1, passes + 1))
    chunks = list(_band_schedule(widths, 1016, factor))
    assert chunks[0][0].start == 0 and chunks[-1][0].stop == passes
    for (rows, _, width), (after, _, _) in zip(chunks, chunks[1:] + [(None, None, None)]):
        assert np.all(band_width(widths[rows], 1016, factor) >= width / 2)
        assert width * (rows.stop - rows.start) <= max(width, _CHUNK_CELLS)
        if after is not None:
            assert after.start == rows.stop
            full = (rows.stop - rows.start) == _CHUNK_CELLS // width
            assert full or band_width(widths[after.start], 1016, factor) < width / 2


@FACTORS
def test_constant_width_chunks_fill_the_cell_budget(factor):
    chunks = list(_band_schedule(np.full(20_000, 0.3), 1016, factor))
    width = chunks[0][2]
    assert width == int(band_width(0.3, 1016, factor))
    assert [rows.stop - rows.start for rows, _, _ in chunks[:-1]] == [_CHUNK_CELLS // width] * (
        len(chunks) - 1
    )


def full_band_profiles(state, grid, delta_n):
    """:func:`_band_profiles` with every row summed over the full 38.7-width band."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measurement, "_PROFILE_WIDTHS", _BAND_WIDTHS)
        return _band_profiles(state, grid, delta_n)


def assert_same_bits(got, want):
    for values, reference in zip(got, want):
        assert np.array_equal(values, reference, equal_nan=True)


TAIL_RESOLUTIONS = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 2.0]


def tail_to_tail(state, delta_n, rng, points=1500):
    """Outcomes from 45 widths below the support to 45 widths above it, and lattice probes."""
    first, last = support(state)
    pad = 45.0 * delta_n + 1.0
    spread = np.linspace(first - pad, last + pad, points)
    levels = rng.integers(first, last + 1, size=50).astype(float)
    return rng.permutation(np.concatenate([spread, levels, levels + 0.5]))


@pytest.mark.parametrize("alpha", [3.0, 10.0, 25.0, 100.0, 1000.0])
def test_certified_bands_are_the_full_band_bit_for_bit(alpha):
    # The dropped cells move a kept row by at most 2^-60 of itself, under half
    # an ulp; rows the certificate cannot vouch for are summed in full.
    rng = np.random.default_rng(int(alpha))
    state = coherent_state(CoherentParams(alpha, 0.4))
    for delta_n in TAIL_RESOLUTIONS:
        grid = tail_to_tail(state, delta_n, rng)
        assert_same_bits(_profiles(state, grid, delta_n), full_band_profiles(state, grid, delta_n))
    # Shuffled per-outcome widths: chunks of mixed widths, in both walks.
    grid = np.concatenate([tail_to_tail(state, delta_n, rng, 300) for delta_n in TAIL_RESOLUTIONS])
    widths = rng.permutation(np.repeat(TAIL_RESOLUTIONS, grid.size // len(TAIL_RESOLUTIONS)))
    assert_same_bits(_band_profiles(state, grid, widths), full_band_profiles(state, grid, widths))


def certified_rows(state, grid, delta_n):
    """Which outcomes' certified band sums pass the certificate at one width."""
    p, b = state.level_moments()
    density, coherence = _band_sums(
        p, b, grid, np.full(grid.size, delta_n), -0.25 / delta_n**2, _PROFILE_WIDTHS
    )
    kept = (density >= _CERTIFIED) & (np.abs(coherence) >= _CERTIFIED * np.abs(b).sum())
    return kept, density, coherence


def refilled_outcomes(monkeypatch, state, grid, delta_n):
    """The profiles at ``grid`` and the outcomes summed again over the full band."""
    calls = []

    def recording(p, b, centers, widths, scale, factor):
        calls.append((centers.copy(), factor))
        return _band_sums(p, b, centers, widths, scale, factor)

    monkeypatch.setattr(measurement, "_band_sums", recording)
    profiles = _band_profiles(state, grid, delta_n)
    assert calls[0][1] == _PROFILE_WIDTHS and len(calls) <= 2
    if len(calls) == 1:
        return profiles, np.empty(0)
    assert calls[1][1] == _BAND_WIDTHS
    return profiles, calls[1][0]


def test_far_tail_outcomes_take_the_full_band(monkeypatch):
    # 29 to 38 widths above a number state's level: the certified band holds
    # no level there, and only the full band gives the density its bits.
    state = number_state(5, 40)
    grid = np.concatenate([[4.2, 5.0, 5.9], 5.0 + 0.3 * np.arange(29.0, 38.5, 0.5)])
    kept, density, _ = certified_rows(state, grid, 0.3)
    assert kept[:3].all() and not kept[3:].any()
    assert np.all(density[3:] == 0.0)
    (got_density, got_coherence), refilled = refilled_outcomes(monkeypatch, state, grid, 0.3)
    assert np.array_equal(refilled, grid[3:])
    want = full_band_profiles(state, grid, 0.3)
    assert_same_bits((got_density, got_coherence), want)
    assert np.all(got_density > 0.0)


def test_rows_under_the_margin_take_the_full_band(monkeypatch):
    # Levels 5 and 7 at equal weight (b = 0), outcomes 24.5 to 27 levels above
    # level 7 at dn 2: level 5 leaves the certified band (26.5 levels) first,
    # while level 7 alone still sums to more than exp(-13^2 / 2).  Rows whose
    # sums lie between that and 2^60 times it are off in their last digits.
    amplitudes = np.zeros(120, dtype=complex)
    amplitudes[[5, 7]] = 1.0
    state = PureState.from_unnormalized(amplitudes)
    grid = 7.0 + np.arange(24.5, 27.01, 0.0625)
    kept, density, _ = certified_rows(state, grid, 2.0)
    want = full_band_profiles(state, grid, 2.0)
    norm = (2.0 * math.pi * 4.0) ** -0.5
    differs = norm * density != want[0]
    assert np.any(differs & (density >= math.exp(-0.5 * _PROFILE_WIDTHS**2)))
    assert not np.any(differs & kept)
    got, refilled = refilled_outcomes(monkeypatch, state, grid, 2.0)
    assert np.array_equal(refilled, grid[~kept])
    assert_same_bits(got, want)


def test_a_number_state_takes_the_full_band_in_its_tails(monkeypatch):
    # b = 0: every coherence is exactly 0, and only the density decides.
    state = number_state(60, 200)
    rng = np.random.default_rng(3)
    for delta_n in (0.1, 0.7, 2.0):
        grid = tail_to_tail(state, delta_n, rng, 600)
        kept, _, coherence = certified_rows(state, grid, delta_n)
        assert np.all(coherence == 0.0) and kept.any() and not kept.all()
        got, refilled = refilled_outcomes(monkeypatch, state, grid, delta_n)
        assert np.array_equal(refilled, grid[~kept])
        assert_same_bits(got, full_band_profiles(state, grid, delta_n))
        assert np.all(got[1] == 0.0)


def test_cancelling_coherences_take_the_full_band(monkeypatch):
    # Random phases on levels 15, 16 and 63, 64 with c_63 = c_15 and
    # c_64 = -c_16 / 2: b_63 = -b_15 exactly (sqrt(16) = 4, sqrt(64) = 8), and
    # at n_m = 39.5 their Gaussians are mirror images, so <a> P sums to 0.
    # At dn 4 their levels lie 6 widths from it, inside the 13-width band.
    rng = np.random.default_rng(8)
    amplitudes = np.zeros(201, dtype=complex)
    amplitudes[[15, 16]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amplitudes[[63, 64]] = amplitudes[15], -amplitudes[16] / 2
    state = PureState.from_unnormalized(amplitudes)
    p, b = state.level_moments()
    assert b[63] == -b[15] and np.count_nonzero(b) == 2
    grid = np.array([20.0, 39.5, 39.75, 50.0])
    kept, density, coherence = certified_rows(state, grid, 4.0)
    assert coherence[1] == 0.0 and density[1] >= _CERTIFIED
    assert np.array_equal(kept, [True, False, True, True])
    got, refilled = refilled_outcomes(monkeypatch, state, grid, 4.0)
    assert np.array_equal(refilled, [39.5])
    assert_same_bits(got, full_band_profiles(state, grid, 4.0))
    # Random phases over the whole basis cancel in part, never to 2^-60.
    state = random_state(200, rng)
    grid = tail_to_tail(state, 2.0, rng, 600)
    kept, _, _ = certified_rows(state, grid, 2.0)
    got, refilled = refilled_outcomes(monkeypatch, state, grid, 2.0)
    assert np.array_equal(refilled, grid[~kept])
    assert_same_bits(got, full_band_profiles(state, grid, 2.0))


def test_densities_alone_sum_no_coherence(monkeypatch):
    # outcome_density certifies on the density alone: a row refilled only
    # because its coherence cancels keeps its 13-width density.
    rng = np.random.default_rng(8)
    amplitudes = np.zeros(201, dtype=complex)
    amplitudes[[15, 16]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amplitudes[[63, 64]] = amplitudes[15], -amplitudes[16] / 2
    state = PureState.from_unnormalized(amplitudes)
    grid = np.array([20.0, 39.5, 39.75, 50.0])
    calls = []

    def recording(p, b, centers, widths, scale, factor):
        calls.append((b, factor))
        return _band_sums(p, b, centers, widths, scale, factor)

    monkeypatch.setattr(measurement, "_band_sums", recording)
    density = outcome_density(state, grid, 4.0)
    assert calls == [(None, _PROFILE_WIDTHS)]
    monkeypatch.undo()
    both = _profiles(state, grid, 4.0)
    assert np.array_equal(density[[0, 2, 3]], both[0][[0, 2, 3]])
    assert abs(density[1] - both[0][1]) <= 2.0**-60 * both[0][1]
    # Elsewhere every density is the one summed with its coherence, bit for bit.
    for alpha in (0.5, 3.0, 25.0, 100.0):
        state = coherent_state(CoherentParams(alpha, 0.4))
        for delta_n in (0.05, 0.2, 0.3, 0.7, 2.0):
            grid = tail_to_tail(state, delta_n, rng, 500)
            want = _profiles(state, grid, delta_n)[0]
            assert np.array_equal(outcome_density(state, grid, delta_n), want, equal_nan=True)
            assert _profiles(state, grid, delta_n, coherence=False)[1] is None


def test_whole_basis_bands_skip_the_certificate(monkeypatch):
    # On the 38-level alpha-3 basis the 13-width band is the whole basis from
    # dn = 36 / 26 = 1.385 up: both bands are the same cells, so far-tail and
    # NaN outcomes keep their one sum, and it is the full band's.
    state = coherent_state(CoherentParams(3.0, 0.4))
    assert state.n_max + 1 == 38
    grid = np.array([9.0, 60.0, math.nan])
    for delta_n in (1.4, 2.0, np.array([4.0, 1.4, 2.0])):
        got, refilled = refilled_outcomes(monkeypatch, state, grid, delta_n)
        assert refilled.size == 0
        assert_same_bits(got, full_band_profiles(state, grid, delta_n))
    # Just below, the narrow band misses a level and the tail rows are summed again.
    _, refilled = refilled_outcomes(monkeypatch, state, grid, 1.38)
    assert refilled.size == 2
    # A one-outcome coherence_after: one band sum.
    calls = []

    def counting(*args):
        calls.append(args)
        return _band_sums(*args)

    monkeypatch.setattr(measurement, "_band_sums", counting)
    coherence_after(state, 9.0, 1.5)
    assert len(calls) == 1


def test_the_certified_floor_is_below_float64_epsilon():
    # R is the smallest integer width whose floor 2^60 exp(-R^2 / 2) lies
    # below eps = 2^-52 of the unit mass.
    assert _CERTIFIED < 2.0**-52
    assert 2.0**60 * math.exp(-0.5 * (_PROFILE_WIDTHS - 1.0) ** 2) >= 2.0**-52


def workload_grids():
    """(state, outcomes, delta_n) of the profiles that the tables and Monte Carlo checks sum."""
    dim = coherent_state(CoherentParams(3.0, 0.4))
    figure_grid = figures._steps(0.0, 20.0, 0.02)
    for delta_n in figures.PROFILE_RESOLUTIONS.values():
        yield dim, figure_grid, delta_n
    for alpha, n_max in ((10.0, 280), (25.0, 1015), (100.0, 11_440)):
        state = coherent_state(CoherentParams(alpha, 0.4), n_max)
        grid = np.linspace(alpha**2 - 3.0 * alpha, alpha**2 + 3.0 * alpha, 500)
        for delta_n in (0.2, 0.3, 0.7):
            yield state, grid, delta_n
    # Route one of phase_diffusion_equivalence: outcomes drawn from the density.
    sampled = _draw_outcomes(dim, 0.3, np.random.default_rng(5), 1, 100_000)[1][:, 0]
    yield dim, sampled, 0.3


def test_workload_grids_refill_no_row(monkeypatch):
    # Every outcome of these grids clears the certificate, so the 13-width
    # band alone gives the full band's bits without a second walk.
    for state, grid, delta_n in workload_grids():
        got, refilled = refilled_outcomes(monkeypatch, state, grid, delta_n)
        assert refilled.size == 0
        assert_same_bits(got, full_band_profiles(state, grid, delta_n))


@pytest.mark.parametrize(
    "alpha, n_m, delta_n, message",
    [
        (None, 5.0 + 0.3 * 39.0, 0.3, "an outcome lies far outside the state's support"),
        (None, math.nan, 0.3, "outcome n_m = nan is not a number, so its density is NaN"),
        (
            3.0, 9.5, 0.01,
            "the window at n_m = 9.5 with delta_n = 0.01 falls between levels and its density "
            "underflowed (below about delta_n 0.0135 at half-integers)",
        ),
    ],
)
def test_coherence_after_names_a_vanished_outcome_as_before(alpha, n_m, delta_n, message):
    state = number_state(5, 40) if alpha is None else coherent_state(CoherentParams(alpha))
    with pytest.raises(ZeroProbability) as raised:
        coherence_after(state, np.array([5.0, n_m]), delta_n)
    assert str(raised.value) == message


@settings(max_examples=40, deadline=None)
@given(
    n_max=st.integers(0, 120),
    delta_n=st.floats(0.05, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_scalar_outcomes(n_max, delta_n, seed):
    rng = np.random.default_rng(seed)
    state = random_state(n_max, rng)
    n_m = float(rng.uniform(-1.0, n_max + 1.0))
    ref_density, ref_coherence, scale = dense_profiles(state, np.array([n_m]), delta_n)
    density = outcome_density(state, n_m, delta_n)
    assert isinstance(density, float)
    assert density == pytest.approx(ref_density[0], rel=RTOL)
    if ref_density[0] > DENSITY_FLOOR:
        field = coherence_after(state, n_m, delta_n)
        assert isinstance(field, complex)
        tol = RTOL * (scale[0] + DENSITY_FLOOR) / ref_density[0]
        assert abs(field - ref_coherence[0] / ref_density[0]) <= tol


@settings(max_examples=60, deadline=None)
@given(
    n_max=st.integers(0, 400),
    delta_n=st.floats(0.05, 5.0),
    kind=st.sampled_from(["random", "upper", "poisson"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_measure_matches_dense_conditioning(n_max, delta_n, kind, seed):
    rng = np.random.default_rng(seed)
    state = make_state(kind, n_max, rng)
    n_m = float(rng.uniform(-2.0, n_max + 2.0))
    ref_density = dense_profiles(state, np.array([n_m]), delta_n)[0][0]
    if ref_density < 0.5 * DENSITY_FLOOR:
        with pytest.raises(ZeroProbability):
            measure(state, n_m, delta_n)
        return
    if ref_density <= 2.0 * DENSITY_FLOOR:
        return
    assert_measure_matches_dense(state, n_m, delta_n)


def test_measure_keeps_coherence_far_in_the_window_tail():
    # The outcome lies 3 levels below the lowest occupied one at dn 0.078:
    # e_n e_{n+1} is about 1e-413 there, yet the conditional <a> is 7e-120.
    rng = np.random.default_rng(94)
    state = make_state("upper", 94, rng)
    record = assert_measure_matches_dense(state, float(rng.uniform(-2.0, 96.0)), 0.078125)
    assert record.density < 1e-294 and abs(record.coherence) > 1e-120


@settings(max_examples=25, deadline=None)
@given(
    n_max=st.integers(0, 400),
    delta_n=st.floats(0.05, 5.0),
    far=st.floats(300.0, 1e6),
    seed=st.integers(0, 2**32 - 1),
)
def test_far_outcomes_raise_zero_probability(n_max, delta_n, far, seed):
    rng = np.random.default_rng(seed)
    state = random_state(n_max, rng)
    outside = -far * delta_n if rng.integers(2) else n_max + far * delta_n
    assert outcome_density(state, outside, delta_n) == 0.0
    with pytest.raises(ZeroProbability):
        coherence_after(state, outside, delta_n)
    with pytest.raises(ZeroProbability):
        coherence_after(state, np.array([0.5 * n_max, outside]), delta_n)


def test_temporaries_follow_the_band_not_the_basis():
    # alpha=100: a dense (grid, n_max) temporary would be hundreds of MB.
    state = coherent_state(CoherentParams(100.0, 0.3), 11_440)
    grid = np.linspace(9_700.0, 10_300.0, 5_000)
    tracemalloc.start()
    try:
        density, _ = _profiles(state, grid, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert density.max() > 0.0


def _run(config, support):
    """Indices j of the first and last points j/M of the run that covers ``support``, one by one.

    The run reaches from the last point at or below the support's lower end
    padded by ``_PAD_WIDTHS`` = 8 widths to the first point at or above its
    padded upper end, clipped to the config's grid.
    """
    per_unit, pad = config.per_unit, _PAD_WIDTHS * config.delta_n
    low, high = config._indices()
    first, last = support
    start = min(max(int(_lattice_floors(first - pad, per_unit)), low), high)
    stop = max(min(-int(_lattice_floors(-(last + pad), per_unit)), high), low)
    return start, stop


def _lattice_run(config):
    """Indices j of the first and last points j/M that the quadratures sum, one by one.

    They sum every point up to the grid's last point.  A point at or below
    -(``_reach(dn)`` + 1) lies beyond every level's reach, so its profiles
    are 0.0 and the run may start at the last such point.
    """
    first = int(_lattice_floors(-_reach(config.delta_n) - 1.0, config.per_unit))
    return first, config._indices()[1]


def grid_profiles(state, config, run=None):
    """Density and coherence profiles on the points ``run`` of the config's lattice.

    ``run`` is the indices j of its first and last points j/M; by default
    the grid trimmed to the state's support (``_run``), and with
    ``_lattice_run`` the points that the quadratures sum.  The literal
    reference of the residue pass: it builds every profile value that the
    quadratures sum by residue.  The grid
    point j/M = q + r/M has integer anchor q = j // M and residue
    r = j mod M, and its offset from the level n = q + s is x = (r - M s)/M.
    Over the band |x| <= ``_reach(dn)`` the weights e(x)^2 and e(x) e(x - 1),
    e(x) = exp(-x^2 / (4 dn^2)), form two W x M tables (``_band_weights``),
    and the band sums are their matrix products with the (anchors x W)
    windows whose row q holds the level moments p_n and b_n of the levels
    q + s.  Row q, column r of a product is the point q + r/M.  Anchors are
    taken in chunks of about ``_CHUNK_CELLS`` window cells.  Raises
    ``GridTooNarrow`` if the run's mass falls short of ``1 - QUAD_TOL``.
    """
    per_unit, delta_n = config.per_unit, config.delta_n
    start, stop = run or _run(config, support(state))
    reach = int(_reach(delta_n))
    scale, norm = _window_constants(delta_n)
    weights = _band_weights(per_unit, np.array([scale]), reach)[..., 0]
    square, pair = weights[:, 0], weights[:-1, 1]
    width = square.shape[0]

    # The level moments of levels anchor - reach .. anchor + reach + 1 for every
    # anchor, zero off the basis: p, Re b and Im b in one block of windows.
    q_first, q_last = start // per_unit, stop // per_unit
    base = q_first - reach
    levels = np.zeros((3, q_last - q_first + width))
    p, b = state.level_moments()
    inside = slice(max(base, 0), min(q_last + reach + 2, p.size))
    into = slice(inside.start - base, inside.stop - base)
    levels[0, into], levels[1, into], levels[2, into] = p[inside], b.real[inside], b.imag[inside]
    windows = windows_view(levels, width)

    anchors = q_last - q_first + 1
    density = np.empty((anchors, per_unit))
    coherence = np.empty((2, anchors, per_unit))
    chunk = max(1, _CHUNK_CELLS // width)
    for rows in range(0, anchors, chunk):
        block = np.ascontiguousarray(windows[:, rows : rows + chunk])
        np.matmul(block[0], square, out=density[rows : rows + chunk])
        np.matmul(block[1:, :, :-1], pair, out=coherence[:, rows : rows + chunk])

    run = slice(start - q_first * per_unit, stop - q_first * per_unit + 1)
    density = norm * density.ravel()[run]
    coherence = norm * (coherence[0].ravel()[run] + 1j * coherence[1].ravel()[run])
    mass = float(trapezoid(density, config.grid_step))
    if mass < 1.0 - QUAD_TOL:
        raise _too_narrow(mass, delta_n)
    return np.arange(start, stop + 1) / per_unit, density, coherence


def literal_quadratures(state, config):
    """Trapezoid sums of P, Q P, <a>_f P and Q <a>_f P over the points the quadratures sum."""
    grid, density, coherence = grid_profiles(state, config, _lattice_run(config))
    j = np.rint(grid * config.per_unit).astype(int)
    q_values = np.cos(2.0 * math.pi * (j % config.per_unit) / config.per_unit)
    step = config.grid_step
    return (
        trapezoid(density, step), trapezoid(q_values * density, step),
        trapezoid(coherence, step), trapezoid(q_values * coherence, step),
    )


@pytest.mark.parametrize("per_unit", [1, 2, 3, 7, 16, 160])
def test_band_weights_vanish_beyond_each_band(per_unit):
    """Rows past a width's own band are 0.0, so padding a narrower band in a block adds zeros."""
    for delta_n in np.linspace(0.0135, 5.0, 241):
        reach = int(_reach(delta_n))
        weights = _band_weights(per_unit, np.array([-0.25 / delta_n**2]), reach + 3)[..., 0]
        s = np.arange(-reach - 3, reach + 5)
        assert not weights[(s < -reach) | (s > reach + 1), 0].any()
        assert not weights[(s < -reach) | (s > reach), 1:].any()
        assert weights[(s >= -reach) & (s <= reach), :].any()


@st.composite
def lattice_batches(draw):
    """A state and a batch of lattices over its basis or past it: mixed M, any M up to 8/dn.

    Config bases reach up to 20 levels past the state's, so some grids end
    past the basis and the residue pass clips their last anchor; a second
    width on the first lattice pads the narrower band in its block.
    """
    n_max = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "number", "coherent"]))
    if kind == "number":
        state = number_state(int(rng.integers(0, n_max + 1)), n_max)
    else:
        state = make_state("random" if kind == "random" else "poisson", n_max, rng)
    bases = st.one_of(st.just(0), st.integers(1, 20))  # levels past the state's basis
    configs = []
    for _ in range(draw(st.integers(1, 5))):
        delta_n = draw(st.floats(0.05, 5.0))
        per_unit = draw(st.integers(1, math.ceil(8 / delta_n)))
        configs.append(MeasurementConfig(delta_n, n_max + draw(bases), per_unit))
    per_unit = configs[0].per_unit
    delta_n = draw(st.floats(0.05, min(5.0, 8 / per_unit)))
    configs.append(MeasurementConfig(delta_n, n_max + draw(bases), per_unit))
    return state, draw(st.permutations(configs))


@settings(max_examples=60, deadline=None)
@given(batch=lattice_batches())
def test_batched_quadratures_match_the_literal_sums(batch):
    """One residue pass over a batch against each config's literal trapezoid sums, and alone."""
    state, configs = batch
    mass, q_sum, average, product = _quadratures(state, configs)
    p, b = state.level_moments()
    scale = np.abs(b).sum()
    for k, config in enumerate(configs):
        want = literal_quadratures(state, config)
        assert abs(mass[k] - want[0]) <= 1e-14 * want[0]
        assert abs(q_sum[k] - want[1]) <= 1e-14 * want[0]
        assert abs(average[k] - want[2]) <= 1e-14 * scale
        assert abs(product[k] - want[3]) <= 1e-14 * scale
        alone = _quadratures(state, [config])
        for got, one in zip((mass, q_sum, average, product), alone):
            assert got[k : k + 1].tobytes() == one.tobytes()


@pytest.mark.parametrize("alpha", [3.0, 100.0])
def test_sweep_quadratures_match_one_config_calls(alpha):
    """The 451-config sweep pass equals each config's own pass, bit for bit."""
    state = coherent_state(CoherentParams(alpha, 0.9))
    resolutions = 0.1 + 0.002 * np.arange(451)
    sweep = _quadratures(state, _adequate_lattices(resolutions, state.n_max))
    for k, delta_n in enumerate(resolutions.tolist()):
        alone = _quadratures(state, [MeasurementConfig.adequate(delta_n, state.n_max)])
        for column, one in zip(sweep, alone):
            assert column[k : k + 1].tobytes() == one.tobytes()


def test_a_batch_names_its_too_narrow_config():
    # Levels 0..25 and 8 widths leave out 3.3e-7 of the Poisson(9) mass at dn 0.3.
    state = coherent_state(CoherentParams(3.0), 60)
    configs = [
        MeasurementConfig.adequate(dn, n_max) for dn, n_max in ((0.5, 60), (0.3, 25), (0.4, 60))
    ]
    with pytest.raises(GridTooNarrow, match=r"mass 0\.99999967\d* < 1 - 1e-08 at delta_n = 0\.3$"):
        _quadratures(state, configs)
