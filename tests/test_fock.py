import gc
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln, pdtrc

from qndsim import (
    CoherentParams,
    InvalidParam,
    PureState,
    TruncationTooSmall,
    choose_truncation,
    coherent_state,
    default_cutoff,
    expectation_a,
    expectation_n,
    expectation_parity,
    expectation_parity_squared,
    measure,
    number_state,
    random_state,
    variance_n,
)
from qndsim import fock
from qndsim.fock import MAX_LEVELS

SRC = Path(__file__).resolve().parent.parent / "src"

# Address space of a child that runs a case which must refuse before it
# allocates: a regression then fails with a MemoryError instead of taking
# tens of GB.
_CHILD_ADDRESS_SPACE = 3 << 30


def run_limited(*argv):
    """``python argv...`` in a child interpreter with a capped address space."""

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = _CHILD_ADDRESS_SPACE
        if hard != resource.RLIM_INFINITY:
            soft = min(soft, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120,
    )


@pytest.fixture
def empty_cutoff_caches():
    """Start from no kept cutoffs, so a test that counts passes does not depend on test order."""
    fock._start_level.cache_clear()
    fock._certified_cutoff.cache_clear()


def poisson_weight(lam, n):
    # independent oracle: exact integer factorial
    return math.exp(-lam) * lam**n / math.factorial(n)


def poisson_tail_beyond(lam, n_max):
    return 1.0 - sum(poisson_weight(lam, n) for n in range(n_max + 1))


def gammaln_amplitudes(params, n_max):
    """The gammaln-form amplitudes evaluated at every level of the basis."""
    lam = params.mean_photon_number
    n = np.arange(n_max + 1)
    if lam == 0.0:
        weights = np.zeros(n_max + 1)
        weights[0] = 1.0
    else:
        weights = np.exp(-lam + n * math.log(lam) - gammaln(n + 1.0))
    amps = np.sqrt(weights) * np.exp(-1j * params.phase * n)
    amps /= np.linalg.norm(amps)
    return amps / float(np.linalg.norm(amps))


class TestCoherentParams:
    def test_alpha_convention(self):
        p = CoherentParams(2.0, math.pi / 3)
        assert p.alpha == pytest.approx(2.0 * np.exp(-1j * math.pi / 3))

    def test_phase_folding(self):
        assert CoherentParams(1.0, 3 * math.pi).phase == pytest.approx(math.pi)
        assert CoherentParams(1.0, -math.pi).phase == pytest.approx(math.pi)
        assert -math.pi < CoherentParams(1.0, -5.5).phase <= math.pi

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidParam):
            CoherentParams(-1.0)
        with pytest.raises(InvalidParam):
            CoherentParams(math.nan)
        with pytest.raises(InvalidParam):
            CoherentParams(1.0, math.inf)


class TestPureState:
    def test_snaps_to_unit_norm(self):
        state = PureState([1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidParam):
            PureState([1.0, 1.0])

    def test_from_unnormalized(self):
        state = PureState.from_unnormalized([3.0, 4.0])
        assert state.amplitudes[0] == pytest.approx(0.6)
        assert state.amplitudes[1] == pytest.approx(0.8)
        with pytest.raises(InvalidParam):
            PureState.from_unnormalized([0.0, 0.0])

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidParam):
            PureState(np.ones((2, 2)) / 2)
        with pytest.raises(InvalidParam):
            PureState([])
        with pytest.raises(InvalidParam):
            PureState([complex(math.nan, 0.0)])

    def test_number_state(self):
        state = number_state(5)
        assert state.n_max == 5
        assert state.amplitudes[5] == 1.0
        assert number_state(2, n_max=10).n_max == 10
        assert number_state(np.int64(2), np.int64(4)).n_max == 4
        # A float or a string is refused, not truncated: 2.5 would be |2>.
        for n, n_max in ((3, 1), (-1, None), (-1, 5), (2.5, None), (2.0, None),
                         (2, 5.5), (2, math.inf), (2, "5")):
            with pytest.raises(InvalidParam):
                number_state(n, n_max)

    def test_level_moments_are_computed_once_and_read_only(self):
        state = coherent_state(CoherentParams(3.0, 0.4), 40)
        p, b = state.level_moments()
        again = state.level_moments()
        assert again[0] is p and again[1] is b
        assert not p.flags.writeable and not b.flags.writeable
        with pytest.raises(ValueError):
            p[0] = 0.0
        assert np.array_equal(p, state.probabilities())
        assert complex(b.sum()) == expectation_a(state)
        cdf = state.level_cdf()
        assert state.level_cdf() is cdf
        assert not cdf.flags.writeable
        with pytest.raises(ValueError):
            cdf[0] = 0.0
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
        assert np.allclose(cdf, np.cumsum(p), rtol=0.0, atol=1e-15)


class TestCoherentState:
    def test_vacuum(self):
        state = coherent_state(CoherentParams(0.0), 10)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0.0)

    def test_mean_photon_number(self):
        state = coherent_state(CoherentParams(3.0), 60)
        assert expectation_n(state) == pytest.approx(9.0, abs=1e-9)

    def test_poisson_weight_at_peak(self):
        # oracle: e^-9 9^9 / 9!
        state = coherent_state(CoherentParams(3.0), 60)
        assert abs(state.amplitudes[9]) ** 2 == pytest.approx(
            poisson_weight(9.0, 9), rel=1e-12
        )

    def test_truncation_error(self):
        with pytest.raises(TruncationTooSmall, match="n_max=15 lies below 37, the cutoff certified"):
            coherent_state(CoherentParams(3.0), 15)

    @pytest.mark.parametrize("magnitude, cutoff", [
        (1179.5, 1_399_526), (1208.5, 1_468_982), (1527.5, 2_344_010),
    ])
    def test_summed_cutoff_refuses_a_level_short(self, magnitude, cutoff):
        # A cutoff one level short of the summed one leaves a tail just above
        # 1e-12 (1.0000005e-12 beyond 1 399 525 at alpha 1179.5), which
        # scipy's pdtrc reads just below it.  The refusal costs one summed
        # pass, not a basis of 1.4-2.3 million levels.
        params = CoherentParams(magnitude)
        assert choose_truncation(params, 1e-12) == cutoff
        start = time.perf_counter()
        with pytest.raises(TruncationTooSmall, match=f"n_max={cutoff - 1} lies below {cutoff},"):
            coherent_state(params, cutoff - 1)
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize(
        "magnitude", [0.5, 0.9, 1.0, 2.5, 3.0, 7.3, 10.0, 25.0, 64.2, 100.0, 183.3, 300.0]
    )
    def test_certified_cutoff_is_the_first_that_builds(self, magnitude):
        # An explicit cutoff at or above the pass's starting level skips the
        # pass; one below it still takes the summed cutoff, so certified - 1
        # is refused either way.
        params = CoherentParams(magnitude, 0.4)
        certified = choose_truncation(params, 1e-12)
        assert coherent_state(params, certified).n_max == certified
        if certified > 0:
            short = f"n_max={certified - 1} lies below {certified},"
            with pytest.raises(TruncationTooSmall, match=short):
                coherent_state(params, certified - 1)

    def test_cutoff_past_the_pass_start_skips_the_pass(self, monkeypatch, empty_cutoff_caches):
        params = CoherentParams(10.0)
        _, top = fock._pass_start(params, 1e-12)
        passes = []
        summed = fock._summed_cutoff

        def counting(*args):
            passes.append(args)
            return summed(*args)

        monkeypatch.setattr(fock, "_summed_cutoff", counting)
        coherent_state(params, top)
        coherent_state(params, 280)
        assert passes == []
        coherent_state(params, top - 1)
        assert len(passes) == 1
        # The certified cutoff is kept per (|alpha|^2, tail_tol): no second pass.
        coherent_state(CoherentParams(10.0, 1.3), top - 1)
        assert len(passes) == 1

    def test_refuses_before_allocating_the_basis(self):
        # The basis of alpha 1556 holds 2.4 million levels (39 MB of
        # amplitudes); the summed pass takes chunks of 12 456 terms.
        params = CoherentParams(1556.0)
        tracemalloc.start()
        try:
            with pytest.raises(TruncationTooSmall, match="lies below 2432090,"):
                coherent_state(params, 2_432_089)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cutoff_must_be_an_integer(self):
        assert coherent_state(CoherentParams(3.0), np.int64(40)).n_max == 40
        # 40.7 would cut the basis at 40.
        for n_max in (40.7, 40.0, math.inf, math.nan, "40", -1):
            with pytest.raises(InvalidParam):
                coherent_state(CoherentParams(3.0), n_max)

    def test_normalized_within_1e12(self):
        # The explicit cutoff at 1179.5 is the summed one, a level above pdtrc's.
        for mag in (0.5, 1.0, 3.0, 6.0, 1179.5):
            state = coherent_state(CoherentParams(mag), choose_truncation(CoherentParams(mag), 1e-12))
            assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12

    def test_refuses_a_basis_above_max_levels(self):
        # alpha 1e5 asks for about 10^10 levels, 75 GB of amplitudes; the
        # cutoffs of alpha 1e5 and 1e6 are summed in bounded memory, and a
        # mean past the summed range is refused before any summing.
        child = run_limited("-c", (
            "from qndsim import CoherentParams, InvalidParam, coherent_state\n"
            f"for magnitude, n_max in ((1e5, None), (1e6, None), (1e8, None), (3.0, {MAX_LEVELS})):\n"
            "    try:\n"
            "        coherent_state(CoherentParams(magnitude), n_max)\n"
            "    except InvalidParam as exc:\n"
            "        print(exc)\n"
        ))
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines() == [
            f"a basis of 10000703457 levels exceeds {MAX_LEVELS} levels",
            f"a basis of 1000007034493 levels exceeds {MAX_LEVELS} levels",
            "|alpha|^2 = 1e+16 lies above 1e+12, the largest mean whose cutoff is summed",
            f"a basis of {MAX_LEVELS + 1} levels exceeds {MAX_LEVELS} levels",
        ]

    def test_phase_enters_amplitudes(self):
        state = coherent_state(CoherentParams(2.0, 0.7), 40)
        ref = coherent_state(CoherentParams(2.0, 0.0), 40)
        n = np.arange(41)
        assert np.allclose(state.amplitudes, ref.amplitudes * np.exp(-1j * 0.7 * n))


class TestMassWindow:
    """Amplitudes evaluated from the first level with mass equal the full-basis formula."""

    @pytest.mark.parametrize("phase", [0.0, -0.0, 0.7, -2.1])
    @pytest.mark.parametrize("magnitude, n_max", [
        (0.0, None), (3.0, None), (25.0, None), (100.0, 10_711), (100.0, 11_440),
        (300.0, None), (1000.0, None),
    ])
    def test_equals_the_full_basis_formula(self, magnitude, n_max, phase):
        params = CoherentParams(magnitude, phase)
        state = coherent_state(params, n_max)
        assert np.array_equal(state.amplitudes, gammaln_amplitudes(params, state.n_max))

    def test_levels_below_the_window_are_exact_zeros(self):
        lam = 100.0**2
        lo = fock._window_start(lam)
        assert fock._log_poisson(lo - 1, lam) < -800.0 <= fock._log_poisson(lo, lam)
        state = coherent_state(CoherentParams(100.0, 0.7), 11_440)
        full = gammaln_amplitudes(CoherentParams(100.0, 0.7), 11_440)
        assert 6_000 < lo < np.flatnonzero(full)[0]
        assert np.all(state.amplitudes[:lo] == 0.0)

    def test_window_starts_at_zero_up_to_a_mean_of_800(self):
        assert fock._window_start(0.0) == 0
        assert fock._window_start(800.0) == 0
        assert fock._window_start(801.0) > 0


def window_amplitudes(params, n_max):
    """Amplitudes built whole at every call, from the window start, with numpy's complex division."""
    lam = params.mean_photon_number
    lo = fock._window_start(lam)
    n = np.arange(lo, n_max + 1)
    if lam == 0.0:
        weights = np.zeros(n_max + 1)
        weights[0] = 1.0
    else:
        weights = np.exp(-lam + n * math.log(lam) - gammaln(n + 1.0))
    amps = np.empty(n_max + 1, dtype=np.complex128)
    amps[:lo] = 0.0
    np.multiply(np.sqrt(weights), np.exp(-1j * params.phase * n), out=amps[lo:])
    amps /= np.linalg.norm(amps)
    return amps / float(np.linalg.norm(amps))


def moments_reference(amplitudes):
    """The level moments and level CDF, each from whole-array temporaries."""
    c = amplitudes
    p = np.abs(c) ** 2
    b = np.zeros(c.size, dtype=np.complex128)
    b[:-1] = np.conj(c[:-1]) * c[1:] * np.sqrt(np.arange(1, c.size))
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return p, b, cdf


class TestPhaseIndependentParts:
    """A state at a new phase reuses its |alpha|'s Poisson part, with the same bits."""

    @pytest.mark.parametrize("phase", [0.0, -0.0, 0.7, -2.1, math.pi])
    @pytest.mark.parametrize("magnitude, n_max", [
        (0.0, None), (0.5, None), (3.0, None), (25.0, None), (100.0, 10_711),
        (100.0, 11_440), (300.0, None),
    ])
    def test_states_keep_their_bits(self, magnitude, n_max, phase):
        params = CoherentParams(magnitude, phase)
        state = coherent_state(params, n_max)
        assert np.array_equal(state.amplitudes, gammaln_amplitudes(params, state.n_max))
        # Zero signs included, and past a basis whose top weights are 0.0.
        for cutoff in (state.n_max, state.n_max + 400):
            want = window_amplitudes(params, cutoff)
            got = coherent_state(params, cutoff)
            assert got.amplitudes.tobytes() == want.tobytes()
            for got_part, want_part in zip((*got.level_moments(), got.level_cdf()),
                                           moments_reference(got.amplitudes)):
                assert got_part.tobytes() == want_part.tobytes()

    def test_tiny_phases_keep_underflowed_zero_signs(self):
        # exp(-1e-300j n) times roots below 1e-23 has imaginary parts that
        # underflow; their zero signs follow the order of the product.
        for magnitude in (1e-160, 0.001, 0.5):
            params = CoherentParams(magnitude, 1e-300)
            for n_max in (16, 216):
                want = window_amplitudes(params, n_max)
                assert coherent_state(params, n_max).amplitudes.tobytes() == want.tobytes()

    def test_two_phases_share_one_poisson_part(self):
        fock._poisson_part.cache_clear()
        coherent_state(CoherentParams(25.0, 0.3), 1015)
        coherent_state(CoherentParams(25.0, -1.9), 1015)
        info = fock._poisson_part.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        lo, roots, zeros = fock._poisson_part(625.0, 1015)
        assert not roots.flags.writeable
        assert lo == 0 and zeros == () and roots.size == 1016

    def test_roots_stop_at_the_last_nonzero_weight(self):
        # alpha 100 on 11 441 levels: the window starts where the log-weight
        # reaches -800, and exp rounds the first levels of it to 0.0.
        lo, roots, zeros = fock._poisson_part(1e4, 11_440)
        assert lo == fock._window_start(1e4)
        assert zeros == (slice(lo, lo + np.flatnonzero(roots)[0]),)
        assert roots[-1] > 0.0 and roots.size == 11_441 - lo
        # The vacuum on 17 levels keeps one root; levels 1..16 are zeros.
        assert fock._poisson_part(0.0, 16)[1:] == (pytest.approx([1.0]), (slice(1, 17),))
        lo, roots, zeros = fock._poisson_part(9.0, 400)
        assert zeros == (slice(roots.size, 401),) and roots[-1] > 0.0

    def test_level_roots_are_a_read_only_prefix(self):
        small = fock._level_roots(5)
        large = fock._level_roots(9000)
        assert not small.flags.writeable and not large.flags.writeable
        assert large.tobytes() == np.sqrt(np.arange(1, 9000)).tobytes()
        assert fock._level_roots(5).tobytes() == np.sqrt(np.arange(1, 5)).tobytes()
        assert fock._level_roots(1).size == 0

    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-15])
    def test_kept_cutoffs_equal_the_summed_pass(self, tol):
        for mag in (0.5, 1.0, 3.0, 10.0, 25.0, 27.3, 28.0, 100.0, 300.0, 1000.0):
            params = CoherentParams(mag)
            lam = params.mean_photon_number
            top = fock._start_level.__wrapped__(lam, tol)
            want = fock._summed_cutoff(lam, tol, top)
            for _ in range(2):  # from the pass, then from the cache
                assert fock._pass_start(params, tol) == (lam, top)
                assert choose_truncation(params, tol) == want
                if tol == 1e-12:
                    assert default_cutoff(params) == max(want, 16)

    def test_refusals_keep_their_messages(self):
        for _ in range(2):  # a refusal is not kept: the second call refuses alike
            with pytest.raises(InvalidParam, match=r"^tail_tol must lie in \(0, 1\)$"):
                choose_truncation(CoherentParams(3.0), 0.0)
            with pytest.raises(
                InvalidParam, match="^tail_tol below 1e-15 cannot be certified in double precision$"
            ):
                choose_truncation(CoherentParams(3.0), 1e-16)
            with pytest.raises(
                InvalidParam,
                match=r"^\|alpha\|\^2 = 1e\+14 lies above 1e\+12, the largest mean whose cutoff is summed$",
            ):
                choose_truncation(CoherentParams(1e7), 1e-12)
            with pytest.raises(
                TruncationTooSmall, match="^n_max=36 lies below 37, the cutoff certified to 1e-12$"
            ):
                coherent_state(CoherentParams(3.0, 0.2), 36)


class TestStateTable:
    """coherent_state hands out one state per key while some caller holds it."""

    def test_held_states_are_shared(self):
        params = CoherentParams(10.0, 0.3)
        state = coherent_state(params, 280)
        assert coherent_state(params, 280) is state
        assert coherent_state(CoherentParams(10.0, 0.3), 280) is state
        assert coherent_state(params) is coherent_state(params, default_cutoff(params))

    def test_a_different_key_gives_a_different_state(self):
        held = coherent_state(CoherentParams(10.0, 0.0), 280)
        assert coherent_state(CoherentParams(10.0, -0.0), 280) is not held
        assert coherent_state(CoherentParams(10.0, 0.1), 280) is not held
        assert coherent_state(CoherentParams(10.5, 0.0), 280) is not held
        assert coherent_state(CoherentParams(10.0, 0.0), 281) is not held

    def test_dropped_state_is_rebuilt_equal(self):
        params = CoherentParams(25.0, -2.1)
        state = coherent_state(params)
        amplitudes = state.amplitudes.copy()
        gone = weakref.ref(state)
        del state
        gc.collect()
        assert gone() is None
        rebuilt = coherent_state(params)
        assert np.array_equal(rebuilt.amplitudes, amplitudes)

    def test_arguments_are_checked_beside_a_held_state(self):
        params = CoherentParams(3.0)
        held = coherent_state(params, 37)
        with pytest.raises(TruncationTooSmall, match="n_max=36 lies below 37,"):
            coherent_state(params, 36)
        for n_max in (37.0, -1, MAX_LEVELS):
            with pytest.raises(InvalidParam):
                coherent_state(params, n_max)
        assert coherent_state(params, 37) is held


class TestChooseTruncation:
    def test_vacuum(self):
        assert choose_truncation(CoherentParams(0.0), 1e-12) == 0
        # Near the vacuum the cutoff 0 comes from 1 - exp(-lam): at lam 5.9e-322
        # a pass would divide levels by lam and overflow, and at lam 1.0000005e-6
        # the tail beyond 0 is 0.99999999999999793e-6 (mpmath), which a summed
        # pass rounded up to the tolerance.
        assert choose_truncation(CoherentParams(2.4364924351503262e-161), 1e-12) == 0
        assert choose_truncation(CoherentParams(0.0010000002500001343), 1e-6) == 0
        assert choose_truncation(CoherentParams(0.0010000002500001343), 1e-7) == 1

    def test_matches_cumulative_oracle(self):
        params = CoherentParams(3.0)
        n_max = choose_truncation(params, 1e-12)
        assert poisson_tail_beyond(9.0, n_max) < 1e-12
        assert poisson_tail_beyond(9.0, n_max - 1) >= 1e-12
        assert n_max <= 9 + 10 * 3 + 20

    def test_median_case(self):
        # Poisson(9) median is 9: half the mass sits at or below it
        assert choose_truncation(CoherentParams(3.0), 0.5) == 9

    def test_bound_holds_across_amplitudes(self):
        for mag in (0.5, 1.0, 2.0, 4.0, 6.0):
            n_max = choose_truncation(CoherentParams(mag), 1e-12)
            assert n_max <= mag**2 + 10 * mag + 20

    def test_bright_fields(self):
        # exp(-|alpha|^2) underflows past alpha 27.3; the tail does not
        for mag in (28.0, 60.0, 100.0):
            lam = mag * mag
            n_max = choose_truncation(CoherentParams(mag), 1e-12)
            assert lam + 5 * mag < n_max < lam + 10 * mag

    def test_certified_where_pdtrc_reads_low(self):
        # 30-digit sums of the Poisson terms put the tail beyond pdtrc's
        # cutoff above 1e-12: 1.0000005e-12 beyond 1 399 525 at alpha 1179.5,
        # 1.00486e-12 beyond 9 021 109 at alpha 3000, where pdtrc reads 0.99999e-12
        # and 0.99807e-12; the summed cutoffs are the smallest that hold.
        assert choose_truncation(CoherentParams(1179.5), 1e-12) == 1_399_526
        assert choose_truncation(CoherentParams(3000.0), 1e-12) == 9_021_112
        # Where pdtrc holds, the cutoffs agree.
        assert choose_truncation(CoherentParams(1556.0), 1e-12) == 2_432_090

    @pytest.mark.parametrize("mag", [0.5, 3.0, 25.0, 100.0])
    def test_matches_pdtrc_where_it_holds(self, mag):
        # pdtrc drifts only past alpha of about 1 000; the cutoff is the
        # smallest k whose tail is below the tolerance.
        lam = mag * mag
        for tol in (1e-15, 1e-12, 1e-6, 0.5):
            k = choose_truncation(CoherentParams(mag), tol)
            assert pdtrc(k, lam) < tol
            assert k == 0 or pdtrc(k - 1, lam) >= tol

    def test_refuses_means_past_the_summed_range(self):
        assert choose_truncation(CoherentParams(1e6), 0.5) == 1_000_000_000_000
        with pytest.raises(InvalidParam, match="largest mean whose cutoff is summed"):
            choose_truncation(CoherentParams(1.0000001e6), 1e-12)
        # An explicit cutoff is checked against the same pass.
        with pytest.raises(InvalidParam, match="largest mean whose cutoff is summed"):
            coherent_state(CoherentParams(1e8), 1000)

    def test_default_cutoff_accepted_by_coherent_state(self):
        # coherent_state checks the same tail, so it never rejects the cutoff
        assert default_cutoff(CoherentParams(3.0)) == 37
        assert default_cutoff(CoherentParams(0.0)) == 16
        for mag in [*np.arange(0.0, 30.0, 0.05), 60.0, 100.0]:
            params = CoherentParams(mag)
            coherent_state(params, default_cutoff(params))

    def test_coherent_state_defaults_to_the_default_cutoff(self):
        for mag in (0.0, 3.0, 28.0, 100.0):
            params = CoherentParams(mag, 0.4)
            default = coherent_state(params)
            explicit = coherent_state(params, default_cutoff(params))
            assert default.amplitudes.tobytes() == explicit.amplitudes.tobytes()

    def test_rejects_bad_tolerance(self):
        for tol in (0.0, 1.0, -0.1, 1e-16):
            with pytest.raises(InvalidParam):
                choose_truncation(CoherentParams(1.0), tol)


class TestExpectations:
    def test_a_on_number_state(self):
        assert expectation_a(number_state(5)) == 0j

    def test_a_single_offdiagonal(self):
        state = PureState.from_unnormalized([1.0, 1.0])
        assert expectation_a(state) == pytest.approx(0.5)

    def test_a_coherent_eigenvalue(self):
        params = CoherentParams(3.0, math.pi / 4)
        state = coherent_state(params, 60)
        assert expectation_a(state) == pytest.approx(params.alpha, abs=1e-9)

    def test_a_eigenvalue_across_magnitudes(self):
        for mag in (0.5, 1.5, 3.0, 6.0):
            params = CoherentParams(mag, 0.3)
            n_max = choose_truncation(params, 1e-12)
            state = coherent_state(params, n_max)
            assert expectation_a(state) == pytest.approx(params.alpha, abs=1e-5)

    def test_n_values(self):
        assert expectation_n(number_state(0)) == 0.0
        superpose = PureState.from_unnormalized([1.0, 0.0, 1.0])
        assert expectation_n(superpose) == pytest.approx(1.0)
        assert expectation_n(coherent_state(CoherentParams(3.0), 60)) == pytest.approx(9.0, abs=1e-8)

    def test_variance(self):
        assert variance_n(number_state(4)) == pytest.approx(0.0, abs=1e-12)
        assert variance_n(coherent_state(CoherentParams(3.0), 60)) == pytest.approx(9.0, abs=1e-7)

    def test_variance_keeps_its_digits_at_large_n(self):
        # alpha=100 after one dn=0.3 readout: sum n^2 p_n - <n>^2 would give
        # 0.0181208253, cancellation at n = 10^4 having cost it 2e-8.
        state = coherent_state(CoherentParams(100.0, 0.3), 11_440)
        post = measure(state, 10053.862487415574, 0.3).post_state
        assert variance_n(post) == pytest.approx(0.0181208469, abs=1e-10)

    def test_parity_values(self):
        assert expectation_parity(number_state(0)) == 1.0
        assert expectation_parity(number_state(1)) == -1.0
        # coherent-state identity exp(-2|alpha|^2), cross-checked by direct sum
        state = coherent_state(CoherentParams(3.0), 60)
        direct = sum(
            (-1) ** n * poisson_weight(9.0, n) for n in range(61)
        )
        value = expectation_parity(state)
        assert value == pytest.approx(math.exp(-18.0), abs=1e-12)
        assert value == pytest.approx(direct, abs=1e-12)

    def test_parity_squared_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = random_state(int(rng.integers(1, 50)), rng)
            assert expectation_parity_squared(state) == pytest.approx(1.0, abs=5e-14)

    def test_number_and_random_states_refuse_a_basis_above_max_levels(self):
        # Either call would ask for 10^10 levels, 149 GiB of amplitudes.
        child = run_limited("-c", (
            "import numpy as np\n"
            "from qndsim import InvalidParam, number_state, random_state\n"
            "for build in (lambda: number_state(0, 10**10),\n"
            "              lambda: random_state(10**10, np.random.default_rng(1)),\n"
            f"              lambda: number_state(0, {MAX_LEVELS})):\n"
            "    try:\n"
            "        build()\n"
            "    except InvalidParam as exc:\n"
            "        print(exc)\n"
        ))
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines() == [
            f"a basis of 10000000001 levels exceeds {MAX_LEVELS} levels",
            f"a basis of 10000000001 levels exceeds {MAX_LEVELS} levels",
            f"a basis of {MAX_LEVELS + 1} levels exceeds {MAX_LEVELS} levels",
        ]

    def test_random_state_levels_must_be_integers(self):
        rng = np.random.default_rng(4)
        assert random_state(np.int64(5), rng, min_level=np.int64(2)).n_max == 5
        for n_max, min_level in ((5.5, 0), (5.0, 0), (math.inf, 0), (5, 1.5), (5, 6), (5, -1)):
            with pytest.raises(InvalidParam):
                random_state(n_max, rng, min_level=min_level)

    def test_random_state_support(self):
        rng = np.random.default_rng(4)
        state = random_state(20, rng, min_level=7)
        assert np.all(state.amplitudes[:7] == 0.0)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12
