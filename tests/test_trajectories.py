import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import chisquare

from qndsim import (
    CoherentParams,
    InvalidParam,
    PureState,
    ZeroProbability,
    decoherence_factor,
    coherent_state,
    effective_post_state,
    equivalent_phase_noise,
    expectation_a,
    expectation_n,
    fidelity,
    measure,
    number_state,
    outcome_density,
    phase_diffusion_equivalence,
    random_state,
    repeated_measurement,
    sample_outcome,
    variance_n,
)
from qndsim import measurement
from qndsim.measurement import _CHUNK_CELLS, _posterior_plan, _sequential_posteriors
from qndsim.trajectories import _draw_level

from helpers import trapezoid
from test_kernel import dense_condition

ALPHA3 = CoherentParams(3.0, 0.0)

# How far a batch row's moments may lie from its single record's, as
# repeated_measurement documents it (np.allclose's rtol and atol).
BATCH_TOL = 1e-13


def passes(trajectory):
    """Each pass's outcome, posterior mean and variance, and |<a>|."""
    return zip(trajectory.outcomes, trajectory.mean_n, trajectory.var_n, trajectory.coherence_mag)


@pytest.fixture(scope="module")
def alpha3_state():
    return coherent_state(ALPHA3, 60)


def draw_outcomes(state, dn, count, seed):
    rng = np.random.default_rng(seed)
    probs = state.probabilities()
    levels = rng.choice(probs.size, size=count, p=probs / probs.sum())
    return rng.normal(levels, dn)


class TestSampleOutcome:
    def test_eigenstate_mean(self):
        state = number_state(5, 8)
        rng = np.random.default_rng(101)
        draws = np.array([sample_outcome(state, 0.1, rng).n_m for _ in range(5000)])
        assert abs(draws.mean() - 5.0) < 4 * 0.1 / math.sqrt(5000)
        assert draws.std() == pytest.approx(0.1, rel=0.1)

    def test_chi_square_against_exact_density(self, alpha3_state):
        dn = 0.3
        n_draws = 1_000_000
        draws = draw_outcomes(alpha3_state, dn, n_draws, seed=2024)

        edges = np.arange(3.0, 15.0001, 0.125)
        observed, _ = np.histogram(draws, bins=edges)
        fine = 0.005
        expected = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            grid = np.arange(lo, hi + fine / 2, fine)
            expected.append(trapezoid(outcome_density(alpha3_state, grid, dn), fine))
        expected = np.array(expected)
        # lump the two tails so totals match
        below = np.count_nonzero(draws < edges[0])
        above = np.count_nonzero(draws >= edges[-1])
        tail_mass = max(1.0 - expected.sum(), 0.0)
        observed = np.append(observed, below + above)
        expected = np.append(expected, tail_mass)
        result = chisquare(observed, expected * n_draws)
        assert result.pvalue > 0.001

    def test_kolmogorov_smirnov_bound(self, alpha3_state):
        dn = 0.3
        n_draws = 1_000_000
        draws = np.sort(draw_outcomes(alpha3_state, dn, n_draws, seed=77))
        probs = alpha3_state.probabilities()
        levels = np.arange(probs.size)
        # mixture CDF: sum_n |c_n|^2 Phi((x - n) / dn)
        cdf = ndtr((draws[:, None] - levels[None, :]) / dn) @ probs
        empirical_hi = np.arange(1, n_draws + 1) / n_draws
        empirical_lo = np.arange(0, n_draws) / n_draws
        ks = max(np.max(np.abs(empirical_hi - cdf)), np.max(np.abs(cdf - empirical_lo)))
        assert ks * math.sqrt(n_draws) < 1.63  # 99% KS band

    def test_quantization_average_from_samples(self, alpha3_state):
        dn = 0.3
        n_draws = 1_000_000
        draws = draw_outcomes(alpha3_state, dn, n_draws, seed=3)
        values = np.cos(2 * math.pi * draws)
        stderr = values.std(ddof=1) / math.sqrt(n_draws)
        assert abs(values.mean() - math.exp(-2 * math.pi**2 * dn * dn)) < 4 * stderr

    def test_record_is_consistent(self, alpha3_state):
        record = sample_outcome(alpha3_state, 0.3, 42)
        assert record.density == pytest.approx(
            outcome_density(alpha3_state, record.n_m, 0.3), rel=1e-12
        )
        assert abs(np.linalg.norm(record.post_state.amplitudes) - 1.0) < 1e-12


class TestRepeatedMeasurement:
    def test_count_one_matches_single_draw(self, alpha3_state):
        trajectory = repeated_measurement(alpha3_state, 0.4, 1, 11)
        record = sample_outcome(alpha3_state, 0.4, 11)
        assert trajectory.outcomes[0] == record.n_m
        assert fidelity(trajectory.final_state, record.post_state) == pytest.approx(1.0)

    def test_reproducible(self, alpha3_state):
        a = repeated_measurement(alpha3_state, 0.5, 10, 999)
        b = repeated_measurement(alpha3_state, 0.5, 10, 999)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)
        assert a.seed == 999

    def test_effective_measurement_equivalence(self, alpha3_state):
        trajectory = repeated_measurement(alpha3_state, 1.0, 100, 5)
        effective = effective_post_state(alpha3_state, trajectory.outcomes, 1.0)
        assert fidelity(trajectory.final_state, effective) >= 1 - 1e-10
        assert variance_n(trajectory.final_state) == pytest.approx(
            variance_n(effective), rel=1e-9
        )

    def test_variance_narrows(self, alpha3_state):
        trajectory = repeated_measurement(alpha3_state, 0.3, 25, 13)
        assert trajectory.var_n[-1] < trajectory.var_n[0]
        # One run's variance can rise on a pass, when an outcome reweights
        # the posterior; by the law of total variance its mean over runs
        # cannot.
        rng = np.random.default_rng(13)
        runs = 2000
        table = np.array(
            [repeated_measurement(alpha3_state, 0.3, 25, rng).var_n for _ in range(runs)]
        )
        rise = np.diff(table, axis=1)
        stderr = rise.std(axis=0, ddof=1) / math.sqrt(runs)
        assert np.all(rise.mean(axis=0) <= 3 * stderr)

    def test_projective_limit(self, alpha3_state):
        trajectory = repeated_measurement(alpha3_state, 0.3, 25, 13)
        weights = trajectory.final_state.probabilities()
        assert weights.max() > 0.999

    def test_martingale(self, alpha3_state):
        rng = np.random.default_rng(17)
        runs = 2000
        bins = np.arange(6, 13)
        prior = alpha3_state.probabilities()[bins]
        samples = np.empty((runs, bins.size))
        for i in range(runs):
            final = repeated_measurement(alpha3_state, 1.0, 2, rng).final_state
            samples[i] = final.probabilities()[bins]
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(runs)
        z = np.abs(samples.mean(axis=0) - prior) / stderr
        assert np.max(z) < 3.0

    def test_coherence_decay_composes(self, alpha3_state):
        rng = np.random.default_rng(19)
        runs = 2000
        steps = 3
        dn = 0.7
        values = np.empty(runs, dtype=complex)
        for i in range(runs):
            final = repeated_measurement(alpha3_state, dn, steps, rng).final_state
            values[i] = expectation_a(final)
        projected = values.real  # input phase is zero
        target = decoherence_factor(dn) ** steps * 3.0
        stderr = projected.std(ddof=1) / math.sqrt(runs)
        assert abs(projected.mean() - target) < 4 * stderr

    def test_invalid_count(self, alpha3_state):
        with pytest.raises(InvalidParam):
            repeated_measurement(alpha3_state, 0.5, 0, 1)

    def test_seeded_stream_is_pinned(self, alpha3_state):
        # The values Generator.choice's level draw gave; the cached CDF keeps them.
        trajectory = repeated_measurement(alpha3_state, 0.5, 10, 999)
        assert trajectory.outcomes[:4].tolist() == [
            10.751682992526737, 9.974638454801973, 10.996884704125026, 11.263343360307507,
        ]
        assert trajectory.mean_n[:2].tolist() == [10.720603336491514, 10.213913578193196]

    def test_one_run_batch_is_the_single_record(self, alpha3_state):
        single = repeated_measurement(alpha3_state, 0.7, 6, 23)
        batch = repeated_measurement(alpha3_state, 0.7, 6, 23, runs=1)
        for name in ("outcomes", "mean_n", "var_n", "coherence_mag", "final_amplitudes"):
            values = getattr(single, name)
            assert getattr(batch, name).shape == (1, *values.shape)
            assert np.array_equal(getattr(batch, name)[0], values)
        assert batch.seed == single.seed == 23

    @pytest.mark.parametrize(
        "n_max, delta_n, count, runs, seed",
        [
            pytest.param(60, delta_n, count, runs, 41, id=f"{delta_n}-{count}-{runs}")
            for delta_n, count, runs in (
                (1.0, 2, 2000), (0.3, 7, 300), (0.05, 3, 200), (2.0, 40, 50)
            )
        ] + [
            # Chunks that end inside a pass: run 8's mean_n is 1.8e-15 off its record's.
            pytest.param(37, 0.5, 400, 40, 7, id="0.5-400-40"),
        ],
    )
    def test_batch_rows_match_single_records(self, n_max, delta_n, count, runs, seed):
        state = coherent_state(ALPHA3, n_max)
        batch = repeated_measurement(state, delta_n, count, seed, runs=runs)
        assert batch.outcomes.shape == batch.var_n.shape == (runs, count)
        assert batch.final_amplitudes.shape == (runs, n_max + 1)
        for run in range(runs):
            _, mean_n, var_n, coherence, final = _sequential_posteriors(
                state, batch.outcomes[run], delta_n
            )
            for value, single in (
                (batch.mean_n[run], mean_n),
                (batch.var_n[run], var_n),
                (batch.coherence_mag[run], np.abs(coherence)),
            ):
                assert np.allclose(value, single, rtol=BATCH_TOL, atol=BATCH_TOL)
            overlap = np.vdot(final, batch.final_amplitudes[run])
            assert abs(overlap) ** 2 >= 1 - 1e-12

    def test_batch_has_no_single_final_state(self, alpha3_state):
        batch = repeated_measurement(alpha3_state, 1.0, 2, 3, runs=4)
        assert not batch.final_amplitudes.flags.writeable
        with pytest.raises(InvalidParam):
            batch.final_state

    @pytest.mark.parametrize("runs", [0, -2, 2.5, 2.0, "3"])
    def test_invalid_runs(self, alpha3_state, runs):
        with pytest.raises(InvalidParam):
            repeated_measurement(alpha3_state, 1.0, 2, 1, runs=runs)

    @pytest.mark.parametrize("count", [2.5, 2.0, "3", None])
    def test_count_must_be_an_integer(self, alpha3_state, count):
        with pytest.raises(InvalidParam, match="count must be an integer"):
            repeated_measurement(alpha3_state, 1.0, count, 1)

    @pytest.mark.parametrize("seed", [2.5, 2.0, "7", np.float64(3.0)])
    def test_seed_must_be_an_integer(self, alpha3_state, seed):
        with pytest.raises(InvalidParam, match="seed must be an integer"):
            repeated_measurement(alpha3_state, 1.0, 2, seed)
        with pytest.raises(InvalidParam, match="seed must be an integer"):
            sample_outcome(alpha3_state, 1.0, seed)

    def test_numpy_integers_are_integers(self, alpha3_state):
        typed = repeated_measurement(
            alpha3_state, 1.0, np.int64(3), np.uint32(7), runs=np.int32(2)
        )
        plain = repeated_measurement(alpha3_state, 1.0, 3, 7, runs=2)
        assert np.array_equal(typed.outcomes, plain.outcomes)
        assert typed.seed == 7 and type(typed.seed) is int

    def test_passes_share_the_hidden_level(self, alpha3_state):
        # x_i = n + e_i with independent e_i: Cov(x_1, x_2) = Var(n), where
        # independent draws from the outcome density would give 0.
        rng = np.random.default_rng(29)
        runs = 2000
        outcomes = np.array(
            [repeated_measurement(alpha3_state, 1.0, 2, rng).outcomes for _ in range(runs)]
        )
        centered = outcomes - outcomes.mean(axis=0)
        products = centered[:, 0] * centered[:, 1]
        stderr = products.std(ddof=1) / math.sqrt(runs)
        assert abs(products.mean() - variance_n(alpha3_state)) < 5 * stderr


@settings(max_examples=60, deadline=None)
@given(
    n_max=st.integers(0, 400),
    low_share=st.floats(0.0, 1.0),
    size=st.sampled_from([None, 1, 10_000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_level_draws_are_generator_choice(n_max, low_share, size, seed):
    """The CDF search draws what Generator.choice draws, from the same stream."""
    state = random_state(n_max, np.random.default_rng(seed), min_level=int(low_share * n_max))
    probs = state.probabilities()
    searched, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = _draw_level(state, searched, size)
    expected = chosen.choice(probs.size, size, p=probs / probs.sum())
    assert np.shape(drawn) == np.shape(expected)
    assert np.array_equal(drawn, expected)
    assert searched.random() == chosen.random()


# With and without the moment section: the walk alone raises as the full walk does.
MOMENTS = (True, False)


def test_posteriors_refuse_an_outcome_off_the_support():
    for moments in MOMENTS:
        with pytest.raises(ZeroProbability):
            _sequential_posteriors(number_state(0, 200), np.array([150.0]), 0.3, moments)


def test_posteriors_name_the_width_of_the_pass_that_vanished():
    # Outcomes 5 and 6 put pass 2's window, of width 0.015 / sqrt(2), at 5.5:
    # between the two levels, where it reaches neither.
    amps = np.zeros(10)
    amps[5:7] = math.sqrt(0.5)
    state = PureState(amps)
    message = f"window at n_m = 5.5 with delta_n = {0.015 / math.sqrt(2):g} falls between levels"
    # One record, and a block whose row 4 is run 1's pass 2.
    for outcomes in (np.array([5.0, 6.0]), np.array([[5.0, 5.0, 6.0], [5.0, 6.0, 6.0]])):
        for moments in MOMENTS:
            with pytest.raises(ZeroProbability) as raised:
                _sequential_posteriors(state, outcomes, 0.015, moments)
            assert message in str(raised.value)


def same_bits(values, expected):
    return values.shape == expected.shape and values.tobytes() == expected.tobytes()


def plan_arrays(plan):
    return [values for values in plan if isinstance(values, np.ndarray)]


class TestPosteriorPlan:
    """The per-pass constants and band chunks, planned once per record shape."""

    def test_cold_and_warm_plans_give_the_same_bits(self, alpha3_state):
        outcomes = repeated_measurement(alpha3_state, 0.5, 30, 7, runs=4).outcomes.T
        _posterior_plan.cache_clear()
        cold = _sequential_posteriors(alpha3_state, outcomes, 0.5)
        warm = _sequential_posteriors(alpha3_state, outcomes, 0.5)
        assert _posterior_plan.cache_info()[:2] == (1, 1)  # hits, misses
        assert all(map(same_bits, warm, cold))

    def test_states_of_one_basis_size_share_a_plan(self, alpha3_state):
        other = random_state(60, np.random.default_rng(3))
        records = [
            (state, repeated_measurement(state, 0.7, 12, seed).outcomes)
            for state, seed in ((alpha3_state, 5), (other, 6))
        ]
        uncached = []
        for state, outcomes in records:
            _posterior_plan.cache_clear()
            uncached.append(_sequential_posteriors(state, outcomes, 0.7))
        _posterior_plan.cache_clear()
        for (state, outcomes), expected in zip(records, uncached):
            assert all(map(same_bits, _sequential_posteriors(state, outcomes, 0.7), expected))
        assert _posterior_plan.cache_info()[:2] == (1, 1)

    def test_plan_arrays_are_read_only(self):
        arrays = plan_arrays(_posterior_plan(0.5, 40, 3, 61))
        assert len(arrays) == 5
        assert not any(values.flags.writeable for values in arrays)

    def test_block_from_whole_to_banded_chunks_is_its_records(self):
        state = coherent_state(ALPHA3)
        levels, runs = state.n_max + 1, 5
        widths = [width for _, _, width in _posterior_plan(0.5, 400, runs, levels)[3]]
        assert widths[0] == levels > widths[-1]
        # The block's chunks end at the same passes as one record's, so each
        # pass keeps its band and its sums.
        outcomes = repeated_measurement(state, 0.5, 400, 11, runs=runs).outcomes
        block = _sequential_posteriors(state, outcomes.T, 0.5)
        for run in range(runs):
            record = _sequential_posteriors(state, outcomes[run], 0.5)
            assert all(map(same_bits, (values[:, run] for values in block[:4]), record[:4]))
            assert same_bits(block[4][run], record[4])

    def test_no_plan_array_grows_with_runs(self):
        one, many = _posterior_plan(1.0, 2, 1, 38), _posterior_plan(1.0, 2, 10_000, 38)
        assert [values.size for values in plan_arrays(one)] == [
            values.size for values in plan_arrays(many)
        ]
        # Both passes' bands cover all 38 levels: chunks of _CHUNK_CELLS // 38 rows.
        assert len(many[3]) == -(-20_000 // (_CHUNK_CELLS // 38))


def subnormal_state(tiny):
    """Levels 0, 1, 2 with a subnormal amplitude on level 0."""
    amps = np.array([tiny, 1.0, 0.5])
    return PureState(amps / np.linalg.norm(amps))


SUBNORMALS = pytest.mark.parametrize(
    "tiny", [7.7e-315, 7.7e-315j, 5e-315 - 6e-315j], ids=["real", "imaginary", "complex"]
)


class TestMomentsOnFirstRead:
    """A record computes its moments only when they are read, as the full walk would."""

    @pytest.mark.parametrize(
        "alpha, n_max, delta_n, count, runs",
        [
            (3.0, 37, 1.0, 2, None),  # one whole-basis chunk
            (25.0, 1015, 2.0, 200, None),  # banded chunks
            (3.0, 37, 0.3, 500, None),  # whole, then banded
            (3.0, 37, 1.0, 2, 300),
            (3.0, 37, 0.5, 400, 5),  # whole, then banded, cut at passes
            (3.0, 37, 0.5, 400, 40),  # cut inside passes
            (25.0, 1015, 0.05, 30, 60),
            (3.0, 37, 0.02, 300, None),  # one narrow chunk
            (3.0, 37, 5.0, 1000, None),  # whole, then banded
            (10.0, 200, 0.3, 2000, None),
            (25.0, 1015, 5.0, 500, None),
            (25.0, 1015, 2.0, 200, 7),  # banded, ending in one chunk
            (10.0, 200, 1.0, 100, 300),  # banded, cut inside passes
            (3.0, 37, 0.2, 800, 3),
        ],
    )
    def test_moments_are_the_full_walk(self, alpha, n_max, delta_n, count, runs):
        state = coherent_state(CoherentParams(alpha, 0.3), n_max)
        # The martingale op's record, two passes in one whole-basis chunk, takes many seeds.
        seeds = 200 if (n_max, delta_n, count, runs) == (37, 1.0, 2, None) else 3
        for seed in range(seeds):
            trajectory = repeated_measurement(state, delta_n, count, seed, runs=runs)
            assert_full_walk(trajectory, state)

    @SUBNORMALS
    @pytest.mark.parametrize("runs", [None, 7])
    def test_subnormal_amplitudes_keep_the_full_walk(self, tiny, runs):
        state = subnormal_state(tiny)
        assert_full_walk(repeated_measurement(state, 1.0, 3, 3, runs=runs), state)

    def test_walk_only_keeps_the_lift_in_the_window_tail(self):
        # Outcomes far off the support: the last pass's weights are tiny, and
        # only the lift keeps its final amplitudes' bits.
        state = coherent_state(CoherentParams(3.0, 0.4))
        block = np.array([[-7.79, 42.16], [-7.29, 42.66]])  # two runs of two passes
        for outcomes in (np.array([-10.01]), np.array([45.12]), block):
            walk = _sequential_posteriors(state, outcomes, 0.3, moments=False)
            full = _sequential_posteriors(state, outcomes, 0.3)
            assert walk[1:4] == (None, None, None)
            assert same_bits(walk[0], full[0]) and same_bits(walk[4], full[4])

    @pytest.mark.parametrize(
        "outcomes, lifted",
        [
            ([-21.0, -21.0], True),  # the last pass's largest weight is 3.7e-196
            ([-20.5, -21.3], True),
            ([9.2, 8.6], False),
        ],
    )
    def test_a_whole_basis_record_lifts_as_the_full_walk(self, outcomes, lifted, monkeypatch):
        # Two passes at dn 1 on the 38-level basis are one whole-basis chunk;
        # running means near -21 put the last pass 30 widths below level 0.
        state = coherent_state(CoherentParams(3.0, 0.4))
        chunks = _posterior_plan(1.0, 2, 1, state.n_max + 1)[3]
        assert len(chunks) == 1 and chunks[0][2] == state.n_max + 1
        outcomes = np.array(outcomes)
        means = np.cumsum(outcomes) / [1.0, 2.0]
        n = np.arange(state.n_max + 1.0)
        weights = state.probabilities() * np.exp(-(n - means[:, None]) ** 2 * [[0.5], [1.0]])
        assert bool(weights.max(axis=1).min() < measurement._LIFT_BELOW) == lifted
        full = _sequential_posteriors(state, outcomes, 1.0)
        for levels in (None, 0):
            walk = _sequential_posteriors(state, outcomes, 1.0, False, levels)
            assert walk[1:4] == (None, None, None)
            assert same_bits(walk[4], full[4])
        # The lift is what keeps those bits: without it the far levels' amplitudes move.
        monkeypatch.setattr(measurement, "_LIFT_BELOW", 0.0)
        unlifted = _sequential_posteriors(state, outcomes, 1.0, moments=False)[4]
        assert same_bits(unlifted, full[4]) != lifted

    def test_the_lift_screen_skips_no_lift(self):
        # Last-pass means across the lift threshold (largest weight 1e-150 near
        # -18.3) and the screen's (densities of about 4e-148): each record keeps
        # the full walk's final amplitudes, lifted or not.
        state = coherent_state(CoherentParams(3.0, 0.4))
        for mean in np.linspace(-19.5, -17.0, 251):
            outcomes = np.array([mean + 0.25, mean - 0.25])
            walk = _sequential_posteriors(state, outcomes, 1.0, moments=False)
            assert same_bits(walk[4], _sequential_posteriors(state, outcomes, 1.0)[4])

    def test_one_walk_per_call_and_one_per_first_read(self, alpha3_state, monkeypatch):
        walks = []

        def recording(state, outcomes, delta_n, moments=True, levels=None):
            walks.append(moments)
            return _sequential_posteriors(state, outcomes, delta_n, moments, levels)

        monkeypatch.setattr(measurement, "_sequential_posteriors", recording)
        trajectory = repeated_measurement(alpha3_state, 0.5, 20, 4)
        assert trajectory.final_state.n_max == alpha3_state.n_max
        assert walks == [False]
        mean_n = trajectory.mean_n
        assert walks == [False, True]
        assert trajectory.var_n is trajectory.var_n
        assert trajectory.coherence_mag is trajectory.coherence_mag
        assert trajectory.coherence is trajectory.coherence
        assert trajectory.mean_n is mean_n
        assert walks == [False, True]

    def test_outcomes_are_read_only(self, alpha3_state):
        # The moments are read from them later, so they cannot change first.
        assert not repeated_measurement(alpha3_state, 0.5, 20, 4).outcomes.flags.writeable


class TestCertifiedPasses:
    """A record's hidden level vouches for the densities before its last pass."""

    @pytest.fixture
    def walked(self, monkeypatch):
        """The number of rows of each chunk the band walks visit, in order."""
        rows = []
        band_offsets = measurement._band_offsets

        def recording(block, *args):
            rows.append(block.size)
            return band_offsets(block, *args)

        monkeypatch.setattr(measurement, "_band_offsets", recording)
        return rows

    def test_a_long_collapse_walks_only_its_last_pass(self, walked):
        state = coherent_state(CoherentParams(25.0, 0.3), 1015)
        assert len(_posterior_plan(2.0, 200, 1, 1016)[3]) == 4
        for seed in range(3):
            walked.clear()
            repeated_measurement(state, 2.0, 200, seed)
            assert walked == [1]

    def test_a_batch_walks_only_its_last_pass(self, walked):
        state = coherent_state(CoherentParams(10.0, 0.3), 200)
        repeated_measurement(state, 1.0, 100, 5, runs=300)
        assert sum(walked) == 300

    def test_a_one_chunk_walk_is_left_as_it_is(self, walked, alpha3_state):
        assert len(_posterior_plan(1.0, 2, 1, alpha3_state.n_max + 1)[3]) == 1
        repeated_measurement(alpha3_state, 1.0, 2, 4)
        assert walked == [2]

    def test_a_level_far_from_the_outcomes_takes_the_full_walk(self, walked):
        state = coherent_state(CoherentParams(25.0, 0.3), 1015)
        outcomes = repeated_measurement(state, 2.0, 200, 8).outcomes
        expected = _sequential_posteriors(state, outcomes, 2.0, moments=False)
        for level in (0, 1015, round(outcomes[0]) + 300):
            walked.clear()
            walk = _sequential_posteriors(state, outcomes, 2.0, moments=False, levels=level)
            assert sum(walked) == 200
            assert walk[:4] == (None, None, None, None)
            assert same_bits(walk[4], expected[4])

    def test_a_nan_outcome_takes_the_full_walk(self, walked, alpha3_state):
        outcomes = np.full(500, 9.0)
        outcomes[250] = math.nan
        assert len(_posterior_plan(0.3, 500, 1, alpha3_state.n_max + 1)[3]) > 1
        for levels in (None, 9):
            walked.clear()
            with pytest.raises(ZeroProbability, match="n_m = nan is not a number"):
                _sequential_posteriors(alpha3_state, outcomes, 0.3, False, levels)
            assert sum(walked) == 500

    def test_a_vanished_pass_raises_as_before(self, walked):
        # Levels 5 and 6; pass 1999's running mean is 5.5, where its window,
        # of width 0.5 / sqrt(1999), reaches neither level, and pass 2000's
        # is 5 again.
        amps = np.zeros(10)
        amps[5:7] = math.sqrt(0.5)
        state = PureState(amps)
        outcomes = np.full(2000, 5.0)
        outcomes[1998], outcomes[1999] = 5.0 + 0.5 * 1999, 5.0 - 0.5 * 1999
        message = f"window at n_m = 5.5 with delta_n = {0.5 / math.sqrt(1999):g} falls between levels"
        raised = []
        for levels in (None, 5):
            walked.clear()
            with pytest.raises(ZeroProbability, match=message) as error:
                _sequential_posteriors(state, outcomes, 0.5, False, levels)
            raised.append(str(error.value))
            assert sum(walked) == 2000
        assert raised[0] == raised[1]

    def test_a_lifted_last_pass_keeps_its_bits(self, walked, alpha3_state):
        # Every pass but the last sits on level 9; the last moves the mean to
        # 9.5, 33 widths from both levels, where only the lift keeps the
        # final amplitudes' digits.
        outcomes = np.full(400, 9.0)
        outcomes[-1] = 9.0 + 0.5 * 400
        walk = _sequential_posteriors(alpha3_state, outcomes, 0.3, False, 9)
        assert walked[-1:] == [1] and sum(walked) == 1
        full = _sequential_posteriors(alpha3_state, outcomes, 0.3)
        assert same_bits(walk[4], full[4])

    def test_a_tiny_weight_beside_the_last_pass_takes_the_full_walk(self, walked, alpha3_state):
        # Pass 399 shares the last pass's chunk and has its largest weight
        # below the lift threshold, which decides the chunk's lift, so no
        # row is certified.
        outcomes = np.full(400, 9.0)
        outcomes[-2], outcomes[-1] = 9.0 + 0.5 * 399, 9.0 - 0.5 * 399
        walk = _sequential_posteriors(alpha3_state, outcomes, 0.3, False, 9)
        assert sum(walked) == 400
        full = _sequential_posteriors(alpha3_state, outcomes, 0.3)
        assert same_bits(walk[4], full[4])


def assert_full_walk(trajectory, state):
    """Every field of ``trajectory`` is the bits of one full walk on its outcomes."""
    _, mean_n, var_n, coherence, final = _sequential_posteriors(
        state, trajectory.outcomes.T, trajectory.delta_n
    )
    assert same_bits(trajectory.final_amplitudes, final)
    assert same_bits(trajectory.mean_n, mean_n.T)
    assert same_bits(trajectory.var_n, var_n.T)
    assert same_bits(trajectory.coherence, coherence.T)
    assert same_bits(trajectory.coherence_mag, np.abs(trajectory.coherence))


def test_posterior_coherence_takes_the_phase_noise_of_each_pass():
    # After pass j the ensemble-averaged <a> is alpha exp(-j/(8 dn^2)), as if
    # each pass applied phase noise of variance 1/(4 dn^2), and it stays along
    # the initial field.
    state = coherent_state(CoherentParams(3.0, 0.7))
    dn, count, runs = 1.0, 10, 20_000
    outcomes = repeated_measurement(state, dn, count, 17, runs=runs).outcomes
    coherence = _sequential_posteriors(state, outcomes.T, dn)[3]
    a_initial = expectation_a(state)
    projected = coherence * np.conj(a_initial / abs(a_initial))
    target = 3.0 * np.exp(-np.arange(1, count + 1) / (8.0 * dn**2))
    # The passes of a run are correlated, so each pass is checked on its own.
    for along, expected in zip(projected.real, target):
        stderr = along.std(ddof=1) / math.sqrt(runs)
        assert abs(along.mean() - expected) < 5 * stderr
    assert np.abs(projected.imag).max() < 1e-14 * 3.0


@SUBNORMALS
def test_posteriors_take_subnormal_amplitudes(tiny):
    # Chained readouts leave such amplitudes on the levels far from the outcomes.
    state = subnormal_state(tiny)
    trajectory = repeated_measurement(state, 1.0, 3, 3)
    current = state
    for n_m, mean_n, _, coherence_mag in passes(trajectory):
        record = dense_condition(current, n_m, 1.0)
        current = record.post_state
        assert mean_n == pytest.approx(expectation_n(current), rel=1e-12)
        assert coherence_mag == pytest.approx(abs(record.coherence), rel=1e-12)
    assert fidelity(trajectory.final_state, current) >= 1 - 1e-12
    post = measure(state, 0.0, 1.0).post_state.amplitudes
    assert post[0] != 0.0
    assert np.angle(post[0]) == pytest.approx(np.angle(tiny), abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    n_max=st.integers(0, 120),
    low_share=st.floats(0.0, 1.0),
    delta_n=st.floats(0.05, 5.0),
    count=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_trajectory_matches_sequential_conditioning(n_max, low_share, delta_n, count, seed):
    """Every step equals conditioning the state pass by pass on the outcomes."""
    rng = np.random.default_rng(seed)
    state = random_state(n_max, rng, min_level=int(low_share * n_max))
    trajectory = repeated_measurement(state, delta_n, count, seed)
    current = state
    for n_m, mean_n, var_n, coherence_mag in passes(trajectory):
        record = dense_condition(current, n_m, delta_n)
        current = record.post_state
        assert mean_n == pytest.approx(expectation_n(current), rel=1e-10, abs=1e-10)
        assert var_n == pytest.approx(variance_n(current), rel=1e-10, abs=1e-10)
        assert coherence_mag == pytest.approx(abs(record.coherence), rel=1e-10, abs=1e-10)
    assert fidelity(trajectory.final_state, current) >= 1 - 1e-12
    if count == 1:
        assert trajectory.outcomes[0] == sample_outcome(state, delta_n, seed).n_m


@pytest.mark.parametrize(
    "magnitude, n_max, delta_n, count, seed",
    [(25.0, 1015, 0.05, 2000, 31), (100.0, 11440, 0.3, 200, 37)],
    ids=["alpha25-2000-passes", "alpha100-200-passes"],
)
def test_bright_long_trajectories_match_sequential_conditioning(
    magnitude, n_max, delta_n, count, seed
):
    """Bright fields and long records, conditioned pass by pass on the dense window."""
    state = coherent_state(CoherentParams(magnitude, 0.3), n_max)
    trajectory = repeated_measurement(state, delta_n, count, seed)
    n = np.arange(n_max + 1)
    current = state
    for n_m, mean_n, var_n, coherence_mag in passes(trajectory):
        record = dense_condition(current, n_m, delta_n)
        current = record.post_state
        weight = current.probabilities()
        mean = weight @ n
        assert mean_n == pytest.approx(mean, rel=1e-10, abs=1e-10)
        # Centered: sum n^2 p_n - mean^2 would lose 1e-8 to rounding at n = 10^4.
        assert var_n == pytest.approx(weight @ (n - mean) ** 2, rel=1e-10, abs=1e-10)
        assert coherence_mag == pytest.approx(abs(record.coherence), rel=1e-10, abs=1e-10)
    assert fidelity(trajectory.final_state, current) >= 1 - 1e-12


def centered_posterior_moments(state, outcomes, delta_n):
    """Variance and |<a>| after each pass, relative to the heaviest level.

    The log number weights take each pass's window, log|c_n|^2 minus the sum
    of (n - x_i)^2 / (2 delta_n^2), and the amplitudes are exponentiated
    relative to the largest.  About the heaviest level, a collapsed state's variance and
    coherence are sums of small positive terms, accurate to their last digits
    however small they are.
    """
    c = state.amplitudes
    n = np.arange(c.size)
    log_weight = 2.0 * np.log(np.abs(c))
    phase = np.exp(1j * np.angle(c))
    var, coherence = [], []
    for x in outcomes:
        log_weight = log_weight - (n - x) ** 2 / (2.0 * delta_n**2)
        top = int(np.argmax(log_weight))
        amp = np.exp(0.5 * (log_weight - log_weight[top])) * phase
        weight = np.abs(amp) ** 2
        total = weight.sum()
        offset = n - top - weight @ (n - top) / total
        var.append(weight @ offset**2 / total)
        coherence.append(abs(np.sum(np.conj(amp[:-1]) * amp[1:] * np.sqrt(n[1:]))) / total)
    return np.array(var), np.array(coherence)


def test_collapsed_moments_keep_their_precision():
    # The trajectory of `qnd sample --dn 0.3 --seed 9`: the state collapses onto
    # one level within a few passes, and its variance and coherence then fall
    # by some 1e-5 and 1e-2.5 per pass, through values near 1e-250.
    state = coherent_state(ALPHA3)
    trajectory = repeated_measurement(state, 0.3, 500, 9)
    ref_var, ref_coherence = centered_posterior_moments(state, trajectory.outcomes, 0.3)
    for value, ref in ((trajectory.var_n, ref_var), (trajectory.coherence_mag, ref_coherence)):
        kept = ref >= 1e-250
        assert ref[kept].min() < 1e-240
        assert np.all(np.abs(value - ref)[kept] <= 1e-9 * ref[kept])


class TestEffectivePostState:
    def test_matches_direct_product(self, alpha3_state):
        outcomes = [8.6, 9.4, 9.1]
        dn = 0.5
        amps = alpha3_state.amplitudes.copy()
        n = np.arange(amps.size)
        for n_m in outcomes:
            amps = amps * np.exp(-((n - n_m) ** 2) / (4 * dn * dn))
        amps = amps / np.linalg.norm(amps)
        effective = effective_post_state(alpha3_state, outcomes, dn)
        assert np.max(np.abs(effective.amplitudes - amps)) < 1e-12

    def test_requires_outcomes(self, alpha3_state):
        with pytest.raises(InvalidParam):
            effective_post_state(alpha3_state, [], 0.5)


def rotation_loop_ratio(params, delta_n, samples, seed):
    """Route two as it was first written: rotate the state, take <a>, project."""
    gen = np.random.default_rng(seed)
    state = coherent_state(params)
    c = state.amplitudes
    n = np.arange(c.size)
    root = np.sqrt(n[1:])
    a_initial = expectation_a(state)
    direction = a_initial / abs(a_initial)
    # Replay route one's draws, so the rotation angles are the same.
    probs = state.probabilities()
    levels = gen.choice(probs.size, size=samples, p=probs / probs.sum())
    gen.normal(levels, delta_n)
    thetas = gen.normal(0.0, math.sqrt(equivalent_phase_noise(delta_n)), size=samples)
    rotations = np.empty(samples)
    for start in range(0, samples, 2048):
        block = thetas[start : start + 2048]
        rotated = c[None, :] * np.exp(-1j * np.outer(block, n))
        a_rot = np.sum(np.conj(rotated[:, :-1]) * rotated[:, 1:] * root[None, :], axis=1)
        rotations[start : start + 2048] = np.real(a_rot * np.conj(direction))
    rotations /= abs(a_initial)
    return rotations.mean(), rotations.std(ddof=1) / math.sqrt(samples)


class TestPhaseDiffusionEquivalence:
    @pytest.mark.parametrize(
        "delta_n, samples, seed", [(0.3, 100_000, 91), (0.5, 100_000, 91), (50.0, 2000, 5)]
    )
    def test_dephasing_matches_rotation_loop(self, delta_n, samples, seed):
        result = phase_diffusion_equivalence(ALPHA3, delta_n, samples, seed)
        ratio, stderr = rotation_loop_ratio(ALPHA3, delta_n, samples, seed)
        assert result.dephasing_ratio == pytest.approx(ratio, rel=0, abs=1e-12)
        assert result.dephasing_stderr == pytest.approx(stderr, rel=0, abs=1e-12)

    def test_agreement_at_reference_resolutions(self):
        for dn, factor in ((0.3, 0.2494), (0.5, math.exp(-0.5))):
            result = phase_diffusion_equivalence(ALPHA3, dn, 100_000, 91)
            assert result.analytic_ratio == pytest.approx(factor, abs=1e-4)
            assert abs(result.measurement_ratio - result.analytic_ratio) < (
                5 * result.measurement_stderr
            )
            assert abs(result.dephasing_ratio - result.analytic_ratio) < (
                5 * result.dephasing_stderr
            )

    def test_no_measurement_limit(self):
        result = phase_diffusion_equivalence(ALPHA3, 50.0, 2000, 5)
        assert result.analytic_ratio > 0.9999
        assert result.measurement_ratio == pytest.approx(1.0, abs=1e-3)
        assert result.dephasing_ratio == pytest.approx(1.0, abs=1e-3)

    def test_sample_floor(self):
        with pytest.raises(InvalidParam):
            phase_diffusion_equivalence(ALPHA3, 0.5, 100, 1)

    @pytest.mark.parametrize("samples", [1000.5, 2000.0, "2000"])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(InvalidParam, match="samples must be an integer"):
            phase_diffusion_equivalence(ALPHA3, 0.5, samples, 1)
