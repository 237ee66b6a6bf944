"""Gaussian-window photon-number readout with adjustable resolution.

A readout of resolution ``delta_n`` that returns the pointer value ``n_m``
acts on a pure state by multiplying each number amplitude with a Gaussian
window centered at the outcome,

    w(n) = (2 pi delta_n^2)**-0.25 * exp(-(n - n_m)^2 / (4 delta_n^2)).

The squared norm of the windowed amplitudes is the outcome probability
density (per unit ``n_m``), and renormalizing them gives the conditional
post-measurement state.  Density and coherence profiles over an outcome
grid, quadrature averages over outcomes, conditional states, trajectories
and the equivalent phase noise of the back-action all come from that window.

Products of the window factor exactly into the normalized Gaussian
g(x) = (2 pi delta_n^2)**-0.5 exp(-x^2 / (2 delta_n^2)):

    w(n)^2      = g(n_m - n)
    w(n) w(n+1) = exp(-1/(8 delta_n^2)) g(n_m - n - 1/2),

so every profile is a real Gaussian band sum over the level moments
(p_n, b_n) of :meth:`PureState.level_moments`.  In float64, g is exactly 0.0
beyond 38.6 widths, so the kernel visits only the levels within
``_BAND_WIDTHS`` = 38.7 widths of each outcome, in chunks of about
``_CHUNK_CELLS`` = 65 536 (outcome, level) cells: work grows with grid size
times band width, not basis size, and temporary memory stays at a few MB.
Conditional states are the same band sum over the same bands: windows at
outcomes x_1..x_j multiply into one window of width delta_n / sqrt(j) at their
mean, so one pass gives every step of a trajectory its posterior, and
:func:`measure` is the one-outcome case.  Profiles take one width per
outcome in the same way (:func:`_band_profiles`), so a sweep's probes at
many resolutions are one pass too.  Quadratures over outcomes use the
trapezoid rule on lattices j/M whose step 1/M bounds its aliasing of the
unit-period fringes by 1e-16 (:meth:`MeasurementConfig.adequate`), over
the run of points where the state has weight (:func:`grid_profiles`).  On a
lattice the offset from a level to an outcome depends only on the outcome's
residue r = j mod M and the level's distance from the integer anchor j // M,
and so does every quadrature weight: a quadrature is a sum over M residues
of M x W exponentials against the window's column sums over the run's
anchors (:func:`_residue_totals`), and its cost does not grow with the
support.  A resolution sweep is one batched pass, with configs that share M
evaluated together (:func:`_quadratures`); the matrix-product evaluator of
:func:`grid_profiles` serves profiles only.

Everything is a pure function of its inputs; sweeps over outcome grids are
vectorized internally and safe to parallelize externally.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridTooNarrow, InvalidParam, ToleranceWarning, ZeroProbability, _integer
from .fock import PureState

# Densities below this are treated as a vanished outcome: renormalizing the
# windowed amplitudes there would divide rounding noise by rounding noise.
DENSITY_FLOOR = 1e-300

# Inferred excess phase noise more negative than this is physically
# inconsistent input rather than round-off.
_EXCESS_NOISE_TOL = 1e-9

# Outcome grids and likelihood sums reach this many resolution widths beyond
# the levels they cover: there each level's Gaussian g has fallen to
# exp(-8^2 / 2) = exp(-32), about 1e-14 of its peak.
_PAD_WIDTHS = 8.0

# Quadrature steps are 1/M with M - 1 >= _ALIAS_C / dn: sqrt(ln(2e16) / (2 pi^2))
# = 1.37896, rounded up, keeps the trapezoid rule's aliasing below 1e-16 (see
# MeasurementConfig.adequate).
_ALIAS_C = 1.38

# Probability mass a quadrature grid may miss before it is too narrow; also
# the tolerance of quadratures against their closed forms.
QUAD_TOL = 1e-8

# g(x) underflows to 0.0 once x^2 / (2 delta_n^2) > 745.14, i.e. beyond 38.61
# widths; the band radius keeps a margin over that.
_BAND_WIDTHS = 38.7

# Far out in a window's tail the products e_n e_{n+1} of a posterior's <a>
# underflow while their ratio to the total still has digits.  Passes whose
# largest weight p_n e_n^2 falls below this are lifted first; above it only
# terms below 1e-157 of the total can underflow.
_LIFT_BELOW = 1e-150

# Kernel cells (outcome, level) evaluated at once.  Bounds each chunk's
# temporaries to a few MB whatever the grid size, band width or basis size.
_CHUNK_CELLS = 65536


def _check_delta_n(delta_n: float, allow_inf: bool = False) -> float:
    delta_n = float(delta_n)
    if math.isnan(delta_n) or delta_n <= 0.0:
        raise InvalidParam("delta_n must be positive")
    if math.isinf(delta_n) and not allow_inf:
        raise InvalidParam("delta_n must be finite")
    return delta_n


def _grid(n_m) -> np.ndarray:
    """Outcome or outcomes ``n_m`` as a 1-D float grid."""
    return np.atleast_1d(np.asarray(n_m, dtype=float))


def _scalar_or_array(n_m, values: np.ndarray):
    """``values`` on the grid of ``n_m``: a Python scalar when ``n_m`` is one."""
    return values[0].item() if np.ndim(n_m) == 0 else values


def _reach(width: float) -> float:
    """Distance from an outcome to the farthest level its window of ``width`` reaches.

    g underflows beyond 38.61 widths; the coherence's Gaussians sit half a
    level off the levels, hence the 1/2.
    """
    return _BAND_WIDTHS * width + 0.5


def _bands(centers: np.ndarray, widths, levels: int):
    """Bands of levels the windows reach, in chunks of about ``_CHUNK_CELLS`` cells.

    The window of width w at outcome m reaches the levels with
    |n - m| <= _BAND_WIDTHS * w + 1/2, clipped to the basis: a band wider than
    the basis covers every level.  Every outcome in a chunk takes the width of
    the chunk's first band, so ``widths`` (one per outcome) must not grow; a
    chunk ends before the first outcome whose own band would be less than half
    as wide, so narrowing windows do not sweep cells they cannot reach.
    Yields the chunk's slice of outcomes, each one's first level, and the
    offsets x = m - n from the band's levels to its outcome.  A band that
    covers the whole basis starts at level 0 for every outcome: its first
    level is one entry shared by the chunk, and rows indexed by it broadcast.
    """
    start = 0
    while start < centers.size:
        reach = _reach(float(widths[start]))
        width = int(min(levels, 2.0 * reach + 1.0))
        stop = min(centers.size, start + max(1, _CHUNK_CELLS // width))
        # 2 (_BAND_WIDTHS w + 1/2) + 1 < width / 2 below this w; the first
        # outcome is never below it, and constant widths skip the search.
        narrow = (0.25 * width - 1.0) / _BAND_WIDTHS
        if widths[stop - 1] < narrow:
            stop = start + int(np.argmax(widths[start:stop] < narrow))
        rows = slice(start, stop)
        block = centers[rows]
        if width == levels:
            yield rows, np.zeros(1, dtype=np.intp), block[:, None] - np.arange(width, dtype=float)
        else:
            # fmax/fmin give a NaN outcome a valid band start; its values stay NaN.
            edge = np.ceil(block - reach)
            np.fmin(np.fmax(edge, 0.0, out=edge), levels - width, out=edge)
            x = (block - edge)[:, None] - np.arange(width, dtype=float)
            yield rows, edge.astype(np.intp), x
        start = rows.stop


def _windows(values: np.ndarray, width: int) -> np.ndarray:
    """Read-only view of every run of ``width`` consecutive entries along the last axis.

    ``_windows(v, width)[..., i, k]`` is ``v[..., i + k]``; ``values`` must be
    C-contiguous.  Built from the strides by hand: ``sliding_window_view``
    gives the same view at several times the cost of this small a call.
    """
    *lead, size = values.shape
    step = values.strides[-1]
    view = np.ndarray(
        (*lead, size - width + 1, width), values.dtype, values,
        strides=(*values.strides[:-1], step, step),
    )
    view.flags.writeable = False
    return view


def _window_constants(delta_n: float) -> tuple[float, float]:
    """1/(4 dn^2) and the normalization N = (2 pi dn^2)**-0.5 of a window of width dn."""
    return 1.0 / (4.0 * delta_n**2), (2.0 * math.pi * delta_n**2) ** -0.5


def _profiles(
    state: PureState, n_m: np.ndarray, delta_n: float
) -> tuple[np.ndarray, np.ndarray]:
    """Density P(n_m) and coherence-weighted density <a>_f(n_m) P(n_m) at one resolution.

    The one-width case of :func:`_band_profiles`.  The benchmark's tracer
    (``bench/tracing.py``) counts kernel cells from this entry point's float
    ``delta_n``, so batches of widths call :func:`_band_profiles` directly.
    """
    return _band_profiles(state, n_m, delta_n)


def _band_profiles(
    state: PureState, n_m: np.ndarray, delta_n
) -> tuple[np.ndarray, np.ndarray]:
    """Density P(n_m) and coherence-weighted density <a>_f(n_m) P(n_m) on a grid.

    By the window factorization these are the band sums

        P(n_m)            = sum_n p_n g(n_m - n)
        <a>_f(n_m) P(n_m) = exp(-1/(8 dn^2)) sum_n b_n g(n_m - n - 1/2)

    with the level moments (p_n, b_n) of :meth:`PureState.level_moments`.

    Both Gaussians come from one exponential per cell, e(x) = exp(-x^2/(4 dn^2)):
    g(x) = N e(x)^2 and exp(-1/(8 dn^2)) g(x - 1/2) = N e(x) e(x - 1), with
    N = (2 pi dn^2)**-0.5 and x = n_m - n, over the bands of :func:`_bands`.
    The grid need not be sorted.  ``delta_n`` is a float, one width for every
    outcome, or an array of one width per outcome in any order: the outcomes
    are then visited widest first, as :func:`_bands` needs, and the results
    put back in the grid's order.  Each width's 1/(4 dn^2) and N take the
    float path's scalar arithmetic, so a constant array gives the float
    call's values bit for bit.
    """
    p, b = state.level_moments()
    if np.ndim(delta_n) == 0:
        order, centers, widths = None, n_m, np.full(n_m.size, delta_n)
        inv_4var, norm = _window_constants(delta_n)
        scale = -inv_4var
    else:
        order = np.argsort(-delta_n, kind="stable")
        centers, widths = n_m[order], delta_n[order]
        constants = np.array([_window_constants(w) for w in widths.tolist()])
        scale, norm = -constants[:, :1], constants[:, 1]
    density = np.empty(n_m.size)
    coherence = np.empty(n_m.size, dtype=np.complex128)
    width = None
    for rows, first, x in _bands(centers, widths, p.size):
        if x.shape[1] != width:
            width = x.shape[1]
            p_bands, b_bands = _windows(p, width), _windows(b, width)
        # A float width keeps a scalar factor: a column broadcast is slower.
        e = np.exp((scale if order is None else scale[rows]) * x * x)
        density[rows] = np.einsum("ij,ij,ij->i", p_bands[first], e, e)
        pair = e[:, :-1] * e[:, 1:]
        coherence[rows] = np.einsum("ij,ij->i", b_bands[first][:, :-1], pair)
    density, coherence = norm * density, norm * coherence
    if order is None:
        return density, coherence
    back = np.argsort(order)
    return density[back], coherence[back]


def _unit_rows(amps: np.ndarray) -> np.ndarray:
    """Scale each row of a C-contiguous complex block to unit norm, in place."""
    parts = amps.view(np.float64)
    amps /= np.sqrt(np.add.reduce(parts * parts, axis=1, keepdims=True))
    return amps


def _sequential_posteriors(
    state: PureState, outcomes: np.ndarray, delta_n: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Posterior moments after each readout of a block of records, all at once.

    Windows of width dn at outcomes x_1..x_j multiply into one window of
    width w_j = dn / sqrt(j) at their running mean m_j: after pass j the
    amplitudes are c_n e_j(n), e_j(n) = exp(-(n - m_j)^2 / (4 w_j^2)), up to
    normalization, and the density is (2 pi w_j^2)**-0.5 sum_n p_n e_j(n)^2,
    summed as :func:`_profiles` sums it.  Each pass's weights p_n e_j(n)^2 are
    divided by their largest before the moments are taken, so a state
    collapsed onto one level has that level as its mean exactly and keeps a
    variance far below the rounding of the unscaled weights; where those
    weights are tiny, e_j is lifted by a power of two before <a> is summed, so
    <a> keeps its digits where the products e_j(n) e_j(n+1) would underflow.

    ``outcomes`` is one record, shape (count,), or a block of records at the
    same resolution, shape (count, runs): column r is run r.  :func:`_bands`
    walks the block row by row, every run's pass 1, then every run's pass 2,
    and so on, so the window widths never grow.

    Returns each pass's density, the mean photon number, its variance and
    <a> after it, shaped like ``outcomes``, and the unit-norm conditional
    amplitudes after the last pass, shaped (levels,) or (runs, levels).

    Raises
    ------
    ZeroProbability
        If a pass's density falls below ``DENSITY_FLOOR``: an outcome lies far
        outside the support, or the pass's window (width dn / sqrt(j)) falls between levels.
    """
    p, b = state.level_moments()
    count = outcomes.shape[0]
    runs = outcomes.size // count
    # Row i of the walk is pass i // runs + 1 of run i % runs.
    passes = np.arange(1.0, count + 1.0)
    if runs > 1:
        passes = np.repeat(passes, runs)
    root = np.sqrt(passes)
    neg_inv_4var = passes / (-4.0 * delta_n**2)
    # (2 pi w_j^2)**-0.5 = sqrt(j) (2 pi dn^2)**-0.5, and the exponent is (-inv x) x:
    # pass 1 repeats _profiles's arithmetic, so measure's density is bit-equal to it.
    norm = (2.0 * math.pi * delta_n**2) ** -0.5 * root
    centers = np.add.accumulate(outcomes).ravel()
    centers /= passes
    density, mean, var = np.empty(centers.size), np.empty(centers.size), np.empty(centers.size)
    coherence = np.empty(centers.size, dtype=np.complex128)
    final = np.zeros((runs, p.size), dtype=np.complex128)
    last = centers.size - runs  # the first row of the last pass
    width = None
    for rows, first, x in _bands(centers, delta_n / root, p.size):
        if x.shape[1] != width:
            width = x.shape[1]
            band_levels = np.arange(width)
            offsets = band_levels.astype(float)
            # A band that is the whole basis is one row of levels, shared by the chunk.
            whole = width == p.size
            if whole:
                p_band, b_band = p[None], b[None, :-1]
        if not whole:
            n = first[:, None] + band_levels
            p_band, b_band = p[n], b[n[:, :-1]]
        e = neg_inv_4var[rows, None] * x
        e *= x
        np.exp(e, out=e)
        total = np.einsum("ij,ij,ij->i", p_band, e, e)
        band_density = np.multiply(norm[rows], total, out=density[rows])
        if not np.minimum.reduce(band_density) >= DENSITY_FLOOR:  # also catches NaN
            j = rows.start + int(np.argmin(band_density >= DENSITY_FLOOR))
            raise ZeroProbability(_underflow(state, centers[j : j + 1], delta_n / root[j]))
        weight = p_band * e
        weight *= e
        peak = np.maximum.reduce(weight, axis=1, keepdims=True)
        weight /= peak
        scale = np.add.reduce(weight, axis=1)
        shift = weight @ offsets / scale
        np.add(first, shift, out=mean[rows])
        centered = offsets - shift[:, None]
        np.divide(np.einsum("ij,ij->i", weight * centered, centered), scale, out=var[rows])
        if np.minimum.reduce(peak, axis=None) < _LIFT_BELOW:
            # Lift each pass's e by the power of two >= 1 that brings its largest
            # weight near one: every term and the total scale exactly.
            lift = np.ldexp(1.0, -(np.frexp(peak)[1] // 2))
            e *= lift
            total = total * lift[:, 0] ** 2
        pair = e[:, :-1] * e[:, 1:]
        np.divide(np.einsum("ij,ij->i", b_band, pair), total, out=coherence[rows])
        if rows.stop > last:
            # Rows of the last pass: the amplitudes c_n e(n), scaled to unit norm.
            tail = max(last - rows.start, 0)
            ending = slice(rows.start + tail - last, rows.stop - last)
            if whole:
                _unit_rows(np.multiply(state.amplitudes, e[tail:], out=final[ending]))
            else:
                amps = _unit_rows(state.amplitudes[n[tail:]] * e[tail:])
                runs_ending = range(ending.start, ending.stop)
                for run, start, row in zip(runs_ending, first[tail:].tolist(), amps):
                    final[run, start : start + width] = row
    if outcomes.ndim == 1:
        return density, mean, var, coherence, final[0]
    shape = outcomes.shape
    moments = (density, mean, var, coherence)
    return (*(values.reshape(shape) for values in moments), final)


def outcome_density(state: PureState, n_m, delta_n: float):
    """Probability density of reading ``n_m``; accepts a scalar or an array.

    Equals (2 pi delta_n^2)**-0.5 sum_n |c_n|^2 exp(-(n - n_m)^2 / (2 delta_n^2)),
    the squared norm of the windowed amplitudes.
    """
    delta_n = _check_delta_n(delta_n)
    density, _ = _profiles(state, _grid(n_m), delta_n)
    return _scalar_or_array(n_m, density)


def coherence_density(state: PureState, n_m, delta_n: float):
    """Field expectation of the windowed, unnormalized state: <a>_f(n_m) P(n_m)."""
    delta_n = _check_delta_n(delta_n)
    _, coherence = _profiles(state, _grid(n_m), delta_n)
    return _scalar_or_array(n_m, coherence)


@dataclass(frozen=True)
class OutcomeRecord:
    """One readout: outcome, its density, the conditional state, its coherence."""

    n_m: float
    density: float
    post_state: PureState
    coherence: complex


def measure(state: PureState, n_m: float, delta_n: float) -> OutcomeRecord:
    """Condition ``state`` on the outcome ``n_m``: a one-pass sequential posterior.

    Raises
    ------
    ZeroProbability
        If the outcome density underflows: ``n_m`` lies far outside the
        state's support, or the window is too narrow to reach a level.
    """
    delta_n = _check_delta_n(delta_n)
    density, _, _, coherence, post = _sequential_posteriors(state, _grid(n_m), delta_n)
    return OutcomeRecord(float(n_m), density.item(), PureState._unit(post), complex(coherence[0]))


def coherence_after(state: PureState, n_m, delta_n: float):
    """Field expectation of the conditional state after reading ``n_m``.

    Scalar in, complex out; array in, complex array out.

    Raises
    ------
    ZeroProbability
        Where the outcome density underflows.
    """
    delta_n = _check_delta_n(delta_n)
    grid = _grid(n_m)
    density, coherence = _profiles(state, grid, delta_n)
    vanished = ~(density >= DENSITY_FLOOR)  # also catches NaN
    if vanished.any():
        raise ZeroProbability(_underflow(state, grid[vanished], delta_n))
    return _scalar_or_array(n_m, coherence / density)


def _underflow(
    state: PureState, vanished: np.ndarray, delta_n: float,
    beyond: str = "an outcome lies far outside the state's support",
) -> str:
    """Why the densities at the outcomes ``vanished`` underflowed.

    Within the state's support padded by ``_PAD_WIDTHS`` = 8 widths, only a
    window too narrow to reach a level underflows: at half-integers, below
    about delta_n = 0.0135.  An outcome beyond gives the message ``beyond``.
    """
    first, last = state.support()
    pad = _PAD_WIDTHS * delta_n
    if not np.all((first - pad <= vanished) & (vanished <= last + pad)):
        return beyond
    return (
        f"the window at n_m = {vanished[0]:g} with delta_n = {delta_n:g} falls between "
        "levels and its density underflowed (below about delta_n 0.0135 at half-integers)"
    )


def integer_half_integer_ratio(state: PureState, delta_n: float) -> float:
    """Total likelihood of integer outcomes relative to half-integer outcomes.

    Sums the outcome density over all integers and over all half-integers
    covering the state's support: the M = 2 lattice, residue 0 over residue 1.
    The envelope of the number distribution cancels between the two sums, so
    the ratio isolates the periodic quantization contrast and is the same for
    every state.
    """
    # Each sum is taken on its own: (mass + Q sum) / (mass - Q sum) would cancel.
    (_, _, totals), = _residue_totals(state, [MeasurementConfig(delta_n, state.n_max, 2)], 0.0)
    return float(totals[0, 0, 0] / totals[0, 0, 1])


def _lattice_floor(x: float, per_unit: int) -> int:
    """Index j of the last lattice point j / per_unit at or below ``x``, compared as floats.

    The last point at or above ``x`` is ``-_lattice_floor(-x, per_unit)``.
    """
    j = math.floor(x * per_unit)
    if (j + 1) / per_unit <= x:
        return j + 1
    return j - 1 if j / per_unit > x else j


@dataclass(frozen=True)
class MeasurementConfig:
    """Resolution plus the lattice of outcomes j/M over levels 0..n_max, for quadrature.

    The grid runs from the last lattice point at or below -8 widths to the
    first one at or above n_max + 8 widths: the basis padded by
    ``_PAD_WIDTHS`` = 8 resolution widths, with both ends on the lattice.
    ``per_unit`` is M; ``adequate`` picks it so that the step's aliasing of
    the unit-period fringes is bounded.
    """

    delta_n: float
    n_max: int
    per_unit: int

    def __post_init__(self):
        _check_delta_n(self.delta_n)
        if not (_integer(self.n_max, "n_max") >= 0 and _integer(self.per_unit, "per_unit") >= 1):
            raise InvalidParam("need n_max >= 0 and per_unit >= 1")

    @property
    def grid_step(self) -> float:
        return 1.0 / self.per_unit

    @classmethod
    def adequate(cls, delta_n: float, n_max: int) -> "MeasurementConfig":
        """Lattice over levels 0..n_max, padded by 8 widths, with aliasing below 1e-16.

        The trapezoid rule with step h adds to the integral the integrand's
        Fourier transform at the frequencies m/h, m != 0 (Poisson summation).
        A level's outcome Gaussian g(x - n) has transform magnitude
        exp(-2 pi^2 dn^2 k^2), and the quantization fringe cos(2 pi x) shifts
        it by +-1, so for g(x - n) cos(2 pi x) the worst aliased term is
        exp(-2 pi^2 dn^2 (1/h - 1)^2), at m = +-1, and all of them together
        stay below twice it.  The step h = 1/M with M = 1 + ceil(c / dn) makes
        1/h - 1 >= c / dn, so that bound is at most 2 exp(-2 pi^2 c^2) <= 1e-16
        at every dn, with c = 1.38 >= sqrt(ln(2e16) / (2 pi^2)).  The density
        alone aliases only exp(-2 pi^2 dn^2 / h^2), less still; the
        coherence's Gaussians sit at n + 1/2, so its error is the same bound
        times sum_n |b_n|.

        The grid spans the whole basis; :func:`grid_profiles` evaluates only
        the part of it that covers the state's support.
        """
        delta_n = _check_delta_n(delta_n)
        return cls(delta_n, n_max, 1 + math.ceil(_ALIAS_C / delta_n))

    def _indices(self) -> tuple[int, int]:
        """Indices j of the grid's first and last points j / M."""
        pad, per_unit = _PAD_WIDTHS * self.delta_n, self.per_unit
        return _lattice_floor(-pad, per_unit), -_lattice_floor(-(self.n_max + pad), per_unit)

    def grid(self) -> np.ndarray:
        first, last = self._indices()
        return np.arange(first, last + 1) / self.per_unit


def trapezoid(values: np.ndarray, step: float):
    """Composite trapezoid rule on a uniform grid."""
    return step * (values.sum() - 0.5 * (values[0] + values[-1]))


def _run(config: MeasurementConfig, support: tuple[int, int]) -> tuple[int, int]:
    """Indices j of the first and last points j/M of the run that covers ``support``.

    The run reaches from the last point at or below the support's lower end
    padded by ``_PAD_WIDTHS`` = 8 widths to the first point at or above its
    padded upper end, clipped to the config's grid.
    """
    per_unit, pad = config.per_unit, _PAD_WIDTHS * config.delta_n
    low, high = config._indices()
    first, last = support
    start = min(max(_lattice_floor(first - pad, per_unit), low), high)
    stop = max(min(-_lattice_floor(-(last + pad), per_unit), high), low)
    return start, stop


def _too_narrow(mass: float, delta_n: float) -> GridTooNarrow:
    return GridTooNarrow(
        f"grid captures probability mass {mass:.12g} < 1 - {QUAD_TOL:g} at delta_n = {delta_n:g}"
    )


@functools.lru_cache(maxsize=32)
def _offset_squares(per_unit: int, reach: int) -> np.ndarray:
    """x^2 for x = (r - M s)/M in a read-only array: row s + reach, a unit axis, residue r.

    Rows run over s = -reach..reach + 2.
    """
    # r - M s, counted up from s = reach + 2, r = 0, is one run of integers.
    run = np.arange(-per_unit * (reach + 2), per_unit * (reach + 1)) ** 2 / per_unit**2
    square = np.ascontiguousarray(run.reshape(-1, 1, per_unit)[::-1])
    square.flags.writeable = False
    return square


@functools.lru_cache(maxsize=32)
def _quantization(per_unit: int) -> np.ndarray:
    """Rows 1 and Q = cos(2 pi r/M) per residue r, read-only."""
    basis = np.cos(np.array([[0.0], [2.0 * math.pi / per_unit]]) * np.arange(per_unit))
    basis.flags.writeable = False
    return basis


def _band_weights(per_unit: int, delta_n: list[float], reach: int) -> np.ndarray:
    """Band weights from the points of the lattice j/M to the levels near them.

    The point q + r/M lies x = (r - M s)/M from the level q + s, so x^2 is
    one rounding of an exact integer ratio.  With e(x) = exp(-x^2 / (4 dn^2)),
    returns the weights e(x)^2 of p and e(x) e(x - 1) of Re b and Im b in an
    array of shape (2 R + 2, K, 3, M): row s + R for s = -R..R + 1, with
    R = ``reach``; column k at the width ``delta_n[k]``; then the moment and
    the residue r.  Every weight beyond a width's own band, s outside
    -int(_reach(dn))..int(_reach(dn)) + 1, lies over 38.7 widths out and is
    0.0, so a narrower band in a wider block adds exact zeros.
    """
    scale = np.array([-1.0 / (4.0 * dn**2) for dn in delta_n])[:, None]
    e = np.exp(scale * _offset_squares(per_unit, reach))[..., None, :]
    return e[:-1] * np.concatenate((e[:-1], e[1:], e[1:]), axis=2)


def grid_profiles(
    state: PureState, config: MeasurementConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density and coherence profiles on the config's grid, trimmed to the state.

    Only the run of grid points that covers the state's support
    (:meth:`PureState.support`) padded by ``_PAD_WIDTHS`` = 8 widths is kept:
    from the last point at or below its lower end to the first point at or
    above its upper end.  Beyond either end of that run lies less than 1e-15
    of the outcome probability: Gaussian tails past 8 widths, and the 1e-16
    the support leaves out.

    The grid point j/M = q + r/M has integer anchor q = j // M and residue
    r = j mod M, and its offset from the level n = q + s is
    x = (r - M s)/M.  Over the band |x| <= ``_reach(dn)`` the weights
    e(x)^2 and e(x) e(x - 1), e(x) = exp(-x^2 / (4 dn^2)), form two W x M
    tables (:func:`_band_weights`), and the band sums of :func:`_profiles`
    are their matrix products with the (anchors x W) windows whose row q
    holds the level moments p_n and b_n of the levels q + s.  Row q, column r
    of a product is the point q + r/M.  Anchors are taken in chunks of about
    ``_CHUNK_CELLS`` window cells.  This evaluator serves profiles only:
    quadratures over the same run (:func:`_quadratures`) take the same tables
    against column sums of the windows, summed by residue, and never build
    the profiles.

    Raises
    ------
    GridTooNarrow
        If the probability mass captured by the returned grid falls short of
        ``1 - QUAD_TOL``.
    """
    per_unit, delta_n = config.per_unit, config.delta_n
    start, stop = _run(config, state.support())
    reach = int(_reach(delta_n))
    weights = _band_weights(per_unit, [delta_n], reach)[:, 0]
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
    windows = _windows(levels, width)

    anchors = q_last - q_first + 1
    density = np.empty((anchors, per_unit))
    coherence = np.empty((2, anchors, per_unit))
    chunk = max(1, _CHUNK_CELLS // width)
    for rows in range(0, anchors, chunk):
        block = np.ascontiguousarray(windows[:, rows : rows + chunk])
        np.matmul(block[0], square, out=density[rows : rows + chunk])
        np.matmul(block[1:, :, :-1], pair, out=coherence[:, rows : rows + chunk])

    run = slice(start - q_first * per_unit, stop - q_first * per_unit + 1)
    norm = (2.0 * math.pi * delta_n**2) ** -0.5
    density = norm * density.ravel()[run]
    coherence = norm * (coherence[0].ravel()[run] + 1j * coherence[1].ravel()[run])
    mass = float(trapezoid(density, config.grid_step))
    if mass < 1.0 - QUAD_TOL:
        raise _too_narrow(mass, delta_n)
    return np.arange(start, stop + 1) / per_unit, density, coherence


def _residue_totals(state: PureState, configs, end_trim: float):
    """Sums of the profiles of :func:`grid_profiles` over each config's run, by residue.

    Yields, for each block of configs that share M: their positions in
    ``configs``, M, and T[k, m, r]: 1/M times the sum, over the points
    j = q M + r of config k's run, of the density P (m = 0) and of the real
    and imaginary parts of <a>_f P (m = 1, 2), with the run's first and last
    point weighted ``1 - end_trim``.

    The offset of a point from a level depends only on r and the level's
    distance s from the anchor q (:func:`_band_weights`), so summed over the
    run's anchors q_first..q_last, residue r takes sum_s E[s, r] C[s] with the
    column sums C[s] = sum_q p_{q + s}.  Each C[s] is the pairwise total of the
    moment less its tails below level q_first + s and above level q_last + s,
    each tail a running sum from its own end of the basis: a difference of
    two running sums would keep their rounding.  The first and last anchor's
    residues outside the run, and ``end_trim`` of the run's end points, are
    two rows of the levels q_first + s and q_last + s, subtracted with their
    weights.  A block is taken in chunks of about ``_CHUNK_CELLS`` products;
    narrower bands are padded with zero rows and the sums over s run in
    order, so a config's totals are the same bits in any block.
    """
    p, b = state.level_moments()
    size = p.size
    support = state.support()
    blocks: dict[int, list[int]] = {}
    for k, config in enumerate(configs):
        blocks.setdefault(config.per_unit, []).append(k)
    runs, reach, margin = {}, {}, 1
    for per_unit, members in blocks.items():
        reach[per_unit] = [int(_reach(configs[k].delta_n)) for k in members]
        runs[per_unit] = [_run(configs[k], support) for k in members]
        most = max(reach[per_unit])
        starts, stops = zip(*runs[per_unit])
        margin = max(
            margin, most + 1 - min(starts) // per_unit, max(stops) // per_unit + most + 3 - size
        )
    # Row n + margin of each block holds level n's moments (p, Re b, Im b):
    # the moments, their totals less the running sums up from the bottom to
    # level n, and their running sums down from the top to level n.  ``margin``
    # zero levels on either side keep every band row's level in range.
    width = size + 2 * margin
    levels = np.zeros((3, width, 3))
    levels[0, margin:-margin, 0] = p
    levels[0, margin:-margin, 1:] = b.view(np.float64).reshape(size, 2)
    np.add.accumulate(levels[0], axis=0, out=levels[1])
    np.add.accumulate(levels[0, ::-1], axis=0, out=levels[2, ::-1])
    b_total = np.add.reduce(b[:-1])  # summed as expectation_a sums it
    total = np.array([np.add.reduce(p), b_total.real, b_total.imag])
    np.subtract(total, levels[1], out=levels[1])
    flat = levels.reshape(-1, 3)

    for per_unit, members in blocks.items():
        # A config's products: band rows x 3 kinds x 3 moments x M residues.
        count = max(1, _CHUNK_CELLS // ((2 * max(reach[per_unit]) + 2) * 9 * per_unit))
        for lo in range(0, len(members), count):
            chunk = slice(lo, lo + count)
            delta_n = [configs[k].delta_n for k in members[chunk]]
            # (rows s, configs, moments, residues)
            table = _band_weights(per_unit, delta_n, max(reach[per_unit][chunk]))
            # Per config, the rows of ``flat`` at s = 0 of: the total less the
            # running sum below level q_first + s, the levels q_first + s and
            # q_last + s, and the running sum above q_last + s.  Per config and
            # residue, the weights of the column sums and of the first and last
            # anchor's rows, times the step and the window's normalization.
            bounds, weights = [], []
            for dn, (start, stop) in zip(delta_n, runs[per_unit][chunk]):
                q_first, r_first = divmod(start, per_unit)
                q_last, r_last = divmod(stop, per_unit)
                bounds.append((width + q_first - 1, q_first, q_last, 2 * width + q_last + 1))
                step = (2.0 * math.pi * dn**2) ** -0.5 / per_unit
                trim = -end_trim * step
                weights.append((
                    [step] * per_unit,
                    [-step] * r_first + [trim] + [0.0] * (per_unit - r_first - 1),
                    [0.0] * r_last + [trim] + [-step] * (per_unit - r_last - 1),
                ))
            shift = margin - (table.shape[0] - 2) // 2
            rows = np.arange(shift, shift + table.shape[0])[:, None, None] + np.array(bounds)
            gathered = flat[rows]
            columns = gathered[:, :, :3]
            np.subtract(columns[:, :, 0], gathered[:, :, 3], out=columns[:, :, 0])
            # (configs, kinds, moments, residues): column sums, first and last anchor.
            sums = np.add.reduce(table[:, :, None] * columns[..., None], axis=0)
            sums *= np.array(weights)[:, :, None]
            yield members[chunk], per_unit, np.add.reduce(sums, axis=1)


def _quadratures(state: PureState, configs) -> tuple[np.ndarray, ...]:
    """Trapezoid sums of P, Q P, <a>_f P and Q <a>_f P over the run of :func:`grid_profiles`.

    Every outcome average of the package is one of these sums.  ``configs``
    is a sequence of configs; returns the mass, the sum of Q P, and the
    complex sums of <a>_f P and Q <a>_f P, one array entry per config.  The
    quantization Q = cos(2 pi r/M) of the point j/M depends only on its
    residue r = j mod M, so each sum is a weighted sum of the residue totals
    of :func:`_residue_totals`: one pass for every config, batched by M.

    Raises
    ------
    GridTooNarrow
        If a config's mass falls short of ``1 - QUAD_TOL``; the message names
        the first such config's ``delta_n``.
    """
    sums = np.empty((len(configs), 2, 3))
    for members, per_unit, totals in _residue_totals(state, configs, 0.5):
        sums[members] = np.add.reduce(totals[:, None] * _quantization(per_unit)[:, None], axis=-1)
    mass = sums[:, 0, 0]
    if np.fmin.reduce(mass) < 1.0 - QUAD_TOL:
        k = int(np.argmax(mass < 1.0 - QUAD_TOL))
        raise _too_narrow(float(mass[k]), configs[k].delta_n)
    fields = sums[:, :, 1:].view(np.complex128)[:, :, 0]
    return mass, sums[:, 1, 0], fields[:, 0], fields[:, 1]


def average_coherence(state: PureState, config: MeasurementConfig) -> complex:
    """Outcome-averaged coherence: quadrature of <a>_f(n_m) P(n_m) over the grid.

    For any state this equals exp(-1/(8 delta_n^2)) times the initial field
    expectation, up to quadrature error.

    Raises
    ------
    GridTooNarrow
        As :func:`grid_profiles`.
    """
    return complex(_quadratures(state, [config])[2][0])


def decoherence_factor(delta_n: float) -> float:
    """Average coherence reduction exp(-1/(8 delta_n^2)) caused by one readout."""
    delta_n = _check_delta_n(delta_n, allow_inf=True)
    if math.isinf(delta_n):
        return 1.0
    return math.exp(-1.0 / (8.0 * delta_n**2))


def equivalent_phase_noise(delta_n: float) -> float:
    """Variance of the Gaussian phase noise equivalent to one readout.

    Returns 1/(4 delta_n^2): the minimum phase disturbance compatible with
    number resolution ``delta_n``.  An infinite ``delta_n`` (no measurement)
    gives zero.
    """
    delta_n = _check_delta_n(delta_n, allow_inf=True)
    if math.isinf(delta_n):
        return 0.0
    return 1.0 / (4.0 * delta_n**2)


def infer_excess_noise(observed_ratio: float, delta_n: float) -> float:
    """Excess phase-noise variance beyond the measurement minimum.

    ``observed_ratio`` is the measured coherence reduction
    |<a>_after(avg)| / |<a>_before| in (0, 1].  The total phase-noise
    variance is -2 ln(ratio); subtracting the minimum 1/(4 delta_n^2) gives
    the excess.  Values negative within round-off are clamped to zero with a
    warning; more negative values are inconsistent inputs.
    """
    observed_ratio = float(observed_ratio)
    if not (0.0 < observed_ratio <= 1.0):
        raise InvalidParam("observed_ratio must lie in (0, 1]")
    delta_n = _check_delta_n(delta_n, allow_inf=True)
    total = -2.0 * math.log(observed_ratio)
    excess = total - equivalent_phase_noise(delta_n)
    if excess < 0.0:
        if excess < -_EXCESS_NOISE_TOL:
            raise InvalidParam(
                f"observed_ratio {observed_ratio} exceeds the ideal bound for "
                f"delta_n={delta_n}: excess {excess:.3e}"
            )
        warnings.warn(
            f"excess noise {excess:.3e} clamped to 0 within tolerance",
            ToleranceWarning,
            stacklevel=2,
        )
        excess = 0.0
    return excess
