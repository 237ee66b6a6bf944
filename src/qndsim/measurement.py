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
Profiles (:func:`_band_profiles`) sum over a narrower certified band of
``_PROFILE_WIDTHS`` R = 13 widths first: the smallest whole number of
widths whose floor 2^60 exp(-R^2 / 2), 2.3e-19, lies below float64's
epsilon 2^-52 of the unit mass.  The cells beyond it hold at most
exp(-R^2 / 2) of the unit mass, so a row whose sums clear 2^60 times that
is within 2^-60 of its full-band value; every other row (far tails, NaN
outcomes, cancelling coherences) is summed again over the full band, unless
the narrow band is already the whole basis and the two are the same.  The
cells it leaves out are two thirds of the band and all of the float64
tail's slow work: products that come out subnormal (past 37.6 widths) and,
in bands clipped at the basis edge, exponentials of arguments below -708,
both of which take the CPU's slow path.  A band this narrow is a few
levels (9 at dn 0.3), so profile chunks are laid out offset-major, one row
per band offset and one column per outcome: every numpy loop runs along a
chunk's outcomes, and each outcome still sums its band in level order.
Posteriors and quadratures keep the 38.7-width band on every row they sum.
Conditional states are the same band sum over the same bands: windows at
outcomes x_1..x_j multiply into one window of width delta_n / sqrt(j) at
their mean, so one pass gives every step of a trajectory its posterior, and
:func:`measure` is the one-outcome case.  That pass's constants and chunks
depend only on the resolution, passes, runs and basis size, and are planned
once per such shape (:func:`_posterior_plan`).  A sampled trajectory that
reads no moments sums the band of its last pass only, where the level its
outcomes were drawn around vouches for every earlier pass's density by its
own term (:func:`_certified`).  Profiles take one width per outcome in the
same way (:func:`_band_profiles`), so a sweep's probes at many resolutions
are one pass too.  Quadratures over outcomes use the trapezoid rule on
lattices j/M whose step 1/M bounds its aliasing of the unit-period fringes
by 1e-16 (:meth:`MeasurementConfig.adequate`), over every lattice point up
to the config's grid's last point: the same points for every state.  On a
lattice the offset from a level to an outcome depends only on the outcome's
residue r = j mod M and the level's distance from the integer anchor
j // M, and so does every quadrature weight: a quadrature is a sum over M
residues of M x W exponentials against the window's column sums over the
anchors (:func:`_residue_totals`), and its cost does not grow with the
basis.  A resolution sweep is one pass over arrays of configs
(:func:`_quadratures`), never a Python loop per config, and a config's sums
are the same bits alone or in any batch.  Per-width constants are numpy
array expressions, and a float width takes the same expression as an array
of widths, so a sweep's row and its one-resolution call share their bits.

Everything is a pure function of its inputs; sweeps over outcome grids are
vectorized internally and safe to parallelize externally.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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

# The certified band of profiles, R widths, and the floor 2^60 exp(-R^2 / 2)
# that a row's sums must clear to be kept (see _band_profiles): R = 13 is the
# smallest whole R whose floor lies below float64's epsilon 2^-52.
_PROFILE_WIDTHS = 13.0
_CERTIFIED = 2.0**60 * math.exp(-0.5 * _PROFILE_WIDTHS**2)

# Far out in a window's tail the products e_n e_{n+1} of a posterior's <a>
# underflow while their ratio to the total still has digits.  Passes whose
# largest weight p_n e_n^2 falls below this are lifted first; above it only
# terms below 1e-157 of the total can underflow.
_LIFT_BELOW = 1e-150

# The narrowest window whose passes _certified vouches for: past it the
# rounding of a band's offsets could move a level's term by a factor of 2.
_CERTIFIED_WIDTH = 2.0**-40

# Kernel cells (outcome, level) evaluated at once.  Bounds each chunk's
# temporaries to a few MB whatever the grid size, band width or basis size.
_CHUNK_CELLS = 65536

# Band cells (band row, residue, config) in a chunk of the residue pass, each
# with 2 kinds x 3 moments of products: about 0.8 MB a chunk, which the
# allocator keeps for the next chunk rather than faulting it in afresh.
_RESIDUE_CELLS = _CHUNK_CELLS // 4

# The start of every band that is the whole basis (see _band_offsets).
_WHOLE_START = np.zeros(1, dtype=np.intp)
_WHOLE_START.flags.writeable = False


def _check_delta_n(delta_n: float, allow_inf: bool = False) -> float:
    delta_n = float(delta_n)
    if not delta_n > 0.0:  # also NaN
        raise InvalidParam("delta_n must be positive")
    if delta_n == math.inf and not allow_inf:
        raise InvalidParam("delta_n must be finite")
    return delta_n


def _grid(n_m) -> np.ndarray:
    """Outcome or outcomes ``n_m`` as a 1-D float grid."""
    return np.atleast_1d(np.asarray(n_m, dtype=float))


def _scalar_or_array(n_m, values: np.ndarray):
    """``values`` on the grid of ``n_m``: a Python scalar when ``n_m`` is one."""
    return values[0].item() if np.ndim(n_m) == 0 else values


def _reach(width: float, factor: float = _BAND_WIDTHS) -> float:
    """Distance from an outcome to the farthest level its window of ``width`` reaches.

    The band runs ``factor`` widths out: by default ``_BAND_WIDTHS`` = 38.7,
    past where g underflows (38.61 widths), and ``_PROFILE_WIDTHS`` = 13 for
    the certified bands of :func:`_band_profiles`.  The coherence's Gaussians
    sit half a level off the levels, hence the 1/2.
    """
    return factor * width + 0.5


def _band_schedule(widths: np.ndarray, levels: int, factor: float = _BAND_WIDTHS):
    """The chunks (rows, reach, width) of the band walks for windows of ``widths``, one per outcome.

    The window of width w at outcome m reaches the levels with
    |n - m| <= factor * w + 1/2 (:func:`_reach`), clipped to the basis: a band
    wider than the basis covers every level.  Every outcome in a chunk takes
    the width of the chunk's first band, so ``widths`` must not grow; a chunk
    holds about ``_CHUNK_CELLS`` cells and ends before the first outcome whose
    own band would be less than half as wide, so narrowing windows do not
    sweep cells they cannot reach.
    """
    start = 0
    while start < widths.size:
        reach = _reach(float(widths[start]), factor)
        width = int(min(levels, 2.0 * reach + 1.0))
        stop = min(widths.size, start + max(1, _CHUNK_CELLS // width))
        # 2 (factor w + 1/2) + 1 < width / 2 below this w; the first outcome
        # is never below it, and constant widths skip the search.
        narrow = (0.25 * width - 1.0) / factor
        if widths[stop - 1] < narrow:
            stop = start + int(np.argmax(widths[start:stop] < narrow))
        yield slice(start, stop), reach, width
        start = stop


def _band_offsets(block: np.ndarray, reach: float, levels: int, width: int):
    """First levels of the bands of ``width`` levels at the outcomes ``block``, and m - first.

    The outcome m lies x = (m - first) - k from the k-th level of its band.
    A band as wide as the basis starts at level 0, one entry that rows
    broadcast, and m - first is the outcome itself.
    """
    if width == levels:
        return _WHOLE_START, block
    # fmax/fmin give a NaN outcome a valid band start; its values stay NaN.
    edge = np.ceil(block - reach)
    np.fmin(np.fmax(edge, 0.0, out=edge), levels - width, out=edge)
    return edge.astype(np.intp), block - edge


def _window_constants(delta_n):
    """Exponent scale -1/(4 dn^2) and normalization N = (2 pi dn^2)**-0.5 of a window of width dn.

    ``delta_n`` is a float or an array of widths, and both take this one
    array expression, so each entry of an array is bit-equal to its float's
    value.  The scale is -0.25 / dn^2: 4 dn^2 is exact, so that is the
    rounding of -1/(4 dn^2).
    """
    var = np.power(delta_n, 2.0)
    return np.divide(-0.25, var), np.power(2.0 * math.pi * var, -0.5)


def _profiles(
    state: PureState, n_m: np.ndarray, delta_n: float, coherence: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Density P(n_m) and coherence-weighted density <a>_f(n_m) P(n_m) at one resolution.

    The one-width case of :func:`_band_profiles`.  The benchmark's tracer
    (``bench/tracing.py``) counts kernel cells from this entry point's float
    ``delta_n``, so batches of widths call :func:`_band_profiles` directly.
    """
    return _band_profiles(state, n_m, delta_n, coherence)


def _band_profiles(
    state: PureState, n_m: np.ndarray, delta_n, coherence: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Density P(n_m) and coherence-weighted density <a>_f(n_m) P(n_m) on a grid.

    By the window factorization these are the band sums

        P(n_m)            = sum_n p_n g(n_m - n)
        <a>_f(n_m) P(n_m) = exp(-1/(8 dn^2)) sum_n b_n g(n_m - n - 1/2)

    with the level moments (p_n, b_n) of :meth:`PureState.level_moments`.

    Both Gaussians come from one exponential per cell, e(x) = exp(-x^2/(4 dn^2)):
    g(x) = N e(x)^2 and exp(-1/(8 dn^2)) g(x - 1/2) = N e(x) e(x - 1), with
    N = (2 pi dn^2)**-0.5 and x = n_m - n (:func:`_band_sums`).  Each outcome
    is first summed over the certified band of ``_PROFILE_WIDTHS`` = 13
    widths.  Every cell it drops lies more than 13 widths out, so its e(x)^2
    and e(x) e(x - 1) are below t = exp(-13^2 / 2); the p_n sum to one, so
    the dropped cells change sum p e^2 by at most t and sum b e e' by at
    most t sum |b_n|.  A row is kept when sum p e^2 >= 2^60 t and
    |sum b e e'| >= 2^60 t sum |b_n|: both sums are then within 2^-60
    relative of their full-band values, far below float64's rounding
    (2^-53), and on tail-to-tail grids they come out the same bits.  R = 13
    is the smallest whole R with 2^60 t below 2^-52, the spacing of floats
    at the unit mass: only sums below 2.3e-19 of it (of sum |b_n|, for
    <a>) are summed again.  Those rows (far-tail and NaN outcomes,
    cancelling coherences) take the full ``_BAND_WIDTHS`` = 38.7-width
    band, so they have the full walk's bits, and a vanished density still
    reads as one.  Where the narrowest window's 13-width band already covers
    the whole basis, both bands are the same cells, and no row is certified
    or summed again.

    The grid need not be sorted.  ``delta_n`` is a float, one width for every
    outcome, or an array of one width per outcome in any order: the outcomes
    are then visited widest first, as :func:`_band_schedule` needs, and the results
    put back in the grid's order.  A float width and an array of widths take
    the same expression for 1/(4 dn^2) and N (:func:`_window_constants`), so
    a constant array gives the float call's values bit for bit.

    With ``coherence`` False only the density is summed and certified, and
    None stands for the coherence: every row kept with the coherence keeps
    its bits, and a row that only a cancelling coherence sent to the full
    band keeps its 13-width density, within 2^-60 of the full band's.
    """
    p, b = state.level_moments()
    if not coherence:
        b = None
    if np.ndim(delta_n) == 0:
        order, centers, widths = None, n_m, np.full(n_m.size, delta_n)
        scale, norm = _window_constants(delta_n)
    else:
        order = np.argsort(-delta_n, kind="stable")
        centers, widths = n_m[order], delta_n[order]
        scale, norm = _window_constants(widths)
    density, field = _band_sums(p, b, centers, widths, scale, _PROFILE_WIDTHS)
    # When even the narrowest band is the whole basis, a refill would sum the same cells.
    if widths.size and 2.0 * _reach(float(widths[-1]), _PROFILE_WIDTHS) + 1.0 < p.size:
        kept = density >= _CERTIFIED  # also refuses NaN
        if b is not None:
            size = np.abs(field)
            # sum |b_n| <= sqrt(n_max) sum p_n: rows above that need no pass over the basis.
            if (kept & (size < _CERTIFIED * math.sqrt(p.size))).any():
                kept &= size >= _CERTIFIED * np.add.reduce(np.abs(b))
        if not kept.all():
            # The refilled rows keep their order, so their widths still do not grow.
            redo = np.flatnonzero(~kept)
            scales = scale if order is None else scale[redo]
            full = _band_sums(p, b, centers[redo], widths[redo], scales, _BAND_WIDTHS)
            density[redo] = full[0]
            if b is not None:
                field[redo] = full[1]
    density = norm * density
    if b is not None:
        field = norm * field
    if order is None:
        return density, field
    back = np.argsort(order)
    return density[back], None if b is None else field[back]


def _band_sums(p, b, centers, widths, scale, factor: float):
    """Sums sum_n p_n e(x)^2 and sum_n b_n e(x) e(x - 1) over the bands the windows reach.

    e(x) = exp(scale x^2), x = m - n, with the outcomes ``centers`` and their
    windows' ``widths`` (which must not grow), each band reaching ``factor``
    widths out (:func:`_reach`), in the chunks of :func:`_band_schedule`.
    ``scale`` is one float for every outcome or an array of one per outcome.
    A chunk's cells are laid out (band offset k, outcome), with the band's
    levels gathered as ``p[first + k]``: the bands are a few levels wide and
    a chunk holds thousands of outcomes, so each numpy loop runs along the
    outcomes, and each outcome's sums still add its cells in order of k.
    With ``b`` None no coherence is summed, and None is returned for it.
    """
    density = np.empty(centers.size)
    coherence = None if b is None else np.empty(centers.size, dtype=np.complex128)
    offsets = np.empty(0)
    for rows, reach, width in _band_schedule(widths, p.size, factor):
        if offsets.size != width:
            offsets = np.arange(width, dtype=float)[:, None]
            levels = np.arange(width)[:, None]
        first, start = _band_offsets(centers[rows], reach, p.size, width)
        x = start - offsets
        # A float width keeps a scalar factor: a row broadcast is slower.
        e = np.exp((scale if np.ndim(scale) == 0 else scale[rows]) * x * x)
        n = first + levels
        density[rows] = np.einsum("ki,ki,ki->i", p[n], e, e)
        if b is not None:
            pair = e[:-1] * e[1:]
            coherence[rows] = np.einsum("ki,ki->i", b[n[:-1]], pair)
    return density, coherence


def _unit_rows(amps: np.ndarray) -> np.ndarray:
    """Scale each row of a C-contiguous complex block to unit norm, in place."""
    parts = amps.view(np.float64)
    amps /= np.sqrt(np.add.reduce(parts * parts, axis=1, keepdims=True))
    return amps


@functools.lru_cache(maxsize=32)
def _posterior_plan(delta_n: float, count: int, runs: int, levels: int) -> tuple:
    """The part of a posterior pass that its outcomes do not decide, read-only.

    The passes j = 1..count and exponent scales -j/(4 dn^2), as columns; the
    normalizations (2 pi w_j^2)**-0.5, w_j = dn / sqrt(j); the chunks (rows,
    reach, width) of the walk over the count x runs rows; the offsets 0,
    1, ... across the widest band, as floats and as level indices; and, for
    a walk whose earlier passes :func:`_certified` may vouch for, the chunks
    cut down to the rows of the last pass, with the first row that shares a
    chunk with them (None and 0 for a one-chunk walk, which has nothing to
    skip, or a last window narrower than ``_CERTIFIED_WIDTH``); and the
    lift screen, 2 ``_LIFT_BELOW`` (1 + 2^-50) times the largest
    normalization (see :func:`_sequential_posteriors`).  Nothing grows with
    ``runs``: the rows of a pass share its constants.
    """
    passes = np.arange(1.0, count + 1.0)
    root = np.sqrt(passes)
    widths = delta_n / root
    # Row i of the walk is pass i // runs + 1 of run i % runs.
    chunks = tuple(_band_schedule(widths if runs == 1 else np.repeat(widths, runs), levels))
    # (2 pi w_j^2)**-0.5 = sqrt(j) (2 pi dn^2)**-0.5, and the exponent is (-inv x) x:
    # pass 1 repeats _profiles's arithmetic, so measure's density is bit-equal to it.
    norm = _window_constants(delta_n)[1] * root
    exponent = passes / (-4.0 * np.power(delta_n, 2.0))
    band_levels = np.arange(chunks[0][2])
    arrays = (passes, exponent, norm, band_levels.astype(float), band_levels)
    for values in arrays:
        values.flags.writeable = False
    last_chunks, shared = None, 0
    if count > 1 and len(chunks) > 1 and widths[-1] >= _CERTIFIED_WIDTH:
        last = (count - 1) * runs  # the first row of the last pass
        last_chunks = tuple(
            (slice(max(rows.start, last), rows.stop), reach, width)
            for rows, reach, width in chunks
            if rows.stop > last
        )
        shared = next(rows.start for rows, _, _ in chunks if rows.stop > last)
    screen = 2.0 * _LIFT_BELOW * (1.0 + 2.0**-50) * float(norm[-1])
    return (
        passes[:, None], exponent[:, None], norm, chunks, *arrays[3:], last_chunks, shared, screen
    )


def _certified(p, centers, levels, exponents, norms, shared: int) -> bool:
    """Whether each record's hidden level alone clears the floor on every pass before its last.

    ``centers`` holds the windows' means m_j, shape (count, runs), and
    ``levels`` the level L each run's outcomes were drawn around, one integer
    or shape (runs,).  A pass's density is norm_j times a float sum of the
    nonnegative terms p_n e_j(n)^2 over its band, and rounding is monotone,
    so that sum is at least each of its terms.  Every row before the last
    pass is certified when L's term, from x = m_j - L, has
    norm_j p_L e_j(L)^2 >= 2 ``DENSITY_FLOOR``; the walk's density there
    then clears the floor, because:

    - L lies in the row's band.  e_j(L)^2 = exp(-x^2 / (2 w_j^2)) is 0.0 in
      float64 past 38.61 widths, so a term that clears the floor has
      |x| < 38.7 w_j = reach_j - 1/2.  The chunk's reach r is at least
      reach_j (widths never grow), and its band of int(2 r + 1) levels from
      ceil(m_j - r) holds every integer within r of m_j, with a margin of 1/2
      over the rounding of m_j - r; clipping the band to the basis keeps
      every level of 0..n_max that it held.
    - The walk's term at L is within a factor e^0.02 of this one.  The walk
      takes x as (m_j - first) - (L - first), whose rounding differs from
      that of m_j - L by at most u (271 w_j + 4), u = 2^-53: the band's
      offsets reach at most 2 r + |x| < 194 w_j + 4 (r < 2 reach_j + 1
      within a chunk).  That moves x^2 / (2 w_j^2) by at most
      u (10 500 + 155 / w_j), below 0.02 for w_j >= ``_CERTIFIED_WIDTH`` =
      2^-40.  The products, exp and the normalization add a few u, also in
      subnormal terms, which the floor keeps above 4e-312 at such widths.

    Rows from ``shared`` on share a chunk with the last pass and decide with
    it whether the chunk is lifted; their terms must also clear
    2 ``_LIFT_BELOW``, so that their largest weights clear ``_LIFT_BELOW``
    and the last pass's rows are lifted as in the full walk.  A NaN outcome
    certifies nothing.
    """
    x = centers[:-1] - levels
    e = exponents[:-1] * x
    e *= x
    np.exp(e, out=e)
    term = p[levels] * e
    term *= e
    density = norms[:-1, None] * term
    if not np.minimum.reduce(density, axis=None) >= 2.0 * DENSITY_FLOOR:  # also refuses NaN
        return False
    return bool((term.ravel()[shared:] >= 2.0 * _LIFT_BELOW).all())


def _sequential_posteriors(
    state: PureState, outcomes: np.ndarray, delta_n: float, moments: bool = True, levels=None
) -> tuple:
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
    same resolution, shape (count, runs): column r is run r.  The bands are
    walked row by row, every run's pass 1, then every run's pass 2, and so
    on, so the window widths never grow; that walk and the passes' constants
    are planned once per record shape (:func:`_posterior_plan`).

    Returns each pass's density, the mean photon number, its variance and
    <a> after it, shaped like ``outcomes``, and the unit-norm conditional
    amplitudes after the last pass, shaped (levels,) or (runs, levels).
    With ``moments`` False the walk checks every density and builds the
    final amplitudes, bit for bit as the full walk does, but takes no
    moments: the mean, variance and <a> are None, and a chunk that holds no
    row of the last pass stops after its floor check.  ``levels``, only
    with ``moments`` False, are the hidden levels the records were drawn
    around: one integer for one record, or shape (runs,).  Where the walk
    has more than one chunk and each level's own term clears the floor on
    every pass before the last (:func:`_certified`), those passes are not
    band-summed: the walk covers only the last pass's rows, on their chunks'
    bands, and builds the same final amplitudes.  Any other record takes the
    walk above, so the same ``ZeroProbability`` is raised.  With ``levels``
    the densities are None.

    A walk of one chunk, such as the two passes of a record at dn 1 on the
    38-level alpha-3 basis, checks every pass's density against the floor,
    decides the lift over all its rows, and builds the final amplitudes from
    the last pass's e.  Without moments the lift reads only each row's
    largest weight, and the walk forms none where every density of the
    chunk clears width times the plan's screen 2 ``_LIFT_BELOW`` (1 + 2^-50)
    max_j norm_j: each density rounds norm_j T_j once, so each total T_j is
    then at least 2 width ``_LIFT_BELOW``, and T_j, a float sum of the
    row's width nonnegative terms, each within a few ulps (or a subnormal
    step) of a weight the lift reads, stays below that unless one of those
    weights clears ``_LIFT_BELOW``.  Every row's largest weight then clears
    it, so the lift, which fires when one falls below it, is not taken in
    this walk or the full one.  One record whose last band is the whole
    basis is normalized as a vector, the same pairwise sum as a row of the
    (runs, levels) block.

    Raises
    ------
    ZeroProbability
        If a pass's density falls below ``DENSITY_FLOOR``: an outcome lies far
        from every level with weight, or the pass's window (width dn / sqrt(j))
        falls between levels.
    """
    p, b = state.level_moments()
    count = outcomes.shape[0]
    runs = outcomes.size // count
    plan = _posterior_plan(delta_n, count, runs, p.size)
    passes, exponents, norms, chunks, band_offsets, band_levels, last_chunks, shared, screen = plan
    centers = np.add.accumulate(outcomes).reshape(count, runs)
    centers /= passes
    if (
        levels is not None
        and last_chunks is not None
        and _certified(p, centers, levels, exponents, norms, shared)
    ):
        chunks = last_chunks
    centers = centers.ravel()
    # With levels the densities are only checked, never returned.
    density = None if levels is not None else np.empty(centers.size)
    mean = var = coherence = None
    if moments:
        mean, var = np.empty(centers.size), np.empty(centers.size)
        coherence = np.empty(centers.size, dtype=np.complex128)
    # One record whose last band is the whole basis has one final vector, built as it is.
    vector = runs == 1 and chunks[-1][2] == p.size
    if not vector:
        final = np.zeros((runs, p.size), dtype=np.complex128)
    last = centers.size - runs  # the first row of the last pass
    for rows, reach, width in chunks:
        offsets = band_offsets[:width]
        first, start = _band_offsets(centers[rows], reach, p.size, width)
        x = start[:, None] - offsets
        # A band that is the whole basis is one row of levels, shared by the chunk.
        whole = width == p.size
        if whole:
            p_band = p[None]
        else:
            n = first[:, None] + band_levels[:width]
            p_band = p[n]
        at = rows if runs == 1 else np.arange(rows.start, rows.stop) // runs  # each row's pass
        e = exponents[at] * x
        e *= x
        np.exp(e, out=e)
        total = np.einsum("ij,ij,ij->i", p_band, e, e)
        out = None if density is None else density[rows]
        band_density = np.multiply(norms[at], total, out=out)
        low = np.minimum.reduce(band_density)
        if not low >= DENSITY_FLOOR:  # also catches NaN
            j = rows.start + int(np.argmin(band_density >= DENSITY_FLOOR))
            width_j = delta_n / math.sqrt(j // runs + 1)
            raise ZeroProbability(_underflow(state, centers[j : j + 1], width_j))
        if not moments and rows.stop <= last:
            continue  # nothing is read from this chunk but its densities
        # Without moments only the lift reads the weights, and densities this
        # large prove that it does not fire (see the docstring).
        if moments or low < width * screen:
            weight = p_band * e
            weight *= e
            peak = np.maximum.reduce(weight, axis=1, keepdims=True)
            if np.minimum.reduce(peak, axis=None) < _LIFT_BELOW:
                # Lift each pass's e by the power of two >= 1 that brings its largest
                # weight near one: every term and the total scale exactly.
                lift = np.ldexp(1.0, -(np.frexp(peak)[1] // 2))
                e *= lift
                total = total * lift[:, 0] ** 2
        if moments:
            weight /= peak
            scale = np.add.reduce(weight, axis=1)
            shift = weight @ offsets / scale
            np.add(first, shift, out=mean[rows])
            centered = offsets - shift[:, None]
            np.divide(np.einsum("ij,ij->i", weight * centered, centered), scale, out=var[rows])
            b_band = b[None, :-1] if whole else b[n[:, :-1]]
            pair = e[:, :-1] * e[:, 1:]
            np.divide(np.einsum("ij,ij->i", b_band, pair), total, out=coherence[rows])
        if vector and rows.stop > last:
            # The same pairwise sum of squared parts as a row of _unit_rows.
            final = state.amplitudes * e[-1]
            parts = final.view(np.float64)
            final /= math.sqrt(np.add.reduce(parts * parts))
        elif rows.stop > last:
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
        return density, mean, var, coherence, final if vector else final[0]
    values = (density, mean, var, coherence)
    final = final[None] if vector else final
    return (*(v if v is None else v.reshape(outcomes.shape) for v in values), final)


def outcome_density(state: PureState, n_m, delta_n: float):
    """Probability density of reading ``n_m``; accepts a scalar or an array.

    Equals (2 pi delta_n^2)**-0.5 sum_n |c_n|^2 exp(-(n - n_m)^2 / (2 delta_n^2)),
    the squared norm of the windowed amplitudes.  No coherence is summed: the
    band sums are certified on the density alone (:func:`_band_profiles`).
    """
    delta_n = _check_delta_n(delta_n)
    density, _ = _profiles(state, _grid(n_m), delta_n, coherence=False)
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
        If the outcome density underflows: ``n_m`` lies far from every
        level with weight, or the window is too narrow to reach a level.
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
    """Why the densities at the outcomes ``vanished`` underflowed, or are NaN.

    A NaN outcome has a NaN density, which fails the floor test too, and the
    message says so.  The windows fell between levels when each outcome has
    a nearest level k (at a half-integer, either neighbour) with
    p_k (2 pi dn^2)**-0.5 >= ``DENSITY_FLOOR``: the density at the outcome k
    wherever a window can fall between levels (below about delta_n =
    0.0135, where g(1) is 0.0).  Any other outcome gives ``beyond``.
    """
    if np.isnan(vanished).any():
        return "outcome n_m = nan is not a number, so its density is NaN"
    p, _ = state.level_moments()
    nearest = np.array([np.ceil(vanished - 0.5), np.floor(vanished + 0.5)])
    on_basis = (nearest >= 0.0) & (nearest < p.size)
    weight = p[np.where(on_basis, nearest, 0.0).astype(np.intp)] * on_basis
    if not (np.maximum.reduce(weight) * _window_constants(delta_n)[1] >= DENSITY_FLOOR).all():
        return beyond
    return (
        f"the window at n_m = {vanished[0]:g} with delta_n = {delta_n:g} falls between "
        "levels and its density underflowed (below about delta_n 0.0135 at half-integers)"
    )


def integer_half_integer_ratio(state: PureState, delta_n: float) -> float:
    """Total likelihood of integer outcomes relative to half-integer outcomes.

    Sums the outcome density over all integers and over all half-integers up
    to 8 widths past the basis: the M = 2 lattice, residue 0 over residue 1.
    The envelope of the number distribution cancels between the two sums, so
    the ratio isolates the periodic quantization contrast and is the same for
    every state.
    """
    # Each sum is taken on its own: (mass + Q sum) / (mass - Q sum) would cancel.
    (_, _, totals), = _residue_totals(state, [MeasurementConfig(delta_n, state.n_max, 2)])
    return float(totals[0, 0, 0] / totals[0, 0, 1])


def _lattice_floors(x: np.ndarray, per_unit: np.ndarray) -> np.ndarray:
    """Index j of the last lattice point j / M at or below each ``x``, compared as floats.

    M is ``per_unit``, and j comes as a float.  The last point at or above
    ``x`` is ``-_lattice_floors(-x, per_unit)``.  (j + 1)/M and j/M are each
    one rounding of exact integers, as Python's int division rounds them.
    At most one of the two corrections applies, so both test the first guess.
    """
    j = np.floor(x * per_unit)
    return j + ((j + 1.0) / per_unit <= x) - (j / per_unit > x)


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

        :func:`_quadratures` sums the lattice up to the grid's last point with
        no lower end: each window holds under 1e-15 of its mass below the grid.
        """
        delta_n = _check_delta_n(delta_n)
        return cls(delta_n, n_max, 1 + math.ceil(_ALIAS_C / delta_n))

    def _indices(self) -> tuple[int, int]:
        """Indices j of the grid's first and last points j / M."""
        pad = _PAD_WIDTHS * self.delta_n
        first, last = _lattice_floors(np.array([-pad, -(self.n_max + pad)]), self.per_unit)
        return int(first), -int(last)

    def grid(self) -> np.ndarray:
        first, last = self._indices()
        return np.arange(first, last + 1) / self.per_unit


class _Lattices(NamedTuple):
    """Quadrature lattices as float arrays, one entry per config: a batch of configs."""

    delta_n: np.ndarray
    n_max: np.ndarray
    per_unit: np.ndarray


def _config(config) -> MeasurementConfig:
    """``config``, refused with :class:`InvalidParam` unless it is a :class:`MeasurementConfig`."""
    if not isinstance(config, MeasurementConfig):
        raise InvalidParam(f"config must be a MeasurementConfig, not {config!r}")
    return config


def _lattices(configs) -> _Lattices:
    """``configs``, a sequence of :class:`MeasurementConfig` or a :class:`_Lattices`, as arrays."""
    if isinstance(configs, _Lattices):
        return configs
    fields = [getattr(config, name) for name in _Lattices._fields for config in configs]
    return _Lattices(*np.array(fields, dtype=float).reshape(3, -1))


def _adequate_lattices(delta_n: np.ndarray, n_max: int) -> _Lattices:
    """:meth:`MeasurementConfig.adequate` at each width of the 1-D ``delta_n``, as arrays."""
    if not ((delta_n > 0.0) & (delta_n < math.inf)).all():  # also refuses NaN
        raise InvalidParam("delta_n must be positive and finite")
    per_unit = 1.0 + np.ceil(_ALIAS_C / delta_n)
    return _Lattices(delta_n, np.full(delta_n.size, float(n_max)), per_unit)


def _too_narrow(mass: float, delta_n: float) -> GridTooNarrow:
    return GridTooNarrow(
        f"grid captures probability mass {mass:.12g} < 1 - {QUAD_TOL:g} at delta_n = {delta_n:g}"
    )


@functools.lru_cache(maxsize=32)
def _offset_squares(per_unit: int, reach: int) -> np.ndarray:
    """x^2 for x = (r - M s)/M in a read-only array: row s + reach, residue r, a unit axis.

    Rows run over s = -reach..reach + 2.
    """
    # r - M s, counted up from s = reach + 2, r = 0, is one run of integers.
    run = np.arange(-per_unit * (reach + 2), per_unit * (reach + 1)) ** 2 / per_unit**2
    square = np.ascontiguousarray(run.reshape(-1, per_unit, 1)[::-1])
    square.flags.writeable = False
    return square


@functools.lru_cache(maxsize=32)
def _quantization(per_unit: int) -> np.ndarray:
    """Rows 1 and Q = cos(2 pi r/M) per residue r, read-only."""
    basis = np.cos(np.array([[0.0], [2.0 * math.pi / per_unit]]) * np.arange(per_unit))
    basis.flags.writeable = False
    return basis


def _band_weights(per_unit: int, scale: np.ndarray, reach: int) -> np.ndarray:
    """Band weights from the points of the lattice j/M to the levels near them.

    The point q + r/M lies x = (r - M s)/M from the level q + s, so x^2 is
    one rounding of an exact integer ratio.  With e(x) = exp(scale x^2),
    scale = -1/(4 dn^2), returns the weights e(x)^2 of p and e(x) e(x - 1)
    of Re b and Im b in an array of shape (2 R + 2, 3, M, K): row s + R for
    s = -R..R + 1, with R = ``reach``; then the moment, the residue r, and
    innermost column k at the width of ``scale[k]``.  Every weight beyond a
    width's own band, s outside -int(_reach(dn))..int(_reach(dn)) + 1, lies
    over 38.7 widths out and is 0.0, so a narrower band in a wider block adds
    exact zeros.
    """
    e = _offset_squares(per_unit, reach) * scale
    np.exp(e, out=e)
    weights = np.empty((e.shape[0] - 1, 3, *e.shape[1:]))
    np.multiply(e[:-1], e[:-1], out=weights[:, 0])
    np.multiply(e[:-1], e[1:], out=weights[:, 1])
    weights[:, 2] = weights[:, 1]
    return weights


def _residue_totals(state: PureState, configs):
    """Sums of the profiles P and <a>_f P over each config's lattice, by residue.

    ``configs`` is a sequence of configs or a :class:`_Lattices`.  Yields,
    for each chunk of consecutive configs that share M: their positions as a
    slice, M, and T[k, m, r]: 1/M times the sum, over the points j = q M + r
    of config k's lattice up to its grid's last point J = q_J M + r_J, of
    the density P (m = 0) and of the real and imaginary parts of <a>_f P
    (m = 1, 2), with J weighted 1/2.  The sum has no lower end.

    The offset of a point from a level depends only on r and the level's
    distance s from the anchor q (:func:`_band_weights`), so summed over the
    anchors below q_J, residue r takes sum_s E[s, r] C[s] with the column
    sums C[s] = sum_{n < q_J + s} p_n: the pairwise total of the moment less
    its running sum down from the top to level q_J + s, the total's own bits
    wherever q_J + s lies past the basis.  The anchor q_J adds the row of the
    levels q_J + s, weighted 1 below r_J, 1/2 at r_J and 0 above.  Past the
    state's basis a grid adds only zeros, so its last anchor is clipped there.

    Every per-config array puts the configs on its innermost axis.  Configs
    that share M and follow each other are taken in chunks of about
    ``_RESIDUE_CELLS`` band cells (s, r, k), the band rows set by the
    chunk's widest window.  The sums over s add one row at a time, in order,
    and a narrower band adds exact zero rows, so a config's totals are the
    same bits alone or in any batch.
    """
    delta_n, n_max, per_unit = _lattices(configs)
    p, b = state.level_moments()
    size = p.size
    # A block's band reaches as far as its widest window: _reach grows with dn.
    most = int(_reach(float(np.maximum.reduce(delta_n))))
    # Each grid's last anchor and residue, as ints, the anchor clipped where its
    # band rows all lie past the basis: they read levels -most .. size + 2 most + 2.
    last = -_lattice_floors(-(n_max + _PAD_WIDTHS * delta_n), per_unit)
    anchors, residues = np.array(np.divmod(last, per_unit), np.intp)
    np.minimum(anchors, size + most + 1, out=anchors)
    margin = 2 * most + 5

    # Level n's moments (p, Re b, Im b) in column n + margin, then their totals
    # less their running sums down from the top to n, as far down as bands read.
    width = size + 2 * margin
    levels = np.zeros((3, 2, width))
    levels[:, 0, margin : margin + size] = p, b.real, b.imag
    above = slice(width - 1, margin + int(np.minimum.reduce(anchors)) - most - 1, -1)
    np.add.accumulate(levels[:, 0, above], axis=1, out=levels[:, 1, above])
    field = np.add.reduce(b[:-1])  # as expectation_a sums it
    total = np.array([[np.add.reduce(p)], [field.real], [field.imag]])
    np.subtract(total, levels[:, 1, above], out=levels[:, 1, above])
    flat = levels.reshape(3, -1)

    # Per config, the columns of ``flat`` at s = 0: the column sum C[s] and the level q_J + s.
    bounds = anchors + np.array([[width + margin], [margin]])
    scale, norm = _window_constants(delta_n)
    step = norm / per_unit

    cuts = np.flatnonzero(per_unit[1:] != per_unit[:-1]) + 1
    edges = [0, *cuts.tolist(), per_unit.size]
    for start, stop in zip(edges, edges[1:]):
        m = int(per_unit[start])
        band = int(_reach(float(np.maximum.reduce(delta_n[start:stop]))))
        count = max(1, _RESIDUE_CELLS // ((2 * band + 2) * m))
        for lo in range(start, stop, count):
            rows = slice(lo, min(lo + count, stop))
            if count < stop - start:
                band = int(_reach(float(np.maximum.reduce(delta_n[rows]))))
            table = _band_weights(m, scale[rows], band)
            # (moments, s, kinds, configs), read as (s, kinds, moments, configs).
            gathered = flat.take(bounds[:, rows] + np.arange(-band, band + 2)[:, None, None], 1)
            columns = gathered[:, :, :, None].transpose(1, 2, 0, 3, 4)
            sums = np.add.reduce(np.multiply(table[:, None], columns, order="C"), axis=0)
            # The last anchor's weights over the step: 1 below r_J, 1/2 at r_J, 0 above.
            sides = np.sign(residues[rows] - np.arange(m)[:, None]) + 1.0
            totals = sums[0] * step[rows] + sums[1] * (sides * (0.5 * step[rows]))
            yield rows, m, np.ascontiguousarray(totals.transpose(2, 0, 1))


def _quadratures(state: PureState, configs) -> tuple[np.ndarray, ...]:
    """Trapezoid sums of P, Q P, <a>_f P and Q <a>_f P over each config's lattice.

    Each sum runs over the lattice up to the config's grid's last point, with
    no lower end (:func:`_residue_totals`).  Every outcome average of the
    package is one of these sums.  ``configs`` is a sequence of configs or a
    :class:`_Lattices`; returns the mass, the sum of Q P, and the complex sums
    of <a>_f P and Q <a>_f P, one array entry per config.  The quantization
    Q = cos(2 pi r/M) of the point j/M depends only on its residue
    r = j mod M, so each sum is a weighted sum of the residue totals: one
    pass for every config, batched by M.

    Raises
    ------
    GridTooNarrow
        If a config's mass falls short of ``1 - QUAD_TOL``; the message names
        the first such config's ``delta_n``.
    """
    lattices = _lattices(configs)
    sums = np.empty((lattices.delta_n.size, 2, 3))
    for rows, per_unit, totals in _residue_totals(state, lattices):
        sums[rows] = np.add.reduce(totals[:, None] * _quantization(per_unit)[:, None], axis=-1)
    mass = sums[:, 0, 0]
    if np.fmin.reduce(mass) < 1.0 - QUAD_TOL:
        k = int(np.argmax(mass < 1.0 - QUAD_TOL))
        raise _too_narrow(float(mass[k]), float(lattices.delta_n[k]))
    fields = sums[:, :, 1:].view(np.complex128)[:, :, 0]
    return mass, sums[:, 1, 0], fields[:, 0], fields[:, 1]


def average_coherence(state: PureState, config: MeasurementConfig) -> complex:
    """Outcome-averaged coherence: quadrature of <a>_f(n_m) P(n_m) over the grid.

    For any state this equals exp(-1/(8 delta_n^2)) times the initial field
    expectation, up to quadrature error.

    Raises
    ------
    InvalidParam
        If ``config`` is not a :class:`MeasurementConfig`.
    GridTooNarrow
        As :func:`_quadratures`.
    """
    return complex(_quadratures(state, [_config(config)])[2][0])


def decoherence_factor(delta_n: float) -> float:
    """Average coherence reduction exp(-1/(8 delta_n^2)) caused by one readout."""
    delta_n = _check_delta_n(delta_n, allow_inf=True)
    if math.isinf(delta_n):
        return 1.0
    return math.exp(-1.0 / (8.0 * delta_n**2))


def _decoherence_factors(delta_n: np.ndarray) -> np.ndarray:
    """:func:`decoherence_factor` of each width of the 1-D ``delta_n``, in numpy's arithmetic."""
    if not (delta_n > 0.0).all():  # also refuses NaN
        raise InvalidParam("delta_n must be positive")
    return np.exp(-1.0 / (8.0 * np.power(delta_n, 2.0)))


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
