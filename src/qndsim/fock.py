"""Truncated photon-number (Fock) space: states and basic observables.

States are complex amplitude vectors indexed by photon number n = 0..n_max.
All operations are pure functions; nothing here mutates its inputs, so
everything is safe to call concurrently.  A state keeps what it derives from
its read-only amplitudes (level moments, sampling CDF) once computed;
concurrent first calls compute the same values.
:func:`coherent_state` hands every caller the same state for the same
parameters and basis while any caller holds it, so that state is built and
its moments derived once; concurrent first calls may build it twice, as
value-equal states.  What a coherent state does not owe to its phase is
computed once and kept in small bounded caches: the certified cutoff once
per (|alpha|^2, tail tolerance), and the window start and Poisson roots
once per (|alpha|^2, n_max); a state at a new phase pays only for its
phase factors and its normalization.
"""

from __future__ import annotations

import functools
import math
import weakref

import numpy as np
from scipy.special import gammaln

from .errors import InvalidParam, TruncationTooSmall, _integer

# Normalization slack accepted by the PureState constructor before it snaps
# the vector to exactly unit norm.
NORM_TOL = 1e-6

# Bound on the Poisson probability mass a coherent state's basis may leave
# beyond its cutoff.
DEFAULT_TAIL_TOL = 1e-12

# Largest basis a state constructor builds, in levels (about |alpha| 3 150
# for coherent_state); a larger one is refused before anything is allocated.
MAX_LEVELS = 10**7

# A tail below double-precision resolution of the state's unit norm changes
# nothing the renormalized state can represent, so tolerances below this are
# refused.
_MIN_CERTIFIABLE_TAIL = 1e-15

# choose_truncation sums about 5 |alpha| Poisson terms, in chunks of at most
# _TAIL_CHUNK.  Means above _MAX_SUMMED_MEAN (|alpha| 1e6, about 50 ms of
# summing) are refused: their bases lie far past MAX_LEVELS anyway.
_MAX_SUMMED_MEAN = 1e12
_TAIL_CHUNK = 1 << 16

# exp() is exactly 0.0 below -745.14, so levels whose Poisson log-weight lies
# below this bound weigh exactly 0.0.  The margin of 55 is far beyond the
# gammaln form's cancellation error (below 1e-8 up to MAX_LEVELS).
_LOG_UNDERFLOW = -800.0

# Means |alpha|^2 whose phase-independent parts each cache keeps: cutoffs per
# (mean, tail tolerance), and Poisson roots per (mean, n_max).
_CACHED_MEANS = 16

# The coherent states some caller holds, by (magnitude, phase, sign of the
# phase, n_max); an entry leaves when its last holder drops it.
_STATES = weakref.WeakValueDictionary()


class CoherentParams:
    """Magnitude and phase of a coherent field, alpha = magnitude * exp(-1j * phase).

    The phase is folded into (-pi, pi] on construction.
    """

    __slots__ = ("magnitude", "phase")

    def __init__(self, magnitude: float, phase: float = 0.0):
        magnitude = float(magnitude)
        phase = float(phase)
        if not (math.isfinite(magnitude) and math.isfinite(phase)):
            raise InvalidParam("coherent-state parameters must be finite")
        if magnitude < 0.0:
            raise InvalidParam("coherent-state magnitude must be non-negative")
        self.magnitude = magnitude
        folded = math.remainder(phase, 2.0 * math.pi)
        self.phase = folded + 2.0 * math.pi if folded <= -math.pi else folded

    @property
    def alpha(self) -> complex:
        return self.magnitude * complex(math.cos(self.phase), -math.sin(self.phase))

    @property
    def mean_photon_number(self) -> float:
        return self.magnitude**2

    def __repr__(self) -> str:
        return f"CoherentParams(magnitude={self.magnitude!r}, phase={self.phase!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoherentParams):
            return NotImplemented
        return self.magnitude == other.magnitude and self.phase == other.phase


class PureState:
    """Normalized pure state sum_n c_n |n> on a truncated number basis.

    ``amplitudes[n]`` is c_n for n = 0..n_max.  The constructor accepts
    vectors within ``NORM_TOL`` of unit norm and rescales them exactly, so
    downstream identities hold at machine precision.  Use
    :meth:`from_unnormalized` for arbitrary nonzero vectors.

    The level moments and the sampling CDF are derived once, on first use,
    and kept with the state: the amplitudes are read-only, so they never go
    stale, and a state can be shared (as :func:`coherent_state` shares them,
    through weak references).  No support is derived or kept: a vanished
    outcome is named from its nearest level's weight.
    """

    __slots__ = ("amplitudes", "_moments", "_cdf", "__weakref__")

    def __init__(self, amplitudes):
        amps = np.ascontiguousarray(amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise InvalidParam("amplitudes must form a non-empty 1-D vector")
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise InvalidParam("amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise InvalidParam(
                f"vector norm {norm:.6g} is not 1; use PureState.from_unnormalized"
            )
        self._adopt(amps / norm)

    def _adopt(self, amps: np.ndarray) -> None:
        """Take ``amps``, a finite unit-norm complex vector, as the amplitudes."""
        amps.setflags(write=False)
        self.amplitudes = amps
        self._moments = self._cdf = None

    @classmethod
    def _unit(cls, amplitudes: np.ndarray) -> "PureState":
        """State of ``amplitudes``, a finite complex vector of unit norm, taken over as is.

        Skips the constructor's scans and rescaling, for vectors finite and
        normalized by construction.
        """
        state = cls.__new__(cls)
        state._adopt(amplitudes)
        return state

    @classmethod
    def from_unnormalized(cls, amplitudes) -> "PureState":
        amps = np.asarray(amplitudes, dtype=np.complex128)
        norm = float(np.linalg.norm(amps))
        if norm == 0.0 or not math.isfinite(norm):
            raise InvalidParam("cannot normalize a zero or non-finite vector")
        return cls(amps / norm)

    @property
    def n_max(self) -> int:
        return self.amplitudes.size - 1

    def probabilities(self) -> np.ndarray:
        """Photon-number distribution |c_n|^2."""
        return np.abs(self.amplitudes) ** 2

    def level_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Level vectors p_n = |c_n|^2 and b_n = conj(c_n) c_{n+1} sqrt(n + 1); b_{n_max} = 0.

        Computed on the first call; every call returns the same read-only arrays.
        """
        if self._moments is None:
            c = self.amplitudes
            # |c_n|^2 and conj(c_n) c_{n+1} sqrt(n + 1), in the order of
            # np.abs(c)**2 and np.conj(c[:-1]) * c[1:] * sqrt, in place.
            p = np.abs(c)
            p *= p
            b = np.empty(c.size, dtype=np.complex128)
            np.conjugate(c[:-1], out=b[:-1])
            b[:-1] *= c[1:]
            b[:-1] *= _level_roots(c.size)
            b[-1] = 0.0
            p.setflags(write=False)
            b.setflags(write=False)
            self._moments = (p, b)
        return self._moments

    def level_cdf(self) -> np.ndarray:
        """Cumulative photon-number distribution that level draws search.

        Built as ``Generator.choice`` builds it from ``p = |c_n|^2 / sum |c_n|^2``:
        the running sum of p, divided by its last entry, so a uniform deviate
        u in [0, 1) picks the level ``cdf.searchsorted(u, side="right")`` that
        ``choice`` would.  Computed on the first call; every call returns the
        same read-only array.
        """
        if self._cdf is None:
            probs = self.probabilities()
            cdf = (probs / probs.sum()).cumsum()
            cdf /= cdf[-1]
            cdf.setflags(write=False)
            self._cdf = cdf
        return self._cdf

    def __repr__(self) -> str:
        return f"PureState(n_max={self.n_max}, <n>={expectation_n(self):.4g})"


_ROOTS = np.empty(0)


def _level_roots(levels: int) -> np.ndarray:
    """sqrt(1), ..., sqrt(levels - 1), read-only.

    A prefix of one array kept for the largest basis whose moments were
    taken: at most 8 bytes a level of that basis (80 MB at ``MAX_LEVELS``).
    """
    global _ROOTS
    roots = _ROOTS
    if roots.size < levels - 1:
        roots = np.sqrt(np.arange(1, levels))
        roots.setflags(write=False)
        _ROOTS = roots
    return roots[: levels - 1]


def _check_levels(n_max: int) -> int:
    """``n_max`` as an int, refused above ``MAX_LEVELS`` levels before a basis is allocated."""
    n_max = _integer(n_max, "n_max")
    if n_max >= MAX_LEVELS:
        raise InvalidParam(f"a basis of {n_max + 1} levels exceeds {MAX_LEVELS} levels")
    return n_max


def number_state(n: int, n_max: int | None = None) -> PureState:
    """The eigenstate |n> on a basis truncated at ``n_max`` (default n)."""
    n = _integer(n, "photon number")
    n_max = _check_levels(n if n_max is None else n_max)
    if not 0 <= n <= n_max:
        raise InvalidParam("photon number must lie in [0, n_max]")
    amps = np.zeros(n_max + 1, dtype=np.complex128)
    amps[n] = 1.0
    return PureState(amps)


def coherent_state(params: CoherentParams, n_max: int | None = None) -> PureState:
    """Coherent state with Poissonian number statistics, truncated at ``n_max``.

    ``n_max`` defaults to :func:`default_cutoff`.  Amplitudes are evaluated
    in the log domain, so large cutoffs do not overflow the factorials, and
    only from the first level whose log-weight reaches -800: every level
    below it weighs exactly 0.0 (level 0 already reaches it when
    |alpha|^2 <= 800).  After truncation the state is renormalized.

    Only the phase factors exp(-1j phase n) and the normalization depend on
    the phase.  The window start and the Poisson roots are built once per
    (|alpha|^2, n_max) (:func:`_poisson_part`), and the certified cutoff
    once per (|alpha|^2, tail tolerance) (:func:`choose_truncation`), so a
    state at a new phase costs its phase factors, two norms and two scalings.
    The amplitudes are the bits of sqrt(weights) * exp(-1j phase n) divided
    twice by the norm, as one vector over every level gives them.

    While any caller holds the state for the same magnitude, phase and
    ``n_max`` (given or defaulted), the same object is returned; the
    arguments are checked on every call.

    Raises
    ------
    InvalidParam
        If ``n_max`` is not a non-negative integer, if the basis would hold
        more than ``MAX_LEVELS`` levels, or from :func:`choose_truncation`.
    TruncationTooSmall
        If ``n_max`` lies below ``choose_truncation(params, DEFAULT_TAIL_TOL)``,
        checked before the basis is allocated.  A cutoff at or above the
        level the summed pass starts from is certified without the pass.
    """
    explicit = n_max is not None
    n_max = _check_levels(n_max if explicit else default_cutoff(params))
    if n_max < 0:
        raise InvalidParam("n_max must be non-negative")
    if explicit:
        lam, top = _pass_start(params, DEFAULT_TAIL_TOL)
        if n_max < top and n_max < (certified := _certified_cutoff(lam, DEFAULT_TAIL_TOL)):
            raise TruncationTooSmall(
                f"n_max={n_max} lies below {certified}, "
                f"the cutoff certified to {DEFAULT_TAIL_TOL:g}"
            )
    # -0.0 == 0.0, but the two phases give zero amplitudes of different signs.
    key = (params.magnitude, params.phase, math.copysign(1.0, params.phase), n_max)
    state = _STATES.get(key)
    if state is not None:
        return state

    lo, roots, zeros = _poisson_part(params.mean_photon_number, n_max)
    amps = np.empty(n_max + 1, dtype=np.complex128)
    amps[:lo] = 0.0
    window = amps[lo:]
    np.multiply(-1j * params.phase, np.arange(lo, n_max + 1), out=window)
    np.exp(window, out=window)
    # Roots first, as in sqrt(weights) * exp(...): where a part of a product
    # underflows, numpy's complex product gives a zero whose sign depends on
    # the operand order.
    np.multiply(roots, window[: roots.size], out=window[: roots.size])
    if zeros:
        window[roots.size :] *= 0.0
        # numpy's complex division by a real c takes (re + im 0) (1/c) and
        # (im - re 0) (1/c): the scalings below by 1/c on the float parts,
        # except that it leaves the real part of a zero product +0.0.  The
        # products are zero exactly where the roots are, so that is set here.
        real = amps.real
        for span in zeros:
            real[span] = 0.0
    # Both norms over the whole vector: the same sums, in the same order, as
    # a vector evaluated at every level.
    parts = amps.view(np.float64)
    parts *= 1.0 / float(np.linalg.norm(amps))
    # The constructor's rescaling, without its scans: the weights are finite.
    parts *= 1.0 / float(np.linalg.norm(amps))
    state = _STATES[key] = PureState._unit(amps)
    return state


@functools.lru_cache(maxsize=_CACHED_MEANS)
def _poisson_part(lam: float, n_max: int) -> tuple[int, np.ndarray, tuple[slice, ...]]:
    """The phase-independent part of :func:`coherent_state` on levels 0..n_max.

    Returns the window start ``lo`` (:func:`_window_start`), the read-only
    roots sqrt(exp(-lam + n log lam - gammaln(n + 1))) of the levels from
    ``lo`` up to the last one whose weight is not 0.0, and the spans of
    levels from ``lo`` on whose root is 0.0, those past the last root
    included.  The roots run from log-weight -800 below the mean to -745.2
    above it, about 80 sqrt(lam) levels for a large mean (180 at most for a
    mean below 1): at most about 2 MB an entry, for a mean near
    ``MAX_LEVELS``, and 32 MB for the ``_CACHED_MEANS`` entries kept.
    """
    lo = _window_start(lam)
    n = np.arange(lo, n_max + 1)
    if lam == 0.0:
        weights = np.zeros(n_max + 1)
        weights[0] = 1.0
    else:
        weights = np.exp(-lam + n * math.log(lam) - gammaln(n + 1.0))
    roots = np.sqrt(weights)
    edges = np.flatnonzero(np.diff(roots == 0.0, prepend=False, append=False)).tolist()
    zeros = tuple(slice(lo + start, lo + stop) for start, stop in zip(edges[::2], edges[1::2]))
    if zeros and zeros[-1].stop == n_max + 1:
        roots = roots[: zeros[-1].start - lo].copy()
    roots.setflags(write=False)
    return lo, roots, zeros


def _window_start(lam: float) -> int:
    """First level whose Poisson(lam) log-weight reaches ``_LOG_UNDERFLOW``.

    Below the mean the log-weights rise with the level, and the mode reaches
    the bound, so the level is bisected on :func:`_log_poisson` between 0
    and the mode.  It is 0 whenever lam <= 800.
    """
    if -lam >= _LOG_UNDERFLOW:
        return 0
    below, above = 0, math.floor(lam)
    while above - below > 1:
        mid = (below + above) // 2
        if _log_poisson(mid, lam) < _LOG_UNDERFLOW:
            below = mid
        else:
            above = mid
    return above


def choose_truncation(params: CoherentParams, tail_tol: float) -> int:
    """Smallest cutoff leaving Poisson mass below ``tail_tol`` past it.

    A cutoff of 0 is read off the tail beyond level 0, 1 - exp(-|alpha|^2);
    larger ones off one top-down pass of summed Poisson terms.  It starts at
    a level whose tail is below 1e-17 ``tail_tol``, steps down by
    p_{n-1} = p_n n / |alpha|^2 in chunks, each started afresh from
    :func:`_log_poisson`, and stops at the first tail that reaches
    ``tail_tol``.  (SciPy's Poisson survival function reads these tails up to
    0.7% low at bright fields.)  Means above ``_MAX_SUMMED_MEAN`` are refused.
    The start level and the cutoff are kept per (|alpha|^2, ``tail_tol``),
    for the last ``_CACHED_MEANS`` pairs each; the tolerance is checked on
    every call.
    """
    lam, _ = _pass_start(params, tail_tol)
    return _certified_cutoff(lam, tail_tol)


def _pass_start(params: CoherentParams, tail_tol: float) -> tuple[float, int]:
    """The mean |alpha|^2 and the level ``top`` that :func:`choose_truncation`'s pass starts from.

    The Poisson mass beyond ``top`` lies below 1e-17 ``tail_tol``, so every
    cutoff at or above it is certified, and the summed cutoff never exceeds
    it.  ``top`` is 0 where the tail beyond level 0 is below ``tail_tol``.
    """
    if not (0.0 < tail_tol < 1.0):
        raise InvalidParam("tail_tol must lie in (0, 1)")
    if tail_tol < _MIN_CERTIFIABLE_TAIL:
        raise InvalidParam(
            f"tail_tol below {_MIN_CERTIFIABLE_TAIL:g} cannot be certified in double precision"
        )
    lam = params.mean_photon_number
    return lam, _start_level(lam, tail_tol)


@functools.lru_cache(maxsize=_CACHED_MEANS)
def _start_level(lam: float, tail_tol: float) -> int:
    """The ``top`` of :func:`_pass_start`, for a ``tail_tol`` it has checked."""
    if -math.expm1(-lam) < tail_tol:
        return 0
    if lam > _MAX_SUMMED_MEAN:
        raise InvalidParam(
            f"|alpha|^2 = {lam:g} lies above {_MAX_SUMMED_MEAN:g}, "
            "the largest mean whose cutoff is summed"
        )

    # Past level top + 1 the terms fall at least as fast as powers of
    # lam / (top + 2), so p_{top+1} / (1 - lam / (top + 2)) bounds the mass
    # the pass leaves off.
    log_left_off = math.log(tail_tol) + math.log(1e-17)
    top, step = math.floor(lam + 10.0 * math.sqrt(lam)) + 1, math.isqrt(math.floor(lam)) + 1
    while _log_poisson(top + 1, lam) - math.log1p(-lam / (top + 2)) > log_left_off:
        top += step
    return top


@functools.lru_cache(maxsize=_CACHED_MEANS)
def _certified_cutoff(lam: float, tail_tol: float) -> int:
    """:func:`choose_truncation`'s cutoff, for a ``tail_tol`` :func:`_pass_start` has checked."""
    return _summed_cutoff(lam, tail_tol, _start_level(lam, tail_tol))


def _summed_cutoff(lam: float, tail_tol: float, top: int) -> int:
    """The pass of :func:`choose_truncation`, from the level ``top`` of :func:`_pass_start` down."""
    if top == 0:
        return 0
    step = math.isqrt(math.floor(lam)) + 1
    # The cutoff lies about 5 step below the start, so chunks of 8 step
    # mostly find it in the first.
    tail, chunk = 0.0, min(8 * step, _TAIL_CHUNK)
    while top >= 0:
        # tails[i] is the tail beyond top - i - 1, summed from the top down.
        tails = np.arange(top + 1, max(top - chunk, -1) + 1, -1) / lam
        tails[0] = math.exp(_log_poisson(top, lam))
        np.multiply.accumulate(tails, out=tails)
        tails[0] += tail
        np.add.accumulate(tails, out=tails)
        i = int(tails.searchsorted(tail_tol))
        if i < tails.size:
            return top - i
        tail, top = float(tails[-1]), top - tails.size
    return 0


def _log_poisson(m: int, lam: float) -> float:
    """log of the Poisson(lam) probability of m, within 1e-10 up to m ~ 1e10, 4e-10 at 1e12.

    Past m = 100 it takes the saddle-point form -bd0 - stirlerr(m) - log(2 pi m)/2
    of C. Loader (2000), with bd0 = m log(m/lam) + lam - m taken from m - lam
    and the Stirling remainder stirlerr(m) by its series.  The direct form
    -lam + m log(lam) - lgamma(m + 1) cancels terms of size m log(m), which
    leaves 2e-5 relative error in the term at m = 1e10.
    """
    if m <= 100:
        return -lam + m * math.log(lam) - math.lgamma(m + 1)
    bd0 = m * math.log1p((m - lam) / lam) - (m - lam)
    stirlerr = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * m * m)) / (m * m)) / m
    return -bd0 - stirlerr - 0.5 * math.log(2.0 * math.pi * m)


def default_cutoff(params: CoherentParams) -> int:
    """The basis cutoff :func:`coherent_state` uses when given none.

    Leaves Poisson mass below ``DEFAULT_TAIL_TOL`` beyond it, and is at
    least 16.
    """
    return max(choose_truncation(params, DEFAULT_TAIL_TOL), 16)


def expectation_a(state: PureState) -> complex:
    """Field-amplitude expectation sum_n c_n^* c_{n+1} sqrt(n+1)."""
    _, b = state.level_moments()
    return complex(b[:-1].sum())


def expectation_n(state: PureState) -> float:
    """Mean photon number sum_n n |c_n|^2."""
    p = state.probabilities()
    return float(np.sum(np.arange(p.size) * p))


def variance_n(state: PureState) -> float:
    """Photon-number variance sum_n (n - <n>)^2 |c_n|^2, summed centered.

    The centered sum keeps the digits that sum_n n^2 |c_n|^2 - <n>^2 would
    lose to cancellation when <n> is large.
    """
    p = state.probabilities()
    n = np.arange(p.size)
    mean = float(np.sum(n * p))
    return float(np.sum((n - mean) ** 2 * p))


def expectation_parity(state: PureState) -> float:
    """Parity expectation sum_n (-1)^n |c_n|^2, always in [-1, 1]."""
    p = state.probabilities()
    signs = np.where(np.arange(p.size) % 2 == 0, 1.0, -1.0)
    return float(np.sum(signs * p))


def expectation_parity_squared(state: PureState) -> float:
    """Expectation of the squared parity: sum_n ((-1)^n)^2 |c_n|^2.

    Equals 1 at machine precision for every normalized state.
    """
    p = state.probabilities()
    signs = np.where(np.arange(p.size) % 2 == 0, 1.0, -1.0)
    return float(np.sum(signs * signs * p))


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>; shorter vectors are padded with zeros."""
    ca, cb = a.amplitudes, b.amplitudes
    m = min(ca.size, cb.size)
    return complex(np.vdot(ca[:m], cb[:m]))


def fidelity(a: PureState, b: PureState) -> float:
    """State fidelity |<a|b>|^2."""
    return abs(overlap(a, b)) ** 2


def random_state(
    n_max: int, rng: np.random.Generator, min_level: int = 0
) -> PureState:
    """Haar-like random pure state, optionally with no weight below ``min_level``."""
    n_max = _check_levels(n_max)
    if not 0 <= _integer(min_level, "min_level") <= n_max:
        raise InvalidParam("min_level must lie in [0, n_max]")
    amps = np.zeros(n_max + 1, dtype=np.complex128)
    size = n_max + 1 - min_level
    amps[min_level:] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return PureState.from_unnormalized(amps)
