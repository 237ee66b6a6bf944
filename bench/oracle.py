"""Reference values the benchmark checks the program's outputs against.

Everything here is computed in numpy straight from the definitions: the
readout window

    w(n) = (2 pi dn^2)**-0.25 * exp(-(n - n_m)^2 / (4 dn^2)),

literal windowed-vector contractions, and the paper's closed forms.  Nothing
here imports qndsim, so a defect in the package's kernel cannot hide in its
own reference.

Each ``check_*`` function returns a list of failure messages; an empty list
means the output is correct.  No check compares output bytes: summation
order may change between versions, so values are compared with tolerances.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

# Oracle against program for densities and coherences.
RTOL = 1e-9

# Closed forms against quadratures: the default MeasurementConfig.quad_tol.
QUAD_TOL = 1e-8

# Statistical checks allow this many standard errors, so that correct code
# fails one on a fresh seed with probability below 1e-5.
STAT_SE = 5.0


def mismatch(label: str, got, want, rtol: float = RTOL, atol: float = 0.0) -> list[str]:
    """One message if any |got - want| exceeds atol + rtol |want| (NaN fails)."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if not bad.any():
        return []
    i = int(np.flatnonzero(bad.ravel())[0])
    return [
        f"{label}: {int(bad.sum())} of {bad.size} off, first at {i}: "
        f"got {got.ravel()[i].item()!r} want {want.ravel()[i].item()!r}"
    ]


def coherent_amplitudes(magnitude: float, phase: float, n_max: int) -> np.ndarray:
    """Poissonian amplitudes sqrt(p_n) exp(-i phase n) on 0..n_max, renormalized."""
    n = np.arange(n_max + 1)
    lam = magnitude**2
    log_p = -lam + n * math.log(lam) - gammaln(n + 1.0)
    amps = np.exp(0.5 * log_p) * np.exp(-1j * phase * n)
    return amps / np.linalg.norm(amps)


def windowed(amps: np.ndarray, n_m, dn: float) -> tuple[np.ndarray, np.ndarray]:
    """Density sum |c_n w(n)|^2 and conditional field <a>_f at each outcome.

    The field is sum conj(f_n) f_{n+1} sqrt(n+1) over the windowed vector f,
    divided by the density.
    """
    n = np.arange(amps.size)
    x = np.atleast_1d(np.asarray(n_m, dtype=float))
    w = (2.0 * math.pi * dn**2) ** -0.25 * np.exp(
        -((n[None, :] - x[:, None]) ** 2) / (4.0 * dn**2)
    )
    f = amps[None, :] * w
    density = np.sum(np.abs(f) ** 2, axis=1)
    field = np.sum(np.conj(f[:, :-1]) * f[:, 1:] * np.sqrt(n[1:])[None, :], axis=1)
    return density, field / density


def posterior_probabilities(amps: np.ndarray, outcomes, dn: float) -> np.ndarray:
    """Number distribution after sequential readouts with the given outcomes.

    The product of the k squared windows is, up to a constant, a Gaussian of
    variance dn^2/k around the mean outcome; working with its log keeps the
    weights of far levels from underflowing early.
    """
    x = np.asarray(outcomes, dtype=float)
    n = np.arange(amps.size)
    with np.errstate(divide="ignore"):
        log_w = np.log(np.abs(amps) ** 2) - x.size * (n - x.mean()) ** 2 / (2.0 * dn**2)
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def q_bar(dn):
    """Outcome-averaged quantization exp(-2 pi^2 dn^2)."""
    return np.exp(-2.0 * math.pi**2 * np.asarray(dn) ** 2)


def decoherence(dn):
    """Average coherence reduction exp(-1/(8 dn^2)) of one readout."""
    return np.exp(-1.0 / (8.0 * np.asarray(dn) ** 2))


def classical_probability(nbar: float, x):
    return (2.0 * math.pi * nbar) ** -0.5 * np.exp(-((x - nbar) ** 2) / (2.0 * nbar))


def classical_coherence_abs(dn: float, x):
    return np.sqrt(x + 0.5) * decoherence(dn)


def lowest_order_abs(nbar: float, dn: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Single-harmonic fringe density and |coherence| at outcomes x."""
    modulation = 2.0 * q_bar(dn) * np.cos(2.0 * math.pi * x)
    p = classical_probability(nbar, x) * (1.0 + modulation)
    a = classical_coherence_abs(dn, x) * np.abs((1.0 - modulation) / (1.0 + modulation))
    return p, a


def check_profile(amps, n_m, dn, density, field) -> list[str]:
    """Program density and conditional field at outcomes n_m against the oracle."""
    want_p, want_a = windowed(amps, n_m, dn)
    return mismatch(f"density dn={dn}", density, want_p) + mismatch(
        f"coherence dn={dn}", field, want_a
    )


def check_correlation(alpha: complex, dn: float, q, avg, corr) -> list[str]:
    """Quadrature q_bar, average coherence and covariance against closed forms."""
    q_cf = float(q_bar(dn))
    avg_cf = alpha * float(decoherence(dn))
    scale = max(1.0, abs(alpha))
    return (
        mismatch(f"q_bar dn={dn}", q, q_cf, rtol=0.0, atol=QUAD_TOL)
        + mismatch(f"avg coherence dn={dn}", avg, avg_cf, rtol=0.0, atol=QUAD_TOL * scale)
        + mismatch(
            f"covariance dn={dn}", corr, -2.0 * q_cf * avg_cf, rtol=0.0, atol=QUAD_TOL * scale
        )
    )


def check_resolution_columns(columns: dict) -> list[str]:
    """Closed-form columns of the figure 5 and sweep tables, every row."""
    dn = columns["delta_n"]
    q_cf = q_bar(dn)
    dec = decoherence(dn)
    errors = mismatch("q_bar column", columns["q_bar"], q_cf, rtol=0.0, atol=QUAD_TOL)
    errors += mismatch(
        "c_over_alpha column", columns["c_over_alpha"], 2.0 * q_cf * dec,
        rtol=0.0, atol=QUAD_TOL,
    )
    if "decoherence_factor" in columns:
        errors += mismatch("decoherence_factor column", columns["decoherence_factor"], dec)
    if "avg_coherence_factor" in columns:
        errors += mismatch(
            "avg_coherence_factor column", columns["avg_coherence_factor"], dec,
            rtol=0.0, atol=QUAD_TOL,
        )
    return errors


def lowest_order_coherence_error(amps, nbar: float, dn: float) -> float:
    """Max relative |coherence| error of the fringe formula at the brightest probes."""
    probes = np.array([math.floor(nbar), math.floor(nbar) + 0.5])
    _, exact = windowed(amps, probes, dn)
    _, approx = lowest_order_abs(nbar, dn, probes)
    return float(np.max(np.abs(approx - np.abs(exact)) / np.abs(exact)))


def check_within_se(label: str, value: float, expected: float, stderr: float) -> list[str]:
    """One message if value lies more than STAT_SE standard errors from expected."""
    if abs(value - expected) <= STAT_SE * stderr:
        return []
    return [f"{label}: {value!r} is {abs(value - expected) / stderr:.2f} SE from {expected!r}"]
