#!/usr/bin/env python3
"""Repeated soft readouts converge to a projective number measurement.

Each pass multiplies the amplitudes by a Gaussian window, so k passes at
resolution delta_n act like a single pass at delta_n / sqrt(k) located at the
mean outcome.  A trajectory therefore collapses onto one number state, while
the ensemble-averaged number distribution stays put (the posterior is a
martingale).
"""

import numpy as np

from qndsim import (
    CoherentParams,
    coherent_state,
    effective_post_state,
    fidelity,
    repeated_measurement,
)

params = CoherentParams(3.0)
state = coherent_state(params, 60)

print("one trajectory: 25 passes at delta_n = 0.3, seed 13")
trajectory = repeated_measurement(state, 0.3, 25, 13)
print(f"{'pass':>4} {'outcome':>8} {'<n>':>7} {'Var(n)':>8} {'|<a>|':>7}")
columns = (trajectory.outcomes, trajectory.mean_n, trajectory.var_n, trajectory.coherence_mag)
for i, (n_m, mean_n, var_n, coherence_mag) in enumerate(zip(*columns)):
    if i < 5 or i % 5 == 4:
        print(f"{i + 1:>4} {n_m:>8.3f} {mean_n:>7.3f} {var_n:>8.4f} {coherence_mag:>7.4f}")

weights = trajectory.final_state.probabilities()
print(f"final state: weight {weights.max():.6f} on |{int(np.argmax(weights))}>")

print()
print("composition law: 100 passes at delta_n = 1.0 vs one effective readout")
long_run = repeated_measurement(state, 1.0, 100, 5)
effective = effective_post_state(state, long_run.outcomes, 1.0)
print(f"  mean outcome          : {long_run.outcomes.mean():.4f}")
print(f"  effective resolution  : {1.0 / np.sqrt(100):.2f}")
print(f"  fidelity of end states: {fidelity(long_run.final_state, effective):.12f}")

print()
print("martingale: ensemble mean of the posterior equals the prior")
rng = np.random.default_rng(99)
runs = 2000
bins = np.arange(7, 12)
accum = np.zeros(bins.size)
for _ in range(runs):
    final = repeated_measurement(state, 1.0, 2, rng).final_state
    accum += final.probabilities()[bins]
print(f"{'n':>3} {'prior':>8} {'ensemble mean':>14}")
for n, mean in zip(bins, accum / runs):
    print(f"{n:>3} {state.probabilities()[n]:>8.4f} {mean:>14.4f}")
