"""The benchmark's workloads: their inputs, their ops and each op's checks.

A workload is a fixed cycle of op kinds.  Op ``i`` runs kind
``cycle[i % len(cycle)]`` on inputs drawn from ``(seed, i)``, so a seed
fixes every input and a replay of ops ``0..k`` repeats the same work.
``op(i)`` returns ``(label, run, check)``: ``run()`` is the timed call into
qndsim, ``check(output)`` returns a list of failure messages (empty when the
output is correct) and is not timed.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math

import numpy as np

from qndsim import approx, cli, correlations, fock, measurement, trajectories
from qndsim.errors import InvalidParam, TruncationTooSmall

import oracle

# Outcome-grid points checked against the oracle in each profile or table op.
PROBES = 12


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tag])


def _phase(rng: np.random.Generator) -> float:
    return float(rng.uniform(-math.pi, math.pi))


def _alpha(magnitude: float, phase: float) -> complex:
    return magnitude * cmath.exp(-1j * phase)


def read_table(text: str, fmt: str) -> dict[str, np.ndarray]:
    """Columns of a table written by ``qnd`` in CSV or JSON."""
    if fmt == "json":
        payload = json.loads(text)
        names, rows = payload["columns"], payload["rows"]
    else:
        lines = [line for line in text.splitlines() if line and not line.startswith("#")]
        names = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(names))
    return {name: data[:, i] for i, name in enumerate(names)}


def run_cli(argv: list[str], tracer) -> str:
    """``qnd <argv>`` through ``cli.main`` with stdout captured; raises on nonzero exit."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"qnd {' '.join(argv)} exited {status}")
    text = buffer.getvalue()
    if tracer is not None:
        tracer.add("cli.bytes_out", len(text))
    return text


class Workload:
    """A cycle of ``(label, make, args)``; ``make(rng, *args)`` returns ``(run, check)``."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.cycle: list[tuple] = []

    def op(self, index: int):
        label, make, args = self.cycle[index % len(self.cycle)]
        run, check = make(_rng(self.seed, 1, index), *args)
        return label, run, check

    def warm_up(self) -> None:
        """Run the first op kind once, on inputs no measured op uses.

        Its output is not checked: the measured ops that follow report any
        failure, so that a broken program still gets a result line.
        """
        _, make, args = self.cycle[0]
        run, _ = make(_rng(self.seed, 2), *args)
        try:
            run()
        except Exception:
            pass


class BrightKernel(Workload):
    """Dense-kernel profiles and quadratures of bright coherent states."""

    name = "bright-kernel"

    # Cutoffs used whatever the default path does, so the work per op stays
    # fixed when the truncation defect is fixed.
    CUTOFF = {10.0: 280, 25.0: 1015, 100.0: 11440}
    RESOLUTIONS = (0.2, 0.3, 0.7)
    GRID_POINTS = 500
    QUADRATURE_DELTA_N = 0.3

    def __init__(self, seed: int):
        super().__init__(seed)
        # Each quadrature runs three times per cycle, like each alpha's
        # profiles.  A run then always has more than ten alpha=25
        # quadratures, the slowest op, so op_tail_ms stays inside one kind
        # of op; and op_p50_ms falls in the middle of the alpha=10
        # quadratures, which sit in the middle of the cycle's latencies.
        self.cycle = [
            (f"profile a={a:g} dn={dn}", self._profile, (a, dn))
            for a in self.CUTOFF
            for dn in self.RESOLUTIONS
        ] + [
            (f"quadrature a={a:g}", self._quadrature, (a,))
            for a in (10.0, 25.0)
            for _ in range(3)
        ]

    def _default_cutoff(self, params) -> None:
        """Try the library's default cutoff; count it when the state rejects it."""
        try:
            fock.coherent_state(params, max(fock.choose_truncation(params, 1e-12), 16))
        except (TruncationTooSmall, InvalidParam):
            if self.tracer is not None:
                self.tracer.add("fock.cutoff_rejected")

    def _profile(self, rng, magnitude: float, dn: float):
        phase = _phase(rng)
        n_max = self.CUTOFF[magnitude]
        half = 3.0 * magnitude
        step = 2.0 * half / (self.GRID_POINTS - 1)
        grid = magnitude**2 - half + rng.uniform(0.0, step) + step * np.arange(self.GRID_POINTS)
        probes = np.sort(rng.choice(self.GRID_POINTS, PROBES, replace=False))

        def run():
            params = fock.CoherentParams(magnitude, phase)
            self._default_cutoff(params)
            state = fock.coherent_state(params, n_max)
            density = measurement.outcome_density(state, grid, dn)
            field = measurement.coherence_after(state, grid, dn)
            report = approx.error_report(params, dn, n_max)
            return density, field, report

        def check(output):
            density, field, report = output
            amps = oracle.coherent_amplitudes(magnitude, phase, n_max)
            return oracle.check_profile(
                amps, grid[probes], dn, density[probes], field[probes]
            ) + oracle.check_profile(
                amps, report.probe_points, dn, report.exact_probability, report.exact_coherence
            )

        return run, check

    def _quadrature(self, rng, magnitude: float):
        phase = _phase(rng)
        n_max = self.CUTOFF[magnitude]
        dn = self.QUADRATURE_DELTA_N
        config = measurement.MeasurementConfig.adequate(dn, n_max)

        def run():
            params = fock.CoherentParams(magnitude, phase)
            self._default_cutoff(params)
            return correlations.quantization_coherence_correlation(params, config, n_max)

        def check(report):
            errors = [] if report.consistent else [f"report inconsistent: {report.analytic_deltas}"]
            return errors + oracle.check_correlation(
                _alpha(magnitude, phase), dn, report.q_bar, report.avg_coherence, report.correlation
            )

        return run, check


class DimTables(Workload):
    """The paper's standard state through ``qnd figure 1-5`` and ``qnd sweep``."""

    name = "dim-tables"

    ALPHA = 3.0
    N_MAX = 37
    FIGURE_RESOLUTION = {1: 0.7, 2: 0.4, 3: 0.3, 4: 0.2}
    PROFILE_GRID = 0.02 * np.arange(1001)
    SWEEP = ["--dn-min", "0.1", "--dn-max", "1.0", "--dn-step", "0.002"]
    SWEEP_GRID = 0.1 + 0.002 * np.arange(451)
    COMMANDS = (
        ["figure", "1"], ["figure", "2"], ["figure", "3"], ["figure", "4"],
        ["figure", "5"], ["sweep", *SWEEP],
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        # Two passes with the formats swapped, so every command is written in
        # both CSV and JSON once per cycle.
        for rep in (0, 1):
            for i, command in enumerate(self.COMMANDS):
                fmt = ("csv", "json")[(rep + i) % 2]
                label = " ".join(command[:2]) if command[0] == "figure" else command[0]
                self.cycle.append((f"{label} {fmt}", self._table, (command, fmt)))

    def _table(self, rng, command: list[str], fmt: str):
        phase = _phase(rng)
        argv = [*command, "--alpha", repr(self.ALPHA), "--phase", repr(phase), "--format", fmt]
        profile = command[0] == "figure" and command[1] != "5"
        rows = (self.PROFILE_GRID if profile else self.SWEEP_GRID).size
        probes = np.sort(rng.choice(rows, PROBES, replace=False))

        def run():
            return run_cli(argv, self.tracer)

        def check(text):
            columns = read_table(text, fmt)
            amps = oracle.coherent_amplitudes(self.ALPHA, phase, self.N_MAX)
            if profile:
                return self._check_profile_table(int(command[1]), columns, amps, probes)
            return self._check_resolution_table(command[0], columns, amps, probes)

        return run, check

    def _check_profile_table(self, figure: int, columns, amps, probes) -> list[str]:
        dn = self.FIGURE_RESOLUTION[figure]
        n_m = columns["n_m"]
        errors = oracle.mismatch("n_m column", n_m, self.PROFILE_GRID, rtol=0.0, atol=1e-9)
        if errors:
            return errors
        x = n_m[probes]
        density, field = oracle.windowed(amps, x, dn)
        errors += oracle.mismatch("p_exact", columns["p_exact"][probes], density)
        errors += oracle.mismatch("a_f_exact", columns["a_f_exact"][probes], np.abs(field))

        nbar = self.ALPHA**2
        fringe_p, fringe_a = oracle.lowest_order_abs(nbar, dn, n_m)
        classical_p = oracle.classical_probability(nbar, n_m)
        classical_a = oracle.classical_coherence_abs(dn, n_m)
        dashed = {
            1: (classical_p, classical_a),
            2: (fringe_p, fringe_a),
            3: (fringe_p, fringe_a),
            4: (fringe_p, classical_a),
        }[figure]
        errors += oracle.mismatch("p_approx", columns["p_approx"], dashed[0])
        errors += oracle.mismatch("a_f_dashed", columns["a_f_dashed"], dashed[1])
        if figure in (2, 3):
            anchor = math.floor(nbar)
            errors += oracle.mismatch(
                "p_mod_norm", columns["p_mod_norm"][probes],
                density / oracle.classical_probability(nbar, anchor),
            )
            errors += oracle.mismatch(
                "a_f_mod_norm", columns["a_f_mod_norm"][probes],
                np.abs(field) / oracle.classical_coherence_abs(dn, anchor),
            )
        return errors

    def _check_resolution_table(self, command: str, columns, amps, probes) -> list[str]:
        errors = oracle.mismatch(
            "delta_n column", columns["delta_n"], self.SWEEP_GRID, rtol=0.0, atol=1e-9
        )
        if errors:
            return errors
        errors += oracle.check_resolution_columns(columns)
        if command == "sweep":
            nbar = self.ALPHA**2
            want = [
                oracle.lowest_order_coherence_error(amps, nbar, float(dn))
                for dn in columns["delta_n"][probes]
            ]
            errors += oracle.mismatch(
                "coh_err_vs_exact", columns["coh_err_vs_exact"][probes], np.array(want),
                atol=1e-12,
            )
        return errors


class Trajectories(Workload):
    """Sequential readouts: CLI shots, martingale batches, a long collapse, phase diffusion."""

    name = "trajectories"

    DIM = {"alpha": 3.0, "n_max": 37}
    BRIGHT = {"alpha": 25.0, "n_max": 1015}
    SAMPLE = {"delta_n": 0.3, "count": 2000}
    MARTINGALE = {"delta_n": 1.0, "runs": 1000, "bins": np.arange(6, 13)}
    COLLAPSE = {"delta_n": 2.0, "count": 200}
    DIFFUSION = {"delta_n": 0.3, "samples": 100_000}

    def __init__(self, seed: int):
        super().__init__(seed)
        setup = _rng(seed, 0)
        self.phase = _phase(setup)
        self.dim_amps = oracle.coherent_amplitudes(self.DIM["alpha"], self.phase, self.DIM["n_max"])
        self.bright_amps = oracle.coherent_amplitudes(
            self.BRIGHT["alpha"], self.phase, self.BRIGHT["n_max"]
        )
        self.dim_state = fock.coherent_state(
            fock.CoherentParams(self.DIM["alpha"], self.phase), self.DIM["n_max"]
        )
        self.bright_state = fock.coherent_state(
            fock.CoherentParams(self.BRIGHT["alpha"], self.phase), self.BRIGHT["n_max"]
        )
        # The 200-pass collapse is short, so it runs five times per cycle; the
        # median op is then a collapse, not the boundary between two kinds.
        collapse = ("collapse a=25", self._collapse, ())
        self.cycle = [
            collapse,
            ("sample a=3", self._sample, ()),
            collapse,
            ("martingale a=3", self._martingale, ()),
            collapse,
            ("phase diffusion a=3", self._diffusion, ()),
            collapse,
            collapse,
        ]

    def _sample(self, rng):
        dn, count = self.SAMPLE["delta_n"], self.SAMPLE["count"]
        argv = [
            "sample", "--dn", repr(dn), "--count", str(count),
            "--seed", str(int(rng.integers(2**31))),
            "--alpha", repr(self.DIM["alpha"]), "--phase", repr(self.phase), "--format", "json",
        ]
        probes = np.sort(rng.choice(count, PROBES, replace=False))

        def run():
            return run_cli(argv, self.tracer)

        def check(text):
            columns = read_table(text, "json")
            outcomes = columns["n_m"]
            errors = oracle.mismatch("step column", columns["step"], np.arange(count), rtol=0.0)
            if errors:
                return errors
            n = np.arange(self.dim_amps.size)
            for row in probes:
                p = oracle.posterior_probabilities(self.dim_amps, outcomes[: row + 1], dn)
                mean = float(np.sum(n * p))
                field = float(np.sum(np.sqrt(p[:-1] * p[1:] * n[1:])))
                errors += oracle.mismatch(
                    f"post_mean_n row {row}", columns["post_mean_n"][row], mean, atol=1e-9
                )
                errors += oracle.mismatch(
                    f"post_var_n row {row}", columns["post_var_n"][row],
                    float(np.sum(n * n * p)) - mean**2, atol=1e-9,
                )
                errors += oracle.mismatch(
                    f"a_f_abs row {row}", columns["a_f_abs"][row], field, atol=1e-9
                )
            level = round(float(columns["post_mean_n"][-1]))
            return errors + oracle.check_within_se(
                "mean outcome around the collapsed level", float(outcomes.mean()), level,
                dn / math.sqrt(count),
            )

        return run, check

    def _martingale(self, rng):
        dn, runs, bins = self.MARTINGALE["delta_n"], self.MARTINGALE["runs"], self.MARTINGALE["bins"]
        state = self.dim_state

        def run():
            finals = np.empty((runs, bins.size))
            first = None
            for i in range(runs):
                trajectory = trajectories.repeated_measurement(state, dn, 2, rng)
                finals[i] = trajectory.final_state.probabilities()[bins]
                if first is None:
                    first = trajectory
            return finals, first

        def check(output):
            finals, first = output
            prior = np.abs(self.dim_amps[bins]) ** 2
            stderr = finals.std(axis=0, ddof=1) / math.sqrt(runs)
            errors = []
            for k, level in enumerate(bins):
                errors += oracle.check_within_se(
                    f"posterior mean of p_{level}", float(finals[:, k].mean()), float(prior[k]),
                    float(stderr[k]),
                )
            return errors + oracle.mismatch(
                "two-pass posterior", first.final_state.probabilities(),
                oracle.posterior_probabilities(self.dim_amps, first.outcomes, dn), atol=1e-15,
            )

        return run, check

    def _collapse(self, rng):
        dn, count = self.COLLAPSE["delta_n"], self.COLLAPSE["count"]

        def run():
            return trajectories.repeated_measurement(self.bright_state, dn, count, rng)

        def check(trajectory):
            final = trajectory.final_state
            effective = trajectories.effective_post_state(self.bright_state, trajectory.outcomes, dn)
            fid = abs(np.vdot(effective.amplitudes, final.amplitudes)) ** 2
            errors = [] if fid >= 1.0 - 1e-10 else [f"fidelity to effective state {fid!r}"]
            return errors + oracle.mismatch(
                "200-pass posterior", final.probabilities(),
                oracle.posterior_probabilities(self.bright_amps, trajectory.outcomes, dn),
                atol=1e-12,
            )

        return run, check

    def _diffusion(self, rng):
        dn, samples = self.DIFFUSION["delta_n"], self.DIFFUSION["samples"]
        params = fock.CoherentParams(self.DIM["alpha"], self.phase)

        def run():
            return trajectories.phase_diffusion_equivalence(params, dn, samples, rng)

        def check(result):
            target = float(oracle.decoherence(dn))
            return (
                oracle.mismatch("analytic ratio", result.analytic_ratio, target)
                + oracle.check_within_se(
                    "measurement-averaged ratio", result.measurement_ratio, target,
                    result.measurement_stderr,
                )
                + oracle.check_within_se(
                    "phase-rotation ratio", result.dephasing_ratio, target, result.dephasing_stderr
                )
            )

        return run, check


WORKLOADS = {w.name: w for w in (BrightKernel, DimTables, Trajectories)}


def start(name: str, seed: int) -> Workload:
    """Build a workload's inputs and run its warm-up op: what ``setup_s`` times."""
    workload = WORKLOADS[name](seed)
    workload.warm_up()
    return workload


def self_test() -> list[str]:
    """Show that the checks flag a perturbed density and a wrong closed form.

    Returns the ways in which they did not; empty means the checks work.
    """
    problems = []
    magnitude, phase, n_max, dn = 3.0, 0.4, 37, 0.3
    amps = oracle.coherent_amplitudes(magnitude, phase, n_max)
    state = fock.coherent_state(fock.CoherentParams(magnitude, phase), n_max)
    x = np.array([6.0, 8.5, 9.25, 12.0])
    density = measurement.outcome_density(state, x, dn)
    field = measurement.coherence_after(state, x, dn)
    if oracle.check_profile(amps, x, dn, density, field):
        problems.append("oracle rejects the program's density")
    perturbed = density * np.array([1.0, 1.0, 1.0 + 10 * oracle.RTOL, 1.0])
    if not oracle.check_profile(amps, x, dn, perturbed, field):
        problems.append("oracle accepts a density perturbed by 10 x its tolerance")

    config = measurement.MeasurementConfig.adequate(dn, n_max)
    report = correlations.quantization_coherence_correlation(
        fock.CoherentParams(magnitude, phase), config, n_max
    )
    alpha = _alpha(magnitude, phase)
    if oracle.check_correlation(alpha, dn, report.q_bar, report.avg_coherence, report.correlation):
        problems.append("closed forms reject the program's quadrature")
    wrong_q = math.exp(-math.pi**2 * dn**2)
    if not oracle.check_correlation(alpha, dn, wrong_q, report.avg_coherence, report.correlation):
        problems.append("closed forms accept q_bar = exp(-pi^2 dn^2)")
    dns = np.array([0.2, 0.3, 0.7])
    columns = {
        "delta_n": dns,
        "q_bar": oracle.q_bar(dns),
        "c_over_alpha": 2.0 * oracle.q_bar(dns) * oracle.decoherence(dns),
        "decoherence_factor": np.exp(-1.0 / (4.0 * dns**2)),
    }
    if not oracle.check_resolution_columns(columns):
        problems.append("table check accepts decoherence_factor = exp(-1/(4 dn^2))")
    return problems
