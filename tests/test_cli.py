import inspect
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim import CoherentParams, MeasurementConfig, classical_coherence, coherent_state
from qndsim import __version__, approx, cli, correlations, figures, measurement
from qndsim.trajectories import repeated_measurement
from qndsim.errors import InvalidParam
from test_fock import run_limited


def read_csv(path):
    header = {}
    columns = None
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                header[key.strip()] = value.strip()
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return header, columns, np.array(rows)


class TestFigureTables:
    def test_profile_columns(self):
        table = figures.figure_table(1)
        assert table.columns == ["n_m", "p_exact", "p_approx", "a_f_exact", "a_f_dashed"]
        table = figures.figure_table(3)
        assert table.columns[-2:] == ["p_mod_norm", "a_f_mod_norm"]

    def test_figure3_point_ratio(self):
        table = figures.figure_table(3)
        rows = {row[0]: row for row in table.rows}
        ratio = rows[9.0][1] / rows[9.5][1]
        # integer outcomes about twice as likely; the raw point ratio also
        # carries the envelope slope of the number distribution
        assert 1.9 < ratio < 2.3

    def test_figure4_dashed_coherence_is_classical(self):
        table = figures.figure_table(4)
        idx = table.columns.index("a_f_dashed")
        params = CoherentParams(3.0, 0.0)
        for row in table.rows[::100]:
            expected = abs(classical_coherence(params, 0.2, row[0]))
            assert row[idx] == pytest.approx(expected, rel=1e-12)

    def test_figure2_normalization_anchor(self):
        table = figures.figure_table(2)
        rows = {row[0]: row for row in table.rows}
        i_p = table.columns.index("p_mod_norm")
        i_a = table.columns.index("a_f_mod_norm")
        p_ref = (18 * math.pi) ** -0.5
        a_ref = abs(classical_coherence(CoherentParams(3.0), 0.4, 9.0))
        assert rows[9.0][i_p] == pytest.approx(rows[9.0][1] / p_ref, rel=1e-12)
        assert rows[9.0][i_a] == pytest.approx(rows[9.0][3] / a_ref, rel=1e-12)

    def test_figure5_peak_location(self):
        table = figures.figure_table(5, dn_min=0.26, dn_max=0.30, dn_step=0.002)
        c_col = table.columns.index("c_over_alpha")
        best = max(table.rows, key=lambda row: row[c_col])
        assert best[0] == pytest.approx(0.282, abs=1e-9)

    def test_resolution_override(self):
        table = figures.figure_table(1, delta_n=0.3)
        assert table.config["delta_n"] == 0.3
        reference = figures.figure_table(3)
        rows = {row[0]: row[1] for row in table.rows}
        ref_rows = {row[0]: row[1] for row in reference.rows}
        assert rows[9.0] == pytest.approx(ref_rows[9.0], rel=1e-12)

    def test_invalid_id(self):
        with pytest.raises(InvalidParam):
            figures.figure_table(6)


class TestSweepTable:
    def test_q_bar_column(self):
        table = figures.sweep_table(None, 0.38, 0.44, 0.02)
        q = [row[1] for row in table.rows]
        assert all(b < a for a, b in zip(q, q[1:]))  # monotone decreasing
        assert table.rows[1][0] == pytest.approx(0.40)
        assert table.rows[1][1] == pytest.approx(0.0425, abs=5e-4)

    def test_correlation_peak_row(self):
        table = figures.sweep_table(None, 0.2781, 0.2861, 0.0004)
        c_col = table.columns.index("c_over_alpha")
        best = max(table.rows, key=lambda row: row[c_col])
        assert abs(best[0] - 1 / (2 * math.sqrt(math.pi))) < 5e-4


    def test_shares_figure5_loop(self):
        figure = figures.figure_table(5, dn_min=0.25, dn_max=0.35, dn_step=0.05)
        sweep = figures.sweep_table(None, 0.25, 0.35, 0.05)
        for name in ("delta_n", "q_bar", "c_over_alpha"):
            column = [row[figure.columns.index(name)] for row in figure.rows]
            assert column == [row[sweep.columns.index(name)] for row in sweep.rows]

    def test_builds_the_state_once(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return coherent_state(*args, **kwargs)

        for module in (figures, correlations, approx):
            monkeypatch.setattr(module, "coherent_state", counting)
        assert len(figures.sweep_table(None, 0.25, 0.35, 0.05).rows) == 3
        assert len(built) == 1

    @pytest.mark.parametrize("alpha", [3.0, 30.0, 100.0])
    def test_columns_equal_correlation_reports(self, alpha):
        params = CoherentParams(alpha, 1.234)
        n_max = coherent_state(params).n_max
        sweep = figures.sweep_table(params, 0.2, 1.0, 0.2)
        figure = figures.figure_table(5, params, dn_min=0.2, dn_max=1.0, dn_step=0.2)
        assert len(sweep.rows) == 5
        for table in (sweep, figure):
            for row in table.rows:
                cell = dict(zip(table.columns, row))
                report = correlations.quantization_coherence_correlation(
                    params, MeasurementConfig.adequate(cell["delta_n"], n_max)
                )
                assert cell["q_bar"] == report.q_bar
                assert cell["c_over_alpha"] == abs(report.correlation) / alpha
                if "avg_coherence_factor" in cell:
                    assert cell["avg_coherence_factor"] == abs(report.avg_coherence) / alpha


class TestSampleTable:
    def test_deterministic(self):
        a = figures.sample_table(None, 0.3, 5, 123)
        b = figures.sample_table(None, 0.3, 5, 123)
        assert a.rows == b.rows
        assert len(a.rows) == 5

    def test_seed_must_be_an_integer(self):
        # 2.5 ran as seed 2 and echoed seed=2 in the table's config.
        with pytest.raises(InvalidParam, match="seed must be an integer"):
            figures.sample_table(None, 0.3, 5, 2.5)
        assert figures.sample_table(None, 0.3, 5, np.int64(2)).config["seed"] == 2

    def test_one_walk_per_table(self, monkeypatch):
        # The rows are the moments a Trajectory reads on first access, from one
        # walk over the passes rather than a call-time walk and a second one.
        trajectory = repeated_measurement(coherent_state(CoherentParams(3.0)), 0.3, 2000, 5)
        walks = []
        walk = measurement._sequential_posteriors
        signature = inspect.signature(walk)

        def recording(*args, **kwargs):
            # The flag as the walk binds it, given by keyword, by position or defaulted.
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            walks.append(bound.arguments["moments"])
            return walk(*args, **kwargs)

        monkeypatch.setattr(measurement, "_sequential_posteriors", recording)
        table = figures.sample_table(None, 0.3, 2000, 5)
        assert walks == [True]
        columns = dict(zip(table.columns, np.array(table.rows).T))
        assert np.array_equal(columns["n_m"], trajectory.outcomes)
        assert np.array_equal(columns["post_mean_n"], trajectory.mean_n)
        assert np.array_equal(columns["post_var_n"], trajectory.var_n)
        assert np.array_equal(columns["a_f_abs"], trajectory.coherence_mag)


class TestCliFiles:
    def test_csv_format(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert cli.main(["figure", "3", "--out", str(out)]) == 0
        header, columns, rows = read_csv(out)
        assert header["qnd figure 3"] == "" or "columns" in header
        assert header["version"] == "0.1.0"
        assert "delta_n=0.3" in header["config"]
        assert columns[0] == "n_m"
        assert rows.shape[0] == 1001
        # floats are printed with 12 significant digits
        with open(out, encoding="utf-8") as handle:
            for line in handle:
                if not line.startswith("#") and "." in line:
                    cell = line.split(",")[1]
                    assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 13
                    break

    def test_csv_deterministic(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        cli.main(["sample", "--dn", "0.3", "--count", "4", "--seed", "9", "--out", str(first)])
        cli.main(["sample", "--dn", "0.3", "--count", "4", "--seed", "9", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_negative_float_in_exponent_form(self, tmp_path):
        # argparse (Python 3.11 among others) reads only -1 and -1.5 as negative numbers.
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        phase = "-3.119515746874413e-05"
        assert cli.main(["figure", "3", "--phase", phase, "--out", str(spaced)]) == 0
        assert cli.main(["figure", "3", f"--phase={phase}", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_abbreviated_option_takes_a_negative_exponent_value(self, tmp_path, capsys):
        # A prefix names its option as argparse resolves it, within the subcommand.
        short, joined = tmp_path / "short.csv", tmp_path / "joined.csv"
        assert cli.main(["figure", "3", "--pha", "-1e-5", "--out", str(short)]) == 0
        assert cli.main(["figure", "3", "--phase=-1e-05", "--out", str(joined)]) == 0
        assert short.read_bytes() == joined.read_bytes()
        # --dn-m starts both --dn-min and --dn-max: argparse refuses it.
        assert cli.main(["figure", "5", "--dn-m", "-1e-5"]) == 2
        assert "ambiguous option: --dn-m" in capsys.readouterr().err

    def test_json_schema(self, tmp_path):
        out = tmp_path / "fig1.json"
        assert cli.main(["figure", "1", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "columns", "rows", "version"}
        assert payload["version"] == "0.1.0"
        assert payload["config"]["command"] == "figure 1"
        assert len(payload["rows"][0]) == len(payload["columns"])

    def test_json_deterministic(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        args = ["sweep", "--dn-min", "0.3", "--dn-max", "0.32", "--dn-step", "0.01",
                "--format", "json"]
        cli.main(args + ["--out", str(first)])
        cli.main(args + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


# Table cells: any double, with the ones whose text is easy to get wrong
# (nan, infinities, signed zero, subnormals, the largest magnitudes and
# integers stored as floats) drawn often.
_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310, 1e308, -1.7e308]),
    st.integers(-(2**53), 2**53).map(float),
)


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 8))
    count = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 50)))
    rows = draw(st.lists(
        st.lists(_CELLS, min_size=width, max_size=width), min_size=count, max_size=count
    ))
    config = {
        "alpha": draw(st.floats(0.0, 1e4)), "phase": draw(_CELLS), "seed": draw(st.integers())
    }
    return figures.Table(columns=[f"c{i}" for i in range(width)], rows=rows, config=config)


class TestWriterBytes:
    """The writers print each value as the per-value formatting did."""

    @settings(deadline=None)
    @given(_tables(), st.sampled_from(["figure 5", "sweep", "sample"]))
    def test_csv(self, table, title):
        handle = io.StringIO()
        cli.write_csv(handle, table, title)
        header = [
            f"# qnd {title}",
            f"# version: {__version__}",
            f"# config: {cli._config_echo(table.config)}",
            f"# columns: {','.join(table.columns)}",
            ",".join(table.columns),
        ]
        body = [",".join(f"{v:.12g}" for v in row) for row in table.rows]
        assert handle.getvalue() == "".join(line + "\n" for line in header + body)

    @pytest.mark.parametrize("extra", [-1, 0, 1, cli._CSV_CHUNK + 3])
    def test_csv_rows_across_writes(self, extra):
        count = cli._CSV_CHUNK + extra
        rows = [[k / 7.0, -float(k)] for k in range(count)]
        table = figures.Table(columns=["x", "y"], rows=rows, config={"alpha": 3.0})
        handle = io.StringIO()
        cli.write_csv(handle, table, "figure 1")
        lines = handle.getvalue().splitlines()[5:]
        assert lines == [f"{x:.12g},{y:.12g}" for x, y in rows]

    @settings(deadline=None)
    @given(_tables(), st.sampled_from(["figure 5", "sweep", "sample"]))
    def test_json(self, table, title):
        handle = io.StringIO()
        cli.write_json(handle, table, title)
        payload = {
            "config": {"command": title, **table.config},
            "columns": table.columns,
            "rows": table.rows,
            "version": __version__,
        }
        expected = io.StringIO()
        json.dump(payload, expected, sort_keys=True, separators=(",", ":"))
        assert handle.getvalue() == expected.getvalue() + "\n"

    @pytest.mark.parametrize("count", [0, 1001, 2 * cli._JSON_CHUNK + 7])
    def test_json_rows_across_writes(self, count):
        rows = [[k / 7.0, -float(k), math.nan if k % 5 else -0.0] for k in range(count)]
        table = figures.Table(columns=["x", "y", "z"], rows=rows, config={"alpha": 3.0})
        handle = io.StringIO()
        cli.write_json(handle, table, "figure 1")
        payload = {
            "config": {"command": "figure 1", "alpha": 3.0},
            "columns": ["x", "y", "z"],
            "rows": rows,
            "version": __version__,
        }
        assert handle.getvalue() == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class TestRangeEnds:
    """Tables stop at the last step that does not pass the requested end."""

    def test_sweep_stops_before_dn_max(self, capsys):
        argv = ["sweep", "--dn-min", "0.1", "--dn-max", "0.37", "--dn-step", "0.1",
                "--format", "json"]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row[0] for row in payload["rows"]] == pytest.approx([0.1, 0.2, 0.3])

    def test_profile_grid_stops_before_grid_max(self, capsys):
        argv = ["figure", "1", "--grid-min", "0", "--grid-max", "1.07", "--grid-step", "0.1",
                "--format", "json"]
        assert cli.main(argv) == 0
        grid = [row[0] for row in json.loads(capsys.readouterr().out)["rows"]]
        assert grid == pytest.approx([0.1 * k for k in range(11)])


class TestBrightFields:
    def test_sample(self, tmp_path):
        out = tmp_path / "sample.csv"
        argv = ["sample", "--dn", "0.3", "--count", "50", "--seed", "4", "--alpha", "25"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert rows.shape == (50, 5)
        # the posterior has collapsed onto one level within the field's spread
        assert rows[-1, columns.index("post_var_n")] < 1e-6
        assert abs(rows[-1, columns.index("post_mean_n")] - 625.0) < 8 * 25.0

    @pytest.mark.parametrize("alpha", [28.0, 60.0, 100.0])
    def test_figure3(self, tmp_path, alpha):
        out = tmp_path / "fig3.csv"
        assert cli.main(["figure", "3", "--alpha", repr(alpha), "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        # the default grid follows the field: 20 units from 10 below <n>
        assert rows[0, 0] == alpha**2 - 10 and rows[-1, 0] == alpha**2 + 10
        # near <n> the single-harmonic fringe formulas hold to a few percent
        assert np.allclose(
            rows[:, columns.index("p_approx")], rows[:, columns.index("p_exact")], rtol=0.02
        )
        assert np.allclose(
            rows[:, columns.index("a_f_dashed")], rows[:, columns.index("a_f_exact")], rtol=0.02
        )

    @pytest.mark.parametrize("command", [["sweep"], ["figure", "5"]])
    @pytest.mark.parametrize("alpha", [30.0, 60.0, 100.0])
    def test_resolution_sweep(self, capsys, command, alpha):
        argv = command + ["--alpha", repr(alpha), "--dn-min", "0.25", "--dn-max", "0.35",
                          "--dn-step", "0.05", "--format", "json"]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 3
        for row in payload["rows"]:
            cells = dict(zip(payload["columns"], row))
            dn = cells["delta_n"]
            q_bar = math.exp(-2.0 * math.pi**2 * dn * dn)
            assert abs(cells["q_bar"] - q_bar) < 1e-12
            assert abs(cells["c_over_alpha"] - 2.0 * q_bar * math.exp(-1.0 / (8 * dn * dn))) < 1e-9

    @pytest.mark.parametrize("alpha", [28.0, 100.0])
    def test_grid_outside_support(self, capsys, alpha):
        argv = ["figure", "3", "--alpha", repr(alpha), "--grid-min", "0", "--grid-max", "20"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid [0, 20]" in captured.err
        assert f"<n> = {alpha**2:g}" in captured.err


class TestExitCodes:
    def test_window_between_levels(self, capsys):
        # The default grid [0, 20] lies on the state, but at dn = 0.01 the
        # density underflows between levels.
        assert cli.main(["figure", "3", "--dn", "0.01"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "with delta_n = 0.01 falls between levels" in captured.err
        assert "outside" not in captured.err

    def test_huge_alpha_refused_before_allocating(self):
        child = run_limited("-m", "qndsim.cli", "figure", "1", "--alpha", "1e5")
        assert child.returncode == 2
        assert child.stdout == ""
        assert child.stderr == "error: a basis of 10000703457 levels exceeds 10000000 levels\n"

    def test_mean_past_the_summed_range_refused(self):
        # The cutoff of alpha 1e8 would take 5e8 Poisson terms to sum.
        child = run_limited("-m", "qndsim.cli", "figure", "1", "--alpha", "1e8")
        assert child.returncode == 2
        assert child.stdout == ""
        assert child.stderr == (
            "error: |alpha|^2 = 1e+16 lies above 1e+12, the largest mean whose cutoff is summed\n"
        )

    def test_invalid_figure_id(self, capsys):
        assert cli.main(["figure", "9"]) == 2
        capsys.readouterr()

    def test_invalid_params(self, capsys):
        assert cli.main(["figure", "3", "--alpha", "-1"]) == 2
        assert cli.main(["sample", "--dn", "-0.5", "--count", "3", "--seed", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "1", "--grid-step", "nan"],
            ["figure", "1", "--grid-max", "inf"],
            ["figure", "1", "--grid-min", "nan"],
            ["figure", "1", "--grid-min=-inf", "--grid-max", "20"],
            ["sweep", "--dn-min", "0.1", "--dn-max", "0.2", "--dn-step", "nan"],
            ["sweep", "--dn-min", "0.1", "--dn-max", "inf", "--dn-step", "0.1"],
            ["figure", "5", "--dn-max", "inf"],
            ["figure", "1", "--grid-min", "-inf", "--grid-max", "20"],
        ],
    )
    def test_non_finite_range(self, capsys, argv):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "1", "--grid-max", "1e300"],
            ["figure", "1", "--grid-max", "2e7"],
            ["sweep", "--dn-min", "0.1", "--dn-max", "1e300", "--dn-step", "0.1"],
        ],
    )
    def test_huge_finite_range(self, capsys, argv):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rows" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "5", "--alpha", "0"],
            ["sweep", "--dn-min", "0.1", "--dn-max", "0.2", "--dn-step", "0.05", "--alpha", "0"],
        ],
    )
    def test_dark_field_resolution_sweep(self, capsys, argv):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "requires a bright field" in captured.err

    @pytest.mark.parametrize("dn_min", ["0.01", "0.013"])
    def test_fine_sweep_names_the_vanishing_error_probe(self, capsys, dn_min):
        argv = ["sweep", "--dn-min", dn_min, "--dn-max", "0.1", "--dn-step", "0.01"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: error probe n_m = 9.5 has outcome density below 1e-300 at delta_n = {dn_min}\n"
        )

    def test_negative_seed(self, capsys):
        assert cli.main(["sample", "--dn", "0.3", "--count", "3", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be non-negative" in captured.err

    def test_zero_count(self, capsys):
        assert cli.main(["sample", "--dn", "0.3", "--count", "0", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: count must be at least 1\n"

    def test_io_error(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert cli.main(["figure", "1", "--out", str(missing)]) == 3
        capsys.readouterr()

    def test_verify_unknown_group(self, capsys):
        assert cli.main(["verify", "--only", "bogus"]) == 2
        capsys.readouterr()

    def test_verify_group_passes(self, capsys):
        assert cli.main(["verify", "--only", "parity"]) == 0
        out = capsys.readouterr().out
        assert "RESULT 1/1 criteria passed" in out
        assert "PASS" in out

    def test_verify_reports_each_check(self, capsys):
        assert cli.main(["verify", "--only", "fringe"]) == 0
        out = capsys.readouterr().out
        assert "value=" in out and "expected=" in out and "tol=" in out


class TestParserReuse:
    """One parser per process: a call leaves nothing behind for the next."""

    ARGV = (
        ["figure", "1", "--grid-max", "2", "--grid-step", "0.5"],
        ["sweep", "--dn-min", "0.2", "--dn-max", "0.4", "--dn-step", "0.1", "--format", "json"],
        ["sample", "--dn", "0.5", "--count", "3", "--seed", "7"],
        ["figure", "5", "--dn-min", "0.3", "--dn-max", "0.5", "--dn-step", "0.1", "--alpha", "2"],
        ["figure", "2", "--dn", "0.45", "--format", "json", "--grid-step", "1"],
    )

    @staticmethod
    def run(argv, capsys):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return captured.out, captured.err, code

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_match_separate_parsers(self, capsys):
        together = [self.run(argv, capsys) for argv in self.ARGV]
        apart = []
        for argv in self.ARGV:
            cli.build_parser.cache_clear()
            apart.append(self.run(argv, capsys))
        assert together == apart
        assert all(code == 0 for _, _, code in together)

    def test_matches_a_separate_process(self, capsys):
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        for argv in self.ARGV[:2]:
            self.run(self.ARGV[2], capsys)
            child = subprocess.run(
                [sys.executable, "-m", "qndsim.cli", *argv], capture_output=True, text=True, env=env
            )
            assert self.run(argv, capsys) == (child.stdout, child.stderr, child.returncode)

    def test_version_and_bad_arguments_after_reuse(self, capsys):
        for _ in range(2):
            assert self.run(["--version"], capsys) == (f"qnd {__version__}\n", "", 0)
            out, err, code = self.run(["figure", "9"], capsys)
            assert (out, code) == ("", 2) and "invalid choice: 9" in err
            out, err, code = self.run(["bogus"], capsys)
            assert (out, code) == ("", 2) and "invalid choice: 'bogus'" in err
            assert self.run(self.ARGV[0], capsys)[2] == 0


class TestMutationDetection:
    def test_phase_noise_mutation_fails_verify(self, monkeypatch, capsys):
        # a 1% error in the equivalent-noise formula must trip the phase checks
        from qndsim import measurement

        monkeypatch.setattr(
            measurement,
            "equivalent_phase_noise",
            lambda dn: 1.01 / (4.0 * dn * dn),
        )
        assert cli.main(["verify", "--only", "phase"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
