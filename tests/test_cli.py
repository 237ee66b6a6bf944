import json
import math

import numpy as np
import pytest

from qndsim import CoherentParams, classical_coherence
from qndsim import cli, figures
from qndsim.errors import InvalidParam


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


class TestSampleTable:
    def test_deterministic(self):
        a = figures.sample_table(None, 0.3, 5, 123)
        b = figures.sample_table(None, 0.3, 5, 123)
        assert a.rows == b.rows
        assert len(a.rows) == 5


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
    def test_invalid_figure_id(self, capsys):
        assert cli.main(["figure", "9"]) == 2
        capsys.readouterr()

    def test_invalid_params(self, capsys):
        assert cli.main(["figure", "3", "--alpha", "-1"]) == 2
        assert cli.main(["sample", "--dn", "-0.5", "--count", "3", "--seed", "1"]) == 2
        capsys.readouterr()

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
