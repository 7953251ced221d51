import csv
import json

import numpy as np
import pytest

from projlind import cli, config, presets
from projlind.model import DensityMatrix, Hamiltonian, ProjectorFamily, Scenario

NON_ORTHOGONAL = {
    "dimension": 2,
    "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    "projectors": [
        {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "rate": 1.0},
        {"matrix": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]], "rate": 1.0},
    ],
    "initial_state": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
    "time_grid": [0.0, 1.0],
}


def write_preset(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(presets.preset_text(name))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRun:
    def test_compare_mode_writes_csv(self, tmp_path, capsys):
        cfg = write_preset(tmp_path, "qubit-dephasing")
        out = tmp_path / "report.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == list(cli.CSV_COLUMNS)
        assert len(rows) - 1 == 9  # grid length
        # H = 0 means the approximation is exact on this preset
        assert all(float(r[1]) <= 1e-10 for r in rows[1:])
        stdout = capsys.readouterr().out
        assert "max trace distance" in stdout
        assert "worst positivity violation" in stdout

    def test_driven_qubit_summary_reports_second_order(self, tmp_path, capsys):
        cfg = write_preset(tmp_path, "driven-qubit")
        out = tmp_path / "report.csv"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        line = next(l for l in stdout.splitlines() if "convergence order" in l)
        order = float(line.split(":")[1])
        assert order == pytest.approx(2.0, abs=0.1)

    def test_non_orthogonal_config_exits_1_naming_pair(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(NON_ORTHOGONAL))
        out = tmp_path / "report.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "(0, 1)" in err and "orthogonal" in err
        assert not out.exists()

    def test_missing_config_exits_3(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "r.csv")])
        assert code == 3
        assert "cannot read" in capsys.readouterr().err

    def test_unwritable_out_exits_3(self, tmp_path, capsys):
        cfg = write_preset(tmp_path, "qubit-dephasing")
        out = tmp_path / "no" / "such" / "dir" / "report.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "cannot write" in capsys.readouterr().err

    def test_propagation_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        cfg = write_preset(tmp_path, "qubit-dephasing")
        out = tmp_path / "report.csv"

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr("projlind.analysis.exact_propagate", boom)
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "propagation failed" in capsys.readouterr().err

    def test_exact_only_leaves_approx_columns_nan(self, tmp_path):
        cfg = write_preset(tmp_path, "qubit-dephasing")
        out = tmp_path / "report.csv"
        assert cli.main(["run", "--config", str(cfg), "--mode", "exact-only",
                         "--out", str(out)]) == 0
        rows = read_csv(out)
        header = rows[0]
        for row in rows[1:]:
            rec = dict(zip(header, row))
            assert rec["approx_trace_re"] == "nan"
            assert rec["trace_distance"] == "nan"
            assert abs(float(rec["exact_trace_re"]) - 1.0) <= 1e-10

    def test_approx_only_never_touches_exact_path(self, tmp_path, monkeypatch):
        # n = 16: the exact path would need a 256 x 256 exponential; make
        # certain it, and every superoperator build, is never even called.
        rng = np.random.default_rng(99)
        z = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = (z + z.conj().T) / 2
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        scen = Scenario(
            Hamiltonian(h),
            ProjectorFamily(((np.diag([1.0] + [0.0] * 15), 1.0),)),
            DensityMatrix(rho),
            [0.0, 0.5, 1.0],
        )
        cfg = tmp_path / "big.json"
        cfg.write_text(config.dumps_config(scen))
        out = tmp_path / "report.csv"

        def boom(*args, **kwargs):
            raise AssertionError("no n^2 x n^2 work may run in approx-only mode")

        monkeypatch.setattr("projlind.analysis.exact_propagate", boom)
        # Nor does the indicator build an n^2 x n^2 superoperator.
        monkeypatch.setattr("projlind.propagators.hamiltonian_superop", boom)
        monkeypatch.setattr("projlind.propagators.dissipator_superop", boom)
        assert cli.main(["run", "--config", str(cfg), "--mode", "approx-only",
                         "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        assert all(r[3] == "nan" for r in rows[1:])  # exact_trace_re column

    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_single_path_modes_match_compare(self, tmp_path, name):
        # Each single-path mode writes the compare report's text in the
        # columns it computes and nan in every other column.
        computed = {
            "exact-only": {"time", "exact_trace_re", "exact_trace_im", "bch_indicator"},
            "approx-only": {"time", "approx_trace_re", "approx_trace_im",
                            "approx_min_eig", "bch_indicator"},
        }
        cfg = write_preset(tmp_path, name)
        reports = {}
        for mode in ("compare", *computed):
            out = tmp_path / f"{mode}.csv"
            assert cli.main(["run", "--config", str(cfg), "--mode", mode,
                             "--out", str(out)]) == 0
            reports[mode] = read_csv(out)
        header = reports["compare"][0]
        for mode, columns in computed.items():
            rows = reports[mode]
            assert rows[0] == header
            assert len(rows) == len(reports["compare"])
            for row, ref in zip(rows[1:], reports["compare"][1:]):
                for col, value, expected in zip(header, row, ref):
                    assert value == (expected if col in columns else "nan"), (mode, col)

    def test_csv_row_count_matches_grid(self, tmp_path):
        for name in presets.PRESET_NAMES:
            cfg = write_preset(tmp_path, name)
            out = tmp_path / f"{name}.csv"
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            scen = presets.preset_scenario(name)
            assert len(read_csv(out)) - 1 == scen.time_grid.size


class TestValidate:
    def test_good_family_passes(self, tmp_path, capsys):
        cfg = write_preset(tmp_path, "three-projector")
        assert cli.main(["validate", "--config", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert "result: PASS" in stdout
        assert "projector pair (0, 1)" in stdout

    def test_non_orthogonal_family_fails_with_report(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(NON_ORTHOGONAL))
        assert cli.main(["validate", "--config", str(cfg)]) == 1
        stdout = capsys.readouterr().out
        assert "result: FAIL" in stdout
        assert "(0, 1)" in stdout


class TestPresets:
    def test_list(self, capsys):
        assert cli.main(["presets"]) == 0
        listed = capsys.readouterr().out.split()
        assert list(presets.PRESET_NAMES) == listed

    def test_dump_parses_back(self, capsys):
        assert cli.main(["presets", "driven-qubit"]) == 0
        text = capsys.readouterr().out
        scen = config.parse_config(text)
        assert scen.dim == 2

    def test_unknown_name(self, capsys):
        assert cli.main(["presets", "no-such-preset"]) == 1
        assert "unknown preset" in capsys.readouterr().err
