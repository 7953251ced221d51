import csv
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

from projlind import analysis, cli, config, presets, propagators
from projlind.model import DensityMatrix, Hamiltonian, ProjectorFamily, Scenario

from oracles import (near_orthogonal_pair, perfbench_configs, rand_density, rand_hermitian,
                     rand_orthogonal_projectors)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

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

    @pytest.mark.parametrize("source", ["driven-qubit", "random-basis"])
    def test_csv_values_parse_back_to_the_same_floats(self, tmp_path, source):
        if source == "driven-qubit":
            cfg = write_preset(tmp_path, source)
        else:
            cfg = random_basis_config(tmp_path, np.linspace(0.0, 3.0, 10).tolist())
        out = tmp_path / "report.csv"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out)[1:]
        records = analysis.sweep(config.load_config(str(cfg)), "compare")
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert [float(s) for s in row] == list(cli._csv_row(rec))

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

        monkeypatch.setattr("projlind.analysis._exact_states", boom)
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
        # n = 16: the exact path would need a 255 x 255 exponential; make
        # certain it is never even called.
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

        monkeypatch.setattr("projlind.analysis._exact_states", boom)
        # Nor does the dense kernel's polynomial run: the closed form's
        # unitary factors come from the frame's eigendecomposition of H'.
        monkeypatch.setattr("projlind.propagators._taylor_expm", boom)
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


def test_repeated_calls_in_one_process(tmp_path, capsys, monkeypatch):
    # The parser is built on the first call and shared by the later ones,
    # an argument error included.
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert cli.main(["presets"]) == 0
    assert capsys.readouterr().out.split() == list(presets.PRESET_NAMES)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--mode", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    cfg = write_preset(tmp_path, "driven-qubit")
    out = tmp_path / "report.csv"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote: {out}"
    assert len(read_csv(out)) - 1 == presets.preset_scenario("driven-qubit").time_grid.size
    assert cli.main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "result: PASS"
    assert built == [1]


@pytest.mark.parametrize("command", ["run", "validate"])
def test_config_that_is_not_utf8_exits_1(tmp_path, capsys, command):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(presets.preset_text("driven-qubit").replace("0.025", "0.025\xe9")
                    .encode("latin-1"))
    out = ["--out", str(tmp_path / "report.csv")] if command == "run" else []
    code = cli.main([command, "--config", str(cfg)] + out)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_unknown_projector_key_exits_1(tmp_path, capsys, command):
    doc = json.loads(presets.preset_text("qubit-dephasing"))
    doc["projectors"][0]["ratee"] = 5.0
    cfg = tmp_path / "misspelt.json"
    cfg.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "report.csv")] if command == "run" else []
    assert cli.main([command, "--config", str(cfg)] + out) == 1
    assert capsys.readouterr().err == "error: projectors[0]: unknown keys ['ratee']\n"
    assert not (tmp_path / "report.csv").exists()


class TestValidate:
    @pytest.mark.parametrize("factor", [0.5, 2.0], ids=["half", "twice"])
    def test_orthogonality_gate_boundary(self, tmp_path, capsys, factor):
        # ||P_1 P_2||_F = factor * 1e-10: the pair passes at half the
        # tolerance and fails at twice it.
        doc = dict(NON_ORTHOGONAL, projectors=[
            {"matrix": np.stack((p, np.zeros_like(p)), -1).tolist(), "rate": 1.0}
            for p in near_orthogonal_pair(factor * 1e-10)])
        cfg = tmp_path / "pair.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["validate", "--config", str(cfg)]) == (factor > 1.0)
        lines = capsys.readouterr().out.splitlines()
        if factor < 1.0:
            assert lines[-1] == "result: PASS"
        else:
            assert lines[-2:] == ["result: FAIL", "  projector pair (0, 1): not mutually "
                                  "orthogonal (residual 2.000e-10 exceeds 1e-10)"]

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

    @pytest.mark.parametrize("projector, message", [
        ({"matrix": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
         "error: projector 0 contains NaN or Inf entries"),
        # The Gram matrix overflows to a NaN residual, which must not pass.
        ({"vectors": [[[1e308, 1e308], [0.0, 0.0]]]},
         "error: projectors[0].vectors: vectors are not orthonormal (Gram residual nan)"),
    ], ids=["nan-matrix", "overflowing-vectors"])
    def test_non_finite_projector_is_an_error_line(self, tmp_path, capsys, projector, message):
        doc = json.loads(presets.preset_text("driven-qubit"))
        doc["projectors"][0] = dict(projector, rate=1.0)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["validate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == message


OVERFLOWING_PROJECTOR = {"matrix": [[[1e200, 0.0], [1e200, 0.0]], [[1e200, 0.0], [-1e200, 0.0]]],
                         "rate": 1.0}


def overflowing_config(tmp_path):
    """driven-qubit with a symmetric projector whose square overflows, so
    its idempotency residual is NaN."""
    doc = json.loads(presets.preset_text("driven-qubit"))
    doc["projectors"][0] = OVERFLOWING_PROJECTOR
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(doc))
    return cfg


class TestNanResidual:
    def test_validate_prints_fail(self, tmp_path, capsys):
        assert cli.main(["validate", "--config", str(overflowing_config(tmp_path))]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-2:] == [
            "result: FAIL", "  projector 0: idempotency residual nan exceeds 1e-10"]

    def test_run_exits_1(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = cli.main(["run", "--config", str(overflowing_config(tmp_path)),
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "idempotency residual nan" in err
        assert not out.exists()


def driven_qubit_with(tmp_path, hamiltonian=None, rate=None, grid=None):
    """The driven-qubit preset with its Hamiltonian, its projector's rate or
    its time grid replaced."""
    doc = json.loads(presets.preset_text("driven-qubit"))
    if hamiltonian is not None:
        doc["hamiltonian"] = hamiltonian
    if rate is not None:
        doc["projectors"][0]["rate"] = rate
    if grid is not None:
        doc["time_grid"] = grid
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(doc))
    return cfg


HUGE_H = [[[0.0, 0.0], [1e200, 0.0]], [[1e200, 0.0], [0.0, 0.0]]]

#: Columns each mode computes; the rest are nan.
COMPUTED = {
    "compare": set(cli.CSV_COLUMNS),
    "exact-only": {"time", "exact_trace_re", "exact_trace_im", "bch_indicator"},
    "approx-only": {"time", "approx_trace_re", "approx_trace_im", "approx_min_eig",
                    "bch_indicator"},
}


def finite_report(path, mode):
    """The rows of the report at ``path``, after checking that every column
    that ``mode`` computes is finite in every row and no other one is."""
    header, *rows = read_csv(path)
    assert rows
    for row in rows:
        for col, value in zip(header, row):
            assert math.isfinite(float(value)) == (col in COMPUTED[mode]), (col, value)
    return rows


def far_report(path, mode, grid):
    """The rows of the report at ``path``, after checking its times against
    ``grid`` and that every column but the indicator that ``mode`` computes
    is finite in every row and no other one is; the indicator may overflow."""
    header, *rows = read_csv(path)
    assert [float(row[0]) for row in rows] == grid
    for row in rows:
        for col, value in zip(header[:-1], row[:-1]):
            assert math.isfinite(float(value)) == (col in COMPUTED[mode]), (col, value)
    return rows


class TestExtremeValidConfigs:
    # Valid configs near the float range give a finite report or an error
    # that names the overflow; the suite's warning policy makes any numpy
    # overflow warning a failure of the run instead.
    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_rate_near_the_float_range_gives_a_finite_report(self, tmp_path, mode):
        out = tmp_path / "report.csv"
        cfg = driven_qubit_with(tmp_path, rate=1e308)
        assert cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
        assert len(finite_report(out, mode)) == 4

    def test_huge_hamiltonian_gives_a_finite_closed_form(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = driven_qubit_with(tmp_path, hamiltonian=HUGE_H)
        assert cli.main(["run", "--config", str(cfg), "--mode", "approx-only",
                         "--out", str(out)]) == 0
        rows = finite_report(out, "approx-only")
        # (t^2/2) ||[A, B]||_F scales with ||H||: 1e200 times the preset's.
        preset = propagators.bch_error_indicator(presets.preset_scenario("driven-qubit"), 0.025)
        assert float(rows[0][-1]) == pytest.approx(1e200 * preset, rel=1e-14)

    @pytest.mark.parametrize("mode", ["compare", "exact-only"])
    def test_huge_hamiltonian_names_the_exact_overflow(self, tmp_path, capsys, mode):
        # t ||H|| near 1e198 leaves the ladder's squarings nothing but
        # rounding, which they square until it overflows at the first time.
        out = tmp_path / "report.csv"
        cfg = driven_qubit_with(tmp_path, hamiltonian=HUGE_H)
        assert cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: propagation failed: exact propagator lost accuracy at t = 0.025\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_closed_form_names_the_overflow_of_t_h(self, tmp_path, capsys, mode):
        # H = 2 sigma_x at t = 1e308: the centred phases +-2 t overflow, so
        # the closed form has no unitary factor to take and says so. The
        # exact path forms no such product and reports.
        out = tmp_path / "report.csv"
        grid = [0.0, 1.0, 1e308]
        cfg = driven_qubit_with(tmp_path, hamiltonian=[[[0.0, 0.0], [2.0, 0.0]],
                                                       [[2.0, 0.0], [0.0, 0.0]]], grid=grid)
        code = cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)])
        if mode == "exact-only":
            assert code == 0
            far_report(out, mode, grid)
        else:
            assert code == 2
            assert capsys.readouterr().err == ("error: propagation failed: closed-form "
                                               "propagator overflows at t = 1e+308\n")
            assert not out.exists()

    @pytest.mark.parametrize("policy", ["error", "always"])
    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_closed_form_names_the_overflow_of_the_spectrum_of_t_h(self, tmp_path, capsys,
                                                                  mode, policy):
        # H = 1.5 (sigma_z + sigma_x) at t = 1e308: every entry of t H' is
        # finite, but the centred phases +-2.1e308 are not, so neither is
        # the factor.
        out = tmp_path / "report.csv"
        grid = [0.0, 1.0, 1e308]
        cfg = driven_qubit_with(tmp_path, hamiltonian=[[[1.5, 0.0], [1.5, 0.0]],
                                                       [[1.5, 0.0], [-1.5, 0.0]]], grid=grid)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(policy)
            code = cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)])
        assert not caught
        if mode == "exact-only":
            assert code == 0
            far_report(out, mode, grid)
        else:
            assert code == 2
            assert capsys.readouterr().err == ("error: propagation failed: closed-form "
                                               "propagator overflows at t = 1e+308\n")
            assert not out.exists()

    @pytest.mark.parametrize("mode", analysis.MODES)
    @pytest.mark.parametrize("hamiltonian", [
        [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
        [[[0.9, 0.0], [0.9, 0.0]], [[0.9, 0.0], [0.9, 0.0]]],
    ], ids=["2-times-1", "0.9-times-1-plus-sigma-x"])
    def test_closed_form_takes_centred_phases(self, tmp_path, hamiltonian, mode):
        # Only eigenvalue differences enter U' X U'^dag: the phases of
        # 2 * 1 centre to 0 and those of 0.9 (1 + sigma_x) to +-0.9 t, so
        # t = 1e308 overflows none of them.
        out = tmp_path / "report.csv"
        grid = [0.0, 1.0, 1e308]
        cfg = driven_qubit_with(tmp_path, hamiltonian=hamiltonian, grid=grid)
        assert cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
        far_report(out, mode, grid)

    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_closed_form_centres_on_the_spectrum(self, tmp_path, mode):
        # H' has the spectrum -1, 1, 1.8 and the diagonal 1.8, 0, 0: phases
        # centred on the spectrum, at 0.4, lie within +-1.4 t; centred on
        # the diagonal, at 0.9, the phase -1.9 t overflows at t = 1e308.
        grid = [0.0, 1.0, 1e308]
        scen = Scenario(Hamiltonian(np.array([[1.8, 0.0, 0.0], [0.0, 0.0, 1.0],
                                              [0.0, 1.0, 0.0]])),
                        ProjectorFamily(((np.diag([0.0, 1.0, 0.0]), 1.0),)),
                        DensityMatrix(np.full((3, 3), 1.0 / 3.0)), grid)
        cfg, out = tmp_path / "off-centre.json", tmp_path / "report.csv"
        cfg.write_text(config.dumps_config(scen))
        assert cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
        far_report(out, mode, grid)

    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_indicator_past_the_float_range_of_its_constant(self, tmp_path, mode):
        # ||[A, B]||_F = sqrt(2) 1e400 overflows, but (t^2/2) ||[A, B]||_F
        # does not: it is 0 at t = 0 and sqrt(2)/2 1e-200 and 1e-100 after.
        grid = [0.0, 1e-300, 1e-250]
        cfg = driven_qubit_with(tmp_path, hamiltonian=HUGE_H, rate=1e200, grid=grid)
        out = tmp_path / "report.csv"
        assert cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
        got = [float(row[-1]) for row in finite_report(out, mode)]
        scen = config.load_config(str(cfg))
        assert got == [propagators.bch_error_indicator(scen, t) for t in grid]
        assert got[0] == 0.0
        assert got[1:] == pytest.approx([0.5 ** 0.5 * 1e-200, 0.5 ** 0.5 * 1e-100], rel=1e-14)

    @pytest.mark.parametrize("mode", analysis.MODES)
    @pytest.mark.parametrize("name", ["driven-qubit", "three-projector"])
    def test_grid_time_near_the_float_range_gives_a_finite_report(self, tmp_path, name, mode):
        # t / tau and -i t H' stay within the float range; only the
        # indicator (t^2/2) ||[A, B]||_F overflows, to inf.
        doc = json.loads(presets.preset_text(name))
        doc["time_grid"] = [0.0, 1.0, 1e308]
        cfg, out = tmp_path / "far.json", tmp_path / "report.csv"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
        assert far_report(out, mode, [0.0, 1.0, 1e308])[-1][-1] == "inf"

    @pytest.mark.parametrize("mode", analysis.MODES)
    @pytest.mark.parametrize("name, rate, grid", [
        ("driven-qubit", 4.0, [0.0, 1.0, 1e308]),
        ("qubit-dephasing", 4.0, [0.0, 1.0, 1e308]),
        ("three-projector", 4.0, [0.0, 1.0, 1e308]),
        ("driven-qubit", 1e300, [0.0, 1.0, 1e10]),
    ])
    def test_decay_past_the_float_range_gives_a_finite_report(self, tmp_path, name, rate,
                                                               grid, mode):
        # t G overflows to inf, where the closed form's decay is exactly 0.
        doc = json.loads(presets.preset_text(name))
        for member in doc["projectors"]:
            member["rate"] = rate
        doc["time_grid"] = grid
        cfg, out = tmp_path / "decay.json", tmp_path / "report.csv"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
        far_report(out, mode, grid)


def undamped_config(tmp_path, name, t):
    """``two-qubit-rank2``, or the benchmark's seed-1 dense-compare slot
    whose H commutes with every projector (n = 12), on the grid [0, 1, t];
    both have undamped modes."""
    if name == "commuting":
        doc = perfbench_configs("dense-compare", 1)[-1]
    else:
        doc = json.loads(presets.preset_text(name))
    doc["time_grid"] = [0.0, 1.0, t]
    cfg = tmp_path / "undamped.json"
    cfg.write_text(json.dumps(doc))
    return cfg


class TestContractionCheck:
    # exp(tM) is a contraction. Where the dense kernel's squarings amplify
    # the rounding of undamped modes past the check's bound, or until it
    # overflows, an exact mode exits 2 and names the time, and numpy warns
    # of nothing, whatever the warning policy.
    @pytest.mark.parametrize("policy", ["error", "always"])
    @pytest.mark.parametrize("mode", ["compare", "exact-only"])
    @pytest.mark.parametrize("name, t", [
        ("two-qubit-rank2", 1e18),
        ("two-qubit-rank2", 1e308),
        ("commuting", 1e16),
        ("commuting", 1e17),
        ("commuting", 1e308),
    ])
    def test_lost_accuracy_names_its_time(self, tmp_path, capsys, name, t, mode, policy):
        out = tmp_path / "report.csv"
        cfg = undamped_config(tmp_path, name, t)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(policy)
            code = cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)])
        assert not caught
        assert code == 2
        assert capsys.readouterr().err == ("error: propagation failed: exact propagator "
                                           f"lost accuracy at t = {t:.3g}\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode", analysis.MODES)
    @pytest.mark.parametrize("name, t", [
        ("two-qubit-rank2", 1e4),
        ("two-qubit-rank2", 1e16),
        ("commuting", 1e4),
    ])
    def test_short_of_the_bound_gives_a_finite_report(self, tmp_path, name, t, mode):
        out = tmp_path / "report.csv"
        cfg = undamped_config(tmp_path, name, t)
        assert cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
        assert len(finite_report(out, mode)) == 3


class TestFarHorizonMemory:
    # A damped scenario's ladder is exactly 0 long before t = 1e308, and
    # keeps no square past that: n = 24 reports within 1 GB of address
    # space, where squaring on to 1e308 would ask for about 2.7 GB. A
    # scenario with no dynamics takes no ladder at all.
    LIMIT = 1 << 30

    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_damped_n24_on_a_far_grid_runs_within_1_gb(self, tmp_path, mode):
        rng = np.random.default_rng(24)
        h = rand_hermitian(24, rng)
        w = np.linalg.eigvalsh(h)
        projectors = rand_orthogonal_projectors(24, [1] * 24, rng)
        grid = [0.0, 1.0, 1e308]
        scen = Scenario(Hamiltonian(h / (w[-1] - w[0])),
                        ProjectorFamily(tuple((p, float(rng.uniform(0.5, 2.0)))
                                              for p in projectors)),
                        DensityMatrix(rand_density(24, rng)), grid)
        self.run_capped(tmp_path, scen, mode)

    @pytest.mark.parametrize("mode", ["exact-only", "compare"])
    def test_still_n24_on_a_far_grid_runs_within_1_gb(self, tmp_path, mode):
        # H = 0 and no projectors: nu = 0, so the matrix-free kernel gives
        # X0 at every time, where the dense kernel's ladder of exact
        # identities would never reach a zero top and run out of memory.
        grid = np.linspace(0.0, 1e308, 300).tolist()
        scen = Scenario(Hamiltonian(np.zeros((24, 24))), ProjectorFamily((), dim=24),
                        DensityMatrix(rand_density(24, np.random.default_rng(24))), grid)
        rows = self.run_capped(tmp_path, scen, mode)
        if mode == "compare":
            assert max(float(row[1]) for row in rows) <= 1e-14

    def run_capped(self, tmp_path, scen, mode):
        """The rows of a CLI run on ``scen`` within LIMIT bytes of address
        space, after :func:`far_report`'s checks."""
        cfg, out = tmp_path / "scenario.json", tmp_path / "report.csv"
        cfg.write_text(config.dumps_config(scen))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "projlind", "run",
             "--config", str(cfg), "--mode", mode, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (self.LIMIT, self.LIMIT)))
        assert proc.returncode == 0, proc.stderr
        return far_report(out, mode, scen.time_grid.tolist())


def random_basis_config(tmp_path, grid):
    """n = 6, with three projectors of ranks 2, 1 and 3 cut from one random
    unitary, so that V^dag H V is Hermitian only to rounding."""
    rng = np.random.default_rng(61)
    z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    u, _ = np.linalg.qr(z)
    blocks = [u[:, :2], u[:, 2:3], u[:, 3:]]
    h = (z + z.conj().T) / 4.0
    rho = z @ z.conj().T
    scen = Scenario(Hamiltonian(h),
                    ProjectorFamily(tuple((b @ b.conj().T, 0.5 + k) for k, b in enumerate(blocks))),
                    DensityMatrix(rho / np.trace(rho).real), grid)
    cfg = tmp_path / "random-basis.json"
    cfg.write_text(config.dumps_config(scen))
    return cfg


class TestRandomBasisFarTime:
    # The closed form's unitary factors come from the frame's one
    # eigendecomposition of H', which is Hermitian to the bit, even at
    # t = 1e200, where a per-point symmetry gate on -i t H' would misfire.
    @pytest.mark.parametrize("mode", analysis.MODES)
    def test_gives_a_finite_report(self, tmp_path, mode):
        out = tmp_path / "report.csv"
        cfg = random_basis_config(tmp_path, [0.0, 1.0, 1e200])
        assert cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
        assert far_report(out, mode, [0.0, 1.0, 1e200])[-1][-1] == "inf"

    def test_closed_form_takes_no_taylor_expm(self, tmp_path, monkeypatch):
        calls = []
        expm = propagators._taylor_expm
        monkeypatch.setattr(propagators, "_taylor_expm", lambda a: calls.append(a) or expm(a))
        cfg = random_basis_config(tmp_path, [0.0, 1.0, 1e200])
        assert cli.main(["run", "--config", str(cfg), "--mode", "approx-only",
                         "--out", str(tmp_path / "report.csv")]) == 0
        assert not calls


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
