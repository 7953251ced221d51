"""Seeded mutants of the package, each with the tests that must kill it.

Each mutant replaces one text, which occurs exactly once in its file, by
another. Run

    python tests/mutants.py

from anywhere: it runs the killing tests on an unmutated copy of the
repository in a temporary directory, where they must pass, then applies each
mutant to a fresh copy and runs its killing tests there. A mutant is killed
when one of them fails. The script prints one line per mutant and exits
non-zero if any mutant survives or its tests cannot run.
``tests/test_mutants.py`` checks only that the list still fits the code.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: What a copy of the repository needs to run the killing tests.
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

#: Seconds one pytest run may take; the killing tests take a few.
TIMEOUT_S = 600

FAR = "tests/test_cli.py::TestExtremeValidConfigs::" \
      "test_grid_time_near_the_float_range_gives_a_finite_report"
DECAY = "tests/test_cli.py::TestExtremeValidConfigs::" \
        "test_decay_past_the_float_range_gives_a_finite_report"
GATE = "tests/test_analysis.py::TestTraceDistance::test_stack_gates_every_member[rho]"
SWEEP = "tests/test_analysis.py::TestSweep::"
EXPM_40 = "tests/test_linalg.py::test_taylor_expm_matches_40_digit_reference"
LOST = "tests/test_cli.py::TestContractionCheck::test_lost_accuracy_names_its_time"
CENTRED = "tests/test_cli.py::TestExtremeValidConfigs::test_closed_form_takes_centred_phases"
SPECTRUM = "tests/test_cli.py::TestExtremeValidConfigs::test_closed_form_centres_on_the_spectrum"
INDICATOR = "tests/test_cli.py::TestExtremeValidConfigs::" \
            "test_indicator_past_the_float_range_of_its_constant"
FAR_N24 = "tests/test_cli.py::TestFarHorizonMemory::test_damped_n24_on_a_far_grid_runs_within_1_gb"
MODEL = "tests/test_model.py::"
CONVERGENCE = "tests/test_analysis.py::TestConvergenceOrder::"
HERMITIAN_GATE = (MODEL + "TestHamiltonian::test_hermiticity_gate_boundary[twice]",
                  MODEL + "TestDensityMatrix::test_hermiticity_gate_boundary[twice]")
READING = "tests/test_config.py::TestMatrixReading::"
#: Every exit of both readers, with the collector found on and found off.
COLLECTOR = tuple(f"tests/test_config.py::TestCollectorState::test_leaves_the_collector_as_found"
                  f"[{reader}-{case}-{state}]"
                  for reader in ("parse_config", "load_members")
                  for case in ("success", "syntax-error", "rejected-node")
                  for state in ("on", "off"))
#: The three-projector preset against the closed form's 40-digit factors.
CLOSED_40 = "tests/test_references.py::test_closed_form_matches_40_digits[3]"
REFERENCES = ("tests/test_references.py::test_matrix_free_kernel_matches_40_digits[0]",
              "tests/test_references.py::test_dense_kernel_matches_40_digits[0]")


class Mutant(NamedTuple):
    name: str
    path: str              # relative to the repository root
    old: str
    new: str
    killers: tuple         # pytest node ids


MUTANTS = (
    Mutant("taylor-stop-1e-12", "src/projlind/linalg.py",
           "half_u = np.finfo(float).eps / 4.0", "half_u = 1e-12",
           ("tests/test_linalg.py::"
            "test_taylor_action_stops_at_the_first_bound_below_half_the_unit_roundoff",)),
    Mutant("norm-bound-half-spread", "src/projlind/propagators.py",
           "return float(frame.w[-1] - frame.w[0] + frame.g.max())",
           "return float((frame.w[-1] - frame.w[0]) / 2 + frame.g.max())",
           ("tests/test_propagators.py::TestExactWalk::"
            "test_walk_matches_dense_generator_oracle[grid0-1.0]",
            "tests/test_propagators.py::TestExactWalk::test_ladder_takes_one_bound",
            "tests/test_propagators.py::TestExactWalk::"
            "test_fine_grid_takes_one_series_per_chunk[0.5]",
            "tests/test_propagators.py::TestBchErrorIndicator::test_bounds_the_splitting_gap",
            "tests/test_propagators.py::TestMatrixFreeKernel::test_agrees_with_the_dense_kernel",
            "tests/test_propagators.py::TestFrame::test_generator_norm_is_bounded_by_nu")),
    Mutant("hermitian-part-summed-first", "src/projlind/linalg.py",
           "a = np.asarray(m, dtype=complex) / 2.0\n    return a + a.conj().swapaxes(-1, -2)",
           "a = np.asarray(m, dtype=complex)\n    return (a + a.conj().swapaxes(-1, -2)) / 2.0",
           (FAR + "[driven-qubit-approx-only]",
            "tests/test_model.py::TestDensityMatrix::"
            "test_names_a_negative_eigenvalue_near_the_float_range")),
    Mutant("lattice-index-from-float", "src/projlind/propagators.py",
           "return int(t) * den // num, 0.0", "return math.floor(s), 0.0",
           (FAR + "[driven-qubit-exact-only]", FAR + "[three-projector-compare]")),
    Mutant("ladder-base-from-t-nu", "src/projlind/propagators.py",
           "beta = math.ldexp(t, -(math.frexp(ft * fn)[1] + et + en))",
           "beta = math.ldexp(t, -math.frexp(t * nu)[1])",
           ("tests/test_propagators.py::TestExactPropagate::"
            "test_horizon_past_the_float_range_reaches_the_stationary_state",)),
    Mutant("contraction-slack-0", "src/projlind/propagators.py",
           "_CONTRACTION_SLACK = 16.0", "_CONTRACTION_SLACK = 0.0",
           ("tests/test_propagators.py::TestExactPropagate::"
            "test_empty_family_is_unitary_evolution",
            "tests/test_propagators.py::TestExactPropagate::"
            "test_matches_dense_generator_oracle")),
    Mutant("contraction-slack-1e30", "src/projlind/propagators.py",
           "_CONTRACTION_SLACK = 16.0", "_CONTRACTION_SLACK = 1e30",
           (LOST + "[commuting-1e+16-exact-only-error]",)),
    Mutant("contraction-comparison-dropped", "src/projlind/propagators.py",
           "bad = ~np.isfinite(norms) | (norms > r0 + slack * (1.0 + np.array(chunk) * nu))",
           "bad = ~np.isfinite(norms)",
           (LOST + "[two-qubit-rank2-1e+18-exact-only-error]",)),
    Mutant("indicator-inf-times-zero", "src/projlind/propagators.py",
           "return np.ldexp(0.5 * ft * ft * s, 2 * et + e)",
           "return 0.5 * ts * ts * np.ldexp(s, e)",
           ("tests/test_propagators.py::TestBchErrorIndicator::"
            "test_commuting_scenario_gives_zero",
            "tests/test_propagators.py::TestBchErrorIndicator::"
            "test_constant_past_the_float_range",
            INDICATOR + "[exact-only]")),
    Mutant("trace-distance-gate-any", "src/projlind/analysis.py",
           "if not np.all(hermiticity_residual(m) <= VALIDATION_TOL):",
           "if not np.any(hermiticity_residual(m) <= VALIDATION_TOL):",
           (GATE,)),
    Mutant("trace-distance-gate-first-member", "src/projlind/analysis.py",
           "if not np.all(hermiticity_residual(m) <= VALIDATION_TOL):",
           "if not np.all(hermiticity_residual(m.reshape(-1, *m.shape[-2:])[0]) "
           "<= VALIDATION_TOL):",
           (GATE,)),
    Mutant("largest-eigenvalue", "src/projlind/analysis.py",
           "min_eig = np.linalg.eigvalsh(_hermitian_part(approx))[:, 0]",
           "min_eig = np.linalg.eigvalsh(_hermitian_part(approx))[:, -1]",
           (SWEEP + "test_chunk_boundaries_match_single_points[1]",)),
    Mutant("chunk-plus-one", "src/projlind/propagators.py",
           "while chunk := list(islice(times, _CHUNK)):",
           "while chunk := list(islice(times, _CHUNK + 1)):",
           (SWEEP + "test_sweep_holds_one_chunk_per_path",)),
    Mutant("no-lattice-snap", "src/projlind/propagators.py",
           "if abs(s - i) <= 8.0 * eps * s:", "if abs(s - i) <= 0.0:",
           ("tests/test_propagators.py::TestExactWalk::"
            "test_uniform_grid_takes_one_exponential[2.0-12]",)),
    Mutant("one-decay-per-chunk", "src/projlind/propagators.py",
           "decayed = np.exp(-ts[:, None, None] * frame.g) * frame.x0",
           "decayed = np.exp(-ts[:1, None, None] * frame.g) * frame.x0",
           (SWEEP + "test_commuting_scenario_all_small", CLOSED_40)),
    Mutant("bool-guard-off", "src/projlind/config.py",
           "set(map(type, flat)) <= {float, int}", "set(map(type, flat)) <= {float, int, bool}",
           tuple(READING + f"test_rejected_node_keeps_the_walk_message[{case}]"
                 for case in ("bool", "bool-among-ints", "bool-among-ints-in-vectors"))),
    Mutant("collector-left-off", "src/projlind/config.py",
           "        if enabled:\n            gc.enable()\n", "        pass\n", COLLECTOR),
    Mutant("collector-not-paused", "src/projlind/config.py",
           "    gc.disable()\n", "    pass\n",
           ("tests/test_config.py::TestCollectorState::"
            "test_collector_is_paused_while_reading[parse_config]",
            "tests/test_config.py::TestCollectorState::"
            "test_collector_is_paused_while_reading[load_members]")),
    Mutant("collector-forced-on", "src/projlind/config.py",
           "        if enabled:\n            gc.enable()\n", "        gc.enable()\n", COLLECTOR),
    Mutant("cell-not-crossed-by-its-sum", "src/projlind/propagators.py",
           "                if terms is None:\n", "                if True:\n",
           ("tests/test_propagators.py::TestDenseOutput::"
            "test_one_series_per_substep_whatever_the_grid",)),
    Mutant("walk-restarts-per-chunk", "src/projlind/propagators.py",
           "    beta, ladder, j = math.inf, [], 0\n    for chunk in _chunks(times):\n",
           "    for chunk in _chunks(times):\n        beta, ladder, j = math.inf, [], 0\n",
           (SWEEP + "test_chunk_boundaries_match_single_points[65]",
            SWEEP + "test_chunk_boundaries_match_single_points[133]")),
    Mutant("matrix-free-walk-restarts-per-chunk", "src/projlind/propagators.py",
           "    x, j, terms = frame.x0, 0, None\n    for chunk in _chunks(times):\n",
           "    x = frame.x0\n"
           "    for chunk in _chunks(times):\n        j, terms = 0, None\n",
           ("tests/test_propagators.py::TestDenseOutput::test_matches_the_dense_kernel[65 points]",)),
    Mutant("parser-rebuilt-per-call", "src/projlind/cli.py",
           "args = _parser().parse_args(argv)", "args = build_parser().parse_args(argv)",
           ("tests/test_cli.py::test_repeated_calls_in_one_process",)),
    Mutant("matrix-as-re-plus-im", "src/projlind/config.py",
           "return np.fromiter(flat, float, len(flat)).view(complex).reshape(rows, cols)",
           "return (lambda a: a[0::2] + 1j * a[1::2])(np.fromiter(flat, float, len(flat)))"
           ".reshape(rows, cols)",
           ("tests/test_config.py::TestRoundTrip::test_roundtrip_is_bit_exact",)),
    Mutant("frame-not-hermitian", "src/projlind/propagators.py",
           "_hermitian_part(v.conj().T @ scenario.hamiltonian.matrix @ v)",
           "(v.conj().T @ scenario.hamiltonian.matrix @ v)",
           ("tests/test_propagators.py::TestFrame::test_frame_is_exactly_hermitian",
            "tests/test_propagators.py::TestMatrixFreeKernel::"
            "test_states_are_exactly_hermitian_with_unit_trace")),
    Mutant("initial-state-not-hermitian", "src/projlind/propagators.py",
           "_hermitian_part(v.conj().T @ scenario.initial_state.matrix @ v)",
           "(v.conj().T @ scenario.initial_state.matrix @ v)",
           ("tests/test_propagators.py::TestFrame::test_frame_is_exactly_hermitian",
            "tests/test_propagators.py::TestMatrixFreeKernel::"
            "test_states_are_exactly_hermitian_with_unit_trace")),
    Mutant("decay-product-warns", "src/projlind/propagators.py",
           'with np.errstate(over="ignore", invalid="ignore"):\n            u = matexp',
           "if True:\n            u = matexp",
           (DECAY + "[driven-qubit-4.0-grid0-approx-only]",
            DECAY + "[driven-qubit-1e+300-grid3-compare]")),
    Mutant("taylor-expm-degree-15", "src/projlind/linalg.py",
           "_INV_FACTORIALS + (0.0,), (5, 4)", "_INV_FACTORIALS[:16] + (0.0,) * 4, (5, 4)",
           (EXPM_40,)),
    Mutant("taylor-expm-horner-in-a2", "src/projlind/linalg.py",
           "a4 @ out", "a2 @ out", (EXPM_40,)),
    Mutant("closed-form-overflow-unchecked", "src/projlind/propagators.py",
           "        if not finite.all():\n", "        if False:\n",
           ("tests/test_cli.py::TestExtremeValidConfigs::"
            "test_closed_form_names_the_overflow_of_t_h[approx-only]",)),
    Mutant("closed-form-spectrum-unchecked", "src/projlind/propagators.py",
           "finite = np.isfinite(u).all(axis=(1, 2))", "finite = np.isfinite(ts)",
           ("tests/test_cli.py::TestExtremeValidConfigs::"
            "test_closed_form_names_the_overflow_of_the_spectrum_of_t_h[approx-only-error]",)),
    Mutant("phases-from-the-first-time", "src/projlind/linalg.py",
           "np.multiply.outer(np.asarray(ts, dtype=float), w)",
           "np.multiply.outer(np.asarray(ts, dtype=float)[:1], w)",
           ("tests/test_propagators.py::TestApproxClosed::"
            "test_log_grid_matches_the_product_oracle", CLOSED_40)),
    Mutant("points-weight-the-first-cell", "src/projlind/propagators.py",
           "terms[:, c])", "terms[:, 0 * c])",
           ("tests/test_propagators.py::TestExactWalk::"
            "test_fine_multi_chunk_grid_matches_dense_generator_oracle",)),
    Mutant("ladder-squares-past-zero", "src/projlind/propagators.py",
           "                        if not ladder[-1].any():\n",
           "                        if False:\n",
           ("tests/test_propagators.py::TestExactWalk::"
            "test_far_horizon_keeps_no_square_of_zero",
            FAR_N24 + "[exact-only]", FAR_N24 + "[compare]")),
    Mutant("still-scenario-goes-dense", "src/projlind/propagators.py",
           "if nu == 0.0 or 17.0", "if 17.0",
           ("tests/test_cli.py::TestFarHorizonMemory::"
            "test_still_n24_on_a_far_grid_runs_within_1_gb[exact-only]",)),
    Mutant("phases-not-centred", "src/projlind/propagators.py",
           "c = frame.w[-1] / 2.0 + frame.w[0] / 2.0", "c = 0.0",
           (CENTRED + "[2-times-1-approx-only]",
            CENTRED + "[0.9-times-1-plus-sigma-x-compare]")),
    Mutant("phases-centred-on-the-diagonal", "src/projlind/propagators.py",
           "c = frame.w[-1] / 2.0 + frame.w[0] / 2.0",
           "c = frame.h.diagonal().real.max() / 2.0 + frame.h.diagonal().real.min() / 2.0",
           (SPECTRUM + "[approx-only]", SPECTRUM + "[compare]")),
    Mutant("idempotency-residual-0", "src/projlind/model.py",
           "np.linalg.norm(p @ p - p)", "np.linalg.norm(p @ p - p @ p)",
           ("tests/test_model.py::TestValidateFamily::test_finite_idempotency_residual_fails",
            "tests/test_model.py::TestProjectorFamily::"
            "test_rejects_a_finite_idempotency_residual")),
    Mutant("csv-15-digits", "src/projlind/cli.py",
           '_CSV_ROW = ",".join(["{:.17g}"]', '_CSV_ROW = ",".join(["{:.15g}"]',
           ("tests/test_cli.py::TestRun::test_csv_values_parse_back_to_the_same_floats",)),
    Mutant("residual-not-rescaled", "src/projlind/linalg.py",
           "a = a / 2.0 ** np.maximum(np.frexp(largest)[1] - 1, 0)", "a = a + 0.0 * largest",
           ("tests/test_model.py::TestHamiltonian::"
            "test_accepts_a_hermitian_matrix_whose_squared_norm_overflows",
            "tests/test_model.py::TestHamiltonian::"
            "test_rejects_an_overflowing_hermiticity_residual")),
    Mutant("series-step-not-divided-by-k", "src/projlind/linalg.py",
           "z *= h / k", "z *= h", REFERENCES),
    # The contracts: each 1e-10 gate at 1e-6, and the noise floor at 1e-10.
    # Hamiltonian and DensityMatrix share one Hermiticity gate: one mutant
    # loosens its tolerance, the other shrinks its residual by as much.
    Mutant("hamiltonian-gate-1e-6", "src/projlind/model.py",
           "(residual := hermiticity_residual(a)) <= VALIDATION_TOL",
           "(residual := hermiticity_residual(a)) <= 1e-6", HERMITIAN_GATE),
    Mutant("density-hermiticity-gate-1e-6", "src/projlind/model.py",
           "(residual := hermiticity_residual(a))", "(residual := 1e-4 * hermiticity_residual(a))",
           HERMITIAN_GATE),
    Mutant("density-trace-gate-1e-6", "src/projlind/model.py",
           "if not abs(tr - 1.0) <= VALIDATION_TOL:", "if not abs(tr - 1.0) <= 1e-6:",
           (MODEL + "TestDensityMatrix::test_trace_gate_boundary[twice]",)),
    Mutant("density-eigenvalue-gate-1e-6", "src/projlind/model.py",
           "if not min_eig >= -VALIDATION_TOL:", "if not min_eig >= -1e-6:",
           (MODEL + "TestDensityMatrix::test_eigenvalue_gate_boundary[twice]",)),
    Mutant("projector-gate-1e-6", "src/projlind/model.py",
           "if not res <= VALIDATION_TOL:\n                failures.append(\n"
           '                    f"projector {j}',
           "if not res <= 1e-6:\n                failures.append(\n"
           '                    f"projector {j}',
           (MODEL + "TestProjectorFamily::test_hermiticity_gate_boundary[twice]",)),
    Mutant("orthogonality-gate-1e-6", "src/projlind/model.py",
           "for j, k, res in ortho:\n        if not res <= VALIDATION_TOL:",
           "for j, k, res in ortho:\n        if not res <= 1e-6:",
           (MODEL + "TestProjectorFamily::test_orthogonality_gate_boundary[twice]",
            "tests/test_cli.py::TestValidate::test_orthogonality_gate_boundary[twice]")),
    Mutant("gram-gate-1e-6", "src/projlind/model.py",
           'if not residual <= VALIDATION_TOL:\n        raise InvalidInputError(f"vectors',
           'if not residual <= 1e-6:\n        raise InvalidInputError(f"vectors',
           (MODEL + "TestProjectorFromVectors::test_gram_gate_boundary[twice]",)),
    Mutant("slope-x-not-centred", "src/projlind/analysis.py", "    x -= x.mean()\n", "",
           tuple(f"{CONVERGENCE}test_matches_the_least_squares_oracle[{seed}]"
                 for seed in range(6))),
    Mutant("fit-admits-equal-times", "src/projlind/analysis.py",
           "(distinct := len(set(x)))", "(distinct := len(x))",
           (CONVERGENCE + "test_equal_times_raise",)),
    Mutant("gap-noise-floor-1e-10", "src/projlind/analysis.py",
           "GAP_NOISE_FLOOR = 1e-14", "GAP_NOISE_FLOOR = 1e-10",
           (CONVERGENCE + "test_fit_between_the_floor_and_the_gates",)),
)


def copy_repository(dest: pathlib.Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run_tests(repo: pathlib.Path, node_ids) -> int:
    """pytest's exit code for the ``node_ids`` in the copy at ``repo``:
    0 all passed, 1 some failed, anything else (-1 for a run past
    ``TIMEOUT_S``) could not run them."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", *node_ids], cwd=repo, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1
    return proc.returncode


def main() -> int:
    start = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="projlind-mutants-") as tmp:
        base = pathlib.Path(tmp) / "base"
        copy_repository(base)
        code = run_tests(base, sorted({k for m in MUTANTS for k in m.killers}))
        if code != 0:
            print(f"error: the killing tests do not pass unmutated (pytest exit {code})")
            return 1
        for k, mutant in enumerate(MUTANTS):
            repo = pathlib.Path(tmp) / f"m{k}"
            copy_repository(repo)
            target = repo / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                print(f"error    {mutant.name}: old text does not occur exactly once")
                failures += 1
                continue
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            code = run_tests(repo, mutant.killers)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
            print(f"{verdict:8s} {mutant.name}")
            failures += code != 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
