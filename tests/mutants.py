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
           "return float(w[-1] - w[0] + frame.g.max())",
           "return float((w[-1] - w[0]) / 2 + frame.g.max())",
           ("tests/test_propagators.py::TestExactWalk::"
            "test_walk_matches_dense_generator_oracle[grid0-1.0]",
            "tests/test_propagators.py::TestExactWalk::test_ladder_takes_one_bound",
            "tests/test_propagators.py::TestExactWalk::"
            "test_fine_grid_takes_one_series_per_cell[0.5]",
            "tests/test_propagators.py::TestBchErrorIndicator::test_bounds_the_splitting_gap",
            "tests/test_propagators.py::TestMatrixFreeKernel::test_agrees_with_the_dense_kernel")),
    Mutant("hermitian-part-summed-first", "src/projlind/linalg.py",
           "a = np.asarray(m, dtype=complex) / 2.0\n    return a + a.conj().swapaxes(-1, -2)",
           "a = np.asarray(m, dtype=complex)\n    return (a + a.conj().swapaxes(-1, -2)) / 2.0",
           (FAR + "[driven-qubit-approx-only]",
            "tests/test_model.py::TestDensityMatrix::"
            "test_names_a_negative_eigenvalue_near_the_float_range")),
    Mutant("lattice-index-from-float", "src/projlind/propagators.py",
           "i, sigma = int(t) * den // num, 0.0", "i, sigma = math.floor(s), 0.0",
           (FAR + "[driven-qubit-exact-only]", FAR + "[three-projector-compare]")),
    Mutant("ladder-base-from-t-nu", "src/projlind/propagators.py",
           "beta = math.ldexp(t, -(math.frexp(ft * fn)[1] + et + en))",
           "beta = math.ldexp(t, -math.frexp(t * nu)[1])",
           ("tests/test_propagators.py::TestExactPropagate::"
            "test_horizon_past_the_float_range_reaches_the_stationary_state",)),
    Mutant("overflow-message-in-floats", "src/projlind/propagators.py",
           'f"{m * Decimal(beta * nu):.3g}")', 'f"{m * beta * nu:.3g}")',
           ("tests/test_propagators.py::TestExactPropagate::"
            "test_overflow_past_the_float_range_names_its_t_nu",)),
    Mutant("indicator-inf-times-zero", "src/projlind/propagators.py",
           "return 0.5 * t * t * kappa if kappa else 0.0", "return 0.5 * t * t * kappa",
           ("tests/test_propagators.py::TestBchErrorIndicator::"
            "test_commuting_scenario_gives_zero",)),
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
