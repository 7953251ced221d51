"""The list in ``mutants.py`` still fits the code: each old text occurs
exactly once in its file, and each killing test exists. Running the mutants
is ``python tests/mutants.py``, not part of this suite."""

import os
import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1


def test_killing_tests_exist():
    # Collection alone: pytest exits 4 on a node id that names no test.
    ids = sorted({k for m in MUTANTS for k in m.killers})
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *ids],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
