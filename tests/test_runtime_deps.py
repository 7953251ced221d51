"""The package needs numpy and nothing else outside the standard library at
run time: importing it and running the CLI in every mode loads no other
third-party module. A numpy RuntimeWarning is an error, as in the test suite."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import os, sys, tempfile
before = set(sys.modules)
import projlind
from projlind import cli, presets
with tempfile.TemporaryDirectory() as tmp:
    cfg = os.path.join(tmp, "cfg.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(presets.preset_text("driven-qubit"))
    for mode in ("compare", "exact-only", "approx-only"):
        code = cli.main(["run", "--config", cfg, "--mode", mode,
                         "--out", os.path.join(tmp, mode + ".csv")])
        assert code == 0, (mode, code)
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print("third-party:", *sorted(new - set(sys.stdlib_module_names)))
"""


def test_runtime_imports_only_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", SCRIPT],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "third-party:"
    assert set(last[1:]) == {"numpy", "projlind"}
