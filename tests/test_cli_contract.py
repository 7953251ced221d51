"""The CLI's reports on the shipped presets, pinned.

``tests/data/<preset>-<mode>.csv`` holds the report of
``projlind run --config <preset> --mode <mode>`` for each preset and mode,
written by the CLI itself. A change to the numerics may move a value by
rounding, not more: every value must stay within 1e-12 of the pinned one,
with nan in the same places. To pin a deliberate change of the contract,
write the files again with the command above and say why in CHANGES.md.
"""

import csv
import math
from pathlib import Path

import pytest

from projlind import analysis, cli, presets

DATA = Path(__file__).parent / "data"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("mode", analysis.MODES)
@pytest.mark.parametrize("name", presets.PRESET_NAMES)
def test_report_matches_the_pinned_one(tmp_path, capsys, name, mode):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(presets.preset_text(name))
    out = tmp_path / "report.csv"
    assert cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
    got, pinned = read_csv(out), read_csv(DATA / f"{name}-{mode}.csv")
    assert got[0] == pinned[0] == list(cli.CSV_COLUMNS)
    assert len(got) == len(pinned)
    for row, ref in zip(got[1:], pinned[1:]):
        for col, value, expected in zip(pinned[0], row, ref):
            value, expected = float(value), float(expected)
            if math.isnan(expected):
                assert math.isnan(value), col
            else:
                assert abs(value - expected) <= 1e-12, (col, value, expected)
