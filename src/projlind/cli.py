"""Command-line entry point.

Subcommands:

* ``run --config PATH --mode {compare,exact-only,approx-only} --out PATH``
  propagates the configured scenario over its time grid, writes a CSV and
  prints a short summary.
* ``validate --config PATH`` checks the projector family axioms and prints
  the residual report.
* ``presets [NAME]`` lists the shipped presets, or dumps one as JSON.

Exit codes: 0 success, 1 validation failure, 2 propagation failure,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import analysis, config, presets
from .exceptions import ConfigError, InvalidInputError
from .model import Scenario, validate_family

#: Fixed CSV column order.
CSV_COLUMNS = (
    "time", "trace_distance", "frobenius_gap",
    "exact_trace_re", "exact_trace_im",
    "approx_trace_re", "approx_trace_im",
    "approx_min_eig", "bch_indicator",
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PROPAGATION = 2
EXIT_IO = 3


def _csv_row(rec: analysis.ErrorRecord) -> tuple:
    return (rec.time, rec.trace_distance, rec.frobenius_gap,
            rec.exact_trace.real, rec.exact_trace.imag,
            rec.approx_trace.real, rec.approx_trace.imag,
            rec.approx_min_eigenvalue, rec.bch_indicator)


#: One CSV row: every value to 17 significant digits, which round-trips.
_CSV_ROW = ",".join(["{:.17g}"] * len(CSV_COLUMNS)) + "\n"


def _write_csv(path: str, records: list[analysis.ErrorRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(_CSV_ROW.format(*_csv_row(rec)) for rec in records)


def _summary(scenario: Scenario, mode: str, records: list[analysis.ErrorRecord]) -> list[str]:
    lines = [
        f"scenario: dim={scenario.dim}, projectors={len(scenario.family)}, "
        f"time points={len(records)}, mode={mode}",
    ]
    gaps = [r for r in records if not math.isnan(r.trace_distance)]
    if gaps:
        try:
            order = f"{analysis.convergence_order(gaps):.3f}"
        except InvalidInputError:
            order = "n/a (fewer than 3 usable gap points)"
        lines.append(f"fitted convergence order: {order}")
        lines.append(f"max trace distance: {max(r.trace_distance for r in gaps):.6e}")
    else:
        lines.append("fitted convergence order: n/a")
        lines.append("max trace distance: n/a")
    eigs = [r.approx_min_eigenvalue for r in records
            if not math.isnan(r.approx_min_eigenvalue)]
    if eigs:
        lines.append(f"worst positivity violation: {max(0.0, -min(eigs)):.6e}")
    else:
        lines.append("worst positivity violation: n/a")
    return lines


def _cmd_run(args) -> int:
    try:
        scenario = config.load_config(args.config)
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        records = analysis.sweep(scenario, args.mode)
    except Exception as exc:  # propagation is not expected to fail on valid input
        print(f"error: propagation failed: {exc}", file=sys.stderr)
        return EXIT_PROPAGATION

    try:
        _write_csv(args.out, records)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO

    for line in _summary(scenario, args.mode, records):
        print(line)
    print(f"wrote: {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        # validate_family raises only for a projector holding NaN or Inf.
        report = validate_family(config.load_members(args.config))
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_presets(args) -> int:
    if args.name is None:
        for name in presets.PRESET_NAMES:
            print(name)
        return EXIT_OK
    try:
        print(presets.preset_text(args.name))
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projlind",
        description="Propagate projector-dissipator master equations and "
                    "compare the exact and factorized solutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="propagate a scenario and write a CSV report")
    p_run.add_argument("--config", required=True, help="scenario JSON file")
    p_run.add_argument("--mode", choices=analysis.MODES, default="compare")
    p_run.add_argument("--out", required=True, help="output CSV path")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check the projector family of a config")
    p_val.add_argument("--config", required=True, help="scenario JSON file")
    p_val.set_defaults(func=_cmd_validate)

    p_pre = sub.add_parser("presets", help="list shipped presets or dump one")
    p_pre.add_argument("name", nargs="?", default=None, help="preset to dump as JSON")
    p_pre.set_defaults(func=_cmd_presets)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call, not at import: importing stays cheap, and
    # repeated calls of main in one process share it.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
