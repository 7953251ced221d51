"""One benchmark run, started by run.py with BLAS pinned to one thread.

Steps: generate the workload's config files from the seed; import
projlind and warm up with one untimed round; measure whole rounds
in-process through ``projlind.cli.main(["run", ...])``, with set-up timed
in fresh processes between rounds (untraced runs only); check the CSVs the
run wrote; print one JSON line. One round runs every scenario of the
workload once, and one operation is one ``projlind run`` of one scenario.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import scenarios
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 11  # timed fresh processes per run, after one untimed
MIN_ROUNDS = 3     # per measured phase, even if a round outlasts --seconds


def parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    return parser.parse_args(argv)


def setup_sample(paths) -> float:
    """Seconds from starting a fresh interpreter until projlind is imported
    and every config is loaded and validated."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), *paths],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


class Workload:
    """The operations of one round and the bytes each wrote in the warm-up."""

    def __init__(self, cli, cases, config_paths):
        self.cli = cli
        self.ops = [(case, ["run", "--config", path, "--mode", case.mode,
                            "--out", path[:-len(".json")] + ".csv"])
                    for case, path in zip(cases, config_paths)]
        self.expected = None

    def out_path(self, k) -> str:
        return self.ops[k][1][-1]

    def round(self):
        """Run every operation once. Returns the loop's wall seconds, the
        seconds of each operation and the set of operations that failed:
        non-zero exit, or a CSV that differs from the warm-up's."""
        for k in range(len(self.ops)):
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.out_path(k))
        times, failed = [], set()
        clock = time.perf_counter
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            loop_start = clock()
            for k, (_, argv) in enumerate(self.ops):
                start = clock()
                try:
                    code = self.cli.main(argv)
                except (Exception, SystemExit):
                    traceback.print_exc()
                    code = -1
                times.append(clock() - start)
                if code != 0:
                    failed.add(k)
            loop_s = clock() - loop_start
        outputs = []
        for k in range(len(self.ops)):
            try:
                with open(self.out_path(k), "rb") as fh:
                    outputs.append(fh.read())
            except OSError:
                outputs.append(None)
        if self.expected is None:
            self.expected = outputs
        failed |= {k for k, data in enumerate(outputs)
                   if data is None or data != self.expected[k]}
        return loop_s, times, failed


def measure(workload, seconds, tracer=None, probe=None):
    """Whole rounds for ``seconds``, at least MIN_ROUNDS of them.

    With a tracer, every untraced round is followed by a traced one, so
    drift in the machine's speed falls on both sides of the overhead alike.
    With a probe, SETUP_PROBES set-up samples are taken between rounds,
    spread evenly over the phase, so they see the same machine as the
    rounds. Returns the untraced rounds, the traced rounds and the samples.
    """
    untraced, traced, setup = [], [], []
    start = time.perf_counter()
    while len(untraced) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        untraced.append(workload.round())
        if tracer is not None:
            tracer.install()
            try:
                traced.append(workload.round())
            finally:
                tracer.uninstall()
        while (probe is not None and len(setup) < SETUP_PROBES
               and time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES):
            setup.append(probe())
    while probe is not None and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return untraced, traced, setup


def check_outputs(workload, skip) -> set:
    """Indices of operations whose final CSV fails a check; operations in
    ``skip`` already failed and are not checked."""
    import checks  # scipy is loaded only after peak RSS has been read

    bad_ops = set()
    for k, (case, _) in enumerate(workload.ops):
        if k in skip:
            continue
        try:
            header, rows = checks.read_report(workload.out_path(k))
            problems = checks.check_report(case, header, rows, checks.reference(case))
        except (OSError, ValueError, IndexError) as exc:
            problems = [f"unreadable report: {exc}"]
        for line in problems[:5]:
            print(f"check failed: {case.name}: {line}", file=sys.stderr)
        if problems:
            bad_ops.add(k)
    return bad_ops


def metric(value, unit):
    return {"value": value, "unit": unit}


def trace_metrics(tracer, untraced, traced, out_dir) -> dict:
    """Per-layer metrics, per traced round."""
    n = len(traced)
    round_s = sum(loop for loop, _, _ in traced) / n
    untraced_round_s = sum(loop for loop, _, _ in untraced) / n
    metrics = {}
    for name, totals in tracer.layer_totals().items():
        metrics[f"{name}.calls"] = metric(totals["calls"] / n, "count")
        metrics[f"{name}.self_s"] = metric(totals["self_s"] / n, "s")
        if "work_n3" in totals:
            metrics[f"{name}.work_n3"] = metric(totals["work_n3"] / n, "computed-count")
    metrics["bench.outside_s"] = metric(round_s - tracer.root_seconds() / n, "s")
    metrics["trace.round_s"] = metric(round_s, "s")
    metrics["trace.untraced_round_s"] = metric(untraced_round_s, "s")
    metrics["trace.overhead_s"] = metric(round_s - untraced_round_s, "s")
    metrics["trace.overhead_est_s"] = metric(len(tracer.spans) / n * tracer.span_cost(), "s")
    tracer.write_spans(os.path.join(out_dir, "spans.jsonl"))
    for name in tracer.absent:
        print(f"absent: {name}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    shutil.rmtree(args.out_dir, ignore_errors=True)
    cases = scenarios.generate(args.workload, args.seed)
    paths = scenarios.write_configs(cases, args.out_dir)
    probe = None if args.trace else functools.partial(setup_sample, paths)
    if probe is not None:
        probe()  # untimed: fills the file cache and the bytecode cache

    import projlind
    from projlind import cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(projlind.__file__).startswith(src + os.sep):
        print(f"error: projlind imported from {projlind.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = Workload(cli, cases, paths)
    workload.round()  # warm-up, untimed; records the expected outputs
    tracer = Tracer() if args.trace else None
    untraced, traced, setup = measure(workload, args.seconds, tracer, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    results = untraced + traced
    run_failed = set().union(*(failed for _, _, failed in results))
    bad_ops = check_outputs(workload, skip=run_failed)
    failed = sum(len(failed | bad_ops) for _, _, failed in results)

    if tracer is not None:
        metrics = trace_metrics(tracer, untraced, traced, args.out_dir)
    else:
        ok = [k for k in range(len(cases)) if k not in run_failed | bad_ops]
        op_s = sum(statistics.median(times[k] for _, times, _ in untraced) for k in ok)
        points = sum(len(cases[k].grid()) for k in ok)
        metrics = {
            "points_per_s": metric(points / op_s if ok else 0.0, "points/s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    result = {"correct": not bad_ops, "attempted": len(results) * len(cases),
              "failed": failed, "metrics": metrics}
    with open(os.path.join(args.out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, op_seconds=[times for _, times, _ in results]), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
