"""Benchmark of semitop's four traffic paths.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run repeats whole rounds of the workload's
operations for ``--seconds`` and reports ``wall_s`` (the sum over operations
of each one's median time), ``setup_s`` (median of fresh-interpreter
set-ups) and ``peak_rss_mb``.  With ``--trace 1`` it runs one round, then
the per-layer plan untraced and traced, writes the spans to
``bench/out/trace-<workload>-seed<n>.json`` and reports the per-layer
metrics.  Every output is checked; the last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 7
# a hang case that has not returned by then is counted as failed; today
# each is an infinite loop, so any deadline separates them
HANG_DEADLINE_S = 1.5


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def _setup_seconds(workload, seed, rundir):
    """Median of fresh-interpreter set-ups, each into its own directory."""
    samples = []
    for k in range(SETUP_PROBES):
        probe_dir = rundir / f"setup-{k}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
             str(probe_dir)], capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
        shutil.rmtree(probe_dir)
    return statistics.median(samples)


def _start_hangs(cases):
    return [(case, time.perf_counter(),
             subprocess.Popen([sys.executable, str(HERE / "hang.py"), case],
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              cwd=ROOT))
            for case in cases]


def _finish_hangs(children):
    """Wait for each child until its deadline, then kill it.  Returns how
    many did not return successfully in time."""
    failed = 0
    for case, started, proc in children:
        remaining = HANG_DEADLINE_S - (time.perf_counter() - started)
        try:
            proc.wait(timeout=max(0.0, remaining))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            failed += 1
            continue
        if proc.returncode != 0:
            _log(f"hang case {case} exited with code {proc.returncode}")
            failed += 1
    return failed


class Rounds:
    """Whole rounds of one workload: timed operations, then hangs in child
    processes while the outputs are checked."""

    def __init__(self, setup, order):
        self.setup = setup
        self.order = order
        self.times = {i: [] for i in order}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.count = 0

    def run_one(self):
        ops = self.setup.ops
        results = []
        for i in self.order:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = ops[i].run()
            except Exception:  # a crash is a failed operation, not the end of the run
                _log(f"{ops[i].name} raised:\n{traceback.format_exc()}")
                self.failed += 1
                continue
            self.times[i].append(time.perf_counter() - t0)
            results.append((i, out))
        children = _start_hangs(self.setup.hangs)
        try:
            for i, out in results:
                try:
                    self.problems += ops[i].check(out)
                except Exception:
                    self.problems.append(f"{ops[i].name}: checker raised "
                                         f"{traceback.format_exc(limit=2)}")
        finally:
            self.failed += _finish_hangs(children)
            self.attempted += len(children)
        self.count += 1

    def wall_s(self):
        return sum(statistics.median(t) for t in self.times.values() if t)


def _untraced(args, setup, order, rundir):
    setup_s = _setup_seconds(args.workload, args.seed, rundir)
    rounds = Rounds(setup, order)
    end = time.perf_counter() + args.seconds
    while True:
        rounds.run_one()
        if time.perf_counter() >= end:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    _log(f"{args.workload}: {rounds.count} rounds of {len(order)} operations")
    metrics = {"wall_s": {"value": rounds.wall_s(), "unit": "s"},
               "setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": peak, "unit": "MB"}}
    return rounds, metrics


def _traced(args, setup, order):
    import layers
    from spans import NullTracer, Tracer

    rounds = Rounds(setup, order)
    rounds.run_one()
    plan_problems = []
    t0 = time.perf_counter()
    layers.run_plan(NullTracer(), args.seed, plan_problems)
    untraced = time.perf_counter() - t0
    tr = Tracer()
    t0 = time.perf_counter()
    calls, report_bytes = layers.run_plan(tr, args.seed, plan_problems)
    traced = time.perf_counter() - t0
    rounds.problems += plan_problems
    _log(f"layer plan: {calls} calls, {untraced:.3f} s untraced, {traced:.3f} s traced")

    totals = tr.self_totals()
    metrics = {}
    for name, unit in layers.metric_names():
        if name == "corpus.report_bytes":
            value = report_bytes
        elif name == "trace.overhead_s":
            value = traced - untraced
        else:
            span, _, field_name = name.rpartition(".")
            value = totals[span][field_name]
        metrics[name] = {"value": value, "unit": unit}
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tr.write(path, {"workload": args.workload, "seed": args.seed,
                    "layer_calls": calls, "untraced_plan_s": untraced,
                    "traced_plan_s": traced,
                    "metrics": metrics})
    _log(f"trace written to {path.relative_to(ROOT)}")
    return rounds, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "semitop" / "__init__.py").is_file():
        _log(f"no semitop sources under {ROOT / 'src'}; run from a source checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.SETUPS:
        _log(f"unknown workload {args.workload!r}; known: {', '.join(workloads.SETUPS)}")
        return 2

    rundir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True)
    try:
        setup = workloads.SETUPS[args.workload](args.seed, rundir)
        order = workloads.round_order(setup.ops, args.seed)
        if args.trace:
            rounds, metrics = _traced(args, setup, order)
        else:
            rounds, metrics = _untraced(args, setup, order, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for problem in rounds.problems[:20]:
        _log(f"INCORRECT: {problem}")
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{args.workload} {name}: {value} {m['unit']}")
    print(f"{args.workload}: attempted {rounds.attempted}, failed {rounds.failed}")
    print(json.dumps({"correct": not rounds.problems, "attempted": rounds.attempted,
                      "failed": rounds.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
