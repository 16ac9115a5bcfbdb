"""Steadiness check: run every workload in separate sets of seeded runs and
report each end-to-end metric against its bound in BENCHMARK.json.

    python3 bench/steady.py [--sets 2] [--runs 10] [--workload NAME ...]

Each run gets its own seed.  For every set the spread is the distance
between the first and third quartile of a metric's values as a share of
their median; it must stay within the metric's bound (set-up time is
exempt).  The median of each later set may not be worse than the first
set's by more than the bound, and the share of failed operations must be
identical in every set.  Exits 1 when any of these does not hold.  With
``--sets 1 --runs 1`` it is the one command that runs every workload once.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {w: [] for w in names}  # per workload, one list of runs per set
    seed = args.first_seed
    for k in range(args.sets):
        for w in names:
            runs = []
            for _ in range(args.runs):
                res = run_once(w, seed, spec["run_seconds"])
                values = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g} "
                                  f"{m['unit']}" for m in metrics)
                print(f"set {k + 1} {w} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} {values}",
                      flush=True)
                runs.append(res)
                seed += 1
            results[w].append(runs)

    ok = True
    print()
    for w in names:
        sets = results[w]
        shares = [Fraction(sum(r["failed"] for r in runs),
                           sum(r["attempted"] for r in runs)) for runs in sets]
        attempted = sum(r["attempted"] for runs in sets for r in runs)
        failed = sum(r["failed"] for runs in sets for r in runs)
        correct = all(r["correct"] for runs in sets for r in runs)
        same_share = len(set(shares)) == 1
        ok &= correct and same_share
        print(f"{w}: attempted {attempted}, failed {failed}, correct={correct}, "
              f"failed share {'identical' if same_share else 'DIFFERS'} across sets")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) if len(v) > 1 else 0.0 for v in per_set]
            shifts = [worse_by(medians[0], med, m["better"]) for med in medians[1:]]
            bad_spread = name != "setup_s" and any(s > bound for s in spreads)
            bad_shift = any(s > bound for s in shifts)
            ok &= not (bad_spread or bad_shift)
            print(f"  {name} ({m['unit']}, bound {bound:.0%}): medians "
                  + " ".join(f"{v:.4g}" for v in medians)
                  + "; spreads " + " ".join(f"{s:.1%}" for s in spreads)
                  + ("; shift " + " ".join(f"{s:+.1%}" for s in shifts) if shifts else "")
                  + ("  SPREAD OVER BOUND" if bad_spread else "")
                  + ("  SHIFT OVER BOUND" if bad_shift else ""))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
