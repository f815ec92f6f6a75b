"""Steadiness check: how far each end-to-end metric moves between runs.

    python3 perfbench/steady.py --runs 10 [--seconds 20] [--workloads ...]

Runs ``run.py`` ``--runs`` times per workload, each time with another
seed, interleaving the workloads (explore, wide-batch, small-durable,
explore, ...) so that slow drift of the host spreads over all of them.
For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
inter-quartile distance as a share of the median.  Each spread is
compared with a third of the metric's bound in ``BENCHMARK.json``
(``setup_s`` is reported but has no spread limit); the share of failed
operations must be identical in every run.  Exits 1 when a run fails or
a limit is missed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    args = parser.parse_args(argv)

    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for i in range(args.runs):
        for workload in args.workloads:
            result = run_once(workload, args.first_seed + i, args.seconds)
            results[workload].append(result)
            print(f"# {workload} seed {args.first_seed + i}: " + " ".join(
                f"{k}={v['value']:.4g}"
                for k, v in result["metrics"].items()), flush=True)

    ok = True
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<14} {'metric':<17} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'limit':>7}")
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            ok = False
            print(f"{workload}: failed shares {sorted(shares)}, correct "
                  f"{[r['correct'] for r in runs]}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            limit = bound / 3.0
            flag = ""
            if metric != "setup_s" and spread >= limit:
                flag = "  <-- over"
                ok = False
            print(f"{workload:<14} {metric:<17} {median:>10.4g} {q1:>10.4g} "
                  f"{q3:>10.4g} {spread:>7.3f} {limit:>7.3f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
