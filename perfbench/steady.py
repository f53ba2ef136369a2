"""Steadiness check: re-run one workload with N seeds and report the spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload presim --runs 10 [--first-seed 1]

Each run is a fresh process (``BENCHMARK.json``'s command and run length)
with its own seed, one after another. For every end-to-end metric the
command prints the median of the runs, the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, and the metric's bound. A spread above a third of the bound is flagged: such a
metric cannot resolve a change of the bound's size. ``setup_s`` is gated on
its median, not its spread, and is flagged only above the bound itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in a fresh process; returns its result object."""
    argv = list(command) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"seed {seed}: no output; stderr:\n{completed.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(bench["command"], args.workload, seed, bench["run_seconds"])
        results.append(result)
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} "
            + " ".join(
                f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items()
            ),
            flush=True,
        )

    steady = all(r["correct"] for r in results)
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}")
    steady = steady and len(shares) == 1
    print(f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median
        limit = bound if name == "setup_s" else bound / 3
        flag = "" if share <= limit else "  <-- above " + (
            "bound" if name == "setup_s" else "bound/3"
        )
        steady = steady and not flag
        print(f"{name:18s} {median:12.6g} {q1:12.6g} {q3:12.6g} {share:8.2%} {bound:6.2f}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
