"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify_stream --seed 1 --seconds 30 --trace 0

Human-readable lines (input fingerprints, one line per metric, failed
checks) come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 when every output check passed, 1 when one failed, and 2 when
the run could not produce a result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("presim", "verify_stream", "kfailure_sweep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="input size: full (the benchmark) or smoke (seconds, for tests)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"perfbench: program sources not found at {source.parent}", file=sys.stderr)
        return 2
    # Tracked bytecode files must not be rewritten by a benchmark run.
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.harness import NoOperationSucceeded, run

    try:
        result = run(
            args.workload, args.seed, args.seconds, trace=bool(args.trace), size=args.size
        )
    except NoOperationSucceeded as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
