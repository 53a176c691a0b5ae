#!/usr/bin/env python3
"""Monte-Carlo cross-check sweep: every low-degree entry moment vs theory.

Runs the full degree-(2,2) unitary grid and the degree-4 orthogonal grid at
several seeds, printing the max |z| for each run.  Useful for eyeballing the
statistical margin behind the frozen acceptance seed.  Exits 1 when any grid
has a moment past the threshold, 2 on a usage error.
"""

import argparse
import json
import math
import sys
import time

from weingarten.cli import _int_at_least
from weingarten.haarmc import grid_crosscheck


def _finite_positive(text: str) -> float:
    """argparse type for a finite float > 0; anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=_int_at_least(100), default=200_000)
    parser.add_argument("--seeds", type=_int_at_least(0), nargs="+", default=[1, 2, 3])
    parser.add_argument("--threshold", type=_finite_positive, default=4.0)
    parser.add_argument("--json", action="store_true", help="emit one JSON line per run")
    args = parser.parse_args()

    runs = [("unitary", 2, 3), ("orthogonal", 2, 4)]
    worst = 0.0
    failed = False
    for seed in args.seeds:
        for group, n, tau in runs:
            started = time.perf_counter()
            report = grid_crosscheck(group, n, tau, args.samples, seed, args.threshold)
            worst = max(worst, report.max_abs_z)
            failed = failed or not report.ok
            if args.json:
                print(json.dumps(report.to_json_dict()))
            else:
                verdict = "ok" if report.ok else f"{len(report.failures)} FAILURES"
                print(
                    f"seed={seed} {group:>10} n={n} tau={tau}: "
                    f"max|z|={report.max_abs_z:.3f} over {report.moments} moments "
                    f"[{verdict}] ({time.perf_counter() - started:.1f}s)"
                )
    print(f"worst |z| across runs: {worst:.3f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
