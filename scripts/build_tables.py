#!/usr/bin/env python3
"""Build every desk-scale Weingarten table and dump them as JSON files.

Symbolic tables up to the default caps (unitary n<=4 here to keep the run
short, orthogonal n<=4), plus numeric tables at a chosen tau.  Output goes to
--outdir (default ./tables); each file is written row by row, byte for byte
what ``weingarten table --out`` writes.
"""

import argparse
import time
from fractions import Fraction
from pathlib import Path

from weingarten.cli import _int_at_least, _parse_rational
from weingarten.coeffring import TAU
from weingarten.orthogonal import weingarten_orthogonal
from weingarten.unitary import weingarten_unitary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("tables"))
    parser.add_argument("--tau", type=_parse_rational, default=Fraction(7),
                        help="parameter for the numeric tables (default 7)")
    parser.add_argument("--max-unitary", type=_int_at_least(0), default=4)
    parser.add_argument("--max-orthogonal", type=_int_at_least(0), default=4)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    # a file name cannot hold the slash of a fraction: 7/2 is written tau7_2
    tau_name = f"tau{args.tau}".replace("/", "_")
    jobs = []
    for n in range(1, args.max_unitary + 1):
        jobs.append(("unitary", n, TAU, f"unitary-n{n}-symbolic.json"))
        jobs.append(("unitary", n, args.tau, f"unitary-n{n}-{tau_name}.json"))
    for n in range(1, args.max_orthogonal + 1):
        jobs.append(("orthogonal", n, TAU, f"orthogonal-n{n}-symbolic.json"))
        jobs.append(("orthogonal", n, args.tau, f"orthogonal-n{n}-{tau_name}.json"))

    for group, n, tau, filename in jobs:
        started = time.time()
        build = weingarten_unitary if group == "unitary" else weingarten_orthogonal
        table = build(n, tau)
        path = args.outdir / filename
        with path.open("w") as fh:
            fh.writelines(table.json_chunks())
        print(f"{path}  basis={len(table.basis)}  ({time.time() - started:.1f}s)")


if __name__ == "__main__":
    main()
