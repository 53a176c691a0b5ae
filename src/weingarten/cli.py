"""Command-line front end.

Subcommands: ``table``, ``gram``, ``wgfn``, ``characters``, ``verify``, ``mc``.
Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error or an output file that cannot be written, 3 domain error.  Run as a
program, the CLI ends on SIGPIPE, as other Unix filters do, when its reader
closes stdout early.

``characters --n K`` also writes its table to ``characters-nK.json`` under
``WG_CACHE_DIR`` (default ``~/.cache/weingarten``), tagged with a schema; no
command reads that file back.  Symbolic values render with the variable
letter "t".
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from fractions import Fraction
from pathlib import Path

from .coeffring import TAU, is_symbolic, render
from .symcore import Partition

# default desk-scale caps; --force lifts them
CAPS = {
    "unitary": {"symbolic": 5, "numeric": 5},
    "orthogonal": {"symbolic": 4, "numeric": 5},
}
MC_GRID_CAP = 2
# tau^(4n) grid moments; the run scores C(tau^2+n-1, n)^2 pairs of distinct
# products and ties tau^(2n) index tuples in Python, and the cap keeps that to seconds
MC_MOMENT_CAP = 5**8
# verify.SUITES, named here so that only `verify` commands import verify
VERIFY_SUITES = (
    "jucys", "oid", "idempotents", "central", "pseudoinverse", "doubling", "keyid", "stability",
    "commute",
)


def cache_dir() -> Path:
    env = os.environ.get("WG_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "weingarten"


def _parse_tau(text: str):
    """--tau value: 'symbolic' or an exact rational P/Q."""
    if text == "symbolic":
        return TAU
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected 'symbolic' or a rational P/Q: {exc}")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational P/Q: {exc}")


def _int_at_least(low: int):
    """argparse type for an integer >= low; anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _index_lists(text: str) -> list[tuple[int, ...]]:
    """--indices value: semicolon-separated lists of comma-separated integers.

    A list may be empty; an entry that is empty or not an integer is a usage
    error.  How many lists the group needs is checked later, as a domain error.
    """
    lists = []
    for chunk in (c.strip() for c in text.split(";")):
        try:
            lists.append(tuple(int(v) for v in chunk.split(",")) if chunk else ())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {chunk!r}")
    return lists


def _cycle_type(text: str) -> Partition:
    """--cycle-type value: a partition of positive weight, e.g. "[2,1]"."""
    try:
        mu = Partition.from_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a partition like [2,1]: {exc}")
    if not mu:
        raise argparse.ArgumentTypeError("expected a partition of positive weight, got []")
    return mu


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weingarten",
        description="Exact Weingarten matrices for U(t) and O(t), with verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--group", required=True, choices=("unitary", "orthogonal"))
        p.add_argument("--n", required=True, type=_positive_int)
        p.add_argument("--tau", type=_parse_tau, default=TAU)
        p.add_argument("--force", action="store_true", help="lift the desk-scale size caps")

    p_table = sub.add_parser("table", help="emit Gram + Weingarten matrices")
    add_common(p_table)
    p_table.add_argument("--format", choices=("json", "csv"), default="json")
    p_table.add_argument("--out", type=Path, default=None)

    p_gram = sub.add_parser("gram", help="emit the Gram matrix only")
    add_common(p_gram)
    p_gram.add_argument("--format", choices=("json", "csv"), default="json")
    p_gram.add_argument("--out", type=Path, default=None)

    p_wgfn = sub.add_parser("wgfn", help="print one unitary Weingarten class-function value")
    p_wgfn.add_argument("--group", required=True, choices=("unitary",))
    p_wgfn.add_argument("--cycle-type", required=True, type=_cycle_type,
                        help='partition text, e.g. "[2,1]"')
    p_wgfn.add_argument("--tau", type=_parse_tau, default=TAU)

    p_chars = sub.add_parser(
        "characters", help="emit the character table of S_n and write it under WG_CACHE_DIR"
    )
    p_chars.add_argument("--n", required=True, type=_positive_int)

    p_verify = sub.add_parser("verify", help="run verification suites for sizes 1..n")
    p_verify.add_argument("--suite", required=True, choices=(*VERIFY_SUITES, "all"))
    p_verify.add_argument("--n", required=True, type=_positive_int)
    p_verify.add_argument("--tau", type=_parse_rational, default=None,
                          help="rational parameter of the oid, stability and pseudoinverse "
                               "sizes n>=4, which are otherwise proved symbolically, and the "
                               "first commute parameter (default 3)")
    p_verify.add_argument("--tau2", type=_parse_rational, default=None,
                          help="second parameter for the commute suite (default 7)")
    p_verify.add_argument("--deep", action="store_true",
                          help="include the 2n=8 doubling check (slow)")
    p_verify.add_argument("--force", action="store_true")

    p_mc = sub.add_parser("mc", help="Monte-Carlo cross-check against exact predictions")
    p_mc.add_argument("--group", required=True, choices=("unitary", "orthogonal"))
    p_mc.add_argument("--n", required=True, type=_positive_int)
    p_mc.add_argument("--tau", required=True, type=_positive_int)
    # z-scores need a sample variance; below 100 draws they mean nothing
    p_mc.add_argument("--samples", type=_int_at_least(100), default=200_000)
    p_mc.add_argument("--seed", type=_int_at_least(0), default=1)
    p_mc.add_argument(
        "--indices",
        type=_index_lists,
        default=None,
        help=(
            "explicit index tuples, semicolon-separated comma lists: "
            "unitary rows;cols;conj_rows;conj_cols, orthogonal rows;cols"
        ),
    )
    p_mc.add_argument("--force", action="store_true")
    return parser


def _check_cap(n: int, cap: int, force: bool, what: str) -> str | None:
    if n > cap and not force:
        return f"--n {n} exceeds the {what} cap {cap}; pass --force to run anyway"
    return None


def _write_failed(path: Path, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _emit(chunks, out: Path | None) -> int:
    """Write the chunks to stdout or `out`; 2 if `out` fails.  A table's
    first chunk comes after its proofs, so a domain error opens nothing."""
    first = next(chunks)
    if out is None:
        sys.stdout.write(first)
        sys.stdout.writelines(chunks)
        return 0
    try:
        with out.open("w") as fh:
            fh.write(first)
            fh.writelines(chunks)
    except OSError as exc:
        return _write_failed(out, exc)
    return 0


def _cmd_table(args) -> int:
    """``table`` writes G and W (CSV: W alone); ``gram`` builds and writes G alone.

    ``table`` imports its own group's module, ``gram`` neither.
    """
    kind = "symbolic" if is_symbolic(args.tau) else "numeric"
    message = _check_cap(args.n, CAPS[args.group][kind], args.force, f"{kind} {args.group}")
    if message:
        print(message, file=sys.stderr)
        return 2
    if args.command == "gram":
        from .exactmat import weingarten_table

        table = weingarten_table(args.group, args.n, args.tau)
    elif args.group == "unitary":
        from .unitary import weingarten_unitary

        table = weingarten_unitary(args.n, args.tau)
    else:
        from .orthogonal import weingarten_orthogonal

        table = weingarten_orthogonal(args.n, args.tau)
    return _emit(table.json_chunks() if args.format == "json" else table.csv_chunks(), args.out)


def _cmd_wgfn(args) -> int:
    from .unitary import wg_function_unitary

    print(render(wg_function_unitary(args.cycle_type, args.tau)))
    return 0


def _cmd_characters(args) -> int:
    from .young import character_table

    text = json.dumps(character_table(args.n))
    path = cache_dir() / f"characters-n{args.n}.json"
    # write through a temporary file in the same directory, then rename
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(text + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        return _write_failed(path, exc)
    print(text)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    if args.suite == "all":
        chosen = [(name, min(args.n, cap)) for name, (cap, _) in verify.SUITES.items()]
    else:
        cap = verify.SUITES[args.suite][0]
        message = _check_cap(args.n, cap, args.force, f"'{args.suite}' suite")
        if message:
            print(message, file=sys.stderr)
            return 2
        chosen = [(args.suite, args.n)]
    if args.suite in ("commute", "all"):
        # equal parameters are a domain error before any suite prints
        verify.commute_parameters(args.tau, args.tau2)
    all_ok = True
    for name, max_n in chosen:
        if max_n < args.n:
            print(f"note: --n {args.n} lowered to the '{name}' suite cap {max_n}", file=sys.stderr)
        if name == "doubling" and max_n > verify.DOUBLING_TOP and not args.deep:
            print(f"note: 'doubling' stops at 2n={2 * verify.DOUBLING_TOP}; "
                  f"pass --deep for 2n up to {2 * max_n}", file=sys.stderr)
        for label, ok in verify.run(name, max_n, args.tau, args.tau2, args.deep):
            print(f"{'ok  ' if ok else 'FAIL'} {label}")
            sys.stdout.flush()
            all_ok = all_ok and ok
    return 0 if all_ok else 1


def _cmd_mc(args) -> int:
    # haarmc imports numpy at load, and no other command needs it
    from .haarmc import MomentSpec, estimate_moment, grid_crosscheck

    if args.indices is None:
        message = _check_cap(args.n, MC_GRID_CAP, args.force, "mc full-grid")
        if not (message or args.force):
            moments = args.tau ** (4 * args.n)
            if moments > MC_MOMENT_CAP:
                message = (f"--tau {args.tau} at --n {args.n} gives {moments} moments, past the "
                           f"mc full-grid cap {MC_MOMENT_CAP}; pass --force to run anyway")
        if message:
            print(message, file=sys.stderr)
            return 2
        report = grid_crosscheck(args.group, args.n, args.tau, args.samples, args.seed)
        print(json.dumps(report.to_json_dict()))
        return 0 if report.ok else 1
    parts = args.indices
    expected = 4 if args.group == "unitary" else 2
    if len(parts) != expected:
        raise ValueError(f"--indices for {args.group} needs {expected} "
                         f"semicolon-separated lists, got {len(parts)}")
    if args.group == "unitary":
        rows, cols, conj_rows, conj_cols = parts
    else:
        (rows, cols), conj_rows, conj_cols = parts, (), ()
    spec = MomentSpec(
        group=args.group,
        tau=args.tau,
        rows=rows,
        cols=cols,
        conj_rows=conj_rows,
        conj_cols=conj_cols,
        samples=args.samples,
        seed=args.seed,
    )
    cap = CAPS[args.group]["numeric"]
    if (spec.degree or 0) > cap and not args.force:
        print(f"--indices degree {spec.degree} exceeds the {args.group} cap {cap}; "
              "pass --force to run anyway", file=sys.stderr)
        return 2
    report = estimate_moment(spec)
    print(json.dumps(report.to_json_dict()))
    return 0 if abs(report.z) <= 4.0 else 1


HANDLERS = {
    "table": _cmd_table,
    "gram": _cmd_table,
    "wgfn": _cmd_wgfn,
    "characters": _cmd_characters,
    "verify": _cmd_verify,
    "mc": _cmd_mc,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    # a closed stdout ends the process by SIGPIPE, not as a failed check (exit 1)
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
