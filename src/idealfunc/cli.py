"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 verification-suite failure.  All
numeric output is locale-independent with `.` as the decimal separator.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from typing import Sequence

from . import analytic, arith, summatory, verify
from .analytic import AnalyticValue
from .field import FieldSpec, _check_memory, parse_field
from .ideals import enumerate_ideals, format_ideal, ideals_of_norm

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


@functools.cache  # once per process: parse_args keeps no state between calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="idealfunc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field(p: argparse.ArgumentParser) -> None:
        p.add_argument("--field", required=True,
                       help="field designation: q, q:<m>, or table:<path>")

    p = sub.add_parser("field", help="describe a field designation")
    add_field(p)
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("enumerate", help="stream all ideals with norm <= xmax")
    add_field(p)
    p.add_argument("--xmax", type=_finite_float, required=True)

    p = sub.add_parser("eval", help="evaluate one arithmetic function at one ideal")
    add_field(p)
    p.add_argument("--fn", choices=("mobius", "liouville", "qfree", "jordan"), required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--ideal", required=True,
                   help="NORM or NORM:IDX, the IDX-th ideal of that norm in canonical order")

    p = sub.add_parser(
        "sum", help="exact summatory value at one x",
        description="Exact summatory value at one x.  Over q and q:<m>, qfree and mobius k >= 2 "
                    "read a count table to sqrt(x) (x = 10^12 in 0.4 s), mobius 1 and liouville "
                    "read tables to x^(2/3) (x = 10^10 in 1 s); table fields sieve norms to x.")
    add_field(p)
    p.add_argument("--fn", choices=("mobius", "liouville", "qfree"), required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--fast", action="store_true",
                   help="qfree only; kept for old scripts: the answer is the same "
                        "with or without it")

    p = sub.add_parser("report", help="remainder reports over a geometric grid")
    add_field(p)
    p.add_argument("--theorem", choices=("0", "1", "2", "3"), required=True,
                   help="0 ideal count, 1 Mobius sum, 2 Liouville sum, 3 k-free count")
    p.add_argument("--order", type=int, help="the order k (theorems 1-3)")
    p.add_argument("--grid", required=True, help="a:b:points (geometric)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", help="run a brute-force invariant suite")
    add_field(p)
    p.add_argument("--suite", choices=sorted(verify.SUITES), required=True)
    p.add_argument("--xmax", type=int, default=5000)
    p.add_argument("--kmax", type=int, default=4)

    p = sub.add_parser("zeta", help="Dedekind zeta value at real s > 1")
    add_field(p)
    p.add_argument("--s", type=_finite_float, required=True,
                   help="s > 1.001; at the default cutoff the tail bound is finite "
                        "from about s = 1.0028 over q and 1.0054 over q:<m>, and a "
                        "refused s is told the least s that answers")
    p.add_argument("--tol", type=_finite_float, default=None,
                   help="largest relative tail bound; picks the prime cutoff")

    p = sub.add_parser("constant", help="leading constant of the order-k Mobius sum")
    add_field(p)
    p.add_argument("--order", type=int, required=True)

    return parser


def _analytic_json(v: AnalyticValue) -> str:
    return json.dumps({"value": v.value, "tail_bound": v.tail_bound, "method": v.method})


# what `report` holds per grid point: measured about 1,900 bytes for the two
# Liouville rows of a point in --format json (1,100 for the other theorems)
_GRID_POINT_BYTES = 2000


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad grid {spec!r}, expected a:b:points")
    try:
        a, b, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"bad grid {spec!r}") from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise UsageError(f"bad grid {spec!r}: a and b must be finite")
    if a < 1 or b < a or points < 1:
        raise UsageError("grid needs 1 <= a <= b and points >= 1")
    _check_memory(points, _GRID_POINT_BYTES, what=f"bad grid {spec!r}: {points} points",
                  unit="grid point")
    if points == 1:
        return [a]
    ratio = (b / a) ** (1.0 / (points - 1))
    grid = [a * ratio**i for i in range(points)]
    grid[-1] = b
    if any(y <= x for x, y in zip(grid, grid[1:])):
        raise UsageError(f"bad grid {spec!r}: its points are not strictly increasing floats")
    return grid


def _find_ideal(field: FieldSpec, spec: str):
    parts = spec.split(":")
    try:
        norm = int(parts[0])
        idx = int(parts[1]) if len(parts) > 1 else 0
    except (ValueError, IndexError):
        raise UsageError(f"bad ideal designation {spec!r}, expected NORM[:IDX]") from None
    if norm < 1 or idx < 0:
        raise UsageError("ideal norm must be >= 1 and index >= 0")
    matches = ideals_of_norm(field, norm)
    if idx >= len(matches):
        raise UsageError(f"no ideal of norm {norm} with index {idx} "
                         f"({len(matches)} such ideals exist)")
    return matches[idx]


def _cmd_field(args, out) -> int:
    field = parse_field(args.field)
    info = {"label": field.label, "degree": field.degree, "discriminant": field.disc}
    if args.format == "json":
        print(json.dumps(info), file=out)
    else:
        print(f"label={field.label} degree={field.degree} discriminant={field.disc}",
              file=out)
    return 0


def _cmd_enumerate(args, out) -> int:
    field = parse_field(args.field)
    if args.xmax < 1:
        raise UsageError("--xmax must be >= 1")
    ideals = enumerate_ideals(field, args.xmax)
    # enumerate_ideals does all its work, and any refusal, before it yields
    # the unit ideal, so an xmax the prime sieve refuses prints nothing
    first = next(ideals)
    print("norm,factorization", file=out)
    for A in itertools.chain((first,), ideals):
        print(f"{A.norm},{format_ideal(A)}", file=out)
    return 0


_EVAL_FNS = {"mobius": arith.mu_k, "liouville": arith.lambda_k, "qfree": arith.q_k,
             "jordan": arith.jordan_totient}


def _cmd_eval(args, out) -> int:
    A = _find_ideal(parse_field(args.field), args.ideal)
    print(_EVAL_FNS[args.fn](args.order, A), file=out)
    return 0


_SUM_FNS = {"mobius": summatory.mertens_k, "liouville": summatory.liouville_sum_k,
            "qfree": summatory.qfree_count}


def _cmd_sum(args, out) -> int:
    field = parse_field(args.field)
    if args.x < 1:
        raise UsageError("--x must be >= 1")
    if args.fast and args.fn != "qfree":
        raise UsageError("--fast applies to --fn qfree only")
    print(_SUM_FNS[args.fn](field, args.order, args.x), file=out)
    return 0


def _cmd_report(args, out) -> int:
    field = parse_field(args.field)
    grid = _parse_grid(args.grid)
    if args.theorem != "0" and args.order is None:
        raise UsageError("--order is required for theorems 1-3")
    kind = {"0": "count", "1": "mobius", "2": "liouville", "3": "qfree"}[args.theorem]
    reports = summatory.sweep(kind, field, args.order, grid)
    if args.format == "json":
        columns = summatory.CSV_HEADER.split(",")
        rows = [{name: getattr(r, name) for name in columns} for r in reports]
        print(json.dumps(rows), file=out)
    else:
        print(summatory.CSV_HEADER, file=out)
        for r in reports:
            print(r.csv_row(), file=out)
    return 0


def _cmd_verify(args, out) -> int:
    field = parse_field(args.field)
    suite = verify.SUITES[args.suite]
    results = suite(field, xmax=args.xmax, kmax=args.kmax)
    failed = False
    for r in results:
        print(r.line(), file=out)
        failed = failed or not r.ok
    print(("FAILED" if failed else "passed") + f" {args.suite} suite: "
          f"{sum(not r.ok for r in results)} of {len(results)} checks failed", file=out)
    return 2 if failed else 0


def _cutoff_for_tol(tol: float | None, s: float) -> int:
    if tol is None or s <= 1 + 1e-3:  # dedekind_zeta refuses such s
        return analytic.PRIME_CUTOFF
    if tol <= 0:
        raise UsageError("--tol must be positive")
    try:
        cutoff = (4.0 / (tol * (s - 1))) ** (1.0 / (s - 1))
    except (OverflowError, ZeroDivisionError):  # tol * (s - 1) underflows to 0
        cutoff = math.inf
    return int(max(1e4, math.ceil(min(2e6, cutoff))))


def _cmd_zeta(args, out) -> int:
    field = parse_field(args.field)
    cutoff = _cutoff_for_tol(args.tol, args.s)
    value = analytic.dedekind_zeta(field, args.s, cutoff)
    if args.tol is not None and value.tail_bound > args.tol * value.value:
        raise UsageError(f"--tol {args.tol:g} not reached: tail bound {value.tail_bound:.3g} "
                         f"at prime cutoff {cutoff}")
    print(_analytic_json(value), file=out)
    return 0


def _cmd_constant(args, out) -> int:
    field = parse_field(args.field)
    value = analytic.mobius_density_constant(field, args.order)
    print(_analytic_json(value), file=out)
    return 0


_COMMANDS = {
    "field": _cmd_field,
    "enumerate": _cmd_enumerate,
    "eval": _cmd_eval,
    "sum": _cmd_sum,
    "report": _cmd_report,
    "verify": _cmd_verify,
    "zeta": _cmd_zeta,
    "constant": _cmd_constant,
}


def main(argv: Sequence[str] | None = None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
        code = _COMMANDS[args.command](args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull, so
        # the flush at exit fails no second time (the recipe of the `signal`
        # module's documentation)
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 1
    except (UsageError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=err)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
