"""Record the golden output of every query the benchmark can generate.

    PYTHONPATH=src python3 perfbench/record_golden.py

Each query runs once through idealfunc.cli.main in this process and its
stdout is stored in perfbench/golden.json.  Before anything is written, each
exact integer is cross-checked by an independent route where one exists:

- sums over Q (mobius, liouville, qfree) against a smallest-prime-factor
  integer sieve written here, which shares no code with the package;
- `sum --fn qfree` against `sum --fn qfree --fast` (the inversion formula);
- the Q(i) table field against q:-1;
- `eval` values against the sieve: the pointwise values over all ideals of
  norm N add up to the sieve coefficient c(N);
- report `raw` columns over Q against the integer sieve;
- `zeta` (Euler product) against the coefficient series, within the sum of
  both tail bounds and a relative 1e-12 for float rounding.

Report and analytic outputs are stored with the relative tolerance their
tail bounds allow (see run.py for the comparison).
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
# rounding in the float sums, which the tail bounds do not cover
FLOAT_SLACK = 1e-12


def cli_out(main, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    rc = main(list(argv), out=out, err=err)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _rule_values(fn: str, k: int, emax: int = 64) -> np.ndarray:
    e = np.arange(emax)
    if fn == "mobius":
        v = np.where(e < k, 1, np.where(e == k, -1, 0))
    elif fn == "liouville":
        r = e % (k + 1)
        v = np.where(r == 0, 1, np.where(r == 1, -1, 0))
    else:
        v = (e < k).astype(int)
    return v.astype(np.int8)


def integer_sieve_prefix(n: int, keys) -> dict:
    """Prefix sums over 1..n of mu_k, lambda_k and the k-free indicator on Z,
    by smallest-prime-factor factorization of every integer."""
    spf = np.zeros(n + 1, dtype=np.int32)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    idx = np.arange(n + 1, dtype=np.int32)
    unset = spf == 0
    spf[unset] = idx[unset]
    del unset
    vals = {key: np.ones(n + 1, dtype=np.int8) for key in keys}
    rules = {key: _rule_values(*key) for key in keys}
    m = idx
    active = np.nonzero(m > 1)[0].astype(np.int32)
    while active.size:
        mm = m[active]
        p = spf[mm]
        e = np.zeros(active.size, dtype=np.int8)
        while True:
            d = mm % p == 0
            if not d.any():
                break
            mm = np.where(d, mm // p, mm)
            e += d
        m[active] = mm
        for key in keys:
            vals[key][active] *= rules[key][e]
        active = active[mm > 1]
    for key in keys:
        vals[key][0] = 0
    return {key: np.cumsum(v, dtype=np.int64) for key, v in vals.items()}


def report_rtol(field, theorem: int, k: int) -> float:
    """Relative accuracy of a report's main term, from its analytic tail bounds."""
    from idealfunc import analytic

    if theorem == 2:
        return 0.0
    parts = [analytic.residue_c_F(field), analytic.dedekind_zeta(field, float(k))]
    if theorem == 1:
        parts.append(analytic.mobius_density_constant(field, k))
    return sum(v.tail_bound / abs(v.value) for v in parts)


def main() -> int:
    from idealfunc import _sieve, analytic, arith
    from idealfunc.cli import main as cli_main
    from idealfunc.field import parse_field
    from idealfunc.ideals import enumerate_ideals

    golden: dict[str, dict] = {}
    checks = 0

    def put(argv, out, **extra):
        golden[" ".join(argv)] = {"out": out, **extra}

    def agree(what, a, b):
        nonlocal checks
        if a != b:
            raise SystemExit(f"cross-check failed: {what}: {a!r} != {b!r}")
        checks += 1

    # classical integer sieve first, while no large program arrays are alive
    zkeys = [(fn, k) for fn in gen.SUM_FNS for k in gen.ORDERS]
    zprefix = integer_sieve_prefix(int(gen.BIGX), zkeys)
    zbig = {key: int(c[-1]) for key, c in zprefix.items()}
    zsums = {key: c[: max(gen.X_GRID) + 1].copy() for key, c in zprefix.items()}
    del zprefix
    print("integer sieve done", file=sys.stderr)

    put(gen.SETUP_QUERY, cli_out(cli_main, gen.SETUP_QUERY))

    for q in gen.BIGX_QUERIES:
        out = cli_out(cli_main, q)
        put(q, out)
        field, fn, k = q[2], q[4], int(q[6])
        if field == "q":
            agree(q, int(out), zbig[(fn, k)])
        if fn == "qfree":
            agree(q, out, cli_out(cli_main, q + ("--fast",)))
        _sieve.clear_cache()
        print(f"{' '.join(q)} = {out.strip()}", file=sys.stderr)

    for field, fn, k in gen.SUM_KEYS:
        for x in sorted(gen.X_GRID, reverse=True):
            q = gen.sum_query(field, fn, k, x)
            out = cli_out(cli_main, q)
            put(q, out)
            if field == "q":
                agree(q, int(out), int(zsums[(fn, k)][x]))
            if fn == "qfree":
                fq = gen.sum_query(field, fn, k, x, fast=True)
                fast = cli_out(cli_main, fq)
                agree(fq, fast, out)
                put(fq, fast)
    print("sums done", file=sys.stderr)

    os.makedirs(os.path.dirname(gen.TABLE_PATH), exist_ok=True)
    Path(gen.TABLE_PATH).write_text(gen.qi_table(0))
    for fn in gen.SUM_FNS:
        for k in gen.ORDERS:
            for x in gen.TABLE_X_GRID:
                q = gen.sum_query(gen.TABLE_FIELD, fn, k, x)
                out = cli_out(cli_main, q)
                agree(q, out, cli_out(cli_main, gen.sum_query("q:-1", fn, k, x)))
                put(q, out)
    print("table sums done", file=sys.stderr)

    for field_spec in gen.FIELDS:
        field = parse_field(field_spec)
        for theorem in (1, 2, 3):
            for k in gen.ORDERS:
                rtol = report_rtol(field, theorem, k)
                for grid in gen.REPORT_GRIDS:
                    q = gen.report_query(field_spec, theorem, k, grid)
                    out = cli_out(cli_main, q)
                    if field_spec == "q":
                        fn = gen.SUM_FNS[theorem - 1]
                        for row in out.splitlines()[1:]:
                            x, raw = float(row.split(",")[3]), int(row.split(",")[4])
                            agree(q, raw, int(zsums[(fn, k)][math.floor(x)]))
                    put(q, out, rtol=rtol)
        for s in gen.ZETA_S:
            q = gen.zeta_query(field_spec, s)
            out = cli_out(cli_main, q)
            v = json.loads(out)
            series = analytic.dedekind_zeta_series(field, float(s))
            slack = v["tail_bound"] + series.tail_bound + FLOAT_SLACK * abs(series.value)
            if abs(v["value"] - series.value) > slack:
                raise SystemExit(f"cross-check failed: {q}: series {series}")
            checks += 1
            put(q, out)
        for k in gen.CONSTANT_ORDERS:
            q = gen.constant_query(field_spec, k)
            put(q, cli_out(cli_main, q))
    print("reports and analytic values done", file=sys.stderr)

    kinds = {"mobius": ("mobius", arith.mu_k), "liouville": ("liouville", arith.lambda_k),
             "qfree": ("kfree", arith.q_k), "jordan": (None, arith.jordan_totient)}
    for field_spec in gen.FIELDS:
        field = parse_field(field_spec)
        by_norm: dict[int, list] = {}
        for A in enumerate_ideals(field, max(gen.EVAL_NORMS)):
            if A.norm in gen.EVAL_NORMS:
                by_norm.setdefault(A.norm, []).append(A)
        for fn in gen.EVAL_FNS:
            kind, pointwise = kinds[fn]
            for k in gen.ORDERS:
                coeff = None if kind is None else _sieve.coefficient_array(
                    field, kind, k, max(gen.EVAL_NORMS))
                for n in gen.EVAL_NORMS:
                    q = gen.eval_query(field_spec, fn, k, n)
                    out = cli_out(cli_main, q)
                    agree(q, out, f"{pointwise(k, by_norm[n][0])}\n")
                    if coeff is not None:
                        agree(q, sum(pointwise(k, A) for A in by_norm[n]), int(coeff[n]))
                    put(q, out)
    print("evals done", file=sys.stderr)

    for q in gen.VERIFY_QUERIES + gen.SESSION_VERIFY_QUERIES:
        out = cli_out(cli_main, q)
        if not out.splitlines()[-1].startswith("passed"):
            raise SystemExit(f"{q}: suite did not pass")
        put(q, out)

    dest = HERE / "golden.json"
    dest.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} golden outputs, {checks} cross-checks passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
