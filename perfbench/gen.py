"""Seeded inputs for the idealfunc benchmark.

Every query a workload can issue comes from the finite key space below, so
that each one has a recorded golden output (see record_golden.py).  The seed
and the pass number set the order of each workload's queries, and the seed
sets the line order and spelling of the Q(i) prime-ideal table; the program
only ever sees the generated argument lists and the generated table.
"""

from __future__ import annotations

import math
import random

FIELDS = ("q", "q:-1", "q:-5", "q:2", "q:5")
SUM_FNS = ("mobius", "liouville", "qfree")
ORDERS = (2, 3)
# log-uniform grid on [10^3, 10^6], 8 points per decade
X_GRID = tuple(round(10 ** (3 + i / 8)) for i in range(25))

# Q(i) written as an explicit prime-ideal table; table fields look primes up
# by a linear scan, so table sums stay well below the quadratic-field sizes.
TABLE_PATH = ".bench_out/qi.table"
TABLE_FIELD = "table:" + TABLE_PATH
TABLE_PRIME_LIMIT = 20_000
TABLE_X_GRID = tuple(round(1000 * 20 ** (i / 12)) for i in range(13))

REPORT_GRIDS = ("1000:10000:4", "1000:100000:6", "1000:1000000:8")
ZETA_S = ("1.5", "2", "2.5", "3", "4")
CONSTANT_ORDERS = (2, 3, 4)
EVAL_FNS = ("mobius", "liouville", "qfree", "jordan")
# squares m^2 always have an ideal of that norm (the principal ideal (m))
EVAL_NORMS = tuple(m * m for m in (4, 6, 10, 12, 25, 30, 36, 49, 60, 84, 100, 141))

BIGX = "10000000"
BIGX_QUERIES = (
    ("sum", "--field", "q:-1", "--fn", "mobius", "--order", "2", "--x", BIGX),
    ("sum", "--field", "q:5", "--fn", "qfree", "--order", "2", "--x", BIGX),
    ("sum", "--field", "q", "--fn", "liouville", "--order", "2", "--x", BIGX),
    ("sum", "--field", "q", "--fn", "mobius", "--order", "2", "--x", BIGX),
)

VERIFY_QUERIES = (
    ("verify", "--field", "q:-1", "--suite", "identities", "--xmax", "2000"),
    ("verify", "--field", "q:-5", "--suite", "identities", "--xmax", "1200"),
    ("verify", "--field", "q:5", "--suite", "counting", "--xmax", "10000"),
)

# small verify runs inside session-mix, so its traced runs cover the verify layer
SESSION_VERIFY_QUERIES = (
    ("verify", "--field", "q:2", "--suite", "identities", "--xmax", "400"),
    ("verify", "--field", "q:5", "--suite", "counting", "--xmax", "3000"),
)

SETUP_QUERY = ("field", "--field", "q")


def sum_query(field: str, fn: str, k: int, x: int, fast: bool = False) -> tuple:
    q = ("sum", "--field", field, "--fn", fn, "--order", str(k), "--x", str(x))
    return q + ("--fast",) if fast else q


def report_query(field: str, theorem: int, k: int, grid: str) -> tuple:
    return ("report", "--field", field, "--theorem", str(theorem),
            "--order", str(k), "--grid", grid)


def zeta_query(field: str, s: str) -> tuple:
    return ("zeta", "--field", field, "--s", s)


def constant_query(field: str, k: int) -> tuple:
    return ("constant", "--field", field, "--order", str(k))


def eval_query(field: str, fn: str, k: int, norm: int) -> tuple:
    return ("eval", "--field", field, "--fn", fn, "--order", str(k), "--ideal", str(norm))


def _zipf_counts(n_keys: int, total: int) -> list[int]:
    """Deterministic Zipf(1) allocation of `total` draws over ranked keys.

    Fixed counts (largest remainder) instead of sampled ones keep the work
    of a pass the same from seed to seed.
    """
    weights = [1.0 / (r + 1) for r in range(n_keys)]
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [math.floor(e) for e in exact]
    by_remainder = sorted(range(n_keys), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _spread_x(n: int, grid: tuple) -> list[int]:
    """n points of `grid`, one at the middle of each of n equal log strata."""
    return [grid[(2 * j + 1) * len(grid) // (2 * n)] for j in range(n)]


# popularity ranking of the cached (field, fn, k) sum keys, most popular first
SUM_KEYS = tuple((f, fn, k) for k in ORDERS for fn in SUM_FNS for f in FIELDS)


def session_queries() -> list[tuple]:
    """The 112 queries of one session-mix pass, before the seeded shuffle.

    Key popularity is Zipf-skewed over 30 cached sum keys plus the --fast,
    table-field and count keys, far more than the sieve cache holds.  The
    multiset is fixed, so every seed asks for the same work; the seed only
    sets the order, which decides the cache hits, growth misses and
    evictions.
    """
    queries: list[tuple] = []
    for (field, fn, k), n in zip(SUM_KEYS, _zipf_counts(len(SUM_KEYS), 56)):
        queries += [sum_query(field, fn, k, x) for x in _spread_x(n, X_GRID)]
    fast_keys = [(f, k) for k in ORDERS for f in FIELDS]
    for (field, k), n in zip(fast_keys, _zipf_counts(len(fast_keys), 12)):
        queries += [sum_query(field, "qfree", k, x, fast=True) for x in _spread_x(n, X_GRID)]
    table_keys = [(fn, k) for k in ORDERS for fn in SUM_FNS]
    for (fn, k), n in zip(table_keys, _zipf_counts(len(table_keys), 8)):
        queries += [sum_query(TABLE_FIELD, fn, k, x) for x in _spread_x(n, TABLE_X_GRID)]
    grids = REPORT_GRIDS[:1] * 3 + REPORT_GRIDS[1:2] * 3 + REPORT_GRIDS[2:] * 2
    queries += [report_query(FIELDS[i % 5], 1 + i % 3, ORDERS[i % 2], grid)
                for i, grid in enumerate(grids)]
    queries += [zeta_query(FIELDS[i % 5], ZETA_S[(i + i // 5) % 5])
                for i in range(8)]
    queries += [constant_query(FIELDS[i % 5], CONSTANT_ORDERS[i % 3]) for i in range(8)]
    queries += [eval_query(FIELDS[i % 5], EVAL_FNS[i % 4], ORDERS[i % 2], EVAL_NORMS[i + 1])
                for i in range(10)]
    return queries + list(SESSION_VERIFY_QUERIES)


def _shuffled(queries, workload: str, seed: int, pass_index: int) -> list[tuple]:
    out = list(queries)
    random.Random(f"{workload}:{seed}:{pass_index}").shuffle(out)
    return out


def session_stream(seed: int, pass_index: int = 0) -> list[tuple]:
    """The session-mix queries of one pass of one seed."""
    return _shuffled(session_queries(), "session-mix", seed, pass_index)


def bigx_order(seed: int, pass_index: int = 0) -> list[tuple]:
    return _shuffled(BIGX_QUERIES, "bigx-cold", seed, pass_index)


def verify_order(seed: int, pass_index: int = 0) -> list[tuple]:
    return _shuffled(VERIFY_QUERIES, "brute-verify", seed, pass_index)


def prime_flags(limit: int) -> bytearray:
    """flags[n] == 1 exactly when n <= limit is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[: min(2, limit + 1)] = bytes(min(2, limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def qi_table(seed: int) -> str:
    """Q(i) as `p f e multiplicity` lines, in a seeded order and spelling.

    2 ramifies, p = 1 mod 4 splits and p = 3 mod 4 stays inert.  A split
    prime is written either as one line of multiplicity 2 or as two lines
    of multiplicity 1; both describe the same field.
    """
    rng = random.Random(f"qi-table:{seed}")
    lines = []
    for p in (n for n, is_prime in enumerate(prime_flags(TABLE_PRIME_LIMIT)) if is_prime):
        if p == 2:
            lines.append("2 1 2 1")
        elif p % 4 == 3:
            lines.append(f"{p} 2 1 1")
        elif rng.random() < 0.5:
            lines.append(f"{p} 1 1 2")
        else:
            lines += [f"{p} 1 1 1", f"{p} 1 1 1 # conjugate"]
    rng.shuffle(lines)
    return "# Q(i): p f e multiplicity\n" + "\n".join(lines) + "\n"
