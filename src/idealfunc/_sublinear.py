"""Exact sums over Q and quadratic fields in sublinear time and memory.

Every sum here is built from two primitives of a built-in field F:

* A(y) = [y]_F, the number of ideals of norm <= y.  Over Q it is floor(y).
  Over a quadratic field the per-norm count is a_F = 1 * chi_D, so the
  Dirichlet hyperbola method gives, with u = isqrt(y),

      A(y) = sum_{a<=u} chi(a) [y/a] + sum_{b<=u} S([y/b]) - u S(u),

  where S(n) = chi(1) + ... + chi(n) has period |D| (a whole period of
  chi_D sums to 0): O(sqrt(y)) operations.

* M(v), the sum of mu_1 over the ideals of norm <= v.  The hyperbola method
  on a_F * c = delta, c the per-norm mu_1 coefficients, gives with u = isqrt(v)

      M(v) = 1 - sum_{2<=n<=u} a_F(n) M([v/n]) - sum_{m<=u} c(m) A([v/m]) + A(u) M(u).

  Each [v/n] with v = [x/j] is again [x/(jn)], so M is found at every
  [x/j] above the table size T = [x^(2/3)]: O(x^(2/3)) operations in all,
  as in Deleglise & Rivat (Exp. Math. 5, 1996).  With L = [x/(T+1)], each
  j in (L/2, L] reads M only at jn > L, so those j go together, then the
  j in (L/4, L/2], and so on, each batch over every x of a grid.

Every sum takes one of two shapes, and each shape sizes its tables once,
for the largest x of a grid, and holds them for every point.  The tables are
prefix sums from `_sieve.cumulative_array`, whose memo keeps each table, and
the k-full rows below, at the largest reach asked.

* The count shape, sum_n w(n) A([x/n]), reads A from a count table to
  isqrt(x), built only if a y reads it, and from the hyperbola formula above
  (a table field has no chi_D, so its table reaches x; Q needs none):
  - the ideal count A(x) is the row (1, 1);
  - the k-free count is sum_{d <= x^(1/k)} c(d) A([x/d^k]);
  - M_k for k >= 2 is sum_n G(n) A([x/n]), where mu_k = 1_F * g with
    g = mu_1 * mu_k: a prime ideal of norm p^f contributes the local factor
    (1 - u)(1 + u + ... + u^(k-1) - u^k) = 1 - 2u^k + u^(k+1), u = p^(-fs),
    so the per-norm coefficients G of g live on k-full n.
* The Mertens shape, sum_j w(j) M([x/j]), reads A and M from count and mu_1
  tables to T = [x^(2/3)] and from the recursion above:
  - M_1 is the row (1, 1);
  - L_k is sum_m a_F(m) M([x/m^(k+1)]), since the local factor of lambda_k,
    (1 - u) / (1 - u^(k+1)), is that of mu_1 times that of 1_F at (k+1)-th
    powers.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import _sieve
from .field import (NORM_LIMIT, FieldSpec, _check_memory, _chi_array, integer_kth_root, kept_array,
                    primes_up_to)

__all__ = ["exact_sums", "kfree_counts", "table_size"]


def table_size(x: int) -> int:
    """T = [x^(2/3)]: A and M are tabulated up to T and found by formula above."""
    return integer_kth_root(x * x, 3)


def exact_sums(field: FieldSpec, kind: str, k: int, xs: list[int]) -> list[int]:
    """The sum of the coefficients of `kind` ("count", "kfree", "mobius" or
    "liouville", as in `_sieve`) over the ideals of norm <= x, at each x of
    the non-empty xs.

    A built-in field takes the formulas of this module, and a table field the
    sieve, once for every x.
    """
    if field.table is not None:
        return _sieve.cumulative_array(field, kind, k, max(xs))[xs].tolist()
    if kind == "count" and field.degree == 1:  # [x]_Q = x, with no 64-bit bound on x
        return list(xs)
    return _SUMS[kind](field, k, xs)


def _reserve(x: int, size: int, reach: int = 0, row_bytes: int = 0) -> None:
    """Refuse x before anything is built, when a table of `size` norms and rows
    of `row_bytes` per unit of their reach would not fit in memory, or x > 2^62.

    Two int64 prefix-sum tables, the sieve's work array and its prime flags
    take about 20 bytes per norm (17.7 measured at x = 10^11 over q:-1).  A
    row_bytes is its rows' peak RSS over Q at k = 2, x = 10^12-10^16, rounded up.
    """
    top = max(size, reach)
    per_norm = -(-(20 * size + row_bytes * reach) // max(top, 1))
    _check_memory(top, per_norm, f"x = {min(x, 10**308):.3g} is too large: its tables "
                                 f"reach {min(top, 10**308):.3g}")
    if x > NORM_LIMIT:
        raise ValueError(f"x = {x:.3g} exceeds {NORM_LIMIT}, the largest these formulas take")


def _character(disc: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """chi_disc over one period, as the int8 `_chi_array`, and its int64
    prefix sums S(n) for n <= min(top, |disc| - 1): the hyperbola formula at
    y <= top reads S only at n mod |disc| for n <= y."""
    _check_memory(min(top, abs(disc) - 1), 8, unit="residue",
                  what=f"discriminant {disc} is too large to sum its character")
    chi = _chi_array(disc)
    return chi, np.cumsum(chi[: top + 1], dtype=np.int64)


# the cells of one block of hyperbola sums or of the recursion for M, held
# at once (1 MiB per int64 array: 2^18 raised the peak RSS of M_1 at 10^10
# over Q by 1.5 MB); a wider row of the recursion or of a weighted sum is a block
_HYPERBOLA_TERMS = 2**17


def _isqrt_many(ys: np.ndarray) -> np.ndarray:
    """isqrt of each entry of the int64 array ys, 0 <= y < 2^62: the float
    root is off by at most one there."""
    us = np.sqrt(ys.astype(np.float64)).astype(np.int64)
    us -= us * us > ys
    us += (us + 1) * (us + 1) <= ys
    return us


def _quotients(ys: np.ndarray, ns: np.ndarray, us: np.ndarray) -> np.ndarray:
    """The block [y/n] for the column ys (int64, y < 2^62) and the row ns of
    increasing n >= 1, with 0 where n > u of the row (the column us).  Below
    2^52 the float quotient is exact: it is at least 1/n from the next
    integer, more than the rounding error."""
    q = (ys.astype(np.float64) / ns).astype(np.int64) if ys.max() < 2**52 else ys // ns
    tail = int(np.searchsorted(ns, us.min(), side="right"))  # no cell to clear before
    q[:, tail:] *= ns[tail:] <= us
    return q


def _hyperbola(chi: np.ndarray, S: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """A(y) over a quadratic field at each entry y >= 1 of the int64 array ys,
    from `_character` of its discriminant to max(ys), in O(sqrt(y)) each: the
    terms of several y, widest first, are the rows of one block, and the
    terms of a wider y are the columns of several."""
    us = _isqrt_many(ys)
    out = np.zeros_like(ys)
    order = np.argsort(-ys)
    i = 0
    while i < len(ys):
        width = int(us[order[i]])
        rows = order[i : i + max(1, _HYPERBOLA_TERMS // width)]
        for start in range(1, width + 1, _HYPERBOLA_TERMS):
            ns = np.arange(start, min(start + _HYPERBOLA_TERMS, width + 1))
            q = _quotients(ys[rows, None], ns, us[rows, None])
            out[rows] += _hyperbola_rows(chi, S, q, ns, us[rows])
        i += len(rows)
    return out


def _hyperbola_rows(chi: np.ndarray, S: np.ndarray, q: np.ndarray, ns: np.ndarray,
                    us: np.ndarray) -> np.ndarray:
    """The terms at the n of ns of A(y) for each row of the `_quotients` block
    q = [y/n] (0 past u = isqrt(y); chi(0) = S(0) = 0), with -u S(u) at n = 1."""
    mod = len(chi)
    head = us * S[us % mod] if ns[0] == 1 else 0
    return q @ chi[ns % mod] + S[q % mod].sum(axis=1) - head


class _Counts:
    """A(y) = [y]_F over a quadratic or table field: a count table to size,
    built when a y first reads it, and the hyperbola formula above, to top."""

    def __init__(self, field: FieldSpec, size: int, top: int):
        self.field, self.size, self.top = field, size, top

    @cached_property
    def table(self) -> np.ndarray:
        """The prefix sums; a kept table may reach past size, and size follows it."""
        table = _sieve.cumulative_array(self.field, "count", 0, self.size)
        self.size = len(table) - 1
        return table

    @cached_property
    def character(self) -> tuple[np.ndarray, np.ndarray]:
        """`_character` of a quadratic field, built when a y first passes the table."""
        return _character(self.field.disc, self.top)

    def many(self, ys: np.ndarray) -> np.ndarray:
        """A at each entry of the int64 array ys (reading the table first updates size)."""
        out = self.table[np.minimum(ys, self.size)] if ys.min() <= self.size else np.zeros_like(ys)
        above = ys > self.size
        if above.any():
            out[above] = _hyperbola(*self.character, ys[above])
        return out


class _Mertens:
    """M(v) at every v = [x/j] of each x of a grid: prefix-sum tables of A
    and M up to size, the recursion above for every x at once."""

    def __init__(self, field: FieldSpec, xs: list[int], size: int):
        self.xs = np.array(xs, dtype=np.int64)
        # A and M are both known up to size (A needs no table over Q), and
        # [x/j] > size exactly when j <= last; M([x/j]) for such j goes to
        # big[base + j], and big[0] stays 0
        counts = None if field.degree == 1 else _sieve.cumulative_array(field, "count", 0, size)
        table = self.table = _sieve.cumulative_array(field, "mobius", 1, size)
        size = len(table) - 1 if counts is None else min(len(table), len(counts)) - 1
        lasts = self.lasts = self.xs // (size + 1)
        base = self.base = np.concatenate(([0], np.cumsum(lasts + 1)[:-1]))
        big = self.big = np.zeros(int(lasts.sum()) + len(xs), dtype=np.int64)
        # one row per (x, j), in rounds: j reads M only at jn, whose
        # last // (jn) is under half of last // j, so the rows of each power
        # of 2 in last // j go together; within a round the largest [x/j]
        # come first, so the rows of a block have close widths u
        point = np.repeat(np.arange(len(xs)), lasts)
        js = np.arange(1, len(point) + 1) - np.repeat(np.cumsum(lasts) - lasts, lasts)
        vs = self.xs[point] // js
        ratios = lasts[point] // js
        rounds = np.frexp(ratios)[1]
        order = np.lexsort((-vs, rounds))
        js, vs, ratios, rounds = js[order], vs[order], ratios[order], rounds[order]
        places = base[point[order]] + js
        count_big = np.zeros_like(big)
        us = _isqrt_many(vs)
        heads = np.minimum(us, ratios)
        root = math.isqrt(max(xs))
        a = self.a = np.ones(root, np.int64) if counts is None else np.diff(counts[: root + 1])
        mu = np.diff(table[: root + 1])  # mu[i] = c(i + 1), as a[i] = a_F(i + 1)
        count = (lambda ys: ys) if counts is None else counts.__getitem__
        chi_S = None if counts is None or not len(vs) else _character(field.disc, max(xs))
        ns = np.arange(1, root + 1, dtype=np.int64)
        ends = np.searchsorted(rounds, rounds, side="right")
        i = 0
        while i < len(vs):
            # rows i:e share a round, and their widths u are at most us[i]
            width = int(us[i])
            e = min(int(ends[i]), i + max(1, _HYPERBOLA_TERMS // width))
            v, u, head, j = vs[i:e, None], us[i:e], heads[i:e, None], js[i:e, None]
            q = _quotients(v, ns[:width], u[:, None])
            # A(v), read at n = 1 below and by later rounds (A(y) = y over Q)
            count_big[places[i:e]] = (vs[i:e] if counts is None
                                      else _hyperbola_rows(*chi_S, q, ns[:width], u))
            # n <= head: M and A at [x/(jn)], found in an earlier round
            cols = ns[: int(head.max())]
            at = np.where(cols <= head, (places[i:e, None] - j) + j * cols, 0)
            acc = big[at[:, 1:]] @ a[1 : len(cols)] + count_big[at] @ mu[: len(cols)]
            # head < n <= u: from the tables
            q[:, : len(cols)] *= cols > head
            acc += table[q] @ a[:width] + count(q) @ mu[:width]
            big[places[i:e]] = 1 - acc + count(u) * table[u]
            i = e

    def many(self, points: np.ndarray, js: np.ndarray) -> np.ndarray:
        """M([x/j]) for the x of each entry of the index array points and the
        j of each entry of the int64 array js, broadcast together."""
        out = self.table[np.minimum(self.xs[points] // js, len(self.table) - 1)]
        head = js <= self.lasts[points]
        out[head] = self.big[(self.base[points] + js)[head]]
        return out


def _weighted_sums(terms, count: int, ns: np.ndarray, ws: np.ndarray) -> list[int]:
    """sum_j ws[j] F(x, ns[j]) at each of the `count` x of a grid, where
    terms(points, ns) gives F for a column of indices of x against the row
    ns: in blocks of at most _HYPERBOLA_TERMS cells, or of one row."""
    step = max(1, _HYPERBOLA_TERMS // len(ns))
    points = np.arange(count)[:, None]
    return np.concatenate([terms(points[i : i + step], ns) @ ws
                           for i in range(0, count, step)]).tolist()


def _count_sums(field: FieldSpec, xs: list[int], reach: int, row_bytes: int, rows) -> list[int]:
    """The count shape: sum_n w(n) A([x/n]) at each x of xs, over the rows
    (n, w) that rows() builds, of row_bytes per unit of their reach."""
    top = max(xs)
    size = 0 if field.degree == 1 else top if field.table is not None else math.isqrt(top)
    _reserve(top, size, reach, row_bytes)
    many = (lambda ys: ys) if field.degree == 1 else _Counts(field, size, top).many
    xs = np.array(xs, dtype=np.int64)  # n > x reads A(0) = 0
    return _weighted_sums(lambda points, n: many(xs[points] // n), len(xs), *rows())


def _mertens_sums(field: FieldSpec, xs: list[int], rows) -> list[int]:
    """The Mertens shape: sum_j w(j) M([x/j]) at each x of xs, over the rows
    (j, w) that rows(mertens) builds, with j <= isqrt(max x)."""
    size = table_size(max(xs))
    _reserve(max(xs), size)
    mertens = _Mertens(field, xs, size)
    return _weighted_sums(mertens.many, len(xs), *rows(mertens))


def kfree_counts(field: FieldSpec, k: int, xs: list[int]) -> list[int]:
    """The number of k-free ideals of norm <= x at each x of xs, by the
    inversion formula sum_{d <= x^(1/k)} c(d) A([x/d^k])."""
    root = integer_kth_root(max(xs), k)

    def rows():
        mu = np.diff(_sieve.cumulative_array(field, "mobius", 1, root)[: root + 1], prepend=0)
        d = np.flatnonzero(mu)
        # d^k <= the largest x < 2^63, and A([x/d^k]) = A(0) = 0 past a smaller
        # x; an order above 62 leaves d = [1] alone, and 1^64 = 1
        return d ** min(k, 64), mu[d]

    return _count_sums(field, xs, root, 34, rows)  # 29.7-31.0 bytes measured (`_reserve`)


def _kfull(field: FieldSpec, k: int, x: int) -> np.ndarray:
    """Every k-full n <= x with G(n) != 0 and G(n), as the rows of a (2, m)
    array ascending in n.  G(n) does not depend on x, so the kept rows of a
    larger x answer too."""
    held = kept_array((field.cache_key(), ("kfull", k)), x,
                      lambda reach: _kfull_rows(field, k, reach))
    return held[:, : int(np.searchsorted(held[0], x, side="right"))]


def _kfull_rows(field: FieldSpec, k: int, x: int) -> np.ndarray:
    primes = primes_up_to(integer_kth_root(x, k))
    ns = gs = np.ones(1, dtype=np.int64)
    if not len(primes):  # n = 1 alone, and no series: k may pass every exponent
        return np.stack((ns, gs))
    amax = max(x.bit_length(), 2 * k)
    # one series per splitting class: row c holds G at the powers of a prime
    # of class c, the local series of mu_1 times that of mu_k
    classes, of = field.splitting(primes)
    g_of = np.array([np.convolve(_sieve._local_table("mobius", 1, degrees, amax),
                                 _sieve._local_table("mobius", k, degrees, amax))[: amax + 1]
                     for degrees in classes], dtype=np.int64)
    # the small primes, p^(2k) <= x, one at a time, largest first, while the
    # rows are few: each power p^a, a >= k, with G(p^a) != 0 extends every n
    # found before p that it fits, and the n that fit p^(a+1) fit p^a
    small = int(np.searchsorted(primes, integer_kth_root(x, 2 * k), side="right"))
    for p, c in zip(primes[:small][::-1].tolist(), of[:small][::-1].tolist()):
        new_n, new_g = [ns], [gs]
        fit_n, fit_g = ns, gs
        pa, a = p**k, k
        while pa <= x:
            fits = fit_n <= x // pa
            fit_n, fit_g = fit_n[fits], fit_g[fits]
            if g_of[c, a]:
                new_n.append(fit_n * pa)
                new_g.append(fit_g * g_of[c, a])
            pa *= p
            a += 1
        ns, gs = np.concatenate(new_n), np.concatenate(new_g)
    # a large prime has p^(2k) > x, so it divides n at most once, with an
    # exponent k <= a < 2k, and two of them pass x: per a, the m-th n takes
    # the first counts[m] of the powers p^a <= x // n, in one gather
    rows_n, rows_g = [ns], [gs]
    for a in range(k, 2 * k):
        top = int(np.searchsorted(primes, integer_kth_root(x, a), side="right"))
        vals = g_of[of[small:top], a]
        keep = vals != 0
        pa, vals = primes[small:top][keep] ** a, vals[keep]  # p^a <= x: no overflow
        counts = np.searchsorted(pa, x // ns, side="right")
        at = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        rows_n.append(np.repeat(ns, counts) * pa[at])
        rows_g.append(np.repeat(gs, counts) * vals[at])
    ns, gs = np.concatenate(rows_n), np.concatenate(rows_g)
    return np.stack((ns, gs))[:, np.argsort(ns)]


def _mobius(field: FieldSpec, k: int, xs: list[int]) -> list[int]:
    if k == 1:
        return _mertens_sums(field, xs, lambda mertens: _ONE_ROW)
    top = max(xs)
    return _count_sums(field, xs, integer_kth_root(top, k), 100,  # 88.4-94.0 bytes measured
                       lambda: tuple(_kfull(field, k, top)))


def _liouville(field: FieldSpec, k: int, xs: list[int]) -> list[int]:
    def rows(mertens):
        a = mertens.a[: integer_kth_root(max(xs), k + 1)]
        m = np.flatnonzero(a) + 1
        # m^(k+1) <= the largest x (M([x/j]) = 0 for j > x), and a huge k leaves m = [1]
        return m ** min(k + 1, 64), a[m - 1]

    return _mertens_sums(field, xs, rows)


_ONE_ROW = (np.ones(1, dtype=np.int64),) * 2
_SUMS = {"count": lambda field, k, xs: _count_sums(field, xs, 0, 0, lambda: _ONE_ROW),
         "kfree": kfree_counts, "mobius": _mobius, "liouville": _liouville}
