"""Exact sums over Q and quadratic fields in about x^(2/3) operations.

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
  [x/j] above the table size T = [x^(2/3)], largest j first: O(x^(2/3))
  operations in all, as in Deleglise & Rivat (Exp. Math. 5, 1996).

Up to T both come from `_sieve.cumulative_array`, whose memo keeps each
table, and the k-full rows below, at the largest reach asked.  A table that
reaches past what an x needs only moves work from the formulas into lookups,
so a sweep that asks its largest x first builds one set of tables for every
point.  From them:

* the k-free count is sum_{d <= x^(1/k)} c(d) A([x/d^k]);
* M_k for k >= 2 is sum_n G(n) A([x/n]), where mu_k = 1_F * g with
  g = mu_1 * mu_k: a prime ideal of norm p^f contributes the local factor
  (1 - u)(1 + u + ... + u^(k-1) - u^k) = 1 - 2u^k + u^(k+1), u = p^(-fs), so
  the per-norm coefficients G of g live on k-full n;
* M_1 is M(x);
* L_k is sum_m a_F(m) M([x/m^(k+1)]), since the local factor of lambda_k,
  (1 - u) / (1 - u^(k+1)), is that of mu_1 times that of 1_F at (k+1)-th
  powers.
"""

from __future__ import annotations

import math

import numpy as np

from . import _sieve
from .field import NORM_LIMIT, FieldSpec, _check_memory, _chi_array, primes_up_to

__all__ = ["exact_sum", "kfree_count", "table_size", "integer_kth_root"]


def integer_kth_root(n: int, k: int) -> int:
    """Largest r with r**k <= n."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n == 0:
        return 0
    if k == 2:
        return math.isqrt(n)
    if k >= n.bit_length():  # n < 2^k
        return 1
    # integer Newton from 2^ceil(bits / k) >= n^(1/k): the iterates fall
    # strictly until they reach the root
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def table_size(x: int) -> int:
    """T = [x^(2/3)]: A and M are tabulated up to T and found by formula above."""
    return integer_kth_root(x * x, 3)


def exact_sum(field: FieldSpec, kind: str, k: int, x: int) -> int:
    """The sum of the coefficients of `kind` ("count", "kfree", "mobius" or
    "liouville", as in `_sieve`) over the ideals of norm <= x.

    A cached prefix-sum array that covers x answers; otherwise a built-in
    field takes the formulas of this module and a table field the sieve.
    """
    if field.prime_table is None and not _sieve.covers(field, kind, k, x):
        return _SUMS[kind](field, k, x)
    return int(_sieve.cumulative_array(field, kind, k, x)[x])


def _reserve(x: int, size: int) -> None:
    """Refuse x before any table of `size` norms is built, when it would not
    fit in memory or x leaves the 64-bit arithmetic below.

    Two int64 prefix-sum tables, the sieve's work array and its prime flags
    take about 20 bytes per norm (17.7 measured at x = 10^11 over q:-1).
    """
    _check_memory(size, 20, f"x = {min(x, 10**308):.3g} is too large: its tables "
                            f"reach {min(size, 10**308):.3g}")
    if x > NORM_LIMIT:
        raise ValueError(f"x = {x:.3g} exceeds {NORM_LIMIT}, the largest these formulas take")


def _character(disc: int) -> tuple[np.ndarray, np.ndarray]:
    """chi_disc over one period and its prefix sums S, as int64."""
    chi = _chi_array(disc).astype(np.int64)
    return chi, np.cumsum(chi)


# the terms of a batch of hyperbola sums, held at once: one y with more
# terms than this is a batch of its own
_HYPERBOLA_TERMS = 2**18


def _isqrt_many(ys: np.ndarray) -> np.ndarray:
    """isqrt of each entry of the int64 array ys, 0 <= y < 2^62: the float
    root is off by at most one there."""
    us = np.sqrt(ys.astype(np.float64)).astype(np.int64)
    us -= us * us > ys
    us += (us + 1) * (us + 1) <= ys
    return us


def _hyperbola(chi: np.ndarray, S: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """A(y) over a quadratic field at each entry y >= 1 of the int64 array ys,
    from `_character` of its discriminant, in O(sqrt(y)) each: the terms of
    several y are laid end to end and summed by segment."""
    mod = len(chi)
    us = _isqrt_many(ys)
    out = -us * S[us % mod]
    starts = np.concatenate(([0], np.cumsum(us)))  # y = ys[i] has terms starts[i]:starts[i+1]
    i = 0
    while i < len(ys):
        j = max(i + 1, int(np.searchsorted(starts, starts[i] + _HYPERBOLA_TERMS,
                                           side="right")) - 1)
        offsets = starts[i:j] - starts[i]
        # a runs over 1..u within each segment
        a = np.arange(1, int(starts[j] - starts[i]) + 1, dtype=np.int64)
        a -= np.repeat(offsets, us[i:j])
        q = np.repeat(ys[i:j], us[i:j]) // a
        out[i:j] += np.add.reduceat(chi[a % mod] * q + S[q % mod], offsets)
        i = j
    return out


class _Counts:
    """A(y) = [y]_F: prefix sums of the count coefficients up to `size`,
    the hyperbola formula above."""

    def __init__(self, field: FieldSpec, size: int):
        self.size = size
        self.table = None  # over Q, A(y) = y needs none
        if field.degree > 1:
            self.table = _sieve.cumulative_array(field, "count", 0, size)
            self.size = len(self.table) - 1
        if field.degree == 2 and field.prime_table is None:
            self.character = _character(field.disc)

    def many(self, ys: np.ndarray) -> np.ndarray:
        """A at each entry of the int64 array ys."""
        if self.table is None:
            return ys
        out = self.table[np.minimum(ys, self.size)]
        above = ys > self.size
        if above.any():
            out[above] = _hyperbola(*self.character, ys[above])
        return out

    def coefficients(self, r: int) -> np.ndarray:
        """a_F(1), ..., a_F(r), for r <= size."""
        if self.table is None:
            return np.ones(r, dtype=np.int64)
        return np.diff(self.table[: r + 1])


class _Mertens:
    """M(v) at every v = [x/j]: a prefix-sum table up to T, the recursion above."""

    def __init__(self, field: FieldSpec, x: int, counts: _Counts):
        self.x = x
        table = self.table = _sieve.cumulative_array(field, "mobius", 1, table_size(x))
        # A and M are both known up to size (A needs no table over Q), and
        # [x/j] > size exactly when j <= last
        size = len(table) - 1 if counts.table is None else min(len(table) - 1, counts.size)
        last = self.last = x // (size + 1)
        big = self.big = np.zeros(last + 1, dtype=np.int64)
        if not last:
            return
        js = np.arange(1, last + 1, dtype=np.int64)
        count_big = np.concatenate(([0], counts.many(x // js)))
        root = math.isqrt(x)
        a = counts.coefficients(root)  # a[i] = a_F(i + 1)
        mu = np.diff(table[: root + 1])  # mu[i] = c(i + 1)
        count = (lambda ys: ys) if counts.table is None else counts.table.__getitem__
        ns = np.arange(1, root + 1, dtype=np.int64)
        for j in range(last, 0, -1):
            v = x // j
            u = math.isqrt(v)
            head = min(u, last // j)  # [v/n] > size: M and A found before
            jn = j * ns[:head]
            q = v // ns[head:u]  # [v/n] <= size: from the tables
            big[j] = (1 - int(np.dot(a[1:head], big[jn[1:]])) - int(np.dot(a[head:u], table[q]))
                      - int(np.dot(mu[:head], count_big[jn])) - int(np.dot(mu[head:u], count(q)))
                      + int(count(u)) * int(table[u]))

    def many(self, js: np.ndarray) -> np.ndarray:
        """M([x/j]) at each entry of the int64 array js."""
        out = self.table[np.minimum(self.x // js, len(self.table) - 1)]
        head = js <= self.last
        out[head] = self.big[js[head]]
        return out


def _count(field: FieldSpec, k: int, x: int) -> int:
    if field.degree == 1:
        return x
    _reserve(x, math.isqrt(x))  # the arrays of one hyperbola sum
    return int(_hyperbola(*_character(field.disc), np.array([x], dtype=np.int64))[0])


def kfree_count(field: FieldSpec, k: int, x: int) -> int:
    """The number of k-free ideals of norm <= x, by the inversion formula
    sum_{d <= x^(1/k)} c(d) A([x/d^k]).  A table field has no chi_D, so its
    table of A reaches x."""
    root = integer_kth_root(x, k)
    if field.degree == 1:
        size = root
    else:
        size = table_size(x) if field.prime_table is None else x
    _reserve(x, size)
    mu = np.diff(_sieve.cumulative_array(field, "mobius", 1, root)[: root + 1], prepend=0)
    d = np.flatnonzero(mu)
    # d^k <= x < 2^63; an order above 62 leaves d = [1] alone, and 1^64 = 1
    return int(np.dot(mu[d], _Counts(field, size).many(x // d ** min(k, 64))))


def _g_series(p: int, degrees: tuple[int, ...], k: int, amax: int) -> list[int]:
    """G(p^a) for a <= amax: the local series of mu_1 * mu_k above p."""
    mu1 = _sieve._local_table("mobius", 1, p, degrees, amax)
    muk = _sieve._local_table("mobius", k, p, degrees, amax)
    return [sum(mu1[i] * muk[a - i] for i in range(a + 1)) for a in range(amax + 1)]


def _kfull(field: FieldSpec, k: int, x: int) -> np.ndarray:
    """Every k-full n <= x with G(n) != 0 and G(n), as the rows of a (2, m)
    array ascending in n.  G(n) does not depend on x, so the kept rows of a
    larger x answer too."""
    held = _sieve.kept_array(field, ("kfull", k), x, lambda reach: _kfull_rows(field, k, reach))
    return held[:, : int(np.searchsorted(held[0], x, side="right"))]


def _kfull_rows(field: FieldSpec, k: int, x: int) -> np.ndarray:
    primes = primes_up_to(integer_kth_root(x, k))
    node_n, node_g = [1], [1]
    if not len(primes):
        return np.array([node_n, node_g], dtype=np.int64)
    amax = max(x.bit_length(), 2 * k)
    # one series per splitting, as mobius rules do not read the norm: row i
    # of g_of holds G at the powers of primes[i]
    series: dict[tuple[int, ...], tuple[int, int]] = {}  # -> (row, first prime)
    rows = np.array([series.setdefault(field.residue_degrees(p), (len(series), p))[0]
                     for p in primes.tolist()], dtype=np.intp)
    g_of = np.array([_g_series(p, degrees, k, amax) for degrees, (_, p) in series.items()],
                    dtype=np.int64)[rows]
    leaf_n, leaf_g = [], []

    def descend(n: int, gn: int, start: int) -> None:
        # n is k-full, with every prime factor below primes[start]
        rest = x // n
        stop = int(np.searchsorted(primes, integer_kth_root(rest, k), side="right"))
        # a prime p with p^(2k) > rest ends n: no larger prime fits after it,
        # and its exponent stays below 2k
        mid = max(start, int(np.searchsorted(primes, integer_kth_root(rest, 2 * k),
                                             side="right")))
        for i in range(start, min(mid, stop)):
            p = int(primes[i])
            pa, a = p**k, k
            while pa <= rest:
                c = int(g_of[i, a])
                if c:
                    node_n.append(n * pa)
                    node_g.append(gn * c)
                    descend(n * pa, gn * c, i + 1)
                pa *= p
                a += 1
        for a in range(k, 2 * k):
            cut = mid + int(np.searchsorted(primes[mid:stop], integer_kth_root(rest, a),
                                            side="right"))
            vals = g_of[mid:cut, a]
            keep = vals != 0
            leaf_n.append(n * primes[mid:cut][keep] ** a)
            leaf_g.append(gn * vals[keep])

    descend(1, 1, 0)
    ns = np.concatenate([np.array(node_n, dtype=np.int64), *leaf_n])
    gs = np.concatenate([np.array(node_g, dtype=np.int64), *leaf_g])
    return np.stack((ns, gs))[:, np.argsort(ns)]


def _mobius(field: FieldSpec, k: int, x: int) -> int:
    size = table_size(x)
    if k == 1:
        _reserve(x, size)
        return int(_Mertens(field, x, _Counts(field, size)).many(np.array([1]))[0])
    _reserve(x, size if field.degree == 2 else integer_kth_root(x, k))
    ns, gs = _kfull(field, k, x)
    return int(np.dot(gs, _Counts(field, size).many(x // ns)))


def _liouville(field: FieldSpec, k: int, x: int) -> int:
    size = table_size(x)
    _reserve(x, size)
    counts = _Counts(field, size)
    mertens = _Mertens(field, x, counts)
    a = counts.coefficients(integer_kth_root(x, k + 1))
    m = np.flatnonzero(a) + 1
    # as in kfree_count: m^(k+1) <= x, and a huge k leaves m = [1]
    return int(np.dot(a[m - 1], mertens.many(m ** min(k + 1, 64))))


_SUMS = {"count": _count, "kfree": kfree_count, "mobius": _mobius, "liouville": _liouville}
