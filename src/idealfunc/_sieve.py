"""Vectorized coefficient sieves over norms, and the prime-power rules.

For a multiplicative function f on ideals, the per-norm coefficient
c(n) = sum of f(A) over ideals A with N(A) = n is multiplicative in n,
with local factors determined by how each rational prime splits.  Building
c as an array up to x and taking prefix sums gives every summatory function
in one pass.

The sieve runs in two phases split at sqrt(x).  Each prime p <= sqrt(x)
gets one vectorised pass per power p^a <= x.  A prime p > sqrt(x) divides
each n <= x at most once, with a cofactor m < p, and no n has two such
primes, so their writes are disjoint: one vectorised write per cofactor m
(about sqrt(x) of them) applies every large prime at once, instead of one
Python pass per prime (664,579 of them at x = 10^7).

Each rule below gives f at the e-th power of a prime ideal of norm `norm`;
the pointwise functions in `arith` evaluate the same rules over a
factorization.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict

import numpy as np

from .field import FieldSpec, primes_up_to

__all__ = ["coefficient_array", "cumulative_array", "clear_cache"]


def _count(e: int, k: int, norm: int) -> int:
    return 1


def _mobius(e: int, k: int, norm: int) -> int:
    return 1 if e < k else (-1 if e == k else 0)


def _liouville(e: int, k: int, norm: int) -> int:
    r = e % (k + 1)
    return 1 if r == 0 else (-1 if r == 1 else 0)


def _kfree(e: int, k: int, norm: int) -> int:
    return 1 if e < k else 0


def _mobius_density(e: int, k: int, norm: int) -> float:
    # local term of mu_1(A) J_1(A) / (J_k(A) N(A)), squarefree support
    if e == 0:
        return 1.0
    if e == 1:
        return -(norm - 1) / (norm * (norm**k - 1))
    return 0.0


_RULES = {
    "count": _count,
    "mobius": _mobius,
    "liouville": _liouville,
    "kfree": _kfree,
    "mobius_density": _mobius_density,
}


def _local_table(kind: str, k: int, p: int, degrees: tuple[int, ...], amax: int) -> list:
    """Entry a: sum of f(A) over the ideals A above p of norm p^a, a <= amax."""
    rule = _RULES[kind]
    series: list = [1] + [0] * amax
    for f in degrees:
        powers = [rule(e, k, p**f) for e in range(amax // f + 1)]
        series = [sum(series[a - f * e] * powers[e] for e in range(a // f + 1))
                  for a in range(amax + 1)]
    return series


def _check_memory(xmax: int) -> None:
    """Refuse an x whose sieve arrays would not fit in physical memory."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):  # no sysconf: nothing to check
        return
    # about 17 bytes per norm: the int64 coefficients, a bool prime flag, and
    # one more x-sized int64 array such as most callers hold (a second cached
    # prefix sum, or np.cumsum of the coefficients)
    if 17 * (xmax + 1) > physical:
        raise ValueError(f"x = {min(xmax, 10**308):.3g} is too large to sieve: about 17 bytes "
                         f"per norm exceed the {physical / 2**30:.1f} GiB of physical memory")


def coefficient_array(field: FieldSpec, kind: str, k: int, xmax: int) -> np.ndarray:
    """Array c with c[n] = sum_{N(A)=n} f(A) for 1 <= n <= xmax (c[0] = 0)."""
    if kind not in _RULES:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    xmax = int(xmax)
    _check_memory(xmax)
    norm_free = kind != "mobius_density"  # the one rule that reads the norm
    dtype = np.int64 if norm_free else np.float64
    val = np.ones(xmax + 1, dtype=dtype)
    if xmax >= 0:
        val[0] = 0
    if xmax < 2:
        return val
    root = math.isqrt(xmax)
    primes = primes_up_to(xmax)
    cut = int(np.searchsorted(primes, root, side="right"))
    residue_degrees = field.residue_degrees
    # a norm-free rule gives one table per splitting, shared by its primes
    shared: dict[tuple[int, ...], list] = {}

    # Small primes, p <= sqrt(xmax): one pass per prime power p^a, writing
    # every n that p^a divides exactly, through strided views of val.
    for p in primes[:cut].tolist():
        degrees = residue_degrees(p)
        table = shared.get(degrees)
        if table is None:
            # p^a <= xmax bounds a; primes ascend, so the first prime of a
            # splitting needs the longest table
            amax = xmax.bit_length() // (p.bit_length() - 1)
            table = _local_table(kind, k, p, degrees, amax)
            if norm_free:
                shared[degrees] = table
        pa = p
        a = 1
        while pa <= xmax:
            v = table[a]
            if v != 1:
                # the multiples m p^a in rows of p: the last column (p | m) is
                # the multiples of p^(a+1), and the tail holds no multiple of p
                mult = val[pa::pa]
                full = len(mult) - len(mult) % p
                rows = mult[:full].reshape(-1, p, copy=False)
                if v == 0:
                    rows[:, :-1] = 0
                    mult[full:] = 0
                else:
                    rows[:, :-1] *= v
                    mult[full:] *= v
            pa *= p
            a += 1

    # Large primes, p > sqrt(xmax): p^2 > xmax, so p contributes only
    # table[1], to each n = m p <= xmax, where m < p and p divides n exactly.
    # No n has two such primes, so one write per cofactor m covers every
    # large prime at once, and each n still meets its large prime after all
    # its small ones, so float products keep their order.
    large = primes[cut:]
    first = {degrees: table[1] for degrees, table in shared.items()}
    values = []
    for p in large.tolist():
        degrees = residue_degrees(p)
        v = first.get(degrees)
        if v is None:
            v = _local_table(kind, k, p, degrees, 1)[1]
            if norm_free:
                first[degrees] = v
        values.append(v)
    values = np.array(values, dtype=dtype)
    zero = values == 0
    scaled = ~zero & (values != 1)
    # a zero value is written, not multiplied in, as in the small-prime passes:
    # a negative coefficient times 0.0 would give -0.0
    for group, factors in ((large[zero], None), (large[scaled], values[scaled])):
        if not len(group):
            continue
        ms = np.arange(1, xmax // int(group[0]) + 1)
        cuts = np.searchsorted(group, xmax // ms, side="right")
        for m, c in zip(ms.tolist(), cuts.tolist()):
            if factors is None:
                val[m * group[:c]] = 0
            else:
                val[m * group[:c]] *= factors[:c]
    return val


# ---------------------------------------------------------------------------
# cumulative-sum cache (bounded: each 10^7 entry costs ~80 MB)

_CUM_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_CACHE_ENTRIES = 6


def cumulative_array(field: FieldSpec, kind: str, k: int, xmax: int) -> np.ndarray:
    """Prefix sums of the coefficient array; cum[x] = sum_{n <= x} c(n)."""
    xmax = int(xmax)
    key = (field.cache_key(), kind, k)
    cached = _CUM_CACHE.get(key)
    if cached is not None and len(cached) > xmax:
        _CUM_CACHE.move_to_end(key)
        return cached
    _check_memory(xmax)
    if kind == "count" and field.disc == 1:  # the rationals: one ideal of each norm
        cum = np.arange(xmax + 1, dtype=np.int64)
    else:
        coeff = coefficient_array(field, kind, k, xmax)
        cum = np.cumsum(coeff, out=coeff)  # in place: one x-sized array, not two
    _CUM_CACHE[key] = cum
    _CUM_CACHE.move_to_end(key)
    while len(_CUM_CACHE) > _CACHE_ENTRIES:
        _CUM_CACHE.popitem(last=False)
    return cum


def clear_cache() -> None:
    _CUM_CACHE.clear()
