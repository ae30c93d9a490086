"""Vectorized coefficient sieves over norms, and the prime-power rules.

For a multiplicative function f on ideals, the per-norm coefficient
c(n) = sum of f(A) over ideals A with N(A) = n is multiplicative in n,
with local factors determined by how each rational prime splits.  Building
c as an array up to x and taking prefix sums gives every summatory function
in one pass; this is what makes x = 10^7 sweeps feasible in Python.

Each rule below gives f at the e-th power of a prime ideal of norm `norm`;
the pointwise functions in `arith` evaluate the same rules over a
factorization.
"""

from __future__ import annotations

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


def coefficient_array(field: FieldSpec, kind: str, k: int, xmax: int) -> np.ndarray:
    """Array c with c[n] = sum_{N(A)=n} f(A) for 1 <= n <= xmax (c[0] = 0)."""
    if kind not in _RULES:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    xmax = int(xmax)
    norm_free = kind != "mobius_density"  # the one rule that reads the norm
    dtype = np.int64 if norm_free else np.float64
    val = np.ones(xmax + 1, dtype=dtype)
    if xmax >= 0:
        val[0] = 0
    if xmax < 2:
        return val
    # a norm-free rule gives one table per splitting, shared by its primes
    shared: dict[tuple[int, ...], list] = {}
    residue_degrees = field.residue_degrees
    last = table = None
    for p in primes_up_to(xmax).tolist():
        degrees = residue_degrees(p)
        # Q and quadratic fields hand back shared tuples, so a prime of the
        # same splitting as the one before (over Q, every prime) skips the memo
        if degrees is not last or not norm_free:
            last = degrees
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
                idx = np.arange(pa, xmax + 1, pa)
                exact = idx[(idx // pa) % p != 0]
                if v == 0:
                    val[exact] = 0
                else:
                    val[exact] *= v
            pa *= p
            a += 1
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
    if kind == "count" and field.disc == 1:  # the rationals: one ideal of each norm
        cum = np.arange(xmax + 1, dtype=np.int64)
    else:
        cum = np.cumsum(coefficient_array(field, kind, k, xmax))
    _CUM_CACHE[key] = cum
    _CUM_CACHE.move_to_end(key)
    while len(_CUM_CACHE) > _CACHE_ENTRIES:
        _CUM_CACHE.popitem(last=False)
    return cum


def clear_cache() -> None:
    _CUM_CACHE.clear()
