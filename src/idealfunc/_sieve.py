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
Python pass per prime (664,579 of them at x = 10^7).  `FieldSpec.splitting`
sorts every prime into its splitting class at once, and the sieve builds one
local table per class; a large prime reads its class's entry at a = 1.

Over a field of degree <= 2 the sieve works in a 16-bit array: there
|c(n)| <= tau(n), the number of divisors of n, and so is every partial
product of local values met on the way, and tau(n) <= 26,880 < 2^15 for
n <= 10^15.  The array is widened to int64 only when the sieve is done;
fields of degree >= 3 (where tau_3(n) can pass 2^15) sieve in int64.

Each rule below gives the integer f at the e-th power of a prime ideal, for
the order k; no rule reads the prime or its norm.  The pointwise functions
in `arith` evaluate the same rules over a factorization.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable

import numpy as np

from .field import FieldSpec, _check_memory, primes_up_to

__all__ = ["coefficient_array", "cumulative_array", "kept_array", "clear_cache"]


def _count(e: int, k: int) -> int:
    return 1


def _mobius(e: int, k: int) -> int:
    return 1 if e < k else (-1 if e == k else 0)


def _liouville(e: int, k: int) -> int:
    r = e % (k + 1)
    return 1 if r == 0 else (-1 if r == 1 else 0)


def _kfree(e: int, k: int) -> int:
    return 1 if e < k else 0


_RULES = {"count": _count, "mobius": _mobius, "liouville": _liouville, "kfree": _kfree}


def _local_table(kind: str, k: int, degrees: tuple[int, ...], amax: int) -> tuple:
    """Entry a: sum of f(A) over the ideals A above a prime p of these
    residue degrees with norm p^a, a <= amax, as Python ints.

    The series is the product, in int64, of one series per ideal A, with
    f(A^e) at a = f e.
    """
    rule = _RULES[kind]
    series = np.zeros(amax + 1, dtype=np.int64)
    series[0] = 1
    for f in degrees:
        powers = np.zeros(amax + 1, dtype=np.int64)
        powers[::f] = [rule(e, k) for e in range(amax // f + 1)]
        series = np.convolve(series, powers)[: amax + 1]
    return tuple(series.tolist())


def coefficient_array(field: FieldSpec, kind: str, k: int, xmax: int) -> np.ndarray:
    """Array c with c[n] = sum_{N(A)=n} f(A) for 1 <= n <= xmax (c[0] = 0)."""
    if kind not in _RULES:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    xmax = int(xmax)
    _check_memory(xmax)
    # |c(n)| <= tau(n) < 2^15 over degree <= 2 (see the module docstring)
    work = np.int16 if field.degree <= 2 and xmax <= 10**15 else np.int64
    # widened only once _sieve_work has returned and freed its temporaries
    return _sieve_work(field, kind, k, xmax, work).astype(np.int64, copy=False)


def _sieve_work(field: FieldSpec, kind: str, k: int, xmax: int, dtype) -> np.ndarray:
    """The coefficient array of `coefficient_array`, in the work dtype."""
    val = np.ones(xmax + 1, dtype=dtype)
    if xmax >= 0:
        val[0] = 0
    if xmax < 2:
        return val
    root = math.isqrt(xmax)
    primes = primes_up_to(xmax)
    cut = int(np.searchsorted(primes, root, side="right"))
    classes, of = field.splitting(primes)
    # one table per splitting class, for every p^a <= xmax
    tables = [_local_table(kind, k, degrees, xmax.bit_length()) for degrees in classes]

    # Small primes, p <= sqrt(xmax): one pass per prime power p^a, writing
    # every n that p^a divides exactly, through strided views of val.
    for p, c in zip(primes[:cut].tolist(), of[:cut].tolist()):
        table = tables[c]
        pa = p
        a = 1
        while pa <= xmax:
            v = table[a]
            if v != 1:
                # the multiples m p^a in rows of p: the last column (p | m) is
                # the multiples of p^(a+1), and the tail holds no multiple of p
                mult = val[pa::pa]
                full = len(mult) - len(mult) % p
                mult[:full].reshape(-1, p, copy=False)[:, :-1] *= v
                mult[full:] *= v
            pa *= p
            a += 1

    # Large primes, p > sqrt(xmax): p^2 > xmax, so p contributes only
    # table[1], to each n = m p <= xmax, where m < p and p divides n exactly.
    # No n has two such primes, so one write per cofactor m covers every
    # large prime at once.
    large = primes[cut:]
    values = np.array([table[1] for table in tables], dtype=dtype)[of[cut:]]
    scaled = values != 1
    group, factors = large[scaled], values[scaled]
    if len(group):
        ms = np.arange(1, xmax // int(group[0]) + 1)
        cuts = np.searchsorted(group, xmax // ms, side="right")
        for m, c in zip(ms.tolist(), cuts.tolist()):
            val[m * group[:c]] *= factors[:c]
    return val


# ---------------------------------------------------------------------------
# The one memo of per-field arrays, keyed by (field.cache_key(), name): the
# prefix sums of the sieve (name (kind, k)), the k-full rows of `_sublinear`
# (("kfull", k)), the prime-ideal norms of `analytic` ("norms") and the report
# constants of `summatory` (0-d arrays, (name, *args)).  Each is kept
# read-only, beside the reach it was built for.  The least recently used
# arrays are dropped while the kept bytes exceed _KEPT_BYTES, but the newest
# is always kept.

_CUM_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_REACHES: dict[tuple, int] = {}
_KEPT_BYTES = 32 * 2**20


def kept_array(field: FieldSpec, name: object, reach: int,
               build: Callable[[int], np.ndarray]) -> np.ndarray:
    """The kept array `name` of field if it was built for a reach at least
    as far, else build(reach), kept."""
    key = (field.cache_key(), name)
    if key in _REACHES and _REACHES[key] >= reach:
        _CUM_CACHE.move_to_end(key)
        return _CUM_CACHE[key]
    if key in _REACHES:  # the shorter array goes before the longer is built
        del _CUM_CACHE[key], _REACHES[key]
    array = build(reach)  # an array that fails to build is not kept
    array.flags.writeable = False
    _CUM_CACHE[key] = array
    _REACHES[key] = reach
    kept = sum(a.nbytes for a in _CUM_CACHE.values())
    while kept > _KEPT_BYTES and len(_CUM_CACHE) > 1:
        dropped, old = _CUM_CACHE.popitem(last=False)
        del _REACHES[dropped]
        kept -= old.nbytes
    return array


def cumulative_array(field: FieldSpec, kind: str, k: int, xmax: int) -> np.ndarray:
    """Prefix sums of the coefficient array; cum[x] = sum_{n <= x} c(n).

    Kept in the memo above: the array may reach past xmax, and is read-only.
    """
    if xmax < 0:
        raise ValueError(f"xmax = {xmax} must be >= 0")
    return kept_array(field, (kind, k), int(xmax),
                      lambda reach: _cumulate(field, kind, k, reach))


def _cumulate(field: FieldSpec, kind: str, k: int, xmax: int) -> np.ndarray:
    if kind == "count" and field.disc == 1:  # the rationals: one ideal of each norm
        _check_memory(xmax)
        return np.arange(xmax + 1, dtype=np.int64)
    coeff = coefficient_array(field, kind, k, xmax)  # checks xmax
    return np.cumsum(coeff, out=coeff)  # in place: one x-sized array, not two


def clear_cache() -> None:
    """Empty every per-process memo of the package: the kept per-field
    arrays (with the report constants) and the parsed table fields.  The
    grow-only rational-prime array and the per-discriminant characters
    stay."""
    from . import field

    for memo in (_CUM_CACHE, _REACHES, field._TABLE_FIELDS):
        memo.clear()
