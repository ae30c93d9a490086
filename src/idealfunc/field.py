"""Degree-1 and degree-2 number fields and the splitting of rational primes.

A field is represented only by its degree and fundamental discriminant; all
downstream arithmetic works with norm-indexed prime-ideal labels, so ring
elements, generators and class groups never appear.  Fields of degree >= 3
are supported through an explicit prime-ideal table (``table:<path>``).
It also holds the one memo of arrays kept between queries, `kept_array`,
which `clear_cache` empties; as the bottom module, it imports no other.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "PrimeIdealLabel",
    "FieldSpec",
    "make_rational_field",
    "make_quadratic_field",
    "make_table_field",
    "parse_field",
    "is_squarefree",
    "prime_ideals_above",
    "primes_with_norm_up_to",
    "primes_up_to",
    "clear_cache",
]

NORM_LIMIT = 2**62


class PrimeIdealLabel(namedtuple("PrimeIdealLabel", "norm p index f")):
    """A prime ideal above the rational prime p, with residue degree f.

    Conjugate primes above a split p carry indices 0 and 1; everything
    downstream depends on the label only through its norm p**f, so the
    index exists purely to make orderings canonical.  A plain tuple, so
    hashing, equality and the canonical (norm, p, index) order run in C.
    """

    __slots__ = ()

    def __new__(cls, p: int, f: int, index: int = 0) -> "PrimeIdealLabel":
        if p < 2 or f < 1 or index < 0:
            raise ValueError(f"bad prime ideal label ({p}, {f}, {index})")
        return tuple.__new__(cls, (p**f, p, index, f))

    def __getnewargs__(self) -> tuple[int, int, int]:  # copy and pickle
        return (self.p, self.f, self.index)


# Explicit table entry: (f, ramification exponent, multiplicity).
TableRow = tuple[int, int, int]


@dataclass(frozen=True)
class FieldSpec:
    """A number field, as far as this package needs one.

    degree 1 means the rationals (disc 1, m absent); degree 2 means a
    quadratic field Q(sqrt(m)) with fundamental discriminant disc.  A table
    field (disc 0, m absent) is the extension point for higher-degree
    fields: `table` holds what `splitting` reads of its prime-ideal table,
    from `make_table_field`.  That is the residue-degree classes, in order
    of first appearance, then the bytes of the listed primes (int64,
    ascending) and of the index of each one's class (intp).  Bytes hash once
    and compare exactly, so equal splittings share a cache key.
    """

    degree: int
    disc: int
    m: int | None = None
    label: str = ""
    table: tuple[tuple[tuple[int, ...], ...], bytes, bytes] | None = None

    def __post_init__(self) -> None:
        if self.table is not None:
            return
        if self.degree == 1:
            if self.m is not None or self.disc != 1:
                raise ValueError("degree-1 field must have disc 1 and no m")
        elif self.degree == 2:
            if self.m is None or self.m in (0, 1) or not is_squarefree(self.m):
                raise ValueError(f"m={self.m} must be squarefree and not 0 or 1")
            if self.disc != (self.m if self.m % 4 == 1 else 4 * self.m):
                raise ValueError(f"discriminant {self.disc} is not that of m={self.m}")
        else:
            raise ValueError("native support covers degree 1 and 2 only; use a prime table")

    def cache_key(self) -> tuple:
        """The key of this field in the per-process memos: equal for equal
        fields, whatever their labels."""
        return (self.degree, self.disc, self.m, self.table)

    def residue_degrees(self, p: int) -> tuple[int, ...]:
        """Residue degrees of the prime ideals above the prime p, by `splitting`."""
        classes, of = self.splitting(np.array([p], dtype=np.int64))
        return classes[of[0]]

    def splitting(self, primes: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """The splitting types of the rational primes in the int64 array
        `primes`: a list of residue-degree tuples, and the index in it of each
        prime's tuple, as an intp array.  Every local factor in this package
        depends on p only through its residue degrees (each rule of `_sieve`
        reads only the exponent and the order).  The list may name a type
        that no prime asked has, so it is read through the indices."""
        if self.table is not None:
            classes, listed, of = self.table
            listed = np.frombuffer(listed, dtype=np.int64)
            at = np.searchsorted(listed, primes)
            found = at < len(listed)
            found[found] = listed[at[found]] == primes[found]
            if not found.all():
                raise ValueError(f"prime {primes[found.argmin()]} missing from the "
                                 f"supplied prime-ideal table")
            return list(classes), np.frombuffer(of, dtype=np.intp)[at]
        if self.degree == 1:
            return [(1,)], np.zeros(len(primes), dtype=np.intp)
        chi = _chi_array(self.disc)[primes % abs(self.disc)]
        return list(_QUADRATIC_CLASSES), chi.astype(np.intp) + 1


# residue degrees above p by chi_disc(p) + 1: inert, ramified, split
_QUADRATIC_CLASSES = ((2,), (1,), (1, 1))


# the characters of the prime discriminants -4, 8 and -8, over one period
_TWO_PART_CHI = {-4: (0, 1, 0, -1), 8: (0, 1, 0, -1, 0, -1, 0, 1),
                 -8: (0, 1, 0, 1, 0, -1, 0, -1)}


def _chi_array(disc: int) -> np.ndarray:
    """chi_disc(n) for 0 <= n < |disc| (one period), as a read-only int8
    array, kept in the memo of arrays under (None, ("chi", disc)).

    A fundamental discriminant is a product of prime discriminants: one of
    -4, 8, -8 for its 2-part, and p* = (-1)^((p-1)/2) p for each odd p | disc,
    whose character is the Legendre symbol (n/p).  chi_disc is the product
    of their characters, each tiled over the period.
    """
    def build(_reach: int) -> np.ndarray:
        mod = abs(disc)
        _check_memory(mod, 3, what=f"discriminant {disc} is too large to tabulate its character",
                      unit="residue")
        chi = np.ones(mod, dtype=np.int8)
        rest = disc
        for p in _odd_prime_divisors(mod):
            legendre = np.full(p, -1, dtype=np.int8)
            for start in range(0, p // 2 + 1, 2**14):  # the squares, in small blocks
                squares = np.arange(start, min(start + 2**14, p // 2 + 1), dtype=np.int64)
                squares *= squares
                squares %= p
                legendre[squares] = 1
            legendre[0] = 0
            rows = chi.reshape(-1, p, copy=False)  # legendre, tiled in place
            rows *= legendre
            rest //= p if p % 4 == 1 else -p
        if rest != 1:
            two = np.array(_TWO_PART_CHI[rest], dtype=np.int8)
            rows = chi.reshape(-1, len(two), copy=False)
            rows *= two
        return chi

    return kept_array((None, ("chi", disc)), 0, build)


def _odd_prime_divisors(n: int) -> list[int]:
    while n % 2 == 0:
        n //= 2
    out = []
    d = 3
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 1:
        out.append(n)
    return out


def is_squarefree(n: int) -> bool:
    """Whether no prime square divides n, by trial division up to |n|^(1/3):
    what is left then has at most two prime factors, each above that bound,
    so it is squarefree unless it is a perfect square."""
    n = bound = abs(n)
    if n == 0:
        return False
    d = 2
    while d * d * d <= bound and d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 1 if d == 2 else 2
    return n == 1 or math.isqrt(n) ** 2 != n


def make_rational_field() -> FieldSpec:
    return FieldSpec(degree=1, disc=1, label="q")


def make_quadratic_field(m: int) -> FieldSpec:
    disc = m if m % 4 == 1 else 4 * m
    # the character's period |disc| past 2^62 fits no int64 array: nothing over
    # such a field can be computed
    if abs(disc) > NORM_LIMIT:
        raise ValueError(f"m={m} is too large: its discriminant passes 2^62")
    return FieldSpec(degree=2, disc=disc, m=m, label=f"q:{m}")


def make_table_field(rows: dict[int, list[TableRow]], label: str = "table") -> FieldSpec:
    """Build a field from explicit splitting data {p: [(f, e, multiplicity)]}.
    Its degree is the sum of f e multiplicity over the least prime."""
    if not rows:
        raise ValueError("empty prime-ideal table")
    primes = sorted(rows)
    degree = sum(f * e * mult for f, e, mult in rows[primes[0]])
    return FieldSpec(degree=degree, disc=0, label=label,
                     table=_table_splitting(rows, primes, degree))


def _table_splitting(rows: dict[int, list[TableRow]], primes: list[int],
                     degree: int) -> tuple[tuple[tuple[int, ...], ...], bytes, bytes]:
    """A table's `FieldSpec.table`: its classes in order of first appearance,
    and the bytes of its primes (int64, ascending, but for any past every
    norm) and of each one's class index (intp), in one pass over its primes
    in order: the first prime with a row entry below 1, or whose f e
    multiplicity do not sum to the degree, is refused."""
    classes: dict[tuple[int, ...], int] = {}
    checked: dict[tuple, int] = {}  # most primes share their rows with others
    listed, of = [], []
    for p in primes:
        spelled = tuple(rows[p])
        c = checked.get(spelled)
        if c is None:
            if any(f < 1 or e < 1 or mult < 1 for f, e, mult in spelled):
                raise ValueError(f"bad table row for p={p}")
            d = sum(f * e * mult for f, e, mult in spelled)
            if d != degree:
                raise ValueError(f"inconsistent degree at p={p}: {d} != {degree}")
            ideals = tuple(f for f, _e, mult in sorted(spelled) for _ in range(mult))
            c = checked[spelled] = classes.setdefault(ideals, len(classes))
        if abs(p) <= NORM_LIMIT:
            listed.append(p)
            of.append(c)
    return (tuple(classes), np.array(listed, dtype=np.int64).tobytes(),
            np.array(of, dtype=np.intp).tobytes())


# the last few table fields parsed, by (path, file text): the text and the
# splitting of a Q(i) table keep about 35 bytes per prime (tracemalloc, to 10^6)
_TABLE_FIELDS: "OrderedDict[tuple[str, str], FieldSpec]" = OrderedDict()
_TABLE_FIELDS_KEPT = 4

# the peak of a parse beside its text, per byte of that text: measured 17.0
# (tracemalloc) over Q(i) to 10^6 with one line per prime, and 12.5 with the
# split primes' lines doubled and shuffled; the text itself takes 1 more
_TABLE_PARSE_BYTES = 18


def load_prime_table(path: str | Path) -> FieldSpec:
    """Parse a whitespace-separated table file: `p f e multiplicity` per line.

    The file is read on every call, and a text parsed before under the same
    path gives the field parsed then, so an edited table parses again.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read prime table {path}: {exc.strerror or exc}") from None
    key = (str(path), text)
    field = _TABLE_FIELDS.get(key)
    if field is None:
        _check_memory(len(text), _TABLE_PARSE_BYTES,
                      what=f"prime table {path} is too large to parse", unit="byte of its text")
        field = _parse_prime_table(path, text)  # a table that fails is not kept
        _TABLE_FIELDS[key] = field
        if len(_TABLE_FIELDS) > _TABLE_FIELDS_KEPT:
            _TABLE_FIELDS.popitem(last=False)
    else:
        _TABLE_FIELDS.move_to_end(key)
    return field


def _parse_prime_table(path: str | Path, text: str) -> FieldSpec:
    rows: dict[int, list[TableRow]] = {}
    spelled: dict[tuple[str, ...], TableRow] = {}  # a table repeats a few rows
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.partition("#")[0].split()
        if len(parts) == 4:
            p, tail = int(parts[0]), tuple(parts[1:])
            row = spelled.get(tail)
            if row is None:
                row = spelled[tail] = tuple(map(int, tail))
            rows.setdefault(p, []).append(row)
        elif parts:  # not blank, nor a comment
            raise ValueError(f"{path}:{lineno}: expected `p f e multiplicity`")
    return make_table_field(rows, label=f"table:{path}")


def parse_field(spec: str) -> FieldSpec:
    """Resolve a field designation: `q`, `q:<m>`, or `table:<path>`."""
    if spec == "q":
        return make_rational_field()
    if spec.startswith("q:"):
        try:
            m = int(spec[2:])
        except ValueError:
            raise ValueError(f"bad quadratic field spec {spec!r}") from None
        return make_quadratic_field(m)
    if spec.startswith("table:"):
        return load_prime_table(spec[6:])
    raise ValueError(f"unknown field designation {spec!r}")


# ---------------------------------------------------------------------------
# The one memo of arrays kept between queries, each read-only beside the reach
# it was built for, by key (owner, name): the rational primes (None, "primes")
# and the quadratic characters (None, ("chi", disc)); per field, with owner
# field.cache_key(), the sieve's prefix sums ((kind, k)), the k-full rows of
# `_sublinear` (("kfull", k)), the Euler products' prime-ideal norms ("norms")
# and the report constants of `summatory` (0-d arrays, (name, *args)).  The
# newest array is always kept, and beside it the least recently used arrays
# are dropped while the bytes kept besides the newest exceed _KEPT_BYTES, so
# an array past the budget pushes out only what passes the budget beside it.

_CUM_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_REACHES: dict[tuple, int] = {}
_KEPT_BYTES = 32 * 2**20


def kept_array(key: tuple, reach: int, build: Callable[[int], np.ndarray]) -> np.ndarray:
    """The array kept under key if it was built for a reach at least as far,
    else build(reach), kept."""
    if key in _REACHES and _REACHES[key] >= reach:
        _CUM_CACHE.move_to_end(key)
        return _CUM_CACHE[key]
    if key in _REACHES:  # the shorter array goes before the longer is built
        del _CUM_CACHE[key], _REACHES[key]
    array = build(reach)  # an array that fails to build is not kept
    array.flags.writeable = False
    _CUM_CACHE[key] = array
    _REACHES[key] = reach
    kept = sum(a.nbytes for a in _CUM_CACHE.values()) - array.nbytes
    while kept > _KEPT_BYTES:
        dropped, old = _CUM_CACHE.popitem(last=False)
        del _REACHES[dropped]
        kept -= old.nbytes
    return array


def clear_cache() -> None:
    """Empty every per-process memo of the package: the kept arrays (the
    primes, the characters, the per-field arrays and the report constants)
    and the parsed table fields."""
    for memo in (_CUM_CACHE, _REACHES, _TABLE_FIELDS):
        memo.clear()


# ---------------------------------------------------------------------------
# rational primes

def _check_memory(count: int, bytes_each: int = 17, what: str = "", unit: str = "norm") -> None:
    """Refuse work that holds about `bytes_each` bytes for each of count + 1
    units (norms up to count, unless the caller names another `unit`) when
    that exceeds physical memory; `what` opens the message.

    The default is a sieve's: the int64 coefficients, a bool prime flag, and
    one more x-sized int64 array such as most callers hold (a second cached
    prefix sum, or np.cumsum of the coefficients).
    """
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):  # no sysconf: nothing to check
        return
    if bytes_each * (count + 1) > physical:
        what = what or f"x = {min(count, 10**308):.3g} is too large to sieve"
        raise ValueError(f"{what}: about {bytes_each} bytes per {unit} exceed "
                         f"the {physical / 2**30:.1f} GiB of physical memory")


def primes_up_to(limit: int) -> np.ndarray:
    """All rational primes <= limit, as a read-only int64 array: a prefix of
    the kept primes of the largest limit asked."""
    limit = int(limit)
    primes = kept_array((None, "primes"), max(limit, 2), _sieve_primes)
    return primes[: np.searchsorted(primes, limit, side="right")]


def _sieve_primes(limit: int) -> np.ndarray:
    _check_memory(limit)
    # odd numbers only: odd[i] flags 2i + 1, and 2 is prepended
    odd = np.ones((limit + 1) // 2, dtype=bool)
    odd[0] = False
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return np.concatenate((np.array([2], dtype=np.int64),
                           2 * np.flatnonzero(odd).astype(np.int64) + 1))


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


# ---------------------------------------------------------------------------
# splitting

def prime_ideals_above(field: FieldSpec, p: int) -> tuple[PrimeIdealLabel, ...]:
    return tuple(PrimeIdealLabel(p, f, i) for i, f in enumerate(field.residue_degrees(p)))


def primes_with_norm_up_to(field: FieldSpec, X: float) -> list[PrimeIdealLabel]:
    """All prime ideals with norm <= X, sorted by (norm, p, conjugate index)."""
    if X < 1:
        raise ValueError("X must be >= 1")
    columns = (column.tolist() for column in _prime_ideals(field, int(X)))
    return list(map(PrimeIdealLabel._make, zip(*columns)))


def _prime_ideals(field: FieldSpec, X: int) -> tuple[np.ndarray, ...]:
    """The prime ideals of norm <= X as four int64 arrays, the fields of
    their labels: norm, p, conjugate index and f, in (norm, p, index) order.
    Each array owns its bytes."""
    primes = primes_up_to(X)
    classes, of = field.splitting(primes)
    parts = []
    for index, f in sorted({pair for degrees in classes for pair in enumerate(degrees)}):
        # the primes with p^f <= X whose class has an ideal of degree f at index
        top = int(np.searchsorted(primes, integer_kth_root(X, f), side="right"))
        has = np.array([degrees[index:index + 1] == (f,) for degrees in classes])
        ps = primes[:top][has[of[:top]]]
        parts.append((ps**f, ps, np.full(len(ps), index), np.full(len(ps), f)))
    # equal norms are one p^f, and the parts come by index: a stable sort by
    # norm leaves the conjugates of a norm in index order
    columns = [np.concatenate(column) for column in zip(*parts)]
    order = np.argsort(columns[0], kind="stable")
    return tuple(column[order] for column in columns)
