"""Degree-1 and degree-2 number fields and the splitting of rational primes.

A field is represented only by its degree and fundamental discriminant; all
downstream arithmetic works with norm-indexed prime-ideal labels, so ring
elements, generators and class groups never appear.  Fields of degree >= 3
are supported through an explicit prime-ideal table (``table:<path>``).
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "PrimeIdealLabel",
    "FieldSpec",
    "make_rational_field",
    "make_quadratic_field",
    "make_table_field",
    "parse_field",
    "kronecker_symbol",
    "is_squarefree",
    "is_fundamental_discriminant",
    "prime_ideals_above",
    "primes_with_norm_up_to",
    "primes_up_to",
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
    quadratic field Q(sqrt(m)) with fundamental discriminant disc.  A
    prime_table is the extension point for higher-degree fields: per
    rational prime, the residue degrees / ramification / multiplicities
    of the primes above it.
    """

    degree: int
    disc: int
    m: int | None = None
    label: str = ""
    prime_table: tuple[tuple[int, tuple[TableRow, ...]], ...] | None = None
    # the `_table_splitting` of a prime_table
    _table: tuple | None = dc_field(init=False, compare=False, repr=False)
    _key: "_CacheKey" = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        table = (None if self.prime_table is None
                 else _table_splitting(self.prime_table, self.degree))
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_key",
                           _CacheKey((self.degree, self.disc, self.m, self.prime_table)))
        if table is not None:
            return
        if self.degree == 1:
            if self.m is not None or self.disc != 1:
                raise ValueError("degree-1 field must have disc 1 and no m")
        elif self.degree == 2:
            if self.m is None or self.m in (0, 1) or not is_squarefree(self.m):
                raise ValueError(f"m={self.m} must be squarefree and not 0 or 1")
            if self.disc % 4 not in (0, 1):
                raise ValueError(f"discriminant {self.disc} is not 0 or 1 mod 4")
        else:
            raise ValueError("native support covers degree 1 and 2 only; use a prime table")

    def cache_key(self) -> "_CacheKey":
        """The key of this field in the per-process memos: equal for equal
        fields, and hashed once per FieldSpec rather than once per lookup."""
        return self._key

    def chi(self, n: int) -> int:
        """Splitting character chi_disc(n) for quadratic fields."""
        if self.degree != 2 or self.prime_table is not None:
            raise ValueError("chi is defined for built-in quadratic fields only")
        return int(_chi_array(self.disc)[n % abs(self.disc)])

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
        if self._table is not None:
            listed, of, classes = self._table
            at = np.searchsorted(listed, primes)
            found = at < len(listed)
            found[found] = listed[at[found]] == primes[found]
            if not found.all():
                raise ValueError(f"prime {primes[found.argmin()]} missing from the "
                                 f"supplied prime-ideal table")
            return list(classes), of[at]
        if self.degree == 1:
            return [(1,)], np.zeros(len(primes), dtype=np.intp)
        chi = _chi_array(self.disc)[primes % abs(self.disc)]
        return list(_QUADRATIC_CLASSES), chi.astype(np.intp) + 1


class _CacheKey:
    """A tuple with its hash taken once.  Equality still compares the whole
    tuple (after an identity check), so distinct prime tables never share a
    key; a tuple would hash all of a prime_table on every memo lookup."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: tuple):
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, _CacheKey) and self._hash == other._hash
                                 and self.value == other.value)

    def __reduce__(self):  # hash again on unpickling: hash(None) varies by process
        return _CacheKey, (self.value,)


# residue degrees above p by chi_disc(p) + 1: inert, ramified, split
_QUADRATIC_CLASSES = ((2,), (1,), (1, 1))


# the characters of the prime discriminants -4, 8 and -8, over one period
_TWO_PART_CHI = {-4: (0, 1, 0, -1), 8: (0, 1, 0, -1, 0, -1, 0, 1),
                 -8: (0, 1, 0, 1, 0, -1, 0, -1)}


@lru_cache(maxsize=None)
def _chi_array(disc: int) -> np.ndarray:
    """chi_disc(n) for 0 <= n < |disc| (one period), as a read-only int8 array.

    A fundamental discriminant is a product of prime discriminants: one of
    -4, 8, -8 for its 2-part, and p* = (-1)^((p-1)/2) p for each odd p | disc,
    whose character is the Legendre symbol (n/p).  chi_disc is the product
    of their characters, each tiled over the period.
    """
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
    chi.flags.writeable = False
    return chi


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


def is_fundamental_discriminant(D: int) -> bool:
    if D == 1:
        return True
    if D % 4 == 1:
        return is_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


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
    table = tuple((p, tuple(rows[p])) for p in sorted(rows))
    if not table:
        raise ValueError("empty prime-ideal table")
    degree = sum(f * e * mult for f, e, mult in table[0][1])
    return FieldSpec(degree=degree, disc=0, label=label, prime_table=table)


def _table_splitting(table: tuple, degree: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """A table's primes (int64, ascending, but for any past every norm), each
    one's class index (intp) and the classes in order of first appearance,
    in one pass over its primes in order: the first prime with a row entry
    below 1, or whose f e multiplicity do not sum to the degree, is refused."""
    classes: dict[tuple[int, ...], int] = {}
    checked: dict[tuple, int] = {}  # most primes share their rows with others
    listed, of = [], []
    for p, rows in table:
        c = checked.get(rows)
        if c is None:
            if any(f < 1 or e < 1 or mult < 1 for f, e, mult in rows):
                raise ValueError(f"bad table row for p={p}")
            d = sum(f * e * mult for f, e, mult in rows)
            if d != degree:
                raise ValueError(f"inconsistent degree at p={p}: {d} != {degree}")
            ideals = tuple(f for f, _e, mult in sorted(rows) for _ in range(mult))
            c = checked[rows] = classes.setdefault(ideals, len(classes))
        if abs(p) <= NORM_LIMIT:
            listed.append(p)
            of.append(c)
    return np.array(listed, dtype=np.int64), np.array(of, dtype=np.intp), tuple(classes)


# the last few table fields parsed, by (path, file text): with the text, its
# prime_table and splitting, about 175 bytes per prime of the table
_TABLE_FIELDS: "OrderedDict[tuple[str, str], FieldSpec]" = OrderedDict()
_TABLE_FIELDS_KEPT = 4


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


def kronecker_symbol(D: int, n: int) -> int:
    """Kronecker symbol (D/n) for n >= 1, completely multiplicative in n."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 1
    a, result = D, 1
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        t = 0
        while a % 2 == 0:
            a //= 2
            t += 1
        if t % 2 and n % 8 in (3, 5):
            result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


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


_prime_cache: dict[str, object] = {"limit": 0, "primes": np.empty(0, dtype=np.int64)}


def primes_up_to(limit: int) -> np.ndarray:
    """All rational primes <= limit, as an int64 array (cached, grow-only)."""
    limit = int(limit)
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit > _prime_cache["limit"]:
        _check_memory(limit)
        # odd numbers only: odd[i] flags 2i + 1, and 2 is prepended
        odd = np.ones((limit + 1) // 2, dtype=bool)
        odd[0] = False
        for i in range(1, (math.isqrt(limit) + 1) // 2):
            if odd[i]:
                p = 2 * i + 1
                odd[p * p // 2 :: p] = False
        _prime_cache["primes"] = np.concatenate(
            (np.array([2], dtype=np.int64), 2 * np.flatnonzero(odd).astype(np.int64) + 1))
        _prime_cache["limit"] = limit
    primes: np.ndarray = _prime_cache["primes"]  # type: ignore[assignment]
    cut = np.searchsorted(primes, limit, side="right")
    return primes[:cut]


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
    from ._sublinear import integer_kth_root

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
