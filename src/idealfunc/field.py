"""Degree-1 and degree-2 number fields and the splitting of rational primes.

A field is represented only by its degree and fundamental discriminant; all
downstream arithmetic works with norm-indexed prime-ideal labels, so ring
elements, generators and class groups never appear.  Fields of degree >= 3
are supported through an explicit prime-ideal table (``table:<path>``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dc_field
from enum import Enum
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "SplittingType",
    "PrimeIdealLabel",
    "FieldSpec",
    "make_rational_field",
    "make_quadratic_field",
    "make_table_field",
    "parse_field",
    "kronecker_symbol",
    "is_squarefree",
    "is_fundamental_discriminant",
    "split_prime",
    "prime_ideals_above",
    "primes_with_norm_up_to",
    "primes_up_to",
]

NORM_LIMIT = 2**62


class SplittingType(Enum):
    DEGREE1 = "degree1"
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True)
class PrimeIdealLabel:
    """A prime ideal above the rational prime p, with residue degree f.

    Conjugate primes above a split p carry indices 0 and 1; everything
    downstream depends on the label only through its norm p**f, so the
    index exists purely to make orderings canonical.
    """

    p: int
    f: int
    index: int = 0
    norm: int = dc_field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.p < 2 or self.f < 1 or self.index < 0:
            raise ValueError(f"bad prime ideal label ({self.p}, {self.f}, {self.index})")
        object.__setattr__(self, "norm", self.p**self.f)

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (self.norm, self.p, self.index)

    def __lt__(self, other: "PrimeIdealLabel") -> bool:
        return self.sort_key < other.sort_key


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
    # {p: residue degrees} of a prime_table, one entry per prime ideal
    table_degrees: dict[int, tuple[int, ...]] | None = dc_field(
        init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        degrees = None
        if self.prime_table is not None:
            degrees = {p: tuple(f for f, _e, mult in sorted(rows) for _ in range(mult))
                       for p, rows in self.prime_table}
        # an instance attribute, not a class default, keeps residue_degrees fast
        object.__setattr__(self, "table_degrees", degrees)
        if degrees is not None:
            return
        if self.degree == 1:
            if self.m is not None or self.disc != 1:
                raise ValueError("degree-1 field must have disc 1 and no m")
        elif self.degree == 2:
            if self.m is None or self.m in (0, 1) or not is_squarefree(self.m):
                raise ValueError(f"m={self.m} is not a valid quadratic field generator")
            if self.disc % 4 not in (0, 1):
                raise ValueError(f"discriminant {self.disc} is not 0 or 1 mod 4")
        else:
            raise ValueError("native support covers degree 1 and 2 only; use a prime table")

    def cache_key(self) -> tuple:
        return (self.degree, self.disc, self.m, self.prime_table)

    def chi(self, n: int) -> int:
        """Splitting character chi_disc(n) for quadratic fields."""
        if self.degree != 2 or self.prime_table is not None:
            raise ValueError("chi is defined for built-in quadratic fields only")
        table = _chi_table(self.disc)
        return table[n % len(table)]

    def residue_degrees(self, p: int) -> tuple[int, ...]:
        """Residue degrees of the prime ideals above the rational prime p."""
        if self.table_degrees is not None:
            try:
                return self.table_degrees[p]
            except KeyError:
                raise ValueError(
                    f"prime {p} missing from the supplied prime-ideal table") from None
        if self.degree == 1:
            return (1,)
        table = _chi_table(self.disc)
        return _QUADRATIC_DEGREES[table[p % len(table)]]

    def splitting_keys(self, primes: np.ndarray) -> np.ndarray:
        """One integer key per prime; primes with equal keys have equal
        residue_degrees."""
        if self.table_degrees is None:
            # chi_disc(p) depends only on p mod |disc| (all keys 0 over Q)
            return primes % abs(self.disc)
        # a class index per distinct degrees tuple, in order of first appearance
        classes: dict[tuple[int, ...], int] = {}
        return np.array([classes.setdefault(self.residue_degrees(p), len(classes))
                         for p in primes.tolist()], dtype=np.int64)


# residue degrees above p by chi_disc(p): split, inert, ramified
_QUADRATIC_DEGREES = {1: (1, 1), -1: (2,), 0: (1,)}


@lru_cache(maxsize=None)
def _chi_table(disc: int) -> tuple[int, ...]:
    # chi_disc is a Dirichlet character mod |disc|, so one period suffices.
    mod = abs(disc)
    return tuple(0 if r == 0 else kronecker_symbol(disc, r) for r in range(mod))


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 1
    return True


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
    if m in (0, 1) or not is_squarefree(m):
        raise ValueError(f"m={m} must be squarefree and not 0 or 1")
    disc = m if m % 4 == 1 else 4 * m
    return FieldSpec(degree=2, disc=disc, m=m, label=f"q:{m}")


def make_table_field(rows: dict[int, list[TableRow]], label: str = "table") -> FieldSpec:
    """Build a field from explicit splitting data {p: [(f, e, multiplicity)]}."""
    table = tuple(sorted((p, tuple(rs)) for p, rs in rows.items()))
    degree = None
    for p, rs in table:
        d = sum(f * e * mult for (f, e, mult) in rs)
        if any(f < 1 or e < 1 or mult < 1 for (f, e, mult) in rs):
            raise ValueError(f"bad table row for p={p}")
        if degree is None:
            degree = d
        elif d != degree:
            raise ValueError(f"inconsistent degree at p={p}: {d} != {degree}")
    if degree is None:
        raise ValueError("empty prime-ideal table")
    return FieldSpec(degree=degree, disc=0, label=label, prime_table=table)


def load_prime_table(path: str | Path) -> FieldSpec:
    """Parse a whitespace-separated table file: `p f e multiplicity` per line."""
    rows: dict[int, list[TableRow]] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected `p f e multiplicity`")
        p, f, e, mult = map(int, parts)
        rows.setdefault(p, []).append((f, e, mult))
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

def _check_memory(xmax: int, bytes_per_norm: int = 17, what: str = "") -> None:
    """Refuse work that holds about `bytes_per_norm` bytes for each norm up to
    xmax when that exceeds physical memory; `what` opens the message.

    The default is a sieve's: the int64 coefficients, a bool prime flag, and
    one more x-sized int64 array such as most callers hold (a second cached
    prefix sum, or np.cumsum of the coefficients).
    """
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):  # no sysconf: nothing to check
        return
    if bytes_per_norm * (xmax + 1) > physical:
        what = what or f"x = {min(xmax, 10**308):.3g} is too large to sieve"
        raise ValueError(f"{what}: about {bytes_per_norm} bytes per norm exceed "
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

_SPLITTING = {(1, 1): SplittingType.SPLIT, (2,): SplittingType.INERT,
              (1,): SplittingType.RAMIFIED}


def split_prime(field: FieldSpec, p: int) -> SplittingType:
    if field.prime_table is not None:
        raise ValueError("splitting types are not defined for table fields")
    if field.degree == 1:
        return SplittingType.DEGREE1
    return _SPLITTING[field.residue_degrees(p)]


def prime_ideals_above(field: FieldSpec, p: int) -> tuple[PrimeIdealLabel, ...]:
    return tuple(PrimeIdealLabel(p, f, i) for i, f in enumerate(field.residue_degrees(p)))


def primes_with_norm_up_to(field: FieldSpec, X: float) -> list[PrimeIdealLabel]:
    """All prime ideals with norm <= X, sorted by (norm, p, conjugate index)."""
    if X < 1:
        raise ValueError("X must be >= 1")
    labels: list[PrimeIdealLabel] = []
    for p in primes_up_to(int(X)).tolist():
        for lab in prime_ideals_above(field, p):
            if lab.norm <= X:
                labels.append(lab)
    labels.sort(key=lambda lab: lab.sort_key)
    return labels
