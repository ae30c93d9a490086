"""Ideal factorizations, their divisor lattice, and counting by norm.

Every ideal is a canonical sorted multiset of prime-ideal labels with
exponents; the empty factorization is the unit ideal of norm 1.  Norms are
exact Python integers, rejected past 2**62 so identity tests can never be
corrupted by silent wraparound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import product as iter_product
from typing import Iterable, Iterator

from . import _sieve
from .field import (
    NORM_LIMIT,
    FieldSpec,
    PrimeIdealLabel,
    _check_memory,
    prime_ideals_above,
    primes_up_to,
    primes_with_norm_up_to,
)

__all__ = [
    "IdealFactorization",
    "UNIT",
    "from_factors",
    "prime_power",
    "multiply",
    "power",
    "divides",
    "quotient",
    "coprime",
    "divisors",
    "format_ideal",
    "enumerate_ideals",
    "ideals_of_norm",
    "ideal_count",
    "ideal_count_coprime",
]


@dataclass(frozen=True)
class IdealFactorization:
    """Canonical prime-ideal factorization; the universal ideal representation."""

    factors: tuple[tuple[PrimeIdealLabel, int], ...] = ()
    norm: int = dc_field(init=False, compare=False)

    def __post_init__(self) -> None:
        norm = 1
        prev = None
        for lab, e in self.factors:
            if e < 1:
                raise ValueError("exponents must be >= 1")
            if prev is not None and not prev < lab:
                raise ValueError("factors must be strictly sorted by label")
            prev = lab
            norm *= lab.norm**e
            if norm > NORM_LIMIT:
                raise OverflowError(f"ideal norm exceeds {NORM_LIMIT}")
        object.__setattr__(self, "norm", norm)

    def __iter__(self) -> Iterator[tuple[PrimeIdealLabel, int]]:
        return iter(self.factors)

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def exponents(self) -> dict[PrimeIdealLabel, int]:
        return dict(self.factors)

    def sort_key(self) -> tuple:
        return (self.norm, tuple((lab.p, lab.index, e) for lab, e in self.factors))

    def __repr__(self) -> str:
        return f"Ideal({format_ideal(self)}, norm={self.norm})"


UNIT = IdealFactorization()


def from_factors(pairs: Iterable[tuple[PrimeIdealLabel, int]]) -> IdealFactorization:
    """Build a factorization from unsorted (label, exponent) pairs, merging duplicates."""
    acc: dict[PrimeIdealLabel, int] = {}
    for lab, e in pairs:
        acc[lab] = acc.get(lab, 0) + e
    kept = [(lab, e) for lab, e in acc.items() if e != 0]
    if any(e < 0 for _, e in kept):
        raise ValueError("negative exponent")
    kept.sort(key=lambda item: item[0].sort_key)
    return IdealFactorization(tuple(kept))


def prime_power(label: PrimeIdealLabel, e: int = 1) -> IdealFactorization:
    return IdealFactorization(((label, e),))


def multiply(A: IdealFactorization, B: IdealFactorization) -> IdealFactorization:
    if A.is_unit:
        return B
    if B.is_unit:
        return A
    return from_factors(list(A.factors) + list(B.factors))


def power(A: IdealFactorization, n: int) -> IdealFactorization:
    if n < 0:
        raise ValueError("negative power")
    if n == 0:
        return UNIT
    return IdealFactorization(tuple((lab, e * n) for lab, e in A.factors))


def divides(D: IdealFactorization, A: IdealFactorization) -> bool:
    exps = A.exponents()
    return all(exps.get(lab, 0) >= e for lab, e in D.factors)


def quotient(A: IdealFactorization, D: IdealFactorization) -> IdealFactorization:
    exps = A.exponents()
    for lab, e in D.factors:
        have = exps.get(lab, 0)
        if have < e:
            raise ValueError(f"{D!r} does not divide {A!r}")
        exps[lab] = have - e
    return IdealFactorization(tuple((lab, exps[lab]) for lab, _ in A.factors if exps[lab] > 0))


def coprime(A: IdealFactorization, B: IdealFactorization) -> bool:
    if len(A.factors) > len(B.factors):
        A, B = B, A
    labels = {lab for lab, _ in B.factors}
    return not any(lab in labels for lab, _ in A.factors)


def divisors(A: IdealFactorization) -> list[IdealFactorization]:
    """All divisors, lexicographic in exponent vectors; Prod (e_i + 1) of them."""
    labels = [lab for lab, _ in A.factors]
    ranges = [range(e + 1) for _, e in A.factors]
    out = []
    for exps in iter_product(*ranges):
        out.append(IdealFactorization(
            tuple((lab, e) for lab, e in zip(labels, exps) if e > 0)))
    return out


def format_ideal(A: IdealFactorization) -> str:
    if A.is_unit:
        return "1"
    return "*".join(f"{lab.p}^{e}[{lab.f},{lab.index}]" for lab, e in A.factors)


def enumerate_ideals(field: FieldSpec, X: float) -> Iterator[IdealFactorization]:
    """Every ideal with norm <= X exactly once, in nondecreasing norm.

    Ties are broken by rational prime, then conjugate index, then exponent
    vector, so the stream is fully deterministic.  Includes the unit ideal.
    """
    if X < 1:
        return
    # every ideal is held in a list, about 560 bytes each (tracemalloc at
    # X = 10^5), before the first is yielded; the mean number of ideals per
    # norm is c_F: 1 over Q, pi/4 over Z[i], below 2 for most quadratic fields
    _check_memory(math.floor(X), 1024, f"x = {X:.3g} is too large to enumerate")
    labels = primes_with_norm_up_to(field, X) if X >= 2 else []
    found: list[tuple[tuple, tuple]] = []

    def descend(start: int, factors: tuple, norm: int) -> None:
        found.append((
            (norm, tuple((lab.p, lab.index, e) for lab, e in factors)),
            factors,
        ))
        for j in range(start, len(labels)):
            lab = labels[j]
            nn = norm * lab.norm
            if nn > X:
                break  # labels sorted by norm, so no later label fits either
            e = 1
            while nn <= X:
                descend(j + 1, factors + ((lab, e),), nn)
                nn *= lab.norm
                e += 1

    descend(0, (), 1)
    found.sort(key=lambda item: item[0])
    for _key, factors in found:
        yield IdealFactorization(factors)


def _factor(n: int) -> list[tuple[int, int]]:
    """(p, a) for each p^a exactly dividing n >= 1, p ascending."""
    root = math.isqrt(n)
    _check_memory(root, what=f"ideal norm {n} is too large to factor by a prime sieve "
                             f"up to {root}")
    small = primes_up_to(root)
    pairs = []
    for p in small[n % small == 0].tolist():
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        pairs.append((p, a))
    if n > 1:  # every prime factor up to sqrt(n) is gone, so n is prime
        pairs.append((n, 1))
    return pairs


def ideals_of_norm(field: FieldSpec, n: int) -> list[IdealFactorization]:
    """Every ideal of norm n, in the order `enumerate_ideals` yields them.

    Built from the factorization of n: for each p^a exactly dividing n, the
    ideals of norm p^a are the exponent vectors (e_i) over the prime ideals
    P_i above p with sum e_i f_i = a, and an ideal of norm n picks one of
    them for every such p.
    """
    if not 1 <= n <= NORM_LIMIT:
        raise ValueError(f"ideal norm must lie in [1, {NORM_LIMIT}]")
    local = []
    for p, a in _factor(n):
        labels = prime_ideals_above(field, p)
        local.append([
            [(lab, e) for lab, e in zip(labels, exps) if e]
            for exps in iter_product(*(range(a // lab.f + 1) for lab in labels))
            if sum(lab.f * e for lab, e in zip(labels, exps)) == a
        ])
    ideals = [from_factors(pair for part in parts for pair in part)
              for parts in iter_product(*local)]
    return sorted(ideals, key=IdealFactorization.sort_key)


def ideal_count(field: FieldSpec, X: float) -> int:
    """[X]_F: the number of ideals with norm <= X, via the coefficient sieve."""
    if X < 1:
        return 0
    n = math.floor(X)
    if field.degree == 1 and field.prime_table is None:
        return n
    cum = _sieve.cumulative_array(field, "count", 0, n)
    return int(cum[n])


def ideal_count_coprime(field: FieldSpec, X: float, A: IdealFactorization) -> int:
    """Number of ideals C with norm <= X and (C, A) = 1, by direct filtering."""
    if X < 1:
        return 0
    labels = {lab for lab, _ in A.factors}
    count = 0
    for C in enumerate_ideals(field, X):
        if not any(lab in labels for lab, _ in C.factors):
            count += 1
    return count
