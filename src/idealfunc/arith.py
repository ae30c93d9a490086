"""Arithmetic functions on ideals and the Dirichlet convolution algebra.

Everything here is exact: values are Python integers, and Dirichlet
inverses use Fractions internally (inverses of integer-valued functions
need not be integral).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from ._sieve import _kfree, _liouville, _mobius
from .field import FieldSpec
from .ideals import (
    UNIT,
    IdealFactorization,
    divisors,
    enumerate_ideals,
    multiply,
    power,
    quotient,
)

__all__ = [
    "mu_k",
    "mu_1",
    "lambda_k",
    "q_k",
    "delta",
    "jordan_totient",
    "sigma_s",
    "dirichlet_convolve",
    "dirichlet_inverse",
    "mobius_correlation_sum",
]


def _multiplicative(rule: Callable[[int, int, int], int], k: int,
                    A: IdealFactorization) -> int:
    """The multiplicative function with prime-power values rule(e, k, norm) at A."""
    out = 1
    for lab, e in A.factors:
        out *= rule(e, k, lab.norm)
        if not out:
            break
    return out


def mu_k(k: int, A: IdealFactorization) -> int:
    """Order-k Mobius function: prime-power values 1 / -1 / 0 for e <k / =k / >k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _multiplicative(_mobius, k, A)


def mu_1(A: IdealFactorization) -> int:
    return mu_k(1, A)


def lambda_k(k: int, A: IdealFactorization) -> int:
    """Order-k Liouville function: prime-power value by e mod (k+1) in {0,1,other}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _multiplicative(_liouville, k, A)


def q_k(k: int, A: IdealFactorization) -> int:
    """Indicator of k-free ideals (no prime-ideal exponent >= k); equals |mu_{k-1}|."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return _multiplicative(_kfree, k, A)


def delta(A: IdealFactorization) -> int:
    return 1 if A.is_unit else 0


def jordan_totient(k: int, A: IdealFactorization) -> int:
    """J_k(A) = N(A)^k prod_{P|A} (1 - N(P)^-k), as an exact positive integer."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = 1
    for lab, e in A.factors:
        out *= lab.norm ** (k * e) - lab.norm ** (k * (e - 1))
    return out


def sigma_s(A: IdealFactorization, s: float) -> int | float:
    """Divisor-norm power sum: sum over D | A of N(D)^s."""
    if isinstance(s, int) and s >= 0:
        out_i = 1
        for lab, e in A.factors:
            out_i *= sum(lab.norm ** (s * j) for j in range(e + 1))
        return out_i
    out = 1.0
    for lab, e in A.factors:
        out *= sum(float(lab.norm) ** (s * j) for j in range(e + 1))
    return out


def dirichlet_convolve(f: Callable, g: Callable, A: IdealFactorization) -> int | Fraction:
    """(f * g)(A) = sum over D | A of f(D) g(A/D), exactly."""
    return sum(f(D) * g(quotient(A, D)) for D in divisors(A))


def dirichlet_inverse(f: Callable, A: IdealFactorization) -> Fraction:
    """f^{-1}(A), solving f * f^{-1} = delta by recursion on divisors.

    Requires f(1) != 0; values are exact rationals.
    """
    f_unit = Fraction(f(UNIT))
    if f_unit == 0:
        raise ValueError("f has no Dirichlet inverse: f at the unit ideal is 0")
    memo: dict = {}

    def inv(B: IdealFactorization) -> Fraction:
        got = memo.get(B.factors)
        if got is not None:
            return got
        if B.is_unit:
            out = 1 / f_unit
        else:
            acc = Fraction(0)
            for D in divisors(B):
                if D.is_unit:
                    continue
                acc += Fraction(f(D)) * inv(quotient(B, D))
            out = -acc / f_unit
        memo[B.factors] = out
        return out

    return inv(A)


def mobius_correlation_sum(field: FieldSpec, k: int, A: IdealFactorization,
                           x: float) -> int:
    """The shifted-product sum  sum_{N(B) <= x} mu_{k-1}(B) mu_{k-1}(A^{k-1} B).

    Computed literally over the ideal stream.  Vanishes unless A is
    squarefree, in which case it counts k-free ideals coprime to A with
    sign mu_1(A).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    shifted = power(A, k - 1)
    total = 0
    for B in enumerate_ideals(field, x):
        mb = mu_k(k - 1, B)
        if mb:
            total += mb * mu_k(k - 1, multiply(shifted, B))
    return total
