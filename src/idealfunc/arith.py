"""Arithmetic functions on ideals and the Dirichlet convolution algebra.

Everything here is exact: values are Python integers, and Dirichlet
inverses use Fractions internally (inverses of integer-valued functions
need not be integral).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from ._sieve import _kfree, _liouville, _mobius
from .ideals import UNIT, IdealFactorization, divisors, quotient

__all__ = [
    "mu_k",
    "mu_1",
    "lambda_k",
    "q_k",
    "delta",
    "jordan_totient",
    "dirichlet_convolve",
    "dirichlet_inverse",
]


def _multiplicative(rule: Callable[[int, int], int], k: int, A: IdealFactorization) -> int:
    """The multiplicative function with prime-power values rule(e, k) at A."""
    out = 1
    for _lab, e in A.factors:
        out *= rule(e, k)
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


# the largest N(A)^k jordan_totient computes exactly, as a power of 2: such a
# value still prints in decimal under Python's default 4300-digit limit
JORDAN_MAX_BITS = 10_000


def jordan_totient(k: int, A: IdealFactorization) -> int:
    """J_k(A) = N(A)^k prod_{P|A} (1 - N(P)^-k), as an exact positive integer."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k * (A.norm.bit_length() - 1) > JORDAN_MAX_BITS:
        raise ValueError(f"the Jordan totient at norm {A.norm} is refused for this order: "
                         f"N(A)^k would pass 2^{JORDAN_MAX_BITS}")
    out = 1
    for lab, e in A.factors:
        out *= lab.norm ** (k * e) - lab.norm ** (k * (e - 1))
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
