"""Real analytic quantities: zeta_F, L(s, chi_D), the residue c_F, and the
leading constant of the order-k Mobius summatory asymptotic.

Every evaluation returns an AnalyticValue carrying an explicit tail bound;
consumers compare within combined bounds, never for exact equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _sieve
from .field import (
    FieldSpec,
    _chi_table,
    is_fundamental_discriminant,
    primes_up_to,
)

__all__ = [
    "AnalyticValue",
    "dedekind_zeta",
    "dedekind_zeta_series",
    "dirichlet_L",
    "residue_c_F",
    "mobius_density_constant",
    "mobius_density_partial_sum",
    "lambda_generating_partial",
    "kfree_generating_partial",
]


# Euler products run over the prime ideals of norm <= PRIME_CUTOFF; series
# over the first SERIES_CUTOFF terms
PRIME_CUTOFF = 100_000
SERIES_CUTOFF = 200_000


@dataclass(frozen=True)
class AnalyticValue:
    value: float
    tail_bound: float
    method: str

    def __post_init__(self) -> None:
        if self.tail_bound < 0:
            raise ValueError("tail bound must be nonnegative")


def _zeta_upper(s: float) -> float:
    """Cheap upper bound on the Riemann zeta value at s > 1."""
    partial = sum(n ** (-s) for n in range(1, 65))
    return partial + 64.0 ** (1 - s) / (s - 1)


def _prime_ideal_norm_tail(degree: int, cutoff: int, s: float) -> float:
    """Upper bound on sum of N^-s over prime ideals with norm > cutoff."""
    # at most `degree` ideals above each rational prime p > cutoff (norm >= p),
    # plus inert-style ideals of norm p^2 > cutoff with p <= cutoff
    head = degree * (cutoff ** (1 - s) / (s - 1) + cutoff ** (-s))
    inert = cutoff ** ((1 - 2 * s) / 2) / (2 * s - 1) + cutoff ** (-s)
    return head + inert


def _prime_ideal_norms(field: FieldSpec, cutoff: int) -> list[int]:
    """Norms of the prime ideals with norm <= cutoff, ascending, one per ideal.

    The same norms in the same order as `primes_with_norm_up_to`, without
    building a label per prime ideal; equal norms give equal Euler factors,
    so the products and sums below keep their floating-point order.
    """
    return sorted(p**f for p in primes_up_to(cutoff).tolist()
                  for f in field.residue_degrees(p) if p**f <= cutoff)


def dedekind_zeta(field: FieldSpec, s: float, cutoff: int = PRIME_CUTOFF) -> AnalyticValue:
    """zeta_F(s) for real s > 1 by truncated Euler product over the prime
    ideals of norm <= cutoff."""
    if s <= 1 + 1e-3:
        raise ValueError("s must exceed 1 + 1e-3 (pole at s = 1)")
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    log_value = 0.0
    for norm in _prime_ideal_norms(field, cutoff):
        log_value -= math.log1p(-float(norm) ** (-s))
    value = math.exp(log_value)
    log_tail = _prime_ideal_norm_tail(field.degree, cutoff, s) / (1.0 - 2.0 ** (-s))
    return AnalyticValue(value=value, tail_bound=value * math.expm1(log_tail),
                         method="euler-product")


def dedekind_zeta_series(field: FieldSpec, s: float) -> AnalyticValue:
    """zeta_F(s) by the coefficient series sum_{n <= N0} a_F(n) n^-s."""
    if s <= 1 + 1e-3:
        raise ValueError("s must exceed 1 + 1e-3 (pole at s = 1)")
    n0 = SERIES_CUTOFF
    coeff = _sieve.coefficient_array(field, "count", 0, n0)
    ns = np.arange(n0 + 1, dtype=np.float64)
    ns[0] = 1.0
    value = float(np.dot(coeff[1:], ns[1:] ** (-s)))
    if field.degree == 1:
        tail = n0 ** (1 - s) / (s - 1) + n0 ** (-s)
    else:
        # a_F(n) <= tau(n) for quadratic fields; crude divisor-sum tail bound
        tail = n0 ** (1 - s) * ((1 + math.log(n0)) / (s - 1) + 1 + _zeta_upper(s) / (s - 1))
    return AnalyticValue(value=value, tail_bound=tail, method="series")


def dirichlet_L(D: int, s: float) -> AnalyticValue:
    """L(s, chi_D) for a fundamental discriminant D != 1 and real s >= 1.

    Direct character sum over whole periods (the per-period sums vanish),
    with the Abel-summation tail bound 2 B N^-s from bounded partial sums.
    """
    if D == 1 or not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant != 1")
    if s < 1:
        raise ValueError("s must be >= 1")
    mod = abs(D)
    table = np.array(_chi_table(D), dtype=np.float64)
    n0 = ((SERIES_CUTOFF + mod - 1) // mod) * mod  # whole periods only
    n = np.arange(1, n0 + 1, dtype=np.float64)
    chi = table[np.arange(1, n0 + 1) % mod]
    value = float(np.dot(chi, n ** (-s)))
    partial_bound = float(np.max(np.abs(np.cumsum(table))))
    tail = 2.0 * partial_bound * n0 ** (-s)
    return AnalyticValue(value=value, tail_bound=tail, method="character-sum")


def residue_c_F(field: FieldSpec) -> AnalyticValue:
    """Residue of zeta_F at s = 1: exactly 1 for the rationals, L(1, chi_D) for
    quadratic fields (zeta_F = zeta * L(., chi_D))."""
    if field.prime_table is not None:
        raise ValueError("c_F is not available for explicit-table fields")
    if field.degree == 1:
        return AnalyticValue(value=1.0, tail_bound=0.0, method="exact")
    return dirichlet_L(field.disc, 1.0)


def mobius_density_constant(field: FieldSpec, k: int) -> AnalyticValue:
    """The absolutely convergent ideal sum  sum_A mu_1(A) J_1(A) / (J_k(A) N(A)),
    as an Euler product over prime ideals.

    The summand is multiplicative and supported on squarefree ideals, so the
    per-prime factor is 1 - (N-1) / (N (N^k - 1)); every factor lies in (0, 1].
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    value = 1.0
    for norm in _prime_ideal_norms(field, PRIME_CUTOFF):
        n = float(norm)
        value *= 1.0 - (n - 1.0) / (n * (n**k - 1.0))
    log_tail = 2.0 * _prime_ideal_norm_tail(field.degree, PRIME_CUTOFF, float(k))
    return AnalyticValue(value=value, tail_bound=value * math.expm1(log_tail),
                         method="euler-product")


def mobius_density_partial_sum(field: FieldSpec, k: int, X: int) -> float:
    """Truncated direct ideal sum of mu_1(A) J_1(A) / (J_k(A) N(A)) over N(A) <= X.

    Independent route to mobius_density_constant, via the coefficient sieve.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    coeff = _sieve.coefficient_array(field, "mobius_density", k, int(X))
    return float(np.sum(coeff[1:]))


def lambda_generating_partial(field: FieldSpec, k: int, s: float, X: float) -> float:
    """Partial Dirichlet series  sum_{N(A) <= X} lambda_{k-1}(A) / N(A)^s.

    Converges to zeta_F(ks) / zeta_F(s) for s > 1.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if s <= 1:
        raise ValueError("s must exceed 1")
    if X < 2:
        return 1.0
    n0 = math.floor(X)
    coeff = _sieve.coefficient_array(field, "liouville", k - 1, n0)
    n = np.arange(1, n0 + 1, dtype=np.float64)
    return float(np.dot(coeff[1:].astype(np.float64), n ** (-s)))


def kfree_generating_partial(field: FieldSpec, k: int, s: float, X: float) -> float:
    """Partial Dirichlet series  sum_{N(A) <= X} q_k(A) / N(A)^s  (-> zeta_F(s)/zeta_F(ks))."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if s <= 1:
        raise ValueError("s must exceed 1")
    if X < 2:
        return 1.0
    n0 = math.floor(X)
    coeff = _sieve.coefficient_array(field, "kfree", k, n0)
    n = np.arange(1, n0 + 1, dtype=np.float64)
    return float(np.dot(coeff[1:].astype(np.float64), n ** (-s)))
