"""Real analytic quantities: zeta_F, the residue c_F = L(1, chi_D), and the
leading constant of the order-k Mobius summatory asymptotic.

Every evaluation returns an AnalyticValue carrying an explicit tail bound;
consumers compare within combined bounds, never for exact equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _sieve
from .field import FieldSpec, _chi_array, _prime_ideals, kept_array

__all__ = [
    "AnalyticValue",
    "dedekind_zeta",
    "residue_c_F",
    "mobius_density_constant",
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


def _prime_ideal_norms(field: FieldSpec, cutoff: int) -> np.ndarray:
    """Norms of the prime ideals with norm <= cutoff, ascending, one per ideal.

    The norms of `primes_with_norm_up_to`, from the same list, as a
    read-only int64 array; equal norms give equal Euler factors, so the
    products below keep their floating-point order.  Each field keeps the
    array of the largest cutoff asked in the memo of `kept_array`, as
    "norms", and a smaller cutoff takes a prefix of it.
    """
    norms = kept_array((field.cache_key(), "norms"), cutoff,
                       lambda reach: _prime_ideals(field, int(reach))[0])
    return norms[: int(np.searchsorted(norms, cutoff, side="right"))]


def _euler_value(norms: list[float], s: float) -> float:
    """The Euler product over `norms` at s; at least 1, and falling as s grows."""
    log_value = 0.0
    for n in norms:
        log_value -= math.log1p(-n ** (-s))
    return math.exp(log_value)


def _log_tail(degree: int, cutoff: int, s: float) -> float:
    """The log of one plus the relative tail bound of the Euler product."""
    return _prime_ideal_norm_tail(degree, cutoff, s) / (1.0 - 2.0 ** (-s))


def _tail(value: float, log_tail: float) -> float:
    """The tail bound value * (exp(log_tail) - 1), or inf past every float."""
    try:
        return value * math.expm1(log_tail)
    except OverflowError:
        return math.inf


def _least_bounded_s(norms: list[float], degree: int, cutoff: int, s: float) -> float:
    """The least float s' > s whose tail bound is finite at this cutoff, for
    an s whose bound is not; the bound falls as s grows.

    A bisection on the bound, with the product computed at every step, so
    every step decides as the product itself would.
    """
    def finite(t: float) -> bool:
        return math.isfinite(_tail(_euler_value(norms, t), _log_tail(degree, cutoff, t)))

    lo, hi = s, 1.0 + 2.0 * (s - 1.0)
    while not finite(hi):
        lo, hi = hi, 1.0 + 2.0 * (hi - 1.0)
    while True:  # bisect until lo and hi are adjacent floats
        mid = lo + (hi - lo) / 2.0
        if not lo < mid < hi:
            return hi
        if finite(mid):
            hi = mid
        else:
            lo = mid


def dedekind_zeta(field: FieldSpec, s: float, cutoff: int = PRIME_CUTOFF) -> AnalyticValue:
    """zeta_F(s) for real s > 1 by truncated Euler product over the prime
    ideals of norm <= cutoff.

    Near s = 1 the tail bound exceeds every float, and such an s is refused
    with the least s that this cutoff answers (about 1.0028 over Q and 1.0054
    over quadratic fields at the default cutoff).
    """
    if s <= 1 + 1e-3:
        raise ValueError("s must exceed 1 + 1e-3 (pole at s = 1)")
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    norms = _prime_ideal_norms(field, cutoff).astype(np.float64).tolist()
    value = _euler_value(norms, s)
    log_tail = _log_tail(field.degree, cutoff, s)
    tail = _tail(value, log_tail)
    if not math.isfinite(tail):  # s close to 1: the bound exceeds every float
        least = _least_bounded_s(norms, field.degree, cutoff, s)
        raise ValueError(f"no finite tail bound for zeta_F at s = {s:g} with prime cutoff "
                         f"{cutoff}: the relative bound exp({log_tail:.4g}) - 1 overflows; "
                         f"s >= {least!r} answers at this cutoff")
    return AnalyticValue(value=value, tail_bound=tail, method="euler-product")


def dedekind_zeta_series(field: FieldSpec, s: float) -> AnalyticValue:
    """zeta_F(s) by the coefficient series sum_{n <= N0} a_F(n) n^-s, a second
    route to `dedekind_zeta`.  Outside the tests only perfbench/record_golden.py
    calls it, to cross-check the recorded zeta values; it joins the test
    oracles in tests/_oracles.py once that script reads it from there."""
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


def residue_c_F(field: FieldSpec) -> AnalyticValue:
    """Residue of zeta_F at s = 1: exactly 1 for the rationals, L(1, chi_D) for
    quadratic fields (zeta_F = zeta * L(., chi_D)), by the class number formula
    over one period of chi_D.

    The sums read `_BLOCK` residues at a time, so past the character, whose
    `_chi_array` checks its own 3 bytes per residue, they hold under 2 MiB
    whatever |D| (1.5-1.8 MiB traced at |D| near 10^6 and 10^7).
    The tests cross-check it against L(1, chi_D) by a character sum.
    """
    if field.table is not None:
        raise ValueError("c_F is not available for explicit-table fields")
    if field.degree == 1:
        return AnalyticValue(value=1.0, tail_bound=0.0, method="exact")
    if field.disc < 0:
        return _odd_L1(field.disc)
    return _even_L1(field.disc)


# unit roundoff: one correctly rounded float operation errs by at most this
# relative amount
_U = 2.0**-53
# numpy's float64 sin and log are taken to err by at most this many units in
# the last place (each unit at most 2 _U relative)
_LIBM_ULPS = 4
_BLOCK = 2**16


def _odd_L1(D: int) -> AnalyticValue:
    """L(1, chi_D) = -pi |D|^(-3/2) sum_{a<|D|} chi(a) a for D < 0.

    The sum is an exact integer: each block adds start * sum(chi) and
    sum(chi(a) (a - start)), whose int64 terms stay below _BLOCK^2.  The value
    then takes six roundings (pi, the sum, the square root, two products and
    the quotient), each within _U relative.
    """
    mod = abs(D)
    chi = _chi_array(D)
    offsets = np.arange(min(_BLOCK, mod), dtype=np.int64)
    total = 0
    for start in range(0, mod, _BLOCK):
        block = chi[start:start + _BLOCK].astype(np.int64)
        total += start * int(block.sum()) + int(np.dot(block, offsets[:len(block)]))
    value = -math.pi * total / (mod * math.sqrt(mod))
    return AnalyticValue(value=value, tail_bound=8 * _U * abs(value),
                         method="class-number-formula")


def _even_L1(D: int) -> AnalyticValue:
    """L(1, chi_D) = -2 D^(-1/2) sum_{a<D/2} chi(a) log sin(pi a / D) for D > 0.

    chi_D is even, so the terms for a and D - a are equal and only the half
    period is summed, where sin(pi a / D) is well conditioned.  Per term, the
    argument a * (pi / D) errs by 3 _U relative, and so does its sine (the
    condition number t cot t is at most 1) before the sine's own units; the
    log adds that relative error, plus its own units times |log sin|.  Each
    block and the block total are summed by math.fsum, within _U of the sum
    of |terms| each, and the factor 2 / sqrt(D) takes three more roundings.
    """
    chi = _chi_array(D)
    stop = (D + 1) // 2  # a < D/2; a = D/2 is even, so chi(a) = 0
    partials, terms, size = [], 0, 0.0
    for start in range(1, stop, _BLOCK):
        a = np.flatnonzero(chi[start:min(start + _BLOCK, stop)]) + start
        logs = np.log(np.sin(a * (math.pi / D)))  # all <= 0
        partials.append(math.fsum(np.where(chi[a] > 0, logs, -logs).tolist()))
        terms += len(a)
        size -= float(logs.sum())  # the sum of |log sin|
    scale = 2.0 / math.sqrt(D)
    value = -scale * math.fsum(partials)
    sine = 3 + 2 * _LIBM_ULPS  # the sine's relative error, in units of _U
    sum_error = _U * (1.01 * sine * terms + (2 * _LIBM_ULPS + 2) * size)
    return AnalyticValue(value=value, tail_bound=1.01 * (scale * sum_error + 3 * _U * abs(value)),
                         method="class-number-formula")


def _density_factors(norms: np.ndarray, k: int) -> np.ndarray:
    """The Euler factors 1 - (N-1) / (N (N^k - 1)) at these norms, as float64."""
    n = norms.astype(np.float64)
    return 1.0 - (n - 1.0) / (n * (n**k - 1.0))


def mobius_density_constant(field: FieldSpec, k: int) -> AnalyticValue:
    """The absolutely convergent ideal sum  sum_A mu_1(A) J_1(A) / (J_k(A) N(A)),
    as an Euler product over prime ideals.

    The summand is multiplicative and supported on squarefree ideals, so the
    per-prime factor is 1 - (N-1) / (N (N^k - 1)); every factor lies in (0, 1].
    A factor with N^k >= 2^61 has a term below 2^-60 and rounds to exactly
    1.0, so it is skipped without forming N^k, which could overflow.  The
    factors are float64 arrays, each element rounded as the scalar expression
    is, and `np.multiply.accumulate` multiplies them one after another in
    norm order, so the product keeps the bits of a loop over the norms.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    norms = _prime_ideal_norms(field, PRIME_CUTOFF)
    # N^k >= 2^61 exactly when N >= 2^ceil(61/k); norms ascend
    stop = int(np.searchsorted(norms, 2 ** -(-61 // k)))
    value = float(np.multiply.accumulate(_density_factors(norms[:stop], k))[-1]) if stop else 1.0
    log_tail = 2.0 * _prime_ideal_norm_tail(field.degree, PRIME_CUTOFF, float(k))
    return AnalyticValue(value=value, tail_bound=value * math.expm1(log_tail),
                         method="euler-product")

