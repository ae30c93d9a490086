"""Brute-force verification suites for the exact identities.

Each check exhaustively tests one identity over every ideal of norm up to a
bound and returns a CheckResult; the CLI `verify` subcommand and the test
suite both drive these.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import _sieve
from .arith import (
    delta,
    jordan_totient,
    lambda_k,
    mu_1,
    mu_k,
    q_k,
)
from .field import FieldSpec
from .ideals import (
    IdealFactorization,
    coprime,
    divisors,
    enumerate_ideals,
    format_ideal,
    ideal_count,
    multiply,
    power,
    quotient,
)
from .summatory import qfree_count_fast_array

__all__ = ["CheckResult", "identity_suite", "counting_suite", "SUITES"]


@dataclass
class CheckResult:
    name: str
    tested: int = 0
    failures: list[str] = dc_field(default_factory=list)
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, msg: str) -> None:
        if len(self.failures) < 10:
            self.failures.append(msg)
        else:
            self.failures.append("...")

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        extra = f" ({self.note})" if self.note else ""
        out = f"{status} {self.name}  tested={self.tested}{extra}"
        if not self.ok:
            out += "  first failure: " + self.failures[0]
        return out


def _kth_power_divisors(A: IdealFactorization, k: int) -> list[IdealFactorization]:
    """All D with D**k | A, i.e. the divisors of the exponent-floor root."""
    root = tuple((lab, e // k) for lab, e in A.factors if e >= k)
    return divisors(IdealFactorization(root))


# no prime-ideal exponent of a norm <= 2^62 reaches an order above 62, so
# larger orders repeat the checks of smaller ones
KMAX_LIMIT = 64


def _check_kmax(kmax: int) -> None:
    if not 1 <= kmax <= KMAX_LIMIT:
        raise ValueError(f"kmax must lie in [1, {KMAX_LIMIT}]")


def identity_suite(field: FieldSpec, xmax: int = 5000, kmax: int = 4,
                   corr_x: int = 200) -> list[CheckResult]:
    """Exact-identity checks over every ideal of norm <= xmax.

    corr_x is the summation cutoff used when checking the correlation sum
    against its coprime k-free count (quantified over all A <= xmax).
    """
    _check_kmax(kmax)
    ideals = list(enumerate_ideals(field, xmax))
    results: list[CheckResult] = []

    for k in range(1, kmax + 1):
        r = CheckResult(f"|mu_{k}(A)| = sum of mu_1(D) over D^{k + 1} | A  [{field.label}]")
        for A in ideals:
            rhs = sum(mu_1(D) for D in _kth_power_divisors(A, k + 1))
            if abs(mu_k(k, A)) != rhs:
                r.fail(format_ideal(A))
            r.tested += 1
        results.append(r)

    for k in range(2, kmax + 1):
        r = CheckResult(f"(q_{k} * lambda_{k - 1})(A) = delta(A)  [{field.label}]")
        for A in ideals:
            conv = sum(q_k(k, D) * lambda_k(k - 1, quotient(A, D)) for D in divisors(A))
            if conv != delta(A):
                r.fail(format_ideal(A))
            r.tested += 1
        results.append(r)

    for k in range(2, kmax + 1):
        r = CheckResult(
            f"mu_{k}(A) = sum mu_{k - 1}(A/D^{k}) mu_{k - 1}(A/D) over D^{k} | A  [{field.label}]")
        for A in ideals:
            rhs = sum(
                mu_k(k - 1, quotient(A, power(D, k))) * mu_k(k - 1, quotient(A, D))
                for D in _kth_power_divisors(A, k)
            )
            if mu_k(k, A) != rhs:
                r.fail(format_ideal(A))
            r.tested += 1
        results.append(r)

    for k in range(1, kmax + 1):
        r = CheckResult(
            f"lambda_{k}(A) = sum mu_1(A/D^{k + 1}) over D^{k + 1} | A  [{field.label}]")
        for A in ideals:
            rhs = sum(mu_1(quotient(A, power(D, k + 1)))
                      for D in _kth_power_divisors(A, k + 1))
            if lambda_k(k, A) != rhs:
                r.fail(format_ideal(A))
            r.tested += 1
        results.append(r)

    for k in range(1, kmax + 1):
        r = CheckResult(f"mu_{k}(A^{k}) = mu_1(A)  [{field.label}]")
        for A in ideals:
            if mu_k(k, power(A, k)) != mu_1(A):
                r.fail(format_ideal(A))
            r.tested += 1
        results.append(r)

    results.append(_totient_fraction_check(field, ideals))

    for k in range(2, kmax + 1):
        results.append(_correlation_check(field, k, ideals, corr_x))

    results.append(_multiplicativity_check(field, ideals, kmax))
    return results


def _totient_fraction_check(field: FieldSpec, ideals: list[IdealFactorization]) -> CheckResult:
    r = CheckResult(f"sum mu_1(E)/N(E) over E | A = J_1(A)/N(A)  [{field.label}]")
    for A in ideals:
        lhs = sum(Fraction(mu_1(E), E.norm) for E in divisors(A))
        if lhs != Fraction(jordan_totient(1, A), A.norm):
            r.fail(format_ideal(A))
        r.tested += 1
    return r


def _correlation_check(field: FieldSpec, k: int,
                       ideals: list[IdealFactorization], corr_x: int) -> CheckResult:
    """sum_{N(B)<=x} mu_{k-1}(B) mu_{k-1}(A^{k-1} B) = mu_1(A) #{B k-free, (A,B)=1}.

    The left side is evaluated literally (merged factorizations), the right
    by counting; both over the same stream of B.
    """
    r = CheckResult(
        f"correlation sum vs signed coprime {k}-free count, x={corr_x}  [{field.label}]")
    k1 = k - 1
    free = []  # label sets of the k-free B, for the coprime count
    signed = []  # (exponents, mu_{k-1}(B)) of the B with mu_{k-1}(B) != 0
    for B in enumerate_ideals(field, corr_x):
        exps = B.exponents()
        if q_k(k, B):
            free.append(exps.keys())
        mb = mu_k(k1, B)
        if mb:
            signed.append((exps, mb))
    for A in ideals:
        ap = {lab: k1 * e for lab, e in A.factors}
        mu1_A = mu_1(A)
        count = sum(map(ap.keys().isdisjoint, free))
        lhs = 0
        for bexps, mb in signed:
            # literal mu_{k-1}(A^{k-1} B) on the merged exponent vector
            v = 1
            for lab, e in bexps.items():
                t = e + ap.get(lab, 0)
                if t > k1:
                    v = 0
                    break
                if t == k1:
                    v = -v
            if v:
                for lab, e in ap.items():
                    if lab not in bexps:
                        if e > k1:
                            v = 0
                            break
                        if e == k1:
                            v = -v
            lhs += mb * v
        if lhs != mu1_A * count:
            r.fail(f"A={format_ideal(A)} lhs={lhs} rhs={mu1_A * count}")
        r.tested += 1
    return r


def _multiplicativity_check(field: FieldSpec, ideals: list[IdealFactorization],
                            kmax: int) -> CheckResult:
    r = CheckResult(f"f(AB) = f(A) f(B) for coprime A, B  [{field.label}]")
    small = [A for A in ideals if A.norm <= 200]
    orders = range(1, kmax + 1)
    # (mu_k, lambda_k, J_k, q_k) of each ideal once per order; f(AB) per pair
    values = [[(mu_k(k, A), lambda_k(k, A), jordan_totient(k, A),
                q_k(k, A) if k >= 2 else None) for k in orders] for A in small]
    pairs = 0
    for i, A in enumerate(small):
        for j, B in enumerate(small[i:], i):
            if A.norm * B.norm > 5000 or not coprime(A, B):
                continue
            AB = multiply(A, B)
            for k, (mu_a, lam_a, j_a, q_a), (mu_b, lam_b, j_b, q_b) in zip(
                    orders, values[i], values[j]):
                if mu_k(k, AB) != mu_a * mu_b:
                    r.fail(f"mu_{k}: {format_ideal(A)},{format_ideal(B)}")
                if lambda_k(k, AB) != lam_a * lam_b:
                    r.fail(f"lambda_{k}: {format_ideal(A)},{format_ideal(B)}")
                if jordan_totient(k, AB) != j_a * j_b:
                    r.fail(f"J_{k}: {format_ideal(A)},{format_ideal(B)}")
                if k >= 2 and q_k(k, AB) != q_a * q_b:
                    r.fail(f"q_{k}: {format_ideal(A)},{format_ideal(B)}")
            pairs += 1
            if pairs >= 3000:
                r.tested = pairs
                return r
    r.tested = pairs
    return r


def counting_suite(field: FieldSpec, xmax: int = 10_000, kmax: int = 4) -> list[CheckResult]:
    """Counting and inversion checks: enumeration vs sieve, coefficient
    identity, coprime counting, and the exact k-free inversion formula."""
    _check_kmax(kmax)
    results: list[CheckResult] = []

    r = CheckResult(f"enumerate_ideals size = ideal_count  [{field.label}]")
    grid = sorted({1, 10, 100, 1000, xmax})
    _sieve.cumulative_array(field, "count", 0, xmax)
    for X in grid:
        if sum(1 for _ in enumerate_ideals(field, X)) != ideal_count(field, X):
            r.fail(f"X={X}")
        r.tested += 1
    results.append(r)

    if field.degree == 2 and field.prime_table is None:
        n0 = min(xmax, 10_000)
        r = CheckResult(f"#(norm n) = sum of chi_D over divisors of n, n <= {n0}  [{field.label}]")
        coeff = _sieve.coefficient_array(field, "count", 0, n0)
        div_sum = np.zeros(n0 + 1, dtype=np.int64)
        for m in range(1, n0 + 1):
            c = field.chi(m)
            if c:
                div_sum[m::m] += c
        bad = np.nonzero(coeff[1:] != div_sum[1:])[0]
        if bad.size:
            r.fail(f"n={bad[0] + 1}")
        r.tested = n0
        results.append(r)

    r = CheckResult(f"coprime count = sum mu_1(E) [X/N(E)]_F over E | A  [{field.label}]")
    small = [A for A in enumerate_ideals(field, 200)]
    for X in (100, 1000, min(xmax, 10_000)):
        stream = [{lab for lab, _ in C.factors} for C in enumerate_ideals(field, X)]
        for A in small:
            direct = sum(map(A.exponents().keys().isdisjoint, stream))
            via_formula = sum(mu_1(E) * ideal_count(field, X / E.norm)
                              for E in divisors(A))
            if direct != via_formula:
                r.fail(f"A={format_ideal(A)} X={X}")
            r.tested += 1
    results.append(r)

    for k in range(2, min(kmax, 3) + 1):
        r = CheckResult(
            f"k-free inversion formula exact for every x <= {xmax}, k={k}  [{field.label}]")
        direct = np.cumsum(_sieve.coefficient_array(field, "kfree", k, xmax))
        fast = qfree_count_fast_array(field, k, xmax)
        bad = np.nonzero(direct != fast)[0]
        if bad.size:
            r.fail(f"x={bad[0]}")
        r.tested = xmax
        results.append(r)

    return results


SUITES = {"identities": identity_suite, "counting": counting_suite}
