import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_sieve import FIELDS

from idealfunc import _sieve
from idealfunc.field import PrimeIdealLabel, _chi_array
from idealfunc.ideals import (
    UNIT,
    IdealFactorization,
    coprime,
    divisors,
    enumerate_ideals,
    format_ideal,
    from_factors,
    ideal_count,
    ideals_of_norm,
    power,
    quotient,
)

from _oracles import divides, multiply

P2 = PrimeIdealLabel(2, 1, 0)
P3 = PrimeIdealLabel(3, 1, 0)
P5a = PrimeIdealLabel(5, 1, 0)


def ideal(*pairs):
    return from_factors([(lab, e) for lab, e in pairs])


def test_multiply_identity_and_powers():
    A = ideal((P2, 1), (P3, 2))
    assert multiply(UNIT, A) == A
    two, four, eight = (IdealFactorization(((P2, e),)) for e in (1, 2, 3))
    assert multiply(four, two) == eight
    B = multiply(ideal((P2, 1), (P3, 1)), ideal((P2, 1), (P5a, 1)))
    assert B == ideal((P2, 2), (P3, 1), (P5a, 1))
    assert B.norm == 4 * 3 * 5


def test_divides_quotient_coprime():
    assert divides(UNIT, ideal((P2, 1)))
    two, four, eight = (IdealFactorization(((P2, e),)) for e in (1, 2, 3))
    assert not divides(four, two)
    assert divides(ideal((P2, 1), (P3, 1)), ideal((P2, 2), (P3, 3)))
    assert quotient(ideal((P2, 3)), UNIT) == ideal((P2, 3))
    assert quotient(eight, two) == four
    with pytest.raises(ValueError):
        quotient(two, IdealFactorization(((P3, 1),)))
    assert coprime(UNIT, ideal((P2, 1)))
    assert not coprime(two, four)
    assert coprime(IdealFactorization(((P2, 1),)), IdealFactorization(((P3, 1),)))


def test_divisors():
    assert divisors(UNIT) == [UNIT]
    assert [D.norm for D in divisors(IdealFactorization(((P2, 2),)))] == [1, 2, 4]
    assert len(divisors(ideal((P2, 2), (P3, 1)))) == 6


def test_norm_overflow_rejected():
    with pytest.raises(OverflowError):
        IdealFactorization(((P2, 80),))


def test_enumerate_rational(rational):
    ideals = list(enumerate_ideals(rational, 10))
    assert len(ideals) == 10
    assert [A.norm for A in ideals] == list(range(1, 11))


def test_enumerate_gaussian(gaussian):
    ideals = list(enumerate_ideals(gaussian, 10))
    assert [A.norm for A in ideals] == [1, 2, 4, 5, 5, 8, 9, 10, 10]


def test_enumerate_unit_only(any_field):
    assert list(enumerate_ideals(any_field, 1)) == [UNIT]
    assert list(enumerate_ideals(any_field, 0.5)) == []


def test_enumerate_is_deterministic(gaussian):
    a = [format_ideal(A) for A in enumerate_ideals(gaussian, 300)]
    b = [format_ideal(A) for A in enumerate_ideals(gaussian, 300)]
    assert a == b


def gaussian_norm_counts(limit):
    """Oracle: ideals of Z[i] of norm n correspond to lattice points on
    x^2 + y^2 = n up to the four units."""
    r2 = Counter()
    bound = math.isqrt(limit)
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            n = a * a + b * b
            if 1 <= n <= limit:
                r2[n] += 1
    return {n: c // 4 for n, c in r2.items()}


def test_gaussian_counts_match_lattice_oracle(gaussian):
    limit = 2000
    oracle = gaussian_norm_counts(limit)
    got = Counter(A.norm for A in enumerate_ideals(gaussian, limit))
    del got[1]
    assert dict(got) == {n: c for n, c in oracle.items() if c and n > 1}


def test_coefficient_divisor_sum_identity(any_field):
    if any_field.degree == 1:
        pytest.skip("degree 1")
    n0 = 10_000
    coeff = _sieve.coefficient_array(any_field, "count", 0, n0)
    div_sum = np.zeros(n0 + 1, dtype=np.int64)
    table = _chi_array(any_field.disc)
    for m in range(1, n0 + 1):
        c = table[m % abs(any_field.disc)]
        if c:
            div_sum[m::m] += c
    assert np.array_equal(coeff[1:], div_sum[1:])


def test_ideal_count_matches_enumeration(any_field):
    for X in (1, 10, 100, 1000, 4000):
        assert ideal_count(any_field, X) == sum(1 for _ in enumerate_ideals(any_field, X))
    assert ideal_count(any_field, 0.5) == 0


def test_ideals_of_norm_match_enumeration():
    nmax = 3000
    for spec, field in FIELDS.items():
        by_norm = [[] for _ in range(nmax + 1)]
        for A in enumerate_ideals(field, nmax):
            by_norm[A.norm].append(A)
        for n in range(1, nmax + 1):
            assert ideals_of_norm(field, n) == by_norm[n], (spec, n)


def test_ideal_count_rational(rational):
    assert ideal_count(rational, 1000) == 1000
    assert ideal_count(rational, 1000.7) == 1000


def count_coprime(field, X, A):
    """The number of ideals C with norm <= X and (C, A) = 1, literally."""
    return sum(1 for C in enumerate_ideals(field, X) if coprime(C, A))


def test_ideal_count_coprime(rational, gaussian):
    two = IdealFactorization(((P2, 1),))
    assert count_coprime(rational, 10, two) == 5
    assert count_coprime(rational, 10, UNIT) == ideal_count(rational, 10)
    ram2 = IdealFactorization(((PrimeIdealLabel(2, 1, 0), 1),))
    # ideals of Z[i] with norm <= 10 coprime to the ramified prime above 2:
    # norms 1, 5, 5, 9
    assert count_coprime(gaussian, 10, ram2) == 4


def test_ideal_count_coprime_inclusion_exclusion(any_field):
    from idealfunc.arith import mu_1

    for A in enumerate_ideals(any_field, 30):
        for X in (50, 500):
            direct = count_coprime(any_field, X, A)
            formula = sum(mu_1(E) * ideal_count(any_field, X / E.norm)
                          for E in divisors(A))
            assert direct == formula


LABELS = [
    PrimeIdealLabel(2, 1, 0),
    PrimeIdealLabel(3, 1, 0),
    PrimeIdealLabel(5, 1, 0),
    PrimeIdealLabel(5, 1, 1),
    PrimeIdealLabel(7, 2, 0),
]

ideal_strategy = st.dictionaries(
    st.sampled_from(LABELS), st.integers(min_value=1, max_value=2), max_size=3
).map(lambda d: from_factors(d.items()))


@settings(max_examples=200, deadline=None)
@given(A=ideal_strategy, B=ideal_strategy)
def test_multiply_quotient_roundtrip(A, B):
    AB = multiply(A, B)
    assert AB.norm == A.norm * B.norm
    assert divides(A, AB) and divides(B, AB)
    assert quotient(AB, A) == B


@settings(max_examples=100, deadline=None)
@given(A=ideal_strategy)
def test_divisor_count_and_power(A):
    ds = divisors(A)
    expected = 1
    for _lab, e in A.factors:
        expected *= e + 1
    assert len(ds) == expected
    assert all(divides(D, A) for D in ds)
    assert power(A, 2) == multiply(A, A)
