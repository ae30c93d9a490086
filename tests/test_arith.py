from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealfunc._sieve import coefficient_array
from idealfunc.arith import (
    delta,
    dirichlet_convolve,
    dirichlet_inverse,
    jordan_totient,
    lambda_k,
    mu_1,
    mu_k,
    q_k,
)
from idealfunc.field import PrimeIdealLabel
from idealfunc.ideals import (
    UNIT,
    IdealFactorization,
    coprime,
    divisors,
    enumerate_ideals,
    from_factors,
    power,
)

from _oracles import multiply

P2 = PrimeIdealLabel(2, 1, 0)
P3 = PrimeIdealLabel(3, 1, 0)


def one(A):
    return 1


def ideal(*pairs):
    return from_factors(list(pairs))


def big_omega(A):
    return sum(e for _lab, e in A.factors)


def test_prime_power_rules():
    for k in range(1, 5):
        for e in range(1, 10):
            v = mu_k(k, IdealFactorization(((P2, e),)))
            assert v == (1 if e < k else (-1 if e == k else 0))
            w = lambda_k(k, IdealFactorization(((P2, e),)))
            r = e % (k + 1)
            assert w == (1 if r == 0 else (-1 if r == 1 else 0))
    assert mu_k(2, UNIT) == 1
    assert lambda_k(3, UNIT) == 1


def test_mu1_is_classical_mobius(rational):
    classical = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0,
                 9: 0, 10: 1, 11: -1, 12: 0, 30: -1}
    for A in enumerate_ideals(rational, 30):
        if A.norm in classical:
            assert mu_1(A) == classical[A.norm]


def test_lambda_1_is_classical_liouville(rational):
    # order 1 reduces to the classical Liouville function (-1)^Omega(n)
    for A in enumerate_ideals(rational, 500):
        assert lambda_k(1, A) == (-1) ** big_omega(A)
    twelve = ideal((P2, 2), (P3, 1))
    assert lambda_k(1, twelve) == -1


def test_qk_is_kfree_indicator():
    assert q_k(2, IdealFactorization(((P2, 1),))) == 1
    assert q_k(2, IdealFactorization(((P2, 2),))) == 0
    assert q_k(3, ideal((P2, 2), (P3, 2))) == 1
    assert q_k(3, IdealFactorization(((P2, 3),))) == 0
    for e in range(1, 8):
        for k in range(2, 5):
            A = IdealFactorization(((P2, e),))
            assert q_k(k, A) == abs(mu_k(k - 1, A))


def test_jordan_and_sigma():
    six = ideal((P2, 1), (P3, 1))
    assert jordan_totient(1, six) == 2           # Euler phi(6)
    assert jordan_totient(2, six) == 24          # 36 * (1 - 1/4) * (1 - 1/9)
    # the divisor-norm power sums sigma_s = N^s * 1
    def sigma(s, A):
        return dirichlet_convolve(lambda D: D.norm**s, one, A)

    assert sigma(0, six) == 4                  # number of divisors
    assert sigma(1, six) == 12                 # sum of divisor norms
    assert sigma(2, IdealFactorization(((P2, 2),))) == 21  # 1 + 4 + 16
    assert sigma(0.5, six) == pytest.approx((1 + 2**0.5) * (1 + 3**0.5))
    assert delta(UNIT) == 1 and delta(six) == 0


def test_convolution_identities():
    two, eight = IdealFactorization(((P2, 1),)), IdealFactorization(((P2, 3),))
    for A in [UNIT, two, eight, ideal((P2, 2), (P3, 1))]:
        assert dirichlet_convolve(mu_1, one, A) == delta(A)


def test_kfree_convolution_gives_delta():
    # q_k * lambda_{k-1} = delta
    for k in (2, 3, 4):
        f, g = partial(q_k, k), partial(lambda_k, k - 1)
        for e in range(0, 9):
            A = UNIT if e == 0 else IdealFactorization(((P2, e),))
            assert dirichlet_convolve(f, g, A) == delta(A)
        assert dirichlet_convolve(f, g, ideal((P2, 3), (P3, 2))) == 0


def test_dirichlet_inverse():
    for A in [UNIT, IdealFactorization(((P2, 2),)), ideal((P2, 1), (P3, 1))]:
        assert dirichlet_inverse(one, A) == Fraction(mu_1(A))
    # inverse of lambda_{k-1} is q_k
    for k in (2, 3):
        f = partial(lambda_k, k - 1)
        for e in range(0, 7):
            A = UNIT if e == 0 else IdealFactorization(((P3, e),))
            assert dirichlet_inverse(f, A) == Fraction(q_k(k, A))


def test_inverse_rejects_vanishing_unit_value():
    with pytest.raises(ValueError):
        dirichlet_inverse(lambda A: 0, UNIT)


def test_mobius_inversion(rational):
    # g = f * 1 implies f = g * mu_1
    f = partial(jordan_totient, 1)
    for A in enumerate_ideals(rational, 60):
        g_of = dirichlet_convolve(f, one, A)
        assert g_of == A.norm  # J_1 * 1 = norm
        back = dirichlet_convolve(lambda D: dirichlet_convolve(f, one, D), mu_1, A)
        assert back == f(A)


def test_totient_divisor_identity(any_field):
    # sum over divisors of J_k equals N(A)^k
    for A in enumerate_ideals(any_field, 50):
        for k in (1, 2):
            assert sum(jordan_totient(k, D) for D in divisors(A)) == A.norm**k


def correlation_sum(field, k, A, x):
    """sum_{N(B) <= x} mu_{k-1}(B) mu_{k-1}(A^{k-1} B), literally over the
    ideal stream (verify._correlation_check checks it for every A)."""
    shifted = power(A, k - 1)
    return sum(mu_k(k - 1, B) * mu_k(k - 1, multiply(shifted, B))
               for B in enumerate_ideals(field, x))


def test_correlation_sum_examples(rational):
    two = IdealFactorization(((P2, 1),))
    # frozen oracle: sum over norms <= 10 of mu_1(B) mu_1(2B)
    assert correlation_sum(rational, 2, two, 10) == -4
    # A = unit: reduces to the count of k-free ideals
    from idealfunc.summatory import qfree_count

    for k in (2, 3):
        got = correlation_sum(rational, k, UNIT, 50)
        assert got == qfree_count(rational, k, 50)
    # a square factor of A^{k-1} kills every term
    assert correlation_sum(rational, 2, IdealFactorization(((P2, 2),)), 50) == 0


@settings(max_examples=150, deadline=None)
@given(e2=st.integers(0, 5), e3=st.integers(0, 5), k=st.integers(2, 4))
def test_multiplicativity(e2, e3, k):
    A = UNIT if e2 == 0 else IdealFactorization(((P2, e2),))
    B = UNIT if e3 == 0 else IdealFactorization(((P3, e3),))
    assert coprime(A, B)
    AB = multiply(A, B)
    for fn in (mu_k, lambda_k, q_k, jordan_totient):
        assert fn(k, AB) == fn(k, A) * fn(k, B)


@settings(max_examples=60, deadline=None)
@given(e=st.integers(1, 10), k=st.integers(1, 5))
def test_prime_power_value_range(e, k):
    A = IdealFactorization(((P3, e),))
    assert mu_k(k, A) in (-1, 0, 1)
    assert lambda_k(k, A) in (-1, 0, 1)
    assert q_k(k + 1, A) in (0, 1)
    assert mu_k(k, IdealFactorization(((P3, k),))) == -1


def test_prime_power_rule_matches_value(rational):
    # the sieve's local tables over Q against the pointwise value at P^e
    for k in (1, 2, 3):
        for kind, fn in (("mobius", mu_k), ("liouville", lambda_k), ("kfree", q_k)):
            if kind == "kfree" and k == 1:
                continue
            coeff = coefficient_array(rational, kind, k, 2**6)
            for e in range(1, 7):
                assert coeff[2**e] == fn(k, IdealFactorization(((P2, e),)))
        for e in range(1, 7):
            power_of_two = IdealFactorization(((P2, e),))
            assert jordan_totient(k, power_of_two) == 2 ** (k * e) - 2 ** (k * (e - 1))


def test_mu_of_kth_power_is_mu1(any_field):
    for A in enumerate_ideals(any_field, 30):
        for k in (2, 3):
            try:
                Ak = power(A, k)
            except OverflowError:
                continue
            assert mu_k(k, Ak) == mu_1(A)


def test_invalid_orders_rejected():
    with pytest.raises(ValueError):
        mu_k(0, UNIT)
    with pytest.raises(ValueError):
        lambda_k(-1, UNIT)
    with pytest.raises(ValueError):
        q_k(1, UNIT)
