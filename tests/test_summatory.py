import math

import numpy as np
import pytest

from idealfunc.field import primes_up_to
from idealfunc.ideals import ideal_count
from idealfunc.summatory import (
    CSV_HEADER,
    SummatoryReport,
    integer_kth_root,
    kfree_report,
    liouville_reports,
    liouville_sum_k,
    mertens_k,
    mobius_report,
    qfree_count,
    qfree_count_fast,
    qfree_count_fast_array,
    remainder_R,
    sweep,
)


def classical_mobius_sieve(n):
    mu = np.ones(n + 1, dtype=np.int64)
    for p in primes_up_to(n):
        mu[p::p] *= -1
        mu[p * p:: p * p] = 0
    return mu


def classical_liouville_sieve(n):
    omega = np.zeros(n + 1, dtype=np.int64)
    rest = np.arange(n + 1, dtype=np.int64)
    for p in primes_up_to(n):
        q = p
        while q <= n:
            omega[q::q] += 1
            rest[q::q] //= p
            q *= p
    return np.where(np.arange(n + 1) >= 1, (-1) ** (omega % 2), 0)


def test_mertens_examples(rational, gaussian):
    assert mertens_k(rational, 1, 10) == -1    # classical M(10)
    assert mertens_k(rational, 1, 100) == 1
    assert mertens_k(rational, 2, 10) == 5
    assert mertens_k(gaussian, 1, 1) == 1


def test_mertens_matches_integer_sieve_oracle(rational):
    n = 10_000
    mu = classical_mobius_sieve(n)
    cum = np.cumsum(mu[1:])
    for x in (1, 2, 10, 97, 1000, 9999, 10_000):
        assert mertens_k(rational, 1, x) == cum[x - 1]


def test_liouville_matches_omega_sieve_oracle(rational):
    n = 10_000
    lam = classical_liouville_sieve(n)
    cum = np.cumsum(lam[1:])
    for x in (1, 2, 10, 100, 1234, 10_000):
        assert liouville_sum_k(rational, 1, x) == cum[x - 1]


def test_qfree_classical_anchor(rational):
    # 61 squarefree integers up to 100
    assert qfree_count(rational, 2, 100) == 61
    assert qfree_count_fast(rational, 2, 100) == 61
    # density of squarefree integers is 6/pi^2
    got = qfree_count_fast(rational, 2, 10**6) / 10**6
    assert got == pytest.approx(6 / math.pi**2, rel=1e-3)


def test_qfree_fast_equals_direct(any_field):
    for k in (2, 3):
        for x in (1, 10, 100, 1000, 5000):
            assert qfree_count_fast(any_field, k, x) == qfree_count(any_field, k, x)


def test_qfree_fast_array(any_field):
    for k in (2, 3):
        arr = qfree_count_fast_array(any_field, k, 2000)
        for x in (1, 7, 100, 1999, 2000):
            assert int(arr[x]) == qfree_count(any_field, k, x)


def test_qfree_monotone_in_k(any_field):
    # every k-free ideal is (k+1)-free
    for x in (100, 1000):
        q2 = qfree_count(any_field, 2, x)
        q3 = qfree_count(any_field, 3, x)
        q4 = qfree_count(any_field, 4, x)
        assert q2 <= q3 <= q4 <= ideal_count(any_field, x)


def test_mertens_bounded_by_count(any_field):
    for k in (1, 2, 3):
        for x in (10, 100, 1000):
            assert abs(mertens_k(any_field, k, x)) <= ideal_count(any_field, x)
            assert abs(liouville_sum_k(any_field, k, x)) <= ideal_count(any_field, x)


def test_integer_kth_root():
    assert integer_kth_root(0, 2) == 0
    assert integer_kth_root(1, 5) == 1
    assert integer_kth_root(10**12, 2) == 10**6
    assert integer_kth_root(10**12 - 1, 2) == 10**6 - 1
    assert integer_kth_root(2**60, 3) == 2**20
    for n in range(100):
        r = integer_kth_root(n, 3)
        assert r**3 <= n < (r + 1) ** 3
    # exact far beyond float precision, where a float first guess is off by
    # about 10^135 units
    assert integer_kth_root(10**300 - 1, 2) == 10**150 - 1
    assert integer_kth_root(10**300 + 1, 2) == 10**150
    assert integer_kth_root(10**300 - 1, 3) == 10**100 - 1
    assert integer_kth_root(10**300 + 1, 3) == 10**100
    for n in (2**997 - 1, 2**997, 3**629 + 5):
        for k in (1, 3, 4, 5, 7, 64, 996, 997, 998):
            r = integer_kth_root(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)
        assert integer_kth_root(n, 10**400) == 1
    with pytest.raises(ValueError):
        integer_kth_root(-1, 2)


def test_remainder_examples(rational, gaussian):
    # on Q the count is exactly floor(x), so R(x) = floor(x) - x
    assert remainder_R(rational, 10.0) == 0.0
    assert remainder_R(rational, 10.5) == pytest.approx(-0.5)
    # Q(i): 9 ideals of norm <= 10, c_F = pi/4
    got = remainder_R(gaussian, 10.0)
    assert got == pytest.approx(9 - 2.5 * math.pi, abs=1e-4)


def test_report_consistency(rational, gaussian):
    for field in (rational, gaussian):
        for k in (2, 3):
            rep = mobius_report(field, k, 1000.0)
            assert rep.fn == "M" and rep.k == k and rep.field == field.label
            assert rep.remainder == rep.raw - rep.main
            assert rep.normalized == pytest.approx(
                rep.remainder / (1000.0 ** (1 / k) * math.log(1000.0)))
            assert rep.raw == mertens_k(field, k, 1000)

            qrep = kfree_report(field, k, 1000.0)
            assert qrep.raw == qfree_count(field, k, 1000)
            assert qrep.fn == "Q"

            la, lb = liouville_reports(field, k, 1000.0)
            assert la.raw == lb.raw == liouville_sum_k(field, k, 1000)
            assert la.main == 0.0
            assert la.normalizer == "x^0.6"
            assert la.normalized == pytest.approx(la.raw / 1000.0**0.6)
            assert lb.normalizer == "x*exp(-sqrt(log(x)))"


def test_kfree_main_term_accuracy(rational, gaussian):
    # Q_k(x) ~ c_F x / zeta_F(k): relative remainder shrinks at x = 10^6
    for field in (rational, gaussian):
        rep = kfree_report(field, 2, 10**6)
        assert abs(rep.remainder) / rep.raw < 1e-3


def test_csv_row_format():
    rep = SummatoryReport(field="q", fn="M", k=2, x=100.0, raw=5,
                          main=4.5, normalizer="x^(1/2)*log(x)")
    row = rep.csv_row()
    assert row.startswith("q,M,2,")
    assert len(row.split(",")) == len(CSV_HEADER.split(","))


def test_normalizer_tags(rational, gaussian):
    # degree/k case table for the k-free remainder normalizer
    assert kfree_report(rational, 2, 100.0).normalizer == "x^(1/2)"
    assert kfree_report(rational, 3, 100.0).normalizer == "x^(1/3)"
    assert kfree_report(gaussian, 2, 100.0).normalizer == "x^(1/2)"
    assert kfree_report(gaussian, 3, 100.0).normalizer == "x^(1/3)*log(x)"


def test_sweep(rational):
    grid = [10.0, 100.0, 1000.0]
    reports = sweep("mobius", rational, 2, grid)
    assert [r.x for r in reports] == grid
    assert [r.raw for r in reports] == [mertens_k(rational, 2, x) for x in grid]
    both = sweep("liouville", rational, 2, grid)
    assert len(both) == 2 * len(grid)
    with pytest.raises(ValueError):
        sweep("mobius", rational, 2, [10.0, 10.0])
    with pytest.raises(ValueError):
        sweep("nope", rational, 2, grid)
    assert sweep("qfree", rational, 2, []) == []


def test_invalid_arguments(rational):
    with pytest.raises(ValueError):
        mertens_k(rational, 0, 10)
    with pytest.raises(ValueError):
        qfree_count(rational, 1, 10)
    with pytest.raises(ValueError):
        mertens_k(rational, 1, 0.5)
    with pytest.raises(ValueError):
        mobius_report(rational, 1, 10.0)
