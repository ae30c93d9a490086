"""The brute-force suites must still catch a function that breaks an identity."""

import tracemalloc

import numpy as np
import pytest

from idealfunc import _sieve, arith, verify
from idealfunc.field import (make_quadratic_field, make_table_field, primes_up_to,
                             primes_with_norm_up_to)
from idealfunc.ideals import enumerate_ideals, ideals_of_norm, power

from _oracles import correlation_lhs_dense, multiply


def test_multiplicativity_check_catches_a_wrong_jordan_totient(monkeypatch, fresh_memos):
    field = make_quadratic_field(-1)
    ideals = list(enumerate_ideals(field, 300))
    assert verify._multiplicativity_check(field, ideals, 3).ok
    # J_k + 1 is not multiplicative: at A = 1 it gives 2 J_k(B) + 2 != J_k(B) + 1
    monkeypatch.setattr(verify, "jordan_totient",
                        lambda k, A: arith.jordan_totient(k, A) + 1)
    result = verify._multiplicativity_check(field, ideals, 3)
    assert not result.ok
    assert result.failures[0].startswith("J_1: 1,")
    assert all(line.startswith("J_") for line in result.failures if line != "...")


def test_check_result_keeps_ten_failures_and_one_ellipsis():
    r = verify.CheckResult("c")
    for i in range(25):
        r.fail(f"m{i}")
    assert r.failures == [f"m{i}" for i in range(10)] + ["..."]
    assert r.line() == "FAIL c  tested=0  first failure: m0"


# the ideal of norm 50 = 2 * 5 * 5 over q:-1 at which each function is broken
T = "2^1[1,0]*5^1[1,0]*5^1[1,1]"
S = "[q:-1]  tested=237  first failure:"
M = "f(AB) = f(A) f(B) for coprime A, B  [q:-1]  tested=3000  first failure:"
# every failing check of identity_suite(q:-1, xmax=300, kmax=3) when one
# function gives 1 - f(T) at T, recorded from the suites that evaluated every
# identity ideal by ideal on merged exponent dicts (so are the lines below)
BROKEN_AT_ONE_IDEAL = {
    "mu_k": [
        f"FAIL |mu_1(A)| = sum of mu_1(D) over D^2 | A  {S} {T}",
        f"FAIL |mu_2(A)| = sum of mu_1(D) over D^3 | A  {S} {T}",
        f"FAIL |mu_3(A)| = sum of mu_1(D) over D^4 | A  {S} {T}",
        f"FAIL mu_2(A) = sum mu_1(A/D^2) mu_1(A/D) over D^2 | A  {S} {T}",
        f"FAIL mu_1(A^1) = mu_1(A)  {S} {T}",
        f"FAIL correlation sum vs signed coprime 2-free count, x=200  {S} A=1 lhs=103 rhs=106",
        f"FAIL correlation sum vs signed coprime 3-free count, x=200  {S} A=1 lhs=135 rhs=136",
        f"FAIL {M} mu_1: 2^1[1,0],5^1[1,0]*5^1[1,1]",
    ],
    "lambda_k": [
        f"FAIL (q_2 * lambda_1)(A) = delta(A)  {S} {T}",
        f"FAIL (q_3 * lambda_2)(A) = delta(A)  {S} {T}",
        f"FAIL lambda_1(A) = sum mu_1(A/D^2) over D^2 | A  {S} {T}",
        f"FAIL lambda_2(A) = sum mu_1(A/D^3) over D^3 | A  {S} {T}",
        f"FAIL lambda_3(A) = sum mu_1(A/D^4) over D^4 | A  {S} {T}",
        f"FAIL {M} lambda_1: 2^1[1,0],5^1[1,0]*5^1[1,1]",
    ],
    "q_k": [
        f"FAIL (q_2 * lambda_1)(A) = delta(A)  {S} {T}",
        f"FAIL (q_3 * lambda_2)(A) = delta(A)  {S} {T}",
        f"FAIL correlation sum vs signed coprime 2-free count, x=200  {S} A=1 lhs=106 rhs=105",
        f"FAIL correlation sum vs signed coprime 3-free count, x=200  {S} A=1 lhs=136 rhs=135",
        f"FAIL {M} q_2: 2^1[1,0],5^1[1,0]*5^1[1,1]",
    ],
}


def failed_lines(monkeypatch, name, norm, xmax, kmax):
    """The failing checks of identity_suite over q:-1 when the arith function
    `name` gives 1 - f(A) at the first ideal A of this norm."""
    field = make_quadratic_field(-1)
    target = ideals_of_norm(field, norm)[0]
    right = getattr(arith, name)
    monkeypatch.setattr(verify, name,
                        lambda k, A: 1 - right(k, A) if A == target else right(k, A))
    return [r.line() for r in verify.identity_suite(field, xmax=xmax, kmax=kmax) if not r.ok]


@pytest.mark.parametrize("name", sorted(BROKEN_AT_ONE_IDEAL))
def test_a_function_wrong_at_one_ideal_fails_each_check_that_reads_it(
        monkeypatch, fresh_memos, name):
    assert failed_lines(monkeypatch, name, 50, 300, 3) == BROKEN_AT_ONE_IDEAL[name]


def test_correlation_sums_run_to_corr_x_past_xmax(monkeypatch, fresh_memos):
    # B runs to norm 200 although A stops at 150, so mu_1 broken at the
    # squarefree 5 * 37 of norm 185 shows in the correlation sums
    assert failed_lines(monkeypatch, "mu_k", 185, 150, 2) == [
        "FAIL correlation sum vs signed coprime 2-free count, x=200  [q:-1]  tested=120"
        "  first failure: A=1 lhs=105 rhs=106",
        "FAIL f(AB) = f(A) f(B) for coprime A, B  [q:-1]  tested=2604"
        "  first failure: mu_1: 5^1[1,0],37^1[1,0]",
    ]


@pytest.mark.parametrize("collide", [False, True])
def test_layout_finds_each_product_by_its_exact_key(monkeypatch, any_field, collide):
    if collide:  # the first weights give every ideal of a norm the same key
        weights = verify._weights
        monkeypatch.setattr(verify, "_weights",
                            lambda n, salt, bits: weights(n, salt, bits) * (salt > 0))
    ideals = list(enumerate_ideals(any_field, 300))
    lay = verify._Layout(ideals, primes_with_norm_up_to(any_field, 300))
    for m in (1, 2, 3):
        found = sorted((d, c, a) for ds, cs in lay.pairs(m)
                       for d, c, a in zip(ds.tolist(), cs.tolist(), lay.row_of(ds, cs, m).tolist()))
        # the loop version: every pair (D, C) with N(D^m C) <= 300, multiplied out
        assert [(d, c) for d, c, _ in found] == [
            (d, c) for d, D in enumerate(ideals) for c, C in enumerate(ideals)
            if D.norm**m * C.norm <= 300]
        assert all(ideals[a] == multiply(power(ideals[d], m), ideals[c]) for d, c, a in found)


def _six_split(limit=200):
    """A degree-6 table field with six prime ideals of degree 1 above every
    prime up to limit: about 46,000 ideals of norm <= 200, with up to seven
    prime ideals each."""
    return make_table_field({p: [(1, 1, 6)] for p in primes_up_to(limit).tolist()},
                            label="table:six-split")


def _correlation_lhs_both(field, xa, xb, m, table=None):
    """_correlation_lhs and its dense oracle, for A of norm <= xa and B of
    norm <= xb, as the correlation checks lay them out, with mb = mu_m(B);
    f is mu_m, or the function with these local values."""
    lay = verify._Layout(list(enumerate_ideals(field, xa)),
                         primes_with_norm_up_to(field, max(xa, xb)))
    bs = verify._Layout(list(enumerate_ideals(field, xb)), lay.labels)
    width = sum(lab.norm <= xb for lab in lay.labels)
    mb = verify._values(arith.mu_k, bs.ideals, m)
    if table is None:
        top = m * int(lay.exps.max()) + int(bs.exps.max())
        table = np.array([_sieve._mobius(e, m) for e in range(top + 1)], dtype=np.int8)
    return (verify._correlation_lhs(lay, bs, width, mb, m, table),
            correlation_lhs_dense(lay, bs, width, mb, m, table))


# local values with no zero: mu_{k-1}(A^{k-1} B) is 0 wherever A and B share a
# prime ideal, so these also reach the slots of A that B shares
NO_ZERO = np.array([1, -2, 3, -1, 2, 5, -3, 1, 4, -5, 2, 3, -1, 2, -2, 1] * 4, dtype=np.int64)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_correlation_lhs_matches_the_dense_oracle(any_field, k):
    # A past B's columns, as at xmax > 200, takes the factor of A alone
    for table in (None, NO_ZERO):
        got, want = _correlation_lhs_both(any_field, 300, verify._CORR_X, k - 1, table)
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_correlation_lhs_matches_the_dense_oracle_on_wide_rows(k):
    # B of norm <= 16 has up to four prime ideals, and A of norm <= 32 up to
    # five and reaches past B's columns; the dense oracle over B to norm 200
    # would take seconds
    for table in (None, NO_ZERO):
        got, want = _correlation_lhs_both(_six_split(), 32, 16, k - 1, table)
        assert got.tolist() == want.tolist()


def test_identity_suite_passes_on_a_six_split_table():
    # about 46,000 ideals B of norm <= 200 in every correlation check
    results = verify.identity_suite(_six_split(), xmax=4, kmax=3)
    assert [r.line() for r in results if not r.ok] == []
    assert len(results) == 17


@pytest.mark.parametrize("xmax,products,norm_sum", [(30, 2612, 79_087), (50, 3000, 82_829)])
def test_multiplicativity_check_stops_at_its_3000_pairs(monkeypatch, xmax, products, norm_sum):
    # over the six-split table every pair i <= j of the 1,670 (4,316) ideals
    # of norm <= 30 (50) has N(A) N(B) <= 5000; the check takes the first
    # 3000 coprime ones in (i, j) order, and the distinct products AB it
    # evaluates are those of a check that built every pair first: their count
    # and norm sum are pinned from it, which held 197 MB (1,447 MB) at its peak
    field = _six_split()
    ideals = list(enumerate_ideals(field, xmax))
    small = sum(A.norm <= 200 for A in ideals)
    seen = []

    def recording(k, A):
        if k == 1:
            seen.append(A.norm)
        return arith.mu_k(k, A)

    monkeypatch.setattr(verify, "mu_k", recording)
    tracemalloc.start()
    try:
        result = verify._multiplicativity_check(field, ideals, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.line() == f"ok   f(AB) = f(A) f(B) for coprime A, B  [{field.label}]  tested=3000"
    assert (len(seen) - small, sum(seen[small:])) == (products, norm_sum)
    assert peak < 32 * 2**20
