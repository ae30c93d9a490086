"""The brute-force suites must still catch a function that breaks an identity."""

import pytest

from idealfunc import arith, verify
from idealfunc.field import make_quadratic_field, primes_with_norm_up_to
from idealfunc.ideals import enumerate_ideals, ideals_of_norm, multiply, power


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
