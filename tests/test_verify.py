"""The brute-force suites must still catch a function that breaks an identity."""

from idealfunc import arith, verify
from idealfunc.field import make_quadratic_field
from idealfunc.ideals import enumerate_ideals


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
