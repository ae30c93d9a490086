"""The coefficient sieve against pointwise evaluation over enumerated ideals."""

from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from idealfunc._sieve import _local_table, coefficient_array
from idealfunc.arith import lambda_k, mu_k, q_k
from idealfunc.field import make_table_field, parse_field, primes_up_to
from idealfunc.ideals import enumerate_ideals

XMAX = 3000


def _gaussian_table():
    # Q(i): 2 ramifies, p = 1 mod 4 splits, p = 3 mod 4 stays inert
    rows = {}
    for p in primes_up_to(XMAX).tolist():
        if p == 2:
            rows[p] = [(1, 2, 1)]
        elif p % 4 == 1:
            rows[p] = [(1, 1, 2)]
        else:
            rows[p] = [(2, 1, 1)]
    return make_table_field(rows, label="table:q(i)")


FIELDS = {spec: parse_field(spec) for spec in ("q", "q:-1", "q:-5", "q:2", "q:5")}
FIELDS["table:q(i)"] = _gaussian_table()
POINTWISE = {"mobius": mu_k, "liouville": lambda_k, "kfree": q_k}
CASES = [(kind, k) for kind in POINTWISE for k in range(2 if kind == "kfree" else 1, 5)]


@settings(max_examples=100, deadline=None)
@given(spec=st.sampled_from(sorted(FIELDS)), case=st.sampled_from(CASES),
       x=st.integers(1, XMAX))
def test_sieve_matches_pointwise(spec, case, x):
    field = FIELDS[spec]
    kind, k = case
    expected = defaultdict(int)
    for A in enumerate_ideals(field, x):
        expected[A.norm] += POINTWISE[kind](k, A)
    coeff = coefficient_array(field, kind, k, x)
    assert [int(c) for c in coeff[1:]] == [expected[n] for n in range(1, x + 1)]


def test_gaussian_table_matches_quadratic():
    table, gaussian = FIELDS["table:q(i)"], FIELDS["q:-1"]
    for kind in ("count", "mobius", "liouville", "kfree", "mobius_density"):
        for k in (1, 2, 3):
            if kind == "kfree" and k == 1:
                continue
            assert np.array_equal(coefficient_array(table, kind, k, XMAX),
                                  coefficient_array(gaussian, kind, k, XMAX)), (kind, k)


# squares of primes and their neighbours, where the sqrt(x) split between
# the per-prime passes and the batched large-prime writes moves
BOUNDARY_X = (1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122, 168, 169, 170)
BOUNDARY_POINTWISE = {"count": lambda k, A: 1, **POINTWISE}


def test_sieve_matches_pointwise_at_split_boundaries():
    for spec, field in FIELDS.items():
        ideals = list(enumerate_ideals(field, max(BOUNDARY_X)))
        for kind, fn in BOUNDARY_POINTWISE.items():
            for k in (1, 2, 3):
                if kind == "kfree" and k == 1:
                    continue
                expected = [0] * (max(BOUNDARY_X) + 1)
                for A in ideals:
                    expected[A.norm] += fn(k, A)
                for x in BOUNDARY_X:
                    coeff = coefficient_array(field, kind, k, x)
                    assert coeff.tolist() == expected[: x + 1], (spec, kind, k, x)


def _per_prime_sieve(field, kind, k, xmax):
    # one pass per prime power for every prime up to xmax, in ascending order
    dtype = np.float64 if kind == "mobius_density" else np.int64
    val = np.ones(xmax + 1, dtype=dtype)
    val[0] = 0
    for p in primes_up_to(xmax).tolist():
        table = _local_table(kind, k, p, field.residue_degrees(p),
                             xmax.bit_length() // (p.bit_length() - 1))
        pa, a = p, 1
        while pa <= xmax:
            if table[a] != 1:
                idx = np.arange(pa, xmax + 1, pa)
                exact = idx[(idx // pa) % p != 0]
                if table[a] == 0:
                    val[exact] = 0
                else:
                    val[exact] *= table[a]
            pa, a = pa * p, a + 1
    return val


def test_batched_sieve_bytes_match_per_prime_sieve():
    for spec, field in FIELDS.items():
        for k in (1, 2, 3):
            for x in BOUNDARY_X + (1000, XMAX):
                for kind in ("count", "mobius", "liouville", "kfree", "mobius_density"):
                    got = coefficient_array(field, kind, k, x)
                    want = _per_prime_sieve(field, kind, k, x)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (spec, kind, k, x)


def test_mobius_density_zero_signs():
    # 37 > sqrt(1000) meets c(4) = 0.0 and multiplies it by a negative value
    coeff = coefficient_array(FIELDS["q"], "mobius_density", 1, 1000)
    assert coeff[4 * 37] == 0 and np.signbit(coeff[4 * 37])
    # 11 > sqrt(100) is inert in Z[i], so c(22) is written as 0.0, not 0.0 * c(2)
    coeff = coefficient_array(FIELDS["q:-1"], "mobius_density", 2, 100)
    assert coeff[2] < 0 and coeff[22] == 0 and not np.signbit(coeff[22])
