"""The coefficient sieve against pointwise evaluation over enumerated ideals."""

from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from idealfunc._sieve import coefficient_array
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
