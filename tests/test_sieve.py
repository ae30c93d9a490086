"""The coefficient sieve against pointwise evaluation over enumerated ideals."""

import random
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import kronecker_symbol

from idealfunc import _sieve
from idealfunc import field as field_module
from idealfunc._sieve import _local_table, coefficient_array, cumulative_array
from idealfunc.arith import lambda_k, mu_k, q_k
from idealfunc.field import _chi_array, make_table_field, parse_field, primes_up_to
from idealfunc.ideals import enumerate_ideals

XMAX = 3000


def _gaussian_table(limit=XMAX):
    # Q(i): 2 ramifies, p = 1 mod 4 splits, p = 3 mod 4 stays inert
    rows = {}
    for p in primes_up_to(limit).tolist():
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
    for kind in ("count", "mobius", "liouville", "kfree"):
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
    val = np.ones(xmax + 1, dtype=np.int64)
    val[0] = 0
    for p in primes_up_to(xmax).tolist():
        table = _local_table(kind, k, field.residue_degrees(p),
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
    # six degree-1 ideals above every p: a large prime's value is its class's
    # table entry at a = 1, six times the rule at e = 1
    six = make_table_field({p: [(1, 1, 6)] for p in primes_up_to(XMAX).tolist()})
    for spec, field in {**FIELDS, "six": six}.items():
        for k in (1, 2, 3):
            for x in BOUNDARY_X + (1000, XMAX):
                for kind in ("count", "mobius", "liouville", "kfree"):
                    got = coefficient_array(field, kind, k, x)
                    want = _per_prime_sieve(field, kind, k, x)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (spec, kind, k, x)


def _series_by_sums(kind, k, degrees, amax):
    # the local series from its definition, one Python sum per entry
    rule = _sieve._RULES[kind]
    series = [1] + [0] * amax
    for f in degrees:
        powers = [rule(e, k) for e in range(amax // f + 1)]
        series = [sum(series[a - f * e] * powers[e] for e in range(a // f + 1))
                  for a in range(amax + 1)]
    return series


def test_local_tables_equal_their_defining_sums():
    # every rule over splitting types of up to six ideals: the same values,
    # as Python ints
    rng = random.Random(20261019)
    for kind in _sieve._RULES:
        for _ in range(300):
            degrees = tuple(rng.choice((1, 1, 1, 2, 3)) for _ in range(rng.randint(1, 6)))
            k = rng.randint(0, 6)
            amax = rng.choice((0, 1, 2, 5, 13, 24, 40, 63))
            got = _local_table(kind, k, degrees, amax)
            want = _series_by_sums(kind, k, degrees, amax)
            assert [(type(v), v) for v in got] == [(type(v), v) for v in want], \
                (kind, k, degrees, amax)


def test_splitting_classes_are_the_residue_degrees():
    # against what does not ask `splitting`: the Kronecker symbol of a
    # quadratic field, and the rows of a table
    fields = {**FIELDS, "table:q(i)": _gaussian_table(10**5),
              "q:-1000003": parse_field("q:-1000003")}
    primes = primes_up_to(10**5)
    by_chi = {-1: (2,), 0: (1,), 1: (1, 1)}
    for spec, field in fields.items():
        classes, of = field.splitting(primes)
        assert of.dtype == np.intp and of.shape == primes.shape, spec
        assert len(set(classes)) == len(classes), spec
        if field.prime_table is not None:
            rows = dict(field.prime_table)
            want = [tuple(f for f, _e, mult in sorted(rows[p]) for _ in range(mult))
                    for p in primes.tolist()]
        elif field.degree == 1:
            want = [(1,)] * len(primes)
        else:
            want = [by_chi[kronecker_symbol(field.disc, p)] for p in primes.tolist()]
        assert [classes[c] for c in of.tolist()] == want, spec
    classes, of = FIELDS["q"].splitting(primes)
    assert classes == [(1,)] and not of.any()
    assert FIELDS["q:-1"].splitting(primes)[0] == [(2,), (1,), (1, 1)]
    # a table field's classes in order of first appearance (2 ramifies in Z[i])
    assert fields["table:q(i)"].splitting(primes)[0] == [(1,), (2,), (1, 1)]
    # the refusal of the first prime missing from a table
    with pytest.raises(ValueError, match="^prime 101 missing from the supplied prime-ideal table$"):
        _gaussian_table(100).splitting(primes_up_to(1000))


def test_count_coefficients_are_divisor_sums_of_chi():
    # a_F = 1 * chi_D over a quadratic field: c(n) = sum over d | n of chi_D(d)
    x = 200_000
    for spec in ("q:-1", "q:-5", "q:2", "q:5"):
        field = FIELDS[spec]
        expected = np.zeros(x + 1, dtype=np.int64)
        table = _chi_array(field.disc)
        for d in range(1, x + 1):
            chi = table[d % abs(field.disc)]
            if chi:
                expected[d::d] += chi
        assert np.array_equal(coefficient_array(field, "count", 0, x), expected), spec


def test_count_over_totally_split_tables_is_divisor_count():
    # when every prime splits completely, a_F = tau_d, the d-fold divisor
    # function: the largest coefficients any field of degree d can have
    # (tau(83160) = 128 already passes 8 bits)
    x = 100_000
    tau = np.zeros(x + 1, dtype=np.int64)
    for d in range(1, x + 1):
        tau[d::d] += 1
    tau3 = np.zeros(x + 1, dtype=np.int64)
    for d in range(1, x + 1):
        tau3[d::d] += tau[d]
    for degree, expected in ((2, tau), (3, tau3)):
        field = make_table_field({p: [(1, 1, degree)] for p in primes_up_to(x).tolist()})
        assert np.array_equal(coefficient_array(field, "count", 0, x), expected), degree


def test_kept_arrays_are_read_only(fresh_memos):
    # a kept prefix-sum array is shared by every later caller, so none may write to it
    for spec, kind, k in (("q", "count", 0), ("q:-1", "count", 0), ("q:5", "mobius", 2)):
        cum = cumulative_array(FIELDS[spec], kind, k, 1000)
        with pytest.raises(ValueError, match="read-only"):
            cum[5] = 0
        assert cumulative_array(FIELDS[spec], kind, k, 500) is cum


def test_negative_reach_is_refused_and_the_memo_kept(fresh_memos):
    # a reach below 0 is refused in one line whether or not an array of its
    # name is kept, and the memo stays as it was
    cumulative_array(FIELDS["q:-1"], "count", 0, 100)
    before = dict(field_module._REACHES)
    for spec in ("q:-1", "q:5"):
        with pytest.raises(ValueError, match="xmax = -3") as refusal:
            cumulative_array(FIELDS[spec], "count", 0, -3)
        assert len(str(refusal.value).splitlines()) == 1
    assert field_module._REACHES == before and list(field_module._CUM_CACHE) == list(before)
    # a name with no kept array is built, whatever the reach, not read as kept
    built = field_module.kept_array((FIELDS["q"].cache_key(), "probe"), -1,
                                    lambda reach: np.arange(reach + 2))
    assert built.tolist() == [0]
