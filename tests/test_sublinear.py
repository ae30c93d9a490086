"""The sublinear route of `_sublinear` against the coefficient sieve."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealfunc import _sieve, _sublinear
from idealfunc import field as field_module
from idealfunc.field import (
    is_squarefree,
    make_quadratic_field,
    make_table_field,
    parse_field,
    primes_up_to,
)
from idealfunc.ideals import ideal_count
from idealfunc.summatory import liouville_sum_k, mertens_k, qfree_count
from test_sieve import FIELDS as SIEVE_FIELDS

SPECS = ("q", "q:-1", "q:-5", "q:2", "q:5", "q:-3")
CASES = ([("count", 0)] + [("kfree", k) for k in (2, 3, 4)]
         + [("mobius", k) for k in (1, 2, 3)] + [("liouville", k) for k in (1, 2, 3)])
XMAX = 300_000
# every x <= 300, 25 seeded x above, and the x where the table size
# T = [x^(2/3)] of the largest of them sits, and its neighbours
_RANDOM_X = sorted(random.Random(20261018).sample(range(301, XMAX + 1), 25))
_T = _sublinear.table_size(_RANDOM_X[-1])
GATE_X = sorted(set(range(1, 301)) | set(_RANDOM_X) | {_T - 1, _T, _T + 1})


def _sieve_sums(field, kind, k, xmax):
    return np.cumsum(_sieve.coefficient_array(field, kind, k, xmax))


def _route(field, kind, k, x):
    # the formulas of `_sublinear` at one x, whatever the memo holds
    return _sublinear._SUMS[kind](field, k, [x])[0]


@pytest.mark.parametrize("spec", SPECS)
def test_route_equals_sieve(spec):
    field = parse_field(spec)
    for kind, k in CASES:
        expected = _sieve_sums(field, kind, k, XMAX)
        got = [_route(field, kind, k, x) for x in GATE_X]
        assert got == expected[GATE_X].tolist(), (kind, k)


@pytest.mark.parametrize("spec", SPECS)
def test_primitives_at_the_table_cutoff(spec, fresh_memos):
    # A below, at and above the table sizes of both shapes, isqrt(x) and T
    # (over a quadratic field: over Q, A(y) = y needs no table), and M at
    # every [x/j], on both sides of T (no kept table reaches past either)
    field = parse_field(spec)
    x = 10**5
    size = _sublinear.table_size(x)
    cum_count = _sieve_sums(field, "count", 0, x)
    for cut in (math.isqrt(x), size) if field.degree > 1 else ():
        counts = _sublinear._Counts(field, cut, x)
        ys = np.array([1, 2, cut - 1, cut, cut + 1, x // 2, x], dtype=np.int64)
        assert counts.many(ys).tolist() == cum_count[ys].tolist()
    mertens = _sublinear._Mertens(field, [x], size)
    js = np.arange(1, x + 1, dtype=np.int64)
    assert np.array_equal(mertens.many(0, js), _sieve_sums(field, "mobius", 1, x)[x // js])


def test_hyperbola_batches(monkeypatch):
    # batches of a few terms, and y with more terms than a batch holds
    monkeypatch.setattr(_sublinear, "_HYPERBOLA_TERMS", 7)
    edges = [n * n + d for n in (1, 2, 3, 2**31 - 1) for d in (-1, 0, 1) if n * n + d > 0]
    assert _sublinear._isqrt_many(np.array(edges)).tolist() == [math.isqrt(y) for y in edges]
    for spec in ("q:-1", "q:5", "q:-3"):
        field = parse_field(spec)
        counts = _sieve_sums(field, "count", 0, 3000)
        ys = np.array([1, 2, 3, 48, 49, 50, 999, 3000, 2, 2500], dtype=np.int64)
        got = _sublinear._hyperbola(*_sublinear._character(field.disc, 3000), ys)
        assert got.tolist() == counts[ys].tolist(), spec


def _dirichlet_product(a, b):
    # h(n) = sum over d m = n of a(d) b(m), for n < len(a) == len(b): d <= r
    # against every m, then m <= r against every d > r, r = isqrt(x)
    x = len(a) - 1
    r = math.isqrt(x)
    h = np.zeros(x + 1, dtype=np.int64)
    for d in range(1, r + 1):
        h[d::d] += a[d] * b[1 : x // d + 1]
    for m in range(1, r + 1):
        h[m * (r + 1) :: m] += a[r + 1 : x // m + 1] * b[m]
    return h


@pytest.mark.parametrize("spec", SPECS)
def test_kfull_rows_are_the_product_of_the_sieves_mobius_coefficients(spec):
    # G = mu_1 * mu_k, from the sieve's per-norm coefficients: its nonzero
    # entries are the k-full rows, at every reach
    field = parse_field(spec)
    x = 10**5
    mu1 = _sieve.coefficient_array(field, "mobius", 1, x)
    for k in (2, 3, 4):
        g = _dirichlet_product(mu1, _sieve.coefficient_array(field, "mobius", k, x))
        for reach in (1, 2, 2**k - 1, 2**k, 999, 3**k * 5**k, x):
            n = np.flatnonzero(g[: reach + 1])
            assert np.array_equal(_sublinear._kfull_rows(field, k, reach),
                                  np.stack((n, g[n]))), (k, reach)


def test_character_prefix_sums_reach_only_the_largest_y():
    # S is read at n mod |disc| for n <= y: a period longer than the largest
    # y keeps S to it, and a shorter one keeps one whole period
    for spec, top in (("q:-1000003", 3000), ("q:-3", 3000), ("q:5", 4)):
        field = parse_field(spec)
        chi, S = _sublinear._character(field.disc, top)
        assert chi.dtype == np.int8 and len(chi) == abs(field.disc)
        assert S.dtype == np.int64 and len(S) == min(top + 1, abs(field.disc))
        counts = _sieve_sums(field, "count", 0, top)
        ys = np.array(sorted({1, 2, 3, 4, top // 7, top // 2, top}), dtype=np.int64)
        assert _sublinear._hyperbola(chi, S, ys).tolist() == counts[ys].tolist(), spec


def test_quotients_on_both_sides_of_2_to_52():
    # float quotients below 2^52, integer ones above; cells past the u of
    # their row are 0
    ns = np.arange(1, 3001, dtype=np.int64)
    for top in (2**52 - 1, 2**52, 2**62 - 1):
        # top // 3000 * 3000 - 1 is 1/n short of a multiple of each n | 3000
        ys = [top, top - 12345, top // 3000 * 3000 - 1, 3000 * 2999]
        us = [3000, 1000, 3000, 7]
        got = _sublinear._quotients(np.array(ys)[:, None], ns, np.array(us)[:, None])
        assert got.tolist() == [[y // n if n <= u else 0 for n in range(1, 3001)]
                                for y, u in zip(ys, us)], top


def _random_fields():
    m = st.integers(-10**4, 10**4).filter(lambda m: m not in (0, 1) and is_squarefree(m))
    return st.one_of(st.sampled_from(SPECS).map(parse_field), m.map(make_quadratic_field))


@settings(max_examples=60, deadline=None)
@given(field=_random_fields(), case=st.sampled_from(CASES), x=st.integers(1, 20_000))
def test_route_matches_sieve_on_random_fields(field, case, x):
    kind, k = case
    assert _route(field, kind, k, x) == int(_sieve_sums(field, kind, k, x)[x])


@pytest.mark.parametrize("k", [62, 63, 64, 10**400])
def test_orders_past_every_exponent(k):
    field = parse_field("q:-5")
    for kind in ("kfree", "mobius", "liouville"):
        assert _route(field, kind, k, 5000) == _sieve_sums(field, kind, k, 5000)[-1]


def test_route_keeps_no_array_past_its_table_size(fresh_memos):
    # the route keeps its tables in the one memo of arrays, but none of the
    # field's arrays reaches past T = [x^(2/3)]: no x-sized array is built or
    # kept.  (The sieve oracle here keeps primes to x, which are not the field's.)
    field, x = parse_field("q:2"), 10**6
    assert qfree_count(field, 2, x) == int(_sieve_sums(field, "kfree", 2, x)[-1])
    assert mertens_k(field, 1, x) == int(_sieve_sums(field, "mobius", 1, x)[-1])
    assert liouville_sum_k(field, 2, x) == int(_sieve_sums(field, "liouville", 2, x)[-1])
    size = _sublinear.table_size(x)
    own = [key for key in field_module._REACHES if key[0] == field.cache_key()]
    assert own and max(field_module._REACHES[key] for key in own) <= size
    assert max(len(field_module._CUM_CACHE[key]) for key in own) <= size + 1


def test_route_tables_answer_the_sieve(fresh_memos, monkeypatch):
    # the route's count and mu_1 tables are the sieve's prefix sums: the route
    # answers a smaller x from the tables of a larger one, with no new sieve
    field = parse_field("q:-1")
    assert mertens_k(field, 1, 10**6) == int(_sieve_sums(field, "mobius", 1, 10**6)[-1])
    calls = []
    sieve = _sieve.coefficient_array
    monkeypatch.setattr(_sieve, "coefficient_array", lambda field, kind, k, xmax:
                        calls.append(xmax) or sieve(field, kind, k, xmax))
    assert mertens_k(field, 1, 5000) == int(_sieve_sums(field, "mobius", 1, 5000)[-1])
    assert ideal_count(field, 5000) == int(_sieve_sums(field, "count", 0, 5000)[-1])
    assert calls == [5000, 5000]  # the two reference sums above, and no other


def _straddling(xmax):
    # seeded x, the table size T = [x^(2/3)] of each, and the neighbours of
    # the largest T: some points sit just inside or outside the tables of
    # another
    seeded = random.Random(20261019).sample(range(501, xmax + 1), 6) + [xmax]
    sizes = [_sublinear.table_size(x) for x in seeded]
    return sorted(set(seeded + sizes + [max(sizes) - 1, max(sizes) + 1]))


@pytest.mark.parametrize("spec", sorted(SIEVE_FIELDS))
def test_one_grid_call_equals_separate_sums(spec, fresh_memos):
    # one exact_sums call, tables built for its largest x, against one sum
    # per x: in turn over a dense run, each from the tables of the x before;
    # and alone over the straddling points.  A table field's table stops at
    # 3000.
    field = SIEVE_FIELDS[spec]
    straddling = _straddling(XMAX if field.prime_table is None else 3000)
    cases = ([("count", 0), ("kfree", 2), ("kfree", 3)]
             + [(kind, k) for kind in ("mobius", "liouville") for k in (1, 2, 3)])
    for kind, k in cases:
        for xs, alone in ((list(range(1, 501)), False), (straddling, True)):
            _sieve.clear_cache()
            got = _sublinear.exact_sums(field, kind, k, xs)
            separate = []
            for x in xs:
                if alone:
                    _sieve.clear_cache()
                separate.append(_sublinear.exact_sums(field, kind, k, [x])[0])
            assert got == separate, (kind, k, xs)


@pytest.mark.parametrize("spec", sorted(s for s, f in SIEVE_FIELDS.items() if f.prime_table is None))
def test_blocked_grid_equals_one_x_calls(spec, fresh_memos, monkeypatch):
    # blocks of a few cells cut each grid sum into many, and a row wider than
    # a block is a block of its own: the grid still equals one call per x
    field = SIEVE_FIELDS[spec]
    xs = sorted(set(random.Random(20261020).sample(range(3, 10**5 + 1), 12)) | {1, 2})
    cases = ([("count", 0), ("kfree", 2), ("kfree", 3)]
             + [(kind, k) for kind in ("mobius", "liouville") for k in (1, 2, 3)])
    separate = {case: [_sublinear.exact_sums(field, *case, [x])[0] for x in xs]
                for case in cases}
    monkeypatch.setattr(_sublinear, "_HYPERBOLA_TERMS", 5)
    for case in cases:
        assert _sublinear.exact_sums(field, *case, xs) == separate[case], case
    # M([x/j]) at a whole block of (x, j) at once
    size = _sublinear.table_size(xs[-1])
    mertens = _sublinear._Mertens(field, xs, size)
    js = np.arange(1, 400, dtype=np.int64)
    points = np.arange(len(xs))[:, None]
    expected = _sieve_sums(field, "mobius", 1, xs[-1])[np.array(xs)[:, None] // js]
    assert np.array_equal(mertens.many(points, js), expected)


def test_inversion_formula_over_a_table_field(fresh_memos):
    # Q(i) as a prime-ideal table: 2 ramifies, p = 1 mod 4 splits, p = 3 mod 4
    # is inert.  The counting suite of `verify` runs this branch at every x.
    table = make_table_field({p: [(1, 2, 1)] if p == 2 else [(1, 1, 2)] if p % 4 == 1
                              else [(2, 1, 1)] for p in primes_up_to(5000).tolist()})
    for k in (2, 3):
        expected = _sieve_sums(table, "kfree", k, 5000)
        assert _sublinear.kfree_counts(table, k, list(range(1, 5001))) == expected[1:].tolist()
        assert _sublinear.kfree_counts(table, k, [1, 99, 4999]) == \
            expected[[1, 99, 4999]].tolist()


def test_refuses_before_building_tables():
    with pytest.raises(ValueError, match="too large: its tables reach"):
        _sublinear.exact_sums(parse_field("q:-1"), "liouville", 2, [10**300])
    with pytest.raises(ValueError, match="exceeds"):
        _sublinear.exact_sums(parse_field("q"), "kfree", 30, [2**63])


@pytest.mark.parametrize("spec", sorted(SIEVE_FIELDS))
def test_route_equals_sieve_with_kept_tables(spec, fresh_memos):
    # the kept tables grown at a larger x answer a smaller one, and grow from a
    # smaller x to a larger one; every kind shares them.  A table field's only
    # route is the inversion formula, and its table stops at 3000.
    field = SIEVE_FIELDS[spec]
    if field.prime_table is None:
        xs, cases, route = (1, 2, 97, 1000, 2999, 50_000), CASES, _route
    else:
        xs = (1, 2, 97, 1000, 2999, 3000)
        cases = [("kfree", k) for k in (2, 3, 4)]
        route = lambda field, kind, k, x: _sublinear.kfree_counts(field, k, [x])[0]  # noqa: E731
    expected = {case: _sieve_sums(field, *case, max(xs)) for case in cases}
    for order in (xs[::-1], xs):
        _sieve.clear_cache()
        for kind, k in cases:
            got = [route(field, kind, k, x) for x in order]
            assert got == expected[kind, k][list(order)].tolist(), (kind, k, order)
    # the route kept its mu_1 table in the memo of arrays
    assert (field.cache_key(), ("mobius", 1)) in _sieve._CUM_CACHE


def test_kept_route_tables_are_bounded(fresh_memos, monkeypatch):
    kept_bytes = lambda: sum(a.nbytes for a in field_module._CUM_CACHE.values())  # noqa: E731
    # the sieve oracle runs first, and the memo is emptied: its primes to x
    # would push every table out
    specs = ("q:-1", "q:5", "q:-5")
    field = parse_field("q:2")
    cases = ((10**6, "liouville"), (10**4, "mobius"), (10**4, "liouville"))
    want = {spec: int(_sieve_sums(parse_field(spec), "liouville", 2, 10**5)[-1]) for spec in specs}
    want.update({case: int(_sieve_sums(field, case[1], 2, case[0])[-1]) for case in cases})
    field_module.clear_cache()
    # a budget of two fields' Liouville tables at 10^5 (the count and mu_1
    # prefix sums to T), beside the primes to T and the characters the
    # fields read: a third field pushes out the least recently used one
    size = _sublinear.table_size(10**5)
    shared = 8 * len(primes_up_to(size)) + sum(abs(parse_field(s).disc) for s in specs)
    monkeypatch.setattr(field_module, "_KEPT_BYTES", 2 * 2 * 8 * (size + 1) + shared)
    for spec in specs:
        assert _sublinear.exact_sums(parse_field(spec), "liouville", 2, [10**5])[0] == want[spec]
    assert [key for key, _ in field_module._CUM_CACHE if key is not None] == \
        [parse_field(s).cache_key() for s in specs[1:] for _ in range(2)]
    # an array past the budget is kept only while it is the newest; older
    # arrays make room for a newer one
    size = _sublinear.table_size(10**6)
    monkeypatch.setattr(field_module, "_KEPT_BYTES", 8 * size)
    for x, kind in cases:
        assert _sublinear.exact_sums(field, kind, 2, [x])[0] == want[x, kind]
        assert kept_bytes() <= 8 * size or len(field_module._CUM_CACHE) == 1
        if x == 10**6:  # its tables are each over the budget, so each array
            # built pushes out every older one: only the character, which the
            # route reads last, stays
            assert list(field_module._CUM_CACHE) == [(None, ("chi", field.disc))]
    assert all(a.nbytes < 8 * size for a in field_module._CUM_CACHE.values())
    assert field.cache_key() in {key for key, _ in field_module._CUM_CACHE}
