import copy
import math
import os
import pickle
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import kronecker_symbol

from test_sieve import FIELDS, _gaussian_table

from idealfunc import field as field_module
from idealfunc.field import (
    FieldSpec,
    PrimeIdealLabel,
    is_fundamental_discriminant,
    is_squarefree,
    make_quadratic_field,
    make_rational_field,
    make_table_field,
    parse_field,
    prime_ideals_above,
    primes_up_to,
    primes_with_norm_up_to,
)
from idealfunc.summatory import mertens_k


def test_rational_field():
    q = make_rational_field()
    assert q.degree == 1 and q.disc == 1 and q.m is None
    (lab,) = prime_ideals_above(q, 7)
    assert lab.norm == 7


@pytest.mark.parametrize("m,disc", [(-1, -4), (5, 5), (2, 8), (-5, -20), (-3, -3), (13, 13)])
def test_quadratic_discriminants(m, disc):
    field = make_quadratic_field(m)
    assert field.disc == disc
    assert field.disc % 4 in (0, 1)
    assert is_fundamental_discriminant(field.disc)


@pytest.mark.parametrize("m", [12, 0, 1, 4, -4, 18])
def test_quadratic_rejects_bad_m(m):
    with pytest.raises(ValueError):
        make_quadratic_field(m)


def _squarefree_by_trial_division(n):
    # the reference: trial division up to the square root
    n = abs(n)
    if n == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 1
    return True


def test_is_squarefree_matches_trial_division_to_the_square_root():
    rng = random.Random(20130527)
    small = primes_up_to(50).tolist()
    large = primes_up_to(5000)[-300:].tolist()  # above the cube root of what they build
    ms = list(range(-500, 500)) + [rng.randrange(-10**8, 10**8) for _ in range(1000)]
    for _ in range(200):
        p, q, r = rng.choice(small), rng.choice(large), rng.choice(large)
        ms += [p * p * q, q * q, p * q * q, q * r, p * q * r, -q * q]
    for m in ms:
        assert is_squarefree(m) == _squarefree_by_trial_division(m), m


def test_large_quadratic_fields_answer_or_are_refused_quickly():
    start = time.perf_counter()
    assert make_quadratic_field(10**16 + 61).disc == 10**16 + 61
    assert time.perf_counter() - start < 1.0
    # a discriminant past 2^62 is refused before any trial division
    for m in (2**60 + 3, -(2**60) - 1, int("9" * 40)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="discriminant passes 2"):
            make_quadratic_field(m)
        assert time.perf_counter() - start < 0.1


def test_character_past_memory_names_its_unit(monkeypatch, fresh_memos):
    # 3 bytes for each residue of the period, against 16 MiB of memory
    sysconf = os.sysconf
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or sysconf(name))
    with pytest.raises(ValueError) as info:
        field_module._chi_array(make_quadratic_field(-1000003 * 1009).disc)
    assert str(info.value) == ("discriminant -1009003027 is too large to tabulate its "
                               "character: about 3 bytes per residue exceed the 0.0 GiB "
                               "of physical memory")


def test_quadratic_field_is_checked_for_squarefreeness_once(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return is_squarefree(n)

    monkeypatch.setattr(field_module, "is_squarefree", counted)
    assert make_quadratic_field(10**16 + 61).m == 10**16 + 61
    assert calls == [10**16 + 61]
    # a FieldSpec built directly is still checked, with the message q:<m> gives
    with pytest.raises(ValueError, match="^m=4 must be squarefree and not 0 or 1$"):
        FieldSpec(degree=2, disc=16, m=4)


def test_residue_degrees_of_a_large_discriminant_hold_its_character_in_bytes(fresh_memos):
    # chi_D over one period is an int8 array: about 1 byte per unit of |D|,
    # with small temporaries while it is built
    field = make_quadratic_field(-999983)
    tracemalloc.start()
    try:
        assert field.residue_degrees(3) == (1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * abs(field.disc)


def _chi(D, n):
    # chi_D(n) as the package reads it: one period of `_chi_array`
    return int(field_module._chi_array(D)[n % abs(D)])


def test_kronecker_basics():
    assert _chi(-4, 5) == 1
    assert _chi(-4, 2) == 0
    assert _chi(-4, 1) == 1
    assert _chi(5, 1) == 1


@pytest.mark.parametrize("D", [-4, 5, 8, -20, -3, 13])
def test_kronecker_odd_primes_are_quadratic_residue_symbols(D):
    # brute-force oracle: for odd p not dividing D, (D/p) = 1 iff x^2 = D mod p solvable
    for p in primes_up_to(200).tolist():
        if p == 2 or D % p == 0:
            continue
        solvable = any((x * x - D) % p == 0 for x in range(p))
        assert _chi(D, p) == (1 if solvable else -1)


@pytest.mark.parametrize("D", [-4, 5, 8, -20])
@settings(max_examples=200, deadline=None)
@given(a=st.integers(min_value=1, max_value=5000), b=st.integers(min_value=1, max_value=5000))
def test_kronecker_completely_multiplicative(D, a, b):
    assert _chi(D, a * b) == _chi(D, a) * _chi(D, b)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=10**6))
def test_kronecker_zero_iff_common_factor(n):
    D = -20
    assert (_chi(D, n) == 0) == (math.gcd(abs(D), n) > 1)


@pytest.mark.parametrize("m", [-1, -2, -3, 2, 3, 5, -30, 105, -105, 7 * 11 * 13 * 17, -1000003])
def test_chi_period_matches_kronecker(m):
    # odd, even, positive and negative discriminants, one to five prime factors
    disc = make_quadratic_field(m).disc
    table = field_module._chi_array(disc)
    assert len(table) == abs(disc) and table[0] == 0
    step = max(1, abs(disc) // 5000)  # every residue of the small discriminants
    for r in range(1, abs(disc), step):
        assert table[r] == kronecker_symbol(disc, r), (disc, r)


def test_split_prime_gaussian(gaussian):
    assert gaussian.residue_degrees(5) == (1, 1)  # split
    assert gaussian.residue_degrees(3) == (2,)    # inert
    assert gaussian.residue_degrees(2) == (1,)    # ramified
    assert [lab.norm for lab in prime_ideals_above(gaussian, 5)] == [5, 5]
    assert [lab.norm for lab in prime_ideals_above(gaussian, 3)] == [9]
    assert [lab.norm for lab in prime_ideals_above(gaussian, 2)] == [2]


def test_split_prime_matches_kronecker(any_field):
    if any_field.degree == 1:
        pytest.skip("degree 1")
    for p in primes_up_to(200).tolist():
        degrees = any_field.residue_degrees(p)
        if any_field.disc % p == 0:
            assert degrees == (1,)
        else:
            chi = kronecker_symbol(any_field.disc, p)
            assert degrees == ((1, 1) if chi == 1 else (2,))


def test_primes_with_norm_up_to(rational, gaussian):
    assert [lab.norm for lab in primes_with_norm_up_to(gaussian, 10)] == [2, 5, 5, 9]
    assert [lab.norm for lab in primes_with_norm_up_to(rational, 10)] == [2, 3, 5, 7]
    assert primes_with_norm_up_to(gaussian, 1.5) == []


def _trial_division_primes(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def test_primes_up_to_matches_trial_division(fresh_memos):
    expected = _trial_division_primes(2000)
    for n in range(2001):  # each limit sieved from an empty memo
        field_module.clear_cache()
        got = primes_up_to(n)
        assert got.dtype == np.int64
        assert got.tolist() == [p for p in expected if p <= n], n
    primes_up_to(2000)  # then every limit cut from the kept primes
    for n in range(2001):
        assert primes_up_to(n).tolist() == [p for p in expected if p <= n], n


def test_primes_and_characters_share_the_bounded_memo(monkeypatch, fresh_memos):
    # the characters of four fields with |D| near 10^6 (1 byte per residue)
    # and the primes live in the one memo of arrays: over a 1 MiB budget each
    # new character pushes older arrays out, and every answer stays the same
    monkeypatch.setattr(field_module, "_KEPT_BYTES", 2**20)
    fields = [parse_field(f"q:{m}") for m in (-1000003, -999983, 1000001, 999997)]
    memo = field_module._CUM_CACHE
    answers = []
    for field in fields * 2:
        answers.append(mertens_k(field, 2, 10**5))
        kept = [a.nbytes for a in memo.values()]
        assert sum(kept) <= field_module._KEPT_BYTES + kept[-1]
    assert answers[:4] == answers[4:]
    assert all(len(field_module._chi_array(f.disc)) == abs(f.disc) for f in fields)
    # the primes are read-only, and until the memo is emptied one sieve serves
    primes = primes_up_to(1000)
    with pytest.raises(ValueError, match="read-only"):
        primes[0] = 0
    chi = field_module._chi_array(fields[-1].disc)
    assert np.shares_memory(primes_up_to(500), primes)
    assert field_module._chi_array(fields[-1].disc) is chi
    # clear_cache empties the memo: both are built again
    field_module.clear_cache()
    assert not memo
    assert field_module._chi_array(fields[-1].disc) is not chi
    assert not np.shares_memory(primes_up_to(1000), primes)


def test_prime_sieve_refuses_limit_beyond_physical_memory():
    # only limits the preflight refuses: 17 bytes per number must exceed physical memory
    limit = 10**12
    assert 17 * limit > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    with pytest.raises(ValueError, match="physical memory"):
        primes_up_to(limit)


def test_prime_label_stream_monotone(any_field):
    count_prev = 0
    for X in (10, 50, 200, 1000):
        labels = primes_with_norm_up_to(any_field, X)
        assert len(labels) >= count_prev
        count_prev = len(labels)
        norms = [lab.norm for lab in labels]
        assert norms == sorted(norms)
        for lab in labels:
            assert lab.f in (1, 2)
            assert lab.norm == lab.p**lab.f


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(sorted(FIELDS)), X=st.integers(2, 3000), rng=st.randoms())
def test_label_order_is_the_norm_p_index_key(spec, X, rng):
    labels = primes_with_norm_up_to(FIELDS[spec], X)
    shuffled = list(labels)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == labels
    assert labels == sorted(shuffled, key=lambda lab: (lab.norm, lab.p, lab.index))
    for lab in shuffled:
        twin = PrimeIdealLabel(lab.p, lab.f, lab.index)
        assert twin == lab and hash(twin) == hash(lab)
        assert twin == copy.deepcopy(lab) == pickle.loads(pickle.dumps(lab))
        assert lab.norm == lab.p**lab.f
    assert len(set(shuffled)) == len(labels)


@pytest.mark.parametrize("args", [(1, 1), (2, 0), (2, 1, -1)])
def test_bad_label_rejected(args):
    with pytest.raises(ValueError, match="bad prime ideal label"):
        PrimeIdealLabel(*args)


def test_ramification_degree_sums(any_field):
    if any_field.degree == 1:
        pytest.skip("degree 1")
    # sum of e*f over primes above p is the degree
    for p in primes_up_to(100).tolist():
        labels = prime_ideals_above(any_field, p)
        e = 2 if any_field.disc % p == 0 else 1  # p ramifies iff it divides disc
        assert sum(e * lab.f for lab in labels) == 2


def test_parse_field(tmp_path):
    assert parse_field("q").degree == 1
    assert parse_field("q:-1").disc == -4
    with pytest.raises(ValueError):
        parse_field("q:12")
    with pytest.raises(ValueError):
        parse_field("cubic")
    table = tmp_path / "field.tbl"
    table.write_text("# p f e mult\n2 1 2 1\n3 2 1 1\n5 1 1 2\n")
    field = parse_field(f"table:{table}")
    assert field.degree == 2
    assert [lab.norm for lab in prime_ideals_above(field, 5)] == [5, 5]
    assert [lab.norm for lab in prime_ideals_above(field, 3)] == [9]
    with pytest.raises(ValueError):
        prime_ideals_above(field, 7)


def test_table_field_consistency_check():
    with pytest.raises(ValueError):
        make_table_field({2: [(1, 2, 1)], 3: [(3, 1, 1)]})  # degrees 2 vs 3


def _refusal(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def test_table_refusals_keep_their_messages_and_order():
    parse = field_module._parse_prime_table
    # a line without four fields, even after a bad row or a degree clash
    assert _refusal(parse, "t.tbl", "# head\n2 1 2 1\n\n3 2 1\n") == \
        "t.tbl:4: expected `p f e multiplicity`"
    assert _refusal(parse, "t.tbl", "3 0 1 1\n2 1 2 1 5\n") == \
        "t.tbl:2: expected `p f e multiplicity`"
    assert _refusal(parse, "t.tbl", "2 1 2 1\n3 1 1 1 # one of two\n") == \
        "inconsistent degree at p=3: 1 != 2"
    # primes in ascending order: the first failing prime names the refusal,
    # and at one prime a bad row comes before its degree
    assert _refusal(make_table_field, {5: [(3, 1, 1)], 3: [(0, 1, 1)], 2: [(1, 2, 1)]}) == \
        "bad table row for p=3"
    assert _refusal(make_table_field, {2: [(1, 2, 1)], 3: [(1, 1, 1), (1, 0, 1)]}) == \
        "bad table row for p=3"
    assert _refusal(make_table_field, {2: [(1, 2, 1)], 3: [(1, 1, 1), (1, 1, 0)]}) == \
        "bad table row for p=3"
    assert _refusal(make_table_field, {7: [(0, 1, 1)], 3: [(3, 1, 1)], 2: [(1, 2, 1)]}) == \
        "inconsistent degree at p=3: 3 != 2"
    assert _refusal(make_table_field, {}) == "empty prime-ideal table"
    assert _refusal(parse, "t.tbl", "# nothing but comments\n\n   \n# p f e mult\n") == \
        "empty prime-ideal table"
    field = parse("t.tbl", "2 1 2 1\n3 2 1 1\n5 1 1 2\n")
    message = "prime 7 missing from the supplied prime-ideal table"
    assert _refusal(field.residue_degrees, 7) == message
    assert _refusal(field.splitting, np.array([2, 3, 7, 11, 13], dtype=np.int64)) == message


def test_table_spelling_does_not_change_the_field():
    plain = "2 1 2 1\n3 2 1 1\n5 1 1 1\n5 1 1 1\n7 2 1 1\n13 1 1 2\n"
    spelled = ("# Q(i): p f e multiplicity\n\n5 1 1 1   # one conjugate\n"
               "  13\t1 1 2\n7 2 1 1\n\n2 1 2 1#ramified\n5 1 1 1\n3 2 1 1 # inert\n")
    merged = "2 1 2 1\n3 2 1 1\n5 1 1 2\n7 2 1 1\n13 1 1 1\n13 1 1 1\n"
    parse = field_module._parse_prime_table
    a, b, c = (parse("t.tbl", text) for text in (plain, spelled, merged))
    assert a == b and a.cache_key() == b.cache_key()
    primes = np.array([2, 3, 5, 7, 13], dtype=np.int64)
    # a split p written as one row of multiplicity 2 or as two rows
    for field in (a, b, c):
        classes, of = field.splitting(primes)
        assert [classes[i] for i in of] == [(1,), (2,), (1, 1), (2,), (1, 1)]
    assert [list(s) for s in c.splitting(primes)] == [list(s) for s in a.splitting(primes)]
    mixed = parse("t.tbl", "2 2 1 1\n2 1 1 1\n3 1 1 3\n5 1 2 1\n5 1 1 1\n")
    assert mixed.degree == 3
    classes, of = mixed.splitting(primes[:3])
    assert [classes[i] for i in of] == [(1, 2), (1, 1, 1), (1, 1)]


def test_table_refuses_a_missing_prime_past_its_last():
    field = _gaussian_table(100)  # the primes up to 97
    message = "^prime 101 missing from the supplied prime-ideal table$"
    with pytest.raises(ValueError, match=message):
        field.splitting(np.array([2, 97, 101, 103], dtype=np.int64))
    with pytest.raises(ValueError, match=message):
        field.residue_degrees(101)
    assert field.residue_degrees(97) == (1, 1)


def test_a_table_prime_past_every_norm_is_left_out():
    # no int64 holds 2^64 + 13, and no norm reaches it: the table still answers
    field = make_table_field({2: [(1, 2, 1)], 3: [(2, 1, 1)], 5: [(1, 1, 2)],
                              2**64 + 13: [(1, 1, 2)]})
    assert [lab.norm for lab in primes_with_norm_up_to(field, 6)] == [2, 5, 5]
    with pytest.raises(ValueError, match="^prime 7 missing"):
        field.residue_degrees(7)


def test_table_refuses_a_missing_prime_between_listed_primes():
    field = make_table_field({p: [(1, 1, 2)] for p in (2, 3, 5, 11, 13)})  # 7 left out
    message = "^prime {} missing from the supplied prime-ideal table$"
    with pytest.raises(ValueError, match=message.format(7)):
        field.splitting(np.array([2, 3, 5, 7, 11, 13], dtype=np.int64))
    # the first prime asked that the table lacks, in the order asked
    with pytest.raises(ValueError, match=message.format(17)):
        field.splitting(np.array([13, 17, 7], dtype=np.int64))
    with pytest.raises(ValueError, match=message.format(7)):
        field.residue_degrees(7)
    classes, of = field.splitting(np.array([13, 2], dtype=np.int64))
    assert [classes[i] for i in of] == [(1, 1), (1, 1)]


def test_cache_key_is_exact_and_taken_once():
    rows = {p: [(1, 1, 2)] for p in primes_up_to(2000).tolist()}
    a, b = make_table_field(rows), make_table_field(dict(rows))
    other = make_table_field({**rows, 3: [(2, 1, 1)]})  # 3 inert, not split
    # one key object per field: no hash of the table per lookup
    assert a.cache_key() is a.cache_key()
    # equal tables share a key, and a distinct table never does, even when
    # its hash collides
    assert a.cache_key() == b.cache_key() and hash(a.cache_key()) == hash(b.cache_key())
    assert a.cache_key() != other.cache_key()
    forged = copy.copy(other.cache_key())
    forged._hash = hash(a.cache_key())
    assert forged != a.cache_key() and len({a.cache_key(), forged}) == 2
    assert parse_field("q:-1").cache_key() == make_quadratic_field(-1).cache_key()
    assert parse_field("q:-1").cache_key() != parse_field("q").cache_key()
    for field in (a, parse_field("q:5")):
        for twin in (copy.deepcopy(field), pickle.loads(pickle.dumps(field))):
            assert twin.cache_key() == field.cache_key()
            assert hash(twin.cache_key()) == hash(field.cache_key())
