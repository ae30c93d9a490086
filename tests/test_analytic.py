import math
from fractions import Fraction

import numpy as np
import pytest

from idealfunc import _sieve
from idealfunc.analytic import (
    AnalyticValue,
    dedekind_zeta,
    dedekind_zeta_series,
    dirichlet_L,
    mobius_density_constant,
    residue_c_F,
    _prime_ideal_norms,
)
from idealfunc.arith import jordan_totient, mu_1
from idealfunc.field import make_table_field, parse_field, primes_up_to, primes_with_norm_up_to
from idealfunc.ideals import enumerate_ideals
from _oracles import dirichlet_partial, mobius_density_partial_sum
from test_sieve import FIELDS, _gaussian_table

CATALAN = 0.915965594177219015054603514932


def test_options_validation(rational):
    with pytest.raises(ValueError):
        dedekind_zeta(rational, 2.0, cutoff=1)
    with pytest.raises(ValueError):
        AnalyticValue(value=1.0, tail_bound=-1.0, method="x")


def test_riemann_zeta_classical_values(rational):
    # zeta(2) = pi^2/6, zeta(4) = pi^4/90
    z2 = dedekind_zeta(rational, 2.0)
    assert z2.value == pytest.approx(math.pi**2 / 6, abs=1e-5)
    assert abs(z2.value - math.pi**2 / 6) <= z2.tail_bound
    z4 = dedekind_zeta(rational, 4.0)
    assert z4.value == pytest.approx(math.pi**4 / 90, abs=1e-10)


def test_zeta_rejects_near_pole(any_field):
    with pytest.raises(ValueError):
        dedekind_zeta(any_field, 1.0)
    with pytest.raises(ValueError):
        dedekind_zeta_series(any_field, 1.0005)


def test_zeta_dual_method_agreement(any_field):
    for s in (1.5, 2.0, 3.0, 4.0):
        euler = dedekind_zeta(any_field, s)
        series = dedekind_zeta_series(any_field, s)
        # truncation covered by the quoted tails; tiny slack for float rounding
        budget = euler.tail_bound + series.tail_bound + 1e-12 * euler.value
        assert abs(euler.value - series.value) <= budget
        if s >= 2.0:
            assert abs(euler.value - series.value) <= 1e-4
        assert euler.method == "euler-product" and series.method == "series"


def test_zeta_monotone_decreasing(any_field):
    grid = [1.2, 1.5, 2.0, 3.0, 5.0, 10.0]
    vals = [dedekind_zeta(any_field, s).value for s in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 1.0 for v in vals)


def test_gaussian_zeta_factorizes(rational, gaussian):
    # zeta_{Q(i)}(2) = zeta(2) L(2, chi_{-4}), and L(2, chi_{-4}) is Catalan's constant
    z = dedekind_zeta(gaussian, 2.0)
    expected = (math.pi**2 / 6) * CATALAN
    assert z.value == pytest.approx(expected, abs=1e-4)
    assert abs(z.value - expected) <= z.tail_bound
    L2 = dirichlet_L(-4, 2.0)
    assert L2.value == pytest.approx(CATALAN, abs=1e-9)


def test_dirichlet_L_at_one():
    # Leibniz: L(1, chi_{-4}) = pi/4
    L = dirichlet_L(-4, 1.0)
    assert L.value == pytest.approx(math.pi / 4, abs=max(L.tail_bound, 1e-5))
    # L(1, chi_5) = (2/sqrt(5)) log((1+sqrt(5))/2)
    golden = (1 + math.sqrt(5)) / 2
    L5 = dirichlet_L(5, 1.0)
    assert L5.value == pytest.approx(2 * math.log(golden) / math.sqrt(5), abs=1e-4)
    with pytest.raises(ValueError):
        dirichlet_L(1, 2.0)
    with pytest.raises(ValueError):
        dirichlet_L(9, 2.0)  # not fundamental
    with pytest.raises(ValueError):
        dirichlet_L(-4, 0.5)


def test_residue(rational, gaussian):
    assert residue_c_F(rational).value == 1.0
    assert residue_c_F(rational).tail_bound == 0.0
    c = residue_c_F(gaussian)
    assert c.value == pytest.approx(math.pi / 4, abs=1e-4)


def test_residue_matches_ideal_count_density(any_field):
    # [x]_F / x -> c_F
    from idealfunc.ideals import ideal_count

    c = residue_c_F(any_field).value
    x = 10**6
    assert ideal_count(any_field, x) / x == pytest.approx(c, rel=1e-3)


def test_euler_product_norms_match_prime_ideal_labels(any_field):
    # the same norms in the same order, so the Euler products keep their bits
    for cutoff in (2, 10, 1000, 20_000):
        assert _prime_ideal_norms(any_field, cutoff).tolist() == [
            lab.norm for lab in primes_with_norm_up_to(any_field, cutoff)]


# cutoffs growing, then shrinking, then growing past the largest asked
NORM_CUTOFFS = (2, 10, 1000, 20_000, 100_000, 20_000, 1000, 10, 2,
                10, 1000, 20_000, 100_000, 200_000)


def test_memoised_norms_match_prime_ideal_labels(fresh_memos):
    fields = {**FIELDS, "table:q(i) to 10^5": _gaussian_table(10**5),
              "q:-1000003": parse_field("q:-1000003")}
    for spec, field in fields.items():
        for cutoff in NORM_CUTOFFS:
            try:
                want = [lab.norm for lab in primes_with_norm_up_to(field, cutoff)]
            except ValueError:  # a prime beyond the end of a table
                with pytest.raises(ValueError):
                    _prime_ideal_norms(field, cutoff)
                continue
            got = _prime_ideal_norms(field, cutoff)
            assert got.dtype == np.int64 and not got.flags.writeable, spec
            assert got.tolist() == want, (spec, cutoff)


def test_kept_norms_own_their_bytes(fresh_memos):
    # the memo charges a kept array its nbytes: a view would hold the whole
    # list of prime ideals it was cut from, unseen
    for spec, field in FIELDS.items():
        _prime_ideal_norms(field, 2000)
        kept = _sieve._CUM_CACHE[field.cache_key(), "norms"]
        assert kept.base is None and kept.nbytes == 8 * len(kept), spec


# float.hex of dedekind_zeta and mobius_density_constant, recorded before their
# prime-ideal norms were memoised: the Euler products must keep their bits
PINNED_ZETA = {  # (field, s): (value, tail_bound)
    ("q", 1.01): ("0x1.27208c9d1d486p+4", "0x1.86a21ea612035p+259"),
    ("q", 1.5): ("0x1.4e39967f90facp+1", "0x1.a4f0fec7bb69cp-6"),
    ("q", 2.0): ("0x1.a51a50015a262p+0", "0x1.705ce7ebbfd70p-16"),
    ("q", 2.5): ("0x1.576bb56fea490p+0", "0x1.27752782e8044p-25"),
    ("q", 3.0): ("0x1.33ba004efae2fp+0", "0x1.2e7dd16dbf6d8p-34"),
    ("q", 4.0): ("0x1.151322ac7d839p+0", "0x1.bc4d586fd22bap-52"),
    ("q:-1", 1.01): ("0x1.d0c3717fa261dp+3", "0x1.94e25f1dfe259p+514"),
    ("q:-1", 1.5): ("0x1.20f03f2e8a26ap+1", "0x1.6d8c72788c964p-5"),
    ("q:-1", 2.0): ("0x1.81b73598c5a57p+0", "0x1.513b0dd75d17bp-15"),
    ("q:-1", 2.5): ("0x1.45c6ca6f00e49p+0", "0x1.181c0dc178f31p-24"),
    ("q:-1", 3.0): ("0x1.2a2ba40374c74p+0", "0x1.24e8eecce1e51p-33"),
    ("q:-1", 4.0): ("0x1.1202f5bf1027ep+0", "0x1.b716158d44a00p-51"),
    ("q:-5", 1.01): ("0x1.9d440fda67761p+4", "0x1.680582ab84b47p+515"),
    ("q:-5", 1.5): ("0x1.9af1b19c8ea71p+1", "0x1.03f39eb2015f3p-4"),
    ("q:-5", 2.0): ("0x1.db05adc57f05dp+0", "0x1.9f4fae1ab186ap-15"),
    ("q:-5", 2.5): ("0x1.6fedaa532e856p+0", "0x1.3c5a46f3c1ac8p-24"),
    ("q:-5", 3.0): ("0x1.4007b6c53a619p+0", "0x1.3a62467fdfdbcp-33"),
    ("q:-5", 4.0): ("0x1.189f28792f03ap+0", "0x1.c1adb9a184fb8p-51"),
    ("q:2", 1.01): ("0x1.7237f18371505p+3", "0x1.428533a82f55bp+514"),
    ("q:2", 1.5): ("0x1.045bd640f2e1dp+1", "0x1.496423822edc9p-5"),
    ("q:2", 2.0): ("0x1.6f5a366bc078ap+0", "0x1.412cfa9cd8879p-15"),
    ("q:2", 2.5): ("0x1.3e54dc11b2cffp+0", "0x1.11b54b2bac09bp-24"),
    ("q:2", 3.0): ("0x1.26eb4bee46af8p+0", "0x1.21b7460eda625p-33"),
    ("q:2", 4.0): ("0x1.11589af3374b5p+0", "0x1.b60519ff8983cp-51"),
    ("q:5", 1.01): ("0x1.00261d362737fp+3", "0x1.be4b5acc9e490p+513"),
    ("q:5", 1.5): ("0x1.88d2bbe5409cap+0", "0x1.f0fa4a370a590p-6"),
    ("q:5", 2.0): ("0x1.296338eff4e69p+0", "0x1.04016cae436cdp-15"),
    ("q:5", 2.5): ("0x1.104597364b52bp+0", "0x1.d435d1d5fe8bcp-25"),
    ("q:5", 3.0): ("0x1.070d62f17b61dp+0", "0x1.02694ad81c56cp-33"),
    ("q:5", 4.0): ("0x1.017eecefd7cdfp+0", "0x1.9c9eece703a7bp-51"),
}
PINNED_DENSITY = {  # (field, k): (value, tail_bound)
    ("q", 2): ("0x1.68acb8e4e72f2p-1", "0x1.d9418c381afc8p-17"),
    ("q", 3): ("0x1.ca533ee3d5c54p-1", "0x1.8a364a555a08fp-34"),
    ("q", 4): ("0x1.e9f2090cffcd3p-1", "0x1.7046038c08ec6p-51"),
    ("q", 5): ("0x1.f631f987d6fb1p-1", "0x1.731ae83e9c0a6p-68"),
    ("q", 12): ("0x1.ffefd4cce70ecp-1", "0x1.c9403dd8cfe03p-186"),
    ("q", 62): ("0x1.0000000000000p+0", "0x1.d8d73fc49aba0p-1019"),
    ("q:-1", 2): ("0x1.7fdcd95fb8e7cp-1", "0x1.f76b578a97220p-16"),
    ("q:-1", 3): ("0x1.d4134a014230ep-1", "0x1.92570b703982cp-33"),
    ("q:-1", 4): ("0x1.ed8d7679e2e7fp-1", "0x1.72ba6e85b317dp-50"),
    ("q:-1", 5): ("0x1.f7791fefc0935p-1", "0x1.73c7ed0cfc4efp-67"),
    ("q:-1", 12): ("0x1.ffeffec79f229p-1", "0x1.c8e198b4362ddp-185"),
    ("q:-1", 62): ("0x1.0000000000000p+0", "0x1.d853c72cc3ccbp-1018"),
    ("q:-5", 2): ("0x1.4a23334eb4f65p-1", "0x1.b0f606eb8b56dp-16"),
    ("q:-5", 3): ("0x1.be0cf2a2f0e08p-1", "0x1.7f6889b5a9137p-33"),
    ("q:-5", 4): ("0x1.e5bdf4a241a59p-1", "0x1.6cdc846779e52p-50"),
    ("q:-5", 5): ("0x1.f4ca6d0bb4da9p-1", "0x1.71ccd86146087p-67"),
    ("q:-5", 12): ("0x1.ffefaab607eabp-1", "0x1.c8e14dad284c1p-185"),
    ("q:-5", 62): ("0x1.0000000000000p+0", "0x1.d853c72cc3ccbp-1018"),
    ("q:2", 2): ("0x1.8f4f62ced8f53p-1", "0x1.05d6c5dede7aap-15"),
    ("q:2", 3): ("0x1.d81eb2dfc1904p-1", "0x1.95d10b42d5ffcp-33"),
    ("q:2", 4): ("0x1.ee7ed161b59dbp-1", "0x1.736fb9488b1b5p-50"),
    ("q:2", 5): ("0x1.f7ae9b24db977p-1", "0x1.73ef6b1584294p-67"),
    ("q:2", 12): ("0x1.ffeffefed8befp-1", "0x1.c8e198e57f5cdp-185"),
    ("q:2", 62): ("0x1.0000000000000p+0", "0x1.d853c72cc3ccbp-1018"),
    ("q:5", 2): ("0x1.c322bcc0dc199p-1", "0x1.27d28d2acc765p-15"),
    ("q:5", 3): ("0x1.f51782486df50p-1", "0x1.aeb841849f1b8p-33"),
    ("q:5", 4): ("0x1.fdb258ba2186bp-1", "0x1.7edad0d4fa242p-50"),
    ("q:5", 5): ("0x1.ff7aca87d182dp-1", "0x1.79b17763e100fp-67"),
    ("q:5", 12): ("0x1.fffffe63d209cp-1", "0x1.c8efdfda2f11ep-185"),
    ("q:5", 62): ("0x1.0000000000000p+0", "0x1.d853c72cc3ccbp-1018"),
}


def test_analytic_values_keep_their_bits(fresh_memos):
    for (spec, s), (value, tail) in PINNED_ZETA.items():
        z = dedekind_zeta(parse_field(spec), s)
        assert (z.value.hex(), z.tail_bound.hex()) == (value, tail), (spec, s)
    for (spec, k), (value, tail) in PINNED_DENSITY.items():
        K = mobius_density_constant(parse_field(spec), k)
        assert (K.value.hex(), K.tail_bound.hex()) == (value, tail), (spec, k)


def test_density_constant_range_and_limit(any_field):
    for k in (2, 3, 4):
        K = mobius_density_constant(any_field, k)
        assert 0.0 < K.value <= 1.0
        assert K.tail_bound < 1e-4
    # factors tend to 1 as k grows, so K -> 1
    assert abs(mobius_density_constant(any_field, 12).value - 1.0) < 1e-3


def test_density_constant_dual_method(rational, gaussian):
    for field in (rational, gaussian):
        for k in (2, 3):
            euler = mobius_density_constant(field, k).value
            partial = mobius_density_partial_sum(field, k, 1_000_000)
            assert abs(euler - partial) < 1e-5


def _cubic_table(limit):
    # a cubic splitting pattern by p mod 7: 7 ramifies totally, p = +-1 splits,
    # p = +-2 stays inert, and p = +-3 has ideals of degrees 1 and 2
    rows = {}
    for p in primes_up_to(limit).tolist():
        r = min(p % 7, 7 - p % 7)
        rows[p] = {0: [(1, 3, 1)], 1: [(1, 1, 3)], 2: [(3, 1, 1)],
                   3: [(1, 1, 1), (2, 1, 1)]}[r]
    return make_table_field(rows, label="table:cubic")


def test_density_partial_sum_matches_pointwise_sums():
    # the in-place series against the exact sum of mu_1 J_1 / (J_k N) over
    # the ideals of norm <= X, from the pointwise functions
    xmax = 1000
    fields = {spec: FIELDS[spec] for spec in ("q", "q:-1", "q:5", "table:q(i)")}
    fields["table:cubic"] = _cubic_table(xmax)
    for spec, field in fields.items():
        terms = [(A.norm, k, Fraction(mu_1(A) * jordan_totient(1, A),
                                      jordan_totient(k, A) * A.norm))
                 for A in enumerate_ideals(field, xmax) if mu_1(A) for k in (2, 3)]
        for k in (2, 3):
            for X in (1, 2, xmax):
                exact = sum(t for n, order, t in terms if order == k and n <= X)
                got = mobius_density_partial_sum(field, k, X)
                assert abs(got - exact) <= 1e-13 * abs(exact), (spec, k, X)
            for X in (0, 0.5):
                assert mobius_density_partial_sum(field, k, X) == 0.0, (spec, k, X)
    for k in (2, 3):
        for X in (1, 2, xmax):
            assert mobius_density_partial_sum(fields["table:q(i)"], k, X).hex() == \
                mobius_density_partial_sum(fields["q:-1"], k, X).hex(), (k, X)


def test_lambda_generating_limit(rational, gaussian):
    # sum lambda_{k-1}(A) N(A)^-s -> zeta_F(ks)/zeta_F(s)
    for field in (rational, gaussian):
        for k in (2, 3):
            got = dirichlet_partial(field, "liouville", k - 1, 2.0, 1_000_000)
            want = dedekind_zeta(field, 2.0 * k).value / dedekind_zeta(field, 2.0).value
            assert abs(got - want) < 1e-3
    # rational k=2 closed form: zeta(4)/zeta(2) = pi^2/15
    got = dirichlet_partial(rational, "liouville", 1, 2.0, 1_000_000)
    assert got == pytest.approx(math.pi**2 / 15, abs=1e-3)


def test_kfree_generating_limit(rational, gaussian):
    for field in (rational, gaussian):
        for k in (2, 3):
            got = dirichlet_partial(field, "kfree", k, 2.0, 100_000)
            want = dedekind_zeta(field, 2.0).value / dedekind_zeta(field, 2.0 * k).value
            # truncation error of a tau-bounded series at X with s = 2
            assert abs(got - want) < 10 * 100_000 ** (-1.0)
    assert dirichlet_partial(rational, "kfree", 2, 2.0, 1) == 1.0


def test_generating_rejects_bad_arguments(rational):
    with pytest.raises(ValueError):
        mobius_density_constant(rational, 1)


def test_table_field_has_no_residue(tmp_path):
    from idealfunc.field import load_prime_table

    path = tmp_path / "tbl.txt"
    path.write_text("2 1 1 1\n3 1 1 1\n")
    field = load_prime_table(path)
    with pytest.raises(ValueError):
        residue_c_F(field)
