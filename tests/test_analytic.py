import math

import pytest

from idealfunc.analytic import (
    AnalyticValue,
    dedekind_zeta,
    dedekind_zeta_series,
    dirichlet_L,
    kfree_generating_partial,
    lambda_generating_partial,
    mobius_density_constant,
    mobius_density_partial_sum,
    residue_c_F,
    _prime_ideal_norms,
)
from idealfunc.field import primes_with_norm_up_to

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
        assert _prime_ideal_norms(any_field, cutoff) == [
            lab.norm for lab in primes_with_norm_up_to(any_field, cutoff)]


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


def test_lambda_generating_limit(rational, gaussian):
    # sum lambda_{k-1}(A) N(A)^-s -> zeta_F(ks)/zeta_F(s)
    for field in (rational, gaussian):
        for k in (2, 3):
            got = lambda_generating_partial(field, k, 2.0, 1_000_000)
            want = dedekind_zeta(field, 2.0 * k).value / dedekind_zeta(field, 2.0).value
            assert abs(got - want) < 1e-3
    # rational k=2 closed form: zeta(4)/zeta(2) = pi^2/15
    got = lambda_generating_partial(rational, 2, 2.0, 1_000_000)
    assert got == pytest.approx(math.pi**2 / 15, abs=1e-3)


def test_kfree_generating_limit(rational, gaussian):
    for field in (rational, gaussian):
        for k in (2, 3):
            got = kfree_generating_partial(field, k, 2.0, 100_000)
            want = dedekind_zeta(field, 2.0).value / dedekind_zeta(field, 2.0 * k).value
            # truncation error of a tau-bounded series at X with s = 2
            assert abs(got - want) < 10 * 100_000 ** (-1.0)
    assert kfree_generating_partial(rational, 2, 2.0, 1.0) == 1.0


def test_generating_rejects_bad_arguments(rational):
    with pytest.raises(ValueError):
        lambda_generating_partial(rational, 1, 2.0, 100)
    with pytest.raises(ValueError):
        lambda_generating_partial(rational, 2, 1.0, 100)
    with pytest.raises(ValueError):
        kfree_generating_partial(rational, 2, 0.5, 100)
    with pytest.raises(ValueError):
        mobius_density_constant(rational, 1)


def test_table_field_has_no_residue(tmp_path):
    from idealfunc.field import load_prime_table

    path = tmp_path / "tbl.txt"
    path.write_text("2 1 1 1\n3 1 1 1\n")
    field = load_prime_table(path)
    with pytest.raises(ValueError):
        residue_c_F(field)
