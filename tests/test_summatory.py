import math

import numpy as np
import pytest

from idealfunc._sieve import cumulative_array
from idealfunc._sublinear import kfree_counts
from idealfunc.field import integer_kth_root, make_quadratic_field, parse_field, primes_up_to
from idealfunc.ideals import ideal_count
from idealfunc.summatory import (
    CSV_HEADER,
    SummatoryReport,
    _normalizer,
    liouville_sum_k,
    mertens_k,
    qfree_count,
    sweep,
)


def classical_mobius_sieve(n):
    mu = np.ones(n + 1, dtype=np.int64)
    for p in primes_up_to(n):
        mu[p::p] *= -1
        mu[p * p:: p * p] = 0
    return mu


def classical_liouville_sieve(n):
    omega = np.zeros(n + 1, dtype=np.int64)
    rest = np.arange(n + 1, dtype=np.int64)
    for p in primes_up_to(n):
        q = p
        while q <= n:
            omega[q::q] += 1
            rest[q::q] //= p
            q *= p
    return np.where(np.arange(n + 1) >= 1, (-1) ** (omega % 2), 0)


def test_mertens_examples(rational, gaussian):
    assert mertens_k(rational, 1, 10) == -1    # classical M(10)
    assert mertens_k(rational, 1, 100) == 1
    assert mertens_k(rational, 2, 10) == 5
    assert mertens_k(gaussian, 1, 1) == 1


def test_mertens_matches_integer_sieve_oracle(rational):
    n = 10_000
    mu = classical_mobius_sieve(n)
    cum = np.cumsum(mu[1:])
    for x in (1, 2, 10, 97, 1000, 9999, 10_000):
        assert mertens_k(rational, 1, x) == cum[x - 1]


def test_liouville_matches_omega_sieve_oracle(rational):
    n = 10_000
    lam = classical_liouville_sieve(n)
    cum = np.cumsum(lam[1:])
    for x in (1, 2, 10, 100, 1234, 10_000):
        assert liouville_sum_k(rational, 1, x) == cum[x - 1]


# published M(10^n) (OEIS A084237) and Q(10^n), the squarefree count (A071172)
MERTENS_10N = (1, -1, 1, 2, -23, -48, 212, 1037, 1928, -222, -33722)
SQUAREFREE_10N = (1, 7, 61, 608, 6083, 60794, 607926, 6079291, 60792694, 607927124,
                  6079270942)


@pytest.mark.parametrize("n", range(len(MERTENS_10N)))
def test_published_mertens_and_squarefree_counts(rational, n):
    assert mertens_k(rational, 1, 10**n) == MERTENS_10N[n]
    assert qfree_count(rational, 2, 10**n) == SQUAREFREE_10N[n]


# sums over Q(sqrt(-1000003)), whose character has a prime period near 10^6,
# at x = 1000, 99999 and 10^8 (k = 1, 2, 3; qfree k = 2, 3)
LARGE_DISC_SUMS = {
    "count": (337, 32972, 32985635),
    ("mobius", 1): (-44, -487, -10021),
    ("mobius", 2): (277, 27125, 27169039),
    ("mobius", 3): (326, 31868, 31910387),
    ("liouville", 1): (-51, -932, -40325),
    ("liouville", 2): (-46, -589, -15227),
    ("liouville", 3): (-43, -512, -11047),
    ("qfree", 2): (304, 29661, 29699313),
    ("qfree", 3): (331, 32349, 32378383),
}


def test_large_discriminant_sums_pinned():
    field = make_quadratic_field(-1000003)
    sums = {"mobius": mertens_k, "liouville": liouville_sum_k, "qfree": qfree_count}
    for key, want in LARGE_DISC_SUMS.items():
        for x, value in zip((1000, 99999, 10**8), want):
            got = ideal_count(field, x) if key == "count" else sums[key[0]](field, key[1], x)
            assert got == value, (key, x)


# k-free counts and M_k sums of quadratic fields at large x.  Those to 10^12
# were recorded with count tables to x^(2/3), so each checks the count
# shape's tables to isqrt(x); Q_2 over q:-1 at 10^14 is also what a split of
# its sum at D ~ x^(2/5), a different formula, gave.
LARGE_X_SUMS = [
    ("q:-1", 10**12, "qfree", 2, 521269393924),
    ("q:-1", 10**12, "qfree", 3, 674318716335),
    ("q:-1", 10**12, "mobius", 2, 390811940719),
    ("q:-1", 10**12, "mobius", 3, 616468685950),
    ("q:5", 10**12, "qfree", 2, 370508404757),
    ("q:5", 10**12, "mobius", 2, 326463731155),
    ("q:-1000003", 10**11, "qfree", 2, 29699182149),
    ("q:-1000003", 10**11, "mobius", 2, 27167117121),
    ("q:-1", 10**14, "qfree", 2, 52126939292957),
]


@pytest.mark.parametrize("spec, x, fn, k, want", LARGE_X_SUMS)
def test_large_x_sums_pinned(spec, x, fn, k, want, fresh_memos):
    sums = {"mobius": mertens_k, "qfree": qfree_count}
    assert sums[fn](parse_field(spec), k, x) == want


def test_qfree_classical_anchor(rational):
    # 61 squarefree integers up to 100
    assert qfree_count(rational, 2, 100) == 61
    # density of squarefree integers is 6/pi^2
    got = qfree_count(rational, 2, 10**6) / 10**6
    assert got == pytest.approx(6 / math.pi**2, rel=1e-3)


def test_qfree_fast_equals_direct(any_field):
    # the inversion formula that answers qfree_count, against the k-free sieve
    xs = [1, 10, 100, 1000, 5000]
    for k in (2, 3):
        direct = cumulative_array(any_field, "kfree", k, 5000)[xs].tolist()
        assert [qfree_count(any_field, k, x) for x in xs] == direct
        assert kfree_counts(any_field, k, xs) == direct


def test_qfree_fast_array(any_field):
    # the inversion formula at every x of a grid, as the counting suite runs it
    for k in (2, 3):
        arr = kfree_counts(any_field, k, list(range(1, 2001)))
        for x in (1, 7, 100, 1999, 2000):
            assert arr[x - 1] == qfree_count(any_field, k, x)


def test_qfree_monotone_in_k(any_field):
    # every k-free ideal is (k+1)-free
    for x in (100, 1000):
        q2 = qfree_count(any_field, 2, x)
        q3 = qfree_count(any_field, 3, x)
        q4 = qfree_count(any_field, 4, x)
        assert q2 <= q3 <= q4 <= ideal_count(any_field, x)


def test_mertens_bounded_by_count(any_field):
    for k in (1, 2, 3):
        for x in (10, 100, 1000):
            assert abs(mertens_k(any_field, k, x)) <= ideal_count(any_field, x)
            assert abs(liouville_sum_k(any_field, k, x)) <= ideal_count(any_field, x)


def test_integer_kth_root():
    assert integer_kth_root(0, 2) == 0
    assert integer_kth_root(1, 5) == 1
    assert integer_kth_root(10**12, 2) == 10**6
    assert integer_kth_root(10**12 - 1, 2) == 10**6 - 1
    assert integer_kth_root(2**60, 3) == 2**20
    for n in range(100):
        r = integer_kth_root(n, 3)
        assert r**3 <= n < (r + 1) ** 3
    # exact far beyond float precision, where a float first guess is off by
    # about 10^135 units
    assert integer_kth_root(10**300 - 1, 2) == 10**150 - 1
    assert integer_kth_root(10**300 + 1, 2) == 10**150
    assert integer_kth_root(10**300 - 1, 3) == 10**100 - 1
    assert integer_kth_root(10**300 + 1, 3) == 10**100
    for n in (2**997 - 1, 2**997, 3**629 + 5):
        for k in (1, 3, 4, 5, 7, 64, 996, 997, 998):
            r = integer_kth_root(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)
        assert integer_kth_root(n, 10**400) == 1
    with pytest.raises(ValueError):
        integer_kth_root(-1, 2)


def test_remainder_examples(rational, gaussian):
    # on Q the count is exactly floor(x), so R(x) = floor(x) - x
    assert sweep("count", rational, 0, [10.0])[0].remainder == 0.0
    assert sweep("count", rational, 0, [10.5])[0].remainder == pytest.approx(-0.5)
    # Q(i): 9 ideals of norm <= 10, c_F = pi/4
    got = sweep("count", gaussian, 0, [10.0])[0].remainder
    assert got == pytest.approx(9 - 2.5 * math.pi, abs=1e-4)


def test_report_consistency(rational, gaussian):
    for field in (rational, gaussian):
        for k in (2, 3):
            (rep,) = sweep("mobius", field, k, [1000.0])
            assert rep.fn == "M" and rep.k == k and rep.field == field.label
            assert rep.remainder == rep.raw - rep.main
            assert rep.normalized == pytest.approx(
                rep.remainder / (1000.0 ** (1 / k) * math.log(1000.0)))
            assert rep.raw == mertens_k(field, k, 1000)

            (qrep,) = sweep("qfree", field, k, [1000.0])
            assert qrep.raw == qfree_count(field, k, 1000)
            assert qrep.fn == "Q"

            la, lb = sweep("liouville", field, k, [1000.0])
            assert la.raw == lb.raw == liouville_sum_k(field, k, 1000)
            assert la.main == 0.0
            assert la.normalizer == "x^0.6"
            assert la.normalized == pytest.approx(la.raw / 1000.0**0.6)
            assert lb.normalizer == "x*exp(-sqrt(log(x)))"


def test_kfree_main_term_accuracy(rational, gaussian):
    # Q_k(x) ~ c_F x / zeta_F(k): relative remainder shrinks at x = 10^6
    for field in (rational, gaussian):
        (rep,) = sweep("qfree", field, 2, [10**6])
        assert abs(rep.remainder) / rep.raw < 1e-3


def test_csv_row_format():
    rep = SummatoryReport(field="q", fn="M", k=2, x=100.0, raw=5,
                          main=4.5, normalizer="x^(1/2)*log(x)", scale=46.0517)
    row = rep.csv_row()
    assert row.startswith("q,M,2,")
    assert len(row.split(",")) == len(CSV_HEADER.split(","))


def test_normalizer_tags(rational, gaussian):
    # degree/k case table for the k-free remainder normalizer
    assert sweep("qfree", rational, 2, [100.0])[0].normalizer == "x^(1/2)"
    assert sweep("qfree", rational, 3, [100.0])[0].normalizer == "x^(1/3)"
    assert sweep("qfree", gaussian, 2, [100.0])[0].normalizer == "x^(1/2)"
    assert sweep("qfree", gaussian, 3, [100.0])[0].normalizer == "x^(1/3)*log(x)"


def test_sweep(rational):
    grid = [10.0, 100.0, 1000.0]
    reports = sweep("mobius", rational, 2, grid)
    assert [r.x for r in reports] == grid
    assert [r.raw for r in reports] == [mertens_k(rational, 2, x) for x in grid]
    both = sweep("liouville", rational, 2, grid)
    assert len(both) == 2 * len(grid)
    with pytest.raises(ValueError):
        sweep("mobius", rational, 2, [10.0, 10.0])
    with pytest.raises(ValueError):
        sweep("nope", rational, 2, grid)
    assert sweep("qfree", rational, 2, []) == []


def test_invalid_arguments(rational):
    with pytest.raises(ValueError):
        mertens_k(rational, 0, 10)
    with pytest.raises(ValueError):
        qfree_count(rational, 1, 10)
    with pytest.raises(ValueError):
        mertens_k(rational, 1, 0.5)
    with pytest.raises(ValueError):
        sweep("mobius", rational, 1, [10.0])


# The bits of `normalized` at PINNED_XS for every normalizer tag that reports
# over Q and Q(i) emit, theorems 0-3 at orders 2-5, keyed by
# (kind, field, k, tag).  Rows with a main term carry the bits of c_F,
# zeta_F(k) and K_F(k) too, so more exact constants change them.
PINNED_XS = (1.0, 2.0, math.e, 1000.5, 1e9)
NORMALIZED_BITS = {
    ("count", "q", 0, "x^((d-1)/(d+1));d=1"):
        ("0x0.0p+0", "0x0.0p+0", "-0x1.6fc2a2c515da4p-1",
         "-0x1.0000000000000p-1", "0x0.0p+0"),
    ("mobius", "q", 2, "x^(1/2)*log(x)"):
        ("0x1.24bc6406d335cp-1", "0x1.9dfdb7894b488p-1", "0x1.0394febea028fp-1",
         "-0x1.99b657f4168abp-6", "-0x1.e710c15a77664p-11"),
    ("mobius", "q", 3, "x^(1/3)*log(x)"):
        ("0x1.056e8b1bf4298p-2", "0x1.9eff43f09e0b1p-2", "-0x1.1d2eafa1e2ccap-6",
         "-0x1.016854a9d04c7p-10", "-0x1.2b2766a2cfb66p-12"),
    ("mobius", "q", 4, "x^(1/4)*log(x)"):
        ("0x1.da908dbdce308p-4", "0x1.8f0f4a0e5e04ep-3", "-0x1.41a9213e9c6e3p-2",
         "0x1.60e905754cd95p-7", "-0x1.0f0a4831b2de3p-9"),
    ("mobius", "q", 5, "x^(1/5)*log(x)"):
        ("0x1.bb07588487a00p-5", "0x1.81adcb0bc6e51p-4", "-0x1.def22e2b39cf6p-2",
         "-0x1.d3601b3be68a0p-7", "0x1.a27a760e1fa05p-9"),
    ("liouville", "q", 2, "x^0.6"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "-0x1.03974dd0ebb5bp-5", "0x1.0461b7a1fbb5fp-8"),
    ("liouville", "q", 2, "x*exp(-sqrt(log(x)))"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "-0x1.c5a45fd9604d0p-6", "0x1.8d072ad13c3d5p-14"),
    ("liouville", "q", 3, "x^0.6"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "-0x1.03974dd0ebb5bp-6", "0x1.4f42d2052698fp-8"),
    ("liouville", "q", 3, "x*exp(-sqrt(log(x)))"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "-0x1.c5a45fd9604d0p-7", "0x1.ff3410e8fb38ep-14"),
    ("liouville", "q", 4, "x^0.6"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "-0x1.8562f4b961909p-5", "-0x1.7d2e16d440016p-8"),
    ("liouville", "q", 4, "x*exp(-sqrt(log(x)))"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "-0x1.543b47e30839cp-5", "-0x1.229c343f1ddb5p-13"),
    ("liouville", "q", 5, "x^0.6"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "0x1.03974dd0ebb5bp-5", "0x1.3d42387f9845dp-12"),
    ("liouville", "q", 5, "x*exp(-sqrt(log(x)))"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "0x1.c5a45fd9604d0p-6", "0x1.e3c0e8c1607bfp-18"),
    ("qfree", "q", 2, "x^(1/2)"):
        ("0x1.917b6e11f5f98p-2", "0x1.1be4082a18211p-1", "0x1.afa1faee86c0dp-3",
         "-0x1.dfc21dd1eb19cp-8", "-0x1.e26c6f5fdb91bp-7"),
    ("qfree", "q", 3, "x^(1/3)"):
        ("0x1.5840f28b99040p-3", "0x1.113bfdefc11a8p-2", "-0x1.7f884c6822f2dp-3",
         "0x1.151e8fbca9ae0p-4", "-0x1.324599999999bp-11"),
    ("qfree", "q", 4, "x^(1/4)"):
        ("0x1.378c5d7eeebe8p-4", "0x1.05fad77376331p-3", "-0x1.97efe409f71afp-2",
         "0x1.b4b44e6f0f131p-4", "0x1.1ba03e6b91f28p-6"),
    ("qfree", "q", 5, "x^(1/5)"):
        ("0x1.23bd2905c1ba0p-5", "0x1.fbf26aa8f72ccp-5", "-0x1.048450e4b5f7bp-1",
         "0x1.0c700e69a10cep-5", "0x1.2867cdf937a5bp-7"),
    ("count", "q:-1", 0, "x^((d-1)/(d+1));d=2"):
        ("0x1.b7812aeef4ba0p-3", "0x1.5cd5c2a8f3ec1p-2", "-0x1.8c04a52a25184p-4",
         "0x1.ef2e2263f7047p-4", "-0x1.f6f7c810624e0p-5"),
    ("mobius", "q:-1", 2, "x^(1/2)*log(x)"):
        ("0x1.37e76a674f6e0p-1", "0x1.b9194c51649eap-1", "0x1.232f4fba951dep-1",
         "-0x1.2e4f073fc696dp-8", "0x1.0a94c7af66c95p-11"),
    ("mobius", "q:-1", 3, "x^(1/3)*log(x)"):
        ("0x1.88bc6ea7603f8p-2", "0x1.37b6fe73af54ap-1", "0x1.dbd7fecfc5034p-3",
         "0x1.07932410bf815p-5", "-0x1.19985f8b5fc96p-8"),
    ("mobius", "q:-1", 4, "x^(1/4)*log(x)"):
        ("0x1.2bb0ae091fca2p-2", "0x1.f8044a0e882f0p-2", "0x1.ecf5dd529e41fp-5",
         "0x1.5d371e8ccbb31p-4", "-0x1.8057690411b7ap-6"),
    ("mobius", "q:-1", 5, "x^(1/5)*log(x)"):
        ("0x1.025e73d9ad184p-2", "0x1.c1d8b2d9a2c56p-2", "-0x1.b2ec1c0e94001p-6",
         "0x1.20d7271737334p-4", "-0x1.856609356e361p-5"),
    ("liouville", "q:-1", 2, "x^0.6"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "-0x1.c648c82d9c7e0p-4", "-0x1.11bc98d3ab8e1p-4"),
    ("liouville", "q:-1", 2, "x*exp(-sqrt(log(x)))"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "-0x1.8cefd3de34436p-4", "-0x1.a1643f9001d06p-10"),
    ("liouville", "q:-1", 3, "x^0.6"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "-0x1.8562f4b961909p-4", "-0x1.1f06c760b2ffdp-5"),
    ("liouville", "q:-1", 3, "x*exp(-sqrt(log(x)))"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "-0x1.543b47e30839cp-4", "-0x1.b5a7de5d79d7bp-11"),
    ("liouville", "q:-1", 4, "x^0.6"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "-0x1.03974dd0ebb5bp-4", "-0x1.d9e60c215437bp-5"),
    ("liouville", "q:-1", 4, "x*exp(-sqrt(log(x)))"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "-0x1.c5a45fd9604d0p-5", "-0x1.694c67f129c8cp-10"),
    ("liouville", "q:-1", 5, "x^0.6"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "-0x1.03974dd0ebb5bp-4", "-0x1.8533ebf1292c0p-5"),
    ("liouville", "q:-1", 5, "x*exp(-sqrt(log(x)))"):
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "-0x1.c5a45fd9604d0p-5", "-0x1.28ba09b73ef1fp-10"),
    ("qfree", "q:-1", 2, "x^(1/2)"):
        ("0x1.ea383f2d5b79ep-2", "0x1.5aa33f42fa09dp-1", "0x1.6a1eb06f88854p-2",
         "0x1.7c99397ad7088p-5", "-0x1.69b8bc2aea358p-8"),
    ("qfree", "q:-1", 3, "x^(1/3)*log(x)"):
        ("0x1.4d7f64e74b0cap-2", "0x1.08b27ec876aaap-1", "0x1.ea2a25a516935p-4",
         "0x1.3eba0246388f2p-6", "-0x1.43bb8b4ae0c4fp-8"),
    ("qfree", "q:-1", 4, "x^((d-1)/(d+1));d=2"):
        ("0x1.109e26ca604f4p-2", "0x1.b0c0f5bf3169cp-2", "0x1.fb5088331fcf0p-9",
         "0x1.24f5c338ab67cp-2", "-0x1.01430645a1caep-4"),
    ("qfree", "q:-1", 5, "x^((d-1)/(d+1));d=2"):
        ("0x1.eacde9c752754p-3", "0x1.858d3a366916bp-2", "-0x1.885ce898e6004p-5",
         "0x1.d0e5c8794af71p-3", "-0x1.9d98d51eb8521p-6"),
}
DEGREE_3_BITS = {
    ("qfree", 2, "x^(1/2)*log(x)"):
        ("0x1.0000000000000p+0", "0x1.6a09e667f3bcdp+0", "0x1.a61298e1e069cp+0",
         "0x1.b5068ff8df283p+7", "0x1.3ffbe697b549cp+19"),
    ("qfree", 3, "x^((d-1)/(d+1));d=3"):
        ("0x1.0000000000000p+0", "0x1.6a09e667f3bcdp+0", "0x1.a61298e1e069cp+0",
         "0x1.fa17454877f67p+4", "0x1.ee1b1b3d78c7ap+14"),
    ("count", 0, "x^((d-1)/(d+1));d=3"):
        ("0x1.0000000000000p+0", "0x1.6a09e667f3bcdp+0", "0x1.a61298e1e069cp+0",
         "0x1.fa17454877f67p+4", "0x1.ee1b1b3d78c7ap+14"),
}


def test_normalized_bits_pinned(rational, gaussian):
    fields = {"q": rational, "q:-1": gaussian}
    for (kind, label, k, tag), bits in NORMALIZED_BITS.items():
        reports = [r for r in sweep(kind, fields[label], k, PINNED_XS) if r.normalizer == tag]
        assert tuple(r.normalized.hex() for r in reports) == bits, (kind, label, k, tag)
    # no built-in field has degree 3, and a table field has no c_F to report
    # against, so degree 3 is pinned on the normalizer alone
    for (kind, k, tag), bits in DEGREE_3_BITS.items():
        got, scale = _normalizer(kind, 3, k)
        assert got == tag
        assert tuple(scale(x).hex() for x in PINNED_XS) == bits, (kind, k)
