"""Acceptance gate: end-to-end checks of every headline claim.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on
failure).  Exact identities are checked by brute force; asymptotic shapes
are checked empirically via dense decade maxima over [10^3, 10^7].
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from idealfunc import _sieve, _sublinear
from idealfunc.analytic import (
    dedekind_zeta,
    dedekind_zeta_series,
    lambda_generating_partial,
    mobius_density_constant,
    mobius_density_partial_sum,
)
from idealfunc.field import make_quadratic_field, make_rational_field, primes_up_to
from idealfunc.summatory import qfree_count, sweep
from idealfunc.verify import counting_suite, identity_suite

RATIONAL = make_rational_field()
GAUSSIAN = make_quadratic_field(-1)
ALL_FIELDS = [
    RATIONAL,
    GAUSSIAN,
    make_quadratic_field(-5),
    make_quadratic_field(2),
    make_quadratic_field(5),
]
QUADRATIC_FIELDS = ALL_FIELDS[1:]

XBIG = 10**7
DECADES = [(10**j, 10 ** (j + 1)) for j in range(3, 7)]


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _decade_maxima(values: np.ndarray) -> list[float]:
    """Max of |values[x]| over every integer x in each decade of [10^3, 10^7]."""
    return [float(np.max(np.abs(values[lo : hi + 1]))) for lo, hi in DECADES]


def _max_adjacent_ratio(maxima: list[float]) -> float:
    return max(b / a for a, b in zip(maxima, maxima[1:]))


def test_criterion_identities():
    """Every exact identity holds on every ideal of norm <= 5000, all five
    fields, orders up to 4."""
    failures = []
    tested = 0
    for field in ALL_FIELDS:
        for res in identity_suite(field, xmax=5000, kmax=4):
            tested += res.tested
            if not res.ok:
                failures.append(f"{field.label}/{res.name}: {res.note}")
    _report("exact identity suite", not failures,
            f"{tested} checks over {len(ALL_FIELDS)} fields"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_kfree_inversion_exact():
    """The Mobius inversion formula for the k-free count is exact at every
    integer x <= 10^5, all five fields, k in {2, 3}: the route of every k-free
    sum, with the count table primed to 10^5 as the counting suite primes it."""
    bad = []
    total = 0
    xs = list(range(1, 10**5 + 1))
    for field in ALL_FIELDS:
        _sieve.cumulative_array(field, "count", 0, 10**5)
        for k in (2, 3):
            direct = _sieve.cumulative_array(field, "kfree", k, 10**5)[1:]
            formula = np.array(_sublinear.kfree_counts(field, k, xs))
            total += 10**5
            if not np.array_equal(direct, formula):
                x = int(np.nonzero(direct != formula)[0][0]) + 1
                bad.append(f"{field.label} k={k} first mismatch at x={x}")
    _report("k-free inversion formula exactness", not bad,
            f"{total} (field, k, x) points" + (f"; {bad}" if bad else ""))


def test_criterion_classical_anchors():
    """Over the rationals the machinery reproduces the classical objects:
    squarefree counts, Mertens sums, and Liouville sums from independent
    integer sieves."""
    notes = []
    ok = True

    if qfree_count(RATIONAL, 2, 100) != 61:
        ok, _ = False, notes.append("Q_2(100) != 61")
    density = qfree_count(RATIONAL, 2, 10**6) / 10**6
    if abs(density - 6 / math.pi**2) > 1e-3 * (6 / math.pi**2):
        ok, _ = False, notes.append(f"squarefree density {density}")

    n = 10**5
    mu = np.ones(n + 1, dtype=np.int64)
    omega = np.zeros(n + 1, dtype=np.int64)
    for p in primes_up_to(n):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        q = p
        while q <= n:
            omega[q::q] += 1
            q *= p
    mu[0] = 0
    lam = np.where(np.arange(n + 1) >= 1, 1 - 2 * (omega % 2), 0)

    if not np.array_equal(np.cumsum(mu),
                          _sieve.cumulative_array(RATIONAL, "mobius", 1, n)):
        ok, _ = False, notes.append("M_1 mismatch vs integer Mobius sieve")
    if not np.array_equal(np.cumsum(lam),
                          _sieve.cumulative_array(RATIONAL, "liouville", 1, n)):
        ok, _ = False, notes.append("L_1 mismatch vs integer Liouville sieve")

    _report("classical anchors over the rationals", ok,
            f"Q_2(100)=61, density {density:.6f}, M_1/L_1 exact to x=10^5"
            + (f"; {notes}" if notes else ""))


def test_criterion_count_remainder_shape():
    """|[x]_F - c_F x| stays commensurate with x^(1/3) across decades up to
    10^7 for each quadratic field (decade maxima ratio <= 3)."""
    from idealfunc.analytic import residue_c_F

    notes = []
    ok = True
    for field in QUADRATIC_FIELDS:
        counts = _sieve.cumulative_array(field, "count", 0, XBIG)
        c = residue_c_F(field).value
        x = np.arange(XBIG + 1, dtype=np.float64)
        normalized = (counts - c * x) / np.maximum(x, 1.0) ** (1.0 / 3.0)
        maxima = _decade_maxima(normalized)
        ratio = _max_adjacent_ratio(maxima)
        notes.append(f"{field.label}: max ratio {ratio:.2f}")
        if not all(math.isfinite(m) for m in maxima) or ratio > 3.0:
            ok = False
    _report("ideal-count remainder is O(x^(1/3))-shaped", ok, "; ".join(notes))


def test_criterion_generating_function():
    """The Liouville Dirichlet series partial sum at s=2 matches
    zeta_F(2k)/zeta_F(2) to 1e-3, with the zeta values themselves validated
    by two independent methods."""
    notes = []
    ok = True
    for field in (RATIONAL, GAUSSIAN):
        for k in (2, 3):
            for s in (2.0, 2.0 * k):
                e = dedekind_zeta(field, s)
                srs = dedekind_zeta_series(field, s)
                if abs(e.value - srs.value) > e.tail_bound + srs.tail_bound + 1e-12:
                    ok = False
                    notes.append(f"zeta dual-method gap at {field.label}, s={s}")
            got = lambda_generating_partial(field, k, 2.0, 10**6)
            want = (dedekind_zeta(field, 2.0 * k).value
                    / dedekind_zeta(field, 2.0).value)
            gap = abs(got - want)
            notes.append(f"{field.label} k={k}: gap {gap:.2e}")
            if gap > 1e-3:
                ok = False
    _report("Liouville generating function", ok, "; ".join(notes))


def test_criterion_mobius_sum_shape_and_constant():
    """M_k(x) minus its linear main term stays commensurate with
    x^(1/k) log x (decade maxima ratio <= 3), and the leading constant agrees
    between the Euler product and the direct ideal sum to 1e-5."""
    notes = []
    ok = True
    for field in (RATIONAL, GAUSSIAN):
        for k in (2, 3):
            cum = _sieve.cumulative_array(field, "mobius", k, XBIG)
            (rep,) = sweep("mobius", field, k, [float(XBIG)])
            slope = rep.main / XBIG
            x = np.arange(XBIG + 1, dtype=np.float64)
            norm = np.maximum(x, math.e) ** (1.0 / k) * np.log(np.maximum(x, math.e))
            normalized = (cum - slope * x) / norm
            maxima = _decade_maxima(normalized)
            ratio = _max_adjacent_ratio(maxima)
            notes.append(f"{field.label} k={k}: ratio {ratio:.2f}")
            if not all(math.isfinite(m) for m in maxima) or ratio > 3.0:
                ok = False

            euler = mobius_density_constant(field, k).value
            partial = mobius_density_partial_sum(field, k, 10**6)
            if abs(euler - partial) > 1e-5:
                ok = False
                notes.append(f"{field.label} k={k}: constant gap {abs(euler - partial):.2e}")
    _report("Mobius summatory shape and constant", ok, "; ".join(notes))


def test_criterion_liouville_cancellation():
    """|L_k(x)| <= x^0.6 at every integer x in [10^3, 10^7]."""
    notes = []
    ok = True
    for field in (RATIONAL, GAUSSIAN):
        for k in (2, 3):
            cum = _sieve.cumulative_array(field, "liouville", k, XBIG)
            x = np.arange(XBIG + 1, dtype=np.float64)
            normalized = np.abs(cum[1000:]) / x[1000:] ** 0.6
            worst = float(np.max(normalized))
            notes.append(f"{field.label} k={k}: max {worst:.3f}")
            if worst > 1.0:
                ok = False
    _report("Liouville square-root-type cancellation", ok, "; ".join(notes))


def test_criterion_cli_determinism(tmp_path):
    """CLI report output is byte-identical across repeated runs."""
    argv = [sys.executable, "-m", "idealfunc.cli", "report", "--field", "q:-1",
            "--theorem", "1", "--order", "2", "--grid", "100:100000:7"]
    outputs = []
    for _ in range(3):
        proc = subprocess.run(argv, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] == outputs[2]
    _report("CLI byte-determinism", ok,
            f"{len(outputs[0])} bytes, three runs identical={ok}")


def test_counting_suites_pass():
    """Counting invariants (enumeration vs sieve vs inversion) on all fields."""
    failures = []
    for field in ALL_FIELDS:
        for res in counting_suite(field, xmax=10_000, kmax=4):
            if not res.ok:
                failures.append(f"{field.label}/{res.name}: {res.note}")
    assert not failures, failures
