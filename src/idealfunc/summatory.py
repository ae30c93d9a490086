"""Summatory functions of the order-k Mobius, Liouville and k-free
indicator functions, exact fast formulas, and remainder reports.

Raw sums are exact integers obtained from per-norm coefficient sieves; the
report types pair them with real main terms and the normalizers under which
the remainders are expected to stay bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _sieve
from .analytic import dedekind_zeta, mobius_density_constant, residue_c_F
from .field import FieldSpec, _check_memory
from .ideals import ideal_count

__all__ = [
    "SummatoryReport",
    "CSV_HEADER",
    "mertens_k",
    "liouville_sum_k",
    "qfree_count",
    "qfree_count_fast",
    "qfree_count_fast_array",
    "remainder_R",
    "count_report",
    "mobius_report",
    "liouville_reports",
    "kfree_report",
    "sweep",
    "integer_kth_root",
]

CSV_HEADER = "field,fn,k,x,raw,main,remainder,normalizer,normalized"


@dataclass(frozen=True)
class SummatoryReport:
    """One summatory data point: exact raw sum vs. real main term at one x."""

    field: str
    fn: str
    k: int
    x: float
    raw: int
    main: float
    normalizer: str

    @property
    def remainder(self) -> float:
        return self.raw - self.main

    @property
    def normalized(self) -> float:
        return self.remainder / _normalizer_value(self.normalizer, self.x)

    def csv_row(self) -> str:
        return (f"{self.field},{self.fn},{self.k},{self.x:.10g},{self.raw},"
                f"{self.main:.10g},{self.remainder:.10g},{self.normalizer},"
                f"{self.normalized:.10g}")


def _clamped_log(x: float) -> float:
    # log factors in normalizers are clamped to 1 below x = e
    return max(math.log(x), 1.0) if x > 0 else 1.0


def _normalizer_value(tag: str, x: float) -> float:
    if tag == "x^(1/2)":
        return math.sqrt(x)
    if tag == "x^(1/3)*log(x)":
        return x ** (1.0 / 3.0) * _clamped_log(x)
    if tag == "x^(1/2)*log(x)":
        return math.sqrt(x) * _clamped_log(x)
    if tag == "x^0.6":
        return x**0.6
    if tag == "x*exp(-sqrt(log(x)))":
        return x * math.exp(-math.sqrt(max(math.log(x), 0.0)))
    if tag.startswith("x^(1/") and tag.endswith(")*log(x)"):
        k = int(tag[5 : tag.index(")")])
        return x ** (1.0 / k) * _clamped_log(x)
    if tag.startswith("x^(1/") and tag.endswith(")"):
        k = int(tag[5:-1])
        return x ** (1.0 / k)
    if tag.startswith("x^((d-1)/(d+1));d="):
        d = int(tag.rsplit("=", 1)[1])
        return x ** ((d - 1.0) / (d + 1.0))
    raise ValueError(f"unknown normalizer tag {tag!r}")


def _floor_x(x: float) -> int:
    if x < 1:
        raise ValueError("x must be >= 1")
    return math.floor(x)


def mertens_k(field: FieldSpec, k: int, x: float) -> int:
    """Exact sum of mu_k over all ideals of norm <= x."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = _floor_x(x)
    return int(_sieve.cumulative_array(field, "mobius", k, n)[n])


def liouville_sum_k(field: FieldSpec, k: int, x: float) -> int:
    """Exact sum of lambda_k over all ideals of norm <= x."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = _floor_x(x)
    return int(_sieve.cumulative_array(field, "liouville", k, n)[n])


def qfree_count(field: FieldSpec, k: int, x: float) -> int:
    """Number of k-free ideals of norm <= x, by direct accumulation of q_k."""
    if k < 2:
        raise ValueError("k must be >= 2")
    n = _floor_x(x)
    return int(_sieve.cumulative_array(field, "kfree", k, n)[n])


def integer_kth_root(n: int, k: int) -> int:
    """Largest r with r**k <= n."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n == 0:
        return 0
    if k == 2:
        return math.isqrt(n)
    if k >= n.bit_length():  # n < 2^k
        return 1
    # integer Newton from 2^ceil(bits / k) >= n^(1/k): the iterates fall
    # strictly until they reach the root
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def qfree_count_fast(field: FieldSpec, k: int, x: float) -> int:
    """k-free count by the exact inversion formula
    sum_{N(D) <= x^(1/k)} mu_1(D) [x / N(D)^k]_F; equals qfree_count."""
    if k < 2:
        raise ValueError("k must be >= 2")
    n = _floor_x(x)
    root = integer_kth_root(n, k)
    _check_memory(root, what=f"x = {n:.3g} is too large for the inversion formula, "
                             f"which sieves up to x^(1/{k}) = {root:.3g}")
    mu1 = _sieve.coefficient_array(field, "mobius", 1, root)
    total = 0
    for d in range(1, root + 1):
        c = int(mu1[d])
        if c:
            total += c * ideal_count(field, n // d**k)
    return total


def qfree_count_fast_array(field: FieldSpec, k: int, xmax: int) -> np.ndarray:
    """Vectorized qfree_count_fast for every integer x in [0, xmax]."""
    if k < 2:
        raise ValueError("k must be >= 2")
    xmax = int(xmax)
    root = integer_kth_root(xmax, k)
    mu1 = _sieve.coefficient_array(field, "mobius", 1, root)
    counts = _sieve.cumulative_array(field, "count", 0, xmax)
    xs = np.arange(xmax + 1, dtype=np.int64)
    total = np.zeros(xmax + 1, dtype=np.int64)
    for d in range(1, root + 1):
        c = int(mu1[d])
        if c:
            lo = d**k
            total[lo:] += c * counts[xs[lo:] // lo]
    return total


def remainder_R(field: FieldSpec, x: float) -> float:
    """R(x) = [x]_F - c_F x."""
    return ideal_count(field, x) - _c_F(field) * x


_CONST_CACHE: dict[tuple, float] = {}


def _c_F(field: FieldSpec) -> float:
    key = ("c_F", field.cache_key())
    if key not in _CONST_CACHE:
        _CONST_CACHE[key] = residue_c_F(field).value
    return _CONST_CACHE[key]


def _zeta_F(field: FieldSpec, s: float) -> float:
    key = ("zeta", field.cache_key(), s)
    if key not in _CONST_CACHE:
        _CONST_CACHE[key] = dedekind_zeta(field, s).value
    return _CONST_CACHE[key]


def _density_K(field: FieldSpec, k: int) -> float:
    key = ("K", field.cache_key(), k)
    if key not in _CONST_CACHE:
        _CONST_CACHE[key] = mobius_density_constant(field, k).value
    return _CONST_CACHE[key]


def count_report(field: FieldSpec, x: float) -> SummatoryReport:
    """Ideal-count report: main term c_F x, so the remainder is R(x),
    normalized by x^((d-1)/(d+1))."""
    return SummatoryReport(field=field.label, fn="R", k=0, x=x, raw=ideal_count(field, x),
                           main=_c_F(field) * x,
                           normalizer=f"x^((d-1)/(d+1));d={field.degree}")


def mobius_report(field: FieldSpec, k: int, x: float) -> SummatoryReport:
    """Order-k Mobius summatory report: main term (c_F / zeta_F(k)) K x,
    remainder normalized by x^(1/k) log x."""
    if k < 2:
        raise ValueError("k must be >= 2")
    raw = mertens_k(field, k, x)
    main = _c_F(field) / _zeta_F(field, float(k)) * _density_K(field, k) * x
    return SummatoryReport(field=field.label, fn="M", k=k, x=x, raw=raw,
                           main=main, normalizer=f"x^(1/{k})*log(x)")


def liouville_reports(field: FieldSpec, k: int,
                      x: float) -> tuple[SummatoryReport, SummatoryReport]:
    """Order-k Liouville cancellation probes (main term 0).

    Two normalizations are reported: x^0.6 (square-root-cancellation probe
    with epsilon 0.1) and x exp(-sqrt(log x)) (the unconditional shape; the
    constant in the exponent is a reporting convention, not a proved value).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    raw = liouville_sum_k(field, k, x)
    mk = lambda tag: SummatoryReport(field=field.label, fn="L", k=k, x=x,  # noqa: E731
                                     raw=raw, main=0.0, normalizer=tag)
    return (mk("x^0.6"), mk("x*exp(-sqrt(log(x)))"))


def _kfree_normalizer(d: int, k: int) -> str:
    if d == 1:
        return f"x^(1/{k})"
    if (d, k) == (2, 2):
        return "x^(1/2)"
    if (d, k) == (2, 3):
        return "x^(1/3)*log(x)"
    if (d, k) == (3, 2):
        return "x^(1/2)*log(x)"
    return f"x^((d-1)/(d+1));d={d}"


def kfree_report(field: FieldSpec, k: int, x: float) -> SummatoryReport:
    """k-free count report: main term c_F x / zeta_F(k), remainder normalized
    by the (degree, k) case table."""
    if k < 2:
        raise ValueError("k must be >= 2")
    raw = qfree_count(field, k, x)
    main = _c_F(field) * x / _zeta_F(field, float(k))
    return SummatoryReport(field=field.label, fn="Q", k=k, x=x, raw=raw,
                           main=main, normalizer=_kfree_normalizer(field.degree, k))


_REPORT_KINDS = {"count", "mobius", "liouville", "qfree"}


def sweep(kind: str, field: FieldSpec, k: int,
          x_grid: Sequence[float]) -> list[SummatoryReport]:
    """One report per grid point, sharing a single coefficient sieve pass.

    The grid must be strictly increasing; for the Liouville kind both
    normalizations are emitted per point.  The count kind ignores k.
    """
    if kind not in _REPORT_KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    grid = list(x_grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("x_grid must be strictly increasing")
    if not grid:
        return []
    # every kind but Liouville needs c_F: refuse a field without one (a table
    # field) before sieving anything
    if kind != "liouville":
        _c_F(field)
    # prime the cumulative cache at the largest x so every point reuses it
    if kind == "count":
        ideal_count(field, grid[-1])
    else:
        coeff_kind = {"mobius": "mobius", "liouville": "liouville", "qfree": "kfree"}[kind]
        _sieve.cumulative_array(field, coeff_kind, k, math.floor(grid[-1]))
    out: list[SummatoryReport] = []
    for x in grid:
        if kind == "count":
            out.append(count_report(field, x))
        elif kind == "mobius":
            out.append(mobius_report(field, k, x))
        elif kind == "liouville":
            out.extend(liouville_reports(field, k, x))
        else:
            out.append(kfree_report(field, k, x))
    return out
