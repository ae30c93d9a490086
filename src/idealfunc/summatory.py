"""Summatory functions of the order-k Mobius, Liouville and k-free
indicator functions, and remainder reports.

Raw sums are exact integers, all from `_sublinear.exact_sums`: the
rationals and quadratic fields take its sublinear formulas, and table
fields the per-norm coefficient sieve.  The report types pair raw sums with
real main terms and the normalizers under which the remainders are expected
to stay bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import _sublinear
from ._sublinear import integer_kth_root
from .analytic import dedekind_zeta, mobius_density_constant, residue_c_F
from .field import FieldSpec

__all__ = [
    "SummatoryReport",
    "CSV_HEADER",
    "mertens_k",
    "liouville_sum_k",
    "qfree_count",
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
    return _sublinear.exact_sums(field, "mobius", k, [_floor_x(x)])[0]


def liouville_sum_k(field: FieldSpec, k: int, x: float) -> int:
    """Exact sum of lambda_k over all ideals of norm <= x."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _sublinear.exact_sums(field, "liouville", k, [_floor_x(x)])[0]


def qfree_count(field: FieldSpec, k: int, x: float) -> int:
    """Number of k-free ideals of norm <= x."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return _sublinear.exact_sums(field, "kfree", k, [_floor_x(x)])[0]


_CONST_CACHE: dict[tuple, float] = {}


def _constant(name: str, fn, field: FieldSpec, *args) -> float:
    """fn(field, *args).value, found once per process under `name`."""
    key = (name, field.cache_key(), *args)
    if key not in _CONST_CACHE:
        _CONST_CACHE[key] = fn(field, *args).value
    return _CONST_CACHE[key]


def count_report(field: FieldSpec, x: float) -> SummatoryReport:
    """Ideal-count report: main term c_F x, so the remainder is R(x),
    normalized by x^((d-1)/(d+1))."""
    return sweep("count", field, 0, [x])[0]


def mobius_report(field: FieldSpec, k: int, x: float) -> SummatoryReport:
    """Order-k Mobius summatory report: main term (c_F / zeta_F(k)) K x,
    remainder normalized by x^(1/k) log x."""
    return sweep("mobius", field, k, [x])[0]


def liouville_reports(field: FieldSpec, k: int,
                      x: float) -> tuple[SummatoryReport, SummatoryReport]:
    """Order-k Liouville cancellation probes (main term 0).

    Two normalizations are reported: x^0.6 (square-root-cancellation probe
    with epsilon 0.1) and x exp(-sqrt(log x)) (the unconditional shape; the
    constant in the exponent is a reporting convention, not a proved value).
    """
    return tuple(sweep("liouville", field, k, [x]))


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
    return sweep("qfree", field, k, [x])[0]


# the coefficient kind and the least order of each report kind
_REPORT_KINDS = {"count": ("count", 0), "mobius": ("mobius", 2),
                 "liouville": ("liouville", 1), "qfree": ("kfree", 2)}


def sweep(kind: str, field: FieldSpec, k: int,
          x_grid: Sequence[float]) -> list[SummatoryReport]:
    """One report per grid point, each raw sum exact.

    Every point is answered as `sum` answers it, in one call for the whole
    grid: over Q and quadratic fields by the sublinear route, whose tables
    built for the largest x serve every point, and over a table field by one
    sieve to the largest x, which every point reads.  The grid must be
    strictly increasing; for the Liouville kind both normalizations are
    emitted per point.  The count kind ignores k.
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
        c_F = _constant("c_F", residue_c_F, field)
    coeff_kind, least = _REPORT_KINDS[kind]
    k = 0 if kind == "count" else k
    if k < least:
        raise ValueError(f"k must be >= {least}")
    raws = _sublinear.exact_sums(field, coeff_kind, k, [_floor_x(x) for x in grid])
    if kind == "liouville":
        return [SummatoryReport(field.label, "L", k, x, raw, 0.0, tag)
                for x, raw in zip(grid, raws) for tag in ("x^0.6", "x*exp(-sqrt(log(x)))")]
    if kind == "count":
        fn, main, normalizer = "R", lambda x: c_F * x, f"x^((d-1)/(d+1));d={field.degree}"
    else:
        zeta = _constant("zeta", dedekind_zeta, field, float(k))
        if kind == "mobius":
            K = _constant("K", mobius_density_constant, field, k)
            fn, main, normalizer = "M", lambda x: c_F / zeta * K * x, f"x^(1/{k})*log(x)"
        else:
            fn, main, normalizer = "Q", lambda x: c_F * x / zeta, _kfree_normalizer(field.degree, k)
    return [SummatoryReport(field.label, fn, k, x, raw, main(x), normalizer)
            for x, raw in zip(grid, raws)]
