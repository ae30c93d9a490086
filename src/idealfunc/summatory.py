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
from typing import Callable, Sequence

import numpy as np

from . import _sublinear
from .field import FieldSpec, kept_array

__all__ = [
    "SummatoryReport",
    "CSV_HEADER",
    "mertens_k",
    "liouville_sum_k",
    "qfree_count",
    "sweep",
]

CSV_HEADER = "field,fn,k,x,raw,main,remainder,normalizer,normalized"


@dataclass(frozen=True)
class SummatoryReport:
    """One summatory data point: exact raw sum vs. real main term at one x,
    with the normalizer's tag and its value `scale` at x."""

    field: str
    fn: str
    k: int
    x: float
    raw: int
    main: float
    normalizer: str
    scale: float

    @property
    def remainder(self) -> float:
        return self.raw - self.main

    @property
    def normalized(self) -> float:
        return self.remainder / self.scale

    def csv_row(self) -> str:
        return (f"{self.field},{self.fn},{self.k},{self.x:.10g},{self.raw},"
                f"{self.main:.10g},{self.remainder:.10g},{self.normalizer},"
                f"{self.normalized:.10g}")


def _clamped_log(x: float) -> float:
    # log factors in normalizers are clamped to 1 below x = e
    return max(math.log(x), 1.0) if x > 0 else 1.0


def _normalizer(kind: str, d: int, k: int) -> tuple[str, Callable[[float], float]]:
    """The tag and the function of x that normalize the remainder of a count
    (any k), Mobius or k-free report over a field of degree d.

    The count remainder R(x) takes x^((d-1)/(d+1)); M_k takes x^(1/k) log x;
    the k-free count takes x^(1/k) over Q and for (d, k) = (2, 2), times log x
    for (2, 3) and (3, 2), and R(x)'s normalizer otherwise.
    """
    tag, root = ("x^(1/2)", math.sqrt) if k == 2 else (f"x^(1/{k})", lambda x: x ** (1.0 / k))
    if kind == "qfree" and (d == 1 or (d, k) == (2, 2)):
        return tag, root
    if kind == "mobius" or (kind == "qfree" and (d, k) in ((2, 3), (3, 2))):
        return f"{tag}*log(x)", lambda x: root(x) * _clamped_log(x)
    return f"x^((d-1)/(d+1));d={d}", lambda x: x ** ((d - 1.0) / (d + 1.0))


# the Liouville sums' main term is 0; x^0.6 probes square-root cancellation
# (epsilon 0.1), and x exp(-sqrt(log x)) is the unconditional shape, whose
# constant in the exponent is a reporting convention, not a proved value
_LIOUVILLE_NORMALIZERS = (
    ("x^0.6", lambda x: x**0.6),
    ("x*exp(-sqrt(log(x)))", lambda x: x * math.exp(-math.sqrt(max(math.log(x), 0.0)))),
)


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


def _constant(name: str, fn, field: FieldSpec, *args) -> float:
    """fn(field, *args).value, kept as a 0-d array under (name, *args) in
    the one memo of arrays."""
    return kept_array((field.cache_key(), (name, *args)), 0,
                      lambda reach: np.array(fn(field, *args).value)).item()


# the coefficient kind, the least order and the fn letter of each report kind
_REPORT_KINDS = {"count": ("count", 0, "R"), "mobius": ("mobius", 2, "M"),
                 "liouville": ("liouville", 1, "L"), "qfree": ("kfree", 2, "Q")}


def sweep(kind: str, field: FieldSpec, k: int,
          x_grid: Sequence[float]) -> list[SummatoryReport]:
    """One report per grid point, each raw sum exact.

    Every point is answered as `sum` answers it, in one call for the whole
    grid: over Q and quadratic fields by the sublinear route, whose tables
    built for the largest x serve every point, and over a table field by one
    sieve to the largest x, which every point reads.  The grid must be
    strictly increasing; for the Liouville kind both normalizations are
    emitted per point.  The main terms are c_F x for the ideal count (whose
    remainder is R(x); this kind ignores k), (c_F / zeta_F(k)) K_F(k) x for
    M_k, 0 for L_k, and c_F x / zeta_F(k) for the k-free count.
    """
    from .analytic import dedekind_zeta, mobius_density_constant, residue_c_F

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
    coeff_kind, least, fn = _REPORT_KINDS[kind]
    k = 0 if kind == "count" else k
    if k < least:
        raise ValueError(f"k must be >= {least}")
    raws = _sublinear.exact_sums(field, coeff_kind, k, [_floor_x(x) for x in grid])
    if kind == "liouville":
        main, normalizers = lambda x: 0.0, _LIOUVILLE_NORMALIZERS
    else:
        main, normalizers = lambda x: c_F * x, (_normalizer(kind, field.degree, k),)
    if kind in ("mobius", "qfree"):
        zeta = _constant("zeta", dedekind_zeta, field, float(k))
        if kind == "mobius":
            K = _constant("K", mobius_density_constant, field, k)
            main = lambda x: c_F / zeta * K * x
        else:
            main = lambda x: c_F * x / zeta
    return [SummatoryReport(field.label, fn, k, x, raw, main(x), tag, scale(x))
            for x, raw in zip(grid, raws) for tag, scale in normalizers]
