"""Independent routes to values the package computes, for the tests to
compare against.  No user path reaches them, so they live here."""

import numpy as np

from idealfunc import _sieve
from idealfunc.analytic import _prime_ideal_norms
from idealfunc.field import FieldSpec, _check_memory


def mobius_density_partial_sum(field: FieldSpec, k: int, X: int) -> float:
    """Truncated direct ideal sum of mu_1(A) J_1(A) / (J_k(A) N(A)) over N(A) <= X.

    Independent route to mobius_density_constant.  The summand is
    multiplicative with squarefree support, so its per-norm series up to X is
    the product over the prime ideals P of norm n <= X of 1 + t(n) N(P)^-s,
    t(n) = -(n-1) / (n (n^k - 1)): each factor multiplies the series in place,
    one prime ideal at a time, and the sum of the series is returned.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    X = int(X)
    if X < 1:
        return 0.0
    _check_memory(X)
    c = np.zeros(X + 1)
    c[1] = 1.0
    for n in _prime_ideal_norms(field, X).tolist():
        # the right side first: each step reads the series before this factor
        c[n::n] += -(n - 1) / (n * (n**k - 1)) * c[1 : X // n + 1]
    return float(c.sum())


def dirichlet_partial(field: FieldSpec, kind: str, order: int, s: float, X: int) -> float:
    """sum_{N(A) <= X} f(A) / N(A)^s, f the `_sieve` coefficients `kind` of
    `order`, for X >= 1: the partial Dirichlet series of f."""
    coeff = _sieve.coefficient_array(field, kind, order, X)
    n = np.arange(1, X + 1, dtype=np.float64)
    return float(np.dot(coeff[1:].astype(np.float64), n ** (-s)))
