"""Independent routes to values the package computes, for the tests to
compare against.  No user path reaches them, so they live here."""

import numpy as np

from idealfunc import _sieve, verify
from idealfunc.analytic import SERIES_CUTOFF, AnalyticValue, _prime_ideal_norms
from idealfunc.field import FieldSpec, _check_memory, _chi_array, is_squarefree
from idealfunc.ideals import IdealFactorization, from_factors


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


def correlation_lhs_dense(lay: verify._Layout, bs: verify._Layout, width: int, mb: np.ndarray,
                          m: int, table: np.ndarray) -> np.ndarray:
    """`verify._correlation_lhs` evaluated on a dense (column, A, B) array
    over every column B can use, with the prime ideals of A past them taken
    as one factor of A alone.  The merged exponents fill the whole array, so
    it costs width cells per pair where `_correlation_lhs` holds the pair's
    own slots."""
    b_exps = bs.dense(np.arange(len(bs.ideals)), width)
    signed = np.flatnonzero(mb)
    mb, eb = mb[signed], b_exps[signed].T.astype(np.int16)
    # A's prime ideals outside B's columns, each a factor of its own
    own = table[m * lay.exps * (lay.cols >= width)].prod(axis=1)
    n = len(lay.ideals)
    lhs = np.zeros(n, dtype=np.int64)
    step = max(1, verify._BLOCK_CELLS // max(len(signed) * width, 1))
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        ea = (m * lay.dense(rows, width)).T.astype(np.int16)
        # the merged exponents, (column, A, B); over B's columns,
        # f(A^m B) is the product of the local values there
        merged = ea[:, :, None] + eb[:, None, :]
        local = np.multiply.reduce(np.take(table, merged), axis=0)
        lhs[rows] = own[rows] * (local @ mb)
    return lhs


def multiply(A: IdealFactorization, B: IdealFactorization) -> IdealFactorization:
    """The product AB, by merging the factorizations."""
    return from_factors(list(A.factors) + list(B.factors))


def divides(D: IdealFactorization, A: IdealFactorization) -> bool:
    exps = A.exponents()
    return all(exps.get(lab, 0) >= e for lab, e in D.factors)


def is_fundamental_discriminant(D: int) -> bool:
    if D == 1:
        return True
    if D % 4 == 1:
        return is_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


def dirichlet_L(D: int, s: float) -> AnalyticValue:
    """L(s, chi_D) for a fundamental discriminant D != 1 and real s >= 1: the
    independent route to `analytic.residue_c_F` at s = 1.

    Direct character sum over whole periods (the per-period sums vanish),
    with the Abel-summation tail bound 2 B N^-s from bounded partial sums.
    """
    if D == 1 or not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant != 1")
    if s < 1:
        raise ValueError("s must be >= 1")
    mod = abs(D)
    # about 40 bytes per residue at the peak when |D| passes SERIES_CUTOFF
    _check_memory(mod, 40, f"discriminant {D} is too large for its L-series sum", "residue")
    table = _chi_array(D).astype(np.float64)
    n0 = ((SERIES_CUTOFF + mod - 1) // mod) * mod  # whole periods only
    n = np.arange(1, n0 + 1, dtype=np.float64)
    chi = table[np.arange(1, n0 + 1) % mod]
    value = float(np.dot(chi, n ** (-s)))
    partial_bound = float(np.max(np.abs(np.cumsum(table))))
    tail = 2.0 * partial_bound * n0 ** (-s)
    return AnalyticValue(value=value, tail_bound=tail, method="character-sum")
