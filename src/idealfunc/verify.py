"""Brute-force verification suites for the exact identities.

Each check exhaustively tests one identity over every ideal of norm up to a
bound and returns a CheckResult; the CLI `verify` subcommand and the test
suite both drive these.

The suites stay brute force: every sum over the divisors of an ideal, or
over a stream of ideals, is evaluated term by term, never replaced by its
closed form.  The terms are evaluated in numpy, on the exponent rows of a
`_Layout` of the norm-sorted ideals:

- the values of mu_k, lambda_k, q_k, J_k and delta at each ideal come from
  the functions of `arith`, called once per ideal and order, so `arith`
  stays the code under test;
- a sum over the D with D^m | A runs over the pairs (D, C) of listed ideals
  with A = D^m C, each product found by its exact key, and its terms are
  grouped by A with np.add.at;
- the correlation sum evaluates mu_{k-1}(A^{k-1} B) as the product of its
  local values over the prime ideals of A and B alone, each looked up by
  column, so each pair (A, B) costs one cell per slot of A and of B, and
  coprime counts come from products of prime-ideal support matrices;
- the multiplicativity check walks its pairs (A, B) with `ideals.coprime`
  and builds each distinct product AB once, from the factors of A and B.

The (D, C) pairs, and the cells of the correlation sums, are built in
blocks of about _BLOCK_CELLS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import count, islice, takewhile
from typing import Callable

import numpy as np

from . import _sieve, _sublinear
from .arith import (
    delta,
    jordan_totient,
    lambda_k,
    mu_1,
    mu_k,
    q_k,
)
from .field import (
    NORM_LIMIT,
    FieldSpec,
    PrimeIdealLabel,
    _chi_array,
    integer_kth_root,
    primes_with_norm_up_to,
)
from .ideals import (
    IdealFactorization,
    coprime,
    enumerate_ideals,
    format_ideal,
    ideal_count,
    power,
)

__all__ = ["CheckResult", "identity_suite", "counting_suite", "SUITES"]

# failure messages a CheckResult keeps before a single "..."
_KEPT_FAILURES = 10

# the cutoff x of N(B) in the correlation sums, checked for every A <= xmax
_CORR_X = 200

# the cells of one block of (D, C) pairs, or of the correlation check's
# (pair, slot) arrays: 128 KiB as int64
_BLOCK_CELLS = 2**14


@dataclass
class CheckResult:
    name: str
    tested: int = 0
    failures: list[str] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, msg: str) -> None:
        """Keep the first failure messages, then one "..." for the rest."""
        if len(self.failures) < _KEPT_FAILURES:
            self.failures.append(msg)
        elif len(self.failures) == _KEPT_FAILURES:
            self.failures.append("...")

    def fail_where(self, bad: np.ndarray, message: Callable[[int], str]) -> None:
        """fail(message(i)) at each flat index i where the bool array bad is
        set, in order; only the messages kept are formatted."""
        for i in np.flatnonzero(bad)[:_KEPT_FAILURES + 1].tolist():
            self.fail(message(i))

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        out = f"{status} {self.name}  tested={self.tested}"
        if not self.ok:
            out += "  first failure: " + self.failures[0]
        return out


def _group_blocks(sizes: np.ndarray, step: int = 0):
    """(group, offset within it) of each item of consecutive groups of these
    sizes, in order, as blocks of at most step items (one block if step is 0)."""
    ends = np.cumsum(sizes)
    starts = ends - sizes
    total = int(ends[-1]) if len(ends) else 0
    step = step or max(total, 1)
    for start in range(0, total, step):
        pos = np.arange(start, min(start + step, total))
        group = np.searchsorted(ends, pos, side="right")
        yield group, pos - starts[group]


def _weights(n: int, salt: int, bits: int) -> np.ndarray:
    """n pseudo-random weights below 2^bits: splitmix64 of (salt, index)."""
    z = np.arange(n, dtype=np.uint64) + np.uint64(salt << 32)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(64 - bits)).astype(np.int64)


class _Layout:
    """Every ideal of norm up to some bound, in enumeration order, as rows.

    Row i is ideal i: `cols[i]` holds the column of each of its prime ideals
    in `labels` and `exps[i]` their exponents, padded to the largest number
    of prime factors with column len(labels) and exponent 0.  Labels are in
    canonical order, so the prime ideals of norm <= y are the first columns.

    The key of an ideal is its norm and a linear hash of its row,
    sum of e * w[col] mod 2^bits.  The weights are redrawn until the keys of
    the list are distinct.  Every ideal of norm at most the largest listed
    norm is listed, so such an ideal is found exactly by its key, and since
    the hash is linear, the key of D^m C follows from those of D and C.
    """

    def __init__(self, ideals: list[IdealFactorization], labels: list[PrimeIdealLabel]) -> None:
        self.ideals = ideals
        self.labels = labels
        column = {lab: i for i, lab in enumerate(labels)}
        n = len(ideals)
        sizes = np.array([len(A.factors) for A in ideals], dtype=np.int64)
        self.norms = np.array([A.norm for A in ideals], dtype=np.int64)
        width = int(sizes.max(initial=0))
        self.cols = np.full((n, width), len(labels), dtype=np.int64)
        self.exps = np.zeros((n, width), dtype=np.int64)
        for row, pos in _group_blocks(sizes):
            self.cols[row, pos] = [column[lab] for A in ideals for lab, _ in A.factors]
            self.exps[row, pos] = [e for A in ideals for _, e in A.factors]
        self.bits = 62 - int(self.norms.max(initial=1)).bit_length()
        self.mask = (1 << self.bits) - 1
        for salt in count():
            w = _weights(len(labels) + 1, salt, self.bits)
            self.hashes = (self.exps * w[self.cols]).sum(axis=1) & self.mask
            keys = (self.norms << self.bits) | self.hashes
            self.order = np.argsort(keys)
            self.keys = keys[self.order]
            if not np.any(self.keys[1:] == self.keys[:-1]):
                break

    def row_of(self, d: np.ndarray, c: np.ndarray, m: int) -> np.ndarray:
        """The rows of the ideals D^m C, for the rows d of D and c of C."""
        keys = (self.norms[d] ** m * self.norms[c] << self.bits) | (
            (m * self.hashes[d] + self.hashes[c]) & self.mask)
        return self.order[np.searchsorted(self.keys, keys)]

    def pairs(self, m: int):
        """The pairs (D, C) of listed ideals with N(D^m C) at most the largest
        listed norm, as blocks (d, c) of their rows."""
        if not len(self.norms):
            return
        top = int(self.norms[-1])
        nd = np.searchsorted(self.norms, integer_kth_root(top, m), side="right")
        sizes = np.searchsorted(self.norms, top // self.norms[:nd] ** m, side="right")
        yield from _group_blocks(sizes, _BLOCK_CELLS)

    def dense(self, rows: np.ndarray, ncols: int) -> np.ndarray:
        """The exponents of the given rows at the first ncols columns."""
        out = np.zeros((len(rows), ncols + 1), dtype=np.int64)
        out[np.arange(len(rows))[:, None], np.minimum(self.cols[rows], ncols)] = self.exps[rows]
        return out[:, :ncols]


def _coprime_sums(a: _Layout, b: _Layout, width: int, weights: np.ndarray) -> np.ndarray:
    """coprime(A, B) @ weights: row i sums the rows of weights, one per ideal
    B of b, over the B that share no prime ideal of the first width columns
    with the i-th ideal A of a.  The supports of the shorter list are held
    as one matrix, and each product takes a tile of its columns against a
    block of rows of the longer list: about _BLOCK_CELLS cells of
    coprime(A, B), and of the block's supports, per product."""
    out = np.zeros((len(a.ideals), weights.shape[1]), dtype=np.int64)
    weights = weights.astype(np.float64)  # exact: every sum counts fewer than 2^53 ideals
    held, blocked = (b, a) if len(a.ideals) >= len(b.ideals) else (a, b)
    support = (held.dense(np.arange(len(held.ideals)), width) > 0).T.astype(np.float32)
    # rows of the longer list per block, and columns of the held matrix per
    # tile: a held list of at most sqrt(_BLOCK_CELLS) ideals is one tile
    side = min(len(held.ideals), math.isqrt(_BLOCK_CELLS))
    step = max(1, _BLOCK_CELLS // max(width, side, 1))
    tile = max(1, min(len(held.ideals), _BLOCK_CELLS // step))
    for start in range(0, len(blocked.ideals), step):
        rows = np.arange(start, min(start + step, len(blocked.ideals)))
        block = (blocked.dense(rows, width) > 0).astype(np.float32)
        for first in range(0, len(held.ideals), tile):
            cols = slice(first, first + tile)
            coprime = (block @ support[:, cols]) == 0
            if blocked is a:
                out[rows] += (coprime.astype(np.float64) @ weights[cols]).astype(np.int64)
            else:
                out[cols] += (coprime.T.astype(np.float64) @ weights[rows]).astype(np.int64)
    return out


def _values(fn: Callable, ideals: list[IdealFactorization], *order: int) -> np.ndarray:
    """fn(*order, A) at each ideal A, as an int64 array."""
    return np.array([fn(*order, A) for A in ideals], dtype=np.int64)


def _per_ideal(r: CheckResult, bad: np.ndarray, ideals: list[IdealFactorization]) -> CheckResult:
    r.fail_where(bad, lambda i: format_ideal(ideals[i]))
    r.tested = len(ideals)
    return r


# no prime-ideal exponent of a norm <= 2^62 reaches an order above 62, so
# larger orders repeat the checks of smaller ones
KMAX_LIMIT = 64


def _check_sizes(xmax: int, kmax: int) -> None:
    if xmax < 1:
        raise ValueError("xmax must be >= 1")
    if not 1 <= kmax <= KMAX_LIMIT:
        raise ValueError(f"kmax must lie in [1, {KMAX_LIMIT}]")


def identity_suite(field: FieldSpec, xmax: int = 5000, kmax: int = 4) -> list[CheckResult]:
    """Exact-identity checks over every ideal of norm <= xmax."""
    _check_sizes(xmax, kmax)
    # the ideals A of the checks, and the stream B of the correlation sums,
    # are both prefixes of one list
    listed = list(enumerate_ideals(field, max(xmax, _CORR_X)))
    norms = np.array([A.norm for A in listed], dtype=np.int64)
    ideals, streamed = (listed[:np.searchsorted(norms, x, side="right")] for x in (xmax, _CORR_X))
    top = ideals[-1].norm  # mu_k(A^k) builds A^k for every listed A
    if top**kmax > NORM_LIMIT:
        raise ValueError(f"kmax {kmax} needs A^{kmax} for ideals of norm up to {top}, past 2^62")
    lay = _Layout(ideals, primes_with_norm_up_to(field, max(xmax, _CORR_X)))
    mu1 = _values(mu_1, ideals)
    results = _divisor_sum_checks(field, lay, mu1, kmax)
    results += _correlation_checks(field, lay, streamed, mu1, kmax)
    del lay, mu1  # freed before the multiplicativity check builds its own
    results.append(_multiplicativity_check(field, ideals, kmax))
    return results


def _divisor_sum_checks(field: FieldSpec, lay: _Layout, mu1: np.ndarray,
                        kmax: int) -> list[CheckResult]:
    """The identities over the divisors of each listed A, and mu_k(A^k) = mu_1(A)."""
    ideals = lay.ideals
    n = len(ideals)
    orders = range(1, kmax + 1)
    mu = {k: _values(mu_k, ideals, k) for k in orders}
    lam = {k: _values(lambda_k, ideals, k) for k in orders}
    q = {k: _values(q_k, ideals, k) for k in orders[1:]}

    # the divisor sums, each as a sum over the pairs (D, C) with A = D^m C
    div_mu = {k: np.zeros(n, dtype=np.int64) for k in orders}  # m = k + 1
    conv = {k: np.zeros(n, dtype=np.int64) for k in orders[1:]}  # m = 1
    rec = {k: np.zeros(n, dtype=np.int64) for k in orders[1:]}  # m = k
    div_lam = {k: np.zeros(n, dtype=np.int64) for k in orders}  # m = k + 1
    totient = np.zeros(n, dtype=np.int64)  # m = 1: N(A) sum of mu_1(E)/N(E)
    for m in range(1, kmax + 2):
        for d, c in lay.pairs(m):
            a = lay.row_of(d, c, m)
            if m == 1:
                for k in orders[1:]:
                    np.add.at(conv[k], a, q[k][d] * lam[k - 1][c])
                np.add.at(totient, a, mu1[d] * lay.norms[c])
            else:
                np.add.at(div_mu[m - 1], a, mu1[d])
                np.add.at(div_lam[m - 1], a, mu1[c])
            if 2 <= m <= kmax:  # A/D = D^(m-1) C
                np.add.at(rec[m], a, mu[m - 1][c] * mu[m - 1][lay.row_of(d, c, m - 1)])

    results = [_per_ideal(
        CheckResult(f"|mu_{k}(A)| = sum of mu_1(D) over D^{k + 1} | A  [{field.label}]"),
        np.abs(mu[k]) != div_mu[k], ideals) for k in orders]
    unit = _values(delta, ideals)
    results += [_per_ideal(
        CheckResult(f"(q_{k} * lambda_{k - 1})(A) = delta(A)  [{field.label}]"),
        conv[k] != unit, ideals) for k in orders[1:]]
    results += [_per_ideal(CheckResult(
        f"mu_{k}(A) = sum mu_{k - 1}(A/D^{k}) mu_{k - 1}(A/D) over D^{k} | A  [{field.label}]"),
        mu[k] != rec[k], ideals) for k in orders[1:]]
    results += [_per_ideal(CheckResult(
        f"lambda_{k}(A) = sum mu_1(A/D^{k + 1}) over D^{k + 1} | A  [{field.label}]"),
        lam[k] != div_lam[k], ideals) for k in orders]
    # A^k lies beyond xmax, so mu_k(A^k) is one arith call per ideal
    results += [_per_ideal(
        CheckResult(f"mu_{k}(A^{k}) = mu_1(A)  [{field.label}]"),
        np.array([mu_k(k, power(A, k)) != v for A, v in zip(ideals, mu1.tolist())], dtype=bool),
        ideals) for k in orders]
    results.append(_per_ideal(
        CheckResult(f"sum mu_1(E)/N(E) over E | A = J_1(A)/N(A)  [{field.label}]"),
        totient != _values(jordan_totient, ideals, 1), ideals))
    return results


def _correlation_checks(field: FieldSpec, lay: _Layout, streamed: list[IdealFactorization],
                        mu1: np.ndarray, kmax: int) -> list[CheckResult]:
    """sum_{N(B)<=x} mu_{k-1}(B) mu_{k-1}(A^{k-1} B) = mu_1(A) #{B k-free, (A,B)=1}
    for every listed A, every streamed B (the ideals of norm <= x) and
    k = 2..kmax.

    The left side is evaluated literally, by `_correlation_lhs`; the right
    side counts by a product of support matrices.  Both run over the same
    stream of B.
    """
    ideals = lay.ideals
    if kmax < 2:
        return []
    bs = _Layout(streamed, lay.labels)
    width = sum(lab.norm <= _CORR_X for lab in lay.labels)  # the columns of B
    kfree = np.stack([_values(q_k, streamed, k) != 0 for k in range(2, kmax + 1)], axis=1)
    coprime_count = _coprime_sums(lay, bs, width, kfree)

    results = []
    for k in range(2, kmax + 1):
        # f = mu_{k-1}, by its local values up to the largest exponent of A^{k-1} B
        table = np.array([_sieve._mobius(e, k - 1) for e in range(
            (k - 1) * int(lay.exps.max(initial=0)) + int(bs.exps.max(initial=0)) + 1)],
            dtype=np.int8)
        lhs = _correlation_lhs(lay, bs, width, _values(mu_k, streamed, k - 1), k - 1, table)
        rhs = mu1 * coprime_count[:, k - 2]
        r = CheckResult(
            f"correlation sum vs signed coprime {k}-free count, x={_CORR_X}  [{field.label}]")
        r.fail_where(lhs != rhs, lambda i: f"A={format_ideal(ideals[i])} lhs={lhs[i]} rhs={rhs[i]}")
        r.tested = len(ideals)
        results.append(r)
    return results


def _correlation_lhs(lay: _Layout, bs: _Layout, width: int, mb: np.ndarray, m: int,
                     table: np.ndarray) -> np.ndarray:
    """sum over the ideals B of bs of mb[B] f(A^m B), for each ideal A of lay,
    where f is the multiplicative function with value table[e] at the e-th
    power of a prime ideal (table[0] = 1), and B's prime ideals lie in the
    first width columns.

    f(A^m B) is the product of the local values over the prime ideals of the
    pair alone: table[m e_A + e_B] over A's slots, with e_B looked up in a
    table of each B's exponent by column; table[e_B] over B's slots in the
    columns A lacks, looked up in a table of A's columns; and one factor
    `own` over A's slots past B's columns.  So a block of pairs holds
    (w_A + w_B) cells per pair, for the w_A slots of A in B's columns and the
    w_B of B, not one per column.
    """
    signed = np.flatnonzero(mb)
    mb = mb[signed]
    # B's slots as rows (w_B, |B|); its pads read column width, which A never sets
    b_cols, b_exps = np.minimum(bs.cols[signed], width).T, bs.exps[signed].T
    b_vals = table[b_exps]
    b_at = np.zeros((width + 2, len(signed)), dtype=np.int8)  # e_B by column
    b_at[b_cols, np.arange(len(signed))] = b_exps
    # a row's columns ascend, so its slots in B's columns come first
    w_a = int((lay.cols < width).sum(axis=1).max(initial=0))
    own = table[m * lay.exps[:, w_a:]].prod(axis=1)
    # A's other slots past B's columns go to column width + 1, where B's
    # exponent is 0
    a_cols = np.where(lay.cols[:, :w_a] < width, lay.cols[:, :w_a], width + 1)
    a_exps = m * lay.exps[:, :w_a]
    n = len(lay.ideals)
    a_has = np.zeros((n, width + 2), dtype=bool)  # A's columns
    a_has[np.arange(n)[:, None], a_cols] = True

    lhs = np.zeros(n, dtype=np.int64)
    step = max(1, _BLOCK_CELLS // max(len(signed) * (w_a + len(b_cols)), 1))
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        # `local` is (rows, |B|): table[m e_A + e_B] over A's slots, then
        # table[e_B] over B's slots where A's exponent is 0
        local = np.ones((len(rows), len(signed)), dtype=np.int64)
        for t in range(w_a):
            local *= table[a_exps[rows, t, None] + b_at[a_cols[rows, t]]]
        has = a_has[rows]
        for c, values in zip(b_cols, b_vals):
            local *= np.where(has[:, c], 1, values)
        lhs[rows] = own[rows] * (local @ mb)
    return lhs


def _multiplicativity_check(field: FieldSpec, ideals: list[IdealFactorization],
                            kmax: int) -> CheckResult:
    """f(AB) = f(A) f(B) over the first 3000 pairs i <= j of ideals A, B of norm
    <= 200 with N(A) N(B) <= 5000 and (A, B) = 1, for f = mu_k, lambda_k, J_k
    and q_k at every order.  Each distinct AB is built once, from the factors
    of A and B, and f(AB) is evaluated once per distinct AB."""
    r = CheckResult(f"f(AB) = f(A) f(B) for coprime A, B  [{field.label}]")
    small = [A for A in ideals if A.norm <= 200]
    # i <= j in norm order: for each i, a run of j while N(A) N(B) <= 5000,
    # until 3000 of the pairs are coprime
    runs = ((a, b) for a, A in enumerate(small)
            for b in takewhile(lambda b: A.norm * small[b].norm <= 5000, range(a, len(small))))
    pairs = list(islice(((a, b) for a, b in runs if coprime(small[a], small[b])), 3000))
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    r.tested = len(i)
    # the distinct AB in the order first seen: A and B are coprime, so their
    # (label, exponent) pairs sorted together are AB's factors
    index: dict[tuple, int] = {}
    product_of = np.array([index.setdefault(tuple(sorted(small[a].factors + small[b].factors)),
                                            len(index)) for a, b in pairs], dtype=np.intp)
    products = [IdealFactorization(factors) for factors in index]

    # mu_k, lambda_k, J_k and q_k (k >= 2) at every order, one column of
    # Python ints each: J_k passes int64
    calls = [(k, f, fn) for k in range(1, kmax + 1)
             for f, fn in enumerate((mu_k, lambda_k, jordan_totient, q_k)) if f < 3 or k >= 2]
    names = ("mu", "lambda", "J", "q")
    bad = np.zeros((len(i), kmax, len(names)), dtype=bool)
    for k, f, fn in calls:
        at = np.array([fn(k, A) for A in small], dtype=object)
        at_product = np.array([fn(k, AB) for AB in products], dtype=object)
        bad[:, k - 1, f] = at_product[product_of] != at[i] * at[j]

    def message(flat: int) -> str:
        pair, k, f = np.unravel_index(flat, bad.shape)
        return f"{names[f]}_{k + 1}: {format_ideal(small[i[pair]])},{format_ideal(small[j[pair]])}"

    r.fail_where(bad, message)
    return r


def counting_suite(field: FieldSpec, xmax: int = 10_000, kmax: int = 4) -> list[CheckResult]:
    """Counting and inversion checks: enumeration vs sieve, coefficient
    identity, coprime counting, and the exact k-free inversion formula."""
    _check_sizes(xmax, kmax)
    results: list[CheckResult] = []

    r = CheckResult(f"enumerate_ideals size = ideal_count  [{field.label}]")
    grid = sorted({1, 10, 100, 1000, xmax})
    _sieve.cumulative_array(field, "count", 0, xmax)
    # one list gives every grid size, and its prefix to max(xs) is the stream
    # B of the coprime counts below
    listed = list(enumerate_ideals(field, max(xmax, 1000)))
    norms = np.array([A.norm for A in listed], dtype=np.int64)
    sizes = np.searchsorted(norms, grid, side="right")
    r.fail_where(sizes != [ideal_count(field, X) for X in grid], lambda i: f"X={grid[i]}")
    r.tested = len(grid)
    results.append(r)

    if field.degree == 2 and field.table is None:
        n0 = min(xmax, 10_000)
        r = CheckResult(f"#(norm n) = sum of chi_D over divisors of n, n <= {n0}  [{field.label}]")
        coeff = _sieve.coefficient_array(field, "count", 0, n0)
        chi = _chi_array(field.disc)[np.arange(1, n0 + 1) % abs(field.disc)]
        ms = np.flatnonzero(chi) + 1
        div_sum = np.zeros(n0 + 1, dtype=np.int64)
        for group, offset in _group_blocks(n0 // ms):
            np.add.at(div_sum, ms[group] * (offset + 1), chi[ms[group] - 1])
        r.fail_where(coeff[1:] != div_sum[1:], lambda i: f"n={i + 1}")
        r.tested = n0
        results.append(r)

    r = CheckResult(f"coprime count = sum mu_1(E) [X/N(E)]_F over E | A  [{field.label}]")
    xs = (100, 1000, min(xmax, 10_000))
    del listed[np.searchsorted(norms, max(xs), side="right"):]  # B runs to max(xs)
    labels = primes_with_norm_up_to(field, max(xs))
    cs = _Layout(listed, labels)
    small = _Layout(listed[:np.searchsorted(cs.norms, 200, side="right")], labels)
    width = sum(lab.norm <= 200 for lab in labels)  # the columns of A
    direct = _coprime_sums(small, cs, width, cs.norms[:, None] <= np.array(xs)).T
    mu1 = _values(mu_1, small.ideals)
    counts = [np.array(_sublinear.exact_sums(field, "count", 0, (X // small.norms).tolist()))
              for X in xs]  # [X/N(E)]_F
    via_formula = np.zeros_like(direct)
    for d, c in small.pairs(1):  # E = D, A = E C
        a = small.row_of(d, c, 1)
        for row, count in enumerate(counts):
            np.add.at(via_formula[row], a, mu1[d] * count[d])
    r.fail_where(direct != via_formula, lambda i: (
        f"A={format_ideal(small.ideals[i % len(small.ideals)])} X={xs[i // len(small.ideals)]}"))
    r.tested = direct.size
    results.append(r)

    for k in range(2, min(kmax, 3) + 1):
        r = CheckResult(
            f"k-free inversion formula exact for every x <= {xmax}, k={k}  [{field.label}]")
        direct = np.cumsum(_sieve.coefficient_array(field, "kfree", k, xmax))[1:]
        formula = _sublinear.kfree_counts(field, k, list(range(1, xmax + 1)))
        r.fail_where(direct != formula, lambda i: f"x={i + 1}")
        r.tested = xmax
        results.append(r)

    return results


SUITES = {"identities": identity_suite, "counting": counting_suite}
