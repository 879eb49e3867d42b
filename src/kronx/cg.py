"""The Clebsch-Gordan transformation in closed form.

S maps the product basis to the direct-sum basis: J S = S Jtilde for all
three coupled generators.  Entries are built by pure index arithmetic
through three nested closed forms: the first block (binomial ratios),
the first column of each block (alternating signs), and the general
entry (a terminating alternating sum F against a factored radical
Theta).  build_S evaluates all three as one formula, a ratio of
factorials times the square of an alternating sum of factorial ratios,
in one array kernel over every cell at once: each factorial is its
vector of prime exponents (Legendre's formula), and only a short sum of
small integers per cell is left.  Each entry comes out as three
integers, its sign and the numerator and denominator of its radicand,
int64 where they fit and Python ints past that; S holds them as integer
Columns, and no per-entry scalar is built.  The public lemmas
s_first_block, s_rone and s_general keep one per-entry integer kernel
each, F by exactnum's 3F2 term-ratio kernel, as the cross-check of the
array kernel.  Only the top half of each block is computed, and the
Condon-Shortley reflection m -> -m, array indexing on those cells, gives
the rest.  Every matrix is verified against the intertwining law, on
floats read from the columns, before it is returned: each
generator is a diagonal or one or two fixed bands, so J_a S and S Jtilde_a
are S's own terms shifted one band step and scaled by band entries from
the index formulas.  A miss raises VerificationError.  An independent
ladder construction (extremal states plus repeated lowering) is kept as
the cross-check the tests use.

Sign conventions: each block's top entry at alpha = 0 is positive, the
global phase is 1 (Condon-Shortley compatible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .coupling import CouplingLayout, layout, product_gen
from .exactnum import (
    DomainError,
    SqrtRational,
    _term_ratio_sum,
    coprime_fraction,
    pochhammer,
)
from .hubbard import (SURD, Columns, XSum, _product, check_order, int_column,
                      magnitude)

_ZERO = SqrtRational(0, Fraction(0))


class VerificationError(RuntimeError):
    """A built matrix failed its own verification; names the residual."""


# The per-entry kernels below are integer arithmetic: a rising or falling
# factorial is one math.perm, as in exactnum.pochhammer, which takes the
# one whose x may be negative.  Each returns an entry's integer parts
# (sign, num, den): the entry is sign * sqrt(num/den), the fraction in
# lowest terms, and num == 0 for a zero entry.  Only the public lemmas
# call them, and wrap the parts as one SqrtRational; build_S takes the
# same parts from the array kernel _cell_parts.


def _reduced(sign: int, num: int, den: int) -> tuple:
    g = math.gcd(num, den)
    return sign, num // g, den // g


def _surd(parts: tuple) -> SqrtRational:
    sign, num, den = parts
    if not num:
        return _ZERO
    return SqrtRational._trusted(sign, coprime_fraction(num, den))


def _first_block_parts(two_j1: int, two_j2: int, alpha: int, beta: int) -> tuple:
    num = math.comb(two_j1, alpha) * math.comb(two_j2, beta - 1)
    den = math.comb(two_j1 + two_j2, alpha + beta - 1)
    return _reduced(1, num, den)


def _rone_parts(two_j1: int, two_j2: int, k: int, alpha: int, beta: int) -> tuple:
    # (beta)_alpha rising / alpha! * (2j2-beta+1)_alpha falling
    #   * (2j1-alpha)_{k-1-alpha} falling / (2j-k+2)_{k-1} falling
    num = (
        math.comb(alpha + beta - 1, alpha)
        * math.perm(two_j2 - beta + 1, alpha)
        * math.perm(two_j1 - alpha, k - 1 - alpha)
    )
    den = math.perm(two_j1 + two_j2 - k + 2, k - 1)
    return _reduced(-1 if alpha % 2 else 1, num, den)


def _alternating_sum(two_j1: int, two_j2: int, rr: int, alpha: int, beta: int) -> int:
    """F = sum_s (-1)^s C(rr,s) (alpha)_s (beta-1)_{rr-s} falling
                     * (2j1-alpha+1)_s (2j2-beta+2)_{rr-s} rising,
    over its live terms lo <= s <= hi; past them a factor vanishes.  F is
    (d)_rr (e)_rr falling 3F2(-rr, -alpha, c; d, -e; 1) at c = 2j1-alpha+1,
    d = beta-rr, e = 2j2-beta+1+rr: the first live term comes from the five
    factors, and hyp3f2_terminating's kernel adds the rest."""
    lo, hi = max(0, rr - beta + 1), min(rr, alpha)
    if lo > hi:
        return 0
    t = (
        math.comb(rr, lo)
        * math.perm(alpha, lo)
        * math.perm(beta - 1, rr - lo)
        * math.perm(two_j1 - alpha + lo, lo)
        * math.perm(two_j2 - beta + 1 + rr - lo, rr - lo)
    )
    return _term_ratio_sum(-t if lo % 2 else t, lo, hi, rr, alpha,
                           two_j1 - alpha + 1, beta - rr, two_j2 - beta + 1 + rr)


def _general_parts(
    two_j1: int, two_j2: int, k: int, r: int, alpha: int, beta: int
) -> tuple:
    two_j = two_j1 + two_j2
    rr = r - 1  # the sum order; row r is built from r-1 lowering steps
    # Theta^2 = (2j2-beta+1)_{alpha-rr} (k-1)! (2j1)_{k-1}
    #   / (alpha! (beta-1)! (2j1)_alpha rr! (2j-2k+2)_rr (2j-k+2)_{k-1}),
    # all falling; a negative length moves to the denominator as
    # (x)_{-n} = 1 / (x+1)_n rising.
    num = math.factorial(k - 1) * math.perm(two_j1, k - 1)
    den = (
        math.factorial(alpha)
        * math.factorial(beta - 1)
        * math.perm(two_j1, alpha)
        * math.factorial(rr)
        * pochhammer(two_j - 2 * k + 2, rr, "falling")
        * math.perm(two_j - k + 2, k - 1)
    )
    if alpha >= rr:
        num *= math.perm(two_j2 - beta + 1, alpha - rr)
    else:
        den *= math.perm(two_j2 - beta + 1 + rr - alpha, rr - alpha)
    if num and den < 0:
        raise DomainError(
            f"negative radicand at k={k}, r={r}, alpha={alpha}, beta={beta}"
        )
    f = _alternating_sum(two_j1, two_j2, rr, alpha, beta)
    sign = 1 if f > 0 else -1
    return _reduced(-sign if alpha % 2 else sign, num * f * f, den)


def s_first_block(
    two_j1: int, two_j2: int, alpha: int, beta: int
) -> SqrtRational:
    """S^{1,r} with r = alpha + beta: a positive binomial ratio."""
    if not (0 <= alpha <= two_j1 and 1 <= beta <= two_j2 + 1):
        return _ZERO
    return _surd(_first_block_parts(two_j1, two_j2, alpha, beta))


def s_rone(
    two_j1: int, two_j2: int, k: int, alpha: int, beta: int
) -> SqrtRational:
    """S^{k,1}: first column of block k, alternating in alpha."""
    if alpha + beta != k:
        return _ZERO
    if not (0 <= alpha <= two_j1 and 1 <= beta <= two_j2 + 1):
        return _ZERO
    return _surd(_rone_parts(two_j1, two_j2, k, alpha, beta))


def s_general(
    two_j1: int, two_j2: int, k: int, r: int, alpha: int, beta: int
) -> SqrtRational:
    """S^{k,r} for any admissible index, via the F * Theta split.

    F is the terminating alternating sum, an integer; Theta^2 is one
    integer ratio and carries the radical.  Reduces to s_first_block at
    k = 1 and to s_rone at r = 1.
    """
    if not (0 <= alpha <= two_j1 and 1 <= beta <= two_j2 + 1):
        return _ZERO
    if k + r != alpha + beta + 1:
        return _ZERO
    return _surd(_general_parts(two_j1, two_j2, k, r, alpha, beta))


# The array kernel build_S calls.  With rho = r - 1 and 2j = 2j1 + 2j2, the
# three closed forms are one formula: the entry at (alpha, beta) is
# sign(F') (-1)^alpha sqrt(P F'^2), where
#   P = (k-1)! alpha! (beta-1)! rho! (2j-2k+2-rho)! (2j-2k+3)!
#       / ((2j1-alpha)! (2j2-beta+1)! (2j2-k+1)! (2j1-k+1)! (2j-2k+2)! (2j-k+2)!)
#   F' = sum_{s=lo..hi} (-1)^s (2j1-alpha+s)! (2j2-beta+1+rho-s)!
#                              / (s! (rho-s)! (alpha-s)! (beta-1-rho+s)!)
# over lo = max(0, rho-beta+1), hi = min(rho, alpha): s_general's Theta^2 F^2
# with F's factorial prefactor moved into P.  By Legendre's formula each
# factorial is a vector of prime exponents, so every product is a small
# integer vector and only F' is a sum.  Its terms share their exponent-wise
# minimum g: F' = prod p^g * F'' with F'' a sum of small integers, and P's
# exponents plus 2g are h.  The radicand's numerator is F''^2 times the
# primes to h's positive part, its denominator the primes to h's negative
# part, reduced by one gcd.

# the weights of the factorials _arguments lists: +1 puts one in the
# numerator, -1 in the denominator
_TERM_WEIGHT = np.array([1, 1, -1, -1, -1, -1])
_PREFACTOR_WEIGHT = np.array([1] * 6 + [-1] * 6)

# exponent-array elements (terms x primes) per pass of _cell_parts: the
# terms of a large S go through in passes, so its arrays stay near 1 MB
_EXPONENTS_PER_PASS = 1 << 16

# a product of prime powers whose log2, summed in floats, is below this is
# below 2**63 exactly
_INT64_BITS = 62


@lru_cache(maxsize=64)
def _legendre(top: int) -> tuple:
    """(primes, their log2, E) for the primes p_i <= top, with
    E[m, i] = v_{p_i}(m!) = sum_t floor(m / p_i^t) for 0 <= m <= top, in
    the smallest unsigned type that holds top."""
    sieve = np.ones(top + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(top) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    primes = np.flatnonzero(sieve)
    m = np.arange(top + 1)
    table = np.empty((top + 1, len(primes)), dtype=np.min_scalar_type(top))
    for i, p in enumerate(primes.tolist()):
        col, q = m // p, p * p
        while q <= top:
            col += m // q
            q *= p
        table[:, i] = col
    table.flags.writeable = False
    return primes, np.log2(primes), table


def _exponents(table: np.ndarray, weight: np.ndarray, args: np.ndarray) -> np.ndarray:
    """sum_a weight[a] E[args[a]]: the prime exponents of the products of
    factorials args[:, c] (num where weight is 1, den where it is -1), one
    row per column c of args, in a signed type that holds 32 max(E) and
    so every sum the kernel forms from them."""
    gathered = np.take(table, args, axis=0).reshape(len(args), -1)
    signed = weight.astype(np.min_scalar_type(-32 * len(table)))
    return (signed @ gathered).reshape(args.shape[1], -1)


def _prime_power(x: np.ndarray, primes: np.ndarray, log2p: np.ndarray) -> np.ndarray:
    """prod_i primes[i] ** x[:, i] for each row of a nonnegative exponent
    array: int64 when every row is below 2**62, otherwise Python ints,
    multiplied from int64 products over groups of primes that stay below
    it (a prime whose powers alone pass it gets Python-int powers)."""
    if not len(x) or (x @ log2p).max() < _INT64_BITS:
        return np.prod(primes ** x, axis=1)
    out = np.ones(len(x), dtype=object)
    group, room = [], _INT64_BITS
    for i, bits in enumerate((x.max(axis=0) * log2p).tolist()):
        if bits >= _INT64_BITS:
            p = int(primes[i])
            powers = np.array([p ** e for e in range(int(x[:, i].max()) + 1)],
                              dtype=object)
            out *= powers[x[:, i]]
            continue
        if bits > room:
            out *= np.prod(primes[group] ** x[:, group], axis=1)
            group, room = [], _INT64_BITS
        group.append(i)
        room -= bits
    if group:
        out *= np.prod(primes[group] ** x[:, group], axis=1)
    return out


def _arguments(two_j1: int, two_j2: int) -> np.ndarray:
    """The factorial arguments of the formula above as coefficient rows on
    (1, k, alpha, r, s), with beta = k + r - 1 - alpha and rho = r - 1:
    the six of a term of F', then the twelve of P."""
    j1, j2, j = two_j1, two_j2, two_j1 + two_j2
    return np.array([
        [j1, 0, -1, 0, 1],  # (2j1-alpha+s)!
        [j2 + 1, -1, 1, 0, -1],  # (2j2-beta+1+rho-s)!
        [0, 0, 0, 0, 1],  # s!
        [-1, 0, 0, 1, -1],  # (rho-s)!
        [0, 0, 1, 0, -1],  # (alpha-s)!
        [-1, 1, -1, 0, 1],  # (beta-1-rho+s)!
        [-1, 1, 0, 0, 0],  # (k-1)!
        [0, 0, 1, 0, 0],  # alpha!
        [-2, 1, -1, 1, 0],  # (beta-1)!
        [-1, 0, 0, 1, 0],  # rho!
        [j + 3, -2, 0, -1, 0],  # (2j-2k+2-rho)!
        [j + 3, -2, 0, 0, 0],  # (2j-2k+3)!
        [j1, 0, -1, 0, 0],  # (2j1-alpha)!
        [j2 + 2, -1, 1, -1, 0],  # (2j2-beta+1)!
        [j2 + 1, -1, 0, 0, 0],  # (2j2-k+1)!
        [j1 + 1, -1, 0, 0, 0],  # (2j1-k+1)!
        [j + 2, -2, 0, 0, 0],  # (2j-2k+2)!
        [j + 2, -1, 0, 0, 0],  # (2j-k+2)!
    ])


def _ragged(first, count):
    """first[i], first[i] + 1, ..., first[i] + count[i] - 1 for each i, in
    one array."""
    return np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - first, count)


def _pass_parts(args, cells, lo, count, primes, log2p, table):
    """(sign, num, den) of the cells (rows k, alpha, r) of one pass, see
    _cell_parts; F' sums count terms from s = lo."""
    starts = np.cumsum(count) - count
    s = _ragged(lo, count)
    term_args = (args[:6, 1:4] @ np.repeat(cells, count, axis=1)
                 + args[:6, :1] + args[:6, 4:] * s)
    e = _exponents(table, _TERM_WEIGHT, term_args)
    g = np.minimum.reduceat(e, starts)
    terms = _prime_power(e - np.repeat(g, count, axis=0), primes, log2p)
    if terms.dtype != object and magnitude(terms) * int(count.max()) >= 2**63:
        terms = terms.astype(object)
    # f = (-1)^alpha F'': each term signed by (-1)^(alpha-s), from its
    # factorial (alpha-s)!
    f = np.add.reduceat(np.where(term_args[4] % 2, -terms, terms), starts)
    h = _exponents(table, _PREFACTOR_WEIGHT,
                   args[6:, 1:4] @ cells + args[6:, :1]) + 2 * g
    # the primes to h's positive and to its negative entries, in one call
    up, den = _prime_power(np.maximum([h, -h], 0).reshape(2 * len(h), -1),
                           primes, log2p).reshape(2, -1)
    num = _product(_product(f, f), up)
    common = np.gcd(num, den)
    return np.where(f > 0, 1, -1), num // common, den // common


def _cell_parts(two_j1: int, two_j2: int, k, r, alpha) -> tuple:
    """The integer parts (sign, num, den) of S^{k,r} at (alpha, beta =
    k + r - 1 - alpha), for int64 arrays of admissible cells: the closed
    forms of s_first_block, s_rone and s_general as arrays, each entry
    sign * sqrt(num/den) in lowest terms, num == 0 for a zero entry.  num
    and den are int64 when every value fits and Python ints otherwise, as
    int_column stores them."""
    primes, log2p, table = _legendre(two_j1 + two_j2 + 1)
    args = _arguments(two_j1, two_j2)
    cells = np.array([k, alpha, r])
    lo = np.maximum(0, alpha - k + 1)  # max(0, rho - beta + 1)
    count = np.minimum(r - 1, alpha) - lo + 1  # F' has a live term at least
    # pass i takes the cells whose first term is in [i per, (i + 1) per)
    per = max(1, _EXPONENTS_PER_PASS // max(1, len(primes)))
    cuts = np.flatnonzero(np.diff((np.cumsum(count) - count) // per)) + 1
    edges = [0, *cuts.tolist(), len(count)]
    parts = [
        _pass_parts(args, cells[:, a:b], lo[a:b], count[a:b], primes, log2p,
                    table)
        for a, b in zip(edges[:-1], edges[1:])
    ]
    sign, num, den = (np.concatenate(c) for c in zip(*parts))
    if num.dtype == object:
        num = int_column(num.tolist())
    if den.dtype == object:
        den = int_column(den.tolist())
    return sign, num, den


@dataclass(frozen=True)
class CGMatrix:
    layout: CouplingLayout
    matrix: XSum
    # the cell keys (q - 1) n + p of S's terms in storage order, ascending
    # when the terms are stored column by column, rows ascending, as
    # build_S stores them; None for any other S
    _cells: "np.ndarray | None" = field(default=None, repr=False, compare=False)
    # fields, not cached_properties: writing through __dict__ would slow
    # every later attribute read of the instance
    _report: "IntertwiningReport | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _table: "tuple | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def is_exact(self) -> bool:
        return self.matrix.is_exact()

    def entry(self, p: int, q: int):
        """S's entry (p, q).  With sorted cell keys it is one binary search
        and one term's scalar, so a lookup builds no term dict."""
        cells = self._cells
        if cells is None:
            return self.matrix.coeff(p, q)
        key = (q - 1) * self.matrix.order + p
        i = int(cells.searchsorted(key))
        if i == len(cells) or cells[i] != key:
            return 0
        return self.matrix.columns().scalar(i)

    @property
    def report(self) -> "IntertwiningReport":
        """verify_intertwining(self), computed once per S: build_S runs
        it, and later readers get the same report."""
        if self._report is None:
            object.__setattr__(self, "_report", verify_intertwining(self))
        return self._report

    def column_norms_sq(self) -> list:
        """Exact squared norms of columns 1..n of S, in one pass over S."""
        norms = [Fraction(0)] * self.layout.total
        for (_, q), c in self.matrix.term_map().items():
            norms[q - 1] += c * c
        return norms


@dataclass(frozen=True)
class IntertwiningReport:
    residual_3: float
    residual_plus: float
    residual_minus: float
    diagonal_exact: bool

    @property
    def max_residual(self) -> float:
        return max(self.residual_3, self.residual_plus, self.residual_minus)

    def passed(self, tol: float = 1e-10) -> bool:
        return self.max_residual < tol and self.diagonal_exact


def _assembled(lay: CouplingLayout) -> CGMatrix:
    """S from _cell_parts, unverified; its temporaries are freed on return,
    before build_S verifies it."""
    two_j1, two_j2, n, n2 = lay.twoJ1, lay.twoJ2, lay.total, lay.n2
    dims = np.array(lay.dims)
    # the top half of every block, rows r <= ceil(d/2), column by column:
    # cell (alpha, beta) with 1 <= beta = k + r - 1 - alpha <= n2, alpha
    # ascending
    half = (dims + 1) // 2
    col_k = np.repeat(np.arange(1, lay.n0 + 1), half)
    col_r = _ragged(1, half)
    top = col_k + col_r - 1
    first = np.maximum(0, top - n2)
    count = np.minimum(two_j1, top - 1) - first + 1
    k, r = np.repeat(col_k, count), np.repeat(col_r, count)
    alpha = _ragged(first, count)
    sign, num, den = _cell_parts(two_j1, two_j2, k, r, alpha)
    kept = np.flatnonzero(num)
    k, r, alpha = k[kept], r[kept], alpha[kept]
    d, z = dims[k - 1], (np.cumsum(dims) - dims)[k - 1]
    rows, cols = alpha * (n2 - 1) + k + r - 1, z + r  # p = alpha n2 + beta
    # each block is its top half and the Condon-Shortley reflection
    # <j1 -m1; j2 -m2 | J -M> = (-1)^(j1+j2-J) <j1 m1; j2 m2 | J M> of its
    # columns r <= d/2: row p goes to n + 1 - p, column z + r to
    # z + d + 1 - r, and (-1)^(j1+j2-J) = (-1)^(k-1)
    mirror = r <= d // 2
    rows = np.concatenate([rows, n + 1 - rows[mirror]])
    cols = np.concatenate([cols, (2 * z + d + 1 - cols)[mirror]])
    take = np.concatenate([kept, kept[mirror]])
    signs = sign[take]
    signs[len(kept):] *= np.where(k[mirror] % 2, 1, -1)
    # stored column by column, rows ascending
    cells = (cols - 1) * n + rows
    order = np.argsort(cells)
    take = take[order]
    store = Columns(SURD, rows[order], cols[order],
                    (signs[order], num[take], den[take]))
    # the cells are distinct and in range, and zeros are skipped
    return CGMatrix(lay, XSum._from_columns(n, store), cells[order])


def build_S(two_j1: int, two_j2: int) -> CGMatrix:
    """Assemble S from the closed forms; columns indexed q = z_{k-1} + r.

    S's terms are stored column by column, rows ascending, as integer
    Columns of kind SURD (sign, radicand numerator and denominator);
    cg_table lists them in that order.

    The closed forms fill the top half of each block, rows r <= ceil(d_k/2),
    every cell's integer parts at once from _cell_parts, in prime
    exponents on int64 arrays (Python ints where a value passes int64);
    the Condon-Shortley reflection fills the rest with the same radicands,
    for all blocks by array indexing.  The result is checked against the
    intertwining law; a residual above 1e-8 or a weight mismatch raises
    VerificationError.
    """
    lay = layout(two_j1, two_j2)  # refuses a negative 2j
    n = lay.total
    check_order(n)  # before any entry is computed
    cand = _assembled(lay)
    report = cand.report
    if report.max_residual > 1e-8 or not report.diagonal_exact:
        raise VerificationError(
            f"S({two_j1}/2 x {two_j2}/2) misses the intertwining law: "
            f"max residual {report.max_residual:.3e}, weights "
            f"{'match' if report.diagonal_exact else 'differ'}"
        )
    return cand


# S terms per pass of verify_intertwining: a pass makes three shifted
# copies of each term per ladder generator, so this bounds its arrays to
# a few MB at any order.
_TERMS_PER_PASS = 4096


def _generator_bands(lay: CouplingLayout):
    """The generators' entries per index, from the index formulas.

    Row p = a n2 + b (0-based) of the product space and column q, at
    level i of a d-level block, get their doubled weights 2j1 - 2a +
    2j2 - 2b and d - 1 - 2i, then per band (strides n2 and 1 on rows, 1 on
    columns) the J_+ entry into level k of m, sqrt(k (m - k)), and the
    J_- entry out of it, sqrt((k + 1)(m - 1 - k)); each is 0 where its
    step would leave the irrep.
    """
    def ladder(k, m):
        return np.sqrt(k * (m - k)), np.sqrt((k + 1) * (m - 1 - k))

    n = lay.total
    a, b = np.divmod(np.arange(n), lay.n2)
    d = np.repeat(lay.dims, lay.dims)
    i = np.arange(n) - np.repeat((0,) + lay.offsets[:-1], lay.dims)
    return (
        (lay.twoJ1 + lay.twoJ2 - 2 * (a + b),
         *ladder(a, lay.n1), *ladder(b, lay.n2)),
        (d - 1 - 2 * i, *ladder(i, d)),
    )


def _max_cell_sum(*parts):
    """max |sum| over the cells of (key, value) array pairs, each cell
    summed in part order."""
    keys = np.concatenate([k for k, _v in parts])
    vals = np.concatenate([v for _k, v in parts])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))  # one per cell
    return np.abs(np.add.reduceat(vals[order], starts)).max()


def verify_intertwining(s: CGMatrix) -> IntertwiningReport:
    """Residuals of J_a S - S Jtilde_a and the exact weight matching.

    Every generator is a diagonal or one or two fixed bands, so each term
    (p, q, v) of S moves one band step and is scaled by the band entry
    (_generator_bands).  Colliding cells are summed, whole blocks of S's
    columns at a time, so no dense n x n matrix and no generator matrix
    is formed.
    """
    lay = s.layout
    n, n2 = lay.total, lay.n2
    (two_m_row, up_a, dn_a, up_b, dn_b), (two_m_col, up_c, dn_c) = (
        _generator_bands(lay)
    )
    s_rows, s_cols, s_vals = s.matrix.triplets()
    order = np.argsort(s_cols, kind="stable")  # build_S stores by column
    # a pass ends at a block edge: J_a S keeps each column, and a column
    # step out of a block carries a zero band entry
    edges = [0]
    for end in np.searchsorted(s_cols[order], lay.offsets).tolist():
        if end - edges[-1] >= _TERMS_PER_PASS:
            edges.append(end)
    if edges[-1] < len(order):
        edges.append(len(order))
    w = n + 2 * n2  # key row span, one stride-n2 step of room each way
    worst, diag_ok = np.zeros(3), True
    for lo, hi in zip(edges[:-1], edges[1:]):
        idx = order[lo:hi]
        p, q, v = s_rows[idx], s_cols[idx], s_vals[idx]
        dm = two_m_row[p] - two_m_col[q]  # 2 m(p) - 2 M(q)
        diag_ok = diag_ok and not dm.any()
        key = (q + 1) * w + p + n2  # cell (p, q); steps never wrap
        worst = np.maximum(worst, (
            np.abs(dm / 2 * v).max(),  # J_3 S - S Jtilde_3
            _max_cell_sum(  # J_+ S - S Jtilde_+
                (key - n2, up_a[p] * v), (key - 1, up_b[p] * v),
                (key + w, -v * dn_c[q]),
            ),
            _max_cell_sum(  # J_- S - S Jtilde_-
                (key + n2, dn_a[p] * v), (key + 1, dn_b[p] * v),
                (key - w, -v * up_c[q]),
            ),
        ))
    return IntertwiningReport(*map(float, worst), diag_ok)


def ladder_oracle_S(two_j1: int, two_j2: int) -> CGMatrix:
    """Independent construction: per block, the top state is the weight
    vector orthogonal to every previously built column of that weight;
    the rest of the block is repeated normalized lowering.  Sign fixed
    by a positive alpha = 0 component of each top state."""
    lay = layout(two_j1, two_j2)  # refuses a negative 2j
    n = lay.total
    check_order(n)  # before the dense n x n array
    jm = product_gen(two_j1, two_j2, "minus").to_numpy().real
    cols = np.zeros((n, n))
    for k in range(1, lay.n0 + 1):
        # product states carrying the block's top weight: alpha+beta = k
        support = []
        for alpha in range(0, two_j1 + 1):
            beta = k - alpha
            if 1 <= beta <= lay.n2:
                support.append(alpha * lay.n2 + beta - 1)
        prev = [
            cols[support, lay.z(i - 1) + k - i]
            for i in range(1, k)
        ]
        if prev:
            _u, _s, vh = np.linalg.svd(np.array(prev))
            v = vh[-1]
        else:
            v = np.ones(1)
        top = np.zeros(n)
        top[support] = v / np.linalg.norm(v)
        if top[k - 1] < 0:  # alpha = 0 component is at p = k
            top = -top
        q = lay.z(k - 1) + 1
        cols[:, q - 1] = top
        vec = top
        for r in range(2, lay.dims[k - 1] + 1):
            vec = jm @ vec
            vec = vec / np.linalg.norm(vec)
            cols[:, q + r - 2] = vec
    terms = {
        (p, q): float(cols[p - 1, q - 1])
        for p in range(1, n + 1)
        for q in range(1, n + 1)
        if abs(cols[p - 1, q - 1]) > 1e-12
    }
    return CGMatrix(lay, XSum(n, terms))


@lru_cache(maxsize=64)
def _cached_S(two_j1: int, two_j2: int) -> CGMatrix:
    return build_S(two_j1, two_j2)


def cg_coefficient(
    two_j1: int,
    two_m1: int,
    two_j2: int,
    two_m2: int,
    two_j: int,
    two_m: int,
):
    """<j1 m1; j2 m2 | J M> with all six arguments doubled."""
    if two_j1 < 0 or two_j2 < 0:
        raise ValueError("twoJ must be nonnegative")
    for tj, tm in ((two_j1, two_m1), (two_j2, two_m2), (two_j, two_m)):
        if (tj - tm) % 2:
            raise DomainError("m must differ from j by an integer")
        if abs(tm) > tj:
            raise DomainError(f"|m| = {abs(tm)}/2 exceeds j = {tj}/2")
    if not abs(two_j1 - two_j2) <= two_j <= two_j1 + two_j2:
        raise DomainError("J outside the coupling range")
    if (two_j1 + two_j2 - two_j) % 2:
        raise DomainError("J has the wrong parity for j1 + j2")
    if two_m != two_m1 + two_m2:
        return _ZERO
    s = _cached_S(two_j1, two_j2)
    k1 = (two_j1 - two_m1) // 2 + 1
    k2 = (two_j2 - two_m2) // 2 + 1
    p = (k1 - 1) * s.layout.n2 + k2
    k = (two_j1 + two_j2 - two_j) // 2 + 1
    r = (two_j - two_m) // 2 + 1
    q = s.layout.z(k - 1) + r
    return s.entry(p, q)


def cg_table(two_j1: int, two_j2: int):
    """All coefficients grouped by (2J, 2M), highest J first, as rows
    (two_j, two_m, two_m1, two_m2, coefficient): the terms of one cached
    S in their stored order, each with the labels of its row (2m1, 2m2)
    and column (2J, 2M).  The rows are built once per cached S; each call
    returns a new list of them."""
    s = _cached_S(two_j1, two_j2)
    if s._table is None:
        n2 = s.layout.n2
        # (2J, 2M) of column q at index q - 1; 2J = d - 1 in a d-level block
        col_labels = [
            (d - 1, d - 1 - 2 * r) for d in s.layout.dims for r in range(d)
        ]
        # build_S stores S column by column, rows ascending: that is 2J
        # descending, then 2M descending, then 2m1 descending
        rows = []
        for (p, q), c in s.matrix.columns().pairs():
            alpha, beta = divmod(p - 1, n2)
            rows.append((*col_labels[q - 1], two_j1 - 2 * alpha,
                         two_j2 - 2 * beta, c))
        object.__setattr__(s, "_table", tuple(rows))
    return list(s._table)
