"""The Clebsch-Gordan transformation in closed form.

S maps the product basis to the direct-sum basis: J S = S Jtilde for all
three coupled generators.  Entries are built by pure index arithmetic
through three nested closed forms: the first block (binomial ratios),
the first column of each block (alternating signs), and the general
entry (a terminating alternating sum F against a factored radical
Theta).  Each entry is computed in Python integers and becomes one
Fraction, its radicand; only the top half of each block is computed,
and the Condon-Shortley reflection m -> -m gives the rest.  Every matrix
is verified against the intertwining law, by sparse products against
generators written from their index formulas, before it is returned; a
miss raises VerificationError.  An independent ladder construction (extremal
states plus repeated lowering) is kept as the cross-check the tests use.

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
from .exactnum import DomainError, SqrtRational
from .hubbard import XSum, check_order

_ZERO = SqrtRational(0, Fraction(0))


class VerificationError(RuntimeError):
    """A built matrix failed its own verification; names the residual."""


def _falling(x: int, n: int) -> int:
    """The falling factorial x(x-1)...(x-n+1) of an int x of either sign;
    for x < 0 it is (-1)^n (-x)(-x+1)...(-x+n-1).  s_general's guard
    admits k beyond the last block, where 2j - 2k + 2 is negative."""
    if x >= 0:
        return math.perm(x, n)
    return (-1) ** n * math.perm(n - 1 - x, n)


# The entries below are integer arithmetic: every rising factorial
# (x)_n with x >= 1 is perm(x + n - 1, n), every falling one with x >= 0
# is perm(x, n), and each entry builds a single Fraction, its radicand.


def s_first_block(
    two_j1: int, two_j2: int, alpha: int, beta: int
) -> SqrtRational:
    """S^{1,r} with r = alpha + beta: a positive binomial ratio."""
    if not (0 <= alpha <= two_j1 and 1 <= beta <= two_j2 + 1):
        return _ZERO
    num = math.comb(two_j1, alpha) * math.comb(two_j2, beta - 1)
    den = math.comb(two_j1 + two_j2, alpha + beta - 1)
    return SqrtRational._trusted(1, Fraction(num, den))


def s_rone(
    two_j1: int, two_j2: int, k: int, alpha: int, beta: int
) -> SqrtRational:
    """S^{k,1}: first column of block k, alternating in alpha."""
    if alpha + beta != k:
        return _ZERO
    if not (0 <= alpha <= two_j1 and 1 <= beta <= two_j2 + 1):
        return _ZERO
    two_j = two_j1 + two_j2
    # (beta)_alpha rising / alpha! * (2j2-beta+1)_alpha falling
    #   * (2j1-alpha)_{k-1-alpha} falling / (2j-k+2)_{k-1} falling
    radicand = Fraction(
        math.comb(alpha + beta - 1, alpha)
        * math.perm(two_j2 - beta + 1, alpha)
        * math.perm(two_j1 - alpha, k - 1 - alpha),
        math.perm(two_j - k + 2, k - 1),
    )
    if not radicand:
        return _ZERO
    return SqrtRational._trusted(-1 if alpha % 2 else 1, radicand)


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
        * _falling(two_j - 2 * k + 2, rr)
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
    # F = sum_s (-1)^s C(rr,s) (alpha)_s (beta-1)_{rr-s} falling
    #                   * (2j1-alpha+1)_s (2j2-beta+2)_{rr-s} rising;
    # terms with s > alpha or rr - s > beta - 1 vanish.
    f = 0
    for s in range(max(0, rr - beta + 1), min(rr, alpha) + 1):
        term = (
            math.comb(rr, s)
            * math.perm(alpha, s)
            * math.perm(beta - 1, rr - s)
            * math.perm(two_j1 - alpha + s, s)
            * math.perm(two_j2 - beta + 1 + rr - s, rr - s)
        )
        f += -term if s % 2 else term
    radicand = Fraction(num * f * f, den)
    if not radicand:
        return _ZERO
    sign = 1 if f > 0 else -1
    return SqrtRational._trusted(-sign if alpha % 2 else sign, radicand)


@dataclass(frozen=True)
class CGMatrix:
    layout: CouplingLayout
    matrix: XSum
    # a field, not a cached_property: writing through __dict__ would slow
    # every later attribute read of the instance
    _report: "IntertwiningReport | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def is_exact(self) -> bool:
        return self.matrix.is_exact()

    def entry(self, p: int, q: int):
        return self.matrix.coeff(p, q)

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


def _check_twoj(two_j1: int, two_j2: int):
    # No cap on 2j itself: S is limited by the order cap (check_order),
    # and a single entry costs integer arithmetic only.
    if two_j1 < 0 or two_j2 < 0:
        raise ValueError("twoJ must be nonnegative")


def build_S(two_j1: int, two_j2: int) -> CGMatrix:
    """Assemble S from the closed forms; columns indexed q = z_{k-1} + r.

    The closed forms fill the top half of each block, rows r <= ceil(d_k/2);
    the Condon-Shortley reflection fills the rest with the same radicands.
    The result is checked against the intertwining law; a residual above
    1e-8 or a weight mismatch raises VerificationError.
    """
    _check_twoj(two_j1, two_j2)
    lay = layout(two_j1, two_j2)
    n = lay.total
    check_order(n)  # before any entry is computed
    n2 = lay.n2
    terms = {}
    for k, (d, z) in enumerate(zip(lay.dims, (0,) + lay.offsets), start=1):
        # rows r <= ceil(d/2) from the closed forms: cell (alpha, beta)
        # with 1 <= beta = k + r - 1 - alpha <= n2, alpha in increasing
        # order; zeros are skipped
        rows = []
        for r in range(1, (d + 1) // 2 + 1):
            top = k + r - 1
            row = []
            for alpha in range(max(0, top - n2), min(two_j1, top - 1) + 1):
                beta = top - alpha
                if k == 1:
                    c = s_first_block(two_j1, two_j2, alpha, beta)
                elif r == 1:
                    c = s_rone(two_j1, two_j2, k, alpha, beta)
                else:
                    c = s_general(two_j1, two_j2, k, r, alpha, beta)
                if c:
                    row.append((alpha * n2 + beta, c))
            rows.append(row)
        # rows past the middle by the Condon-Shortley reflection
        # <j1 -m1; j2 -m2 | J -M> = (-1)^(j1+j2-J) <j1 m1; j2 m2 | J M>:
        # row p = alpha n2 + beta goes to n + 1 - p, column r to d + 1 - r,
        # and (-1)^(j1+j2-J) = (-1)^(k-1)
        for r in range(d // 2, 0, -1):
            rows.append([
                (n + 1 - p, -c if k % 2 == 0 else c)
                for p, c in reversed(rows[r - 1])
            ])
        for q, row in enumerate(rows, start=z + 1):
            for p, c in row:
                terms[(p, q)] = c
    # the cells are distinct and in range, and zeros are skipped
    cand = CGMatrix(lay, XSum._trusted(n, terms))
    report = cand.report
    if report.max_residual > 1e-8 or not report.diagonal_exact:
        raise VerificationError(
            f"S({two_j1}/2 x {two_j2}/2) misses the intertwining law: "
            f"max residual {report.max_residual:.3e}, weights "
            f"{'match' if report.diagonal_exact else 'differ'}"
        )
    return cand


_GENERATORS = ("3", "plus", "minus")

# S terms per pass of verify_intertwining: a pass makes about eight
# products per term, so this bounds its arrays to a few MB at any order.
_TERMS_PER_PASS = 4096


def _triplets(x: XSum):
    """x.triplets() sorted by row."""
    rows, cols, vals = x.triplets()
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order], vals[order]


def _stack(p, weight, plus):
    """One side of _generator_triplets: J_3 = weight on the diagonal cells
    p where it is nonzero, the (row, column, value) bands of J_+ and their
    transposes as J_-, stacked with generator index 0, 1, 2 and sorted by
    row."""
    keep = weight != 0
    parts = [(p[keep], p[keep], weight[keep]), *plus]
    parts += [(c, r, v) for r, c, v in plus]
    gen = np.repeat(
        [0] + [1] * len(plus) + [2] * len(plus),
        [len(r) for r, _c, _v in parts],
    )
    rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(rows, kind="stable")
    side = (gen[order], rows[order], cols[order], vals[order])
    for a in side:
        a.flags.writeable = False
    return side


def _raising_band(p, k, d, step):
    """J_+ terms (p, p + step) of the cells p at level k (0-based) of a
    d-level irrep: every level below the top, sqrt((k + 1)(d - 1 - k))."""
    up = k < d - 1
    return p[up], p[up] + step, np.sqrt((k + 1) * (d - 1 - k))[up]


@lru_cache(maxsize=64)
def _generator_triplets(two_j1: int, two_j2: int):
    """(generator, row, column, value) arrays of J_3, J_+, J_- stacked, and
    of the flattened block generators stacked the same way; the generator
    index is 0, 1, 2 in _GENERATORS order.  Each side is sorted by row,
    its values are real, and every array is read-only: the cache hands the
    same arrays to every caller.

    The entries come from the index formulas, with no XSum built: row
    p = a n2 + b (0-based) of the product space carries m1 + m2 =
    (2j1 - 2a + 2j2 - 2b)/2 and the two J_+ bands of stride n2 and 1;
    block k is the d_k-level irrep at offset z_{k-1}.  Within a row the
    stride-n2 band comes first, as in A (x) I + I (x) B.
    """
    lay = layout(two_j1, two_j2)
    n1, n2 = lay.n1, lay.n2
    p = np.arange(lay.total)
    a, b = np.divmod(p, n2)
    product = _stack(
        p, (two_j1 - 2 * a + two_j2 - 2 * b) / 2,
        [_raising_band(p, a, n1, n2), _raising_band(p, b, n2, 1)],
    )
    d = np.repeat(lay.dims, lay.dims)
    i = p - np.repeat((0,) + lay.offsets[:-1], lay.dims)  # level in block
    block = _stack(p, (d - 1 - 2 * i) / 2, [_raising_band(p, i, d, 1)])
    return product, block


def _join(left: np.ndarray, right_sorted: np.ndarray):
    """Index pairs (l, r) with left[l] == right_sorted[r], grouped by l."""
    lo = np.searchsorted(right_sorted, left, "left")
    count = np.searchsorted(right_sorted, left, "right") - lo
    li = np.repeat(np.arange(len(left)), count)
    ri = np.arange(len(li)) + np.repeat(lo - np.cumsum(count) + count, count)
    return li, ri


def verify_intertwining(s: CGMatrix) -> IntertwiningReport:
    """Residuals of J_a S - S Jtilde_a and the exact weight matching.

    S and the six generators are sparse triplets; the three residuals are
    sparse triplet products summed over colliding cells, a row range of S
    at a time, so no dense n x n matrix is formed.
    """
    lay = s.layout
    n = lay.total
    s_rows, s_cols, s_vals = _triplets(s.matrix)
    (a_gen, a_rows, a_cols, a_vals), (b_gen, b_rows, b_cols, b_vals) = (
        _generator_triplets(lay.twoJ1, lay.twoJ2)
    )
    worst = np.zeros(len(_GENERATORS))
    # residual rows [lo, hi) need the generator terms of those rows for
    # J_a S, and the S terms of those rows for S Jtilde_a
    edges = [0, *s_rows[_TERMS_PER_PASS::_TERMS_PER_PASS].tolist(), n]
    for lo, hi in zip(edges[:-1], edges[1:]):
        a0, a1 = np.searchsorted(a_rows, (lo, hi))
        s0, s1 = np.searchsorted(s_rows, (lo, hi))
        ia, js = _join(a_cols[a0:a1], s_rows)  # J_a[i, p] S[p, q]
        ia += a0
        is_, jb = _join(s_cols[s0:s1], b_rows)  # S[p, q] Jtilde_a[q, j]
        is_ += s0
        # cell (i, q) of generator g's residual is key (g n + i) n + q
        keys = np.concatenate((
            (a_gen[ia] * n + a_rows[ia]) * n + s_cols[js],
            (b_gen[jb] * n + s_rows[is_]) * n + b_cols[jb],
        ))
        vals = np.concatenate((
            a_vals[ia] * s_vals[js], -s_vals[is_] * b_vals[jb]
        ))
        order = np.argsort(keys)
        keys, vals = keys[order], vals[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))  # one per cell
        sums = np.add.reduceat(vals, starts)
        np.maximum.at(worst, keys[starts] // (n * n), np.abs(sums))
    # doubled weights: 2(m1 + m2) = 2j1 + 2j2 - 2 alpha - 2(beta - 1) of
    # row p = alpha n2 + beta against 2M = 2J_k + 2 - 2r of column
    # q = z_{k-1} + r, with 2J_k = 2j1 + 2j2 + 2 - 2k
    two_j12 = lay.twoJ1 + lay.twoJ2
    alpha, beta = np.divmod(s_rows, lay.n2)  # beta counted from 0 here
    z = np.array((0,) + lay.offsets)
    k = np.searchsorted(z, s_cols + 1)  # first block with q <= z_k
    r = s_cols + 1 - z[k - 1]
    diag_ok = bool(np.array_equal(
        two_j12 - 2 * (alpha + beta), two_j12 + 4 - 2 * k - 2 * r
    ))
    return IntertwiningReport(*map(float, worst), diag_ok)


def ladder_oracle_S(two_j1: int, two_j2: int) -> CGMatrix:
    """Independent construction: per block, the top state is the weight
    vector orthogonal to every previously built column of that weight;
    the rest of the block is repeated normalized lowering.  Sign fixed
    by a positive alpha = 0 component of each top state."""
    _check_twoj(two_j1, two_j2)
    lay = layout(two_j1, two_j2)
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
    _check_twoj(two_j1, two_j2)
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
    lay = layout(two_j1, two_j2)
    k1 = (two_j1 - two_m1) // 2 + 1
    k2 = (two_j2 - two_m2) // 2 + 1
    p = (k1 - 1) * lay.n2 + k2
    k = (two_j1 + two_j2 - two_j) // 2 + 1
    r = (two_j - two_m) // 2 + 1
    q = lay.z(k - 1) + r
    return _cached_S(two_j1, two_j2).entry(p, q)


def cg_table(two_j1: int, two_j2: int):
    """All coefficients grouped by (2J, 2M), highest J first, as rows
    (two_j, two_m, two_m1, two_m2, coefficient).  Every entry is read
    from one cached S by the index arithmetic of cg_coefficient."""
    _check_twoj(two_j1, two_j2)
    s = _cached_S(two_j1, two_j2)
    lay = s.layout
    rows = []
    two_js = range(two_j1 + two_j2, abs(two_j1 - two_j2) - 2, -2)
    for k, two_j in enumerate(two_js, start=1):
        z = lay.z(k - 1)
        for r, two_m in enumerate(range(two_j, -two_j - 2, -2), start=1):
            for alpha, two_m1 in enumerate(range(two_j1, -two_j1 - 2, -2)):
                two_m2 = two_m - two_m1
                if abs(two_m2) > two_j2:
                    continue
                beta = (two_j2 - two_m2) // 2 + 1
                c = s.entry(alpha * lay.n2 + beta, z + r)
                if c:
                    rows.append((two_j, two_m, two_m1, two_m2, c))
    return rows
