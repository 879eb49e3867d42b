"""The Clebsch-Gordan transformation in closed form.

S maps the product basis to the direct-sum basis: J S = S Jtilde for all
three coupled generators.  Entries are built by pure index arithmetic,
one square root per entry, through three nested closed forms: the first
block (binomial ratios), the first column of each block (alternating
signs), and the general entry (a terminating hypergeometric-type sum F
against a factored radical Theta).  Every matrix is verified against
the intertwining law before it is returned; a miss raises
VerificationError.  An independent ladder construction (extremal states
plus repeated lowering) is kept as the cross-check the tests use.

Sign conventions: each block's top entry at alpha = 0 is positive, the
global phase is 1 (Condon-Shortley compatible).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Tuple

import numpy as np

from .coupling import CouplingLayout, block_gen, layout, product_gen
from .exactnum import (
    DomainError,
    SqrtRational,
    binomial,
    ceil_ratio,
    pochhammer,
)
from .hubbard import XSum
from .su2 import weight

TWO_J_CAP = 64

_ZERO = SqrtRational(0, Fraction(0))


class VerificationError(RuntimeError):
    """A built matrix failed its own verification; names the residual."""


def _falling_ext(x: int, n: int) -> Fraction:
    """Falling factorial extended to negative length:
    (x)_falling(-n) = 1 / (x+1)_rising(n)."""
    if n >= 0:
        return Fraction(pochhammer(x, n, "falling"))
    return 1 / Fraction(pochhammer(x + 1, -n, "rising"))


@dataclass(frozen=True)
class CGIndex:
    """One admissible entry address: block k, in-block row r, and the
    product-side exponents (alpha, beta)."""

    alpha: int
    beta: int
    k: int
    r: int

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 1 or self.k < 1 or self.r < 1:
            raise ValueError("CGIndex components out of range")
        if self.k + self.r != self.alpha + self.beta + 1:
            raise ValueError("selection rule k + r = alpha + beta + 1 violated")

    def p(self, lay: CouplingLayout) -> int:
        return self.alpha * lay.n2 + self.beta

    def q(self, lay: CouplingLayout) -> int:
        return lay.z(self.k - 1) + self.r


def admissible_indices(lay: CouplingLayout) -> Iterator[CGIndex]:
    for k in range(1, lay.n0 + 1):
        for r in range(1, lay.dims[k - 1] + 1):
            for alpha in range(0, lay.twoJ1 + 1):
                beta = k + r - 1 - alpha
                if 1 <= beta <= lay.n2:
                    yield CGIndex(alpha, beta, k, r)


def s_first_block(
    two_j1: int, two_j2: int, alpha: int, beta: int
) -> SqrtRational:
    """S^{1,r} with r = alpha + beta: a positive binomial ratio."""
    if not (0 <= alpha <= two_j1 and 1 <= beta <= two_j2 + 1):
        return _ZERO
    num = binomial(two_j1, alpha) * binomial(two_j2, beta - 1)
    den = binomial(two_j1 + two_j2, alpha + beta - 1)
    return SqrtRational.sqrt(Fraction(num, den))


def s_rone(
    two_j1: int, two_j2: int, k: int, alpha: int, beta: int
) -> SqrtRational:
    """S^{k,1}: first column of block k, alternating in alpha."""
    if alpha + beta != k:
        return _ZERO
    if not (0 <= alpha <= two_j1 and 1 <= beta <= two_j2 + 1):
        return _ZERO
    two_j = two_j1 + two_j2
    num = (
        Fraction(pochhammer(beta, alpha, "rising"), math.factorial(alpha))
        * pochhammer(two_j2 - beta + 1, alpha, "falling")
        * pochhammer(two_j1 - alpha, k - 1 - alpha, "falling")
    )
    den = pochhammer(two_j - k + 2, k - 1, "falling")
    mag = SqrtRational.sqrt(num / den)
    return -mag if alpha % 2 else mag


def s_general(
    two_j1: int, two_j2: int, k: int, r: int, alpha: int, beta: int
) -> SqrtRational:
    """S^{k,r} for any admissible index, via the F * Theta split.

    F is the terminating alternating sum; Theta carries the radical.
    Reduces to s_first_block at k = 1 and to s_rone at r = 1.
    """
    if not (0 <= alpha <= two_j1 and 1 <= beta <= two_j2 + 1):
        return _ZERO
    if k + r != alpha + beta + 1:
        return _ZERO
    two_j = two_j1 + two_j2
    rr = r - 1  # the sum order; row r is built from r-1 lowering steps
    f = Fraction(0)
    for s in range(0, rr + 1):
        term = (
            Fraction(binomial(rr, s))
            * pochhammer(alpha, s, "falling")
            * pochhammer(beta - 1, rr - s, "falling")
            * pochhammer(two_j1 - alpha + 1, s, "rising")
            * pochhammer(two_j2 - beta + 2, rr - s, "rising")
        )
        f += -term if s % 2 else term
    theta_sq = (
        _falling_ext(two_j2 - beta + 1, alpha - rr)
        * math.factorial(k - 1)
        * pochhammer(two_j1, k - 1, "falling")
        / (
            Fraction(math.factorial(alpha))
            * math.factorial(beta - 1)
            * pochhammer(two_j1, alpha, "falling")
            * math.factorial(rr)
            * pochhammer(two_j - 2 * k + 2, rr, "falling")
            * pochhammer(two_j - k + 2, k - 1, "falling")
        )
    )
    if theta_sq < 0:
        raise DomainError(
            f"negative radicand at k={k}, r={r}, alpha={alpha}, beta={beta}"
        )
    value = SqrtRational.sqrt(theta_sq) * f
    return -value if alpha % 2 else value


@dataclass(frozen=True)
class CGMatrix:
    layout: CouplingLayout
    matrix: XSum

    def is_exact(self) -> bool:
        return self.matrix.is_exact()

    def entry(self, p: int, q: int):
        return self.matrix.coeff(p, q)

    def column_norm_sq(self, q: int):
        return sum(
            (c * c for ((_, qq), c) in self.matrix.items() if qq == q),
            Fraction(0),
        )


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


def _check_cap(two_j1: int, two_j2: int):
    if two_j1 < 0 or two_j2 < 0:
        raise ValueError("twoJ must be nonnegative")
    if two_j1 > TWO_J_CAP or two_j2 > TWO_J_CAP:
        raise DomainError(f"twoJ above the cap {TWO_J_CAP}")


def build_S(two_j1: int, two_j2: int) -> CGMatrix:
    """Assemble S from the closed forms; columns indexed q = z_{k-1} + r.

    The result is checked against the intertwining law; a residual above
    1e-8 or a weight mismatch raises VerificationError.
    """
    _check_cap(two_j1, two_j2)
    lay = layout(two_j1, two_j2)
    terms = {}
    for idx in admissible_indices(lay):
        if idx.k == 1:
            c = s_first_block(two_j1, two_j2, idx.alpha, idx.beta)
        elif idx.r == 1:
            c = s_rone(two_j1, two_j2, idx.k, idx.alpha, idx.beta)
        else:
            c = s_general(two_j1, two_j2, idx.k, idx.r, idx.alpha, idx.beta)
        if c:
            terms[(idx.p(lay), idx.q(lay))] = c
    cand = CGMatrix(lay, XSum(lay.total, terms))
    report = verify_intertwining(cand)
    if report.max_residual > 1e-8 or not report.diagonal_exact:
        raise VerificationError(
            f"S({two_j1}/2 x {two_j2}/2) misses the intertwining law: "
            f"max residual {report.max_residual:.3e}, weights "
            f"{'match' if report.diagonal_exact else 'differ'}"
        )
    return cand


def verify_intertwining(s: CGMatrix) -> IntertwiningReport:
    """Residuals of J_a S - S Jtilde_a and the exact weight matching."""
    lay = s.layout
    sm = s.matrix.to_numpy()
    residuals = {}
    for which in ("3", "plus", "minus"):
        a = product_gen(lay.twoJ1, lay.twoJ2, which).to_numpy()
        b = block_gen(lay.twoJ1, lay.twoJ2, which).flatten().to_numpy()
        residuals[which] = float(np.abs(a @ sm - sm @ b).max())
    diag_ok = True
    for ((p, q), _c) in s.matrix.items():
        pp = ceil_ratio(p, lay.n2)
        wp = weight(lay.twoJ1, pp) + weight(lay.twoJ2, p + lay.n2 - lay.n2 * pp)
        k = bisect_left(lay.offsets, q) + 1  # first block with q <= z_k
        r = q - lay.z(k - 1)
        if wp != weight(lay.block_two_j(k), r):
            diag_ok = False
            break
    return IntertwiningReport(
        residuals["3"], residuals["plus"], residuals["minus"], diag_ok
    )


def ladder_oracle_S(two_j1: int, two_j2: int) -> CGMatrix:
    """Independent construction: per block, the top state is the weight
    vector orthogonal to every previously built column of that weight;
    the rest of the block is repeated normalized lowering.  Sign fixed
    by a positive alpha = 0 component of each top state."""
    _check_cap(two_j1, two_j2)
    lay = layout(two_j1, two_j2)
    n = lay.total
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
    _check_cap(two_j1, two_j2)
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
    (two_j, two_m, two_m1, two_m2, coefficient)."""
    _check_cap(two_j1, two_j2)
    rows = []
    for two_j in range(two_j1 + two_j2, abs(two_j1 - two_j2) - 2, -2):
        for two_m in range(two_j, -two_j - 2, -2):
            for two_m1 in range(two_j1, -two_j1 - 2, -2):
                two_m2 = two_m - two_m1
                if abs(two_m2) > two_j2:
                    continue
                c = cg_coefficient(
                    two_j1, two_m1, two_j2, two_m2, two_j, two_m
                )
                if c:
                    rows.append((two_j, two_m, two_m1, two_m2, c))
    return rows
