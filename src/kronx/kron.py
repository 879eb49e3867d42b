"""Kronecker products by index arithmetic on operator terms.

The single-term rule X_m^(i,j) (x) X_n^(k,l) = X_mn^(n(i-1)+k, n(j-1)+l)
drives the sparse path, one kernel for every kind of operand: index
arithmetic on the operands' hubbard.Columns, whose values Columns.times
multiplies.  The equivalent closed-form coefficient formula
c_pq = a_(p',q') b_(p+m-mp', q+m-mq') with p' = ceil(p/m) drives a second,
independent dense path.  Both are first-class and cross-checked: the index
formulas are the point of the library, the term path is the fast kernel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .exactnum import Scalar, SqrtRational, ceil_ratio, scalar_mul
from .hubbard import Columns, XSum, check_order


def kron(a: XSum, b: XSum, path: str = "sparse") -> XSum:
    """Tensor product A (x) B of order a.order * b.order."""
    if path == "sparse":
        return _kron_sparse(a, b)
    if path == "closed":
        return kron_many((a, b), path="closed")
    raise ValueError(f"unknown kron path {path!r}")


def _kron_columns(a: Columns, b: Columns, n: int) -> Columns:
    """The single-term rule on whole columns: term (i, j) of a times term
    (k, l) of b lands at (n(i-1)+k, n(j-1)+l), a-major, b's terms in
    storage order."""
    # a's terms as an (n, 1) column, so that every pair meets by broadcasting
    a = a.take(np.s_[:, None])
    return a.times(b, n * (a.rows - 1) + b.rows, n * (a.cols - 1) + b.cols)


def _kron_sparse(a: XSum, b: XSum) -> XSum:
    """The one sparse kernel, whatever the operands' kinds: the index rule
    puts each product in its own cell, so its columns are the result."""
    n = b.order
    order = a.order * n
    check_order(order)
    return XSum._from_columns(order, _kron_columns(a.columns(), b.columns(), n))


def _factor_indices(p: int, orders: Sequence[int]) -> Tuple[int, ...]:
    """Split a flat product index into per-factor indices, last factor first
    stripped: i_r = u + n_r - n_r*ceil(u/n_r)."""
    out = [0] * len(orders)
    u = p
    for r in range(len(orders) - 1, -1, -1):
        nr = orders[r]
        up = ceil_ratio(u, nr)
        out[r] = u + nr - nr * up
        u = up
    return tuple(out)


def kron_many(factors, path: str = "fold") -> XSum:
    """Tensor product of several factors.

    fold: left-to-right repeated kron.  closed: one pass with the
    multi-factor coefficient formula (every factor index recovered from the
    flat index by iterated ceilings).
    """
    factors = list(factors)
    if not factors:
        raise ValueError("at least one factor required")
    if path == "fold":
        out = factors[0]
        for f in factors[1:]:
            out = kron(out, f)
        return out
    if path != "closed":
        raise ValueError(f"unknown kron_many path {path!r}")
    orders = [f.order for f in factors]
    total = 1
    for n in orders:
        total *= n
    check_order(total)
    terms = {}
    for p in range(1, total + 1):
        pidx = _factor_indices(p, orders)
        for q in range(1, total + 1):
            qidx = _factor_indices(q, orders)
            c: Scalar = 1
            for f, i, j in zip(factors, pidx, qidx):
                cf = f.coeff(i, j)
                if not cf:
                    c = 0
                    break
                c = scalar_mul(c, cf)
            if c:
                terms[(p, q)] = c
    return XSum(total, terms)


def kron_power(a: XSum, t: int) -> XSum:
    """t-fold tensor power of a single factor, by repeated kron;
    kron_many([a] * t, path="closed") is the closed-form cross-check."""
    if t < 1:
        raise ValueError("power must be >= 1")
    return kron_many([a] * t)


def kron_vec(x: Sequence[Scalar], y: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    """Tensor product of two column vectors under the same flat indexing."""
    return tuple(scalar_mul(a, b) for a in x for b in y)


def hadamard() -> XSum:
    """The 2x2 Hadamard matrix with exact 1/sqrt(2) entries."""
    c = SqrtRational.sqrt(Fraction(1, 2))
    return XSum(2, {(1, 1): c, (1, 2): c, (2, 1): c, (2, 2): -c})


def hadamard_power(t: int, form: str = "ceiling") -> XSum:
    """H^(x t): every entry is +-2^(-t/2), sign from one of two equivalent
    exponent formulas (iterated-ceiling sum vs bitwise dot of p-1, q-1)."""
    if t < 1:
        raise ValueError("power must be >= 1")
    if form not in ("ceiling", "binary"):
        raise ValueError(f"unknown hadamard form {form!r}")
    order = 2**t
    check_order(order)
    scale = Fraction(1, 2**t)  # radicand of 2^(-t/2)
    terms = {}
    for p in range(1, order + 1):
        for q in range(1, order + 1):
            if form == "ceiling":
                expo = sum(
                    (ceil_ratio(p, 2**s) - 1) * (ceil_ratio(q, 2**s) - 1)
                    for s in range(t)
                )
            else:
                expo = ((p - 1) & (q - 1)).bit_count()
            sign = -1 if expo % 2 else 1
            terms[(p, q)] = SqrtRational(sign, scale)
    return XSum(order, terms)

