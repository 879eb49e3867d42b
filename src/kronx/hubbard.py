"""Sparse operator algebra over single-entry (Hubbard) operators.

X_n^(i,j) is the n x n matrix with a lone 1 at row i, column j.  Every
matrix here is an XSum: a weighted sum of such terms, stored as a map from
1-based (row, col) pairs to scalar coefficients.  Products contract by the
delta rule X^(i,j) X^(k,l) = delta_jk X^(i,l), so the whole algebra runs on
subscripts without ever materializing dense arrays.
"""

from __future__ import annotations

import os
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence, Tuple

import numpy as np

from .exactnum import (
    Scalar,
    scalar_add,
    scalar_conj,
    scalar_is_exact,
    scalar_mul,
)

MAX_DIM_ENV = "KRONX_MAX_DIM"
DEFAULT_MAX_DIM = 4096


class DimensionError(ValueError):
    """Operand orders are incompatible."""


class ResourceError(RuntimeError):
    """A construction would exceed the configured size cap."""


def max_dim() -> int:
    return int(os.environ.get(MAX_DIM_ENV, DEFAULT_MAX_DIM))


def check_order(order: int) -> None:
    """Reject an order that is not a positive int or exceeds max_dim().

    Builders call this before they allocate, so an oversized request fails
    with ResourceError instead of filling memory first."""
    if type(order) is not int or order < 1:
        raise ValueError("order must be a positive integer")
    cap = max_dim()
    if order > cap:
        raise ResourceError(f"order {order} exceeds {MAX_DIM_ENV}={cap}")


def _as_scalar(c: object) -> Scalar:
    # numpy scalars leak in via from_dense; keep the coefficient tower pure
    if isinstance(c, np.generic):
        return c.item()
    return c  # type: ignore[return-value]


class XSum:
    """A square matrix as a weighted sum of Hubbard operators.

    Immutable once built.  Zero coefficients are pruned eagerly; tiny
    nonzero float/complex coefficients are kept, never dropped implicitly.
    """

    __slots__ = ("order", "_terms")

    def __init__(
        self,
        order: int,
        terms: Mapping[Tuple[int, int], Scalar] | Iterable | None = None,
    ) -> None:
        check_order(order)
        object.__setattr__(self, "order", order)
        store: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for (i, j), c in items:
                if not (1 <= i <= order and 1 <= j <= order):
                    raise IndexError(
                        f"term ({i}, {j}) outside [1, {order}]^2"
                    )
                c = _as_scalar(c)
                if not c:
                    continue
                if (i, j) in store:
                    c = scalar_add(store[(i, j)], c)
                    if not c:
                        del store[(i, j)]
                        continue
                store[(i, j)] = c
        object.__setattr__(self, "_terms", store)

    @classmethod
    def _trusted(cls, order: int, store: dict) -> "XSum":
        """Wrap an already normalised term dict without copying it.

        Only the order is checked.  The caller guarantees the invariants
        __init__ would establish: every key (i, j) lies in [1, order]^2, no
        coefficient is zero, and no one else keeps a reference to store.
        """
        check_order(order)
        obj = object.__new__(cls)
        object.__setattr__(obj, "order", order)
        object.__setattr__(obj, "_terms", store)
        return obj

    # frozen-ish: block accidental attribute writes
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("XSum is immutable")

    def coeff(self, i: int, j: int) -> Scalar:
        return self._terms.get((i, j), 0)

    def items(self) -> Iterator[Tuple[Tuple[int, int], Scalar]]:
        """Terms in (row, col) lexicographic order."""
        for key in sorted(self._terms):
            yield key, self._terms[key]

    def values(self) -> Iterator[Scalar]:
        """Coefficients in storage order, without sorting."""
        return iter(self._terms.values())

    def term_map(self) -> dict:
        return dict(self._terms)

    def nnz(self) -> int:
        return len(self._terms)

    def is_exact(self) -> bool:
        return all(scalar_is_exact(c) for c in self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XSum):
            return NotImplemented
        return self.order == other.order and self._terms == other._terms

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("XSum is not hashable")

    def __add__(self, other: "XSum") -> "XSum":
        return xsum_linear("add", self, other)

    def __sub__(self, other: "XSum") -> "XSum":
        return xsum_linear("sub", self, other)

    def __neg__(self) -> "XSum":
        return xsum_linear("scale", self, -1)

    def __mul__(self, c: Scalar) -> "XSum":
        if isinstance(c, XSum):
            raise TypeError("use A @ B for the operator product")
        return xsum_linear("scale", self, c)

    __rmul__ = __mul__

    def __matmul__(self, other: "XSum") -> "XSum":
        return xsum_mul(self, other)

    def __pow__(self, k: int) -> "XSum":
        if not isinstance(k, int) or k < 1:
            raise ValueError("power must be a positive integer")
        out = self
        for _ in range(k - 1):
            out = xsum_mul(out, self)
        return out

    def scale(self, c: Scalar) -> "XSum":
        return xsum_linear("scale", self, c)

    def dagger(self, mode: str = "adjoint") -> "XSum":
        return dagger(self, mode)

    def transpose(self) -> "XSum":
        return dagger(self, "transpose")

    def conjugate(self) -> "XSum":
        return dagger(self, "conjugate")

    def trace(self) -> Scalar:
        return trace(self)

    def apply(self, x: Sequence[Scalar]) -> Tuple[Scalar, ...]:
        return apply(self, x)

    def to_dense(self) -> list:
        return to_dense(self)

    def triplets(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """0-based rows, 0-based columns and complex values of the terms in
        storage order: the one route from terms to float arrays."""
        nnz = len(self._terms)
        cells = np.fromiter(chain.from_iterable(self._terms), np.intp, 2 * nnz)
        vals = np.fromiter(map(complex, self.values()), complex, nnz)
        cells -= 1
        return cells[0::2], cells[1::2], vals

    def to_numpy(self) -> np.ndarray:
        rows, cols, vals = self.triplets()
        out = np.zeros((self.order, self.order), dtype=complex)
        out[rows, cols] = vals
        return out

    def __str__(self) -> str:
        if not self._terms:
            return f"0 (order {self.order})"
        parts = [f"({c})*X[{i},{j}]" for (i, j), c in self.items()]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"XSum(order={self.order}, nnz={len(self._terms)})"


def x_op(n: int, i: int, j: int) -> XSum:
    """The elementary operator X_n^(i,j) as a one-term sum."""
    return XSum(n, {(i, j): 1})


def identity(n: int) -> XSum:
    return XSum(n, {(k, k): 1 for k in range(1, n + 1)})


def xsum_mul(a: XSum, b: XSum) -> XSum:
    """Operator product by delta contraction on inner subscripts."""
    if a.order != b.order:
        raise DimensionError(
            f"order mismatch: {a.order} vs {b.order}"
        )
    rows_of_b: dict = {}
    for (k, l), c in b._terms.items():
        rows_of_b.setdefault(k, []).append((l, c))
    acc: dict = {}
    for (i, j), ca in a._terms.items():
        for l, cb in rows_of_b.get(j, ()):
            c = scalar_mul(ca, cb)
            key = (i, l)
            if key in acc:
                c = scalar_add(acc[key], c)
            acc[key] = c
    return XSum(a.order, acc)


def xsum_linear(op: str, a: XSum, other) -> XSum:
    """Coefficient-wise add/sub of two sums, or scaling by a scalar."""
    if op == "scale":
        c = other
        if not c:
            return XSum(a.order)
        return XSum(
            a.order,
            {k: scalar_mul(c, v) for k, v in a._terms.items()},
        )
    if op not in ("add", "sub"):
        raise ValueError(f"unknown linear op {op!r}")
    b: XSum = other
    if a.order != b.order:
        raise DimensionError(f"order mismatch: {a.order} vs {b.order}")
    acc = dict(a._terms)
    for key, c in b._terms.items():
        if op == "sub":
            c = -c
        if key in acc:
            c = scalar_add(acc[key], c)
        acc[key] = c
    return XSum(a.order, acc)


def bracket(a: XSum, b: XSum, sign: str = "commutator") -> XSum:
    """[a, b] = ab - ba, or the anticommutator ab + ba."""
    ab = xsum_mul(a, b)
    ba = xsum_mul(b, a)
    if sign == "commutator":
        return xsum_linear("sub", ab, ba)
    if sign == "anticommutator":
        return xsum_linear("add", ab, ba)
    raise ValueError("sign must be 'commutator' or 'anticommutator'")


def dagger(a: XSum, mode: str = "adjoint") -> XSum:
    """Transpose swaps subscripts, conjugate conjugates coefficients."""
    if mode not in ("transpose", "conjugate", "adjoint"):
        raise ValueError(f"unknown dagger mode {mode!r}")
    out = {}
    for (i, j), c in a._terms.items():
        key = (j, i) if mode in ("transpose", "adjoint") else (i, j)
        out[key] = scalar_conj(c) if mode in ("conjugate", "adjoint") else c
    return XSum._trusted(a.order, out)


def trace(a: XSum) -> Scalar:
    t: Scalar = 0
    for (i, j), c in a._terms.items():
        if i == j:
            t = scalar_add(t, c)
    return t


def apply(a: XSum, x: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    """Matrix action on a column vector: y_k = sum_l a_kl x_l."""
    if len(x) != a.order:
        raise DimensionError(
            f"vector length {len(x)} does not match order {a.order}"
        )
    y: list = [0] * a.order
    for (k, l), c in a._terms.items():
        xl = x[l - 1]
        if not xl:
            continue
        y[k - 1] = scalar_add(y[k - 1], scalar_mul(c, xl))
    return tuple(y)


def to_dense(a: XSum) -> list:
    """Nested-list dense form, exact coefficients preserved."""
    n = a.order
    m = [[0] * n for _ in range(n)]
    for (i, j), c in a._terms.items():
        m[i - 1][j - 1] = c
    return m


def from_dense(m) -> XSum:
    """XSum from a square nested sequence or numpy array."""
    n = len(m)
    terms = {}
    for i in range(n):
        row = m[i]
        if len(row) != n:
            raise DimensionError("dense input must be square")
        for j in range(n):
            c = _as_scalar(row[j])
            if c:
                terms[(i + 1, j + 1)] = c
    return XSum(n, terms)

