"""Sparse operator algebra over single-entry (Hubbard) operators.

X_n^(i,j) is the n x n matrix with a lone 1 at row i, column j.  Every
matrix here is an XSum: a weighted sum of such terms, stored as a map from
1-based (row, col) pairs to scalar coefficients.  Products contract by the
delta rule X^(i,j) X^(k,l) = delta_jk X^(i,l), so the whole algebra runs on
subscripts without ever materializing dense arrays.  Terms that land on one
cell add by one rule, _summed: exact values add exactly, a float makes the
cell complex, and a cell whose sum cancels is dropped.

Every XSum can also hold its terms as Columns: the integer parts of one
exact kind, or one object array of any other scalars.  The JSON reader,
kron, perm_matrix, dagger, cg.build_S and xsum_mul (where no two products
share a cell) build that form directly, the writer, trace and the float
conversion read it, and the term dict is made from it only when a term is
first read one by one.  No product runs term by term.
This module alone knows the exact value format: the table of kinds and
their integer parts, promotion, the value products and fraction reduction.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import chain
from operator import attrgetter, truediv
from typing import (Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence,
                    Tuple)

import numpy as np

from .exactnum import (
    DomainError,
    Scalar,
    SqrtRational,
    coprime_fraction,
    scalar_add,
    scalar_conj,
    scalar_is_exact,
    scalar_mul,
)

MAX_DIM_ENV = "KRONX_MAX_DIM"
DEFAULT_MAX_DIM = 4096
_INT64_LIMIT = 2**63


class DimensionError(ValueError):
    """Operand orders are incompatible."""


class ResourceError(RuntimeError):
    """A construction would exceed the configured size cap."""


def max_dim() -> int:
    raw = os.environ.get(MAX_DIM_ENV)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"{MAX_DIM_ENV} must be a positive integer, not {raw!r}"
        )
    return cap


def check_order(order: int) -> None:
    """Reject an order that is not a positive int or exceeds max_dim().

    Builders call this before they allocate, so an oversized request fails
    with ResourceError instead of filling memory first."""
    if type(order) is not int or order < 1:
        raise ValueError("order must be a positive integer")
    cap = max_dim()
    if order > cap:
        raise ResourceError(f"order {order} exceeds {MAX_DIM_ENV}={cap}")


def _checked(order: int, items: Iterable) -> Iterator:
    """The ((i, j), c) pairs of items, each subscript checked to lie in
    [1, order] and each numpy scalar (from_dense reads arrays) made a
    Python scalar, to keep the coefficient tower pure."""
    for (i, j), c in items:
        if not (1 <= i <= order and 1 <= j <= order):
            raise IndexError(f"term ({i}, {j}) outside [1, {order}]^2")
        yield (i, j), c.item() if isinstance(c, np.generic) else c


def _summed(pairs: Iterable) -> dict:
    """The term dict of ((i, j), c) pairs summed in the order given: a zero
    c is skipped, a c on a stored cell adds by scalar_add, and a cell whose
    sum is zero is deleted, so that a later term starts it again.  Every
    route that can put two terms on one cell sums through here."""
    store: dict = {}
    for key, c in pairs:
        if not c:
            continue
        if key in store:
            c = scalar_add(store[key], c)
            if not c:
                del store[key]
                continue
        store[key] = c
    return store


def magnitude(col: np.ndarray) -> int:
    """The largest absolute entry of an integer array, 0 when empty."""
    return int(np.abs(col).max()) if col.size else 0


def int_column(values: list) -> np.ndarray:
    """A list (or a list of equal-length lists) of Python ints as int64
    when every magnitude is below 2**63, otherwise as an object array of
    the same ints."""
    try:
        col = np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)
    # -2**63 fits int64 but its absolute value does not
    if len(col) and col.min() == -_INT64_LIMIT:
        return col.astype(object)
    return col


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y on int64 when no product can reach 2**63 and on Python ints
    otherwise."""
    if magnitude(x) * magnitude(y) >= _INT64_LIMIT:
        x, y = x.astype(object), y.astype(object)
    return x * y


def _reduced(num: np.ndarray, den: np.ndarray) -> tuple:
    """num/den in lowest terms, the sign on the numerator, entry by entry
    as Fraction(num, den) reduces them."""
    g = np.gcd(num, den) * np.sign(den)
    return num // g, den // g


class _Kind(NamedTuple):
    scalar: type  # the coefficient type a term dict stores
    parts: Tuple[str, ...]  # attribute paths of its integer parts
    build: Callable  # the scalar of one term's parts, which come reduced
    lift: Callable | None  # the value columns of the kind below, as this kind


# The exact kinds a column store holds, in promotion order: an int v lifts
# to v/1 and a rational q to sign(q) sqrt(q^2), as scalar_mul reads them.
# A kind keeps one value column per part (an int's one part, .real, is the
# int), so its number is also their count, and its one is the value whose
# parts are all 1.  Past INT the last two parts are a fraction in lowest
# terms with a positive denominator.
INT, FRACTION, SURD = 1, 2, 3
_KINDS = {
    INT: _Kind(int, ("real",), int, None),
    FRACTION: _Kind(
        Fraction, ("numerator", "denominator"), coprime_fraction,
        lambda v: (v, np.ones_like(v))),
    SURD: _Kind(
        SqrtRational, ("sign", "radicand.numerator", "radicand.denominator"),
        lambda s, n, d: SqrtRational._trusted(s, coprime_fraction(n, d)),
        lambda n, d: (np.where(n < 0, -1, 1), _product(n, n), _product(d, d))),
}
_KIND_OF = {k.scalar: kind for kind, k in _KINDS.items()}
# Any other coefficients (floats, complex numbers, mixed exact kinds): one
# value column of the scalars themselves, above every kind of _KINDS.
OBJECT = 4


class Columns:
    """Terms as parallel arrays, in storage order.

    rows and cols are 1-based subscripts.  For an exact kind, vals are the
    kind's value columns, one per integer part that _KINDS names, int64
    or, where an entry reaches 2**63, object arrays of Python ints.  For
    OBJECT, vals is one object array of the scalars.  No value is zero.
    """

    __slots__ = ("kind", "rows", "cols", "vals")

    def __init__(self, kind: int, rows: np.ndarray, cols: np.ndarray,
                 vals: tuple) -> None:
        self.kind = kind
        self.rows = rows
        self.cols = cols
        self.vals = vals

    @classmethod
    def of_terms(cls, store: dict) -> "Columns":
        """The columns of a term dict: of the kind of _KINDS whose type
        every coefficient has, INT when there is none, else OBJECT."""
        kinds = {_KIND_OF.get(t, OBJECT) for t in set(map(type, store.values()))}
        kind = kinds.pop() if len(kinds) == 1 else OBJECT if kinds else INT
        cells = np.fromiter(chain.from_iterable(store), np.int64, 2 * len(store))
        values = list(store.values())
        vals = (np.fromiter(values, object, len(values)),) if kind == OBJECT else tuple(
            int_column(list(map(attrgetter(p), values))) for p in _KINDS[kind].parts)
        return cls(kind, cells[0::2], cells[1::2], vals)

    @classmethod
    def of_table(cls, table: np.ndarray) -> "Columns":
        """The columns of a checked table of rows [i, j, *parts]: subscripts
        in range and distinct, parts valid for the kind its width gives.
        The fractions are reduced and the zero values dropped."""
        i, j, *vals = table.T
        vals[-2:] = _reduced(*vals[-2:])
        cols = cls(len(vals), i.astype(np.int64), j.astype(np.int64), tuple(vals))
        live = vals[-2] != 0
        return cols if live.all() else cols.take(live)

    @staticmethod
    def table_of(x: "XSum") -> "np.ndarray | None":
        """The rows [i, j, *parts] of an exact sum in (row, col) order, an
        int read as v/1; None when a coefficient is float or complex.  A
        sum that mixes exact kinds is first widened to the highest as
        scalar_mul would: each term times that kind's one."""
        cols = x.columns()
        if cols.kind == OBJECT:
            values = cols.vals[0].tolist()
            if not all(map(scalar_is_exact, values)):
                return None
            top = max(kind for kind, k in _KINDS.items()
                      if any(isinstance(c, k.scalar) for c in values))
            one = _KINDS[top].build(*[1] * top)
            cols = Columns.of_terms({key: one * c for key, c in cols.pairs()})
        cols = cols.row_major(x.order)
        vals = cols.promote(max(cols.kind, FRACTION))
        return np.stack((cols.rows, cols.cols) + vals, axis=1)

    def __len__(self) -> int:
        return len(self.rows)

    def take(self, index: np.ndarray) -> "Columns":
        return Columns(self.kind, self.rows[index], self.cols[index],
                       tuple(v[index] for v in self.vals))

    def row_major(self, order: int) -> "Columns":
        """The terms in (row, col) order: one argsort on the flat index."""
        return self.take(np.argsort((self.rows - 1) * order + self.cols - 1))

    def promote(self, kind: int) -> tuple:
        """The value columns read as kind, at or above self.kind: lifted
        one exact kind at a time, or as OBJECT the kind's scalars."""
        if kind == OBJECT and self.kind != OBJECT:
            build = np.frompyfunc(_KINDS[self.kind].build, self.kind, 1)
            return (build(*self.vals),)
        vals = self.vals
        for up in range(self.kind + 1, kind + 1):
            vals = _KINDS[up].lift(*vals)
        return vals

    def pairs(self) -> Iterator:
        """The terms in storage order as ((i, j), c), c the kind's scalar."""
        keys = zip(self.rows.tolist(), self.cols.tolist())
        vals = [v.tolist() for v in self.vals]
        if self.kind == OBJECT:
            return zip(keys, vals[0])
        return zip(keys, map(_KINDS[self.kind].build, *vals))

    def terms(self) -> dict:
        """The term dict of pairs()."""
        return dict(self.pairs())

    def scalar(self, i: int) -> Scalar:
        """The coefficient of term i of an exact kind alone, as terms()
        gives it."""
        return _KINDS[self.kind].build(*[v.item(i) for v in self.vals])

    def times(self, other: "Columns", rows: np.ndarray,
              cols: np.ndarray) -> "Columns":
        """The products of self's and other's values at rows and cols, all
        flattened, the values read as the higher kind and aligned by
        broadcasting.  Products of nonzero exact values are nonzero, and a
        product of reduced fractions needs one gcd to be reduced again.
        OBJECT values multiply by scalar_mul, one call per pair, and a
        product that underflows to zero is dropped; with none left the
        product is the empty INT store, as of an empty term dict."""
        kind = max(self.kind, other.kind)
        if kind == OBJECT:
            # scalar_mul is read at each call, so a patched one sees every
            # pair; a Python float product overflows to inf without a word
            with np.errstate(all="ignore"):
                vals = np.frompyfunc(scalar_mul, 2, 1)(
                    *self.promote(kind), *other.promote(kind)).ravel()
            live = vals.astype(bool)
            products = Columns(kind, rows.ravel(), cols.ravel(), (vals,)).take(live)
            return products if live.any() else Columns.of_terms({})
        vals = tuple(map(_product, self.promote(kind), other.promote(kind)))
        if kind > INT:
            vals = vals[:-2] + _reduced(*vals[-2:])
        return Columns(kind, rows.ravel(), cols.ravel(),
                       tuple(v.ravel() for v in vals))

    def matmul(self, other: "Columns", order: int) -> "XSum":
        """The delta rule on whole columns: term (i, j) of self meets each
        term (j, l) of other, self's terms in storage order and other's
        terms of row j in storage order, as a loop over the term pairs
        visits them.  Products on distinct cells stay columns; otherwise
        _summed adds them in that order, as they can cancel or fail to add."""
        # other's terms grouped by row, each row in storage order: row r
        # is by_row[first[r]:first[r] + per_row[r]]
        by_row = np.argsort(other.rows, kind="stable")
        per_row = np.bincount(other.rows, minlength=order + 1)
        first = np.cumsum(per_row) - per_row
        counts = per_row[self.cols]
        ia = np.repeat(np.arange(len(self)), counts)
        # the products of term s, column j, are numbered from
        # t0 = ends[s] - counts[s]; product t takes by_row[first[j] + t - t0]
        ends = np.cumsum(counts)
        start = first[self.cols] - ends + counts
        ib = by_row[np.repeat(start, counts) + np.arange(len(ia))]
        a, b = self.take(ia), other.take(ib)
        products = a.times(b, a.rows, b.cols)
        cells = np.sort((a.rows - 1) * order + b.cols)
        if np.any(cells[1:] == cells[:-1]):
            # subscripts come from the operands; only the sums need the rule
            return XSum._trusted(order, _summed(products.pairs()))
        return XSum._from_columns(order, products)

    def floats(self) -> np.ndarray:
        """Each exact coefficient as float() of its scalar gives it, bit
        for bit, and each OBJECT value as complex() gives it.

        A quotient of two ints below 2**53 converts both exactly, so one
        IEEE division rounds it as Python's int / int does; larger ones
        take Python's division."""
        if self.kind == OBJECT:
            return np.fromiter(map(complex, self.vals[0].tolist()), complex, len(self))
        num, den = self.promote(max(self.kind, FRACTION))[-2:]
        if max(magnitude(num), magnitude(den)) <= 2**53:
            q = num.astype(float) / den.astype(float)
        else:
            q = np.array(list(map(truediv, num.tolist(), den.tolist())), float)
        if self.kind != SURD:
            return q
        root = np.sqrt(q)
        return np.where(self.vals[0] < 0, -root, root)


class XSum:
    """A square matrix as a weighted sum of Hubbard operators.

    Immutable once built.  The constructor checks the order before it
    reads a term, so a builder that passes a lazy iterable allocates
    nothing for a refused order; then it checks every subscript and sums
    the terms in the order given by _summed, so zero coefficients and
    cancelled cells are pruned eagerly.  Tiny nonzero float/complex
    coefficients are kept, never dropped implicitly.

    The terms live in a dict, in Columns, or in both: _terms builds the
    dict from the columns on first use, and columns() builds the columns
    from the dict.  Each form, once built, is kept.  Every sum has a
    column form, so the products, dagger, trace and triplets each read
    columns() alone.
    """

    __slots__ = ("order", "_store", "_cols")

    def __init__(
        self,
        order: int,
        terms: Mapping[Tuple[int, int], Scalar] | Iterable | None = None,
    ) -> None:
        check_order(order)
        object.__setattr__(self, "order", order)
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        object.__setattr__(self, "_store", _summed(_checked(order, items)))
        object.__setattr__(self, "_cols", None)

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
        object.__setattr__(obj, "_store", store)
        object.__setattr__(obj, "_cols", None)
        return obj

    @classmethod
    def _from_columns(cls, order: int, cols: Columns) -> "XSum":
        """Wrap columns without building the term dict.  As for _trusted,
        the caller guarantees every subscript lies in [1, order] and no two
        terms share one."""
        check_order(order)
        obj = object.__new__(cls)
        object.__setattr__(obj, "order", order)
        object.__setattr__(obj, "_store", None)
        object.__setattr__(obj, "_cols", cols)
        return obj

    @property
    def _terms(self) -> dict:
        store = self._store
        if store is None:
            store = self._cols.terms()
            object.__setattr__(self, "_store", store)
        return store

    def columns(self) -> Columns:
        """The terms as Columns, built from the term dict once."""
        cols = self._cols
        if cols is None:
            cols = Columns.of_terms(self._terms)
            object.__setattr__(self, "_cols", cols)
        return cols

    # frozen-ish: block accidental attribute writes
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("XSum is immutable")

    def coeff(self, i: int, j: int) -> Scalar:
        return self._terms.get((i, j), 0)

    def items(self) -> Iterator[Tuple[Tuple[int, int], Scalar]]:
        """Terms in (row, col) lexicographic order."""
        store = self._store
        if store is None:
            return self._cols.row_major(self.order).pairs()
        return ((key, store[key]) for key in sorted(store))

    def values(self) -> Iterator[Scalar]:
        """Coefficients in storage order, without sorting."""
        return iter(self._terms.values())

    def term_map(self) -> dict:
        return dict(self._terms)

    def nnz(self) -> int:
        return len(self._store if self._cols is None else self._cols)

    def is_exact(self) -> bool:
        cols = self.columns()
        return cols.kind != OBJECT or all(map(scalar_is_exact, cols.vals[0].tolist()))

    __len__ = nnz

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

    def trace(self) -> Scalar:
        return trace(self)

    def apply(self, x: Sequence[Scalar]) -> Tuple[Scalar, ...]:
        return apply(self, x)

    def to_dense(self) -> list:
        return to_dense(self)

    def triplets(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """0-based rows, 0-based columns and complex values of the terms in
        storage order: the one route from terms to float arrays.  An exact
        entry past float range raises DomainError, which names it."""
        c = self.columns()
        try:
            return c.rows - 1, c.cols - 1, c.floats().astype(complex, copy=False)
        except OverflowError:
            for (i, j), v in c.pairs():
                try:
                    complex(v)
                except OverflowError:
                    raise DomainError(
                        f"entry ({i},{j}) is too large for a float") from None
            raise

    def to_numpy(self) -> np.ndarray:
        rows, cols, vals = self.triplets()
        out = np.zeros((self.order, self.order), dtype=complex)
        out[rows, cols] = vals
        return out

    def __str__(self) -> str:
        if not self.nnz():
            return f"0 (order {self.order})"
        parts = [f"({c})*X[{i},{j}]" for (i, j), c in self.items()]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"XSum(order={self.order}, nnz={self.nnz()})"


def x_op(n: int, i: int, j: int) -> XSum:
    """The elementary operator X_n^(i,j) as a one-term sum."""
    return XSum(n, {(i, j): 1})


def identity(n: int) -> XSum:
    return XSum(n, (((k, k), 1) for k in range(1, n + 1)))


def xsum_mul(a: XSum, b: XSum) -> XSum:
    """Operator product by delta contraction on inner subscripts: one index
    join on the operands' Columns, whatever their kinds."""
    if a.order != b.order:
        raise DimensionError(
            f"order mismatch: {a.order} vs {b.order}"
        )
    return a.columns().matmul(b.columns(), a.order)


def xsum_linear(op: str, a: XSum, other) -> XSum:
    """Coefficient-wise add/sub of two sums, or scaling by a scalar."""
    if op == "scale":
        if not other:
            return XSum(a.order)
        # a numpy factor would put numpy scalars in the coefficient tower
        if isinstance(other, np.generic):
            other = other.item()
        terms = ((key, scalar_mul(other, v)) for key, v in a._terms.items())
    elif op in ("add", "sub"):
        b: XSum = other
        if a.order != b.order:
            raise DimensionError(f"order mismatch: {a.order} vs {b.order}")
        theirs = b._terms.items()
        if op == "sub":
            theirs = ((key, -v) for key, v in theirs)
        terms = chain(a._terms.items(), theirs)
    else:
        raise ValueError(f"unknown linear op {op!r}")
    # subscripts come from the operands
    return XSum._trusted(a.order, _summed(terms))


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
    c = a.columns()
    rows, cols = (c.rows, c.cols) if mode == "conjugate" else (c.cols, c.rows)
    vals = c.vals
    # exact values are their own conjugates
    if mode != "transpose" and c.kind == OBJECT:
        vals = (np.frompyfunc(scalar_conj, 1, 1)(vals[0]),)
    return XSum._from_columns(a.order, Columns(c.kind, rows, cols, vals))


def trace(a: XSum) -> Scalar:
    cols = a.columns()
    t: Scalar = 0
    for _, c in cols.take(cols.rows == cols.cols).pairs():
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
    if any(len(row) != n for row in m):
        raise DimensionError("dense input must be square")
    return XSum(n, (((i, j), c) for i, row in enumerate(m, 1)
                    for j, c in enumerate(row, 1)))
