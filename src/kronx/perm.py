"""Permutations and their operator realizations.

A permutation pi on {1..n} becomes the matrix P = sum_j X^(j, pi(j)), so
P acts on vectors by y_j = x_pi(j) and P e_t = e_(pi^-1(t)).  On top of
that sit the closed-form index bijections for tensor spaces: the swap
permutation, Kronecker products of permutations, the commutation
permutation relating A(x)B to B(x)A, factor rearrangements for rank-p
tensors, and the (anti)symmetrizers built from them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .exactnum import ceil_ratio
from .hubbard import INT, Columns, DimensionError, XSum, check_order


@dataclass(frozen=True)
class Permutation:
    """Bijection on {1..n}, stored as the image tuple (pi(1), ..., pi(n))."""

    images: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"images {self.images} are not a bijection")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        if not (1 <= j <= self.degree):
            raise IndexError(f"argument {j} outside [1, {self.degree}]")
        return self.images[j - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition: (self o other)(j) = self(other(j))."""
        if self.degree != other.degree:
            raise DimensionError("degree mismatch in composition")
        return Permutation(tuple(self(other(j)) for j in range(1, self.degree + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for j, img in enumerate(self.images, start=1):
            inv[img - 1] = j
        return Permutation(tuple(inv))

    def parity(self) -> int:
        """+1 for even, -1 for odd, from the cycle decomposition."""
        seen = [False] * self.degree
        sign = 1
        for start in range(self.degree):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = self.images[j] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign


def perm_matrix(pi: Permutation) -> XSum:
    """sum_j X^(j, pi(j)), held as integer columns: the images are distinct,
    so every row and every column has one term."""
    n = pi.degree
    ones = np.ones(n, dtype=np.int64)
    rows = np.arange(1, n + 1, dtype=np.int64)
    cols = Columns(INT, rows, np.array(pi.images, dtype=np.int64), (ones,))
    return XSum._from_columns(n, cols)


def swap_perm(n: int) -> Permutation:
    """The degree-n^2 bijection whose matrix swaps tensor factors:
    pi(p) = n(p+n-1) - (n^2-1) ceil(p/n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    check_order(n * n)
    images = []
    for p in range(1, n * n + 1):
        pp = ceil_ratio(p, n)
        images.append(n * (p + n - 1) - (n * n - 1) * pp)
    return Permutation(tuple(images))


def kron_perm(pi: Permutation, sigma: Permutation) -> Permutation:
    """Permutation whose matrix is perm_matrix(pi) (x) perm_matrix(sigma):
    alpha(p) = m[pi(p') - 1] + sigma(p - mp' + m) with p' = ceil(p/m)."""
    n, m = pi.degree, sigma.degree
    check_order(n * m)
    images = []
    for p in range(1, n * m + 1):
        pp = ceil_ratio(p, m)
        images.append(m * (pi(pp) - 1) + sigma(p - m * pp + m))
    return Permutation(tuple(images))


def commutation_perm(n: int, m: int) -> Permutation:
    """The bijection pi(mi - m + k) = nk - n + i; its matrix P satisfies
    P^T (A (x) B) P = B (x) A for any n-square A and m-square B."""
    if n < 1 or m < 1:
        raise ValueError("orders must be at least 1")
    check_order(n * m)
    images = [0] * (n * m)
    for i in range(1, n + 1):
        for k in range(1, m + 1):
            images[m * i - m + k - 1] = n * k - n + i
    return Permutation(tuple(images))


def factor_perm(pi: Permutation, n: int) -> Permutation:
    """Rearrangement of rank-p tensor factors as a bijection on flat indices.

    With q carrying digits (i_1, ..., i_p), the image carries digits
    (i_pi(1), ..., i_pi(p)): slot s of the result holds factor pi(s).
    """
    p = pi.degree
    if n < 1:
        raise ValueError("factor order must be at least 1")
    total = n**p
    check_order(total)
    images = []
    for q in range(1, total + 1):
        digits = _digits(q, n, p)
        rearranged = tuple(digits[pi(s) - 1] for s in range(1, p + 1))
        images.append(_flat(rearranged, n))
    return Permutation(tuple(images))


def _digits(q: int, n: int, p: int) -> Tuple[int, ...]:
    """Per-factor indices of flat index q in an n^p product space."""
    out = [0] * p
    u = q - 1
    for r in range(p - 1, -1, -1):
        out[r] = u % n + 1
        u //= n
    return tuple(out)


def _flat(digits: Sequence[int], n: int) -> int:
    q = 0
    for d in digits:
        q = q * n + (d - 1)
    return q + 1


def symmetrizer(p: int, n: int) -> XSum:
    """(1/p!) sum of the rank-p factor-permutation matrices."""
    return _group_average(p, n, signed=False)


def antisymmetrizer(p: int, n: int) -> XSum:
    """(1/p!) parity-weighted sum of the factor-permutation matrices."""
    return _group_average(p, n, signed=True)


def _group_average(p: int, n: int, signed: bool) -> XSum:
    """(1/p!) sum over pi of (parity of pi, if signed) times the matrix of
    factor_perm(pi, n), summed as one XSum of all p! matrices' terms."""
    if p < 1 or n < 1:
        raise ValueError("rank and order must be at least 1")
    weight = Fraction(1, math.factorial(p))
    perms = map(Permutation, itertools.permutations(range(1, p + 1)))
    weights = ((pi, -weight if signed and pi.parity() < 0 else weight)
               for pi in perms)
    # the terms of each perm_matrix(factor_perm(pi, n)), weighted; they are
    # lazy, so XSum checks the order before the first permutation is built
    terms = (((j, k), w) for pi, w in weights
             for j, k in enumerate(factor_perm(pi, n).images, 1))
    return XSum(n**p, terms)
