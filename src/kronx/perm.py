"""Permutations and their operator realizations.

A permutation pi on {1..n} becomes the matrix P = sum_j X^(j, pi(j)), so
P acts on vectors by y_j = x_pi(j) and P e_t = e_(pi^-1(t)).  On top of
that sit the closed-form index bijections for tensor spaces: the swap
permutation, Kronecker products of permutations, the commutation
permutation relating A(x)B to B(x)A, and factor rearrangements for rank-p
tensors.  These and the (anti)symmetrizers act on the digits of flat
indices, which one table (_digit_table) holds; the (anti)symmetrizers are
read off it in closed form, by orbit counting, and the tests keep their
definition, the average over all p! rearrangements, as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .exactnum import ceil_ratio
from .hubbard import FRACTION, INT, Columns, DimensionError, XSum, check_order


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
    check_order(n**p)
    digits = _digit_table(n, p)[:, np.array(pi.images) - 1]
    return Permutation(tuple((digits @ _places(n, p) + 1).tolist()))


def _digit_table(n: int, p: int) -> np.ndarray:
    """Row q-1 holds the p digits of flat index q in an n^p product space,
    0-based, first factor first: q-1 is their product with _places."""
    return np.arange(n**p)[:, None] // _places(n, p) % n


def _places(n: int, p: int) -> np.ndarray:
    return n ** np.arange(p - 1, -1, -1)


def symmetrizer(p: int, n: int) -> XSum:
    """(1/p!) sum of the rank-p factor-permutation matrices."""
    return _orbit_sum(p, n, signed=False)


def antisymmetrizer(p: int, n: int) -> XSum:
    """(1/p!) parity-weighted sum of the factor-permutation matrices."""
    return _orbit_sum(p, n, signed=True)


def _orbit_sum(p: int, n: int, signed: bool) -> XSum:
    """The (anti)symmetrizer in closed form, with no sum over permutations.

    Entry (q, r) is nonzero only when r's digits rearrange q's, so the
    basis states fall into orbits of one sorted digit key each.  It is 1/g,
    g the orbit's size p!/prod m_k!, in the symmetrizer.  In the
    antisymmetrizer an orbit with a repeated digit cancels, the others
    have g = p!, and the entry is sign(q) sign(r) / g, where sign(q) is the
    parity of the inversions among q's digits.
    """
    if p < 1 or n < 1:
        raise ValueError("rank and order must be at least 1")
    check_order(n**p)
    digits = _digit_table(n, p)
    ordered = np.sort(digits, axis=1)
    states, sign = np.arange(n**p), np.ones(n**p, dtype=np.int64)
    if signed:
        states = states[(ordered[:, 1:] != ordered[:, :-1]).all(axis=1)]
        upper = np.triu(digits[states, :, None] > digits[states, None, :], 1)
        sign = 1 - 2 * (upper.sum(axis=(1, 2)) % 2)
    # the states of each orbit side by side; orbit k has g = size[k]
    # members from first[k], and its pair t is (member t // g, member t % g)
    key = ordered[states] @ _places(n, p)
    by_orbit = np.argsort(key, kind="stable")
    _, first, size = np.unique(key[by_orbit], return_index=True, return_counts=True)
    pairs = size * size
    g, start = np.repeat(size, pairs), np.repeat(first, pairs)
    t = np.arange(len(g)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    a, b = by_orbit[start + t // g], by_orbit[start + t % g]
    cols = Columns(FRACTION, states[a] + 1, states[b] + 1, (sign[a] * sign[b], g))
    return XSum._from_columns(n**p, cols)
