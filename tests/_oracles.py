"""Brute-force reference implementations shared by the test modules.

Everything here is deliberately naive: dense block replication for tensor
products, dense matrix products, textbook eigen-decompositions.  The point
is independence from the index arithmetic under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from kronx.hubbard import DimensionError, XSum, from_dense, to_dense


def dense_kron(a: list, b: list) -> list:
    """Definition-style block replication [a_ij * B]."""
    n, m = len(a), len(b)
    out = [[0] * (n * m) for _ in range(n * m)]
    for i in range(n):
        for j in range(n):
            if a[i][j] == 0:
                continue
            for k in range(m):
                for l in range(m):
                    out[i * m + k][j * m + l] = a[i][j] * b[k][l]
    return out


def dense_kron_many(mats: list) -> list:
    out = mats[0]
    for m in mats[1:]:
        out = dense_kron(out, m)
    return out


def dense_mul(a: list, b: list) -> list:
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def det_dense(m) -> Fraction:
    """Exact determinant of a rational matrix, fraction-free elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    for row in a:
        if len(row) != n:
            raise DimensionError("determinant input must be square")
    if n == 0:
        return Fraction(1)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def kron_oracle(a: XSum, b: XSum) -> XSum:
    return from_dense(dense_kron(to_dense(a), to_dense(b)))


def random_rational_xsum(rng: random.Random, n: int, density: float = 0.5) -> XSum:
    terms = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rng.random() < density:
                terms[(i, j)] = Fraction(
                    rng.randint(-5, 5), rng.randint(1, 4)
                )
    return XSum(n, terms)


def random_complex_xsum(rng: random.Random, n: int, density: float = 0.5) -> XSum:
    terms = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rng.random() < density:
                terms[(i, j)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return XSum(n, terms)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def dense_intertwining_residuals(s) -> dict:
    """max |J_a S - S Jtilde_a| for a = 3, plus, minus, from dense numpy
    products of the generators and S."""
    from kronx.coupling import block_gen, product_gen

    lay = s.layout
    sm = s.matrix.to_numpy()
    out = {}
    for which in ("3", "plus", "minus"):
        a = product_gen(lay.twoJ1, lay.twoJ2, which).to_numpy()
        b = block_gen(lay.twoJ1, lay.twoJ2, which).flatten().to_numpy()
        out[which] = float(np.abs(a @ sm - sm @ b).max())
    return out
