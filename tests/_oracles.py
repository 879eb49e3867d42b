"""Brute-force reference implementations shared by the test modules.

Everything here is deliberately naive: dense block replication for tensor
products, dense matrix products, textbook eigen-decompositions.  The point
is independence from the index arithmetic under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from kronx.hubbard import XSum, from_dense, to_dense


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
