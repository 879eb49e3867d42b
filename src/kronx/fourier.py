"""Fourier matrices, butterfly factors, and the Cooley-Tukey factorization.

F_n carries entries w^((i-1)(j-1)) with w = exp(2 pi i / n).  For n = 2^t
the factorization F_n = [prod_s I_(2^s) (x) B_(n/2^s)] P^T expresses F_n
through t sparse stages (2n nonzero entries each) and one bit-reversal
permutation: the motivating example for doing Kronecker algebra on terms.
Also here: Hadamard predicates and dephasing, since F_n is the canonical
complex Hadamard matrix.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import product
from typing import Tuple

import numpy as np

from .exactnum import DomainError
from .hubbard import XSum, check_order, dagger, identity, xsum_mul
from .kron import kron
from .perm import Permutation, factor_perm, perm_matrix


def _dft(n: int) -> np.ndarray:
    """F_n as a dense complex array."""
    # w^k for k < n only, the powers omega_diag puts in the butterflies:
    # w ** ((i-1)(j-1)) itself loses accuracy as the exponent grows
    w = cmath.exp(2j * cmath.pi / n)
    roots = np.array([w**k for k in range(n)])
    k = np.arange(n)
    return roots[np.outer(k, k) % n]


def fourier_matrix(n: int) -> XSum:
    """The (unnormalized) n-point Fourier matrix; F F^dagger = n I."""
    check_order(n)
    cells = product(range(1, n + 1), repeat=2)
    return XSum._trusted(n, dict(zip(cells, _dft(n).ravel().tolist())))


def omega_diag(k: int, n: int | None = None) -> XSum:
    """diag(1, w, ..., w^(k-1)) with w the n-th root of unity (n = 2k when
    omitted, the butterfly convention)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if n is None:
        n = 2 * k
    w = cmath.exp(2j * cmath.pi / n)
    return XSum(k, (((i, i), w ** (i - 1)) for i in range(1, k + 1)))


def butterfly(n: int) -> XSum:
    """B_n = [[I_m, Omega_m], [I_m, -Omega_m]] with m = n/2; two nonzero
    entries per row."""
    if n < 2 or n % 2:
        raise DomainError("butterfly order must be even")
    check_order(n)
    m = n // 2
    om = omega_diag(m, n)
    terms = {}
    for i in range(1, m + 1):
        terms[(i, i)] = 1
        terms[(m + i, i)] = 1
        wi = om.coeff(i, i)
        terms[(i, m + i)] = wi
        terms[(m + i, m + i)] = -wi
    return XSum(n, terms)


def odd_even_perm(k: int) -> Permutation:
    """Odd indices first, then even: the decimation reindexing."""
    if k < 1:
        raise ValueError("k must be at least 1")
    check_order(k)
    odds = list(range(1, k + 1, 2))
    evens = list(range(2, k + 1, 2))
    return Permutation(tuple(odds + evens))


def bit_reversal_perm(n: int) -> Permutation:
    """Image of p reverses the t-bit binary expansion of p-1 (n = 2^t): the
    reversal of t two-level tensor factors (n = 1: one one-level factor)."""
    t = _log2_exact(n)
    return factor_perm(Permutation(range(max(t, 1), 0, -1)), min(n, 2))


def _log2_exact(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise DomainError(f"{n} is not a power of two")
    return n.bit_length() - 1


@dataclass(frozen=True)
class FourierFactorization:
    n: int
    factors: Tuple[XSum, ...]
    bit_reversal: Permutation

    def product(self) -> XSum:
        out = identity(self.n)
        for f in self.factors:
            out = xsum_mul(out, f)
        return xsum_mul(
            out, dagger(perm_matrix(self.bit_reversal), "transpose")
        )

    def max_error(self) -> float:
        """Largest entry modulus of product() - F_n, from dense products."""
        out = np.eye(self.n)
        for f in self.factors:
            out = out @ f.to_numpy()
        # times P^T: column j of the product is column pi(j) of out
        out = out[:, np.array(self.bit_reversal.images) - 1]
        z = out - _dft(self.n)
        # np.hypot rounds as abs(complex) does; np.abs can differ by an ulp
        return float(np.hypot(z.real, z.imag).max())


def cooley_tukey(n: int) -> FourierFactorization:
    """Stages I_(2^s) (x) B_(n/2^s) for s = 0..t-1 plus bit reversal."""
    t = _log2_exact(n)
    check_order(n)
    if t == 0:
        return FourierFactorization(
            1, (identity(1),), Permutation.identity(1)
        )
    factors = tuple(
        kron(identity(2**s), butterfly(n >> s)) for s in range(t)
    )
    return FourierFactorization(n, factors, bit_reversal_perm(n))


def is_hadamard(h: XSum, tol: float = 1e-10) -> bool:
    """Unimodular entries and H H^dagger = n I, within tol."""
    n = h.order
    if h.nnz() != n * n:
        return False
    a = h.to_numpy()  # every cell is stored, so these are the terms
    if (abs(np.abs(a) - 1.0) > tol).any():
        return False
    z = a @ a.conj().T - n * np.eye(n)
    return bool(np.hypot(z.real, z.imag).max() <= n * tol)


def dephase(h: XSum, tol: float = 1e-10) -> Tuple[XSum, XSum, XSum]:
    """Diagonal unitaries (D_r, H0, D_c) with H0 = D_r H D_c dephased.

    Column 1 is normalized first through D_r, then row 1 through D_c; the
    (1,1) corner stays fixed so both passes commute on it.
    """
    if not is_hadamard(h, tol):
        raise DomainError("input is not a complex Hadamard matrix")
    n = h.order
    dr = XSum(
        n,
        {
            (i, i): _unit_conj(h.coeff(i, 1))
            for i in range(1, n + 1)
        },
    )
    half = xsum_mul(dr, h)
    dc = XSum(
        n,
        {
            (j, j): _unit_conj(half.coeff(1, j))
            for j in range(1, n + 1)
        },
    )
    return dr, xsum_mul(half, dc), dc


def _unit_conj(c) -> complex:
    z = complex(c)
    if z == 0:
        raise DomainError("zero entry in a Hadamard matrix")
    return (z / abs(z)).conjugate()

