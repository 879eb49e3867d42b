"""Irreducible SU(2) representations as Hubbard-operator sums.

Basis ordering is descending weight: level k = 1 carries m = j, level
k = n carries m = -j, so m_k = j + 1 - k.  All ladder coefficients are
kept as SqrtRational; the commutation relations then close exactly
because every sum that appears combines like radicands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .exactnum import SqrtRational, pochhammer
from .hubbard import XSum


@dataclass(frozen=True)
class Irrep:
    """The spin-j representation; dim = twoJ + 1."""

    twoJ: int

    def __post_init__(self):
        if not isinstance(self.twoJ, int) or self.twoJ < 0:
            raise ValueError("twoJ must be a nonnegative integer")

    @property
    def dim(self) -> int:
        return self.twoJ + 1


RepLike = Union[Irrep, int]


def _as_irrep(rep: RepLike) -> Irrep:
    return rep if isinstance(rep, Irrep) else Irrep(rep)


def weight(rep: RepLike, k: int) -> Fraction:
    """m_k = j + 1 - k."""
    rep = _as_irrep(rep)
    if not 1 <= k <= rep.dim:
        raise IndexError(f"level {k} outside 1..{rep.dim}")
    return Fraction(rep.twoJ + 2 - 2 * k, 2)


def j3(rep: RepLike) -> XSum:
    rep = _as_irrep(rep)
    return XSum(
        rep.dim,
        (((k, k), weight(rep, k)) for k in range(1, rep.dim + 1)),
    )


def ladder_coeff(rep: RepLike, k: int) -> SqrtRational:
    """c_k = sqrt(k (2j + 1 - k)), the J_- amplitude from level k."""
    rep = _as_irrep(rep)
    return SqrtRational.sqrt(Fraction(k * (rep.twoJ + 1 - k)))


def jpm(rep: RepLike, sign: str) -> XSum:
    rep = _as_irrep(rep)
    n = rep.dim
    if sign == "plus":
        terms = (((k, k + 1), ladder_coeff(rep, k)) for k in range(1, n))
    elif sign == "minus":
        terms = (((k + 1, k), ladder_coeff(rep, k)) for k in range(1, n))
    else:
        raise ValueError("sign must be 'plus' or 'minus'")
    return XSum(n, terms)


def ladder_norm(rep: RepLike, r: int) -> SqrtRational:
    """C_r = sqrt(r! (2j)! / (2j - r)!), the norm of (J_-)^r |j, j>."""
    rep = _as_irrep(rep)
    if not 0 <= r <= rep.twoJ:
        raise IndexError(f"r must lie in 0..{rep.twoJ}")
    return SqrtRational.sqrt(
        Fraction(math.factorial(r) * pochhammer(rep.twoJ, r, "falling"))
    )


def casimir(rep: RepLike) -> XSum:
    """J_- J_+ + J_3^2 + J_3; equals j(j+1) I on the irrep."""
    rep = _as_irrep(rep)
    jp = jpm(rep, "plus")
    jz = j3(rep)
    return jpm(rep, "minus") @ jp + jz @ jz + jz


def pauli(axis: str) -> XSum:
    """The 2x2 Pauli matrix along x, y, or z."""
    if axis == "x":
        return XSum(2, {(1, 2): 1, (2, 1): 1})
    if axis == "y":
        return XSum(2, {(1, 2): -1j, (2, 1): 1j})
    if axis == "z":
        return XSum(2, {(1, 1): 1, (2, 2): -1})
    raise ValueError("axis must be 'x', 'y', or 'z'")
