"""Coupled SU(2) x SU(2) generators and their block-diagonal targets.

Two routes to the same operators.  product_gen builds J on the product
space, either through explicit Kronecker products or through the
ceiling-index closed forms that sidestep them.  block_gen builds the
equivalent direct sum of irreps J_(j1+j2), ..., J_|j1-j2| laid out by
descending weight; CouplingLayout carries the block dimensions d_k and
cumulative offsets z_k the S-matrix column indexing relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence, Tuple

from .exactnum import ceil_ratio
from .hubbard import XSum, dagger, identity
from .kron import kron
from .su2 import Irrep, j3, jpm, ladder_coeff, weight


@dataclass(frozen=True)
class CouplingLayout:
    twoJ1: int
    twoJ2: int
    # computed once per layout: z() runs once per CG entry
    dims: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    offsets: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.twoJ1 < 0 or self.twoJ2 < 0:
            raise ValueError("twoJ must be nonnegative")
        # d_k = n1 + n2 + 1 - 2k, stepping down by 2
        dims = tuple(
            self.n1 + self.n2 + 1 - 2 * k for k in range(1, self.n0 + 1)
        )
        object.__setattr__(self, "dims", dims)
        # z_k = k (d_k + k - 1) for k = 1..n0
        object.__setattr__(self, "offsets", tuple(
            k * (d + k - 1) for k, d in enumerate(dims, start=1)
        ))

    @property
    def n1(self) -> int:
        return self.twoJ1 + 1

    @property
    def n2(self) -> int:
        return self.twoJ2 + 1

    @property
    def n0(self) -> int:
        return min(self.n1, self.n2)

    @property
    def total(self) -> int:
        return self.n1 * self.n2

    def z(self, k: int) -> int:
        if k == 0:
            return 0
        return self.offsets[k - 1]

    def block_two_j(self, k: int) -> int:
        """The coupled weight of block k: 2J = twoJ1 + twoJ2 + 2 - 2k."""
        if not 1 <= k <= self.n0:
            raise IndexError(f"block {k} outside 1..{self.n0}")
        return self.twoJ1 + self.twoJ2 + 2 - 2 * k


def layout(two_j1: int, two_j2: int) -> CouplingLayout:
    return CouplingLayout(two_j1, two_j2)


@dataclass(frozen=True)
class BlockOp:
    layout: CouplingLayout
    blocks: Tuple[XSum, ...]

    def __post_init__(self):
        dims = self.layout.dims
        if len(self.blocks) != len(dims):
            raise ValueError("block count does not match layout")
        for b, d in zip(self.blocks, dims):
            if b.order != d:
                raise ValueError("block order does not match layout dims")

    def flatten(self) -> XSum:
        return direct_sum(self.blocks)


def direct_sum(blocks: Sequence[XSum]) -> XSum:
    """Block-diagonal placement at cumulative offsets."""
    total = sum(b.order for b in blocks)
    terms = {}
    shift = 0
    for b in blocks:
        for ((i, j), c) in b.items():
            terms[(shift + i, shift + j)] = c
        shift += b.order
    return XSum(total, terms)


def product_gen(
    two_j1: int, two_j2: int, which: str, path: str = "kron"
) -> XSum:
    """J_3 or J_+- on the n1*n2 product space.

    path='kron' assembles A (x) I + I (x) B; path='ceiling' writes the
    entries directly from p' = ceil(p/n2).  The two must agree exactly.
    """
    if which not in ("3", "plus", "minus"):
        raise ValueError("which must be '3', 'plus', or 'minus'")
    if path == "kron":
        return _product_kron(two_j1, two_j2, which)
    if path == "ceiling":
        return _product_ceiling(two_j1, two_j2, which)
    raise ValueError("path must be 'kron' or 'ceiling'")


def _product_kron(two_j1: int, two_j2: int, which: str) -> XSum:
    r1, r2 = Irrep(two_j1), Irrep(two_j2)
    a = j3(r1) if which == "3" else jpm(r1, which)
    b = j3(r2) if which == "3" else jpm(r2, which)
    return kron(a, identity(r2.dim)) + kron(identity(r1.dim), b)


def _product_ceiling(two_j1: int, two_j2: int, which: str) -> XSum:
    if which == "minus":
        return dagger(_product_ceiling(two_j1, two_j2, "plus"), "transpose")
    r1, r2 = Irrep(two_j1), Irrep(two_j2)
    n1, n2 = r1.dim, r2.dim
    n = n1 * n2
    # the bands are lazy: XSum checks the order before it draws a term
    if which == "3":
        levels = ((p, ceil_ratio(p, n2)) for p in range(1, n + 1))
        return XSum(n, (((p, p), weight(r1, pp) + weight(r2, p + n2 - n2 * pp))
                        for p, pp in levels))
    # plus: a stride-n2 band from the first factor and a stride-1 band
    # from the second; the in-block boundary coefficients c_{n2} vanish
    # on their own since c_k^2 = k(2j+1-k).
    first = (((p, p + n2), ladder_coeff(r1, ceil_ratio(p, n2)))
             for p in range(1, n2 * (n1 - 1) + 1))
    second = (((p, p + 1), ladder_coeff(r2, p + n2 - n2 * ceil_ratio(p, n2)))
              for p in range(1, n))
    return XSum(n, chain(first, second))


def block_gen(two_j1: int, two_j2: int, which: str) -> BlockOp:
    """The direct-sum form: block k is the spin-(j1+j2+1-k) generator."""
    lay = layout(two_j1, two_j2)
    blocks = []
    for k in range(1, lay.n0 + 1):
        two_j = lay.block_two_j(k)
        blocks.append(j3(two_j) if which == "3" else jpm(two_j, which))
    return BlockOp(lay, tuple(blocks))
