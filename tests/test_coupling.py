from fractions import Fraction

import pytest

from kronx.coupling import (
    BlockOp,
    CouplingLayout,
    block_gen,
    direct_sum,
    layout,
    product_gen,
)
from kronx.exactnum import SqrtRational
from kronx.hubbard import XSum, bracket, dagger, identity, trace
from kronx.su2 import j3, jpm, weight

R2 = SqrtRational.sqrt(2)
R3 = SqrtRational.sqrt(3)


def test_layout_examples():
    lay = layout(1, 1)
    assert (lay.n1, lay.n2, lay.n0) == (2, 2, 2)
    assert lay.dims == (3, 1)
    assert lay.offsets == (3, 4)
    assert lay.z(0) == 0 and lay.z(2) == 4

    lay21 = layout(2, 1)
    assert lay21.dims == (4, 2)
    assert lay21.total == 6

    lay0 = layout(0, 5)
    assert lay0.dims == (6,)
    assert lay0.n0 == 1


def test_layout_dims_and_offsets_are_computed_once():
    lay = layout(6, 4)
    assert lay.dims is lay.dims and lay.offsets is lay.offsets
    assert lay == layout(6, 4) and hash(lay) == hash(layout(6, 4))


def test_layout_validation():
    with pytest.raises(ValueError):
        CouplingLayout(-1, 2)
    with pytest.raises(IndexError):
        layout(1, 1).block_two_j(3)


@pytest.mark.parametrize("two_j1", range(0, 41, 5))
@pytest.mark.parametrize("two_j2", range(0, 41, 5))
def test_layout_arithmetic_identities(two_j1, two_j2):
    lay = layout(two_j1, two_j2)
    dims, offs = lay.dims, lay.offsets
    assert sum(dims) == lay.total
    for k in range(1, lay.n0 + 1):
        d = dims[k - 1]
        assert d == lay.n1 + lay.n2 + 1 - 2 * k
        if k > 1:
            assert d == dims[k - 2] - 2
        assert offs[k - 1] == k * (d + k - 1)
        assert lay.z(k - 1) == (k - 1) * (d + k)
        assert lay.z(k) - lay.z(k - 1) == d
        assert lay.block_two_j(k) == d - 1


def test_direct_sum_basics():
    a = XSum(2, {(1, 2): 1})
    assert direct_sum([a]) == a
    assert direct_sum([identity(2), identity(3)]) == identity(5)
    b = XSum(3, {(2, 1): Fraction(1, 3), (3, 3): 2})
    s = direct_sum([a, b])
    assert s.order == 5
    assert s.coeff(1, 2) == 1
    assert s.coeff(4, 3) == Fraction(1, 3)
    assert s.coeff(5, 5) == 2
    assert trace(s) == trace(a) + trace(b)
    # off-diagonal blocks stay empty
    for ((i, j), _c) in s.items():
        assert (i <= 2) == (j <= 2)


def test_block_op_validates_dims():
    with pytest.raises(ValueError):
        BlockOp(layout(1, 1), (identity(3), identity(2)))
    with pytest.raises(ValueError):
        BlockOp(layout(1, 1), (identity(3),))


def test_product_plus_printed_half_half():
    want = XSum(4, {(1, 2): 1, (1, 3): 1, (2, 4): 1, (3, 4): 1})
    assert product_gen(1, 1, "plus") == want
    assert product_gen(1, 1, "plus", path="ceiling") == want


def test_product_plus_printed_half_one():
    want = XSum(
        6,
        {
            (1, 4): 1,
            (2, 5): 1,
            (3, 6): 1,
            (1, 2): R2,
            (2, 3): R2,
            (4, 5): R2,
            (5, 6): R2,
        },
    )
    assert product_gen(1, 2, "plus") == want
    assert product_gen(1, 2, "plus", path="ceiling") == want


def test_product_plus_printed_one_half():
    want = XSum(
        6,
        {
            (1, 2): 1,
            (1, 3): R2,
            (2, 4): R2,
            (3, 4): 1,
            (3, 5): R2,
            (4, 6): R2,
            (5, 6): 1,
        },
    )
    assert product_gen(2, 1, "plus") == want
    assert product_gen(2, 1, "plus", path="ceiling") == want


def test_product_gen_rejects_bad_args():
    with pytest.raises(ValueError):
        product_gen(1, 1, "x")
    with pytest.raises(ValueError):
        product_gen(1, 1, "plus", path="dense")


@pytest.mark.parametrize("two_j1", range(0, 6))
@pytest.mark.parametrize("two_j2", range(0, 6))
def test_paths_agree_exactly(two_j1, two_j2):
    for which in ("3", "plus", "minus"):
        a = product_gen(two_j1, two_j2, which, path="kron")
        b = product_gen(two_j1, two_j2, which, path="ceiling")
        assert a == b


@pytest.mark.parametrize("two_j1", range(0, 6))
@pytest.mark.parametrize("two_j2", range(0, 6))
def test_coupled_algebra_exact(two_j1, two_j2):
    for gen in (
        lambda w: product_gen(two_j1, two_j2, w),
        lambda w: block_gen(two_j1, two_j2, w).flatten(),
    ):
        jp, jm, jz = gen("plus"), gen("minus"), gen("3")
        assert bracket(jp, jm, "commutator") == jz.scale(2)
        assert bracket(jz, jp, "commutator") == jp
        assert bracket(jz, jm, "commutator") == jm.scale(-1)
        assert dagger(jp, "adjoint") == jm


def test_block_printed_half_half():
    assert block_gen(1, 1, "3").flatten() == XSum(4, {(1, 1): 1, (3, 3): -1})
    assert block_gen(1, 1, "plus").flatten() == XSum(
        4, {(1, 2): R2, (2, 3): R2}
    )


def test_block_printed_one_half():
    got3 = block_gen(2, 1, "3").flatten()
    want3 = XSum(
        6,
        {
            (1, 1): Fraction(3, 2),
            (2, 2): Fraction(1, 2),
            (3, 3): Fraction(-1, 2),
            (4, 4): Fraction(-3, 2),
            (5, 5): Fraction(1, 2),
            (6, 6): Fraction(-1, 2),
        },
    )
    assert got3 == want3
    gotp = block_gen(2, 1, "plus").flatten()
    wantp = XSum(6, {(1, 2): R3, (2, 3): 2, (3, 4): R3, (5, 6): 1})
    assert gotp == wantp


@pytest.mark.parametrize("two_j1", range(0, 6))
@pytest.mark.parametrize("two_j2", range(0, 6))
def test_blocks_are_su2_generators(two_j1, two_j2):
    lay = layout(two_j1, two_j2)
    for which in ("3", "plus"):
        op = block_gen(two_j1, two_j2, which)
        assert op.layout == lay
        for k, blk in enumerate(op.blocks, start=1):
            two_j = lay.block_two_j(k)
            want = j3(two_j) if which == "3" else jpm(two_j, which)
            assert blk == want


def test_block_plus_coefficient_formula():
    # c_{k,p} = sqrt(p (2(j1+j2-k) + 3 - p)) against the flattened matrix
    two_j1, two_j2 = 3, 2
    lay = layout(two_j1, two_j2)
    flat = block_gen(two_j1, two_j2, "plus").flatten()
    for k in range(1, lay.n0 + 1):
        base = lay.z(k - 1)
        for p in range(1, lay.dims[k - 1]):
            c = flat.coeff(base + p, base + p + 1)
            val = p * (two_j1 + two_j2 - 2 * k + 3 - p)
            assert c * c == val


@pytest.mark.parametrize("two_j1", range(0, 6))
@pytest.mark.parametrize("two_j2", range(0, 6))
def test_j3_spectra_coincide(two_j1, two_j2):
    prod = product_gen(two_j1, two_j2, "3")
    blk = block_gen(two_j1, two_j2, "3").flatten()
    n = prod.order
    spec_prod = sorted(prod.coeff(p, p) for p in range(1, n + 1))
    spec_blk = sorted(blk.coeff(p, p) for p in range(1, n + 1))
    want = sorted(
        weight(two_j1, k1) + weight(two_j2, k2)
        for k1 in range(1, two_j1 + 2)
        for k2 in range(1, two_j2 + 2)
    )
    assert spec_prod == want
    assert spec_blk == want
