from fractions import Fraction

import pytest

from kronx.exactnum import SqrtRational
from kronx.hubbard import XSum, apply, bracket, dagger, identity, xsum_mul
from kronx.su2 import (
    Irrep,
    casimir,
    j3,
    jpm,
    ladder_coeff,
    ladder_norm,
    pauli,
)


def test_irrep_validation():
    assert Irrep(5).dim == 6
    with pytest.raises(ValueError):
        Irrep(-1)


def test_j3_printed_forms():
    assert j3(1) == XSum(2, {(1, 1): Fraction(1, 2), (2, 2): Fraction(-1, 2)})
    assert j3(2) == XSum(3, {(1, 1): 1, (3, 3): -1})
    assert j3(3) == XSum(
        4,
        {
            (1, 1): Fraction(3, 2),
            (2, 2): Fraction(1, 2),
            (3, 3): Fraction(-1, 2),
            (4, 4): Fraction(-3, 2),
        },
    )


def test_jplus_printed_forms():
    assert jpm(1, "plus") == XSum(2, {(1, 2): 1})
    r2 = SqrtRational.sqrt(2)
    assert jpm(2, "plus") == XSum(3, {(1, 2): r2, (2, 3): r2})
    r3 = SqrtRational.sqrt(3)
    assert jpm(3, "plus") == XSum(4, {(1, 2): r3, (2, 3): 2, (3, 4): r3})


def test_jpm_rejects_bad_sign():
    with pytest.raises(ValueError):
        jpm(2, "up")


def test_adjoint_relation():
    for two_j in range(0, 8):
        jp = jpm(two_j, "plus")
        jm = jpm(two_j, "minus")
        assert dagger(jp, "adjoint") == jm
        assert dagger(jm, "adjoint") == jp
        assert dagger(j3(two_j), "adjoint") == j3(two_j)


@pytest.mark.parametrize("two_j", range(0, 11))
def test_commutation_relations_exact(two_j):
    jp = jpm(two_j, "plus")
    jm = jpm(two_j, "minus")
    jz = j3(two_j)
    assert bracket(jp, jm, "commutator") == jz.scale(2)
    assert bracket(jz, jp, "commutator") == jp
    assert bracket(jz, jm, "commutator") == jm.scale(-1)


@pytest.mark.parametrize("two_j", range(0, 11))
def test_casimir_is_scalar(two_j):
    expect = identity(two_j + 1).scale(Fraction(two_j * (two_j + 2), 4))
    assert casimir(two_j) == expect


def test_ladder_norm_values():
    assert ladder_norm(2, 0) == 1
    assert ladder_norm(2, 1) == SqrtRational.sqrt(2)
    assert ladder_norm(2, 2) == 2
    with pytest.raises(IndexError):
        ladder_norm(2, 3)
    with pytest.raises(IndexError):
        ladder_norm(2, -1)


@pytest.mark.parametrize("two_j", range(1, 7))
def test_ladder_norm_matches_iterated_lowering(two_j):
    n = two_j + 1
    jm = jpm(two_j, "minus")
    vec = [1] + [0] * (n - 1)
    for r in range(0, two_j + 1):
        norm_sq = sum(
            (c * c if isinstance(c, SqrtRational) else Fraction(c) ** 2)
            for c in vec
            if c
        )
        want = ladder_norm(two_j, r)
        assert norm_sq == want * want
        vec = apply(jm, vec)


def test_ladder_coeff_square():
    for two_j in range(1, 8):
        for k in range(1, two_j + 1):
            c = ladder_coeff(two_j, k)
            assert c * c == k * (two_j + 1 - k)


def test_pauli_fixtures_and_algebra():
    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    assert sx == XSum(2, {(1, 2): 1, (2, 1): 1})
    assert sz == j3(1).scale(2)
    assert sx == jpm(1, "plus") + jpm(1, "minus")
    for s in (sx, sy, sz):
        assert xsum_mul(s, s) == identity(2)
    assert bracket(sx, sy, "commutator") == sz.scale(2j)
    assert bracket(sx, sy, "anticommutator") == XSum(2, {})
    with pytest.raises(ValueError):
        pauli("w")
