"""Permutation machinery: matrix realizations, the swap/commutation/factor
bijections, and the (anti)symmetrizers."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from _oracles import (
    as_listed,
    column_copy,
    dict_copy,
    factor_perm_by_hand,
    group_average_by_hand,
    kron_oracle,
    per_term_product,
    random_rational_xsum,
)
from kronx.exactnum import SqrtRational
from kronx.hubbard import XSum, dagger, identity, to_dense, x_op, xsum_mul
from kronx.kron import kron, kron_vec
from kronx.perm import (
    Permutation,
    antisymmetrizer,
    commutation_perm,
    factor_perm,
    kron_perm,
    perm_matrix,
    swap_perm,
    symmetrizer,
)


def _random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def _random_vec(rng, n):
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())
    assert Permutation.identity(3).images == (1, 2, 3)


@pytest.mark.parametrize("images", [(2.0, 1.0), (True, 2), (1, 2.5),
                                    (np.float64(1),), (np.bool_(True),),
                                    ("1",)])
def test_permutation_refuses_images_that_are_not_integers(images):
    with pytest.raises(TypeError):
        Permutation(images)


def test_permutation_stores_numpy_images_as_ints():
    pi = Permutation((np.int64(2), np.int32(3), np.uint8(1)))
    assert pi.images == (2, 3, 1)
    assert set(map(type, pi.images)) == {int}
    assert pi.inverse().images == (3, 1, 2)
    assert factor_perm(pi, 2) == factor_perm(Permutation((2, 3, 1)), 2)
    assert Permutation(x for x in (2, 1)).images == (2, 1)


def test_parity_by_cycles():
    assert Permutation.identity(4).parity() == 1
    assert Permutation((2, 1, 3)).parity() == -1
    assert Permutation((2, 3, 1)).parity() == 1  # 3-cycle is even


def test_parity_is_multiplicative():
    for p in range(1, 6):
        for a in itertools.permutations(range(1, p + 1)):
            pa = Permutation(a)
            for b in itertools.permutations(range(1, p + 1)):
                pb = Permutation(b)
                assert pa.compose(pb).parity() == pa.parity() * pb.parity()
            # sampling all b for every a only up to p=4 keeps this fast
            if p > 4:
                break


def test_perm_matrix_basics():
    assert perm_matrix(Permutation.identity(4)) == identity(4)
    anti = perm_matrix(Permutation((2, 1)))
    assert anti == x_op(2, 1, 2) + x_op(2, 2, 1)


def test_perm_matrix_orthogonality():
    rng = random.Random(60)
    for _ in range(50):
        pi = _random_perm(rng, rng.randint(1, 8))
        p = perm_matrix(pi)
        assert xsum_mul(p, dagger(p, "transpose")) == identity(pi.degree)


def test_composition_law_of_matrices():
    # P_sigma P_pi = P_(pi o sigma)
    rng = random.Random(61)
    for _ in range(80):
        n = rng.randint(1, 7)
        pi, sigma = _random_perm(rng, n), _random_perm(rng, n)
        lhs = xsum_mul(perm_matrix(sigma), perm_matrix(pi))
        assert lhs == perm_matrix(pi.compose(sigma))


def test_apply_perm_matches_matrix_action():
    # P = sum_j X^(j, pi(j)) acts on vectors by y_j = x_pi(j)
    rng = random.Random(62)
    assert perm_matrix(Permutation((2, 1))).apply((3, 5)) == (5, 3)
    for _ in range(100):
        n = rng.randint(1, 8)
        pi = _random_perm(rng, n)
        x = _random_vec(rng, n)
        want = tuple(x[pi(j) - 1] for j in range(1, n + 1))
        assert perm_matrix(pi).apply(x) == want


def test_swap_perm_small_cases():
    assert swap_perm(1).images == (1,)
    assert swap_perm(2).images == (1, 3, 2, 4)


def test_swap_matrix_is_sum_of_crossed_terms():
    for n in (1, 2, 3, 4):
        expected = XSum(n * n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expected = expected + kron(x_op(n, i, j), x_op(n, j, i))
        assert perm_matrix(swap_perm(n)) == expected


def test_swap_action_exchanges_factors():
    rng = random.Random(63)
    for _ in range(100):
        n = rng.randint(1, 6)
        x, y = _random_vec(rng, n), _random_vec(rng, n)
        got = perm_matrix(swap_perm(n)).apply(kron_vec(x, y))
        assert got == kron_vec(y, x)


def test_swap_is_an_involution():
    for n in range(1, 9):
        pi = swap_perm(n)
        assert pi.compose(pi).images == Permutation.identity(n * n).images


def test_swap_images_are_bijective_up_to_32():
    for n in range(1, 33):
        swap_perm(n)  # Permutation constructor validates bijectivity


def test_kron_perm_matches_matrix_kron():
    for n in range(1, 5):
        for m in range(1, 5):
            for pi_images in itertools.permutations(range(1, n + 1)):
                for sg_images in itertools.permutations(range(1, m + 1)):
                    pi, sg = Permutation(pi_images), Permutation(sg_images)
                    alpha = kron_perm(pi, sg)
                    want = kron(perm_matrix(pi), perm_matrix(sg))
                    assert perm_matrix(alpha) == want
                    assert xsum_mul(
                        dagger(perm_matrix(alpha), "transpose"),
                        perm_matrix(alpha),
                    ) == identity(n * m)


def test_commutation_perm_reduces_to_swap_for_equal_orders():
    for n in range(1, 6):
        assert commutation_perm(n, n).images == swap_perm(n).images


def test_commutation_perm_trivial_cases():
    assert commutation_perm(1, 1).images == (1,)
    assert commutation_perm(1, 5).images == tuple(range(1, 6))


def test_commutation_relates_both_kron_orders():
    rng = random.Random(64)
    for _ in range(100):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = random_rational_xsum(rng, n)
        b = random_rational_xsum(rng, m)
        p = perm_matrix(commutation_perm(n, m))
        lhs = xsum_mul(xsum_mul(dagger(p, "transpose"), kron(a, b)), p)
        assert lhs == kron(b, a)


def _bench_operand(rng, n, nnz, radicand):
    """nnz random cells of order n, each a nonzero rational times
    sqrt(radicand), held as columns; radicand 1 gives Fractions."""
    cells = rng.sample([(i, j) for i in range(1, n + 1) for j in range(1, n + 1)], nnz)
    terms = {}
    for cell in cells:
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        sign = 1 if q > 0 else -1
        terms[cell] = q if radicand == 1 else SqrtRational(sign, q * q * radicand)
    return column_copy(XSum(n, terms))


@pytest.mark.parametrize("shape", [(8, 32, 8, 32), (16, 64, 16, 64)])
@pytest.mark.parametrize("radicands", [(1, 1), (2, 1), (3, 5)],
                         ids=["rational-rational", "surd-rational", "surd-surd"])
def test_commutation_conjugation_on_columns_at_bench_shapes(shape, radicands):
    rng = random.Random(68)
    n, za, m, zb = shape
    a = _bench_operand(rng, n, za, radicands[0])
    b = _bench_operand(rng, m, zb, radicands[1])
    p = perm_matrix(commutation_perm(n, m))
    k = kron(a, b)
    left = xsum_mul(dagger(p, "transpose"), k)
    lhs = xsum_mul(left, p)
    # every product ran on columns, with no term dict built
    assert p._store is None and k._store is None
    assert left._store is None and lhs._store is None
    assert as_listed(lhs) == as_listed(per_term_product(per_term_product(
        dict_copy(dagger(p, "transpose")), dict_copy(k)), dict_copy(p)))
    assert lhs == kron(b, a)


def test_perm_matrix_matches_the_dict_route():
    rng = random.Random(69)
    for n in [1, 2, 3, 7, 40, 256]:
        pi = _random_perm(rng, n)
        got = perm_matrix(pi)
        assert got._store is None and got.nnz() == n
        want = XSum(n, {(j, pi(j)): 1 for j in range(1, n + 1)})
        assert as_listed(got) == as_listed(want)


@pytest.mark.parametrize("mode", ["transpose", "conjugate", "adjoint"])
def test_dagger_on_columns_matches_the_dict_route(mode):
    rng = random.Random(70)
    sums = [perm_matrix(_random_perm(rng, 6)), random_rational_xsum(rng, 5),
            _bench_operand(rng, 6, 20, 2), XSum(3)]
    for x in sums:
        got = dagger(column_copy(x), mode)
        assert got._store is None
        assert as_listed(got) == as_listed(dagger(dict_copy(x), mode))
        assert as_listed(dagger(got, mode)) == as_listed(x)


def test_factor_perm_identity_and_transposition():
    assert factor_perm(Permutation.identity(3), 2).images == tuple(range(1, 9))
    for n in range(1, 6):
        assert factor_perm(Permutation((2, 1)), n).images == swap_perm(n).images


def test_factor_perm_composition_is_reversed():
    # alpha_pi o alpha_sigma = alpha_(sigma o pi): rearranging by sigma and
    # then by pi reads factors through sigma first
    for a in itertools.permutations((1, 2, 3)):
        for b in itertools.permutations((1, 2, 3)):
            pi, sigma = Permutation(a), Permutation(b)
            lhs = factor_perm(pi, 2).compose(factor_perm(sigma, 2))
            rhs = factor_perm(sigma.compose(pi), 2)
            assert lhs.images == rhs.images


def test_factor_perm_action_permutes_kets():
    rng = random.Random(65)
    for images in itertools.permutations((1, 2, 3)):
        pi = Permutation(images)
        alpha = factor_perm(pi, 2)
        xs = [_random_vec(rng, 2) for _ in range(3)]
        flat = kron_vec(kron_vec(xs[0], xs[1]), xs[2])
        got = perm_matrix(alpha).apply(flat)
        # the index map rearranges BASIS labels by pi, so the induced action
        # on product vectors places factor pi^-1(s) in slot s
        inv = pi.inverse()
        want = [xs[inv(s) - 1] for s in (1, 2, 3)]
        assert got == kron_vec(kron_vec(want[0], want[1]), want[2])


def test_factor_perm_matches_the_per_state_reference():
    for p in range(1, 6):
        for images in itertools.permutations(range(1, p + 1)):
            pi = Permutation(images)
            for n in (1, 2, 3):
                assert factor_perm(pi, n).images == factor_perm_by_hand(pi, n).images
    rng = random.Random(68)
    for _ in range(30):
        n = rng.randint(2, 6)
        pi = _random_perm(rng, rng.randint(1, 12))
        while n**pi.degree > 4096:
            n -= 1
        assert factor_perm(pi, n).images == factor_perm_by_hand(pi, n).images


def _ranks_and_orders(limit):
    """Every (p, n) with p <= 6 and n^p <= limit."""
    return [(p, n) for p in range(1, 7) for n in range(1, limit + 1) if n**p <= limit]


def test_symmetrizers_match_the_definition():
    # sorted by cell: the closed form stores its terms in orbit order
    for p, n in _ranks_and_orders(256):
        for build, signed in ((symmetrizer, False), (antisymmetrizer, True)):
            got, want = build(p, n), group_average_by_hand(p, n, signed)
            assert sorted(as_listed(got)) == sorted(as_listed(want))


def test_symmetrizer_counts_in_closed_form():
    for p in range(1, 13):
        assert symmetrizer(p, 2).nnz() == comb(2 * p, p)
    for p, n in _ranks_and_orders(4096):
        if p == 1 and n > 64:
            continue  # the identity again, at 1.4 s for the rest
        s, a = symmetrizer(p, n), antisymmetrizer(p, n)
        assert a.nnz() == comb(n, p) * factorial(p) ** 2
        # the dimensions of the symmetric and antisymmetric subspaces
        assert s.trace() == comb(n + p - 1, p)
        assert a.trace() == comb(n, p)


@pytest.mark.parametrize("build,p,n", [(symmetrizer, 9, 1), (antisymmetrizer, 9, 1),
                                       (symmetrizer, 7, 2)])
def test_symmetrizers_build_without_the_permutation_sum(build, p, n):
    # the sum over all p! permutations took 4-8 s on each of these
    start = time.perf_counter()
    build(p, n)
    assert time.perf_counter() - start < 0.5


def test_symmetrizer_p2_closed_form():
    # S_2 = (I + swap)/2; A_2 = (I - swap)/2
    for n in (1, 2, 3):
        swp = perm_matrix(swap_perm(n))
        assert symmetrizer(2, n) == (identity(n * n) + swp).scale(Fraction(1, 2))
        assert antisymmetrizer(2, n) == (identity(n * n) - swp).scale(
            Fraction(1, 2)
        )


def test_symmetrizer_action():
    rng = random.Random(66)
    for n in (2, 3):
        s = symmetrizer(2, n)
        a = antisymmetrizer(2, n)
        for _ in range(20):
            x, y = _random_vec(rng, n), _random_vec(rng, n)
            xy, yx = kron_vec(x, y), kron_vec(y, x)
            sym = tuple((u + v) / 2 for u, v in zip(xy, yx))
            anti = tuple((u - v) / 2 for u, v in zip(xy, yx))
            assert s.apply(xy) == sym
            assert a.apply(xy) == anti


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_projector_identities(p, n):
    s = symmetrizer(p, n)
    a = antisymmetrizer(p, n)
    assert xsum_mul(s, s) == s
    assert xsum_mul(a, a) == a
    assert xsum_mul(s, a) == XSum(n**p)
    assert xsum_mul(a, s) == XSum(n**p)


def test_antisymmetrizer_trace_counts_dimension():
    # rank of the antisymmetric subspace is C(n, p)
    from math import comb

    assert antisymmetrizer(2, 3).trace() == comb(3, 2)
    assert antisymmetrizer(3, 3).trace() == comb(3, 3)
    assert antisymmetrizer(3, 2).trace() == 0  # p > n kills everything


def test_trace_reads_the_diagonal_off_the_columns():
    s = symmetrizer(2, 64)
    # the dimension of the symmetric subspace, C(65, 2)
    assert s.trace() == 2080
    assert s._store is None
    for x in (s, antisymmetrizer(3, 4), column_copy(random_rational_xsum(
            random.Random(7), 6))):
        got = x.trace()
        want = dict_copy(x).trace()
        assert (type(got), repr(got)) == (type(want), repr(want))


def test_inverse_matrix_is_transpose():
    rng = random.Random(67)
    for _ in range(40):
        pi = _random_perm(rng, rng.randint(1, 7))
        assert perm_matrix(pi.inverse()) == dagger(perm_matrix(pi), "transpose")


def test_symmetrizer_resource_guard(monkeypatch):
    from kronx.hubbard import ResourceError

    monkeypatch.setenv("KRONX_MAX_DIM", "8")
    with pytest.raises(ResourceError):
        symmetrizer(4, 2)  # 2^4 = 16 > 8
