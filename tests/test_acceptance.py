"""Release acceptance gate.

One test per numbered criterion, each a self-contained end-to-end check
with its tolerance and time budget pinned in place. Run with -v to get
the one-line pass/fail report per criterion.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from kronx.cg import build_S, ladder_oracle_S, verify_intertwining
from kronx.coupling import block_gen, product_gen
from kronx.exactnum import (
    SqrtRational,
    binomial,
    ceil_ratio,
    floor_ratio,
    hyp3f2_terminating,
    pochhammer,
    scalar_to_float,
)
from kronx.fourier import cooley_tukey
from kronx.hubbard import XSum, bracket, dagger, identity, xsum_mul
from kronx.kron import hadamard_power, kron, kron_many, kron_power, kron_vec
from kronx.models import JCConfig, NLevelHamiltonian, diagonalize, jc_evolution, jc_hamiltonian
from kronx.perm import Permutation, commutation_perm, kron_perm, perm_matrix, swap_perm
from kronx.su2 import casimir, j3, jpm

from _oracles import dense_kron_many, kron_oracle, random_rational_xsum
from kronx.hubbard import from_dense, to_dense

import itertools


def H(x) -> SqrtRational:
    return SqrtRational.sqrt(Fraction(x))


def test_01_printed_generator_and_basis_fixtures():
    start = time.monotonic()

    # H_4 = H^(x2): sign pattern on the +-1/2 lattice
    signs = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    h4 = hadamard_power(2)
    for i in range(4):
        for j in range(4):
            assert h4.coeff(i + 1, j + 1) == SqrtRational(
                signs[i][j], Fraction(1, 4)
            )

    # J_3 and J_+ for twoJ in {1, 2, 3}
    assert j3(1) == XSum(2, {(1, 1): Fraction(1, 2), (2, 2): Fraction(-1, 2)})
    assert j3(2) == XSum(3, {(1, 1): 1, (3, 3): -1})
    assert j3(3) == XSum(4, {
        (1, 1): Fraction(3, 2), (2, 2): Fraction(1, 2),
        (3, 3): Fraction(-1, 2), (4, 4): Fraction(-3, 2),
    })
    assert jpm(1, "plus") == XSum(2, {(1, 2): H(1)})
    assert jpm(2, "plus") == XSum(3, {(1, 2): H(2), (2, 3): H(2)})
    assert jpm(3, "plus") == XSum(4, {(1, 2): H(3), (2, 3): 2, (3, 4): H(3)})

    # coupled J_+ on the product space for (1/2,1/2), (1/2,1), (1,1/2)
    assert product_gen(1, 1, "plus") == XSum(
        4, {(1, 2): 1, (1, 3): 1, (2, 4): 1, (3, 4): 1}
    )
    assert product_gen(1, 2, "plus") == XSum(6, {
        (1, 4): 1, (2, 5): 1, (3, 6): 1,
        (1, 2): H(2), (2, 3): H(2), (4, 5): H(2), (5, 6): H(2),
    })
    assert product_gen(2, 1, "plus") == XSum(6, {
        (1, 2): 1, (3, 4): 1, (5, 6): 1,
        (1, 3): H(2), (2, 4): H(2), (3, 5): H(2), (4, 6): H(2),
    })

    # block-diagonal coupled generators for (1/2,1/2) and (1,1/2)
    assert block_gen(1, 1, "3").flatten() == XSum(4, {(1, 1): 1, (3, 3): -1})
    assert block_gen(1, 1, "plus").flatten() == XSum(
        4, {(1, 2): H(2), (2, 3): H(2)}
    )
    assert block_gen(2, 1, "3").flatten() == XSum(6, {
        (1, 1): Fraction(3, 2), (2, 2): Fraction(1, 2),
        (3, 3): Fraction(-1, 2), (4, 4): Fraction(-3, 2),
        (5, 5): Fraction(1, 2), (6, 6): Fraction(-1, 2),
    })
    assert block_gen(2, 1, "plus").flatten() == XSum(
        6, {(1, 2): H(3), (2, 3): 2, (3, 4): H(3), (5, 6): 1}
    )

    # change-of-basis matrices for (1/2,1/2) and (1,1/2)
    assert build_S(1, 1).matrix == XSum(4, {
        (1, 1): 1, (2, 2): H("1/2"), (3, 2): H("1/2"), (4, 3): 1,
        (2, 4): H("1/2"), (3, 4): -H("1/2"),
    })
    assert build_S(2, 1).matrix == XSum(6, {
        (1, 1): 1, (2, 2): H("1/3"), (3, 2): H("2/3"),
        (4, 3): H("2/3"), (5, 3): H("1/3"), (6, 4): 1,
        (2, 5): H("2/3"), (3, 5): -H("1/3"),
        (4, 6): H("1/3"), (5, 6): -H("2/3"),
    })

    assert time.monotonic() - start < 1.0
    print("criterion 1: PASS - printed fixtures exact")


def test_02_four_level_chain_diagonalization():
    start = time.monotonic()
    j = 1.0
    h = NLevelHamiltonian((-j / 4, j / 4, j / 4, -j / 4), {(2, 3): -2 * j})
    ev, u = diagonalize(h)
    want = sorted((-j / 4, 9 * j / 4, -7 * j / 4, -j / 4))
    assert max(abs(a - b) for a, b in zip(ev, want)) < 1e-12
    assert time.monotonic() - start < 1.0
    print("criterion 2: PASS - four-level chain spectrum within 1e-12")


def test_03_kron_index_formula_vs_dense_oracle():
    start = time.monotonic()
    rng = random.Random(101)

    for _ in range(200):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        a = random_rational_xsum(rng, n)
        b = random_rational_xsum(rng, m)
        want = kron_oracle(a, b)
        assert kron(a, b, path="sparse") == want
        assert kron(a, b, path="closed") == want

    for _ in range(50):
        mats = [
            random_rational_xsum(rng, rng.randint(1, 4)) for _ in range(3)
        ]
        want = from_dense(dense_kron_many([to_dense(m) for m in mats]))
        assert kron_many(mats) == want

    for _ in range(20):
        n = rng.choice((2, 3))
        t = rng.randint(1, 4)
        a = random_rational_xsum(rng, n)
        want = from_dense(dense_kron_many([to_dense(a)] * t))
        assert kron_power(a, t) == want

    assert time.monotonic() - start < 10.0
    print("criterion 3: PASS - 200 pairs, 50 triples, 20 powers exact")


def test_04_permutation_laws():
    rng = random.Random(202)

    for _ in range(100):
        n = rng.randint(1, 6)
        x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
        y = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
        assert perm_matrix(swap_perm(n)).apply(kron_vec(x, y)) == kron_vec(y, x)

    for _ in range(100):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = random_rational_xsum(rng, n)
        b = random_rational_xsum(rng, m)
        p = perm_matrix(commutation_perm(n, m))
        assert xsum_mul(xsum_mul(dagger(p, "transpose"), kron(a, b)), p) == kron(b, a)

    for n in range(1, 5):
        for m in range(1, 5):
            for pi_images in itertools.permutations(range(1, n + 1)):
                for sg_images in itertools.permutations(range(1, m + 1)):
                    pi, sg = Permutation(pi_images), Permutation(sg_images)
                    assert perm_matrix(kron_perm(pi, sg)) == kron(
                        perm_matrix(pi), perm_matrix(sg)
                    )

    print("criterion 4: PASS - swap, commutation, and product-permutation laws exact")


def test_05_hadamard_dual_forms():
    for t in range(1, 7):
        assert hadamard_power(t, "ceiling") == hadamard_power(t, "binary")
    for t in range(1, 7):
        h = hadamard_power(t)
        assert xsum_mul(h, dagger(h, "adjoint")) == identity(2**t)
    print("criterion 5: PASS - exponent forms identical, orthogonality exact")


def test_06_su2_algebra_exact():
    for two_j in range(0, 11):
        jp, jm, jz = jpm(two_j, "plus"), jpm(two_j, "minus"), j3(two_j)
        assert bracket(jp, jm) == jz.scale(2)
        assert bracket(jz, jp) == jp
        assert bracket(jz, jm) == jm.scale(-1)
        n = two_j + 1
        assert casimir(two_j) == XSum(
            n, {(k, k): Fraction(two_j * (two_j + 2), 4) for k in range(1, n + 1)}
        )

    for two_j1 in range(0, 6):
        for two_j2 in range(0, 6):
            gens = [
                (
                    product_gen(two_j1, two_j2, "plus", path=path),
                    product_gen(two_j1, two_j2, "minus", path=path),
                    product_gen(two_j1, two_j2, "3", path=path),
                )
                for path in ("kron", "ceiling")
            ]
            gens.append(tuple(
                block_gen(two_j1, two_j2, w).flatten()
                for w in ("plus", "minus", "3")
            ))
            for jp, jm, jz in gens:
                assert bracket(jp, jm) == jz.scale(2)
                assert bracket(jz, jp) == jp
                assert bracket(jz, jm) == jm.scale(-1)

    print("criterion 6: PASS - algebra and Casimir exact, all generator routes")


def test_07_clebsch_gordan_correctness():
    start = time.monotonic()
    for two_j1 in range(0, 6):
        for two_j2 in range(0, 6):
            s = build_S(two_j1, two_j2)
            report = verify_intertwining(s)
            assert report.max_residual < 1e-10, (two_j1, two_j2)
            assert report.diagonal_exact

            a = s.matrix.to_numpy().real
            n = s.layout.total
            assert np.max(np.abs(a.T @ a - np.eye(n))) < 1e-10
            assert np.max(np.abs(a @ a.T - np.eye(n))) < 1e-10

            assert s.column_norms_sq() == [1] * n

            lay = s.layout
            for k in range(1, lay.n0 + 1):
                # alpha = 0 sits at row p = k of the r = 1 column
                top = s.matrix.coeff(k, lay.z(k - 1) + 1)
                assert scalar_to_float(top) > 0, (two_j1, two_j2, k)

            if two_j1 <= 4 and two_j2 <= 4:
                oracle = ladder_oracle_S(two_j1, two_j2)
                diff = np.abs(a - oracle.matrix.to_numpy().real)
                assert np.max(diff) < 1e-10

    assert time.monotonic() - start < 30.0
    print("criterion 7: PASS - intertwining, orthogonality, normalization, oracle")


def test_08_index_and_pochhammer_lemmas():
    rng = random.Random(303)

    for _ in range(2000):
        p = rng.randint(1, 10_000)
        n, m = rng.randint(1, 64), rng.randint(1, 64)
        c = ceil_ratio(p, n)
        assert Fraction(p, n) <= c < Fraction(p, n) + 1
        assert ceil_ratio(p, n * m) == ceil_ratio(ceil_ratio(p, n), m)
        k = rng.randint(0, 50)
        assert ceil_ratio(p + k * n, n) == c + k
        assert ceil_ratio(p + 1, n) == floor_ratio(p, n) + 1

    for _ in range(500):
        a, b = rng.randint(-6, 12), rng.randint(-6, 12)
        n = rng.randint(0, 8)
        lhs = sum(
            binomial(n, s)
            * pochhammer(a, s, "rising")
            * pochhammer(b, n - s, "rising")
            for s in range(n + 1)
        )
        assert lhs == pochhammer(a + b, n, "rising")

    checked = 0
    while checked < 500:
        r = rng.randint(0, 6)
        b, c = rng.randint(-12, 12), rng.randint(-12, 12)
        d, e = rng.randint(-12, 12), rng.randint(-12, 12)
        if pochhammer(d, r, "rising") == 0 or pochhammer(-e, r, "rising") == 0:
            continue
        lhs = (
            pochhammer(d, r, "rising")
            * pochhammer(e, r, "falling")
            * hyp3f2_terminating(r, b, c, d, e)
        )
        rhs = sum(
            (-1) ** s
            * binomial(r, s)
            * pochhammer(b, s, "falling")
            * pochhammer(c, s, "rising")
            * pochhammer(d + r - 1, r - s, "falling")
            * pochhammer(e - s, r - s, "falling")
            for s in range(r + 1)
        )
        assert lhs == rhs, (r, b, c, d, e)
        checked += 1

    print("criterion 8: PASS - ceiling identities, addition formula, 3F2 identity")


def test_09_cooley_tukey_reconstruction():
    for n in (2, 4, 8, 16, 32):
        fac = cooley_tukey(n)
        assert fac.max_error() < 1e-10, n
        for f in fac.factors:
            assert f.nnz() == 2 * n, n
    print("criterion 9: PASS - factor products reconstruct F_n, stages 2n-sparse")


def test_10_jaynes_cummings_survival():
    cfg = JCConfig(gamma=1.0, fock_cutoff=32)
    hd = jc_hamiltonian(cfg).to_numpy()
    times = [0.17 * k for k in range(1, 21)]
    for t in times:
        u = jc_evolution(cfg, t).to_numpy()
        ue = expm(-1j * hd * t)
        for n_ph in range(0, 9):
            f = cfg.fock_cutoff + 1 - n_ph  # fock index for n_ph photons
            got = abs(u[f - 1, f - 1]) ** 2
            want = math.cos(cfg.gamma * t * math.sqrt(n_ph + 1)) ** 2
            assert abs(got - want) < 1e-9
            assert abs(got - abs(ue[f - 1, f - 1]) ** 2) < 1e-9

    n = cfg.order
    below = [i for i in range(n) if i != 0]  # drop the truncation-broken top
    for t in (0.5, 1.9):
        prod = jc_evolution(cfg, t).to_numpy() @ jc_evolution(cfg, -t).to_numpy()
        assert np.max(np.abs(prod[np.ix_(below, below)] - np.eye(n - 1))) < 1e-10

    print("criterion 10: PASS - survival matches the exponential oracle")
