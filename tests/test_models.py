import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

import kronx.models
from kronx.exactnum import DomainError, SqrtRational
from kronx.hubbard import ResourceError, XSum, bracket, identity, x_op, xsum_mul
from kronx.kron import kron
from kronx.models import (
    ConvergenceError,
    HubbardParams,
    JCConfig,
    NLevelHamiltonian,
    SpinChainParams,
    diagonalize,
    eigenvalues,
    givens_unitary,
    heisenberg_h,
    hubbard_h,
    hubbard_site_ops,
    jc_evolution,
    jc_hamiltonian,
    jc_lowering,
    rotate_step,
    total_sz,
    two_cavity_evolution,
)
from kronx.serialize import matrix_to_json
from kronx.su2 import pauli

from _oracles import (
    as_listed,
    dense_hubbard_jw,
    free_fermion_levels,
    heisenberg_by_site_embed,
    hubbard_by_parity_rule,
    site_embed,
    site_sum_by_parity_rule,
)


def random_hermitian(n, rng, real=False):
    a = rng.normal(size=(n, n))
    if not real:
        a = a + 1j * rng.normal(size=(n, n))
    a = (a + a.conj().T) / 2
    eps = tuple(a[i, i].real for i in range(n))
    v = {(i + 1, j + 1): a[i, j] for i in range(n) for j in range(i + 1, n)}
    return NLevelHamiltonian(eps, v)


class TestNLevelHamiltonian:
    def test_lower_triangle_key_is_flipped_and_conjugated(self):
        h = NLevelHamiltonian((0.0, 1.0), {(2, 1): 1 + 2j})
        assert h.v == {(1, 2): 1 - 2j}
        assert h.coupling(1, 2) == 1 - 2j
        assert h.coupling(2, 1) == 1 + 2j

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(ValueError):
            NLevelHamiltonian((0.0, 0.0), {(1, 2): 1.0, (2, 1): 2.0})

    def test_consistent_duplicate_accepted(self):
        h = NLevelHamiltonian((0.0, 0.0), {(1, 2): 1j, (2, 1): -1j})
        assert h.v == {(1, 2): 1j}

    def test_bad_indices(self):
        with pytest.raises(IndexError):
            NLevelHamiltonian((0.0, 0.0), {(1, 3): 1.0})
        with pytest.raises(IndexError):
            NLevelHamiltonian((0.0, 0.0), {(1, 1): 1.0})
        with pytest.raises(ValueError):
            NLevelHamiltonian(())

    def test_to_xsum_is_hermitian(self):
        h = NLevelHamiltonian((1.0, -1.0, 0.5), {(1, 3): 2j, (2, 3): 1.0})
        x = h.to_xsum()
        a = x.to_numpy()
        assert np.allclose(a, a.conj().T)
        assert a[0, 2] == 2j and a[2, 0] == -2j

    def test_from_xsum_round_trip(self):
        h = NLevelHamiltonian((1.0, -1.0), {(1, 2): 0.5 - 0.25j})
        assert NLevelHamiltonian.from_xsum(h.to_xsum()) == h

    def test_from_xsum_rejects_non_hermitian(self):
        # a lone entry in either triangle, a non-real diagonal
        for x in (x_op(2, 1, 2), x_op(2, 2, 1), XSum(2, {(1, 1): 1j}),
                  XSum(3, {(1, 1): 1, (3, 1): 5})):
            with pytest.raises(DomainError):
                NLevelHamiltonian.from_xsum(x)


class TestGivensUnitary:
    def test_zero_angle_is_identity(self):
        assert givens_unitary(4, 2, 4, 0.0, 0.7) == identity(4)

    def test_block_entries(self):
        u = givens_unitary(3, 1, 3, math.pi / 6, math.pi / 2)
        a = u.to_numpy()
        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
        assert abs(a[0, 0] - c) < 1e-15
        assert abs(a[0, 2] - s * 1j) < 1e-15
        assert abs(a[2, 0] + s * (-1j)) < 1e-15
        assert a[1, 1] == 1

    def test_unitary(self):
        u = givens_unitary(5, 2, 3, 0.9, -1.2).to_numpy()
        assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-14)

    def test_plane_validation(self):
        for k, m in ((2, 2), (3, 1), (0, 2), (1, 5)):
            with pytest.raises(IndexError):
                givens_unitary(4, k, m, 0.1, 0.0)


class TestRotateStep:
    def test_absent_coupling_is_a_no_op(self):
        h = NLevelHamiltonian((1.0, 2.0, 3.0), {(1, 2): 1.0})
        h2, alpha = rotate_step(h, 1, 3)
        assert h2 == h
        assert alpha == 0

    def test_target_coupling_vanishes_exactly(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(5, rng)
        h2, _ = rotate_step(h, 2, 4)
        assert h2.coupling(2, 4) == 0

    def test_two_level_symmetric(self):
        # [[0, v], [v, 0]] splits to -+v with a quarter-circle rotation
        h2, alpha = rotate_step(
            NLevelHamiltonian((0.0, 0.0), {(1, 2): 2.5}), 1, 2
        )
        assert h2.eps == (-2.5, 2.5)
        assert abs(abs(alpha) - math.pi / 4) < 1e-15

    def test_level_k_keeps_the_nearer_eigenvalue(self):
        h2, _ = rotate_step(NLevelHamiltonian((0.0, 10.0), {(1, 2): 1.0}), 1, 2)
        assert h2.eps[0] < h2.eps[1]
        h3, _ = rotate_step(NLevelHamiltonian((10.0, 0.0), {(1, 2): 1.0}), 1, 2)
        assert h3.eps[0] > h3.eps[1]

    def test_pair_formula(self):
        h2, _ = rotate_step(NLevelHamiltonian((1.0, 3.0), {(1, 2): 2j}), 1, 2)
        shift = math.sqrt(1 + 4)
        assert abs(h2.eps[0] - (2 - shift)) < 1e-14
        assert abs(h2.eps[1] - (2 + shift)) < 1e-14

    def test_trace_and_frobenius_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            h = random_hermitian(6, rng)
            h2, _ = rotate_step(h, 1, 5)
            a, b = h.to_xsum().to_numpy(), h2.to_xsum().to_numpy()
            assert abs(np.trace(a) - np.trace(b)) < 1e-12
            assert abs(np.linalg.norm(a) - np.linalg.norm(b)) < 1e-12

    def test_matches_dense_conjugation(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            h = random_hermitian(4, rng)
            h2, alpha = rotate_step(h, 2, 3)
            g = givens_unitary(4, 2, 3, abs(alpha), cmath.phase(alpha))
            dense = g.to_numpy().conj().T @ h.to_xsum().to_numpy() @ g.to_numpy()
            assert np.allclose(dense, h2.to_xsum().to_numpy(), atol=1e-12)

    def test_angle_stays_in_branch(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            h = random_hermitian(3, rng)
            _, alpha = rotate_step(h, 1, 2)
            assert 0 < abs(alpha) <= math.pi / 4 + 1e-15


class TestDiagonalize:
    def test_four_level_chain_fixture(self):
        # one off-diagonal pair; a single rotation settles it
        j = 1.0
        h = NLevelHamiltonian(
            (-j / 4, j / 4, j / 4, -j / 4), {(2, 3): -2 * j}
        )
        ev, u = diagonalize(h)
        expected = sorted((-j / 4, 9 * j / 4, -7 * j / 4, -j / 4))
        assert np.allclose(ev, expected, atol=1e-12)
        un = u.to_numpy()
        assert np.allclose(un.conj().T @ un, np.eye(4), atol=1e-10)
        d = un.conj().T @ h.to_xsum().to_numpy() @ un
        assert np.allclose(d, np.diag(ev), atol=1e-12)

    def test_already_diagonal_returns_sorted_without_sweeping(self):
        h = NLevelHamiltonian((3.0, 1.0, 2.0))
        ev, u = diagonalize(h, max_sweeps=0)  # zero sweeps suffice
        assert ev == (1.0, 2.0, 3.0)
        un = u.to_numpy()
        assert np.allclose(un.conj().T @ np.diag((3, 1, 2)) @ un, np.diag(ev))

    def test_random_hermitian_against_numpy(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 5, 8, 12, 16):
            h = random_hermitian(n, rng)
            ev, u = diagonalize(h)
            ref = np.linalg.eigvalsh(h.to_xsum().to_numpy())
            assert np.max(np.abs(np.array(ev) - ref)) < 1e-9
            un = u.to_numpy()
            assert np.max(np.abs(un.conj().T @ un - np.eye(n))) < 1e-10
            d = un.conj().T @ h.to_xsum().to_numpy() @ un
            assert np.allclose(d, np.diag(ev), atol=1e-9)

    def test_real_symmetric_against_numpy(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(10, rng, real=True)
        ev, _ = diagonalize(h)
        assert np.allclose(ev, np.linalg.eigvalsh(h.to_xsum().to_numpy()))

    def test_eigenvalues_sorted(self):
        rng = np.random.default_rng(6)
        ev, _ = diagonalize(random_hermitian(7, rng))
        assert list(ev) == sorted(ev)

    def test_convergence_error_carries_residual(self):
        h = NLevelHamiltonian((0.0, 0.0), {(1, 2): 1.0})
        with pytest.raises(ConvergenceError) as exc:
            diagonalize(h, max_sweeps=0)
        assert exc.value.residual == 1.0
        assert exc.value.sweeps == 0

    def test_negative_max_sweeps_is_refused(self):
        h = NLevelHamiltonian((0.0, 0.0), {(1, 2): 1.0})
        with pytest.raises(ValueError, match="max_sweeps"):
            diagonalize(h, max_sweeps=-1)

    def test_single_sweep_stops_after_one_pass(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(6, rng)
        ev, u = diagonalize(h, single_sweep=True)
        # emulate exactly one cyclic pass by hand
        work = h
        for k in range(1, 6):
            for m in range(k + 1, 7):
                work, _ = rotate_step(work, k, m)
        assert ev == tuple(sorted(work.eps))
        # one pass did not finish
        assert max(abs(c) for c in work.v.values()) > 1e-12
        un = u.to_numpy()
        assert np.allclose(un.conj().T @ un, np.eye(6), atol=1e-10)
        # U is the product of the pass's Givens factors, column-permuted
        work, g = h, np.eye(6)
        for k in range(1, 6):
            for m in range(k + 1, 7):
                work, alpha = rotate_step(work, k, m)
                if alpha:
                    g = g @ givens_unitary(
                        6, k, m, abs(alpha), cmath.phase(alpha)
                    ).to_numpy()
        order = sorted(range(6), key=lambda i: work.eps[i])
        assert np.max(np.abs(g[:, order] - un)) < 1e-12

    def test_nothing_is_built_per_rotation(self, monkeypatch):
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(XSum, "__init__", counted("init", XSum.__init__))
        monkeypatch.setattr(XSum, "_of_pairs", classmethod(
            counted("of_pairs", XSum._of_pairs.__func__)))
        for name in ("xsum_mul", "givens_unitary"):
            monkeypatch.setattr(kronx.models, name, counted(
                name, getattr(kronx.models, name)))
        rng = np.random.default_rng(9)
        counts = []
        for n in (4, 16):
            h = random_hermitian(n, rng)
            calls.clear()
            ev, _ = diagonalize(h)
            assert np.allclose(ev, np.linalg.eigvalsh(h.to_xsum().to_numpy()))
            counts.append(dict(calls))
        assert counts[0] == counts[1]


class TestEigenvalueKernel:
    def test_eigenvalues_match_diagonalize(self):
        # LAPACK and the paper's sweeps sum in different orders: 1e-10
        rng = np.random.default_rng(17)
        for n in range(1, 17):
            h = random_hermitian(n, rng)
            ev = eigenvalues(h.to_xsum())
            assert np.abs(ev - diagonalize(h)[0]).max() < 1e-10

    def test_complex_terms_keep_the_complex_route(self):
        cplx = XSum(2, {(1, 2): 1j, (2, 1): -1j})
        assert kronx.models._hermitian_array(cplx).dtype == np.complex128
        assert np.allclose(eigenvalues(cplx), [-1, 1], atol=1e-15)

    def test_real_route_allocates_no_complex_array(self):
        x = heisenberg_h(SpinChainParams(10, 1, 1, 1))
        n = x.order
        tracemalloc.start()
        try:
            ev = eigenvalues(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ev) == n == 1024
        # one float64 n x n array is 8 n^2 bytes; a complex one would be 16
        assert 8 * n * n <= peak < 12 * n * n

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceError, match="LAPACK") as exc:
            eigenvalues(XSum(2, {(1, 2): 1, (2, 1): 1}))
        assert exc.value.residual is None and exc.value.sweeps is None


def _hermitian_cases():
    for sites in range(2, 9):
        for couplings in ((1, 1, Fraction(3, 2)),
                          (Fraction(7, 10), Fraction(-2, 5), Fraction(11, 10))):
            for periodic in (False, True):
                yield heisenberg_h(SpinChainParams(sites, *couplings), periodic)
    for sites in range(1, 5):
        p = HubbardParams.from_physical(
            sites, Fraction(3, 10), 0, 4,
            {(i, i + 1): 1 for i in range(1, sites)})
        yield hubbard_h(p)


class TestHermitianArray:
    def test_equals_the_from_xsum_route(self):
        # tobytes also tells 0.0 from -0.0; every case is real, so the work
        # array is the route's real part and the route has no imaginary part
        for x in _hermitian_cases():
            route = NLevelHamiltonian.from_xsum(x).to_xsum().to_numpy()
            work = kronx.models._hermitian_array(x)
            assert work.dtype == np.float64 and not route.imag.any()
            assert work.tobytes() == route.real.tobytes()

    def test_mixed_kinds_convert_entry_by_entry(self):
        r2 = SqrtRational(1, Fraction(2))
        x = XSum(3, {(1, 1): 2, (2, 2): Fraction(-1, 3), (3, 3): r2,
                     (1, 2): Fraction(1, 7), (2, 1): Fraction(1, 7),
                     (1, 3): r2, (3, 1): r2,
                     (2, 3): 0.5 - 0.25j, (3, 2): 0.5 + 0.25j})
        expect = np.zeros((3, 3), dtype=complex)
        # the per-kind conversion: sign * sqrt(radicand) for a surd,
        # float(q) for a rational, the value itself for a complex
        for (i, j), c in x.items():
            if isinstance(c, SqrtRational):
                c = c.sign * math.sqrt(c.radicand)
            elif isinstance(c, (int, Fraction)):
                c = float(c)
            expect[i - 1, j - 1] = c
        assert x.to_numpy().tobytes() == expect.tobytes()
        # the work array rebuilds the lower triangle as conj(upper), which
        # turns the zero imaginary parts there into -0.0
        work = kronx.models._hermitian_array(x)
        route = NLevelHamiltonian.from_xsum(x).to_xsum().to_numpy()
        assert np.array_equal(work, expect)
        assert work.tobytes() == route.tobytes()


class TestSiteEmbed:
    def test_first_slot(self):
        assert site_embed(pauli("z"), 1, 2) == kron(pauli("z"), identity(2))

    def test_last_slot(self):
        assert site_embed(pauli("x"), 3, 3) == kron(
            identity(4), pauli("x")
        )

    def test_order(self):
        assert site_embed(pauli("y"), 2, 4).order == 16

    def test_slot_validation(self):
        with pytest.raises(IndexError):
            site_embed(pauli("z"), 0, 2)
        with pytest.raises(IndexError):
            site_embed(pauli("z"), 3, 2)


class TestHeisenberg:
    def test_two_site_xxx_periodic_fixture(self):
        # both bond orientations hit the same pair, doubling the bond
        h = heisenberg_h(SpinChainParams(2, 1, 1, 1), periodic=True)
        assert h == XSum(4, {
            (1, 1): -1, (2, 2): 1, (3, 3): 1, (4, 4): -1,
            (2, 3): -2, (3, 2): -2,
        })

    def test_two_site_xxx_spectrum(self):
        h = heisenberg_h(SpinChainParams(2, 1, 1, 1), periodic=True)
        ev = sorted(np.linalg.eigvalsh(h.to_numpy()))
        assert np.allclose(ev, [-1, -1, -1, 3], atol=1e-12)

    def test_open_chain_counts_each_bond_once(self):
        closed = heisenberg_h(SpinChainParams(2, 1, 1, 1), periodic=True)
        open_ = heisenberg_h(SpinChainParams(2, 1, 1, 1), periodic=False)
        assert closed == open_.scale(2)

    def test_hermitian(self):
        h = heisenberg_h(SpinChainParams(3, 1.0, 0.5, -0.3), periodic=True)
        a = h.to_numpy()
        assert np.allclose(a, a.conj().T)

    def test_commutes_with_total_sz_exactly(self):
        for n, periodic in ((2, True), (3, True), (3, False)):
            h = heisenberg_h(SpinChainParams(n, 1, 1, 2), periodic)
            assert bracket(h, total_sz(n)) == XSum(2**n, {})

    def test_against_dense_kron_oracle(self):
        params = SpinChainParams(3, 0.7, -0.4, 1.1)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0]).astype(complex)
        eye = np.eye(2, dtype=complex)
        def embed(m, j):
            out = np.array([[1.0 + 0j]])
            for slot in range(1, 4):
                out = np.kron(out, m if slot == j else eye)
            return out
        dense = np.zeros((8, 8), dtype=complex)
        for jc, m in ((0.7, sx), (-0.4, sy), (1.1, sz)):
            for a, b in ((1, 2), (2, 3), (3, 1)):
                dense -= 0.5 * jc * embed(m, a) @ embed(m, b)
        built = heisenberg_h(params, periodic=True).to_numpy()
        assert np.allclose(built, dense, atol=1e-14)

    def test_site_floor(self):
        with pytest.raises(ValueError):
            SpinChainParams(1, 1, 1, 1)


COUPLINGS = {
    "xxx": (1, 1, 1),
    "xxz": (Fraction(1), Fraction(1), Fraction(3, 2)),
    "jy0": (1, 0, 1),
    "xyz": (Fraction(7, 10), Fraction(-2, 5), Fraction(11, 10)),
    "float": (0.7, -0.4, 1.1),
}


@pytest.mark.parametrize("periodic", (False, True), ids=("open", "ring"))
@pytest.mark.parametrize("couplings", COUPLINGS.values(), ids=COUPLINGS)
@pytest.mark.parametrize("sites", range(2, 9))
def test_heisenberg_equals_site_embed_route(sites, couplings, periodic):
    params = SpinChainParams(sites, *couplings)
    built = heisenberg_h(params, periodic)
    route = heisenberg_by_site_embed(params, periodic)
    # repr also tells 0.0 from -0.0, which the JSON bytes would show
    assert [(k, type(c), repr(c)) for k, c in built.items()] == [
        (k, type(c), repr(c)) for k, c in route.items()
    ]
    assert matrix_to_json(built) == matrix_to_json(route)


@pytest.mark.parametrize("periodic", (False, True), ids=("open", "ring"))
@pytest.mark.parametrize("sites", range(2, 13))
def test_heisenberg_is_exact_for_rational_couplings(sites, periodic):
    # Jx != Jy, both nonzero: both ladder parts of the xy bond are built
    params = SpinChainParams(sites, Fraction(7, 10), Fraction(-2, 5),
                             Fraction(11, 10))
    assert heisenberg_h(params, periodic).is_exact()


def test_total_sz_equals_site_embed_sum():
    for n in (1, 2, 5):
        route = XSum(2**n, {})
        for j in range(1, n + 1):
            route = route + site_embed(pauli("z"), j, n)
        assert total_sz(n) == route


class TestHubbardSiteOps:
    def test_creation_fixtures(self):
        ops = hubbard_site_ops()
        assert ops["cdag_up"] == x_op(4, 2, 1) + x_op(4, 4, 3)
        assert ops["cdag_dn"] == x_op(4, 3, 1) - x_op(4, 4, 2)
        assert ops["c_up"] == ops["cdag_up"].dagger()
        assert ops["c_dn"] == ops["cdag_dn"].dagger()

    def test_same_spin_anticommutator_is_identity(self):
        ops = hubbard_site_ops()
        for spin in ("up", "dn"):
            c, cd = ops[f"c_{spin}"], ops[f"cdag_{spin}"]
            assert xsum_mul(c, cd) + xsum_mul(cd, c) == identity(4)

    def test_cross_spin_anticommutators_vanish(self):
        ops = hubbard_site_ops()
        zero = XSum(4, {})
        up, dnd = ops["c_up"], ops["cdag_dn"]
        assert xsum_mul(up, dnd) + xsum_mul(dnd, up) == zero
        dn = ops["c_dn"]
        assert xsum_mul(up, dn) + xsum_mul(dn, up) == zero

    def test_double_occupancy_is_annihilated_by_creation(self):
        ops = hubbard_site_ops()
        doubly = (0, 0, 0, 1)
        assert not any(ops["cdag_dn"].apply(doubly))
        assert not any(ops["cdag_up"].apply(doubly))

    def test_number_operators(self):
        ops = hubbard_site_ops()
        n_up = xsum_mul(ops["cdag_up"], ops["c_up"])
        assert n_up == x_op(4, 2, 2) + x_op(4, 4, 4)
        n_dn = xsum_mul(ops["cdag_dn"], ops["c_dn"])
        assert n_dn == x_op(4, 3, 3) + x_op(4, 4, 4)


def kernel_mode_ops(sites):
    """Every c_{i s} and c+_{i s} as one product term of the models' digit
    kernel, modes ordered 1 up, 1 down, 2 up, ...: the Jordan-Wigner string
    P_1 ... P_{i-1} of site parities, then the site op at i."""
    ops = hubbard_site_ops()
    parity = XSum(4, {(1, 1): 1, (2, 2): -1, (3, 3): -1, (4, 4): 1})
    c, cdag = [], []
    for i in range(1, sites + 1):
        string = tuple((k, parity) for k in range(1, i))
        for spin in ("up", "dn"):
            for out, name in ((c, f"c_{spin}"), (cdag, f"cdag_{spin}")):
                out.append(kronx.models._site_sum(
                    sites, 4, [(1, (*string, (i, ops[name])))]))
    return c, cdag


class TestFermionKernel:
    def test_canonical_anticommutation_relations_exactly(self):
        c, cdag = kernel_mode_ops(3)
        one, zero = identity(64), XSum(64, {})
        for a in range(6):
            assert cdag[a] == c[a].dagger()
            for b in range(6):
                expect = one if a == b else zero
                assert bracket(c[a], cdag[b], "anticommutator") == expect
                assert bracket(c[a], c[b], "anticommutator") == zero

    def test_hubbard_h_is_the_mode_operator_form(self):
        # H0 + H1 rebuilt from the anticommuting mode operators alone
        c, cdag = kernel_mode_ops(3)
        hops = {(1, 2): Fraction(1), (2, 3): Fraction(1), (1, 3): Fraction(1)}
        p = HubbardParams.from_physical(3, Fraction(3, 10), 0, 4, hops)
        num = [xsum_mul(cd, cc) for cd, cc in zip(cdag, c)]
        want = XSum(64, {})
        for i in range(3):
            up, dn = num[2 * i], num[2 * i + 1]
            want = want + (up + dn).scale(Fraction(3, 10))
            want = want + xsum_mul(up, dn).scale(4)
        for (i, j), t in hops.items():
            for spin in (0, 1):
                k, l = 2 * (i - 1) + spin, 2 * (j - 1) + spin
                hop = xsum_mul(cdag[k], c[l]) + xsum_mul(cdag[l], c[k])
                want = want + hop.scale(t)
        assert hubbard_h(p) == want

    def test_non_monomial_local_op_is_refused(self):
        with pytest.raises(ValueError):
            kronx.models._site_sum(
                2, 2, [(1, ((1, pauli("x") + pauli("z")),))])


@pytest.mark.parametrize("factors", (
    ((1, pauli("z")), (1, pauli("z"))),
    ((1, pauli("z")), (2, pauli("x")), (1, pauli("z"))),
    ((0, pauli("z")),),
    ((3, pauli("z")),),
    ((1, x_op(4, 3, 1)),),
), ids=("repeat", "repeat-apart", "site-0", "site-n+1", "order-4"))
def test_site_sum_refuses_malformed_terms(factors):
    with pytest.raises(ValueError):
        kronx.models._site_sum(2, 2, [(1, factors)])


@pytest.mark.parametrize("coef", (3, Fraction(-2, 7), 0.5),
                         ids=("int", "fraction", "float"))
def test_site_sum_term_without_factors_is_coef_times_identity(coef):
    ident = ((1, identity(2)),)
    other = (Fraction(1, 3), ((1, pauli("z")), (2, pauli("x"))))
    assert as_listed(kronx.models._site_sum(2, 2, [(coef, ())])) == as_listed(
        kronx.models._site_sum(2, 2, [(coef, ident)]))
    for terms in ([other, (coef, ())], [(coef, ()), other, (coef, ())]):
        want = [(c, ident if not f else f) for c, f in terms]
        assert as_listed(kronx.models._site_sum(2, 2, terms)) == as_listed(
            kronx.models._site_sum(2, 2, want))


HUBBARD_KINDS = {
    "int": (1, 0, 4, -1),
    "fraction": (Fraction(3, 10), Fraction(1, 7), Fraction(4), Fraction(-1, 2)),
    "float": (0.3, 0.7, 4.0, 1.0),
}
HUBBARD_SHAPES = ([(n, "open") for n in range(1, 6)]
                  + [(n, "ring") for n in range(3, 6)] + [(4, "all")])


@pytest.mark.parametrize("kind", HUBBARD_KINDS.values(), ids=HUBBARD_KINDS)
@pytest.mark.parametrize("sites, shape", HUBBARD_SHAPES,
                         ids=[f"{shape}{n}" for n, shape in HUBBARD_SHAPES])
def test_hubbard_strings_equal_the_parity_rule(sites, shape, kind):
    eps, mu, u, t = kind
    closing = (1, sites) if shape == "ring" else None
    hops = {(i, j): t
            for i, j in itertools.combinations(range(1, sites + 1), 2)
            if shape == "all" or j == i + 1 or (i, j) == closing}
    p = HubbardParams.from_physical(sites, eps, mu, u, hops)
    assert as_listed(hubbard_h(p)) == as_listed(hubbard_by_parity_rule(p))


@pytest.mark.parametrize("periodic", (False, True), ids=("open", "ring"))
@pytest.mark.parametrize("kind", ("xxx", "xyz", "float"))
@pytest.mark.parametrize("sites", range(2, 9))
def test_heisenberg_equals_the_parity_rule_kernel(sites, kind, periodic,
                                                 monkeypatch):
    params = SpinChainParams(sites, *COUPLINGS[kind])
    built = heisenberg_h(params, periodic)
    monkeypatch.setattr(kronx.models, "_site_sum", site_sum_by_parity_rule)
    assert as_listed(built) == as_listed(heisenberg_h(params, periodic))


OPEN3 = {(1, 2): 1.0, (2, 3): 1.0}
RING3 = {(1, 2): 1.0, (2, 3): 1.0, (1, 3): 1.0}
RING4 = {(1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0, (1, 4): 1.0}


class TestHubbardJordanWigner:
    @pytest.mark.parametrize(
        "sites, hops", ((3, OPEN3), (3, RING3), (4, RING4)),
        ids=("open3", "ring3", "ring4"))
    def test_spectrum_matches_dense_jordan_wigner_oracle(self, sites, hops):
        p = HubbardParams.from_physical(sites, 0.3, 0.0, 4.0, hops)
        got = np.linalg.eigvalsh(hubbard_h(p).to_numpy())
        want = np.linalg.eigvalsh(dense_hubbard_jw(sites, 0.3, 4.0, hops))
        assert np.abs(got - want).max() < 1e-12
        if 4**sites <= 64:  # the paper's sweeps, beside LAPACK
            jacobi = diagonalize(NLevelHamiltonian.from_xsum(hubbard_h(p)))[0]
            assert np.abs(np.array(jacobi) - want).max() < 1e-12

    def test_half_filled_dimer_closed_form(self):
        eps, u, t = 0.3, 4.0, 1.0
        h = hubbard_h(HubbardParams.from_physical(2, eps, 0.0, u, {(1, 2): t}))
        electrons = (0, 1, 1, 2)  # per level of (0, +, -, 2)
        half = [4 * (a - 1) + b for a in range(1, 5) for b in range(1, 5)
                if electrons[a - 1] + electrons[b - 1] == 2]
        rows = [k - 1 for k in half]
        block = h.to_numpy()[np.ix_(rows, rows)]
        root = math.sqrt(u * u / 4 + 4 * t * t)
        # triplet, the doublon-odd singlet, and U/2 -+ sqrt(U^2/4 + 4 t^2)
        want = sorted(2 * eps + e
                      for e in (0, 0, 0, u, u / 2 - root, u / 2 + root))
        assert np.allclose(np.linalg.eigvalsh(block), want, atol=1e-12)


class TestHubbardH:
    def test_single_site_spectrum(self):
        p = HubbardParams.from_physical(1, 1.0, 0.5, 4.0)
        ev = sorted(np.linalg.eigvalsh(hubbard_h(p).to_numpy()))
        assert np.allclose(ev, [0.0, 0.5, 0.5, 5.0], atol=1e-14)

    def test_from_physical(self):
        p = HubbardParams.from_physical(2, 2.0, 0.5, 3.0, {(1, 2): -1.0})
        assert p.e0 == 0.0 and p.e1 == 1.5 and p.e2 == 6.0
        assert p.t == {(1, 2): -1.0}

    def test_hopping_canonicalized_symmetric(self):
        p = HubbardParams(2, 0, 1, 2, {(2, 1): 0.5})
        assert p.t == {(1, 2): 0.5}
        with pytest.raises(ValueError):
            HubbardParams(2, 0, 1, 2, {(1, 2): 1.0, (2, 1): 2.0})
        with pytest.raises(IndexError):
            HubbardParams(2, 0, 1, 2, {(1, 3): 1.0})

    def test_two_site_hermitian(self):
        p = HubbardParams.from_physical(2, 1.0, 0.0, 4.0, {(1, 2): 1.0})
        h = hubbard_h(p)
        assert h.order == 16
        a = h.to_numpy()
        assert np.allclose(a, a.conj().T)

    def test_particle_number_conserved_exactly(self):
        p = HubbardParams(2, 0, 1, 6, {(1, 2): 1})
        h = hubbard_h(p)
        n_site = x_op(4, 2, 2) + x_op(4, 3, 3) + x_op(4, 4, 4).scale(2)
        n_tot = site_embed(n_site, 1, 2) + site_embed(n_site, 2, 2)
        assert bracket(h, n_tot) == XSum(16, {})

    def test_order_cap_alone_limits_sites(self, monkeypatch):
        assert hubbard_h(HubbardParams(5, 0, 1, 2)).order == 4**5

        def no_digits(*args):
            raise AssertionError("a digit was computed past the order cap")

        monkeypatch.setattr(kronx.models, "_digit_table", no_digits)
        with pytest.raises(ResourceError):
            hubbard_h(HubbardParams(7, 0, 1, 2, {(1, 2): 1}))

    def test_two_site_spectrum_landmarks(self):
        p = HubbardParams(2, 0.0, 0.0, 8.0, {(1, 2): 1.0})
        ev = np.linalg.eigvalsh(hubbard_h(p).to_numpy())
        # global ground state is the one-particle bonding orbital at -t
        assert abs(ev[0] + 1.0) < 1e-12
        # the dimer singlet energies U/2 -+ sqrt(U^2/4 + 4 t^2) both
        # appear in the half-filled sector
        for landmark in (4.0 - math.sqrt(20.0), 4.0 + math.sqrt(20.0)):
            assert np.min(np.abs(ev - landmark)) < 1e-12


class TestFreeFermionOracle:
    """Chains whose spectrum is a sum of independent mode energies.

    Open chains only: on a ring, Jordan-Wigner fermions hop across the
    closing bond with a sign set by the fermion parity, so each parity
    sector has its own boundary condition and its own modes.
    """

    @pytest.mark.parametrize("sites", range(2, 11))
    @pytest.mark.parametrize(
        "j", (1, Fraction(3, 4), Fraction(-1, 2)), ids=("1", "0.75", "-0.5"))
    def test_open_xx_chain(self, sites, j):
        # -J/2 (sx sx + sy sy) = -J (s+ s- + s- s+): hopping -J, so the
        # modes are -2J cos(pi k / (L + 1)), k = 1..L
        h = heisenberg_h(SpinChainParams(sites, j, j, 0), periodic=False)
        modes = [-2 * float(j) * math.cos(math.pi * k / (sites + 1))
                 for k in range(1, sites + 1)]
        got, want = eigenvalues(h), free_fermion_levels(modes)
        assert len(got) == len(want) == 2**sites
        assert np.abs(got - want).max() < 1e-10

    @pytest.mark.parametrize("sites", range(1, 6))
    @pytest.mark.parametrize("t", (1.0, -0.6))
    def test_open_hubbard_chain_at_u_zero(self, sites, t):
        eps, mu = 0.3, 0.7
        hops = {(i, i + 1): t for i in range(1, sites)}
        h = hubbard_h(HubbardParams.from_physical(sites, eps, mu, 0.0, hops))
        orbital = [2 * t * math.cos(math.pi * k / (sites + 1)) + eps - mu
                   for k in range(1, sites + 1)]
        # each orbital once per spin
        got, want = eigenvalues(h), free_fermion_levels(2 * orbital)
        assert len(got) == len(want) == 4**sites
        assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("sites", range(1, 6))
def test_hubbard_atomic_limit(sites):
    """At t = 0 every site keeps its own levels (0, e1, e1, 2 e1 + U),
    e1 = eps - mu, and H's levels are their sums over the sites."""
    eps, mu, u = 0.3, 1.1, 4.0
    h = hubbard_h(HubbardParams.from_physical(sites, eps, mu, u))
    e1 = eps - mu
    site = (0.0, e1, e1, 2 * e1 + u)
    want = np.sort([sum(levels)
                    for levels in itertools.product(site, repeat=sites)])
    got = eigenvalues(h)
    assert len(got) == len(want)
    assert np.abs(got - want).max() < 1e-10


class TestJaynesCummings:
    def test_lowering_fixture(self):
        a = jc_lowering(JCConfig(1.0, 2))
        assert a.order == 3
        assert abs(a.to_numpy()[1, 0] - math.sqrt(2)) < 1e-15
        assert abs(a.to_numpy()[2, 1] - 1.0) < 1e-15

    def test_hamiltonian_pairs(self):
        cfg = JCConfig(gamma=2.0, fock_cutoff=3)
        h = jc_hamiltonian(cfg)
        a = h.to_numpy()
        assert np.allclose(a, a.conj().T)
        nd = cfg.fock_dim
        for f in range(2, nd + 1):
            expect = 2.0 * math.sqrt(nd + 1 - f)
            assert abs(a[f - 1, nd + f - 2] - expect) < 1e-14
        # unpaired corners: top Fock excited state and ground vacuum
        assert np.allclose(a[0, :], 0) and np.allclose(a[:, 0], 0)
        assert np.allclose(a[-1, :], 0) and np.allclose(a[:, -1], 0)

    def test_excitation_number_conserved(self):
        cfg = JCConfig(1.0, 4)
        nd = cfg.fock_dim
        photons = XSum(nd, {(f, f): nd - f for f in range(1, nd - 0)})
        excit = kron(x_op(2, 1, 1), identity(nd)) + kron(
            identity(2), photons
        )
        assert bracket(jc_hamiltonian(cfg), excit) == XSum(2 * nd, {})

    def test_non_finite_inputs_are_refused(self):
        for gamma in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="gamma"):
                JCConfig(gamma, 2)
        cfg = JCConfig(1e200, 2)
        for t, named in ((math.nan, "time"), (-math.inf, "time"),
                         (1e200, "Rabi angle")):
            with pytest.raises(DomainError, match=named):
                jc_evolution(cfg, t)

    def test_zero_time_is_identity(self):
        cfg = JCConfig(1.7, 5)
        assert jc_evolution(cfg, 0.0) == identity(cfg.order)

    def test_matches_dense_exponential(self):
        for gamma, cutoff in ((1.0, 4), (0.6, 9), (2.3, 16)):
            cfg = JCConfig(gamma, cutoff)
            hd = jc_hamiltonian(cfg).to_numpy()
            for t in (0.3, 1.0, 3.14, -2.2):
                u = jc_evolution(cfg, t).to_numpy()
                assert np.max(np.abs(u - expm(-1j * hd * t))) < 1e-9

    def test_unitary_and_reversible(self):
        cfg = JCConfig(1.1, 12)
        n = cfg.order
        for t in (0.5, 2.0, 7.7):
            u = jc_evolution(cfg, t).to_numpy()
            assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-10
            v = jc_evolution(cfg, -t).to_numpy()
            assert np.max(np.abs(u @ v - np.eye(n))) < 1e-10

    def test_group_property(self):
        cfg = JCConfig(0.9, 6)
        u = xsum_mul(jc_evolution(cfg, 0.4), jc_evolution(cfg, 1.1))
        w = jc_evolution(cfg, 1.5)
        assert np.max(np.abs(u.to_numpy() - w.to_numpy())) < 1e-12

    def test_survival_probability(self):
        # excited atom with n photons: P(t) = cos^2(gamma t sqrt(n+1))
        cfg = JCConfig(1.3, 8)
        for n_ph in (0, 1, 3, 7):
            f = cfg.fock_cutoff + 1 - n_ph
            for t in (0.25, 0.9, 2.0):
                u = jc_evolution(cfg, t).to_numpy()
                p = abs(u[f - 1, f - 1]) ** 2
                expect = math.cos(cfg.gamma * t * math.sqrt(n_ph + 1)) ** 2
                assert abs(p - expect) < 1e-12

    def test_large_cutoff_survival_against_expm(self):
        cfg = JCConfig(1.0, 32)
        hd = jc_hamiltonian(cfg).to_numpy()
        t = 1.9
        u = jc_evolution(cfg, t).to_numpy()
        assert np.max(np.abs(u - expm(-1j * hd * t))) < 1e-9

    def test_top_fock_state_is_frozen_by_truncation(self):
        cfg = JCConfig(1.0, 3)
        u = jc_evolution(cfg, 1.0).to_numpy()
        assert u[0, 0] == 1.0

    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            JCConfig(1.0, 0)


class TestTwoCavity:
    def test_kron_factorization(self):
        c1, c2 = JCConfig(1.0, 2), JCConfig(0.5, 3)
        t = 0.8
        u = two_cavity_evolution(c1, c2, t)
        expect = np.kron(
            jc_evolution(c1, t).to_numpy(), jc_evolution(c2, t).to_numpy()
        )
        assert np.allclose(u.to_numpy(), expect, atol=1e-14)

    def test_unitary(self):
        u = two_cavity_evolution(JCConfig(1.0, 2), JCConfig(2.0, 2), 1.3)
        un = u.to_numpy()
        assert np.max(np.abs(un.conj().T @ un - np.eye(u.order))) < 1e-10

    def test_joint_survival_is_a_product(self):
        c1, c2 = JCConfig(1.0, 4), JCConfig(1.7, 4)
        t = 0.6
        u = two_cavity_evolution(c1, c2, t).to_numpy()
        u1 = jc_evolution(c1, t).to_numpy()
        u2 = jc_evolution(c2, t).to_numpy()
        i1, i2 = 3, 4  # arbitrary basis states below truncation
        joint = abs(u[(i1 - 1) * c2.order + i2 - 1,
                      (i1 - 1) * c2.order + i2 - 1]) ** 2
        assert abs(joint - abs(u1[i1 - 1, i1 - 1]) ** 2
                   * abs(u2[i2 - 1, i2 - 1]) ** 2) < 1e-12
