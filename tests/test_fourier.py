import cmath

import numpy as np
import pytest

from kronx import fourier as fourier_module
from kronx.exactnum import DomainError
from kronx.fourier import (
    FourierFactorization,
    bit_reversal_perm,
    butterfly,
    cooley_tukey,
    dephase,
    fourier_matrix,
    is_hadamard,
    odd_even_perm,
    omega_diag,
)
from _oracles import allclose, bit_reversal_by_hand, dense_dft_reconstruction_error
from kronx.hubbard import ResourceError, XSum, dagger, identity, xsum_mul
from kronx.kron import kron
from kronx.perm import Permutation, perm_matrix


def test_fourier_small_fixtures():
    assert fourier_matrix(1) == XSum(1, {(1, 1): (1 + 0j)})
    f2 = fourier_matrix(2)
    want = {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): -1}
    assert allclose(f2, XSum(2, want), tol=1e-12)


def test_fourier_first_row_and_column_are_ones():
    f = fourier_matrix(7)
    for k in range(1, 8):
        assert abs(f.coeff(1, k) - 1) < 1e-12
        assert abs(f.coeff(k, 1) - 1) < 1e-12


@pytest.mark.parametrize("n", list(range(1, 17)) + [24, 32, 48, 64])
def test_fourier_unitary_up_to_n(n):
    f = fourier_matrix(n)
    assert allclose(
        xsum_mul(f, dagger(f, "adjoint")), identity(n).scale(n), tol=1e-10
    )


@pytest.mark.parametrize("n", [64, 256])
def test_fourier_entries_match_reduced_exponent(n):
    # each entry is a root w^k with k < n, however large (i-1)(j-1) is
    k = np.outer(np.arange(n), np.arange(n)) % n
    err = np.abs(fourier_matrix(n).to_numpy() - np.exp(2j * np.pi * k / n))
    assert err.max() <= 1e-14


def test_fourier_rejects_nonpositive():
    with pytest.raises(ValueError):
        fourier_matrix(0)


def test_fourier_matrix_over_cap_fails_before_building(monkeypatch):
    def refuse(n):
        raise AssertionError("built F_n past the order cap")

    monkeypatch.setenv("KRONX_MAX_DIM", "8")
    monkeypatch.setattr(fourier_module, "_dft", refuse)
    with pytest.raises(ResourceError):
        fourier_matrix(16)


def test_omega_diag_uses_double_order_root_by_default():
    om = omega_diag(2)
    assert abs(om.coeff(1, 1) - 1) < 1e-12
    assert abs(om.coeff(2, 2) - 1j) < 1e-12
    om8 = omega_diag(4, 8)
    w = cmath.exp(2j * cmath.pi / 8)
    for i in range(1, 5):
        assert abs(om8.coeff(i, i) - w ** (i - 1)) < 1e-12


@pytest.mark.parametrize("k, n", [(1, 0), (2, 0), (2, -4), (3, -1)])
def test_omega_diag_refuses_a_root_order_below_one(k, n):
    with pytest.raises(ValueError, match="n must be at least 1"):
        omega_diag(k, n)


def test_butterfly_two_point_is_sign_matrix():
    assert allclose(butterfly(2), fourier_matrix(2), tol=1e-12)


def test_butterfly_block_layout():
    b4 = butterfly(4)
    want = {
        (1, 1): 1,
        (1, 3): 1,
        (2, 2): 1,
        (2, 4): 1j,
        (3, 1): 1,
        (3, 3): -1,
        (4, 2): 1,
        (4, 4): -1j,
    }
    assert allclose(b4, XSum(4, want), tol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64])
def test_butterfly_has_two_entries_per_row(n):
    rows = {}
    for ((i, _), _c) in butterfly(n).items():
        rows[i] = rows.get(i, 0) + 1
    assert all(rows[i] == 2 for i in range(1, n + 1))


def test_butterfly_rejects_odd_order():
    with pytest.raises(DomainError):
        butterfly(3)
    with pytest.raises(DomainError):
        butterfly(1)


def test_odd_even_perm_fixtures():
    assert odd_even_perm(1).images == (1,)
    assert odd_even_perm(4).images == (1, 3, 2, 4)
    assert odd_even_perm(8).images == (1, 3, 5, 7, 2, 4, 6, 8)


@pytest.mark.parametrize("n", [4, 8])
def test_decimation_recursion(n):
    # F_n = B_n (I_2 (x) F_m) Pi^T; Pi^T acting on vectors gathers odd
    # components first, which is perm_matrix(odd_even_perm(n)) here.
    m = n // 2
    rhs = xsum_mul(
        xsum_mul(butterfly(n), kron(identity(2), fourier_matrix(m))),
        perm_matrix(odd_even_perm(n)),
    )
    assert allclose(fourier_matrix(n), rhs, tol=1e-10)


def test_bit_reversal_fixture_and_involution():
    assert bit_reversal_perm(2).images == (1, 2)
    assert bit_reversal_perm(4).images == (1, 3, 2, 4)
    assert bit_reversal_perm(8).images == (1, 5, 3, 7, 2, 6, 4, 8)
    for n in (2, 4, 8, 16, 32):
        pi = bit_reversal_perm(n)
        assert pi.compose(pi).images == Permutation.identity(n).images


def test_bit_reversal_matches_the_bit_loop():
    for t in range(13):
        assert bit_reversal_perm(2**t).images == bit_reversal_by_hand(2**t).images


def test_bit_reversal_rejects_non_power_of_two():
    with pytest.raises(DomainError):
        bit_reversal_perm(12)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_cooley_tukey_reconstructs(n):
    fac = cooley_tukey(n)
    assert isinstance(fac, FourierFactorization)
    assert fac.n == n
    assert len(fac.factors) == n.bit_length() - 1
    assert fac.max_error() < 1e-10
    # the per-entry loop is the reference for the vectorised maximum
    diff = fac.product() - fourier_matrix(n)
    assert fac.max_error() == max(
        (abs(complex(c)) for _, c in diff.items()), default=0.0)
    assert allclose(fac.product(), fourier_matrix(n), tol=1e-10)


@pytest.mark.parametrize("n", [2**t for t in range(1, 9)])
def test_max_error_matches_dense_dft_oracle(n):
    err = cooley_tukey(n).max_error()
    assert abs(err - dense_dft_reconstruction_error(n)) <= 1e-14
    assert err < 1e-13


@pytest.mark.parametrize("n", [64, 128, 256])
def test_max_error_equals_dense_permutation_product(n):
    # the column gather for P^T against the product with P^T and F_n read
    # from the XSum: bit for bit, since P^T holds one exact 1 per column
    fac = cooley_tukey(n)
    out = np.eye(n)
    for f in fac.factors:
        out = out @ f.to_numpy()
    out = out @ perm_matrix(fac.bit_reversal).to_numpy().T
    z = out - fourier_matrix(n).to_numpy()
    assert fac.max_error() == float(np.hypot(z.real, z.imag).max())


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_cooley_tukey_stage_sparsity(n):
    fac = cooley_tukey(n)
    for stage in fac.factors:
        assert stage.nnz() == 2 * n


def test_cooley_tukey_accumulated_permutation_is_bit_reversal():
    # Recursive gathering of the decimation permutations must reproduce
    # the closed-form bit reversal the factorization ships with.
    for n in (4, 8, 16):
        acc = perm_matrix(odd_even_perm(n))
        m = n // 2
        while m > 2:
            acc = xsum_mul(kron(identity(n // m), perm_matrix(odd_even_perm(m))), acc)
            m //= 2
        assert acc == dagger(perm_matrix(bit_reversal_perm(n)), "transpose")


def test_cooley_tukey_rejects_non_power_of_two():
    with pytest.raises(DomainError):
        cooley_tukey(12)
    with pytest.raises(DomainError):
        cooley_tukey(0)


def test_is_hadamard_accepts_fourier():
    for n in (1, 2, 3, 4, 6, 8, 64, 256):
        assert is_hadamard(fourier_matrix(n))


def test_is_hadamard_rejects_scaled_and_sparse():
    f = fourier_matrix(4)
    assert not is_hadamard(f.scale(0.5))
    assert not is_hadamard(identity(4))
    # every entry still has modulus 1, so only the H H^dagger test can fail
    g = f.term_map()
    g[(2, 3)] = -g[(2, 3)]
    assert not is_hadamard(XSum(4, g))


def test_is_hadamard_converts_the_terms_once(monkeypatch):
    calls = []
    triplets = XSum.triplets

    def counted(self):
        calls.append(self.order)
        return triplets(self)

    h = fourier_matrix(16)
    monkeypatch.setattr(XSum, "triplets", counted)
    assert is_hadamard(h)
    assert calls == [16]


def test_dephase_fixes_first_row_and_column():
    n = 4
    phases1 = [cmath.exp(1j * x) for x in (0.3, -1.2, 2.5, 0.9)]
    phases2 = [cmath.exp(1j * x) for x in (1.1, 0.4, -2.0, 3.0)]
    d1 = XSum(n, {(i, i): phases1[i - 1] for i in range(1, n + 1)})
    d2 = XSum(n, {(i, i): phases2[i - 1] for i in range(1, n + 1)})
    h = xsum_mul(xsum_mul(d1, fourier_matrix(n)), d2)
    dr, h0, dc = dephase(h)
    assert allclose(h0, xsum_mul(xsum_mul(dr, h), dc), tol=1e-12)
    for k in range(1, n + 1):
        assert abs(h0.coeff(1, k) - 1) < 1e-12
        assert abs(h0.coeff(k, 1) - 1) < 1e-12
    # the phase freedom cancels completely against F_n
    assert allclose(h0, fourier_matrix(n), tol=1e-10)


def test_dephase_of_fourier_is_identity_pair():
    f = fourier_matrix(5)
    dr, h0, dc = dephase(f)
    assert allclose(dr, identity(5), tol=1e-12)
    assert allclose(dc, identity(5), tol=1e-12)
    assert allclose(h0, f, tol=1e-12)


def test_dephase_rejects_non_hadamard():
    with pytest.raises(DomainError):
        dephase(identity(3))

