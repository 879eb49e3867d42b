"""Tensor products: term rule vs closed-form coefficient paths vs the dense
block-replication oracle, plus the product/trace/determinant laws."""

from __future__ import annotations

import importlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    allclose,
    as_listed,
    column_copy,
    dense_kron,
    dense_kron_many,
    dense_mul,
    det_dense,
    dict_copy,
    kron_oracle,
    random_complex_xsum,
    random_rational_xsum,
)
from kronx.exactnum import SqrtRational, scalar_mul
from kronx.hubbard import (
    _KINDS,
    ResourceError,
    XSum,
    dagger,
    from_dense,
    identity,
    to_dense,
    x_op,
    xsum_mul,
)
from kronx.kron import (
    hadamard,
    hadamard_power,
    kron,
    kron_many,
    kron_power,
    kron_vec,
)
from kronx.serialize import matrix_to_json, matrix_to_obj

# the package re-exports the function kron under the submodule's name
kron_module = importlib.import_module("kronx.kron")


def test_single_term_rule():
    assert kron(x_op(2, 1, 2), x_op(3, 2, 3)) == x_op(6, 2, 6)


def test_term_rule_matches_dense_oracle_exhaustively():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    for k in range(1, n + 1):
                        for l in range(1, n + 1):
                            got = kron(x_op(m, i, j), x_op(n, k, l))
                            assert got == kron_oracle(x_op(m, i, j), x_op(n, k, l))


def test_term_transpose_distributes():
    a, b = x_op(3, 1, 2), x_op(2, 2, 1)
    assert dagger(kron(a, b), "transpose") == kron(
        dagger(a, "transpose"), dagger(b, "transpose")
    )


def test_identity_is_preserved():
    assert kron(identity(3), identity(4)) == identity(12)


def test_kron_matches_oracle_on_random_pairs():
    rng = random.Random(42)
    for _ in range(200):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        a = random_rational_xsum(rng, m)
        b = random_rational_xsum(rng, n)
        assert kron(a, b) == kron_oracle(a, b)


def test_closed_form_path_agrees_with_sparse():
    rng = random.Random(43)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = random_rational_xsum(rng, m)
        b = random_rational_xsum(rng, n)
        assert kron(a, b, path="closed") == kron(a, b, path="sparse")
        assert kron(a, b, path="closed") == kron_oracle(a, b)


def test_kron_many_matches_iterated_oracle():
    rng = random.Random(44)
    for _ in range(50):
        orders = [rng.randint(1, 4) for _ in range(3)]
        mats = [random_rational_xsum(rng, n) for n in orders]
        got = kron_many(mats)
        want = from_dense(dense_kron_many([to_dense(m) for m in mats]))
        assert got == want
        assert kron_many(mats, path="closed") == want
    single = random_rational_xsum(rng, 3)
    assert kron_many([single]) == single
    assert kron_many((single, single)) == kron(single, single)


def test_associativity():
    rng = random.Random(45)
    for _ in range(30):
        a = random_rational_xsum(rng, rng.randint(1, 3))
        b = random_rational_xsum(rng, rng.randint(1, 3))
        c = random_rational_xsum(rng, rng.randint(1, 3))
        assert kron(kron(a, b), c) == kron(a, kron(b, c))


def test_kron_power_paths_agree():
    rng = random.Random(46)
    for n in (2, 3):
        for t in (1, 2, 3, 4):
            if n**t > 100:
                continue
            a = random_rational_xsum(rng, n)
            fold = kron_power(a, t)
            assert fold == kron_many([a] * t, path="closed")
            want = to_dense(a)
            for _ in range(t - 1):
                want = dense_kron(want, to_dense(a))
            assert fold == from_dense(want)
    a = random_rational_xsum(rng, 2)
    assert kron_power(a, 1) == a
    assert kron_power(a, 2) == kron(a, a)


def _basis(n: int, i: int) -> tuple:
    return tuple(int(k == i) for k in range(1, n + 1))


def test_basis_kron_index():
    # e_i1 (x) e_i2 = e_p with p = (i1 - 1) n2 + i2, a bijection onto 1..n1 n2
    assert kron_vec(_basis(2, 2), _basis(2, 1)) == _basis(4, 3)  # |10>
    for n1 in range(1, 9):
        for n2 in range(1, 9):
            seen = set()
            for i1 in range(1, n1 + 1):
                for i2 in range(1, n2 + 1):
                    v = kron_vec(_basis(n1, i1), _basis(n2, i2))
                    assert v == _basis(n1 * n2, (i1 - 1) * n2 + i2)
                    seen.add(v.index(1) + 1)
            assert seen == set(range(1, n1 * n2 + 1))


def test_kron_vec_matches_matrix_on_basis():
    x = (Fraction(1), Fraction(2))
    y = (Fraction(3), Fraction(4), Fraction(5))
    v = kron_vec(x, y)
    assert v == (3, 4, 5, 6, 8, 10)


def test_mixed_product_law():
    rng = random.Random(47)
    for _ in range(200):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a, c = random_rational_xsum(rng, m), random_rational_xsum(rng, m)
        b, d = random_rational_xsum(rng, n), random_rational_xsum(rng, n)
        lhs = xsum_mul(kron(a, b), kron(c, d))
        rhs = kron(xsum_mul(a, c), xsum_mul(b, d))
        assert lhs == rhs


def test_two_factor_decomposition():
    rng = random.Random(48)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        a = random_rational_xsum(rng, n)
        d = random_rational_xsum(rng, m)
        assert kron(a, d) == xsum_mul(
            kron(a, identity(m)), kron(identity(n), d)
        )


def test_trace_factorizes():
    rng = random.Random(49)
    for _ in range(80):
        a = random_rational_xsum(rng, rng.randint(1, 6))
        b = random_rational_xsum(rng, rng.randint(1, 6))
        assert kron(a, b).trace() == a.trace() * b.trace()


def test_det_power_law_same_order_factors():
    rng = random.Random(50)
    for n in (1, 2, 3, 4, 5):
        a = random_rational_xsum(rng, n, density=0.8)
        b = random_rational_xsum(rng, n, density=0.8)
        got = det_dense(to_dense(kron(a, b)))
        da, db = det_dense(to_dense(a)), det_dense(to_dense(b))
        assert got == da**n * db**n


def test_bilinearity_and_scalar_compatibility():
    rng = random.Random(51)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a, a2 = random_rational_xsum(rng, n), random_rational_xsum(rng, n)
        b = random_rational_xsum(rng, m)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert kron(a + a2, b) == kron(a, b) + kron(a2, b)
        assert kron(a, b.scale(c)) == kron(a, b).scale(c)
        assert kron(a.scale(c), b) == kron(a, b).scale(c)


def test_adjoint_distributes_over_complex_kron():
    rng = random.Random(52)
    for _ in range(40):
        a = random_complex_xsum(rng, rng.randint(1, 4))
        b = random_complex_xsum(rng, rng.randint(1, 4))
        assert allclose(
            dagger(kron(a, b)), kron(dagger(a), dagger(b)), tol=1e-12
        )


def test_hadamard_fixture():
    h = hadamard()
    c = SqrtRational.sqrt(Fraction(1, 2))
    assert h.coeff(1, 1) == c and h.coeff(1, 2) == c
    assert h.coeff(2, 1) == c and h.coeff(2, 2) == -c
    assert hadamard_power(1) == h


def test_hadamard_power_is_kron_power_of_h():
    for t in (1, 2, 3, 4):
        assert hadamard_power(t) == kron_power(hadamard(), t)


def test_hadamard_sign_forms_identical():
    for t in range(1, 7):
        assert hadamard_power(t, "ceiling") == hadamard_power(t, "binary")


def test_hadamard_printed_four_by_four():
    # H_4 = 1/2 [[1,1,1,1],[1,-1,1,-1],[1,1,-1,-1],[1,-1,-1,1]]
    signs = [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
    ]
    h4 = hadamard_power(2)
    for i in range(4):
        for j in range(4):
            assert h4.coeff(i + 1, j + 1) == SqrtRational(
                signs[i][j], Fraction(1, 4)
            )


def test_hadamard_row_of_equal_superposition():
    h4 = hadamard_power(2)
    e1 = (1, 0, 0, 0)
    y = h4.apply(e1)
    assert all(c == SqrtRational(1, Fraction(1, 4)) for c in y)


def test_hadamard_orthogonality_exact():
    for t in (1, 2, 3):
        h = hadamard_power(t)
        assert xsum_mul(h, dagger(h, "adjoint")) == identity(2**t)


def test_eigen_pair_check_diagonal_and_pauli():
    # For A x = alpha x and B y = beta y: (A (x) B)(x (x) y) =
    # alpha beta (x (x) y) and (A (x) I + I (x) B)(x (x) y) =
    # (alpha + beta)(x (x) y), exactly.
    sz = XSum(2, {(1, 1): 1, (2, 2): -1})
    sx = XSum(2, {(1, 2): 1, (2, 1): 1})
    h = Fraction(1, 2)
    eig_sz = [(1, (1, 0)), (-1, (0, 1))]
    eig_sx = [(1, (h, h)), (-1, (h, -h))]
    for a, b, eigs_a, eigs_b in ((sz, sz, eig_sz, eig_sz),
                                 (sz, sx, eig_sz, eig_sx),
                                 (sx, sx, eig_sx, eig_sx)):
        prod = kron(a, b)
        ksum = kron(a, identity(2)) + kron(identity(2), b)
        for alpha, x in eigs_a:
            for beta, y in eigs_b:
                v = kron_vec(x, y)
                assert prod.apply(v) == tuple(alpha * beta * c for c in v)
                assert ksum.apply(v) == tuple((alpha + beta) * c for c in v)
    # a wrong eigenvalue breaks both laws
    v = kron_vec((1, 0), (1, 0))
    assert kron(sz, sz).apply(v) != tuple(2 * c for c in v)
    assert (kron(sz, identity(2)) + kron(identity(2), sz)).apply(v) != tuple(
        3 * c for c in v
    )


def test_kron_determinant_of_x_ops_vanishes():
    m = to_dense(kron(x_op(2, 1, 2), x_op(2, 2, 1)))
    assert det_dense(m) == 0


# --- the sparse kernel against the term-by-term product ----------------------

_INTS = st.integers(-9, 9).filter(bool)
_FRACTIONS = st.fractions(-12, 12, max_denominator=12).filter(bool)


def _surds(radicands):
    return st.builds(
        lambda q, r: SqrtRational(1 if q > 0 else -1, q * q * r),
        _FRACTIONS,
        st.sampled_from(radicands),
    )


_COEFFICIENTS = {
    "int": _INTS,
    "fraction": _FRACTIONS,
    "surd": _surds((2,)),
    "surds": _surds((2, 3, 5)),
    "rational+surd": st.one_of(_INTS, _FRACTIONS, _surds((2, 3))),
    "float": st.floats(-1e3, 1e3).filter(bool),
    "complex": st.complex_numbers(
        max_magnitude=1e3, allow_nan=False, allow_infinity=False
    ).filter(bool),
}
_COEFFICIENTS["all"] = st.one_of(*_COEFFICIENTS.values())


@st.composite
def _operand(draw, kind):
    n = draw(st.integers(1, 4))
    cells = st.tuples(st.integers(1, n), st.integers(1, n))
    keys = draw(st.lists(cells, max_size=n * n, unique=True))
    return XSum(n, {key: draw(_COEFFICIENTS[kind]) for key in keys})


def _per_term_kron(a, b):
    n = b.order
    return XSum(a.order * n, {
        (n * (i - 1) + k, n * (j - 1) + l): scalar_mul(ca, cb)
        for (i, j), ca in a.term_map().items()
        for (k, l), cb in b.term_map().items()
    })


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_COEFFICIENTS)),
    st.sampled_from(sorted(_COEFFICIENTS)),
    st.data(),
)
def test_sparse_kernel_matches_per_term_reference(kind_a, kind_b, data):
    a = data.draw(_operand(kind_a))
    b = data.draw(_operand(kind_b))
    want = _per_term_kron(a, b)
    got = kron(a, b)
    assert got == want == kron(a, b, path="closed")
    # same coefficient types, same radicands, same term order
    assert as_listed(got) == as_listed(want)
    assert matrix_to_json(got) == matrix_to_json(want)


def test_float_products_that_underflow_are_pruned():
    a = XSum(1, {(1, 1): 1e-200})
    b = XSum(2, {(1, 1): 1e-200, (2, 2): 2.0})
    got = kron(a, b)
    assert got.nnz() == 1 and got.coeff(2, 2) == 2e-200
    assert got == _per_term_kron(a, b) == kron(a, b, path="closed")


def test_kernel_surds_compare_and_hash_like_validated_ones():
    a = XSum(2, {(1, 1): SqrtRational(1, Fraction(2)), (2, 1): Fraction(-3, 2)})
    b = XSum(1, {(1, 1): SqrtRational(-1, Fraction(8, 3))})
    got = kron(a, b)
    for c in got.term_map().values():
        validated = SqrtRational(c.sign, c.radicand)
        assert c == validated and hash(c) == hash(validated)
    # sqrt(2) * -sqrt(8/3) = -4/sqrt(3); a perfect square hashes as its root
    assert got.coeff(1, 1) == SqrtRational(-1, Fraction(16, 3))
    square = SqrtRational._trusted(-1, Fraction(9, 4))
    assert square == Fraction(-3, 2) and hash(square) == hash(Fraction(-3, 2))


# --- the order cap is checked before any product is formed -------------------


class _NoMul:
    """A nonzero coefficient whose product fails the test."""

    def __mul__(self, other):
        raise AssertionError("multiplied past the order cap")

    __rmul__ = __mul__


def _refuse(*args):
    raise AssertionError("multiplied past the order cap")


@pytest.fixture
def small_cap(monkeypatch):
    monkeypatch.setenv("KRONX_MAX_DIM", "8")
    monkeypatch.setattr(kron_module, "scalar_mul", _refuse)


@pytest.mark.parametrize("path", ["sparse", "closed"])
def test_kron_over_cap_fails_before_multiplying(small_cap, path):
    a = XSum(4, {(i, j): _NoMul() for i in range(1, 5) for j in range(1, 5)})
    with pytest.raises(ResourceError):
        kron(a, a, path=path)


def test_kron_many_over_cap_fails_before_multiplying(small_cap):
    f = XSum(2, {(1, 1): _NoMul(), (2, 2): _NoMul()})
    with pytest.raises(ResourceError):
        kron_many([f, f, f, f], path="closed")


def test_hadamard_power_over_cap_fails_before_building(small_cap, monkeypatch):
    monkeypatch.setattr(kron_module, "ceil_ratio", _refuse)
    with pytest.raises(ResourceError):
        hadamard_power(4)


# --- column-backed and dict-backed sums of one operator agree -----------------

# the coefficient type each exact kind of _COEFFICIENTS draws; a kind
# added to the column store's table must be drawn here too
_EXACT_KINDS = {"int": int, "fraction": Fraction, "surd": SqrtRational,
                "surds": SqrtRational}
assert set(_EXACT_KINDS.values()) == {k.scalar for k in _KINDS.values()}


def _outcome(f, *args):
    """What f returns, as a comparable value, or the type it raises."""
    try:
        out = f(*args)
    except ArithmeticError as exc:  # surds with unlike radicands do not add
        return type(exc)
    if isinstance(out, XSum):
        return out.order, as_listed(out)
    if isinstance(out, tuple) and len(out) == 3 and isinstance(out[0], np.ndarray):
        return tuple((v.dtype, v.tobytes()) for v in out)  # triplets
    if isinstance(out, np.ndarray):
        return out.dtype, out.tobytes()
    if isinstance(out, (list, tuple)):
        return [(type(c), repr(c)) for c in out]
    return type(out), repr(out)


_UNARY = {
    "coeff": lambda x: [x.coeff(i, j) for i in range(1, x.order + 1)
                        for j in range(1, x.order + 1)],
    "items": lambda x: list(x.items()),
    "values": lambda x: list(x.values()),
    "term_map": lambda x: list(x.term_map().items()),
    "nnz": lambda x: x.nnz(),
    "len": len,
    "is_exact": lambda x: x.is_exact(),
    "neg": lambda x: -x,
    "scale": lambda x: x * Fraction(-3, 7),
    "scale_surd": lambda x: SqrtRational(1, Fraction(3)) * x,
    "adjoint": lambda x: x.dagger(),
    "transpose": lambda x: x.dagger("transpose"),
    "conjugate": lambda x: x.dagger("conjugate"),
    "trace": lambda x: x.trace(),
    "apply": lambda x: x.apply(tuple(range(1, x.order + 1))),
    "to_dense": lambda x: x.to_dense(),
    "to_numpy": lambda x: x.to_numpy(),
    "str": str,
    "repr": repr,
    "matrix_to_obj": matrix_to_obj,
    "matrix_to_json": matrix_to_json,
    "triplets": lambda x: x.triplets(),
}
_BINARY = {
    "eq": lambda x, y: x == y,
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "matmul": lambda x, y: x @ y,
    "kron": kron,
}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(tuple(_EXACT_KINDS)),
    st.sampled_from(tuple(_EXACT_KINDS)),
    st.data(),
)
def test_column_store_matches_dict_store(kind_a, kind_b, data):
    x = data.draw(_operand(kind_a))
    n = x.order
    keys = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                              max_size=n * n, unique=True))
    y = XSum(n, {key: data.draw(_COEFFICIENTS[kind_b]) for key in keys})
    assert x.columns() is not None
    assert set(map(type, x.values())) <= {_EXACT_KINDS[kind_a]}
    for name, f in _UNARY.items():
        # a fresh copy for each method, so no call sees a form another built
        assert _outcome(f, column_copy(x)) == _outcome(f, dict_copy(x)), name
    for name, f in _BINARY.items():
        want = _outcome(f, dict_copy(x), dict_copy(y))
        for pair in ((column_copy(x), column_copy(y)),
                     (column_copy(x), dict_copy(y)),
                     (dict_copy(x), column_copy(y))):
            assert _outcome(f, *pair) == want, name
    # self-equality across forms
    assert column_copy(x) == dict_copy(x) == column_copy(x)


def test_column_store_builds_the_dict_once_and_nnz_never():
    h = hadamard_power(3)
    k = kron(h, h)
    assert k._store is None
    assert k.nnz() == len(k) == 4096 and repr(k) == "XSum(order=64, nnz=4096)"
    k.triplets(), matrix_to_json(k), list(k.items()), k.is_exact()
    assert k._store is None
    first = k.term_map()
    assert k._store is not None and k._terms is k._store
    assert k.term_map() == first
    with pytest.raises(AttributeError):
        k.order = 3


# --- the column kernel stays exact past int64 ---------------------------------


def _big_operand(kind, big, order=2):
    if kind == "int":
        coeffs = (big, -(big - 1), 3)
    elif kind == "fraction":
        coeffs = (Fraction(big, 3), Fraction(-5, big - 2), Fraction(big - 1, big))
    else:
        coeffs = (SqrtRational(1, Fraction(big, 7)),
                  SqrtRational(-1, Fraction(3, big - 4)),
                  SqrtRational(1, Fraction(big - 1, big)))
    cells = ((1, 1), (2, 1), (order, order))
    return XSum(order, dict(zip(cells, coeffs)))


@pytest.mark.parametrize("kind_a", ["int", "fraction", "surd"])
@pytest.mark.parametrize("kind_b", ["int", "fraction", "surd"])
@pytest.mark.parametrize("big", [2**62 + 11, 2**63 - 25, 2**40 + 3, 2**70 + 1])
def test_kron_past_int64_equals_the_per_term_reference(kind_a, kind_b, big):
    a, b = _big_operand(kind_a, big), _big_operand(kind_b, big, order=3)
    got, want = kron(a, b), _per_term_kron(a, b)
    assert got == want
    assert as_listed(got) == as_listed(want)
    assert matrix_to_json(got) == matrix_to_json(want)
    assert _outcome(XSum.triplets, got) == _outcome(XSum.triplets, want)


def test_products_that_overflow_only_after_multiplying_stay_exact():
    # each factor fits int64 easily; the products reach 2**80
    a = XSum(1, {(1, 1): SqrtRational(-1, Fraction(2**40 + 1, 2**40 - 1))})
    b = XSum(2, {(1, 2): SqrtRational(1, Fraction(2**40 - 3, 2**40 + 3)),
                 (2, 1): SqrtRational(-1, Fraction(2**40 + 5, 3))})
    c = kron(a, b)
    assert c._cols.vals[1].dtype == object
    want = _per_term_kron(a, b)
    assert as_listed(c) == as_listed(want)
    assert c.coeff(1, 2).radicand == Fraction((2**40 + 1) * (2**40 - 3),
                                              (2**40 - 1) * (2**40 + 3))
    assert not any(isinstance(v, float) for v in c._cols.vals[1])
