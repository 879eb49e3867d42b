"""Operator-sum algebra: delta-rule products, adjoints, traces, vector
action, dense round trips, and the exact determinant."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronx.hubbard as hubbard_module
from kronx import coupling, fourier, models, perm, su2
from _oracles import (
    allclose,
    as_listed,
    column_copy,
    dagger_by_dict,
    det_dense,
    dict_copy,
    per_term_product,
    trace_by_dict,
    triplets_by_dict,
)
from kronx.exactnum import ClosureError, DomainError, SqrtRational, scalar_mul
from kronx.hubbard import (
    OBJECT,
    Columns,
    DimensionError,
    ResourceError,
    XSum,
    apply,
    bracket,
    dagger,
    from_dense,
    identity,
    max_dim,
    to_dense,
    trace,
    x_op,
    xsum_linear,
    xsum_mul,
)
from kronx.kron import kron
from kronx.serialize import matrix_to_json


def _random_xsum(rng, n, density=0.4):
    terms = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rng.random() < density:
                terms[(i, j)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return XSum(n, terms)


def _dense_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def test_x_op_is_a_single_entry():
    m = to_dense(x_op(4, 3, 1))
    flat = [c for row in m for c in row]
    assert flat.count(0) == 15
    assert m[2][0] == 1


def test_x_op_range_check():
    with pytest.raises(IndexError):
        x_op(2, 0, 1)
    with pytest.raises(IndexError):
        x_op(2, 1, 3)


def test_delta_rule_products():
    assert xsum_mul(x_op(3, 1, 2), x_op(3, 2, 3)) == x_op(3, 1, 3)
    assert xsum_mul(x_op(3, 1, 2), x_op(3, 3, 1)) == XSum(3)


def test_product_order_mismatch():
    with pytest.raises(DimensionError):
        xsum_mul(x_op(2, 1, 1), x_op(3, 1, 1))


def test_hadamard_squares_to_identity_exactly():
    c = SqrtRational.sqrt(Fraction(1, 2))
    h = XSum(2, {(1, 1): c, (1, 2): c, (2, 1): c, (2, 2): -c})
    assert xsum_mul(h, h) == identity(2)


def test_linear_ops():
    a = x_op(2, 1, 1)
    assert xsum_linear("add", a, a.scale(-1)) == XSum(2)
    assert xsum_linear("scale", a, 2).coeff(1, 1) == 2
    assert (a + a).coeff(1, 1) == 2
    assert (a - a) == XSum(2)
    with pytest.raises(DimensionError):
        xsum_linear("add", a, x_op(3, 1, 1))


def test_add_commutes_on_random_sums():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 6)
        a, b = _random_xsum(rng, n), _random_xsum(rng, n)
        assert a + b == b + a


def test_bracket_single_term_delta_formula():
    # minus: [X^12, X^21] = X^11 - X^22; plus gives the identity
    m = bracket(x_op(2, 1, 2), x_op(2, 2, 1), "commutator")
    assert m == x_op(2, 1, 1) - x_op(2, 2, 2)
    p = bracket(x_op(2, 1, 2), x_op(2, 2, 1), "anticommutator")
    assert p == identity(2)
    a = _random_xsum(random.Random(1), 4)
    assert bracket(a, a) == XSum(4)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bracket_delta_formula_all_subscripts(n):
    # [X^(i,j), X^(k,m)]_pm = delta_jk X^(i,m) pm delta_mi X^(k,j)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for m in range(1, n + 1):
                    a, b = x_op(n, i, j), x_op(n, k, m)
                    want_minus = XSum(n)
                    if j == k:
                        want_minus = want_minus + x_op(n, i, m)
                    if m == i:
                        want_minus = want_minus - x_op(n, k, j)
                    assert bracket(a, b, "commutator") == want_minus
                    want_plus = XSum(n)
                    if j == k:
                        want_plus = want_plus + x_op(n, i, m)
                    if m == i:
                        want_plus = want_plus + x_op(n, k, j)
                    assert bracket(a, b, "anticommutator") == want_plus


def test_dagger_modes():
    assert dagger(x_op(3, 1, 2), "transpose") == x_op(3, 2, 1)
    z = XSum(2, {(1, 2): 1 + 2j})
    assert dagger(z, "adjoint").coeff(2, 1) == 1 - 2j
    assert dagger(z, "conjugate").coeff(1, 2) == 1 - 2j
    a = _random_xsum(random.Random(2), 5)
    assert dagger(a, "adjoint") == dagger(a, "transpose")  # real coefficients


def test_adjoint_is_an_involution_on_complex_sums():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 6)
        terms = {
            (rng.randint(1, n), rng.randint(1, n)): complex(
                rng.uniform(-1, 1), rng.uniform(-1, 1)
            )
            for _ in range(n * 2)
        }
        a = XSum(n, terms)
        assert dagger(dagger(a)) == a


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_completeness(n):
    total = XSum(n)
    for i in range(1, n + 1):
        total = total + x_op(n, i, i)
    assert total == identity(n)
    assert trace(identity(n)) == n


def test_trace_off_diagonal_is_zero():
    assert trace(x_op(3, 1, 2)) == 0


def test_trace_cyclic():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 6)
        a, b = _random_xsum(rng, n), _random_xsum(rng, n)
        assert trace(xsum_mul(a, b)) == trace(xsum_mul(b, a))


def test_apply_single_term_selects_component():
    assert apply(x_op(2, 1, 2), (Fraction(5), Fraction(7))) == (Fraction(7), 0)
    x = (Fraction(1), Fraction(2), Fraction(3))
    assert apply(identity(3), x) == x
    with pytest.raises(DimensionError):
        apply(identity(3), (1, 2))


def test_apply_hadamard_adds_and_subtracts():
    c = SqrtRational.sqrt(Fraction(1, 2))
    h = XSum(2, {(1, 1): c, (1, 2): c, (2, 1): c, (2, 2): -c})
    y = apply(h, (1, 1))
    assert y[0] == SqrtRational.sqrt(2)
    assert y[1].sign == 0


def test_product_matches_dense_on_random_pairs():
    rng = random.Random(6)
    for _ in range(500):
        n = rng.randint(1, 16)
        a, b = _random_xsum(rng, n, 0.3), _random_xsum(rng, n, 0.3)
        got = to_dense(xsum_mul(a, b))
        want = _dense_mul(to_dense(a), to_dense(b))
        assert got == want


def test_dense_round_trip():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 8)
        a = _random_xsum(rng, n)
        assert from_dense(to_dense(a)) == a
    assert from_dense([[0, 0], [0, 0]]) == XSum(2)


def test_coefficient_readback_matches_sandwich():
    rng = random.Random(9)
    a = _random_xsum(rng, 5)
    for i in range(1, 6):
        for j in range(1, 6):
            ej = tuple(1 if k == j else 0 for k in range(1, 6))
            assert apply(a, ej)[i - 1] == a.coeff(i, j)


def test_from_dense_accepts_numpy():
    m = np.array([[0.0, 1.5], [0.0, 0.0]])
    a = from_dense(m)
    assert a.coeff(1, 2) == 1.5
    assert isinstance(a.coeff(1, 2), float)


def test_zero_pruning_and_nnz():
    a = XSum(3, {(1, 1): Fraction(0), (2, 2): 4})
    assert a.nnz() == 1
    merged = XSum(2, [((1, 1), 1), ((1, 1), -1)])
    assert merged == XSum(2)


def test_allclose_for_float_sums():
    a = XSum(2, {(1, 1): 1.0})
    b = XSum(2, {(1, 1): 1.0 + 5e-11})
    assert allclose(a, b)
    assert not allclose(a, XSum(2, {(1, 1): 1.0 + 1e-8}))


def _dense_gap(a, b) -> float:
    # largest entry modulus of the dense difference, so the reference walks
    # every cell of both arrays rather than the union of stored keys
    d = a.to_numpy() - b.to_numpy()
    return max(abs(complex(z)) for z in d.ravel())


def _agree_at_every_tolerance(a, b):
    gap = _dense_gap(a, b)
    for tol in (0.0, gap, np.nextafter(gap, 0.0), 2 * gap, 1e-10, 1.0):
        assert allclose(a, b, tol) == (gap <= tol), tol


def test_allclose_matches_dense_gap_on_mixed_kinds():
    r2 = SqrtRational.sqrt(2)
    a = XSum(3, {(1, 1): 1, (1, 2): Fraction(1, 3), (2, 1): r2,
                 (2, 2): 0.5 + 1e-9j, (3, 3): Fraction(2, 7)})
    b = XSum(3, {(1, 1): 1.0 + 1e-11, (1, 2): SqrtRational(1, Fraction(1, 9)),
                 (2, 1): 1.4142135623730951, (3, 1): 1e-12j,
                 (3, 2): -r2})
    _agree_at_every_tolerance(a, b)
    _agree_at_every_tolerance(b, a)
    _agree_at_every_tolerance(a, a)
    _agree_at_every_tolerance(a, XSum(3))
    _agree_at_every_tolerance(XSum(3), XSum(3))
    assert allclose(XSum(3), XSum(3), 0.0)
    rng = random.Random(19)
    kinds = (lambda: rng.randint(-3, 3),
             lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
             lambda: SqrtRational(rng.choice((-1, 1)),
                                  Fraction(rng.randint(1, 9), rng.randint(1, 9))),
             lambda: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
    for _ in range(30):
        n = rng.randint(1, 5)
        x, y = (XSum(n, {(rng.randint(1, n), rng.randint(1, n)):
                         rng.choice(kinds)() for _ in range(2 * n)})
                for _ in range(2))
        _agree_at_every_tolerance(x, y)
    assert not allclose(a, XSum(2))


def test_allclose_matches_dense_gap_on_fourier_unitarity():
    from kronx.fourier import fourier_matrix

    h = fourier_matrix(64)
    hh, n_id = xsum_mul(h, dagger(h)), identity(64).scale(64)
    assert 0 < _dense_gap(hh, n_id) < 1e-9
    _agree_at_every_tolerance(hh, n_id)
    assert allclose(hh, n_id, 1e-9)


def test_dimension_cap(monkeypatch):
    monkeypatch.setenv("KRONX_MAX_DIM", "16")
    with pytest.raises(ResourceError):
        identity(17)
    assert identity(16).order == 16


_P300 = perm.Permutation.identity(300)

# each builds an order of 2**14 or more under a cap of 64; unchecked, each
# would allocate megabytes of terms or images before the order was refused
_OVER_CAP = {
    "identity": lambda: identity(2**15),
    "j3": lambda: su2.j3(2**14),
    "jpm plus": lambda: su2.jpm(2**14, "plus"),
    "jpm minus": lambda: su2.jpm(2**14, "minus"),
    "omega_diag": lambda: fourier.omega_diag(2**14),
    "butterfly": lambda: fourier.butterfly(2**15),
    "cooley_tukey": lambda: fourier.cooley_tukey(2**15),
    "jc_lowering": lambda: models.jc_lowering(models.JCConfig(1.0, 2**15)),
    "jc_evolution": lambda: models.jc_evolution(models.JCConfig(1.0, 2**14), 0.5),
    "ceiling 3": lambda: coupling.product_gen(127, 127, "3", "ceiling"),
    "ceiling plus": lambda: coupling.product_gen(127, 127, "plus", "ceiling"),
    "ceiling minus": lambda: coupling.product_gen(127, 127, "minus", "ceiling"),
    "swap_perm": lambda: perm.swap_perm(300),
    "commutation_perm": lambda: perm.commutation_perm(300, 300),
    "kron_perm": lambda: perm.kron_perm(_P300, _P300),
    "factor_perm": lambda: perm.factor_perm(perm.Permutation((3, 1, 2)), 45),
    "bit_reversal_perm": lambda: fourier.bit_reversal_perm(2**16),
    "odd_even_perm": lambda: fourier.odd_even_perm(2**16),
}


@pytest.mark.parametrize("build", _OVER_CAP.values(), ids=_OVER_CAP)
def test_builders_refuse_before_they_allocate(monkeypatch, build):
    monkeypatch.setenv("KRONX_MAX_DIM", "64")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("cap", ["abc", "0", "-1", " ", "1e3"])
def test_malformed_cap_names_the_variable(monkeypatch, cap):
    monkeypatch.setenv("KRONX_MAX_DIM", cap)
    with pytest.raises(ValueError, match=f"KRONX_MAX_DIM .* not {cap!r}"):
        max_dim()
    with pytest.raises(ValueError, match="KRONX_MAX_DIM"):
        identity(2)


def test_cap_reads_the_variable(monkeypatch):
    monkeypatch.delenv("KRONX_MAX_DIM", raising=False)
    assert max_dim() == 4096
    monkeypatch.setenv("KRONX_MAX_DIM", " 12 ")
    assert max_dim() == 12


@pytest.mark.parametrize("order", [0, -1, 2.0, True, False, "2"])
def test_order_must_be_a_positive_int(order):
    with pytest.raises(ValueError):
        XSum(order)


def test_det_identity_and_singular():
    assert det_dense(to_dense(identity(4))) == 1
    assert det_dense(to_dense(x_op(3, 2, 1))) == 0
    assert det_dense([[1, 2], [3, 4]]) == -2


def test_det_two_by_two_closed_form():
    rng = random.Random(10)
    for _ in range(50):
        a, b, c, d = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4))
        assert det_dense([[a, b], [c, d]]) == a * d - b * c


def test_det_product_rule():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        a, b = _random_xsum(rng, n, 0.6), _random_xsum(rng, n, 0.6)
        da, db = to_dense(a), to_dense(b)
        assert det_dense(_dense_mul(da, db)) == det_dense(da) * det_dense(db)


# --- the column product against the per-term reference -----------------------

# small parts, and parts at and around the int64 edge
_PARTS = st.one_of(st.integers(1, 6), st.sampled_from((2**62, 2**63 - 1, 2**63, 2**70)))
_SIGNS = st.sampled_from((1, -1))
_VALUES = {
    "int": st.builds(lambda s, p: s * p, _SIGNS, _PARTS),
    "fraction": st.builds(lambda s, p, q: Fraction(s * p, q), _SIGNS, _PARTS, _PARTS),
    "surd": st.builds(lambda s, p, q: SqrtRational(s, Fraction(p, q)),
                      _SIGNS, _PARTS, _PARTS),
}
_VALUES["mixed"] = st.one_of(*_VALUES.values())
_VALUES["complex"] = st.complex_numbers(max_magnitude=9, allow_nan=False,
                                        allow_infinity=False).filter(bool)


@st.composite
def _factor(draw, n, kind):
    """A sum of order n: random cells, or the cells of a random permutation
    matrix, with values of one kind, held as a dict or as columns."""
    if draw(st.booleans()):
        images = draw(st.permutations(range(1, n + 1)))
        cells = list(zip(range(1, n + 1), images))
    else:
        pairs = st.tuples(st.integers(1, n), st.integers(1, n))
        cells = draw(st.lists(pairs, max_size=n * n, unique=True))
    x = XSum(n, {cell: draw(_VALUES[kind]) for cell in cells})
    return column_copy(x) if draw(st.booleans()) else dict_copy(x)


def _outcome(f, a, b):
    try:
        x = f(a, b)
    except ClosureError:  # colliding surds with unlike radicands
        return ClosureError
    return x.order, as_listed(x)


def _collide(a, b) -> bool:
    cells = [(i, l) for (i, j) in a.term_map() for (k, l) in b.term_map() if j == k]
    return len(cells) != len(set(cells))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_VALUES)), st.sampled_from(sorted(_VALUES)),
       st.integers(1, 5), st.data())
def test_product_matches_the_per_term_reference(kind_a, kind_b, n, data):
    a, b = data.draw(_factor(n, kind_a)), data.draw(_factor(n, kind_b))
    want = _outcome(per_term_product, a, b)
    if want is ClosureError:
        with pytest.raises(ClosureError):
            xsum_mul(a, b)
        return
    got = xsum_mul(a, b)
    # products on distinct cells stay columns and leave the term dict
    # unbuilt; colliding ones are summed into a term dict alone
    if not _collide(a, b):
        assert got._store is None
    else:
        assert got._store is not None and got._cols is None
    assert (got.order, as_listed(got)) == want
    assert got == per_term_product(a, b)


def test_cancelling_products_take_the_summed_branch_of_matmul():
    a = column_copy(XSum(2, {(1, 1): Fraction(1), (1, 2): Fraction(1, 2)}))
    b = column_copy(XSum(2, {(1, 2): Fraction(3), (2, 2): Fraction(-6)}))
    got = xsum_mul(a, b)
    assert got == XSum(2) == per_term_product(a, b)
    assert got._store == {}


def test_products_past_int64_stay_exact_on_columns():
    a = column_copy(XSum(2, {(1, 2): 2**62, (2, 1): -(2**63 - 1)}))
    b = column_copy(XSum(2, {(2, 2): Fraction(2**70, 3), (1, 1): Fraction(2**63)}))
    got = xsum_mul(a, b)
    assert got._store is None and got._cols.vals[0].dtype == object
    assert as_listed(got) == as_listed(per_term_product(a, b))
    assert got.coeff(1, 2) == Fraction(2**132, 3)


# dense 3 x 3 operands of one kind: every cell of their product collects
# three products; the surds' radicands make every colliding sum like
_DENSE = {
    "int": lambda i, j, s: s * (i + 2 * j),
    "fraction": lambda i, j, s: Fraction(s * i, j + 1),
    "surd": lambda i, j, s: SqrtRational(s, Fraction(2 * s * s * i * i, j * j)),
}


@pytest.mark.parametrize("kind", sorted(_DENSE))
def test_colliding_products_stay_on_the_columns(kind, monkeypatch):
    value = _DENSE[kind]
    a = column_copy(XSum(3, {(i, j): value(i, j, (-1) ** j)
                             for i in range(1, 4) for j in range(1, 4)}))
    b = column_copy(XSum(3, {(i, j): value(j, i, (-1) ** (i * j))
                             for i in range(1, 4) for j in range(1, 4)}))
    # one-kind operands never reach the per-term loop, nor build term dicts
    monkeypatch.setattr(hubbard_module, "scalar_mul", _refuse)
    got = xsum_mul(a, b)
    assert a._store is None and b._store is None
    monkeypatch.undo()
    assert _collide(a, b)
    assert as_listed(got) == as_listed(per_term_product(a, b))


def _jx_plus_jminus(two_j):
    return su2.jpm(two_j, "plus") + su2.jpm(two_j, "minus")


def _heisenberg(sites):
    return models.heisenberg_h(models.SpinChainParams(sites, 1, 1, Fraction(3, 2)))


# cell (1, 1) of its square collects 1, -1 and 5/2: the sum cancels, then
# starts again behind the cells stored meanwhile
_RESTART = {(1, 1): Fraction(1), (1, 2): Fraction(1), (1, 3): Fraction(1),
            (2, 1): Fraction(-1), (3, 1): Fraction(5, 2), (2, 2): Fraction(2)}


@pytest.mark.parametrize("build, arg", [
    (_heisenberg, 6), (_heisenberg, 8), (_jx_plus_jminus, 3),
    (_jx_plus_jminus, 6), (column_copy, XSum(3, _RESTART)),
], ids=["heisenberg6", "heisenberg8", "jx3", "jx6", "restart"])
def test_structured_collisions_match_the_per_term_reference(build, arg,
                                                             monkeypatch):
    a = build(arg)
    assert _collide(a, a)
    monkeypatch.setattr(hubbard_module, "scalar_mul", _refuse)
    got = xsum_mul(a, a)
    monkeypatch.undo()
    assert as_listed(got) == as_listed(per_term_product(a, a))


@pytest.mark.parametrize("small, big", [
    (Fraction(1, 2), Fraction(-10**400, 3)),
    (1, 10**309),
    (SqrtRational(1, Fraction(2)), SqrtRational(-1, Fraction(10**700))),
], ids=["fraction", "int", "surd"])
def test_float_step_names_an_entry_past_float_range(small, big):
    x = XSum(3, {(1, 2): small, (3, 1): big, (2, 2): small})
    for y in (dict_copy(x), column_copy(x)):
        with pytest.raises(DomainError, match=r"entry \(3,1\)"):
            y.triplets()


@pytest.mark.parametrize("big", [
    Fraction(-10**400, 3), 10**309, SqrtRational(-1, Fraction(10**700)),
], ids=["fraction", "int", "surd"])
@pytest.mark.parametrize("inexact", [1.5, 1.5 + 0.5j], ids=["float", "complex"])
def test_exact_value_past_float_range_meets_a_float(big, inexact):
    x, y = XSum(1, {(1, 1): big}), XSum(1, {(1, 1): inexact})
    for op in (kron, lambda a, b: a @ b, lambda a, b: a + b):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(DomainError, match="too large for a float"):
                op(a, b)


def test_empty_products_are_empty():
    x = XSum(3, {(1, 2): SqrtRational(1, Fraction(2))})
    for a, b in ((XSum(3), x), (x, XSum(3)), (x, x)):
        got = xsum_mul(a, b)
        assert got._store is None and got.nnz() == 0
        assert got == XSum(3) == per_term_product(a, b)


# --- the OBJECT kind: floats, complex numbers and mixed kinds ------------------

# every product underflows to 0j, or no term pair meets at all
_NOTHING_LEFT = [
    (kron, XSum(1, {(1, 1): 1e-200}), XSum(1, {(1, 1): 1e-200})),
    (xsum_mul, XSum(1, {(1, 1): 1e-200}), XSum(1, {(1, 1): 1e-200})),
    (xsum_mul, XSum(2, {(1, 2): 1e-200, (2, 2): 1e-200j}),
     XSum(2, {(2, 1): 1e-200, (1, 1): Fraction(1, 3)})),
    (xsum_mul, XSum(2, {(1, 2): 1.5}), XSum(2, {(1, 1): 2.0})),
]


@pytest.mark.parametrize("op, a, b", _NOTHING_LEFT,
                         ids=["kron", "matmul", "matmul_mixed", "matmul_unmet"])
def test_products_with_no_term_left_are_the_empty_rational_sum(op, a, b):
    for x, y in ((column_copy(a), column_copy(b)), (dict_copy(a), dict_copy(b))):
        got = op(x, y)
        assert got.nnz() == 0 and got.columns().kind == hubbard_module.INT
        assert got == XSum(got.order)
        want = f'{{"kind":"rational","order":{got.order},"terms":[]}}'
        assert matrix_to_json(got) == want


def test_products_that_underflow_are_dropped_and_the_rest_kept():
    a = XSum(2, {(1, 1): 1e-200, (2, 2): 2})
    b = XSum(2, {(1, 1): 1e-200, (2, 2): 3.0})
    for x, y in ((column_copy(a), column_copy(b)), (dict_copy(a), dict_copy(b))):
        got = xsum_mul(x, y)
        assert as_listed(got) == as_listed(per_term_product(a, b))
        assert got.term_map() == {(2, 2): 6 + 0j}
        got = kron(x, y)
        assert [(key, repr(c)) for key, c in got.term_map().items()] == [
            ((2, 2), "(3e-200+0j)"), ((3, 3), "(2e-200+0j)"), ((4, 4), "(6+0j)")]


# one sum of each kind the OBJECT store holds; a bool is exact, as an int
_OBJECT_SUMS = {
    "float": {(1, 1): 1.5, (2, 3): -2, (3, 1): Fraction(1, 4), (3, 3): 1e-300},
    "complex": {(1, 1): 1 + 2j, (2, 1): -0.5j, (3, 3): 3 + 0j, (1, 3): 2.5},
    "mixed_exact": {(3, 3): SqrtRational(1, Fraction(9, 4)), (1, 1): 2,
                    (1, 3): SqrtRational(1, Fraction(2)), (1, 2): Fraction(1, 3),
                    (2, 2): -1},
    "bool": {(2, 2): True, (1, 2): True, (3, 3): 5},
}


@pytest.mark.parametrize("kind", sorted(_OBJECT_SUMS))
def test_dagger_trace_and_triplets_match_the_dict_loops(kind):
    x = XSum(3, _OBJECT_SUMS[kind])
    for y in (column_copy(x), dict_copy(x)):
        assert y.columns().kind == OBJECT
        for mode in ("transpose", "conjugate", "adjoint"):
            assert as_listed(dagger(y, mode)) == as_listed(dagger_by_dict(x, mode))
        got, want = trace(y), trace_by_dict(x)
        assert (type(got), repr(got)) == (type(want), repr(want))
        got, want = y.triplets(), triplets_by_dict(x)
        assert [v.tolist() for v in got] == [v.tolist() for v in want]
        assert got[2].dtype == want[2].dtype and got[2].tobytes() == want[2].tobytes()


def _pairs_met(op, a, b):
    """The (a_ij, b_kl) pairs op multiplies, in the per-term loop's order."""
    return [(ca, cb) for (i, j), ca in a.term_map().items()
            for (k, l), cb in b.term_map().items() if op is kron or j == k]


@pytest.mark.parametrize("op", [xsum_mul, kron], ids=["matmul", "kron"])
def test_an_object_product_calls_scalar_mul_once_per_term_pair(op, monkeypatch):
    a = XSum(3, {(1, 1): 0.5, (1, 2): Fraction(1, 2), (2, 1): 2, (3, 3): 1j,
                 (2, 2): SqrtRational(-1, Fraction(9))})
    for b in (XSum(3, {(1, 1): 3, (2, 2): 1.5, (2, 3): -1, (1, 3): 4}),
              identity(3), XSum(3, {(2, 1): Fraction(2, 5), (1, 2): 7})):
        calls = []
        monkeypatch.setattr(hubbard_module, "scalar_mul",
                            lambda x, y: calls.append((x, y)) or scalar_mul(x, y))
        got = op(column_copy(a), column_copy(b))
        monkeypatch.undo()
        listed = [(type(x), repr(x), type(y), repr(y)) for x, y in calls]
        assert listed == [(type(x), repr(x), type(y), repr(y))
                          for x, y in _pairs_met(op, a, b)]
        if op is xsum_mul:
            assert as_listed(got) == as_listed(per_term_product(a, b))


def _refuse(*args):
    raise AssertionError("worked before checking the orders")


def test_order_mismatch_is_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(XSum, "columns", _refuse)
    monkeypatch.setattr(hubbard_module, "scalar_mul", _refuse)
    with pytest.raises(DimensionError):
        xsum_mul(x_op(2, 1, 1), x_op(3, 1, 1))


def test_a_sum_builds_its_columns_once(monkeypatch):
    calls = []
    of_terms = Columns.of_terms
    monkeypatch.setattr(Columns, "of_terms",
                        lambda store: calls.append(1) or of_terms(store))
    z = XSum(2, {(1, 1): 1j, (1, 2): 1})
    for _ in range(3):
        assert z.columns().kind == OBJECT
        xsum_mul(z, z)
    assert len(calls) == 1
    assert z.nnz() == 2 and not z.is_exact()
