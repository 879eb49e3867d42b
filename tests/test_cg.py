import importlib
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from _oracles import (
    admissible,
    dense_intertwining_residuals,
    direct_alternating_sum,
    full_assembly_terms,
    per_entry_build,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import kronx.cg
from kronx.cg import (
    CGMatrix,
    VerificationError,
    build_S,
    cg_coefficient,
    cg_table,
    ladder_oracle_S,
    s_first_block,
    s_general,
    s_rone,
    verify_intertwining,
)
from kronx.cli import EX_VERIFY, run
from kronx.coupling import block_gen, layout, product_gen
from kronx.exactnum import DomainError, SqrtRational
from kronx.hubbard import Columns, ResourceError, XSum, int_column


def H(x):
    return SqrtRational.sqrt(Fraction(x))


def _cell(lay, alpha, beta, k, r):
    """(p, q) of an admissible address: p = alpha n2 + beta, q = z_{k-1} + r."""
    return alpha * lay.n2 + beta, lay.z(k - 1) + r


def test_cgindex_selection_rule():
    for two_j1 in range(0, 6):
        for two_j2 in range(0, 6):
            lay = layout(two_j1, two_j2)
            for alpha, beta, k, r in admissible(lay):
                assert k + r == alpha + beta + 1
                assert 0 <= alpha <= two_j1 and 1 <= beta <= lay.n2
                assert 1 <= k <= lay.n0 and 1 <= r <= lay.dims[k - 1]
    lay = layout(2, 1)
    assert (1, 1, 2, 1) in set(admissible(lay))
    assert _cell(lay, 1, 1, 2, 1) == (3, 5)


def test_admissible_indices_cover_distinct_cells():
    lay = layout(3, 2)
    seen = set()
    for idx in admissible(lay):
        cell = _cell(lay, *idx)
        assert cell not in seen
        seen.add(cell)
        assert 1 <= cell[0] <= lay.total
        assert 1 <= cell[1] <= lay.total


def test_s_first_block_examples():
    assert s_first_block(3, 2, 0, 1) == 1
    assert s_first_block(1, 1, 0, 2) == H("1/2")
    assert s_first_block(1, 1, 1, 1) == H("1/2")
    assert not s_first_block(1, 1, 2, 1)
    assert not s_first_block(1, 1, 0, 3)


@pytest.mark.parametrize("two_j1", range(0, 7))
@pytest.mark.parametrize("two_j2", range(0, 7))
def test_s_first_block_columns_normalized(two_j1, two_j2):
    # Vandermonde: sum_alpha C(2j1,a) C(2j2,r-1-a) = C(2j,r-1)
    for r in range(1, two_j1 + two_j2 + 2):
        total = Fraction(0)
        for alpha in range(0, two_j1 + 1):
            beta = r - alpha
            c = s_first_block(two_j1, two_j2, alpha, beta)
            total += c * c if c else 0
        assert total == 1


def test_s_rone_examples():
    assert s_rone(1, 1, 1, 0, 1) == 1
    assert s_rone(1, 1, 2, 0, 2) == H("1/2")
    assert s_rone(1, 1, 2, 1, 1) == -H("1/2")
    assert s_rone(2, 1, 2, 0, 2) == H("2/3")
    assert s_rone(2, 1, 2, 1, 1) == -H("1/3")
    assert not s_rone(2, 1, 2, 1, 2)  # selection rule violated
    assert not s_rone(1, 1, 2, 2, 0)


def test_s_general_printed_values():
    assert s_general(2, 1, 2, 2, 1, 2) == H("1/3")
    assert s_general(2, 1, 2, 2, 2, 1) == -H("2/3")


@pytest.mark.parametrize("two_j1", range(0, 6))
@pytest.mark.parametrize("two_j2", range(0, 6))
def test_s_general_consistency_chain(two_j1, two_j2):
    lay = layout(two_j1, two_j2)
    for alpha, beta, k, r in admissible(lay):
        got = s_general(two_j1, two_j2, k, r, alpha, beta)
        if k == 1:
            assert got == s_first_block(two_j1, two_j2, alpha, beta)
        if r == 1:
            assert got == s_rone(two_j1, two_j2, k, alpha, beta)


@pytest.mark.parametrize("two_j1", range(0, 5))
@pytest.mark.parametrize("two_j2", range(0, 5))
def test_lowering_recurrence_exact(two_j1, two_j2):
    # Applying J_- to column r of block k reproduces column r+1:
    # c_r S^{k,r+1}_{a,b} = sqrt(a(2j1-a+1)) S^{k,r}_{a-1,b}
    #                     + sqrt((b-1)(2j2-b+2)) S^{k,r}_{a,b-1}
    # exactly in SqrtRational (all three terms share one radicand).
    two_j = two_j1 + two_j2
    lay = layout(two_j1, two_j2)
    for a, b, k, row in admissible(lay):
        if row == 1:
            continue
        r = row - 1
        lhs = H(r * (two_j - 2 * k - r + 3)) * s_general(
            two_j1, two_j2, k, r + 1, a, b
        )
        rhs = H(a * (two_j1 - a + 1)) * s_general(
            two_j1, two_j2, k, r, a - 1, b
        ) + H((b - 1) * (two_j2 - b + 2)) * s_general(
            two_j1, two_j2, k, r, a, b - 1
        )
        assert lhs == rhs


def test_build_S_printed_half_half():
    s = build_S(1, 1)
    want = XSum(
        4,
        {
            (1, 1): 1,
            (2, 2): H("1/2"),
            (3, 2): H("1/2"),
            (4, 3): 1,
            (2, 4): H("1/2"),
            (3, 4): -H("1/2"),
        },
    )
    assert s.matrix == want


def test_build_S_printed_one_half():
    s = build_S(2, 1)
    want = XSum(
        6,
        {
            (1, 1): 1,
            (2, 2): H("1/3"),
            (3, 2): H("2/3"),
            (4, 3): H("2/3"),
            (5, 3): H("1/3"),
            (6, 4): 1,
            (2, 5): H("2/3"),
            (3, 5): -H("1/3"),
            (4, 6): H("1/3"),
            (5, 6): -H("2/3"),
        },
    )
    assert s.matrix == want


@pytest.mark.parametrize(
    "two_j1, two_j2",
    [(a, b) for a in range(15) for b in range(15)] + [(20, 30), (30, 30)],
)
def test_half_block_build_equals_full_assembly(two_j1, two_j2):
    # every cell of S, the reflected half too, carries the sign and the
    # radicand its own closed-form call gives, in the same order
    got = build_S(two_j1, two_j2).matrix.term_map()
    want = full_assembly_terms(two_j1, two_j2)
    assert list(got) == list(want)
    assert [(c.sign, c.radicand) for c in got.values()] == [
        (c.sign, c.radicand) for c in want.values()
    ]


# every pair up to 2j = 16, one case per 2j1, and larger pairs on both
# sides of the array kernel's int64 bound; (100, 2) is long and thin
_KERNEL_PAIRS = {
    **{f"2j1={a}": [(a, b) for b in range(17)] for a in range(17)},
    **{f"{a}x{b}": [(a, b)] for a, b in
       ((24, 24), (24, 7), (30, 29), (34, 34), (40, 40), (100, 2))},
}


def _same_array(got, want):
    return got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("pairs", list(_KERNEL_PAIRS.values()),
                         ids=list(_KERNEL_PAIRS))
def test_build_S_equals_the_per_entry_build(pairs):
    # the array kernel stores what the per-entry loop stored: the same
    # terms in the same order, the same value dtypes, the same cell keys
    for pair in pairs:
        s = build_S(*pair)
        store = s.matrix.columns()
        rows, cols, vals, cells = per_entry_build(*pair)
        assert _same_array(store.rows, rows), pair
        assert _same_array(store.cols, cols), pair
        assert len(store.vals) == len(vals), pair
        assert all(map(_same_array, store.vals, vals)), pair
        assert _same_array(s._cells, cells), pair


def _top_half(lay, blocks=None):
    """(alpha, beta, k, r) of the admissible cells in the top half of each
    block, or of the given blocks."""
    return [c for c in admissible(lay)
            if c[3] <= (lay.dims[c[2] - 1] + 1) // 2
            and (blocks is None or c[2] in blocks)]


def _assert_parts_are_the_lemmas(two_j1, two_j2, cells):
    alpha, beta, k, r = np.array(cells).T
    sign, num, den = kronx.cg._cell_parts(two_j1, two_j2, k, r, alpha)
    assert num.dtype == int_column(num.tolist()).dtype
    assert den.dtype == int_column(den.tolist()).dtype
    for i, (a, b, kk, rr) in enumerate(cells):
        if kk == 1:
            want = s_first_block(two_j1, two_j2, a, b)
        elif rr == 1:
            want = s_rone(two_j1, two_j2, kk, a, b)
        else:
            want = s_general(two_j1, two_j2, kk, rr, a, b)
        if not want:
            assert num[i] == 0, (two_j1, two_j2, cells[i])
            continue
        got = (int(sign[i]), Fraction(int(num[i]), int(den[i])))
        assert got == (want.sign, want.radicand), (two_j1, two_j2, cells[i])


@pytest.mark.parametrize("pairs", list(_KERNEL_PAIRS.values()),
                         ids=list(_KERNEL_PAIRS))
def test_array_kernel_parts_equal_the_lemmas(pairs):
    # the kernel's (sign, num, den) on every top-half cell is the entry
    # s_first_block, s_rone or s_general gives there
    for two_j1, two_j2 in pairs:
        _assert_parts_are_the_lemmas(two_j1, two_j2,
                                     _top_half(layout(two_j1, two_j2)))


def test_array_kernel_past_int64_equals_the_lemmas():
    # in blocks 12 and 13 of 63 x 63 some reduced terms of F' and some of
    # their sums pass 2**62, so those go through on Python ints
    _assert_parts_are_the_lemmas(63, 63, _top_half(layout(63, 63), (12, 13)))


def test_prime_power_past_int64_is_exact():
    primes = np.array([2, 3, 5])
    log2p = np.log2(primes)
    for rows in (
        [[10, 3, 2], [0, 0, 0], [61, 0, 0]],  # int64
        [[40, 20, 1], [1, 1, 1]],  # two groups of primes
        [[70, 1, 0], [3, 50, 1]],  # 2**70 and 3**50 alone pass int64
    ):
        x = np.array(rows, dtype=np.int16)
        got = kronx.cg._prime_power(x, primes, log2p)
        want = [2**a * 3**b * 5**c for a, b, c in rows]
        assert got.tolist() == want
        assert got.dtype == int_column(want).dtype


def test_build_S_memory_stays_far_below_one_unchunked_pass():
    build_S(2, 2)
    tracemalloc.start()
    try:
        build_S(40, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the per-entry build peaked at 8.7 MB, one pass over all 40x40
    # terms would take about 150 MB
    assert peak < 12e6


def test_build_S_over_order_cap_calls_no_array_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("entry computed")

    monkeypatch.setenv("KRONX_MAX_DIM", "24")
    monkeypatch.setattr(kronx.cg, "_cell_parts", refuse)
    with pytest.raises(ResourceError):
        build_S(4, 4)  # order 25


@st.composite
def _cg_index(draw):
    two_j1 = draw(st.integers(0, 20))
    two_j2 = draw(st.integers(0, 20))
    two_j = draw(st.sampled_from(
        range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2)
    ))
    two_m = draw(st.sampled_from(range(-two_j, two_j + 1, 2)))
    # m1 with |m1| <= j1 and |m - m1| <= j2, of m1's parity
    lo = max(-two_j1, two_m - two_j2)
    hi = min(two_j1, two_m + two_j2)
    two_m1 = draw(st.sampled_from(range(lo, hi + 1, 2)))
    return two_j1, two_m1, two_j2, two_m - two_m1, two_j, two_m


@settings(max_examples=150, deadline=None)
@given(_cg_index())
def test_cg_coefficient_reflection_symmetry(idx):
    # <j1 -m1; j2 -m2 | J -M> = (-1)^(j1+j2-J) <j1 m1; j2 m2 | J M>
    two_j1, two_m1, two_j2, two_m2, two_j, two_m = idx
    c = cg_coefficient(*idx)
    mirror = cg_coefficient(two_j1, -two_m1, two_j2, -two_m2, two_j, -two_m)
    assert mirror == (-c if (two_j1 + two_j2 - two_j) // 2 % 2 else c)


def test_build_S_over_order_cap_fails_before_any_entry(monkeypatch):
    def refuse(*args):
        raise AssertionError("entry computed")

    monkeypatch.setenv("KRONX_MAX_DIM", "24")
    # the per-entry kernels of the lemmas, one per closed form, and the
    # array kernel build_S itself assembles S with
    for name in ("_first_block_parts", "_rone_parts", "_general_parts",
                 "_assembled"):
        monkeypatch.setattr(kronx.cg, name, refuse)
    with pytest.raises(ResourceError):
        build_S(4, 4)  # order 25


def test_build_S_trivial_factor_is_identity():
    from kronx.hubbard import identity

    assert build_S(0, 4).matrix == identity(5)
    assert build_S(4, 0).matrix == identity(5)


@pytest.mark.parametrize("two_j1", range(0, 7))
@pytest.mark.parametrize("two_j2", range(0, 7))
def test_unitarity_and_exact_columns(two_j1, two_j2):
    s = build_S(two_j1, two_j2)
    assert s.is_exact()
    n = s.layout.total
    m = s.matrix.to_numpy().real
    assert np.abs(m.T @ m - np.eye(n)).max() < 1e-10
    assert np.abs(m @ m.T - np.eye(n)).max() < 1e-10
    assert s.column_norms_sq() == [1] * n


@pytest.mark.parametrize("two_j1", range(0, 6))
@pytest.mark.parametrize("two_j2", range(0, 6))
def test_intertwining_all_generators(two_j1, two_j2):
    rep = verify_intertwining(build_S(two_j1, two_j2))
    assert rep.passed(1e-10)
    assert rep.diagonal_exact


def test_intertwining_detects_perturbation():
    s = build_S(1, 1)
    bad = s.matrix + XSum(4, {(2, 2): 1e-3})
    rep = verify_intertwining(CGMatrix(s.layout, bad))
    assert rep.max_residual > 1e-6


def test_intertwining_detects_perturbation_outside_support():
    s = build_S(1, 1)
    assert not s.entry(1, 2)  # (1, 2) lies outside S's support
    bad = s.matrix + XSum(4, {(1, 2): 1e-3})
    rep = verify_intertwining(CGMatrix(s.layout, bad))
    assert rep.max_residual > 1e-6
    assert not rep.diagonal_exact


def _assert_residuals_match_dense(s):
    # a float perturbation makes every residual nonzero
    s_bad = CGMatrix(s.layout, s.matrix + XSum(s.layout.total, {(1, 1): 1e-3}))
    for m in (s, s_bad):
        rep = verify_intertwining(m)
        dense = dense_intertwining_residuals(m)
        assert abs(rep.residual_3 - dense["3"]) < 1e-12
        assert abs(rep.residual_plus - dense["plus"]) < 1e-12
        assert abs(rep.residual_minus - dense["minus"]) < 1e-12


@pytest.mark.parametrize("two_j1", range(0, 7))
@pytest.mark.parametrize("two_j2", range(0, 7))
def test_sparse_residuals_match_dense_products(two_j1, two_j2):
    _assert_residuals_match_dense(build_S(two_j1, two_j2))


@pytest.mark.parametrize("two_j1, two_j2", [(10, 12), (12, 12)])
def test_sparse_residuals_match_dense_products_at_bench_pairs(two_j1, two_j2):
    _assert_residuals_match_dense(build_S(two_j1, two_j2))


def test_entry_moved_to_another_weight_fails_the_weight_check():
    s = build_S(9, 7)
    lay = s.layout
    q = lay.z(3) + 2  # block 4, row 2
    terms = s.matrix.term_map()
    p = min(pp for (pp, qq) in terms if qq == q)
    # rows p and p + 1 differ in weight for n2 > 2, so (p + 1, q) is empty
    assert (p + 1, q) not in terms
    terms[p + 1, q] = terms.pop((p, q))
    moved = CGMatrix(lay, XSum(lay.total, terms))
    assert not verify_intertwining(moved).diagonal_exact
    _assert_report_matches_dense(moved)


def _assert_report_matches_dense(m):
    rep = verify_intertwining(m)
    dense = dense_intertwining_residuals(m)
    assert abs(rep.residual_3 - dense["3"]) < 1e-12
    assert abs(rep.residual_plus - dense["plus"]) < 1e-12
    assert abs(rep.residual_minus - dense["minus"]) < 1e-12


def _band_edge_cells(lay, rng):
    """Cells (p, q), 1-based, where a band step leaves a block or a row
    group: each block's first and last column against the first and last
    row of each factor-1 row group, plus five random cells."""
    cols = [q for z, d in zip((0,) + lay.offsets, lay.dims)
            for q in (z + 1, z + d)]
    rows = [p for a in range(lay.n1)
            for p in (a * lay.n2 + 1, (a + 1) * lay.n2)]
    cells = {(p, q) for p in rows for q in cols}
    n = lay.total
    cells |= {(rng.randint(1, n), rng.randint(1, n)) for _ in range(5)}
    return sorted(cells)


@pytest.mark.parametrize("two_j1", range(0, 7))
def test_residuals_match_dense_at_band_edges(two_j1):
    rng = random.Random(2013 + two_j1)
    for two_j2 in range(0, 7):
        s = build_S(two_j1, two_j2)
        lay = s.layout
        for cell in _band_edge_cells(lay, rng):
            for eps in (1e-3, 2e-3j):
                _assert_report_matches_dense(
                    CGMatrix(lay, s.matrix + XSum(lay.total, {cell: eps}))
                )


def test_build_S_builds_no_generator_xsum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("generator XSum built")

    coupling = importlib.import_module("kronx.coupling")
    monkeypatch.setattr(kronx.cg, "product_gen", refuse)
    for name in ("product_gen", "block_gen", "kron"):
        monkeypatch.setattr(coupling, name, refuse)
    monkeypatch.setattr(importlib.import_module("kronx.kron"), "kron", refuse)
    assert build_S(5, 8).report.passed(1e-10)


def _terms_from_bands(weight, *bands):
    """J_3, J_+ and J_- as {(row, column): value}, 0-based, from doubled
    weights and (stride, into, out of) ladder bands."""
    idx = range(len(weight))
    j3 = {(i, i): w / 2 for i, w in zip(idx, weight.tolist()) if w}
    plus, minus = {}, {}
    for step, up, down in bands:
        plus.update({(i - step, i): u for i, u in zip(idx, up.tolist()) if u})
        minus.update(
            {(i + step, i): x for i, x in zip(idx, down.tolist()) if x}
        )
    return j3, plus, minus


@pytest.mark.parametrize("two_j1", range(0, 13))
def test_generator_arrays_equal_the_xsum_triplets(two_j1):
    # the band entries the intertwining check scales S by, bit for bit
    # the generator XSums of the product and direct-sum spaces
    which = ("3", "plus", "minus")
    for two_j2 in range(0, 13):
        lay = layout(two_j1, two_j2)
        (wr, up_a, dn_a, up_b, dn_b), (wc, up_c, dn_c) = (
            kronx.cg._generator_bands(lay)
        )
        got = [
            _terms_from_bands(wr, (lay.n2, up_a, dn_a), (1, up_b, dn_b)),
            _terms_from_bands(wc, (1, up_c, dn_c)),
        ]
        for side, gens in zip(got, (
            [product_gen(two_j1, two_j2, w, path="kron") for w in which],
            [block_gen(two_j1, two_j2, w).flatten() for w in which],
        )):
            for terms, x in zip(side, gens):
                rows, cols, vals = x.triplets()
                assert terms == dict(zip(zip(rows.tolist(), cols.tolist()),
                                         vals.tolist()))


def test_intertwining_memory_stays_far_below_a_dense_matrix():
    s = build_S(40, 40)  # order 1681
    n = s.layout.total
    tracemalloc.start()
    try:
        rep = verify_intertwining(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed(1e-10)
    assert peak < n * n * np.dtype(complex).itemsize / 8


def test_intertwining_builds_no_dense_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("dense matrix formed")

    monkeypatch.setattr(XSum, "to_numpy", refuse)
    rep = verify_intertwining(build_S(4, 4))
    assert rep.passed(1e-10)


def test_closed_form_miss_raises_instead_of_falling_back(monkeypatch, capsys):
    # every general entry (k >= 2, r >= 2) reads sqrt(1/3): the parts
    # (sign, num, den)
    cell_parts = kronx.cg._cell_parts

    def miss(two_j1, two_j2, k, r, alpha):
        sign, num, den = cell_parts(two_j1, two_j2, k, r, alpha)
        general = (k >= 2) & (r >= 2)
        return (np.where(general, 1, sign), np.where(general, 1, num),
                np.where(general, 3, den))

    monkeypatch.setattr(kronx.cg, "_cell_parts", miss)
    with pytest.raises(VerificationError, match="max residual") as exc:
        build_S(2, 2)
    assert not isinstance(exc.value, ValueError)
    assert run(["cg", "--twoj1", "2", "--twoj2", "2"]) == EX_VERIFY
    assert "max residual" in capsys.readouterr().err


@pytest.mark.parametrize("two_j1", range(0, 5))
@pytest.mark.parametrize("two_j2", range(0, 5))
def test_ladder_oracle_matches_closed_form(two_j1, two_j2):
    s = build_S(two_j1, two_j2)
    o = ladder_oracle_S(two_j1, two_j2)
    diff = s.matrix.to_numpy().real - o.matrix.to_numpy().real
    assert np.abs(diff).max() < 1e-10


@pytest.mark.parametrize("two_j1", range(0, 5))
@pytest.mark.parametrize("two_j2", range(0, 5))
def test_ladder_oracle_columns_orthonormal(two_j1, two_j2):
    m = ladder_oracle_S(two_j1, two_j2).matrix.to_numpy().real
    n = m.shape[0]
    assert np.abs(m.T @ m - np.eye(n)).max() < 1e-12


@pytest.mark.parametrize("two_j1", range(0, 6))
@pytest.mark.parametrize("two_j2", range(0, 6))
def test_topmost_entry_of_each_block_positive(two_j1, two_j2):
    s = build_S(two_j1, two_j2)
    lay = s.layout
    for k in range(1, lay.n0 + 1):
        top = s.entry(k, lay.z(k - 1) + 1)  # alpha = 0 row is p = k
        assert top and float(top) > 0


def test_cg_coefficient_examples():
    assert cg_coefficient(1, 1, 1, -1, 2, 0) == H("1/2")
    assert cg_coefficient(1, 1, 1, -1, 0, 0) == H("1/2")
    assert cg_coefficient(1, -1, 1, 1, 0, 0) == -H("1/2")
    assert cg_coefficient(0, 0, 0, 0, 0, 0) == 1
    assert not cg_coefficient(1, 1, 1, 1, 2, 0)


def test_cg_coefficient_validation():
    with pytest.raises(DomainError):
        cg_coefficient(1, 0, 1, 1, 2, 1)  # m1 parity off
    with pytest.raises(DomainError):
        cg_coefficient(1, 3, 1, -1, 2, 2)  # |m1| > j1
    with pytest.raises(DomainError):
        cg_coefficient(1, 1, 1, 1, 4, 2)  # J beyond j1+j2
    with pytest.raises(DomainError):
        cg_coefficient(1, 1, 1, -1, 1, 0)  # J parity off
    # no cap on 2j itself: this S has order 201
    assert cg_coefficient(200, 0, 0, 0, 200, 0) == 1


def test_build_S_at_large_twoj_verifies():
    s = build_S(100, 2)
    assert s.layout.total == 303
    assert s.is_exact()
    assert verify_intertwining(s).passed(1e-10)


def test_cg_coefficient_limited_by_the_order_cap(monkeypatch):
    monkeypatch.delenv("KRONX_MAX_DIM", raising=False)
    with pytest.raises(ResourceError):
        cg_coefficient(64, 64, 64, 64, 128, 128)  # S has order 65^2 = 4225


def test_ladder_oracle_over_order_cap_fails_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the order check")

    monkeypatch.setenv("KRONX_MAX_DIM", "24")
    monkeypatch.setattr(kronx.cg, "product_gen", refuse)
    monkeypatch.setattr(kronx.cg.np, "zeros", refuse)
    with pytest.raises(ResourceError):
        ladder_oracle_S(4, 4)  # order 25


def test_cg_against_symbolic_reference():
    sympy = pytest.importorskip("sympy")
    from sympy.physics.quantum.cg import CG

    half = sympy.Rational(1, 2)
    for two_j1 in range(0, 4):
        for two_j2 in range(0, 4):
            for two_m1 in range(-two_j1, two_j1 + 1, 2):
                for two_m2 in range(-two_j2, two_j2 + 1, 2):
                    two_m = two_m1 + two_m2
                    lo = abs(two_j1 - two_j2)
                    for two_j in range(lo, two_j1 + two_j2 + 1, 2):
                        if abs(two_m) > two_j:
                            continue
                        ours = cg_coefficient(
                            two_j1, two_m1, two_j2, two_m2, two_j, two_m
                        )
                        ref = CG(
                            two_j1 * half,
                            two_m1 * half,
                            two_j2 * half,
                            two_m2 * half,
                            two_j * half,
                            two_m * half,
                        ).doit()
                        got = float(ours) if ours else 0.0
                        assert abs(got - float(ref)) < 1e-12


def _assert_exact_against_sympy(pairs, samples: int, rng: random.Random):
    """cg_coefficient on random admissible entries of each (2j1, 2j2)
    equals sympy's CG exactly: the sign, and the radicand as CG^2."""
    sympy = pytest.importorskip("sympy")
    from sympy.physics.quantum.cg import CG

    half = sympy.Rational(1, 2)
    for two_j1, two_j2 in pairs:
        for _ in range(samples):
            two_m1 = rng.randrange(-two_j1, two_j1 + 1, 2)
            two_m2 = rng.randrange(-two_j2, two_j2 + 1, 2)
            two_m = two_m1 + two_m2
            lo = max(abs(two_j1 - two_j2), abs(two_m))
            lo += (two_j1 + two_j2 - lo) % 2
            two_j = rng.randrange(lo, two_j1 + two_j2 + 1, 2)
            args = (two_j1, two_m1, two_j2, two_m2, two_j, two_m)
            ours = cg_coefficient(*args)
            ref = CG(*(a * half for a in args)).doit()
            if ref == 0:
                assert not ours
                continue
            assert ours.sign == (1 if ref > 0 else -1)
            rad = ours.radicand
            assert sympy.Rational(rad.numerator, rad.denominator) == ref**2


def test_cg_exact_against_symbolic_reference_at_bench_sizes():
    pairs = [(a, b) for a in (10, 12, 14) for b in (10, 12, 14)]
    _assert_exact_against_sympy(pairs, 40, random.Random(20131))


@pytest.mark.parametrize(("two_j1", "two_j2"), [
    *((a, b) for a in range(0, 9) for b in range(0, 9)),
    (12, 12), (14, 3), (3, 14), (20, 20),
])
def test_cg_table_matches_per_entry_coefficients(two_j1, two_j2):
    """cg_table walks S in storage order; the rows must come out in the
    order of this (2J, 2M, 2m1) loop, with the very scalars that
    cg_coefficient returns."""
    want = []
    for two_j in range(two_j1 + two_j2, abs(two_j1 - two_j2) - 2, -2):
        for two_m in range(two_j, -two_j - 2, -2):
            for two_m1 in range(two_j1, -two_j1 - 2, -2):
                two_m2 = two_m - two_m1
                if abs(two_m2) > two_j2:
                    continue
                c = cg_coefficient(
                    two_j1, two_m1, two_j2, two_m2, two_j, two_m
                )
                if c:
                    want.append((two_j, two_m, two_m1, two_m2, c))

    def typed(rows):
        return [(row[:4], type(row[4]), repr(row[4])) for row in rows]

    assert typed(cg_table(two_j1, two_j2)) == typed(want)


def test_cg_table_half_half():
    rows = cg_table(1, 1)
    assert len(rows) == 6
    groups = sorted({(tj, tm) for (tj, tm, _, _, _) in rows}, reverse=True)
    assert groups == [(2, 2), (2, 0), (2, -2), (0, 0)]
    by_cell = {(tj, tm, tm1): c for (tj, tm, tm1, _, c) in rows}
    assert by_cell[(2, 2, 1)] == 1
    assert by_cell[(0, 0, 1)] == H("1/2")
    assert by_cell[(0, 0, -1)] == -H("1/2")


def test_term_ratio_sum_matches_direct_sum():
    # every general entry (k, r >= 2) of every S up to 2j = 16
    count = 0
    for two_j1 in range(0, 17):
        for two_j2 in range(0, 17):
            for alpha, beta, k, r in admissible(layout(two_j1, two_j2)):
                if k == 1 or r == 1:
                    continue
                args = (two_j1, two_j2, r - 1, alpha, beta)
                assert kronx.cg._alternating_sum(*args) == direct_alternating_sum(*args)
                count += 1
    assert count > 100_000


@pytest.mark.parametrize("two_j", [30, 40])
def test_cg_exact_against_symbolic_reference_past_int64(two_j):
    # the radicand parts of S at 2j1 = 2j2 = 40 pass int64, so its
    # columns hold Python ints
    if two_j == 40:
        vals = build_S(two_j, two_j).matrix.columns().vals
        assert vals[1].dtype == object and vals[2].dtype == object
    _assert_exact_against_sympy([(two_j, two_j)], 12, random.Random(two_j))


def test_cold_lookup_builds_no_term_dict(monkeypatch):
    def refuse(self):
        raise AssertionError("term dict built")

    two_j1, two_j2 = 5, 4
    args = [
        (two_j1, m1, two_j2, m2, tj, m1 + m2)
        for m1 in range(-two_j1, two_j1 + 1, 2)
        for m2 in range(-two_j2, two_j2 + 1, 2)
        for tj in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2)
        if abs(m1 + m2) <= tj
    ]
    kronx.cg._cached_S.cache_clear()
    s = build_S(two_j1, two_j2)
    n = s.layout.total
    with monkeypatch.context() as m:
        m.setattr(Columns, "terms", refuse)
        cold = [cg_coefficient(*a) for a in args]
        cells = [s.entry(p, q) for q in range(1, n + 1) for p in range(1, n + 1)]
    hot = [cg_coefficient(*a) for a in args]

    def typed(values):
        return [(type(c), repr(c)) for c in values]

    # the dict route: the term dict of the same S
    terms = s.matrix.term_map()
    want = [terms.get((p, q), 0) for q in range(1, n + 1) for p in range(1, n + 1)]
    assert typed(cells) == typed(want)
    assert typed(hot) == typed(cold)
    # and cg_table's rows, by their labels
    listed = {(tj, m1, m2): c for tj, _tm, m1, m2, c in cg_table(two_j1, two_j2)}
    assert typed(cold) == typed(listed.get((a[4], a[1], a[3]), 0) for a in args)


def test_cg_table_returns_a_new_list_each_call():
    first = cg_table(3, 2)
    second = cg_table(3, 2)
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    assert cg_table(3, 2) == second
