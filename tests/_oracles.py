"""Brute-force reference implementations shared by the test modules.

Everything here is deliberately naive: dense block replication for tensor
products, dense matrix products, textbook eigen-decompositions.  The point
is independence from the index arithmetic under test.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from kronx.exactnum import (DomainError, SqrtRational, ceil_ratio, scalar_add,
                            scalar_conj, scalar_mul)
from kronx.hubbard import (
    Columns,
    DimensionError,
    XSum,
    _summed,
    check_order,
    dagger,
    from_dense,
    identity,
    to_dense,
    x_op,
    xsum_mul,
)
from kronx.kron import kron_many
from kronx.models import hubbard_site_ops
from kronx.fourier import _log2_exact
from kronx.perm import Permutation, perm_matrix
from kronx.su2 import Irrep, ladder_coeff, pauli, weight


def dense_kron(a: list, b: list) -> list:
    """Definition-style block replication [a_ij * B]."""
    n, m = len(a), len(b)
    out = [[0] * (n * m) for _ in range(n * m)]
    for i in range(n):
        for j in range(n):
            if a[i][j] == 0:
                continue
            for k in range(m):
                for l in range(m):
                    out[i * m + k][j * m + l] = a[i][j] * b[k][l]
    return out


def dense_kron_many(mats: list) -> list:
    out = mats[0]
    for m in mats[1:]:
        out = dense_kron(out, m)
    return out


def dense_mul(a: list, b: list) -> list:
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def det_dense(m) -> Fraction:
    """Exact determinant of a rational matrix, fraction-free elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    for row in a:
        if len(row) != n:
            raise DimensionError("determinant input must be square")
    if n == 0:
        return Fraction(1)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def allclose(a: XSum, b: XSum, tol: float = 1e-10) -> bool:
    """Max-norm comparison for float-valued sums (exact eq is operator ==)."""
    if a.order != b.order:
        return False
    keys = set(a._terms) | set(b._terms)
    return all(
        abs(complex(a.coeff(i, j)) - complex(b.coeff(i, j))) <= tol
        for (i, j) in keys
    )


def dense_dft_reconstruction_error(n: int) -> float:
    """max |F_n - stages P^T| with the stages multiplied densely, an np.exp
    DFT and a bit reversal built from binary strings."""
    from kronx.fourier import cooley_tukey

    fac = cooley_tukey(n)
    prod = np.eye(n, dtype=complex)
    for f in fac.factors:
        prod = prod @ f.to_numpy()
    t = n.bit_length() - 1
    rev = [int(format(p, f"0{t}b")[::-1], 2) for p in range(n)]
    perm = np.zeros((n, n))
    perm[np.arange(n), rev] = 1
    idx = np.arange(n)
    # reduce the exponent mod n first: exp of the unreduced angle is off by
    # ~1e-13 at n = 256, more than the stages' own error
    dft = np.exp(2j * np.pi * (np.outer(idx, idx) % n) / n)
    return float(np.max(np.abs(prod @ perm.T - dft)))


def per_term_matrix_obj(x: XSum) -> dict:
    """The JSON object of an exact sum written one term at a time: kind
    sqrt when some coefficient is a SqrtRational, a rational q then read as
    sign(q) sqrt(q^2); kind rational otherwise, an int v read as v/1."""
    kind = "rational"
    for c in x.values():
        if isinstance(c, SqrtRational):
            kind = "sqrt"
        elif not isinstance(c, (int, Fraction)):
            raise TypeError(f"{c!r} is not an exact scalar")
    terms = []
    for (i, j), c in x.items():
        if kind == "rational":
            terms.append([i, j, c.numerator, c.denominator])
        elif isinstance(c, SqrtRational):
            r = c.radicand
            terms.append([i, j, c.sign, r.numerator, r.denominator])
        else:
            sign = 1 if c > 0 else -1
            terms.append([i, j, sign, c.numerator**2, c.denominator**2])
    return {"order": x.order, "kind": kind, "terms": terms}


def delta_products(a: XSum, b: XSum) -> list:
    """The ((i, l), a_ij * b_jl) products of the delta rule one term pair at
    a time: a's terms in storage order, each met by b's terms of its
    column's row in storage order."""
    if a.order != b.order:
        raise DimensionError(f"order mismatch: {a.order} vs {b.order}")
    rows_of_b: dict = {}
    for (k, l), c in b.term_map().items():
        rows_of_b.setdefault(k, []).append((l, c))
    return [((i, l), scalar_mul(ca, cb)) for (i, j), ca in a.term_map().items()
            for l, cb in rows_of_b.get(j, ())]


def dagger_by_dict(a: XSum, mode: str) -> XSum:
    """hubbard.dagger one term at a time, over the term dict in storage
    order: transpose swaps the subscripts, conjugate applies scalar_conj."""
    out = {}
    for (i, j), c in a.term_map().items():
        key = (j, i) if mode in ("transpose", "adjoint") else (i, j)
        out[key] = scalar_conj(c) if mode in ("conjugate", "adjoint") else c
    return XSum._trusted(a.order, out)


def trace_by_dict(a: XSum):
    """The diagonal terms added from 0 by scalar_add, in storage order."""
    t = 0
    for (i, j), c in a.term_map().items():
        if i == j:
            t = scalar_add(t, c)
    return t


def triplets_by_dict(a: XSum) -> tuple:
    """XSum.triplets from the term dict: 0-based rows and columns, and
    complex() of each coefficient, in storage order."""
    terms = a.term_map()
    vals = np.fromiter(map(complex, terms.values()), complex, len(terms))
    cells = np.fromiter(itertools.chain.from_iterable(terms), np.intp, 2 * len(terms))
    cells -= 1
    return cells[0::2], cells[1::2], vals


def per_term_product(a: XSum, b: XSum) -> XSum:
    """The operator product one term pair at a time: delta_products summed
    per cell in their order, a zero product skipped and a cell whose sum
    cancels deleted, so that a later product starts it again."""
    acc: dict = {}
    for key, c in delta_products(a, b):
        if not c:
            continue
        if key in acc:
            c = scalar_add(acc[key], c)
            if not c:
                del acc[key]
                continue
        acc[key] = c
    return XSum._trusted(a.order, acc)


# --- term sums as they were written before hubbard._summed -------------------
# Copies of the hand-written summing loops that hubbard._summed replaced,
# kept as references for the fold.  One difference is by design: the
# product loop kept a cancelled cell at 0 until the end, so a later term
# added to that 0 (scalar_add(0, c)), where _summed starts the cell again
# from c.

def product_by_hand(a: XSum, b: XSum) -> XSum:
    """xsum_mul's per-term route with its own summing loop."""
    rows_of_b: dict = {}
    for (k, l), c in b._terms.items():
        rows_of_b.setdefault(k, []).append((l, c))
    acc: dict = {}
    for (i, j), ca in a._terms.items():
        for l, cb in rows_of_b.get(j, ()):
            c = scalar_mul(ca, cb)
            key = (i, l)
            if key in acc:
                c = scalar_add(acc[key], c)
            acc[key] = c
    # subscripts come from the operands; only the sums can be zero
    return XSum._trusted(a.order, {key: c for key, c in acc.items() if c})


def linear_by_hand(op: str, a: XSum, other) -> XSum:
    """xsum_linear with its own summing loop."""
    if op == "scale":
        c = other
        if not c:
            return XSum(a.order)
        return XSum(
            a.order,
            {k: scalar_mul(c, v) for k, v in a._terms.items()},
        )
    if op not in ("add", "sub"):
        raise ValueError(f"unknown linear op {op!r}")
    b: XSum = other
    if a.order != b.order:
        raise DimensionError(f"order mismatch: {a.order} vs {b.order}")
    acc = dict(a._terms)
    for key, c in b._terms.items():
        if op == "sub":
            c = -c
        if key in acc:
            c = scalar_add(acc[key], c)
        acc[key] = c
    return XSum(a.order, acc)


def product_ceiling_by_hand(two_j1: int, two_j2: int, which: str) -> XSum:
    """coupling._product_ceiling with its own sum of the two bands."""
    if which == "minus":
        return dagger(product_ceiling_by_hand(two_j1, two_j2, "plus"), "transpose")
    r1, r2 = Irrep(two_j1), Irrep(two_j2)
    n1, n2 = r1.dim, r2.dim
    n = n1 * n2
    terms = {}
    if which == "3":
        for p in range(1, n + 1):
            pp = ceil_ratio(p, n2)
            m = weight(r1, pp) + weight(r2, p + n2 - n2 * pp)
            if m:
                terms[(p, p)] = m
        return XSum(n, terms)
    # plus: a stride-n2 band from the first factor and a stride-1 band
    # from the second; the in-block boundary coefficients c_{n2} vanish
    # on their own since c_k^2 = k(2j+1-k).
    for p in range(1, n2 * (n1 - 1) + 1):
        c = ladder_coeff(r1, ceil_ratio(p, n2))
        if c:
            terms[(p, p + n2)] = c
    for p in range(1, n - 1 + 1):
        pp = ceil_ratio(p, n2)
        c = ladder_coeff(r2, p + n2 - n2 * pp)
        if c:
            key = (p, p + 1)
            terms[key] = terms.get(key, 0) + c
    return XSum(n, terms)


def factor_perm_by_hand(pi: Permutation, n: int) -> Permutation:
    """perm.factor_perm one flat index at a time: split q into its digits,
    rearrange them, and join them again."""
    p = pi.degree
    if n < 1:
        raise ValueError("factor order must be at least 1")
    total = n**p
    check_order(total)
    images = []
    for q in range(1, total + 1):
        digits = _digits(q, n, p)
        rearranged = tuple(digits[pi(s) - 1] for s in range(1, p + 1))
        images.append(_flat(rearranged, n))
    return Permutation(tuple(images))


def _digits(q: int, n: int, p: int) -> tuple:
    """Per-factor indices of flat index q in an n^p product space."""
    out = [0] * p
    u = q - 1
    for r in range(p - 1, -1, -1):
        out[r] = u % n + 1
        u //= n
    return tuple(out)


def _flat(digits, n: int) -> int:
    q = 0
    for d in digits:
        q = q * n + (d - 1)
    return q + 1


def bit_reversal_by_hand(n: int) -> Permutation:
    """Image of p reverses the t-bit binary expansion of p-1 (n = 2^t), one
    bit at a time."""
    t = _log2_exact(n)
    images = []
    for p in range(1, n + 1):
        v = p - 1
        r = 0
        for _ in range(t):
            r = (r << 1) | (v & 1)
            v >>= 1
        images.append(r + 1)
    return Permutation(tuple(images))


def group_average_by_hand(p: int, n: int, signed: bool) -> XSum:
    """The (anti)symmetrizer by its definition: (1/p!) times the running
    sum over all p! permutations pi of (parity of pi, if signed) times the
    matrix of factor_perm_by_hand(pi, n)."""
    if p < 1 or n < 1:
        raise ValueError("rank and order must be at least 1")
    total = XSum(n**p)  # raises ResourceError early when n^p over cap
    weight = Fraction(1, math.factorial(p))
    for images in itertools.permutations(range(1, p + 1)):
        pi = Permutation(images)
        term = perm_matrix(factor_perm_by_hand(pi, n))
        if signed and pi.parity() < 0:
            term = term.scale(-1)
        total = total + term
    return total.scale(weight)


def as_listed(x: XSum) -> list:
    """The terms in storage order with each coefficient's type and repr."""
    return [(key, type(c), repr(c)) for key, c in x.term_map().items()]


def column_copy(x: XSum) -> XSum:
    """x held as Columns only, its term dict not yet built: integer
    columns for one exact kind, the OBJECT kind's scalars otherwise."""
    return XSum._from_columns(x.order, Columns.of_terms(x.term_map()))


def dict_copy(x: XSum) -> XSum:
    """x held as a term dict only, its columns not yet built."""
    return XSum(x.order, x.term_map())


def kron_oracle(a: XSum, b: XSum) -> XSum:
    return from_dense(dense_kron(to_dense(a), to_dense(b)))


def random_rational_xsum(rng: random.Random, n: int, density: float = 0.5) -> XSum:
    terms = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rng.random() < density:
                terms[(i, j)] = Fraction(
                    rng.randint(-5, 5), rng.randint(1, 4)
                )
    return XSum(n, terms)


def random_complex_xsum(rng: random.Random, n: int, density: float = 0.5) -> XSum:
    terms = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rng.random() < density:
                terms[(i, j)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return XSum(n, terms)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


@functools.lru_cache(maxsize=None)
def _dense_generators(two_j1: int, two_j2: int) -> tuple:
    """(J_a, Jtilde_a) as read-only dense arrays for a = 3, plus, minus:
    product_gen through kron and the flattened block_gen."""
    from kronx.coupling import block_gen, product_gen

    pairs = tuple(
        (product_gen(two_j1, two_j2, which).to_numpy(),
         block_gen(two_j1, two_j2, which).flatten().to_numpy())
        for which in ("3", "plus", "minus")
    )
    for pair in pairs:
        for a in pair:
            a.flags.writeable = False
    return pairs


def dense_intertwining_residuals(s) -> dict:
    """max |J_a S - S Jtilde_a| for a = 3, plus, minus, from dense numpy
    products of the generators and S."""
    lay = s.layout
    sm = s.matrix.to_numpy()
    return {
        which: float(np.abs(a @ sm - sm @ b).max())
        for which, (a, b) in zip(
            ("3", "plus", "minus"), _dense_generators(lay.twoJ1, lay.twoJ2)
        )
    }


def admissible(lay):
    """(alpha, beta, k, r) of every cell S may fill: block k, row r, and
    each alpha with 1 <= beta = k + r - 1 - alpha <= n2."""
    two_j1, n2 = lay.twoJ1, lay.n2
    for k, d in enumerate(lay.dims, start=1):
        for r in range(1, d + 1):
            top = k + r - 1
            for alpha in range(max(0, top - n2), min(two_j1, top - 1) + 1):
                yield alpha, top - alpha, k, r


def direct_alternating_sum(two_j1: int, two_j2: int, rr: int, alpha: int,
                           beta: int) -> int:
    """s_general's F by its definition: every term of
    sum_s (-1)^s C(rr,s) (alpha)_s (beta-1)_{rr-s} falling
                   * (2j1-alpha+1)_s (2j2-beta+2)_{rr-s} rising
    from its five factors, over every s where none of them vanishes."""
    f = 0
    for s in range(max(0, rr - beta + 1), min(rr, alpha) + 1):
        term = (
            math.comb(rr, s)
            * math.perm(alpha, s)
            * math.perm(beta - 1, rr - s)
            * math.perm(two_j1 - alpha + s, s)
            * math.perm(two_j2 - beta + 1 + rr - s, rr - s)
        )
        f += -term if s % 2 else term
    return f


def _rising(x: int, n: int) -> int:
    """x(x+1)...(x+n-1), one factor at a time."""
    out = 1
    for s in range(n):
        out = out * (x + s)
    return out


def termwise_hyp3f2(r: int, b: int, c: int, d: int, e: int) -> Fraction:
    """3F2(-r, -b, c; d, -e; 1) term by term: each term's Pochhammer
    products and factorial anew, summed as Fractions, skipping
    terms whose numerator vanishes and raising DomainError at a pole
    under a live term."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    total = Fraction(0)
    for s in range(r + 1):
        num = (
            _rising(-r, s)
            * _rising(-b, s)
            * _rising(c, s)
        )
        if num == 0:
            continue
        den = _rising(d, s) * _rising(-e, s) * math.factorial(s)
        if den == 0:
            raise DomainError(
                f"3F2 lower parameter vanishes at term s={s} "
                f"(d={d}, e={e})"
            )
        total += Fraction(num) / den
    return total


def full_assembly_terms(two_j1: int, two_j2: int) -> dict:
    """S's nonzero terms, every admissible cell from its own closed-form
    call (no reflection), in block, row, alpha order."""
    from kronx.cg import s_first_block, s_general, s_rone
    from kronx.coupling import layout

    lay = layout(two_j1, two_j2)
    terms = {}
    for alpha, beta, k, r in admissible(lay):
        if k == 1:
            c = s_first_block(two_j1, two_j2, alpha, beta)
        elif r == 1:
            c = s_rone(two_j1, two_j2, k, alpha, beta)
        else:
            c = s_general(two_j1, two_j2, k, r, alpha, beta)
        if c:
            terms[(alpha * lay.n2 + beta, lay.z(k - 1) + r)] = c
    return terms


def per_entry_build(two_j1: int, two_j2: int) -> tuple:
    """build_S's stored arrays (rows, cols, (signs, nums, dens), cells),
    unverified, one entry at a time: each top-half cell from its own
    per-entry integer kernel (_first_block_parts at k = 1, _rone_parts at
    r = 1, _general_parts otherwise), zeros skipped, and each block's
    Condon-Shortley reflection by a loop over the blocks."""
    from kronx.cg import _first_block_parts, _general_parts, _rone_parts
    from kronx.coupling import layout
    from kronx.hubbard import int_column

    lay = layout(two_j1, two_j2)
    n, n2 = lay.total, lay.n2
    rows, cols, signs, nums, dens, spans = [], [], [], [], [], []
    for k, (d, z) in enumerate(zip(lay.dims, (0,) + lay.offsets), start=1):
        first = half = len(rows)
        for r in range(1, (d + 1) // 2 + 1):
            top = k + r - 1
            for alpha in range(max(0, top - n2), min(two_j1, top - 1) + 1):
                beta = top - alpha
                if k == 1:
                    sign, num, den = _first_block_parts(two_j1, two_j2, alpha, beta)
                elif r == 1:
                    sign, num, den = _rone_parts(two_j1, two_j2, k, alpha, beta)
                else:
                    sign, num, den = _general_parts(
                        two_j1, two_j2, k, r, alpha, beta)
                if num:
                    rows.append(alpha * n2 + beta)
                    cols.append(z + r)
                    signs.append(sign)
                    nums.append(num)
                    dens.append(den)
            if r == d // 2:
                half = len(rows)
        spans.append((first, half, len(rows), z, d, k))
    rows, cols, signs = (np.array(v, dtype=np.int64) for v in (rows, cols, signs))
    nums, dens = int_column(nums), int_column(dens)
    # row p -> n + 1 - p, column z + r -> z + d + 1 - r, sign (-1)^(k-1)
    take, out_rows, out_cols, out_signs = [], [], [], []
    for first, half, end, z, d, k in spans:
        top, back = np.arange(first, end), np.arange(half - 1, first - 1, -1)
        take += [top, back]
        out_rows += [rows[top], n + 1 - rows[back]]
        out_cols += [cols[top], 2 * z + d + 1 - cols[back]]
        out_signs += [signs[top], signs[back] if k % 2 else -signs[back]]
    take = np.concatenate(take)
    out_rows, out_cols = np.concatenate(out_rows), np.concatenate(out_cols)
    return (out_rows, out_cols,
            (np.concatenate(out_signs), nums[take], dens[take]),
            (out_cols - 1) * n + out_rows)


def site_embed(op: XSum, j: int, n: int) -> XSum:
    """I x ... x op x ... x I with op in slot j of n, by kron_many."""
    if not 1 <= j <= n:
        raise IndexError(f"site {j} outside 1..{n}")
    d = op.order
    factors = [identity(d)] * (j - 1) + [op] + [identity(d)] * (n - j)
    return kron_many(factors)


def heisenberg_by_site_embed(params, periodic: bool = True) -> XSum:
    """heisenberg_h composed bond by bond from site_embed, xsum_mul and
    sums: the spin cross-check of the models' digit kernel.  sy x sy is
    taken as the exact real product -(s+ - s-) x (s+ - s-), since pauli("y")
    would bring in +-i; each bond is summed before it joins the total."""
    n = params.sites
    bonds = [(j, j % n + 1) for j in range(1, (n if periodic else n - 1) + 1)]
    iy = x_op(2, 1, 2) - x_op(2, 2, 1)  # i sy
    axes = [(coupling, s) for coupling, s in ((params.jx, pauli("x")),
                                              (-params.jy, iy),
                                              (params.jz, pauli("z")))
            if coupling]
    total = XSum(2**n, {})
    for a, b in bonds:
        bond = XSum(2**n, {})
        for coupling, s in axes:
            term = xsum_mul(site_embed(s, a, n), site_embed(s, b, n))
            bond = bond + term.scale(coupling)
        total = total + bond
    return total.scale(Fraction(-1, 2))


def dense_hubbard_jw(sites: int, eps: float, u: float, hops: dict):
    """Dense Hubbard Hamiltonian sum eps n_k + U n_up n_dn + t_ij (c+_is c_js
    + h.c.) on 2*sites modes ordered 1 up, 1 down, 2 up, ..., with the
    textbook Jordan-Wigner annihilators c_k = Z x ... x Z x a x I x ... x I
    (a = |0><1|, Z = diag(1, -1) on (empty, occupied))."""
    modes = 2 * sites
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    z = np.diag([1.0, -1.0])
    c = []
    for k in range(modes):
        out = np.eye(1)
        for slot in range(modes):
            factor = z if slot < k else a if slot == k else np.eye(2)
            out = np.kron(out, factor)
        c.append(out)
    num = [ck.T @ ck for ck in c]
    h = eps * sum(num)
    h = h + u * sum(num[2 * i] @ num[2 * i + 1] for i in range(sites))
    for (i, j), t in hops.items():
        for spin in (0, 1):
            k, l = 2 * (i - 1) + spin, 2 * (j - 1) + spin
            h = h + t * (c[k].T @ c[l] + c[l].T @ c[k])
    return h


def site_sum_by_parity_rule(n: int, d: int, terms, parity=None) -> XSum:
    """The models' site-sum kernel with the fermion sign as a rule of the
    kernel, not a factor of the term: for each column q the term's factors
    act right to left on a copy of q's digits, a factor may meet a site an
    earlier one changed, and with a level parity an entry that changes the
    parity at site s picks up the sign (-1)^(odd levels on sites < s) of
    the state it acts on.  Contributions reach _summed in the same order
    as the production kernel's."""
    order = d**n
    check_order(order)
    plan = []
    for coef, factors in terms:
        steps = []
        for site, op in reversed(factors):
            col = {c: (r, scalar_mul(1, v)) for (r, c), v in op.items()}
            steps.append((site - 1, d ** (n - site), col))
        plan.append((coef, steps))

    def contributions():
        for q in range(1, order + 1):
            digits = _digits(q, d, n)
            for coef, steps in plan:
                state, p, amp = list(digits), q, None
                for s, stride, col in steps:
                    if state[s] not in col:
                        break
                    r, v = col[state[s]]
                    if (parity and parity[r - 1] != parity[state[s] - 1]
                            and sum(parity[x - 1] for x in state[:s]) % 2):
                        v = -v
                    amp = v if amp is None else scalar_mul(v, amp)
                    p += (r - state[s]) * stride
                    state[s] = r
                else:
                    yield (p, q), scalar_mul(coef, amp)

    return XSum._trusted(order, _summed(contributions()))


def hubbard_by_parity_rule(params) -> XSum:
    """hubbard_h with each hop c+_i c_j a two-factor term, its
    Jordan-Wigner sign left to site_sum_by_parity_rule's level parity
    (0, 1, 1, 0) on (0, +, -, 2)."""
    ops = hubbard_site_ops()
    onsite = XSum(4, {(1, 1): params.e0, (2, 2): params.e1,
                      (3, 3): params.e1, (4, 4): params.e2})
    terms = [(1, ((i, onsite),)) for i in range(1, params.sites + 1)]
    for (i, j), tij in params.t.items():
        for spin in ("up", "dn"):
            cdag, c = ops[f"cdag_{spin}"], ops[f"c_{spin}"]
            terms += [(tij, ((i, cdag), (j, c))), (tij, ((j, cdag), (i, c)))]
    return site_sum_by_parity_rule(params.sites, 4, terms, (0, 1, 1, 0))


def free_fermion_levels(modes) -> np.ndarray:
    """The many-body levels of free fermions in the given mode energies:
    the sorted multiset of all 2^m subset sums, one per occupation
    pattern, the empty pattern at 0."""
    levels = [0.0]
    for e in modes:
        levels += [level + e for level in levels]
    return np.sort(levels)


def bethe_xxx_ground_energy(sites: int) -> float:
    """Ground energy of H = sum_j S_j . S_{j+1} on a ring of an even number
    of sites, by the Bethe ansatz (Bethe 1931; Karbach and Mueller,
    arXiv:cond-mat/9809162): M = sites/2 real rapidities solve
    2 L atan(2 l_j) = 2 pi I_j + sum_k 2 atan(l_j - l_k) with
    I_j = -(M-1)/2 ... (M-1)/2, from l_j = tan(pi I_j / L)/2, and
    E = L/4 - sum_j 2/(4 l_j^2 + 1).  No matrix is built."""
    from scipy.optimize import fsolve

    m = sites // 2
    quanta = np.arange(m) - (m - 1) / 2

    def residual(lam):
        pair = 2 * np.arctan(lam[:, None] - lam[None, :]).sum(axis=1)
        return 2 * sites * np.arctan(2 * lam) - 2 * math.pi * quanta - pair

    lam = fsolve(residual, np.tan(math.pi * quanta / sites) / 2, xtol=1e-13)
    if np.abs(residual(lam)).max() > 1e-12:
        raise ArithmeticError(f"Bethe equations unsolved at L={sites}")
    return sites / 4 - float(np.sum(2 / (4 * lam**2 + 1)))


def exact_moments(x: XSum) -> tuple:
    """(Tr H, Tr H^2) of a rational H as Fractions, from its term list:
    the sum of the diagonal terms and sum_{p,q} H_pq H_qp."""
    terms = dict(x.items())
    trace = sum((Fraction(c) for (p, q), c in terms.items() if p == q),
                Fraction(0))
    square = sum((Fraction(c) * Fraction(terms.get((q, p), 0))
                  for (p, q), c in terms.items()), Fraction(0))
    return trace, square
