"""One summing rule for term sums: every route that can put two terms on one
cell sums through hubbard._summed.  The rule itself on each route, and the
folded routes against the hand-written loops they replaced."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from _oracles import (
    as_listed,
    delta_products,
    group_average_by_hand,
    linear_by_hand,
    per_term_product,
    product_by_hand,
    product_ceiling_by_hand,
)
from kronx.coupling import product_gen
from kronx.exactnum import ClosureError, SqrtRational, scalar_add
from kronx.hubbard import OBJECT, XSum, x_op, xsum_linear, xsum_mul
from kronx.models import _site_sum
from kronx.perm import antisymmetrizer, symmetrizer


def _typed(x: XSum) -> dict:
    return {key: (type(c), c) for key, c in x.term_map().items()}


def _listing(x: XSum) -> list:
    """The terms in (row, col) order with each coefficient's type and repr."""
    return sorted(as_listed(x))


# --- the rule on each route ---------------------------------------------------
# Each example puts on one cell two terms that cancel, on a second three
# terms of which the first two cancel, on a third a zero term after an int,
# and on a fourth a float after an int.  A kept zero would show in the
# second cell as Fraction(3) (Fraction(0) + 3), and an added zero in the
# third as the complex (2+0j).

RULE = {(1, 2): (int, 3), (2, 3): (int, 2), (2, 4): (complex, 2.5 + 0j)}


def test_xsum_sums_by_the_rule():
    x = XSum(5, [((1, 1), 1), ((1, 1), -1),
                 ((1, 2), Fraction(1, 2)), ((1, 2), Fraction(-1, 2)), ((1, 2), 3),
                 ((2, 3), 2), ((2, 3), 0j),
                 ((2, 4), 2), ((2, 4), 0.5)])
    assert _typed(x) == RULE


def test_per_term_product_sums_by_the_rule():
    # row 1 meets b's rows 1-3 and row 2 meets rows 4-5, so each cell's
    # products come from one row of a, in a's storage order; the float
    # entries put both operands in the OBJECT kind, whose products
    # scalar_mul makes
    a = XSum(5, {(1, 1): 1, (1, 2): 1, (1, 3): 1, (2, 4): 2, (2, 5): 1e-200})
    b = XSum(5, {(1, 1): 1, (2, 1): -1,
                 (1, 2): Fraction(1, 2), (2, 2): Fraction(-1, 2), (3, 2): 3,
                 (4, 3): 1, (5, 3): 1e-200,  # 1e-200 * 1e-200 underflows to 0j
                 (4, 4): Fraction(5, 4), (5, 4): 0.5})
    assert a.columns().kind == OBJECT
    got = xsum_mul(a, b)
    assert _typed(got) == RULE


def test_linear_operations_sum_by_the_rule():
    a = XSum(5, {(1, 1): 1, (1, 2): Fraction(1, 2), (2, 3): 2, (2, 4): 2})
    b = XSum(5, {(1, 1): -1, (1, 2): Fraction(-1, 2), (2, 4): 0.5})
    c = XSum(5, {(1, 2): 3})
    # two operands give a cell at most two terms, so the cell that cancels
    # in a + b starts again from c's term alone
    got = xsum_linear("add", xsum_linear("add", a, b), c)
    assert _typed(got) == RULE
    assert _typed(xsum_linear("sub", a, XSum(5, {(1, 1): 1}))) == {
        (1, 2): (Fraction, Fraction(1, 2)), (2, 3): (int, 2), (2, 4): (int, 2)}
    # a product that underflows to zero is skipped, not stored
    tiny = XSum(2, {(1, 1): 1e-200, (1, 2): 2})
    assert _typed(xsum_linear("scale", tiny, 1e-200)) == {(1, 2): (complex, 2e-200 + 0j)}


def test_scale_by_a_numpy_factor_stores_python_scalars():
    # numpy factors come from dense arrays; the products must be the ones
    # the matching Python factor gives, in type too
    a = XSum(3, {(1, 1): 2, (1, 2): Fraction(1, 3), (2, 2): SqrtRational(1, Fraction(2)),
                 (2, 3): 1.5, (3, 3): 2j})
    exact = XSum(3, {(1, 1): 2, (1, 2): Fraction(1, 3), (3, 3): -1})
    for x in (a, exact):
        for factor, same in ((np.int64(3), 3), (np.float32(0.5), 0.5),
                             (np.complex64(1j), 1j)):
            assert as_listed(x.scale(factor)) == as_listed(x.scale(same))
            assert as_listed(x * factor) == as_listed(x * same)


def test_site_sum_sums_by_the_rule():
    # one site of five levels: each term is coef * X^(i,j), so a cell's
    # contributions come in term order
    def term(coef, i, j):
        return coef, ((1, x_op(5, i, j)),)

    terms = [term(1, 1, 1), term(-1, 1, 1),
             term(Fraction(1, 2), 1, 2), term(Fraction(-1, 2), 1, 2), term(3, 1, 2),
             term(2, 2, 3), term(0j, 2, 3),
             term(2, 2, 4), term(0.5, 2, 4)]
    assert _typed(_site_sum(1, 5, terms)) == RULE


# --- the folded routes against the loops they replaced ------------------------

_LIKE = (SqrtRational(1, Fraction(2)), SqrtRational(-1, Fraction(8)),
         SqrtRational(1, Fraction(1, 2)))
_UNLIKE = SqrtRational(1, Fraction(3))


def _value(rng: random.Random, kinds: str):
    """A small value of one of kinds: i int, f Fraction, s a surd with
    radicand 2 q^2, u the surd sqrt(3), x float or complex, and +-1 as an
    int, a Fraction or a surd for c, which cancels often."""
    kind = rng.choice(kinds)
    if kind == "c":
        return rng.choice((1, Fraction(1), SqrtRational(1, Fraction(1)))) * rng.choice((1, -1))
    if kind == "i":
        return rng.choice((-2, -1, 1, 2))
    if kind == "f":
        return Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
    if kind == "s":
        return rng.choice(_LIKE) * rng.choice((1, -1))
    if kind == "u":
        return _UNLIKE
    return rng.choice((0.5, -1.25, 1j, 2 - 0.5j))


def _operand(rng: random.Random, n: int, kinds: str) -> XSum:
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    chosen = rng.sample(cells, rng.randint(0, len(cells)))
    return XSum(n, {cell: _value(rng, kinds) for cell in chosen})


# value kinds per case: one kind, mixed exact kinds, unlike radicands, floats
_KINDS = ("i", "f", "s", "c", "c", "if", "is", "ifs", "ifsu", "su", "ix", "fx",
          "ifsx")


def _outcome(f, *args):
    try:
        return f(*args)
    except ClosureError:  # surds with unlike radicands on one cell
        return ClosureError


def _restarted(products: list) -> set:
    """The cells whose running sum is zero before a later term."""
    run: dict = {}
    zeroed: set = set()
    out = set()
    for key, c in products:
        if key in zeroed:
            out.add(key)
        run[key] = scalar_add(run[key], c) if key in run else c
        if run[key]:
            zeroed.discard(key)
        else:
            zeroed.add(key)
    return out


def _agree(got, want, restarted=frozenset(), expect=None) -> bool:
    """Assert that got matches want; True when a restarted cell gives got
    another type or repr than want."""
    if want is ClosureError:
        assert got is ClosureError
        return False
    assert got.order == want.order
    assert got == want
    if not want.is_exact():
        return False  # float and complex values compare by ==
    keep = [t for t in _listing(got) if t[0] not in restarted]
    assert keep == [t for t in _listing(want) if t[0] not in restarted]
    if not restarted:
        return False
    # a cell that cancelled starts again from the next term, as the
    # reference loop of the rule gives it: the hand-written loop kept the zero,
    # so Fraction(0) + 1 made Fraction(1) where the rule keeps the int 1
    assert _listing(got) == _listing(expect)
    return _listing(got) != _listing(want)


def test_folded_routes_match_the_hand_written_sums():
    rng = random.Random(3535)
    seen = dict.fromkeys(("product", "collision", "restart", "retyped",
                          "closure", "linear", "ceiling", "average"), 0)
    for _ in range(1200):
        kinds = rng.choice(_KINDS)
        n = rng.randint(1, 4)
        a, b = _operand(rng, n, kinds), _operand(rng, n, kinds)
        want = _outcome(product_by_hand, a, b)
        got = _outcome(xsum_mul, a, b)
        restarted = set()
        expect = None
        if want is not ClosureError:
            products = delta_products(a, b)
            seen["collision"] += len(products) > len({k for k, _ in products})
            restarted = _restarted(products)
            expect = per_term_product(a, b)
        seen["restart"] += bool(restarted)
        seen["closure"] += want is ClosureError
        seen["retyped"] += _agree(got, want, restarted, expect)
        seen["product"] += 1
    for _ in range(300):
        kinds = rng.choice(_KINDS)
        n = rng.randint(1, 4)
        a, b = _operand(rng, n, kinds), _operand(rng, n, kinds)
        c = rng.choice((0, 0.0, _value(rng, kinds)))
        for op, other in (("add", b), ("sub", b), ("scale", c)):
            _agree(_outcome(xsum_linear, op, a, other),
                   _outcome(linear_by_hand, op, a, other))
            seen["linear"] += 1
    for two_j1 in range(12):
        for two_j2 in range(12):
            for which in ("3", "plus", "minus"):
                _agree(product_gen(two_j1, two_j2, which, "ceiling"),
                       product_ceiling_by_hand(two_j1, two_j2, which))
                seen["ceiling"] += 1
    for p in range(1, 5):
        for n in range(1, 4):
            _agree(symmetrizer(p, n), group_average_by_hand(p, n, False))
            _agree(antisymmetrizer(p, n), group_average_by_hand(p, n, True))
            seen["average"] += 2
    assert sum(seen[k] for k in ("product", "linear", "ceiling", "average")) >= 2000
    assert min(seen.values()) > 10, seen
