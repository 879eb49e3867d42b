"""Exact scalar layer: quotient lemmas, Pochhammer/binomial machinery,
terminating 3F2 sums, and the signed-square-root scalar."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronx.exactnum import (
    ClosureError,
    DomainError,
    SqrtRational,
    binomial,
    ceil_ratio,
    complex_float,
    floor_ratio,
    hyp3f2_terminating,
    pochhammer,
    scalar_add,
    scalar_mul,
)

from _oracles import termwise_hyp3f2


# --- ceiling / floor quotients ----------------------------------------------


def _ceil_oracle(p, n):
    # independent reference: smallest integer >= p/n via Fraction
    return math.ceil(Fraction(p, n))


def test_ceil_ratio_inputs_on_the_boundary():
    assert ceil_ratio(4, 4) == 1
    assert ceil_ratio(5, 4) == 2
    assert ceil_ratio(7, 2) == 4
    assert ceil_ratio(1, 1) == 1


def test_floor_ratio_small_cases():
    assert floor_ratio(0, 5) == 0
    assert floor_ratio(7, 2) == 3
    assert floor_ratio(8, 2) == 4


def test_zero_divisor_rejected():
    with pytest.raises(ValueError):
        ceil_ratio(3, 0)
    with pytest.raises(ValueError):
        floor_ratio(3, 0)
    with pytest.raises(ValueError):
        ceil_ratio(0, 3)


@given(st.integers(1, 10_000), st.integers(1, 64))
def test_ceil_ratio_matches_oracle(p, n):
    assert ceil_ratio(p, n) == _ceil_oracle(p, n)


@given(st.integers(1, 10_000), st.integers(1, 64))
def test_ceil_characterization(p, n):
    # c = ceil(p/n) is the unique integer with p/n <= c < p/n + 1
    c = ceil_ratio(p, n)
    x = Fraction(p, n)
    assert x <= c < x + 1


@given(st.integers(1, 10_000), st.integers(1, 64), st.integers(0, 50))
def test_ceil_integer_shift(p, n, k):
    assert ceil_ratio(p + k * n, n) == ceil_ratio(p, n) + k


@settings(max_examples=300)
@given(st.integers(1, 10_000), st.integers(1, 64), st.integers(1, 64))
def test_ceil_nesting(p, n, m):
    assert ceil_ratio(p, n * m) == ceil_ratio(ceil_ratio(p, n), m)


@given(st.integers(0, 10_000), st.integers(1, 64))
def test_ceil_floor_link(n, m):
    assert ceil_ratio(n + 1, m) == floor_ratio(n, m) + 1


# --- Pochhammer symbols and binomials ---------------------------------------


def test_pochhammer_values():
    assert pochhammer(3, 0) == 1
    assert pochhammer(3, 2, "rising") == 12
    assert pochhammer(3, 2, "falling") == 6
    assert pochhammer(Fraction(1, 2), 2, "rising") == Fraction(3, 4)


@given(st.integers(-10, 10), st.integers(0, 8))
def test_pochhammer_rising_falling_mirror(x, n):
    assert pochhammer(x, n, "rising") == pochhammer(x + n - 1, n, "falling")


def test_pochhammer_int_route_matches_the_loop():
    # ints take math.perm; a Fraction of the same value takes the loop
    for x in range(-30, 31):
        for n in range(13):
            for direction in ("rising", "falling"):
                got = pochhammer(x, n, direction)
                assert type(got) is int
                assert got == pochhammer(Fraction(x), n, direction), (x, n)


def test_binomial_values():
    assert binomial(5, 0) == 1
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0


@settings(max_examples=400)
@given(st.integers(-6, 12), st.integers(-6, 12), st.integers(0, 8))
def test_pochhammer_vandermonde_addition(a, b, n):
    # sum_s C(n,s) (a)^rising_s (b)^rising_(n-s) = (a+b)^rising_n
    lhs = sum(
        binomial(n, s)
        * pochhammer(a, s, "rising")
        * pochhammer(b, n - s, "rising")
        for s in range(n + 1)
    )
    assert lhs == pochhammer(a + b, n, "rising")


# --- terminating 3F2 ---------------------------------------------------------


def test_hyp3f2_r_zero_is_one():
    assert hyp3f2_terminating(0, 7, -3, 2, 9) == 1


def test_hyp3f2_first_order_value():
    # 1 - bc/(de) with (b,c,d,e) = (2,3,4,5): (20-6)/20
    assert hyp3f2_terminating(1, 2, 3, 4, 5) == Fraction(7, 10)


def test_hyp3f2_second_order_closed_form():
    rng = random.Random(7)
    for _ in range(24):
        b = rng.randint(-9, 9)
        c = rng.randint(-9, 9)
        d = rng.choice([x for x in range(-9, 10) if x not in (0, -1)])
        e = rng.choice([x for x in range(-9, 10) if x not in (0, 1)])
        want = (
            1
            - Fraction(2 * b * c, d * e)
            + Fraction(b * (b - 1) * c * (c + 1), d * (d + 1) * e * (e - 1))
        )
        assert hyp3f2_terminating(2, b, c, d, e) == want


def test_hyp3f2_pole_raises():
    with pytest.raises(DomainError):
        hyp3f2_terminating(1, 1, 1, 0, 5)
    with pytest.raises(DomainError):
        hyp3f2_terminating(2, 5, 3, -1, 4)


def test_hyp3f2_numerator_zero_shields_pole():
    # b = 0 kills every s >= 1 term, so d = 0 never gets evaluated
    assert hyp3f2_terminating(3, 0, 5, 0, 0) == 1


def _outcome(f, *args):
    try:
        value = f(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    return type(value), value


def test_hyp3f2_matches_termwise_sum():
    # value and type, or exception type and message, on a seeded sample
    rng = random.Random(33)
    for _ in range(20_000):
        args = (rng.randint(0, 8), *(rng.randint(-12, 12) for _ in range(4)))
        assert _outcome(hyp3f2_terminating, *args) == _outcome(
            termwise_hyp3f2, *args), args


def test_hyp3f2_refuses_non_int_parameters():
    with pytest.raises(TypeError):
        hyp3f2_terminating(2, 1, Fraction(1, 2), 3, 4)


def test_hyp3f2_binomial_sum_identity():
    # (d)^rising_r (e)^falling_r 3F2(-r,-b,c;d,-e;1)
    #   = sum_s (-1)^s C(r,s) (b)^falling_s (c)^rising_s
    #       (d+r-1)^falling_(r-s) (e-s)^falling_(r-s)
    rng = random.Random(20260816)
    checked = 0
    while checked < 500:
        r = rng.randint(0, 6)
        b = rng.randint(-12, 12)
        c = rng.randint(-12, 12)
        d = rng.randint(-12, 12)
        e = rng.randint(-12, 12)
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


# --- signed square roots ------------------------------------------------------


def test_sqrt_times_sqrt_keeps_radicand_as_square():
    two = SqrtRational.sqrt(2)
    prod = two * two
    assert prod.sign == 1
    assert prod.radicand == 4
    assert prod == 2


def test_inverse_radicands_cancel():
    assert SqrtRational.sqrt(Fraction(1, 3)) * SqrtRational.sqrt(3) == 1


def test_unlike_radicands_refuse_to_add():
    with pytest.raises(ClosureError):
        SqrtRational.sqrt(2) + SqrtRational.sqrt(3)


def test_like_radicands_add_and_cancel():
    r2 = SqrtRational.sqrt(2)
    assert r2 + r2 == SqrtRational(1, Fraction(8))
    assert (r2 - r2).sign == 0
    assert r2 + SqrtRational(0, Fraction(0)) == r2


def test_commensurable_radicands_fold():
    # sqrt(8) + sqrt(2) = 3 sqrt(2) = sqrt(18)
    assert SqrtRational.sqrt(8) + SqrtRational.sqrt(2) == SqrtRational.sqrt(18)
    # sqrt(1/4) + sqrt(9/4) = 1/2 + 3/2 = 2
    assert SqrtRational.sqrt(Fraction(1, 4)) + SqrtRational.sqrt(
        Fraction(9, 4)
    ) == 2


def test_rational_cross_type_equality_and_hash():
    two = SqrtRational(1, Fraction(4))
    assert two == 2
    assert two == Fraction(2)
    assert hash(two) == hash(2)
    assert SqrtRational.from_rational(Fraction(-3, 2)) == Fraction(-3, 2)


def test_sign_zero_iff_radicand_zero():
    with pytest.raises(ValueError):
        SqrtRational(0, Fraction(2))
    with pytest.raises(ValueError):
        SqrtRational(1, Fraction(0))
    with pytest.raises(ValueError):
        SqrtRational(2, Fraction(1))
    with pytest.raises(ValueError):
        SqrtRational(1, Fraction(-1))


def test_division():
    r2 = SqrtRational.sqrt(2)
    assert r2 / r2 == 1
    assert 1 / r2 == SqrtRational.sqrt(Fraction(1, 2))
    assert SqrtRational.sqrt(6) / SqrtRational.sqrt(3) == r2


@given(
    st.fractions(
        min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
    )
)
def test_from_rational_float_roundtrip(q):
    x = SqrtRational.from_rational(q)
    assert float(x) == pytest.approx(float(q), rel=1e-15, abs=1e-300)


@given(
    st.fractions(min_value=Fraction(0), max_value=Fraction(80), max_denominator=30)
)
def test_square_has_perfect_square_radicand(q):
    a = SqrtRational.sqrt(q)
    sq = a * a
    assert sq.as_rational() == q
    assert float(sq) == pytest.approx(float(q), rel=1e-15, abs=1e-300)


def test_scalar_tower_mixing():
    r2 = SqrtRational.sqrt(2)
    assert scalar_mul(Fraction(1, 2), r2) == SqrtRational.sqrt(Fraction(1, 2))
    assert scalar_add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    z = scalar_mul(r2, 1.0)
    assert isinstance(z, complex)
    assert z.real == pytest.approx(math.sqrt(2))


_SURDS = st.builds(
    lambda sign, num, den: SqrtRational(sign if num else 0, Fraction(num, den)),
    st.sampled_from((-1, 1)), st.integers(0, 10**6), st.integers(1, 10**6),
)
_INT_FACTORS = st.one_of(
    st.sampled_from((0, 1, -1, 2**70, -(2**70), True, False)),
    st.integers(-1000, 1000),
)


@given(_SURDS, _INT_FACTORS)
def test_int_times_surd_matches_the_rational_route(s, k):
    want = s * SqrtRational.from_rational(k)
    for got in (s * k, k * s, scalar_mul(s, k), scalar_mul(k, s)):
        assert type(got) is SqrtRational and type(got.radicand) is Fraction
        assert repr(got) == repr(want) and got == want


# --- number protocol ---------------------------------------------------------


def _bits(z) -> tuple:
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _reference_complex(c) -> complex:
    # the per-kind conversion the scalar tower used before the number
    # protocol: sign * sqrt(radicand) for a surd, float(q) for a Fraction
    if isinstance(c, SqrtRational):
        return complex(c.sign * math.sqrt(c.radicand))
    if isinstance(c, Fraction):
        return complex(float(c))
    return complex(c)


_BIG = 10**40


@given(
    st.integers(min_value=0, max_value=_BIG),
    st.integers(min_value=1, max_value=_BIG),
    st.sampled_from((-1, 1)),
)
def test_surd_float_is_signed_sqrt_of_radicand(num, den, sign):
    x = SqrtRational(sign if num else 0, Fraction(num, den))
    assert float(x).hex() == (x.sign * math.sqrt(x.radicand)).hex()
    assert _bits(complex(x)) == _bits(_reference_complex(x))


@pytest.mark.parametrize("c", [
    0, 7, -(10**20), True, False,
    Fraction(0), Fraction(-1, 3), Fraction(10**30, 7),
    SqrtRational(0, Fraction(0)), SqrtRational.sqrt(2),
    SqrtRational(-1, Fraction(1, 3)), SqrtRational(1, Fraction(9, 4)),
    0.0, -0.0, 1e-300, math.inf, math.nan,
    0j, 1.5 - 2j, complex(math.nan, 1.0),
], ids=repr)
def test_complex_matches_reference_conversion(c):
    assert _bits(complex(c)) == _bits(_reference_complex(c))


@pytest.mark.parametrize("zero", [
    0, False, Fraction(0), SqrtRational(0, Fraction(0)),
    SqrtRational.from_rational(0), 0.0, -0.0, 0j, complex(-0.0, -0.0),
], ids=repr)
def test_bool_is_false_for_each_kinds_zero(zero):
    assert not zero


@pytest.mark.parametrize("c", [
    1, -1, True, Fraction(1, 10**40), SqrtRational(-1, Fraction(1, 10**40)),
    5e-324, -5e-324, math.nan, math.inf, 1e-300j, complex(math.nan, 0.0),
], ids=repr)
def test_bool_is_true_for_nonzero_and_nan(c):
    assert c


# One value per kind, each exactly representable in binary, so an exact
# Gaussian-rational product or sum is also what complex arithmetic gives.
_KINDS = {
    "int": (3, (Fraction(3), Fraction(0))),
    "fraction": (Fraction(3, 4), (Fraction(3, 4), Fraction(0))),
    "surd": (SqrtRational(1, Fraction(9, 4)), (Fraction(3, 2), Fraction(0))),
    "float": (0.5, (Fraction(1, 2), Fraction(0))),
    "complex": (0.5 + 2j, (Fraction(1, 2), Fraction(2))),
}
_RANK = {"int": 0, "fraction": 1, "surd": 2, "float": 3, "complex": 3}
_RESULT_TYPE = (int, Fraction, SqrtRational, complex)


@pytest.mark.parametrize("ka", _KINDS)
@pytest.mark.parametrize("kb", _KINDS)
def test_scalar_mul_and_add_kind_table(ka, kb):
    (a, (ar, ai)), (b, (br, bi)) = _KINDS[ka], _KINDS[kb]
    want_type = _RESULT_TYPE[max(_RANK[ka], _RANK[kb])]
    for got, (re, im) in (
        (scalar_mul(a, b), (ar * br - ai * bi, ar * bi + ai * br)),
        (scalar_add(a, b), (ar + br, ai + bi)),
    ):
        assert type(got) is want_type
        if want_type is complex:
            assert got == complex(re, im)
        else:
            assert im == 0 and got == re


def test_scalar_add_of_rational_and_foreign_surd_refuses():
    r2 = SqrtRational.sqrt(2)
    for a, b in ((1, r2), (r2, 1), (Fraction(1, 2), r2), (r2, Fraction(1, 2))):
        with pytest.raises(ClosureError):
            scalar_add(a, b)


def test_complex_float_rejects_non_finite():
    assert complex_float(1.5, -2.0) == 1.5 - 2j
    with pytest.raises(ValueError):
        complex_float(math.inf, 0.0)
    with pytest.raises(ValueError):
        complex_float(0.0, math.nan)
