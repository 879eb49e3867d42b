"""Exact scalar arithmetic and combinatorial primitives.

Everything downstream (index formulas, ladder coefficients, coupling
matrices) reduces to the handful of functions here: ceiling/floor
quotients, Pochhammer symbols, binomials, a terminating 3F2 sum, and a
signed-square-root scalar that stays exact under multiplication.  The
3F2 is summed on ints by one term-ratio kernel, which the Clebsch-Gordan
entries' alternating sum F (cg) runs as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


class ClosureError(ArithmeticError):
    """An exact operation left the representable set (e.g. sqrt(2)+sqrt(3))."""


class DomainError(ValueError):
    """An evaluation hit a pole or an index outside its defined range."""


def ceil_ratio(p: int, n: int) -> int:
    """Ceiling of p/n for positive integers, the index workhorse."""
    if n <= 0:
        raise ValueError("denominator must be a positive integer")
    if p <= 0:
        raise ValueError("numerator must be a positive integer")
    return -((-p) // n)


def floor_ratio(p: int, n: int) -> int:
    """Floor of p/n for p >= 0, n >= 1."""
    if n <= 0:
        raise ValueError("denominator must be a positive integer")
    if p < 0:
        raise ValueError("numerator must be nonnegative")
    return p // n


def pochhammer(x: Rational, n: int, direction: str = "rising") -> Rational:
    """Rising x(x+1)...(x+n-1) or falling x(x-1)...(x-n+1) factorial."""
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    if direction not in ("rising", "falling"):
        raise ValueError("direction must be 'rising' or 'falling'")
    step = 1 if direction == "rising" else -1
    if isinstance(x, int):
        # (x)_n rising = (x+n-1)_n falling, and (-y)_n falling =
        # (-1)^n (y+n-1)_n falling, so every int case is one math.perm
        top = x + n - 1 if step == 1 else x
        if top >= 0:
            return math.perm(top, n)
        return (-1) ** n * math.perm(n - 1 - top, n)
    out: Rational = 1
    for s in range(n):
        out = out * (x + step * s)
    return out


def binomial(n: int, m: int) -> int:
    """n choose m, with 0 for m outside [0, n]. Total by convention."""
    if n < 0 or m < 0 or m > n:
        return 0
    return math.comb(n, m)


def _term_ratio_sum(
    t: int, lo: int, hi: int, r: int, b: int, c: int, d: int, e: int
) -> int:
    """t_lo + ... + t_hi for the 3F2(-r, -b, c; d, -e; 1) term ratio
    t_{s+1} / t_s = (s-r)(s-b)(s+c) / ((s+1)(s+d)(s-e)), from t = t_lo.

    The caller scales the terms so that every one is an int; then each
    step is one multiply and one exact integer division."""
    f = t
    for s in range(lo, hi):
        t = t * ((s - r) * (s - b) * (s + c)) // ((s + 1) * (s + d) * (s - e))
        f += t
    return f


def hyp3f2_terminating(r: int, b: int, c: int, d: int, e: int) -> Fraction:
    """Terminating 3F2(-r, -b, c; d, -e; 1) as an exact finite sum.

    The -r upper parameter cuts the series after r+1 terms; b >= 0 or
    c <= 0 can cut it sooner, at the last live term s = hi.  A zero lower
    parameter under a live term raises DomainError.  Times hi! (d)_hi
    (-e)_hi, the live terms are ints, which _term_ratio_sum adds.
    """
    if not all(isinstance(v, int) for v in (r, b, c, d, e)):
        raise TypeError("3F2 parameters must be ints")
    if r < 0:
        raise ValueError("r must be nonnegative")
    hi = min(r, b if b >= 0 else r, -c if c <= 0 else r)
    scale = math.factorial(hi) * pochhammer(d, hi) * pochhammer(-e, hi)
    if not scale:  # name the first term whose (d)_s (-e)_s vanishes
        s = min(1 - d if d <= 0 else hi, e + 1 if e >= 0 else hi)
        raise DomainError(
            f"3F2 lower parameter vanishes at term s={s} (d={d}, e={e})"
        )
    return Fraction(_term_ratio_sum(scale, 0, hi, r, b, c, d, e), scale)


def _exact_sqrt(q: Fraction) -> Fraction | None:
    """Square root of q when q is the square of a rational, else None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class SqrtRational:
    """Exact scalar sign * sqrt(radicand) with a nonnegative rational radicand.

    Closed under multiplication.  Addition works whenever the two radicands
    differ by the square of a rational (so n*sqrt(x) folds back into a single
    radicand, e.g. sqrt(8)+sqrt(2) = 3*sqrt(2) = sqrt(18)); anything else
    raises ClosureError and the caller must drop to floating point.

    The radicand is kept exactly as produced: sqrt(2)*sqrt(2) has radicand 4,
    not the integer 2.  Field equality is still value equality, since the
    square of the value recovers the radicand.
    """

    sign: int
    radicand: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.radicand, Fraction):
            object.__setattr__(self, "radicand", Fraction(self.radicand))
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if self.radicand < 0:
            raise ValueError("radicand must be nonnegative")
        if (self.sign == 0) != (self.radicand == 0):
            raise ValueError("sign is 0 exactly when the radicand is 0")

    @classmethod
    def _trusted(cls, sign: int, radicand: Fraction) -> "SqrtRational":
        """Build without validation.  The caller guarantees what
        __post_init__ would check: sign in {-1, 0, 1}, radicand a
        nonnegative Fraction, and sign == 0 exactly when radicand == 0."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "sign", sign)
        object.__setattr__(obj, "radicand", radicand)
        return obj

    @classmethod
    def from_rational(cls, q: Rational) -> "SqrtRational":
        q = Fraction(q)
        if q == 0:
            return cls._trusted(0, q)
        return cls._trusted(1 if q > 0 else -1, q * q)

    @classmethod
    def sqrt(cls, q: Rational) -> "SqrtRational":
        """Principal square root of a nonnegative rational."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("radicand must be nonnegative")
        return cls(0 if q == 0 else 1, q)

    def __float__(self) -> float:
        # complex() falls back to __float__, so this serves both; the int
        # quotient is float(radicand) without numbers.Rational's dispatch
        r = self.radicand
        return self.sign * math.sqrt(r.numerator / r.denominator)

    def as_rational(self) -> Fraction | None:
        """The exact rational value, when the radicand is a perfect square."""
        root = _exact_sqrt(self.radicand)
        if root is None:
            return None
        return self.sign * root

    @staticmethod
    def _coerce(other: object) -> "SqrtRational | None":
        if isinstance(other, SqrtRational):
            return other
        if isinstance(other, (int, Fraction)):
            return SqrtRational.from_rational(other)
        return None

    def __bool__(self) -> bool:
        return self.sign != 0

    def __neg__(self) -> "SqrtRational":
        return SqrtRational._trusted(-self.sign, self.radicand)

    def __mul__(self, other: object):
        if type(other) is int:
            # k = sign(k) sqrt(k^2), with no Fraction built for k
            if other == 0:
                return SqrtRational._trusted(0, Fraction(0))
            sign = self.sign if other > 0 else -self.sign
            k2 = other * other
            return SqrtRational._trusted(
                sign, self.radicand if k2 == 1 else self.radicand * k2
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtRational._trusted(
            self.sign * o.sign, self.radicand * o.radicand
        )

    __rmul__ = __mul__

    def __add__(self, other: object):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.sign == 0:
            return self
        if self.sign == 0:
            return o
        root = _exact_sqrt(self.radicand / o.radicand)
        if root is None:
            raise ClosureError(
                f"cannot add sqrt({self.radicand}) and sqrt({o.radicand}) "
                "within signed-square-root scalars"
            )
        coeff = self.sign * root + o.sign
        if coeff == 0:
            return SqrtRational(0, Fraction(0))
        return SqrtRational(
            1 if coeff > 0 else -1, coeff * coeff * o.radicand
        )

    __radd__ = __add__

    def __sub__(self, other: object):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __truediv__(self, other: object):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.sign == 0:
            raise ZeroDivisionError("division by zero square root")
        return SqrtRational._trusted(
            self.sign * o.sign, self.radicand / o.radicand
        )

    def __rtruediv__(self, other: object):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.sign == o.sign and self.radicand == o.radicand

    def __hash__(self) -> int:
        # Perfect squares must hash like their rational value so that
        # SqrtRational(1, 4) == 2 stays consistent in sets and dicts.
        root = self.as_rational()
        if root is not None:
            return hash(root)
        return hash((self.sign, self.radicand))

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        prefix = "-" if self.sign < 0 else ""
        return f"{prefix}sqrt({self.radicand})"


def coprime_fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) without the gcd.  The caller guarantees den > 0
    and gcd(num, den) == 1, so the result equals the validated one field
    for field."""
    q = object.__new__(Fraction)
    q._numerator = num
    q._denominator = den
    return q


def complex_float(re: float, im: float = 0.0) -> complex:
    """Validated complex scalar: both components must be finite."""
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError("complex components must be finite")
    return complex(re, im)


# --- scalar tower -----------------------------------------------------------
#
# Coefficients in operator sums are int, Fraction, SqrtRational, float or
# complex.  Every kind converts with complex() and is zero exactly when
# bool() is False.  The helpers below add one rule to the operators: any
# float/complex participant drags the result to complex, and an exact one
# past float range then raises DomainError.  Exact kinds stay exact
# through their own operators, where SqrtRational._coerce is the one place
# a rational becomes a surd.

Scalar = Union[int, Fraction, SqrtRational, float, complex]


def scalar_is_exact(c: Scalar) -> bool:
    return isinstance(c, (int, Fraction, SqrtRational))


def scalar_to_float(c: Scalar) -> float:
    z = complex(c)
    if abs(z.imag) > 1e-12 * max(1.0, abs(z.real)):
        raise ValueError(f"scalar {c!r} has a nonreal value")
    return z.real


_PAST_FLOAT = "an exact value is too large for a float"


def scalar_mul(a: Scalar, b: Scalar) -> Scalar:
    if isinstance(a, (float, complex)) or isinstance(b, (float, complex)):
        try:
            return complex(a) * complex(b)
        except OverflowError:
            raise DomainError(_PAST_FLOAT) from None
    return a * b


def scalar_add(a: Scalar, b: Scalar) -> Scalar:
    """Exact when both sides are exact; raises ClosureError if the square
    roots cannot combine. Callers that can tolerate floats must convert."""
    if isinstance(a, (float, complex)) or isinstance(b, (float, complex)):
        try:
            return complex(a) + complex(b)
        except OverflowError:
            raise DomainError(_PAST_FLOAT) from None
    return a + b


def scalar_conj(a: Scalar) -> Scalar:
    if isinstance(a, complex):
        return a.conjugate()
    return a
