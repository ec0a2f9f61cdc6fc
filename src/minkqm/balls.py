"""Midpoint-radius ("ball") arithmetic on top of mpmath floats.

A ball ``(value, radius)`` encloses every real ``y`` with
``|y - value| <= radius``.  Midpoints are rounded at the active mpmath
working precision; every operation widens the radius enough to keep the
enclosure valid through that rounding, so the arithmetic stays honest
without directed rounding.  Callers choose their accuracy by running
inside ``mp.workprec(bits)``.

Two balls "agree within eps" when ``|v1 - v2| <= r1 + r2 + eps``; exact
equality of midpoints is never meaningful for transcendental data.

``format_ball`` is the one decimal form of a ball that minkqm prints: the
midpoint to the decimal places its radius justifies, and the radius to
three digits.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

from .errors import DomainError

__all__ = ["PrecReal", "format_fixed", "format_ball"]


def _ulp_rel() -> mpf:
    # Relative bound covering one round-to-nearest at the current precision,
    # with headroom for the handful of roundings inside a radius formula.
    return mpf(2) ** (4 - mp.prec)


def _to_mpf_exact_or_ball(x):
    """Convert int/Fraction/mpf/float to (midpoint, radius) at current prec."""
    if isinstance(x, int):
        v = mpf(x)
        r = abs(v) * _ulp_rel() if v != x else mpf(0)
        return v, r
    if isinstance(x, Fraction):
        v = mpf(x.numerator) / mpf(x.denominator)
        return v, abs(v) * _ulp_rel()
    v = mpf(x)
    return v, mpf(0)


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a finite mpf (they are dyadic).

    Reads the mantissa directly: rebuilding via mpf(x) would re-round to
    the ambient precision and silently corrupt high-precision values.
    """
    if isinstance(x, (int, float, Fraction)):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    if man == 0 and exp != 0:
        raise DomainError(f"not a finite number: {x}")
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


def _exact_interval(x) -> tuple[Fraction, Fraction]:
    """Exact (midpoint, radius) of a ball or point operand."""
    if isinstance(x, PrecReal):
        return mpf_to_fraction(x.value), mpf_to_fraction(x.radius)
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    return mpf_to_fraction(x), Fraction(0)


class PrecReal:
    """Arbitrary-precision real with a rigorous absolute-error radius."""

    __slots__ = ("value", "radius")

    def __init__(self, value, radius=0):
        v = mpf(value)
        r = mpf(radius)
        if r < 0:
            raise DomainError(f"radius must be non-negative, got {radius}")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "radius", r)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("PrecReal is immutable")

    @classmethod
    def exact(cls, x) -> "PrecReal":
        """Ball around an int/Fraction/float, widened for conversion rounding."""
        v, r = _to_mpf_exact_or_ball(x)
        return cls(v, r)

    @classmethod
    def zero(cls) -> "PrecReal":
        return cls(0, 0)

    # -- geometry ----------------------------------------------------------

    @property
    def lo(self) -> mpf:
        return self.value - self.radius

    @property
    def hi(self) -> mpf:
        return self.value + self.radius

    def contains(self, x) -> bool:
        """True when every point of x's (possibly degenerate) ball lies here.

        Evaluated in exact rational arithmetic, so the verdict never depends
        on the ambient precision.
        """
        v, r = _exact_interval(x)
        sv, sr = _exact_interval(self)
        return abs(sv - v) + r <= sr

    def agrees(self, other, eps=0) -> bool:
        v1, r1 = _exact_interval(self)
        v2, r2 = _exact_interval(other)
        e = Fraction(eps) if isinstance(eps, (int, Fraction)) else mpf_to_fraction(eps)
        return abs(v1 - v2) <= r1 + r2 + e

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        return other if isinstance(other, PrecReal) else PrecReal.exact(other)

    def __neg__(self):
        return PrecReal(-self.value, self.radius)

    def __abs__(self):
        return PrecReal(abs(self.value), self.radius)

    def __add__(self, other):
        o = self._coerce(other)
        v = self.value + o.value
        r = (self.radius + o.radius + abs(v) * _ulp_rel()) * (1 + _ulp_rel())
        return PrecReal(v, r)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        v = self.value - o.value
        r = (self.radius + o.radius + abs(v) * _ulp_rel()) * (1 + _ulp_rel())
        return PrecReal(v, r)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        v = self.value * o.value
        r = abs(self.value) * o.radius + abs(o.value) * self.radius + self.radius * o.radius
        r = (r + abs(v) * _ulp_rel()) * (1 + _ulp_rel())
        return PrecReal(v, r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        # shrink the denominator's lower edge so its rounding cannot help us
        denom_lo = (abs(o.value) - o.radius) * (1 - _ulp_rel())
        if not denom_lo > 0:
            raise ZeroDivisionError("divisor ball contains zero")
        v = self.value / o.value
        num = abs(self.value) * o.radius + abs(o.value) * self.radius + self.radius * o.radius
        r = num / (abs(o.value) * denom_lo)
        r = (r + abs(v) * _ulp_rel()) * (1 + _ulp_rel())
        return PrecReal(v, r)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def exp(self) -> "PrecReal":
        v = mp.exp(self.value)
        # exp is convex: sup slope on the ball is exp(value + radius); nudge
        # the argument upward so its rounding cannot shrink the bound
        arg = self.value + self.radius
        arg = arg + abs(arg) * _ulp_rel() + _ulp_rel()
        r = mp.exp(arg) * self.radius
        r = (r + abs(v) * _ulp_rel()) * (1 + _ulp_rel())
        return PrecReal(v, r)

    # -- presentation --------------------------------------------------------

    def __repr__(self):
        return f"PrecReal({mp.nstr(self.value, 15)} ± {mp.nstr(self.radius, 3)})"


def format_fixed(x: mpf, places: int) -> str:
    """Midpoint printed to a fixed number of decimal places."""
    with mp.workprec(int(places * 3.33) + 64):
        n = int(mp.nint(mpf(x) * mpf(10) ** places))
    sign = "-" if n < 0 else ""
    digits = str(abs(n)).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def format_ball(ball: PrecReal) -> tuple[str, str]:
    """(value string, radius string); digits justified by the radius."""
    r = ball.radius
    if r <= 0:
        return mp.nstr(ball.value, 17), "0"
    places = int(mp.floor(-mp.log10(r))) if r < 1 else 0
    places = max(0, min(places, 40))
    return format_fixed(ball.value, places), mp.nstr(r, 3)
