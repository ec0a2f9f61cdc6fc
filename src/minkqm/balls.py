"""Midpoint-radius ("ball") arithmetic on top of mpmath floats.

A ball ``(value, radius)`` encloses every real ``y`` with
``|y - value| <= radius``.  One rule keeps each enclosure, in three parts.

1. Ring operations are exact.  The constructor stores an int, float, mpf
   or dyadic Fraction (one whose denominator is a power of two) midpoint
   and radius as the dyadic rational it is, never re-rounded,
   and ``+``, ``-`` and ``*`` form the exact dyadic midpoint
   (``exact=True``).  For x = a +- r and y = b +- s the results move by at
   most r + s and |a| s + (|b| + s) r, from |xy - ab| = |a (y - b) +
   (x - a) y| and |y| <= |b| + s.  An exact sum is as long as the span of
   both terms' bits, so one case is kept from it: a term whose top bit
   lies more than p bits (the active precision) below the other term's
   last bit, where a sum rounded at p bits past that last bit would leave
   no trace of it, joins the radius with its magnitude, and the midpoint
   is the other term.  That moves the midpoint by exactly what the radius
   gains.  e^-T S beside C at T = 1e308 in the conjecture report meets it;
   their exact sum would need 10^308 bits.
2. Each rounded step's error lies inside its radius.  Only ``/``,
   ``exact`` of a Fraction that is not dyadic (one exact ball over
   another) and ``exp`` round a
   midpoint, once each, at the active mpmath precision p.
   - A quotient is rounded toward zero and away from zero.  The first is
     the midpoint; the gap to the second holds the exact quotient a / b,
     and it is 0 when the quotient is exact.  The propagated part is
     |x/y - a/b| = |(x - a) b - a (y - b)| / |y b|
     <= (|a| s + |b| r) / (|b| (|b| - s)), with |b| > s required.
   - ``exp`` assumes that mpmath's exp at precision p returns man 2^e
     (man of bc bits) within one ulp, 2^(e + bc - p), of e^x for its exact
     argument x.  The radius adds that ulp of the midpoint to the
     propagated part: by the mean value theorem |e^y - e^a| <= e^(a + r) r
     on the ball, and e^(a + r) is at most exp at a + r rounded toward
     +inf, plus one ulp.
3. Radii are rounded up.  Every sum, product and quotient of nonnegative
   radius parts is rounded at 53 bits away from zero (``rounding='u'``),
   and the divisor |b| (|b| - s) and the quotient's gap are exact, so no
   computed radius lies below its exact bound.  53 bits is a float's
   precision: a radius needs a few correct digits, not the midpoint's.

So the active precision p sets only how many bits a rounded midpoint
keeps, and no caller sets it for soundness.  Ring operations on terms
within p bits of each other round nothing, so they give the same ball at
every such p.

Two balls "agree within eps" when ``|v1 - v2| <= r1 + r2 + eps``; exact
equality of midpoints is never meaningful for transcendental data.

``format_ball`` is the one decimal form of a ball that minkqm prints: the
midpoint to the decimal places its radius justifies, and the radius to
three digits.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import from_float, from_man_exp

from .errors import DomainError

__all__ = ["PrecReal", "format_fixed", "format_ball"]


def _exact_mpf(x) -> mpf:
    """The int, float, mpf or dyadic Fraction x as an mpf of the same value."""
    if isinstance(x, float):
        return mp.make_mpf(from_float(x))
    if isinstance(x, (int, Fraction)) and not x.denominator & (x.denominator - 1):  # a power of two
        return mp.make_mpf(from_man_exp(x.numerator, 1 - x.denominator.bit_length()))
    if not isinstance(x, mpf):
        raise TypeError(f"a ball holds an int, float, mpf or dyadic Fraction, got {type(x).__name__}; see PrecReal.exact")
    return x


def _abs(x: mpf) -> mpf:
    # abs() and unary minus on an mpf round to the active precision
    return mp.fneg(x, exact=True) if x < 0 else x


def _up(op, x: mpf, y: mpf) -> mpf:
    """op(x, y) of nonnegative radius parts, rounded up at 53 bits."""
    return op(x, y, prec=53, rounding="u")


def _below(y: mpf, x: mpf) -> bool:
    """True when y's top bit lies more than p bits below x's last bit, p
    the active precision (never when x is 0)."""
    _, man, e, _ = x._mpf_
    _, _, ye, ybc = y._mpf_
    return bool(man) and ye + ybc < e - mp.prec


def _sum(x: mpf, r: mpf, y: mpf, s: mpf) -> "PrecReal":
    """The ball sum of x +- r and y +- s (see the module docstring)."""
    if _below(y, x):
        y, s = 0, _up(mp.fadd, s, _abs(y))
    elif _below(x, y):
        x, r = 0, _up(mp.fadd, r, _abs(x))
    return PrecReal(mp.fadd(x, y, exact=True), _up(mp.fadd, r, s))


def _ulp(x: mpf) -> mpf:
    """2^(e + bc - p) for x = man 2^e, man of bc bits, at the active precision p."""
    _, _, e, bc = x._mpf_
    return mp.ldexp(1, e + bc - mp.prec)


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
    return mpf_to_fraction(x), Fraction(0)


class PrecReal:
    """Arbitrary-precision real with a rigorous absolute-error radius."""

    __slots__ = ("value", "radius")

    def __init__(self, value, radius=0):
        v, r = _exact_mpf(value), _exact_mpf(radius)
        if r < 0:
            raise DomainError(f"radius must be non-negative, got {radius}")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "radius", r)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("PrecReal is immutable")

    @classmethod
    def exact(cls, x) -> "PrecReal":
        """Ball around an int, float, mpf or Fraction: exact, except that the
        quotient of a Fraction that is not dyadic is rounded once (see the
        module docstring)."""
        if isinstance(x, Fraction) and x.denominator & (x.denominator - 1):
            return cls(x.numerator) / x.denominator
        return cls(x)

    # -- geometry ----------------------------------------------------------

    @property
    def lo(self) -> mpf:
        return mp.fsub(self.value, self.radius, rounding="f")

    @property
    def hi(self) -> mpf:
        return mp.fadd(self.value, self.radius, rounding="c")

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
        return PrecReal(mp.fneg(self.value, exact=True), self.radius)

    def __abs__(self):
        return PrecReal(_abs(self.value), self.radius)

    def __add__(self, other):
        o = self._coerce(other)
        return _sum(self.value, self.radius, o.value, o.radius)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return _sum(self.value, self.radius, mp.fneg(o.value, exact=True), o.radius)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        spread = _up(mp.fmul, _up(mp.fadd, _abs(o.value), o.radius), self.radius)
        r = _up(mp.fadd, _up(mp.fmul, _abs(self.value), o.radius), spread)
        return PrecReal(mp.fmul(self.value, o.value, exact=True), r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        b = _abs(o.value)
        gap = mp.fsub(b, o.radius, exact=True)
        if not gap > 0:
            raise ZeroDivisionError("divisor ball contains zero")
        num = _up(mp.fadd, _up(mp.fmul, _abs(self.value), o.radius), _up(mp.fmul, b, self.radius))
        r = _up(mp.fdiv, num, mp.fmul(b, gap, exact=True))
        lo, hi = (mp.fdiv(self.value, o.value, rounding=way) for way in "du")
        return PrecReal(lo, _up(mp.fadd, r, mp.fsub(_abs(hi), _abs(lo), exact=True)))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def exp(self) -> "PrecReal":
        """Ball of e^x over this ball; its one rounding and the accuracy it
        assumes of mpmath's exp are in the module docstring."""
        v = mp.exp(self.value)
        r = _ulp(v)
        if self.radius:  # else nothing propagates, and one exp is enough
            slope = mp.exp(mp.fadd(self.value, self.radius, rounding="c"))
            r = _up(mp.fadd, r, _up(mp.fmul, _up(mp.fadd, slope, _ulp(slope)), self.radius))
        return PrecReal(v, r)

    # -- presentation --------------------------------------------------------

    def __repr__(self):
        return f"PrecReal({mp.nstr(self.value, 15)} ± {mp.nstr(self.radius, 3)})"


def format_fixed(x: mpf, places: int) -> str:
    """Midpoint printed to a fixed number of decimal places: its exact value
    times 10^places, rounded half to even."""
    n = round(mpf_to_fraction(x) * 10**places)
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
