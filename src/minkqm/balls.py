"""Midpoint-radius ("ball") arithmetic on Python integers.

A ball ``(value, radius)`` encloses every real ``y`` with
``|y - value| <= radius``.  Both ends are ``Dyadic`` numbers ``man 2^exp``
with int ``man`` and ``exp`` (``man`` odd, or 0 as ``(0, 0)``); the
midpoint keeps every bit it is given, and a computed radius keeps 53 bits
rounded up (Arb's arf/mag split; Johansson, arXiv:1611.02831).  ``Dyadic``
is also the exact value type of ``minkowski``: ?(x) and the weights h_l at
a rational are dyadic, and ``from_pair`` builds them from their kernels'
integer pairs.  One rule keeps each enclosure, in three parts.

1. Ring operations are exact.  The constructor stores an int, float,
   ``Dyadic``, dyadic Fraction (one whose denominator is a power of two)
   or any number with an mpmath ``_mpf_`` tuple as the dyadic rational it
   is, never re-rounded, and ``+``, ``-`` and ``*`` form the exact dyadic
   midpoint.  For x = a +- r and y = b +- s the results move by at most
   r + s and |a| s + (|b| + s) r, from |xy - ab| = |a (y - b) + (x - a) y|
   and |y| <= |b| + s.  An exact sum is as long as the span of both terms'
   bits, so one case is kept from it: a term whose top bit lies more than
   p bits (the active precision) below the other term's last bit, where a
   sum rounded at p bits past that last bit would leave no trace of it,
   joins the radius with its magnitude, and the midpoint is the other
   term.  That moves the midpoint by exactly what the radius gains.
   e^-T S beside C at T = 1e308 in the conjecture report meets it; their
   exact sum would need 10^308 bits.
2. Each rounded step's error lies inside its radius.  Only ``/``,
   ``exact`` of a Fraction that is not dyadic (one exact ball over
   another) and ``exp`` round a midpoint, once each, at the active
   precision p (53 bits unless a ``workprec`` block sets another).
   - A quotient is rounded toward zero and away from zero, each by one
     exact integer division.  The first is the midpoint; the gap to the
     second holds the exact quotient a / b, and it is 0 when the quotient
     is exact.  The propagated part is |x/y - a/b| = |(x - a) b - a (y - b)|
     / |y b| <= (|a| s + |b| r) / (|b| (|b| - s)), with |b| > s required.
   - ``exp`` returns v within (1/2 + 2^-23) ulp(v) of e^a, ulp(v) =
     2^(e + bc - p) for v = man 2^e with man of bc bits (``_exp`` proves
     it).  The radius adds one ulp of the midpoint to the propagated part:
     by the mean value theorem |e^y - e^a| <= e^(a + r) r on the ball, and
     e^(a + r) is at most exp at a + r rounded toward +inf, plus one ulp.
3. Radii are rounded up.  Every sum, product and quotient of nonnegative
   radius parts is rounded at 53 bits away from zero, and the divisor
   |b| (|b| - s) and the quotient's gap are exact, so no computed radius
   lies below its exact bound.  53 bits is a float's precision: a radius
   needs a few correct digits, not the midpoint's.  A rounded sum of two
   terms far apart adds the lower one as a single bit below both the
   upper one's last bit and its rounding point, which rounds alike in
   every mode and keeps the shift short.

So the active precision p sets only how many bits a rounded midpoint
keeps, and no caller sets it for soundness.  Ring operations on terms
within p bits of each other round nothing, so they give the same ball at
every such p.  Every rounding here is the correctly rounded result that
mpmath's ``mpf`` gives at the same precision and mode, so the balls are
the ones mpmath-backed balls made, bit for bit, ``exp`` aside.

Two balls "agree within eps" when ``|v1 - v2| <= r1 + r2 + eps``; exact
equality of midpoints is never meaningful for transcendental data.

``nstr`` is ``mpmath.nstr`` on integers, byte for byte, and ``format_ball``
is the one decimal form of a ball that minkqm prints: the midpoint to the
decimal places its radius justifies, and the radius to three digits.
"""

from __future__ import annotations

import contextlib
import math
import sys
from fractions import Fraction

from .errors import DomainError

__all__ = ["Dyadic", "from_pair", "PrecReal", "workprec", "rounded", "nstr", "format_fixed", "format_ball"]

_prec = 53  # the active precision p, in bits
_RADIUS_BITS = 53
_GUARD = 24  # exp's guard bits
_LOG2_10 = math.log(10, 2)  # the float mpmath's decimal conversion sizes its bits by
_HASH_MOD = sys.hash_info.modulus


@contextlib.contextmanager
def workprec(bits: int):
    """Round midpoints at `bits` bits inside the block."""
    global _prec
    saved, _prec = _prec, int(bits)
    try:
        yield
    finally:
        _prec = saved


# -- exact dyadic pairs (man, exp) ------------------------------------------------


def _norm(m: int, e: int) -> tuple[int, int]:
    """(m, e) with m's trailing zero bits moved into e; zero is (0, 0)."""
    if not m:
        return 0, 0
    t = (m & -m).bit_length() - 1
    return m >> t, e + t


def _round(m: int, e: int, prec: int, mode: str) -> tuple[int, int]:
    """m 2^e at prec bits: 'd' toward zero, 'u' away from zero, 'f' toward
    -inf, 'c' toward +inf, 'n' to nearest with ties to even."""
    a = abs(m)
    n = a.bit_length() - prec
    if n <= 0:
        return _norm(m, e)
    q, rest = a >> n, a & ((1 << n) - 1)
    half = 1 << (n - 1)
    if rest and (mode == "u" or mode == ("f" if m < 0 else "c")
                 or mode == "n" and (rest > half or rest == half and q & 1)):
        q += 1
    return _norm(-q if m < 0 else q, e + n)


def _add(a, b, prec: int = 0, mode: str = "u") -> tuple[int, int]:
    """a + b, exact, or rounded at prec bits in the given mode (see the
    module docstring, part 3, for a term far below the other)."""
    (ma, ea), (mb, eb) = a, b
    if not mb:
        return _round(ma, ea, prec, mode) if prec else a
    if not ma:
        return _round(mb, eb, prec, mode) if prec else b
    if prec:
        ta, tb = ea + abs(ma).bit_length(), eb + abs(mb).bit_length()
        if ta < tb:
            (ma, ea, ta), (mb, eb, tb) = (mb, eb, tb), (ma, ea, ta)
        k = min(ea, ta - prec - 2)
        if tb < k:  # |b| < 2^(k-1): b rounds as the one bit 2^(k-1) of its sign
            mb, eb = (1 if mb > 0 else -1), k - 1
    e = min(ea, eb)
    m = (ma << (ea - e)) + (mb << (eb - e))
    return _round(m, e, prec, mode) if prec else _norm(m, e)


def _mul(a, b) -> tuple[int, int]:
    """The exact product; odd mantissas have an odd product."""
    return (a[0] * b[0], a[1] + b[1]) if a[0] and b[0] else (0, 0)


def _div(a, b, prec: int, mode: str) -> tuple[int, int]:
    """a / b rounded at prec bits by one integer division: the quotient of
    at least prec + 1 bits, and a last bit set when a remainder is left,
    which lies below every rounding point."""
    (ma, ea), (mb, eb) = a, b
    if not ma:
        return 0, 0
    s = max(0, prec + abs(mb).bit_length() - abs(ma).bit_length() + 1)
    q, rest = divmod(abs(ma) << s, abs(mb))
    q = 2 * q + bool(rest)
    return _round(-q if (ma < 0) != (mb < 0) else q, ea - eb - s - 1, prec, mode)


def _up(a) -> tuple[int, int]:
    return _round(*a, _RADIUS_BITS, "u")


def _abs(a) -> tuple[int, int]:
    return abs(a[0]), a[1]


def _neg(a) -> tuple[int, int]:
    return -a[0], a[1]


def _ulp(a) -> tuple[int, int]:
    """2^(e + bc - p) for a = man 2^e, man of bc bits, at the active precision p."""
    return 1, a[1] + abs(a[0]).bit_length() - _prec


def _sign(*terms) -> int:
    """The sign of the exact sum of dyadic pairs.  Terms are added from the
    largest top bit down; one whose top bit lies two bits below the last
    bit of a nonzero sum so far, with all after it, is below that sum's
    magnitude and cannot change its sign, so the shift never passes it.
    Two terms, a comparison's case, skip the sort: the term with the
    higher top bit decides (zero has none), and at equal top bits their
    exact sum, whose shift is below either mantissa's length."""
    if len(terms) == 2:
        (a, e), (b, f) = terms
        ta, tb = (e + abs(a).bit_length() if a else -math.inf), (f + abs(b).bit_length() if b else -math.inf)
        acc = _add(*terms) if ta == tb else terms[tb > ta]
    else:
        acc = (0, 0)
        for m, e in sorted(terms, key=lambda t: t[1] + abs(t[0]).bit_length(), reverse=True):
            if acc[0] and e + abs(m).bit_length() <= acc[1] - 2:
                break
            acc = _add(acc, (m, e))
    return (acc[0] > 0) - (acc[0] < 0)


def _scale(a, q: int) -> tuple[int, int]:
    return a[0] * q, a[1]


def _pair(x) -> tuple[int, int]:
    """(man, exp) of an int, finite float, Dyadic, dyadic Fraction or mpf."""
    if isinstance(x, Dyadic):
        return x.pair
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"not a finite number: {x}")
        n, d = x.as_integer_ratio()
        return _norm(n, 1 - d.bit_length())
    if isinstance(x, (int, Fraction)) and not x.denominator & (x.denominator - 1):  # a power of two
        return _norm(x.numerator, 1 - x.denominator.bit_length())
    raw = getattr(x, "_mpf_", None)
    if raw is None:
        raise TypeError(f"a ball holds an int, float, mpf or dyadic Fraction, got {type(x).__name__}; see PrecReal.exact")
    sign, man, exp, _ = raw
    if not man and exp:
        raise DomainError(f"not a finite number: {x}")
    return (-int(man) if sign else int(man)), int(exp)


class Dyadic:
    """The exact number m 2^e, held as ``pair = (m, e)`` with m odd or
    (m, e) = (0, 0).  It is minkqm's one exact dyadic type: the ends of a
    ball, and the values ?(x) and the step weights of ``minkowski``.

    Built from an int, finite float, dyadic Fraction, Dyadic or mpf, or
    from any int pair by ``from_pair``.  It compares exactly with each of
    those and with any Fraction; adds and subtracts another Dyadic, and
    multiplies by an int, float or Dyadic, exactly, leaving every other
    operand to that operand's type, so ``mpf + d`` is mpmath's; converts to
    float as mpmath's ``float(mpf)`` does (the mantissa rounded to nearest
    at 53 bits, then ``math.ldexp``); hands mpmath its ``_mpf_`` tuple, so
    an mpf reference takes it unconverted; and prints as the exact fraction
    (``7/16``, ``1``).  ``man_exp`` is mpf's: (|m|, e), with the sign in
    ``_mpf_``.
    """

    __slots__ = ("pair",)

    def __init__(self, x=0):
        object.__setattr__(self, "pair", _pair(x))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Dyadic is immutable")

    @property
    def man_exp(self) -> tuple[int, int]:
        m, e = self.pair
        return abs(m), e

    @property
    def _mpf_(self) -> tuple[int, int, int, int]:
        m, e = self.pair
        return int(m < 0), abs(m), e, abs(m).bit_length()

    def as_fraction(self) -> Fraction:
        m, e = self.pair
        return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)

    def __float__(self) -> float:
        m, e = _round(*self.pair, 53, "n")
        try:
            return math.ldexp(m, e)
        except OverflowError:
            return math.copysign(math.inf, m)

    def __bool__(self) -> bool:
        return bool(self.pair[0])

    def __neg__(self) -> "Dyadic":
        return _dyadic(_neg(self.pair))

    def __abs__(self) -> "Dyadic":
        return _dyadic(_abs(self.pair))

    def __mul__(self, other):  # exact, by an int, float or Dyadic; mpmath takes an mpf
        return _dyadic(_mul(self.pair, _pair(other))) if isinstance(other, (Dyadic, int, float)) else NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):  # exact with a Dyadic; mpmath adds an mpf
        return _dyadic(_add(self.pair, other.pair)) if isinstance(other, Dyadic) else NotImplemented

    def __sub__(self, other):
        return _dyadic(_add(self.pair, _neg(other.pair))) if isinstance(other, Dyadic) else NotImplemented

    def _order(self, other):
        """The sign of self - other, None when other is a nan, NotImplemented
        for what this type does not compare with."""
        if isinstance(other, float) and not math.isfinite(other):
            return None if other != other else (-1 if other > 0 else 1)
        if isinstance(other, Fraction):
            return _sign((self.pair[0] * other.denominator, self.pair[1]), (-other.numerator, 0))
        try:
            return _sign(self.pair, _neg(_pair(other)))
        except (TypeError, DomainError):
            return NotImplemented

    def _compare(self, other, test):
        c = self._order(other)
        return c if c is NotImplemented else c is not None and test(c)

    def __eq__(self, other):
        return self._compare(other, lambda c: c == 0)

    def __hash__(self):  # Python's numeric hash, so it agrees with == on int, float and Fraction
        m, e = self.pair
        h = abs(m) % _HASH_MOD * pow(2, e, _HASH_MOD) % _HASH_MOD
        h = -h if m < 0 else h
        return -2 if h == -1 else h

    def __lt__(self, other):
        return self._compare(other, lambda c: c < 0)

    def __le__(self, other):
        return self._compare(other, lambda c: c <= 0)

    def __gt__(self, other):
        return self._compare(other, lambda c: c > 0)

    def __ge__(self, other):
        return self._compare(other, lambda c: c >= 0)

    def __repr__(self):
        return f"Dyadic('{nstr(self, 17)}')"

    def __str__(self):  # the exact fraction, as 7/16 or 1, with no cap on its digits
        m, e = self.pair
        return _decimal(m << e) if e >= 0 else f"{_decimal(m)}/{_decimal(1 << -e)}"


def _dyadic(pair: tuple[int, int]) -> Dyadic:
    """The Dyadic of an already normalized pair, held as given."""
    d = object.__new__(Dyadic)
    object.__setattr__(d, "pair", pair)
    return d


def from_pair(m: int, e: int) -> Dyadic:
    """The Dyadic m 2^e of any int pair, its trailing zero bits moved into e."""
    return _dyadic(_norm(m, e))


def _as_dyadic(x) -> Dyadic:
    return x if isinstance(x, Dyadic) else Dyadic(x)


def _interval(x):
    """(v, r, q): the midpoint and radius of a ball or point x, times the
    integer q > 0 that clears a Fraction's denominator when it is not dyadic."""
    if isinstance(x, PrecReal):
        return x.value.pair, x.radius.pair, 1
    if isinstance(x, Fraction) and x.denominator & (x.denominator - 1):
        return (x.numerator, 0), (0, 0), x.denominator
    return _pair(x), (0, 0), 1


def rounded(x, bits: int) -> Dyadic:
    """The int, Dyadic or Fraction x rounded to nearest at `bits` bits: a
    Fraction by one division, as ``mpmath.fdiv(numerator, denominator)``."""
    if isinstance(x, Fraction):
        return _dyadic(_div((x.numerator, 0), (x.denominator, 0), bits, "n"))
    return _dyadic(_round(*_pair(x), bits, "n"))


# -- exp ---------------------------------------------------------------------------


def _atanh(k: int, P: int) -> tuple[int, int]:
    """(A, n) with A <= atanh(1/k) 2^P < A + n, for k >= 3 and P >= 2.

    A sums the terms 2^P / (j k^j), j odd, each floored (losing under 1,
    (n - 1)/2 of them), while k^j <= 2^P; the rest is below
    1 / (1 - k^-2) < 9/8, so the loss is below n."""
    one, a, j, power = 1 << P, 0, 1, k
    while power <= one:
        a += one // (j * power)
        j, power = j + 2, power * k * k
    return a, j


def _ln2(P: int) -> tuple[int, int]:
    """(L, E) with L <= ln 2 2^P < L + E, from ln 2 = 2 atanh(1/3)."""
    a, n = _atanh(3, P)
    return 2 * a, 2 * n


def _exp(m: int, e: int, prec: int) -> tuple[int, int]:
    """e^x for x = m 2^e, rounded to nearest at prec bits, within (1/2 +
    2^-23) ulp of the result.

    With w = prec + 24 and n = w + kb, where |k| < 2^kb bounds the
    reduction's multiple, every integer below is a fixed-point number with
    P = n + bitlen(n) + 4 fraction bits.  X = floor(x 2^P) (off by < 1),
    L is ln 2 2^P from below with error < E <= 2P (``_ln2``), k is the
    integer nearest X / L, and R = X - k L stands for r = x - k ln 2 with
    |R - r 2^P| < 1 + |k| E < 2^(kb+1) (P + 1) <= 2^(P - w - 2), since
    P + 1 <= 2n < 2^(bitlen(n) + 1) for n >= 64.  So
    rho = R 2^-P is within 2^-(w+2) of r, and |rho| < ln 2 / 2 + 2^-w < 1/2.

    The Taylor sum S = sum_(j<=N) rho^j / j! is formed exactly, as one
    fraction by Horner's rule, and its remainder is below 2 |rho|^(N+1) /
    (N+1)! <= 2^-N / (N+1)!, which N makes at most 2^-(w+1).  With
    |e^r - e^rho| <= e^(1/2) 2^-(w+2), S is within 0.92 2^-w of e^r, and
    V, the integer nearest S 2^w, within 1.42 2^-w.  e^x = 2^k e^r, and
    e^r > 1/2, so the result v, V 2^(k-w) rounded to nearest at prec bits,
    is at least 2^(k-1) and ulp(v) >= 2^(k-prec): v lies within 1/2 ulp(v)
    + 1.42 2^(k-w) <= (1/2 + 2^-23) ulp(v) of e^x.
    """
    if not m:
        return 1, 0
    w = prec + _GUARD
    kb = max(e + abs(m).bit_length(), 0) + 2  # |x| < 2^(kb-2), so |k| <= |x| / ln 2 + 1 < 2^kb
    n = max(w + kb, 64)
    P = n + n.bit_length() + 4
    L, _ = _ln2(P)
    X = m << (e + P) if e + P >= 0 else m >> -(e + P)
    k = (2 * X + L) // (2 * L)
    R = X - k * L
    N = 1
    while math.factorial(N + 1) << N < 1 << (w + 1):
        N += 1
    u = v = 1  # s_(j-1) = u / v = 1 + rho s_j / j, from s_N = 1 down to S = s_0
    for j in range(N, 0, -1):
        u, v = (j * v << P) + R * u, j * v << P
    V = ((u << (w + 1)) + v) // (2 * v)
    return _round(V, k - w, prec, "n")


# -- balls ---------------------------------------------------------------------------


def _below(y, x) -> bool:
    """True when y's top bit lies more than p bits below x's last bit, p
    the active precision (never when x is 0)."""
    return bool(x[0]) and y[1] + abs(y[0]).bit_length() < x[1] - _prec


def _ball(v, r) -> "PrecReal":
    b = object.__new__(PrecReal)
    object.__setattr__(b, "value", _dyadic(v))
    object.__setattr__(b, "radius", _dyadic(r))
    return b


def _sum(x, r, y, s) -> "PrecReal":
    """The ball sum of x +- r and y +- s (see the module docstring)."""
    if _below(y, x):
        y, s = (0, 0), _add(s, _abs(y), _RADIUS_BITS)
    elif _below(x, y):
        x, r = (0, 0), _add(r, _abs(x), _RADIUS_BITS)
    return _ball(_add(x, y), _add(r, s, _RADIUS_BITS))


class PrecReal:
    """Arbitrary-precision real with a rigorous absolute-error radius."""

    __slots__ = ("value", "radius")

    def __init__(self, value, radius=0):
        v, r = _as_dyadic(value), _as_dyadic(radius)
        if r.pair[0] < 0:
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
    def lo(self) -> Dyadic:
        return _dyadic(_add(self.value.pair, _neg(self.radius.pair), _prec, "f"))

    @property
    def hi(self) -> Dyadic:
        return _dyadic(_add(self.value.pair, self.radius.pair, _prec, "c"))

    def contains(self, x) -> bool:
        """True when every point of x's (possibly degenerate) ball lies here,
        decided exactly."""
        v, r, q = _interval(x)
        c, s = _scale(self.value.pair, q), _scale(self.radius.pair, q)
        return _sign(c, _neg(v), r, _neg(s)) <= 0 and _sign(v, _neg(c), r, _neg(s)) <= 0

    def agrees(self, other, eps=0) -> bool:
        v, r, q = _interval(other)
        e, _, qe = _interval(eps)
        c, s = _scale(self.value.pair, q * qe), _scale(self.radius.pair, q * qe)
        v, r, e = _scale(v, qe), _scale(r, qe), _scale(e, q)
        return all(_sign(a, _neg(b), _neg(s), _neg(r), _neg(e)) <= 0 for a, b in ((c, v), (v, c)))

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        return other if isinstance(other, PrecReal) else PrecReal.exact(other)

    def __neg__(self):
        return _ball(_neg(self.value.pair), self.radius.pair)

    def __abs__(self):
        return _ball(_abs(self.value.pair), self.radius.pair)

    def __add__(self, other):
        o = self._coerce(other)
        return _sum(self.value.pair, self.radius.pair, o.value.pair, o.radius.pair)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return _sum(self.value.pair, self.radius.pair, _neg(o.value.pair), o.radius.pair)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        a, r, b, s = self.value.pair, self.radius.pair, o.value.pair, o.radius.pair
        spread = _up(_mul(_add(_abs(b), s, _RADIUS_BITS), r))
        return _ball(_mul(a, b), _add(_up(_mul(_abs(a), s)), spread, _RADIUS_BITS))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        a, r, s = self.value.pair, self.radius.pair, o.radius.pair
        b = _abs(o.value.pair)
        gap = _add(b, _neg(s))
        if gap[0] <= 0:
            raise ZeroDivisionError("divisor ball contains zero")
        num = _add(_up(_mul(_abs(a), s)), _up(_mul(b, r)), _RADIUS_BITS)
        rad = _div(num, _mul(b, gap), _RADIUS_BITS, "u")
        lo, hi = (_div(a, o.value.pair, _prec, way) for way in "du")
        return _ball(lo, _add(rad, _add(_abs(hi), _neg(_abs(lo))), _RADIUS_BITS))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def exp(self) -> "PrecReal":
        """Ball of e^x over this ball; its one rounding is in the module
        docstring, and ``_exp`` bounds it."""
        a, s = self.value.pair, self.radius.pair
        v = _exp(*a, _prec)
        r = _ulp(v)
        if s[0]:  # else nothing propagates, and one exp is enough
            slope = _exp(*_add(a, s, _prec, "c"), _prec)
            r = _add(r, _up(_mul(_add(slope, _ulp(slope), _RADIUS_BITS), s)), _RADIUS_BITS)
        return _ball(v, r)

    # -- presentation --------------------------------------------------------

    def __repr__(self):
        return f"PrecReal({nstr(self.value, 15)} ± {nstr(self.radius, 3)})"


# -- decimal output ------------------------------------------------------------------


def _const_floor(bounds, bits: int) -> int:
    """floor(c 2^bits) for the constant c whose bounds(P) is (A, n) with
    A <= c 2^P < A + n: P grows until both ends floor alike."""
    g = 32
    while True:
        a, n = bounds(bits + g)
        if a >> g == (a + n - 1) >> g:
            return a >> g
        g += 32


def _ln10(P: int) -> tuple[int, int]:
    """(A, n) with A <= ln 10 2^P < A + n: ln 10 = 6 atanh(1/3) + 2 atanh(1/9)."""
    (a3, n3), (a9, n9) = _atanh(3, P), _atanh(9, P)
    return 6 * a3 + 2 * a9, 6 * n3 + 2 * n9


def _pow(m: int, e: int, n: int, prec: int, mode: str) -> tuple[int, int]:
    """(m 2^e)^n for m 2^e > 0 at prec bits, step for step as mpmath's
    mpf_pow_int: a negative n through the reciprocal of the power at prec + 5
    bits rounded the other way, and binary powering with every partial
    product cut to prec + 4 bitlen(n) + 4 bits in the direction of mode."""
    if n < 0:
        return _div((1, 0), _pow(m, e, -n, prec + 5, {"d": "u", "u": "d", "f": "c", "c": "f"}.get(mode, mode)),
                    prec, mode)
    if n < 3 or m == 1 or m.bit_length() * n < 1000:
        return _round(m**n, e * n, prec, mode)
    work, down = prec + 4 * n.bit_length() + 4, mode in "ndf"

    def cut(x, ex):
        extra = x.bit_length() - work
        if extra <= 0:
            return x, ex
        return (x >> extra if down else -(-x >> extra)), ex + extra

    pm, pe = 1, 0
    while True:
        if n & 1:
            pm, pe = cut(pm * m, pe + e)
            n -= 1
            if not n:
                return _round(pm, pe, prec, mode)
        m, e = cut(m * m, e + e)
        n //= 2


def _decimal(n: int, size: int = 0) -> str:
    """str(n) for an int n of any length (str alone stops at 4300 digits):
    split by 10^half into halves of about size digits, as mpmath's numeral
    does, which is faster than str on long numbers."""
    if n < 0:
        return "-" + _decimal(-n)
    size = size or n.bit_length() * 3 // 10 + 1
    if size < 250:
        return str(n)
    half = (size + 1) // 2
    hi, lo = divmod(n, 10**half)
    return _decimal(hi) + _decimal(lo, half).rjust(half, "0")


def _digits(man: int, exp: int, dps: int) -> tuple[str, int]:
    """mpmath's to_digits_exp for man 2^exp > 0: the decimal digits, rounded
    toward zero past about dps digits, and the decimal exponent."""
    bitprec = int(dps * _LOG2_10) + 10
    exponent = 0
    if abs(exp + man.bit_length()) > 3500:
        # scale by the power of ten b = exp log10(2), with ln 2 and ln 10
        # floored at bitlen(|exp|) + 5 bits as mpmath has them
        prec = abs(exp).bit_length() + 5
        b = abs(exp) * _const_floor(_ln2, prec) // (4 * _const_floor(_ln10, prec - 2))
        b = -b if exp < 0 else b
        man, exp = _div((man, exp), _pow(5, 1, b, bitprec, "d"), bitprec, "d")
        exponent = b
    fixprec = max(bitprec - exp - man.bit_length(), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    offset = exp + fixprec
    sd = (man << offset if offset >= 0 else man >> -offset) * 10**fixdps >> fixprec
    digits = _decimal(sd, dps)
    return digits, exponent + len(digits) - fixdps - 1


def nstr(x, n: int) -> str:
    """``mpmath.nstr(x, n)`` of an int, float, Dyadic or mpf, n >= 1, byte
    for byte: the digits cut at n + 3 and rounded half up on digit n + 1,
    fixed notation while the decimal exponent lies inside (min(-n//3, -5),
    n), trailing zeros stripped."""
    m, e = _pair(x)
    if not m:
        return "0.0"
    digits, exponent = _digits(abs(m), e, n + 3)
    if len(digits) > n and digits[n] in "56789":
        digits = digits[:n].rstrip("9")
        if digits:
            digits = digits[:-1] + str(int(digits[-1]) + 1)
        else:
            digits, exponent = "1", exponent + 1
        digits = digits.ljust(n, "0")
    else:
        digits = digits[:n]
    split = 1
    if min(-(n // 3), -5) < exponent < n:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
            digits += "0" * (split - n)
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    sign = "-" if m < 0 else ""
    if digits[-1] == ".":
        digits += "0"
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"


def format_fixed(x, places: int) -> str:
    """Midpoint printed to a fixed number of decimal places: its exact value
    times 10^places, rounded half to even."""
    m, e = _pair(x)
    n = (m << e) * 10**places if e >= 0 else round(Fraction(m * 10**places, 1 << -e))
    sign = "-" if n < 0 else ""
    digits = str(abs(n)).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _places(r: Dyadic) -> int:
    """min(floor(-log10 r), 40) for r > 0, and 0 from r > 1/10 on, exactly:
    the number of k <= 40 with r 10^k <= 1."""
    m, e = r.pair
    if e >= 0:
        return 0
    if e + m.bit_length() < -140:  # r < 2^-140 < 10^-42
        return 40
    return sum(m * 10**k <= 1 << -e for k in range(1, 41))


def format_ball(ball: PrecReal) -> tuple[str, str]:
    """(value string, radius string); digits justified by the radius."""
    if not ball.radius:
        return nstr(ball.value, 17), "0"
    return format_fixed(ball.value, _places(ball.radius)), nstr(ball.radius, 3)
