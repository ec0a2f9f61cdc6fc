"""The question mark function on rationals, plus its step-weight functions.

Two independent digit formulas are implemented:

    ?([0; a1, a2, ...])   = 2^(1-a1) - 2^(1-(a1+a2)) + 2^(1-(a1+a2+a3)) - ...
    ?([[b1, b2, ...]])    = 2^(1-b1) + 2^(2-(b1+b2)) + 2^(3-(b1+b2+b3)) + ...

Their pointwise equality on rationals is a theorem that the test suite
checks exhaustively; the code never assumes it.

The weights use the finite semi-regular expansion of a rational.  Digits
past the end of that expansion are treated as +infinity, so their 2-power
terms vanish; under that convention

    f_l(x) = 2^(l - (b1+...+bl)),      f_0 = 1,  f_l = 0 for l > k,
    h_l(x) = f_l(x) - 2 f_{l+1}(x) >= 0,
    sum_l h_l(x) = 1 - ?(x)            (finite sum, checked exactly).

Only pointwise values at rationals are computed.  The weights extend to a
right-continuous step function on (0, 1], but no limit operation is
offered: the integrals downstream never see the countable exceptional set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .contfrac import regular_digits_int, semiregular_digits_int
from .errors import DomainError

__all__ = [
    "DyadicRational",
    "question_mark",
    "question_mark_semiregular",
    "weight_f",
    "weight_h",
    "h_values",
]


@dataclass(frozen=True, order=False)
class DyadicRational:
    """num / 2^exp in lowest terms (num odd unless exp == 0)."""

    num: int
    exp: int

    def __post_init__(self):
        if self.exp < 0:
            raise DomainError("exponent must be non-negative")
        if self.exp > 0 and self.num % 2 == 0:
            raise DomainError(f"not in lowest terms: {self.num}/2^{self.exp}")

    @classmethod
    def from_parts(cls, num: int, exp: int) -> "DyadicRational":
        while exp > 0 and num % 2 == 0:
            num //= 2
            exp -= 1
        return cls(num, exp)

    @classmethod
    def from_fraction(cls, x: Fraction) -> "DyadicRational":
        den = x.denominator
        exp = den.bit_length() - 1
        if den != 1 << exp:
            raise DomainError(f"{x} is not dyadic")
        return cls(x.numerator, exp)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def halved(self) -> "DyadicRational":
        return DyadicRational.from_parts(self.num, self.exp + 1)

    def __add__(self, other):
        e = max(self.exp, other.exp)
        return DyadicRational.from_parts(
            (self.num << (e - self.exp)) + (other.num << (e - other.exp)), e
        )

    def __sub__(self, other):
        e = max(self.exp, other.exp)
        return DyadicRational.from_parts(
            (self.num << (e - self.exp)) - (other.num << (e - other.exp)), e
        )

    def __str__(self):
        return f"{self.num}/{1 << self.exp}" if self.exp else str(self.num)


def _check_domain(x) -> Fraction:
    x = Fraction(x)
    if not (0 < x <= 1):
        raise DomainError(f"argument must lie in (0, 1]: {x}")
    return x


def question_mark(x) -> DyadicRational:
    """?(x) from the regular expansion's alternating 2-power sum."""
    x = _check_domain(x)
    if x == 1:
        return DyadicRational(1, 0)
    # value = M / 2^(S-1) with M := sum_j (-1)^(j-1) 2^(S - S_j), built
    # incrementally as M <- M * 2^a_j + (-1)^(j-1)
    m = 0
    s = 0
    sign = 1
    for a in regular_digits_int(x.numerator, x.denominator):
        s += a
        m = (m << a) + sign
        sign = -sign
    return DyadicRational.from_parts(m, s - 1)


def question_mark_semiregular(x) -> DyadicRational:
    """?(x) from the semi-regular expansion's positive 2-power sum."""
    x = _check_domain(x)
    if x == 1:
        return DyadicRational(1, 0)
    # value = N / 2^(S-k), built as N <- N * 2^(b_j - 1) + 1
    n = 0
    s = 0
    k = 0
    for b in semiregular_digits_int(x.numerator, x.denominator):
        s += b
        k += 1
        n = (n << (b - 1)) + 1
    return DyadicRational.from_parts(n, s - k)


def _semiregular_digit_list(x: Fraction) -> list[int] | None:
    """Finite digit list, or None for the unit (x = 1, digits all 2)."""
    if x == 1:
        return None
    return list(semiregular_digits_int(x.numerator, x.denominator))


def weight_f(x, ell: int) -> DyadicRational:
    """f_ell(x) = 2^(ell - b1 - ... - b_ell); 0 when the expansion is shorter."""
    if ell < 0:
        raise DomainError(f"ell must be >= 0, got {ell}")
    x = _check_domain(x)
    if ell == 0:
        return DyadicRational(1, 0)
    digits = _semiregular_digit_list(x)
    if digits is None:  # x = 1: every digit is 2
        return DyadicRational.from_parts(1, ell)
    if ell > len(digits):
        return DyadicRational(0, 0)
    return DyadicRational.from_parts(1, sum(digits[:ell]) - ell)


def weight_h(x, ell: int) -> DyadicRational:
    """h_ell(x) = f_ell(x) - 2 f_{ell+1}(x), non-negative by b_i >= 2."""
    lo = weight_f(x, ell)
    hi = weight_f(x, ell + 1)
    return lo - DyadicRational.from_parts(hi.num * 2, hi.exp)


def h_values(x) -> list[DyadicRational]:
    """All potentially nonzero h_ell(x), ell = 0..k (k = expansion length).

    With e = (b1 + ... + b_ell) - ell and b = b_(ell+1) the next digit,
    h_ell = 2^-e - 2^(2-e-b) = (2^(b-2) - 1) / 2^(e+b-2), which is zero when
    b = 2 and otherwise in lowest terms; h_k = f_k = 2^-e.  Each value is
    built from the digits with shifts, in memory linear in k.

    Their exact sum equals 1 - ?(x); for x = 1 the list is empty.
    """
    x = _check_domain(x)
    if x == 1:
        return []
    zero = DyadicRational(0, 0)
    out = []
    e = 0
    for b in semiregular_digits_int(x.numerator, x.denominator):
        out.append(DyadicRational((1 << (b - 2)) - 1, e + b - 2) if b > 2 else zero)
        e += b - 1
    out.append(DyadicRational(1, e))
    return out
