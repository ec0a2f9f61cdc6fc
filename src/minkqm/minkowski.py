"""The question mark function on rationals, plus its step-weight functions.

Two independent digit formulas are implemented:

    ?([0; a1, a2, ...])   = 2^(1-a1) - 2^(1-(a1+a2)) + 2^(1-(a1+a2+a3)) - ...
    ?([[b1, b2, ...]])    = 2^(1-b1) + 2^(2-(b1+b2)) + 2^(3-(b1+b2+b3)) + ...

Their pointwise equality on rationals is a theorem that the test suite
checks exhaustively; the code never assumes it.  Each formula is one
kernel on the integer pair (p, q) of x = p/q, returning (num, exp) for
num / 2^exp; `question_mark` and `question_mark_semiregular` validate x
and return that pair as the exact `balls.Dyadic` num 2^-exp.

The weights use the finite semi-regular expansion of a rational.  Digits
past the end of that expansion are treated as +infinity, so their 2-power
terms vanish; under that convention

    f_l(x) = 2^(l - (b1+...+bl)),      f_0 = 1,  f_l = 0 for l > k,
    h_l(x) = f_l(x) - 2 f_{l+1}(x) >= 0,
    sum_l h_l(x) = 1 - ?(x)            (finite sum, checked exactly).

Each weight is dyadic too, and is returned as a `balls.Dyadic`.

Only pointwise values at rationals are computed.  The weights extend to a
right-continuous step function on (0, 1], but no limit operation is
offered: the integrals downstream never see the countable exceptional set.
"""

from __future__ import annotations

from itertools import islice

from .balls import Dyadic, from_pair
from .contfrac import _check_unit_fraction, regular_digits_int, semiregular_digits_int
from .errors import DomainError, ResourceLimitError

__all__ = [
    "question_mark",
    "question_mark_semiregular",
    "question_mark_int",
    "question_mark_semiregular_int",
    "weight_f",
    "weight_h",
    "h_values",
]

# exponent of ?(x)'s denominator 2^exp: printing a 2^20-bit integer takes 0.92 s, a 2^18-bit one 0.059 s
# (balls._decimal, Python 3.11, 2-CPU Xeon)
_EXP_MAX = 1 << 20


def question_mark_int(p: int, q: int) -> tuple[int, int]:
    """?(p/q) for 0 < p <= q from the regular digits, as (num, exp) with
    ?(p/q) = num / 2^exp and num odd, so the pair is in lowest terms.

    num = sum_j (-1)^(j-1) 2^(S - S_j) (S_j the digit partial sums, S the
    total) is built as num <- num * 2^a_j +- 1, and exp = S - 1.  Each
    turn takes two Euclidean steps, so the sign needs no variable.  A
    non-reduced pair gives the same digits, so the same value.
    """
    num = s = 0
    while True:
        a = q // p
        q -= a * p
        s += a
        num = (num << a) + 1
        if not q:
            return num, s - 1
        a = p // q
        p -= a * q
        s += a
        num = (num << a) - 1
        if not p:
            return num, s - 1


def question_mark_semiregular_int(p: int, q: int) -> tuple[int, int]:
    """?(p/q) for 0 < p <= q from the semi-regular digits, as (num, exp)
    with ?(p/q) = num / 2^exp and num odd, so the pair is in lowest terms.

    num / 2^exp is built as num <- num * 2^(b-1) + 1, exp <- exp + b - 1
    per digit b.  With d = q - p, a digit 2 maps (p, q) to (p - d, p) and
    keeps d, so the run of 2s at (p, q) has length m = p // d, ends at
    (p - m d, p - (m-1) d) and adds num <- num * 2^m + 2^m - 1 in one
    step.  Once p < d the next digit is at least 3.  A non-reduced pair
    gives the same digits, so the same value.
    """
    if p == q:  # x = 1, the unit [[2, 2, 2, ...]]
        return 1, 0
    num = e = 0
    while True:
        d = q - p
        m = p // d
        if m:  # a run of m digits 2
            num = ((num + 1) << m) - 1
            e += m
            p -= m * d
            if not p:
                return num, e
            q = p + d
        b = -(-q // p)
        num = (num << (b - 1)) + 1
        e += b - 1
        p, q = b * p - q, p
        if not p:
            return num, e


def _checked_pair(x) -> tuple[int, int]:
    """(p, q) of x = p/q in (0, 1], whose ?(x) = num / 2^exp must have
    exp <= _EXP_MAX.  exp is the regular digit sum minus 1 (see
    question_mark_int), so this is checked before any shift builds num."""
    x = _check_unit_fraction(x, allow_one=True)
    exp = sum(regular_digits_int(x.numerator, x.denominator)) - 1
    if exp > _EXP_MAX:
        raise ResourceLimitError(f"?(x) = num / 2^{exp} is past the cap 2^{_EXP_MAX}")
    return x.numerator, x.denominator


def question_mark(x) -> Dyadic:
    """?(x) from the regular expansion's alternating 2-power sum."""
    num, exp = question_mark_int(*_checked_pair(x))
    return from_pair(num, -exp)


def question_mark_semiregular(x) -> Dyadic:
    """?(x) from the semi-regular expansion's positive 2-power sum."""
    num, exp = question_mark_semiregular_int(*_checked_pair(x))
    return from_pair(num, -exp)


def weight_f(x, ell: int) -> Dyadic:
    """f_ell(x) = 2^(ell - b1 - ... - b_ell); 0 when the expansion is shorter."""
    if ell < 0:
        raise DomainError(f"ell must be >= 0, got {ell}")
    x = _check_unit_fraction(x, allow_one=True)
    if ell == 0:
        return from_pair(1, 0)
    if x == 1:  # every digit is 2
        return from_pair(1, -ell)
    digits = list(islice(semiregular_digits_int(x.numerator, x.denominator), ell))
    if ell > len(digits):
        return from_pair(0, 0)
    return from_pair(1, ell - sum(digits))


def weight_h(x, ell: int) -> Dyadic:
    """h_ell(x) = f_ell(x) - 2 f_{ell+1}(x), non-negative by b_i >= 2."""
    return weight_f(x, ell) - 2 * weight_f(x, ell + 1)


def h_values(x) -> list[Dyadic]:
    """All potentially nonzero h_ell(x), ell = 0..k (k = expansion length).

    With e = (b1 + ... + b_ell) - ell and b = b_(ell+1) the next digit,
    h_ell = 2^-e - 2^(2-e-b) = (2^(b-2) - 1) / 2^(e+b-2), which is zero when
    b = 2 and otherwise in lowest terms; h_k = f_k = 2^-e.  Each value is
    built from the digits with shifts, in memory linear in k.

    Their exact sum equals 1 - ?(x); for x = 1 the list is empty.
    """
    x = _check_unit_fraction(x, allow_one=True)
    if x == 1:
        return []
    zero = from_pair(0, 0)
    out = []
    e = 0
    for b in semiregular_digits_int(x.numerator, x.denominator):
        out.append(from_pair((1 << (b - 2)) - 1, 2 - e - b) if b > 2 else zero)
        e += b - 1
    out.append(from_pair(1, -e))
    return out
