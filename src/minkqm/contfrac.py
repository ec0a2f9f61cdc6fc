"""Regular and semi-regular continued fractions over exact rationals.

Regular:      x = [0; a1, a2, ...] = 1/(a1 + 1/(a2 + ...)),  a_i >= 1
Semi-regular: x = [[b1, b2, ...]]  = 1/(b1 - 1/(b2 - ...)),  b_i >= 2

Every rational in (0,1) has a finite canonical expansion of each kind;
the semi-regular twin that ends in an infinite run of 2s is reachable
through the digit-stream converter (`regular_to_semiregular`), never from
`semiregular_expand`, which always returns the finite form.

x = 1 is represented by a distinguished unit marker whose every prefix is
a run of 2s (the value [[2,2,2,...]]).

Inside, everything runs on Python ints: the digit streams take the pair
(p, q) of p/q, and evaluation runs the backward recurrence on an integer
pair (num, den), building one `Fraction` at the end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from typing import Iterator, Sequence

from .errors import DomainError, MalformedExpansionError, NeedsMoreDigitsError, ResourceLimitError

__all__ = [
    "RegularCF",
    "SemiRegularCF",
    "AngleForm",
    "regular_expand",
    "eval_regular",
    "semiregular_expand",
    "eval_semiregular",
    "regular_to_semiregular",
    "angle_from_semiregular",
    "eval_angle",
    "parse_cf",
    "regular_digits_int",
    "semiregular_digits_int",
]

# digits of a converted prefix or a semi-regular expansion: `cf convert 1/2
# --K 1048576` prints 2^20 of them in 0.65 s (2-CPU Xeon)
_K_MAX = 1 << 20


@dataclass(frozen=True)
class RegularCF:
    """Finite digit block of [0; a1, ..., as]; canonical form has a_s >= 2."""

    digits: tuple[int, ...]

    def __post_init__(self):
        if any(a < 1 for a in self.digits):
            raise DomainError(f"regular digits must be >= 1: {self.digits}")

    def canonical(self) -> "RegularCF":
        d = list(self.digits)
        if len(d) >= 2 and d[-1] == 1:
            d.pop()
            d[-1] += 1
        return RegularCF(tuple(d))

    def __str__(self):
        return "[0;" + ",".join(str(a) for a in self.digits) + "]"


@dataclass(frozen=True)
class SemiRegularCF:
    """Finite digit block of [[b1, ..., bk]] with b_i >= 2.

    A trailing digit 1 is tolerated (it appears transiently while rewriting
    interval endpoints such as [[b1,...,bk - 1]] with bk = 2); it is never
    produced by `semiregular_expand`.  `unit=True` marks x = 1, whose digit
    expansion is the infinite run [[2,2,2,...]].
    """

    digits: tuple[int, ...] = ()
    unit: bool = False

    def __post_init__(self):
        if self.unit and self.digits:
            raise DomainError("unit marker carries no digits")
        if any(b < 2 for b in self.digits[:-1]) or (
            self.digits and not self.unit and self.digits[-1] < 1
        ):
            raise DomainError(f"semi-regular digits must be >= 2: {self.digits}")

    def __str__(self):
        if self.unit:
            return "[[2,2,2,...]]"
        return "[[" + ",".join(str(b) for b in self.digits) + "]]"


@dataclass(frozen=True)
class AngleForm:
    """Entries of the equivalence-transformed fraction <d1, ..., dm>.

    Canonical entries built from semi-regular digits lie in (0,1); the head
    entry 1 is additionally allowed because <1, d> = 1/(1-d) shows up as a
    rewriting step.
    """

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        for d in self.entries:
            if not (0 < d <= 1):
                raise DomainError(f"angle entries must lie in (0, 1]: {d}")


# -- integer-level digit streams (hot paths share these) -----------------------


def regular_digits_int(p: int, q: int) -> list[int]:
    """Regular digits of p/q in (0,1) by the Euclidean recursion."""
    digits = []
    while p:
        a, r = divmod(q, p)
        digits.append(a)
        p, q = r, p
    return digits


def semiregular_digits_int(p: int, q: int) -> Iterator[int]:
    """Greedy semi-regular digits of p/q in (0,1): b = ceil(q/p), then
    the remainder b - q/p = (bp - q)/p is expanded recursively."""
    while p:
        b = -(-q // p)
        yield b
        p, q = b * p - q, p


def _check_unit_fraction(x: Fraction, allow_one: bool):
    if not isinstance(x, Fraction):
        x = Fraction(x)
    hi_ok = x < 1 or (allow_one and x == 1)
    if not (0 < x and hi_ok):
        dom = "(0, 1]" if allow_one else "(0, 1)"
        raise DomainError(f"argument must lie in {dom}: {x}")
    return x


# -- expansion / evaluation ----------------------------------------------------


def regular_expand(x: Fraction) -> RegularCF:
    """Canonical regular expansion of a rational in (0,1)."""
    x = _check_unit_fraction(x, allow_one=False)
    return RegularCF(tuple(regular_digits_int(x.numerator, x.denominator)))


def _eval_backward(digits: Sequence[int], sign: int, kind: str) -> Fraction:
    """Exact value of 1/(d1 + sign/(d2 + sign/(...))) by the backward
    recurrence t <- 1/(d + sign t) on the integer pair t = num/den."""
    if not digits:
        raise MalformedExpansionError(f"empty {kind} expansion")
    num, den = 0, 1
    for d in reversed(digits):
        num, den = den, (d * den + num if sign > 0 else d * den - num)  # not sign * num, a bigint multiply
        if den == 0:
            raise MalformedExpansionError(f"zero denominator while evaluating {digits}")
    return Fraction(num, den)


def eval_regular(cf: RegularCF | Sequence[int]) -> Fraction:
    """Exact value of [0; a1, ..., as]: t <- 1/(a + t)."""
    return _eval_backward(cf.digits if isinstance(cf, RegularCF) else tuple(cf), 1, "regular")


def semiregular_expand(x: Fraction) -> SemiRegularCF:
    """Finite canonical semi-regular expansion; x = 1 gives the unit marker.
    An expansion past _K_MAX digits is a ResourceLimitError: p/(p+1) has p
    of them, so the length is not bounded by the regular digit count."""
    x = _check_unit_fraction(x, allow_one=True)
    if x == 1:
        return SemiRegularCF(unit=True)
    digits = tuple(islice(semiregular_digits_int(x.numerator, x.denominator), _K_MAX + 1))
    if len(digits) > _K_MAX:
        raise ResourceLimitError(f"the semi-regular expansion is longer than the cap of {_K_MAX} digits")
    return SemiRegularCF(digits)


def eval_semiregular(cf: SemiRegularCF | Sequence[int]) -> Fraction:
    """Exact value of [[b1, ..., bk]]: t <- 1/(b - t); the unit marker is 1."""
    if isinstance(cf, SemiRegularCF) and cf.unit:
        return Fraction(1)
    return _eval_backward(cf.digits if isinstance(cf, SemiRegularCF) else tuple(cf), -1, "semi-regular")


# -- digit-stream conversion ---------------------------------------------------


def _ramharter_stream(a_digits: Sequence[int]) -> Iterator[int]:
    """Semi-regular digit stream of [0; a1, a2, ...]:

        [[a1 + 1, 2_(a2-1), a3 + 2, 2_(a4-1), a5 + 2, ...]]

    where 2_m is a run of m twos.  A missing even-position digit means the
    current run of 2s continues forever (the infinite twin of a rational),
    so an odd-length input goes on with twos; an even-length one stops.
    """
    for i, a in enumerate(a_digits):
        if i % 2:
            yield from repeat(2, a - 1)
        else:
            yield a + 2 if i else a + 1
    if len(a_digits) % 2:
        yield from repeat(2)


def regular_to_semiregular(cf: RegularCF | Sequence[int], K: int) -> SemiRegularCF:
    """First K semi-regular digits of the mapped expansion of a regular CF.

    For a finite input the result is either the exact finite expansion (when
    the input ends on an even digit position) or a prefix of the infinite
    twin ending in 2,2,2,...; either way its value converges to the input's
    value as K grows.
    """
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    if K > _K_MAX:
        raise ResourceLimitError(f"K is capped at {_K_MAX}, got {K}")
    digits = cf.digits if isinstance(cf, RegularCF) else tuple(cf)
    if any(a < 1 for a in digits):
        raise DomainError(f"regular digits must be >= 1: {digits}")
    out = tuple(islice(_ramharter_stream(digits), K))
    if len(out) < K:
        raise NeedsMoreDigitsError(
            f"only {len(out)} semi-regular digits derivable from {len(digits)} regular digits"
        )
    return SemiRegularCF(out)


# -- equivalence transformation --------------------------------------------------


def angle_from_semiregular(cf: SemiRegularCF | Sequence[int]) -> AngleForm:
    """Entries d1 = 1/b1, d_{i+1} = 1/(b_i b_{i+1}) of the angle form."""
    digits = cf.digits if isinstance(cf, SemiRegularCF) else tuple(cf)
    if not digits:
        raise MalformedExpansionError("empty semi-regular expansion")
    entries = [Fraction(1, digits[0])]
    for prev, cur in zip(digits, digits[1:]):
        entries.append(Fraction(1, prev * cur))
    return AngleForm(tuple(entries))


def eval_angle(a: AngleForm | Sequence[Fraction]) -> Fraction:
    """Exact value of <d1, ..., dm> = d1/(1 - d2/(1 - ... (1 - dm)))."""
    entries = a.entries if isinstance(a, AngleForm) else tuple(Fraction(d) for d in a)
    if not entries:
        raise MalformedExpansionError("empty angle form")
    num, den = entries[-1].numerator, entries[-1].denominator  # t = num/den
    for d in reversed(entries[:-1]):
        if num == den:
            raise MalformedExpansionError("zero denominator in angle evaluation")
        # t <- d/(1 - t) = (d.num den) / (d.den (den - num))
        num, den = d.numerator * den, d.denominator * (den - num)
    return Fraction(num, den)


# -- text round-trip -------------------------------------------------------------

_RE_REGULAR = re.compile(r"^\[0;([0-9]+(?:,[0-9]+)*)\]$")
_RE_SEMIREGULAR = re.compile(r"^\[\[([0-9]+(?:,[0-9]+)*)\]\]$")


def parse_cf(text: str) -> RegularCF | SemiRegularCF:
    """Parse "[0;a1,a2,...]" or "[[b1,b2,...]]" exactly as printed."""
    s = text.strip()
    for pattern, kind in ((_RE_REGULAR, RegularCF), (_RE_SEMIREGULAR, SemiRegularCF)):
        m = pattern.match(s)
        if m:
            try:
                digits = tuple(int(t) for t in m.group(1).split(","))
            except ValueError as exc:  # a digit past Python's int-to-str cap
                raise DomainError(f"continued-fraction digit too long: {exc}") from exc
            return kind(digits)
    raise DomainError(f"unrecognized continued-fraction text: {text!r}")
