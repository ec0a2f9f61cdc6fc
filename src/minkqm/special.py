"""Series kernels: c_s = 2 Li_s(1/2) - 1 and the scaled Bessel I1 sum.

    Li_s(1/2) = sum_{n>=1} 2^-n n^-s
    c_s       = 2 Li_s(1/2) - 1 = sum_{n>=2} 2^(1-n) n^-s,   0 < c_s < 2^-s
    S(y)      = sqrt(y) I1(2 sqrt(y)) = sum_{q>=1} y^q / ((q-1)! q!)

c_s is summed in P-bit fixed point on Python ints, so its enclosure holds
no rounding allowance.  In units of 2^-P term n is
t_n = 2^(P+1-n) n^-s, and one division (1 << (P+2)) // (n**s << n) gives
floor(2 t_n), hence floor(t_n) and whether it is exact.  Let T sum the
floors of t_2..t_N and k count the inexact ones: each loses less than one
unit, so T <= sum_{n<=N} t_n <= T + k.  For every n >= 2 the term ratio
t_(n+1)/t_n = (1/2) (n/(n+1))^s is at most 1/2, so the tail past N is at
most 2 t_(N+1) <= ceil(2 t_(N+1)), the division's quotient rounded up.  So

    T 2^-P <= c_s <= (T + k + ceil(2 t_(N+1))) 2^-P,

where N + 1 is the first n > 2 whose tail bound ceil(2 t_n) meets the goal.

S is summed in float64 over arrays of y >= 0.  The terms are positive with
ratio y / (q (q+1)), at most 1/2 once q (q+1) >= 2 y; from there the tail is
at most the last term added, and summing stops once that term is below
2^-60 of the sum at every point, so the truncation stays far below float64
rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = ["c_coeff", "bessel_i1_scaled"]

_MAX_TERMS = 100_000

_C_BITS = 96  # relative accuracy of the cached c_s, which feed the float64 chain
# c_s held at once by c_coeff: a chain at the Q cap of 1600 reads c_1 .. c_3200
_C_CACHED = 4096
# relative size of the last Bessel term summed, which bounds the omitted tail
_S_STOP = 2.0**-60


def _c_fixed(s: int, prec: int, goal: int) -> tuple[int, int]:
    """(T, R) with T <= 2^prec c_s <= T + R, both integers.

    Sums the floored terms from n = 2 and stops before the first later term
    whose tail bound ceil(2 t_n) is at most `goal` units.
    """
    two = 1 << (prec + 2)
    total = inexact = 0
    for n in range(2, _MAX_TERMS):
        twice, r = divmod(two, n**s << n)  # floor(2 t_n)
        tail = twice + (r > 0)
        if n > 2 and tail <= goal:
            return total, inexact + tail
        total += twice >> 1
        inexact += bool(r or twice & 1)
    raise DomainError("series failed to reach the requested eps")


@lru_cache(maxsize=_C_CACHED)
def c_coeff(s: int) -> tuple[float, float, Fraction]:
    """c_s for the float64 chain as (midpoint, relative bound, exact lower end).

    Summed once per s at P = s + _C_BITS + 19 bits with the tail goal
    2^-(s+97), so the enclosure [T, T + R] 2^-P is ~2^-_C_BITS relative.
    Starting the series at n = 2 keeps every term positive, so no
    cancellation enters even for s = 1 where c_1 = 2 ln 2 - 1.  The exact
    lower end is the Fraction T / 2^P and the midpoint its float64, which
    the bound R/T covers with 2^-53, so |midpoint - c_s| <= bound * c_s
    while the midpoint is normal.  It is ldexp(float(T), -P), rounded
    again once subnormal (past s = 1021), as the chain's pinned floats
    are.  The moment engine reads each c_s many times.
    """
    if s <= 0:
        raise DomainError(f"c_coeff needs s >= 1, got {s}")
    prec = s + _C_BITS + 19
    total, width = _c_fixed(s, prec, 1 << (prec - s - 97))
    return math.ldexp(float(total), -prec), width / total + 2.0**-53, Fraction(total, 1 << prec)


def bessel_i1_scaled(y: np.ndarray) -> np.ndarray:
    """S(y) = sum_{q>=1} y^q / ((q-1)! q!) for y >= 0, in float64.

    Terms are positive and obey t_(q+1) = t_q y / (q (q+1)).  Once
    q (q+1) > 2 max(y) each later term is at most half the one before, so
    the omitted tail is at most the last term added; summing stops when
    that term is below _S_STOP = 2^-60 of the sum at every point.
    """
    term = np.array(y, dtype=np.float64)
    total = term.copy()
    top = 2 * total.max(initial=0.0)
    q = 1
    while True:
        term *= y / (q * (q + 1))
        total += term
        q += 1
        if q * (q + 1) > top and np.all(term <= total * _S_STOP):
            return total
