"""Series kernels: c_s = 2 Li_s(1/2) - 1 and the scaled Bessel I1 sum.

    Li_s(1/2) = sum_{n>=1} 2^-n n^-s
    c_s       = 2 Li_s(1/2) - 1 = sum_{n>=2} 2^(1-n) n^-s,   0 < c_s < 2^-s
    S(x)      = sqrt(x) I1(2 sqrt(x)) = sum_{q>=1} x^q / ((q-1)! q!)

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

The Bessel terms are positive with ratio x / (q (q+1)), below 1/2 once
q (q+1) >= 2 x; from there the tail is at most twice the next term, and the
ball arithmetic covers the rounding of the sum.
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath import mp, mpf

from .balls import PrecReal, as_eps, working_bits
from .errors import DomainError

__all__ = ["c_coeff", "bessel_i1_scaled"]

_MAX_TERMS = 100_000

_C_BITS = 96  # relative accuracy of the cached c_s, which feed the float64 chain
# c_s held at once by c_coeff_cached: a chain at the Q cap of 1600 reads c_1 .. c_3200
_C_CACHED = 4096


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


def c_coeff(s: int, eps) -> PrecReal:
    """Enclosure of c_s = 2 Li_s(1/2) - 1 with radius <= eps.

    Starting the series at n = 2 keeps every term positive, so no
    cancellation enters even for s = 1 where c_1 = 2 ln 2 - 1.  At
    P = working_bits(eps) bits the fewer than 2^17 floors cost below
    2^17 2^-P <= eps/4 and the tail at most eps/2; the ball is centred.
    """
    if s <= 0:
        raise DomainError(f"c_coeff needs s >= 1, got {s}")
    e = as_eps(eps)
    prec = working_bits(e)
    total, width = _c_fixed(s, prec, int(mp.ldexp(e, prec - 1)))
    with mp.workprec(prec + 1):  # 2 T + R < 2^(prec+1): both mpfs are exact
        return PrecReal(mpf((2 * total + width, -prec - 1)), mpf((width, -prec - 1)))


@lru_cache(maxsize=_C_CACHED)
def c_coeff_cached(s: int) -> tuple[float, float, mpf]:
    """c_s for the float64 chain as (midpoint, relative bound, exact mpf).

    Summed once per s at P = s + _C_BITS + 19 bits with the tail goal
    2^-(s+97), so the enclosure [T, T + R] 2^-P is ~2^-_C_BITS relative.
    Both midpoints are the lower end T 2^-P; the bound R/T adds 2^-53 for
    rounding it to float64.  The moment engine reads each c_s many times.
    """
    prec = s + _C_BITS + 19
    total, width = _c_fixed(s, prec, 1 << (prec - s - 97))
    with mp.workprec(prec):  # T < 2^(prec-s): exact
        value = mpf((total, -prec))
    return math.ldexp(float(total), -prec), width / total + 2.0**-53, value


def bessel_i1_scaled(x, eps) -> PrecReal:
    """Enclosure of S(x) = sqrt(x) I1(2 sqrt(x)) for a ball x >= 0.

    Terms obey t_{q+1} = t_q * x / (q (q+1)), monotone decreasing once
    q(q+1) > 2 x, after which the tail is geometric with ratio <= 1/2.
    """
    e = as_eps(eps)
    with mp.workprec(working_bits(e)):
        xb = x if isinstance(x, PrecReal) else PrecReal.exact(x)
        if xb.lo < 0:
            raise DomainError(f"bessel_i1_scaled needs x >= 0, got {x}")
        if xb.hi == 0:
            return PrecReal.zero()
        total = PrecReal.zero()
        term = xb
        q = 1
        while True:
            total = total + term
            nxt = term * xb / (q * (q + 1))
            ratio_hi = xb.hi / (q * (q + 1))
            if ratio_hi <= mpf(1) / 2 and 2 * nxt.hi <= e / 2:
                tail = 2 * nxt.hi
                break
            term = nxt
            q += 1
            if q > _MAX_TERMS:
                raise DomainError("bessel series failed to converge")
        return PrecReal(total.value, total.radius + tail)
