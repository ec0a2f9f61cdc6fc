"""Series kernels: c_s = 2 Li_s(1/2) - 1 and the scaled Bessel I1 sum.

Both series have strictly positive terms and eventually-geometric decay,
so truncation tails are bounded by the first omitted term times 2 once the
term ratio has dropped below 1/2.  Every result is returned as a ball whose
radius covers both the truncation tail and the rounding of the summation.

    Li_s(1/2) = sum_{n>=1} 2^-n n^-s
    c_s       = 2 Li_s(1/2) - 1 = sum_{n>=2} 2^(1-n) n^-s,   0 < c_s < 2^-s
    S(x)      = sqrt(x) I1(2 sqrt(x)) = sum_{q>=1} x^q / ((q-1)! q!)
"""

from __future__ import annotations

from mpmath import mp, mpf

from .balls import PrecReal, as_eps, working_bits
from .errors import DomainError

__all__ = ["c_coeff", "bessel_i1_scaled"]

_MAX_TERMS = 100_000

_C_BITS = 96  # relative accuracy of the cached c_s, which feed the float64 chain
# s -> PrecReal; c_s values are reused heavily by the moment engine
_c_cache: dict = {}


def _positive_series(term_at, eps: mpf) -> PrecReal:
    """Sum term_at(n) for n >= 2 while tracking a rigorous tail bound.

    Requires terms positive with ratio <= 1/2 from some point on (true for
    the c_s series); stops once twice the next term is below eps/2.
    """
    total = mpf(0)
    n = 2
    ops = 0
    while True:
        t = term_at(n)
        nxt = term_at(n + 1)
        total += t
        ops += 1
        if nxt <= t / 2 and 2 * nxt <= eps / 2:
            tail = 2 * nxt
            break
        n += 1
        if ops > _MAX_TERMS:
            raise DomainError("series failed to reach the requested eps")
    rounding = total * ops * mpf(2) ** (1 - mp.prec)
    return PrecReal(total, (tail + rounding) * (1 + mpf(2) ** (8 - mp.prec)))


def c_coeff(s: int, eps) -> PrecReal:
    """Enclosure of c_s = 2 Li_s(1/2) - 1, summed directly from n = 2.

    Starting the series at n = 2 keeps every term positive, so no
    cancellation enters even for s = 1 where c_1 = 2 ln 2 - 1.
    """
    if s <= 0:
        raise DomainError(f"c_coeff needs s >= 1, got {s}")
    e = as_eps(eps)
    with mp.workprec(working_bits(e)):
        return _positive_series(lambda n: mpf(2) ** (1 - n) * mpf(n) ** (-s), e)


def c_coeff_cached(s: int) -> PrecReal:
    """c_s at relative accuracy ~2^-_C_BITS (absolute target scales with 2^-s)."""
    got = _c_cache.get(s)
    if got is None:
        got = c_coeff(s, mpf(2) ** (-(s + _C_BITS)))
        _c_cache[s] = got
    return got


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
