"""Exact recurrence lab for the rational-function family Q_n(z).

    Q_0(z) = -1/(2z),
    Q_n(z) = (1/2) sum_{j=0}^{n-1} c_{n,j} (z^j - z^-(j+2)),
    c_{n,j} = Q_{n-j-1}^{(j)}(-1) / j!,

all over exact rationals, so the derived number sequence Q_n'(-1) and the
entire-function partial sums Lambda_N(t) = sum Q_n'(-1)/n! t^n carry no
floating-point noise.  The recurrence only ever reads derivatives at -1,
so it runs on the table b_{m,k} = Q_m^{(k)}(-1) / k! alone: b_{0,k} = 1/2,
c_{n,j} = b_{n-j-1,j}, and since every power of z is a sign at -1, the
bracket identity

    b_{n,k} = (1/2) sum_j c_{n,j} (-1)^j ((-1)^k C(j, k) - C(j+k+1, k))

(the falling factorials (j)_k and (-j-2)_k = (-1)^k (j+k+1)_k of Q_n^(k)
divided by k!) gives row n from the rows before it.  Its brackets are
integers, so by induction 2^(n+1) b_{n,k} and 2^n c_{n,j} are integers:
`_table` holds each row as integers over that one power of two, and
Fractions are formed only for what q_sequence and q_prime_at_minus_one
return.  The table is rebuilt on every call and cached nowhere, so
the registry's recomputation check compares two tables built apart; at
N = 60 it holds 177 KB (tracemalloc).  The closing second-moment
comparison is a report: the underlying identity is conjectural, so
nothing here asserts it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .balls import PrecReal, format_ball, nstr, rounded, workprec
from .errors import DomainError, ResourceLimitError
from .moments import moment

__all__ = [
    "LaurentPoly",
    "q_sequence",
    "q_prime_at_minus_one",
    "conjecture_m2_report",
    "Q_SEQUENCE_MAX_N",
]

Q_SEQUENCE_MAX_N = 60
_M2_EPS = 1e-8  # target radius of the report's series m_2


@dataclass(frozen=True)
class LaurentPoly:
    """Exact-rational polynomial in z and 1/z, sparse by exponent."""

    coeffs: tuple[tuple[int, Fraction], ...]  # sorted, no zero coefficients


def _table(N: int) -> tuple[list[list[int]], list[list[int]]]:
    """The rows B[m] of b[m][k] = Q_m^(k)(-1) / k! = B[m][k] / 2^(m+1) and the
    coefficient rows C[n] of c[n][j] = C[n][j] / 2^n of Q_0 .. Q_N, as integers.

    Row m holds k < max(N - m, 2): the k <= N-1-m that later rows read, and
    k = 1 for Q_m'(-1) = b[m][1].  Row n of C reads c[n][j] = b[n-j-1][j]
    over the common denominator 2^n, and row n of B is one integer sum of
    the bracket identity per k, so no Fraction is formed or reduced here.
    """
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    if N > Q_SEQUENCE_MAX_N:
        raise ResourceLimitError(f"exact recurrence capped at N = {Q_SEQUENCE_MAX_N}, got {N}")
    width = max(N, 2)
    # bracket[k][j] = (-1)^j ((-1)^k C(j, k) - C(j+k+1, k))
    bracket = [[(-1) ** j * ((-1) ** k * math.comb(j, k) - math.comb(j + k + 1, k)) for j in range(N)]
               for k in range(width)]
    B = [[1] * width]
    C: list[list[int]] = [[]]
    for n in range(1, N + 1):
        row = [B[n - j - 1][j] << j for j in range(n)]
        B.append([sum(map(operator.mul, row, bracket[k])) for k in range(max(N - n, 2))])
        C.append(row)
    return B, C


def q_sequence(N: int) -> list[LaurentPoly]:
    """Q_0 .. Q_N as exact Laurent polynomials."""
    _, C = _table(N)
    polys = [LaurentPoly(((-1, Fraction(-1, 2)),))]
    for n, row in enumerate(C[1:], 1):
        half = [(j, Fraction(x, 2 << n)) for j, x in enumerate(row) if x]
        polys.append(LaurentPoly(tuple((-(j + 2), -h) for j, h in reversed(half)) + tuple(half)))
    return polys


def q_prime_at_minus_one(N: int) -> list[Fraction]:
    """The sequence Q_n'(-1), n = 0..N, exactly."""
    return [Fraction(row[1], 2 << m) for m, row in enumerate(_table(N)[0])]


def _lambda_integral(T, coeffs: list[Fraction]):
    """Ball of int_0^T Lambda_N(t) e^-t dt, Lambda_N(t) = sum_n coeffs[n]
    t^n/n!, in closed form, and the truncation indicators Lambda_N(T) e^-T
    and |coeffs[N] T^N/N!|.

    int_0^T t^n e^-t dt = n! (1 - e^-T e_n(T)) with e_n(T) = sum_{k<=n} T^k/k!,
    so the integral is C - e^-T S for the exact rationals C = sum coeffs[n]
    and S = sum coeffs[n] e_n(T).  C is about 4e30 at N = 60, and the
    cancellation in C - e^-T S must leave 96 bits, so e^-T, C and S are
    rounded once each at 96 bits past max(|C|, |S|): the three rounded
    steps of the ball, whose errors balls' rule puts in its radius, while
    the product and the difference are exact.  Since e > 2, e^-T |S| <
    2^(len(S) - floor(T)), len the bit length of the integer part; when
    that lies below C's last bit, nothing cancels, and 96 bits past |C|
    suffice (at T = 1e308, len(S) is about 61,000).  The indicators are
    heuristic remainders (no rigorous tail exists: entirety is
    conjectural), each rounded once at 96 bits; the same pass sums
    Lambda_N(T) exactly.
    """
    t = Fraction(T)
    C = sum(coeffs, Fraction(0))
    S = e_n = lam = Fraction(0)
    w = Fraction(1)  # T^n / n!
    for n, q in enumerate(coeffs):
        if n:
            w = w * t / n
        e_n += w
        S += q * e_n
        lam += q * w
    cancels = int(abs(S)).bit_length() - math.floor(t) > -C.denominator.bit_length()
    bits = int(max(abs(C), abs(S) if cancels else 0, 1)).bit_length()
    with workprec(96 + bits):
        exp_T = PrecReal.exact(-t).exp()
        C, S = PrecReal.exact(C), PrecReal.exact(S)
    lam, last = (rounded(x, 96) for x in (lam, abs(q * w)))
    return C - exp_T * S, rounded(lam * exp_T.value, 96), last


def conjecture_m2_report(T: float = 6.0, N: int = 60) -> dict:
    """Numerical side-by-side of the second moment and the candidate integral
    int_0^T Lambda_N(t) e^-t dt.  Emits both values and their difference;
    deliberately asserts nothing (the identity is a conjecture, and the
    truncation remainders are heuristic flags, not bounds).

    The integral is exact up to a rigorous ball around e^-T: term n is
    coeffs[n] P(n+1, T), P the regularized incomplete gamma (see
    `_lambda_integral`).  The defaults balance the two truncations under the
    exact-recurrence cap: past N = 60 terms the polynomial tail at T = 6 sits
    near 3e-5, while the unintegrated domain mass beyond T = 6 is a few 1e-3
    and shows up in the reported difference together with the
    integrand-at-T indicator.
    """
    if not (T > 0 and math.isfinite(T)):
        raise DomainError(f"T must be positive and finite, got {T}")
    integral_ball, integrand_at_T, last_term_at_T = _lambda_integral(T, q_prime_at_minus_one(N))
    m2 = moment(2, _M2_EPS).value
    diff = integral_ball - m2
    (m2_value, m2_radius), (lam_value, lam_radius) = format_ball(m2), format_ball(integral_ball)
    return {
        "m2_series": {"value": m2_value, "radius": m2_radius},
        "lambda_integral": {"value": lam_value, "radius": lam_radius},
        "difference": nstr(diff.value, 6),
        "heuristic": {
            "lambda_last_term_at_T": nstr(last_term_at_T, 6),
            "integrand_at_T": nstr(integrand_at_T, 6),
            "note": "truncation remainders are indicators only; the compared identity is conjectural",
        },
        "params": {"T": T, "N": N, "m2_eps": _M2_EPS},
    }
