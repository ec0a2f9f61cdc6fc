"""Exact recurrence lab for the rational-function family Q_n(z).

    Q_0(z) = -1/(2z),
    Q_n(z) = (1/2) sum_{j=0}^{n-1} (1/j!) * Q_{n-j-1}^{(j)}(-1) * (z^j - z^-(j+2)),

all over exact rationals, so the derived number sequence Q_n'(-1) and the
entire-function partial sums Lambda_N(t) = sum Q_n'(-1)/n! t^n carry no
floating-point noise.  The closing second-moment comparison is a report:
the underlying identity is conjectural, so nothing here asserts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .balls import PrecReal
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


def _falling(e: int, j: int) -> int:
    """The falling factorial e (e-1) ... (e-j+1), for any integer e."""
    if e >= 0:
        return math.perm(e, j)
    return (-1) ** j * math.perm(j - e - 1, j)


@dataclass(frozen=True)
class LaurentPoly:
    """Exact-rational polynomial in z and 1/z, sparse by exponent."""

    coeffs: tuple[tuple[int, Fraction], ...]  # sorted, no zero coefficients

    @classmethod
    def from_dict(cls, d: dict[int, Fraction]) -> "LaurentPoly":
        return cls(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    def deriv_at_minus_one(self, j: int) -> Fraction:
        """Exact j-th derivative at z = -1, where the recurrence evaluates.

        Every power z^(e-j) is a sign there, so the terms (falling factorials
        times coefficients) are summed as integers over the common
        denominator of the coefficients and reduced once.
        """
        den = math.lcm(*(c.denominator for _, c in self.coeffs))
        num = 0
        for e, c in self.coeffs:
            term = c.numerator * (den // c.denominator) * _falling(e, j)
            num += -term if (e - j) & 1 else term
        return Fraction(num, den)


def _check_cap(N: int):
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    if N > Q_SEQUENCE_MAX_N:
        raise ResourceLimitError(f"exact recurrence capped at N = {Q_SEQUENCE_MAX_N}, got {N}")


def q_sequence(N: int) -> list[LaurentPoly]:
    """Q_0 .. Q_N as exact Laurent polynomials."""
    _check_cap(N)
    polys = [LaurentPoly.from_dict({-1: Fraction(-1, 2)})]
    # derivs[m][j] = Q_m^(j)(-1), grown lazily
    derivs: list[dict[int, Fraction]] = [{}]

    def deriv(m: int, j: int) -> Fraction:
        cache = derivs[m]
        if j not in cache:
            cache[j] = polys[m].deriv_at_minus_one(j)
        return cache[j]

    for n in range(1, N + 1):
        acc: dict[int, Fraction] = {}
        for j in range(n):
            coef = Fraction(deriv(n - j - 1, j), 2 * math.factorial(j))
            if coef == 0:
                continue
            acc[j] = acc.get(j, Fraction(0)) + coef
            acc[-(j + 2)] = acc.get(-(j + 2), Fraction(0)) - coef
        polys.append(LaurentPoly.from_dict(acc))
        derivs.append({})
    return polys


def q_prime_at_minus_one(N: int) -> list[Fraction]:
    """The sequence Q_n'(-1), n = 0..N, exactly."""
    return [p.deriv_at_minus_one(1) for p in q_sequence(N)]


def _lambda_sum(t, coeffs: list[Fraction]) -> tuple[PrecReal, mpf]:
    """Ball value of sum_n coeffs[n] t^n / n!, a partial sum of the
    entire-series candidate, and the magnitude of its last term as a
    heuristic remainder (no rigorous tail exists: entirety is conjectural)."""
    with mp.workprec(96):
        tb = t if isinstance(t, PrecReal) else PrecReal.exact(t)
        total = PrecReal.zero()
        power = PrecReal.exact(1)
        last = mpf(0)
        for n, qp in enumerate(coeffs):
            if n:
                power = power * tb
            term = power * Fraction(qp, math.factorial(n))
            total = total + term
            last = abs(term.value)
        return total, last


def _lambda_integral(T, coeffs: list[Fraction]) -> PrecReal:
    """Ball of int_0^T sum_n coeffs[n] t^n/n! e^-t dt, in closed form.

    int_0^T t^n e^-t dt = n! (1 - e^-T e_n(T)) with e_n(T) = sum_{k<=n} T^k/k!,
    so the integral is C - e^-T S for the exact rationals C = sum coeffs[n]
    and S = sum coeffs[n] e_n(T); only e^-T is a ball.  C is about 4e30 at
    N = 60, so the cancellation runs 96 bits past max(|C|, |S|).
    """
    t = Fraction(T)
    C = sum(coeffs, Fraction(0))
    S = e_n = Fraction(0)
    for n, q in enumerate(coeffs):
        e_n += t**n / math.factorial(n)
        S += q * e_n
    bits = int(max(abs(C), abs(S), 1)).bit_length()
    with mp.workprec(96 + bits):
        ball = C - PrecReal.exact(-t).exp() * S
    with mp.workprec(96):
        return ball + 0  # rounds the midpoint to 96 bits; the radius covers it


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
    _check_cap(N)
    coeffs = q_prime_at_minus_one(N)
    integral_ball = _lambda_integral(T, coeffs)
    with mp.workprec(96):
        m2 = moment(2, _M2_EPS)
        diff = integral_ball - m2.value
        lam_T, last_term_at_T = _lambda_sum(mpf(T), coeffs)
        integrand_at_T = lam_T.value * mp.exp(-mpf(T))
    return {
        "m2_series": {
            "value": mp.nstr(m2.value.value, 15),
            "radius": mp.nstr(m2.value.radius, 3),
        },
        "lambda_integral": {
            "value": mp.nstr(integral_ball.value, 15),
            "radius": mp.nstr(integral_ball.radius, 3),
        },
        "difference": mp.nstr(diff.value, 6),
        "heuristic": {
            "lambda_last_term_at_T": mp.nstr(last_term_at_T, 6),
            "integrand_at_T": mp.nstr(integrand_at_T, 6),
            "note": "truncation remainders are indicators only; the compared identity is conjectural",
        },
        "params": {"T": T, "N": N, "m2_eps": _M2_EPS},
    }
