"""Series kernels against independent oracles.

Oracle values were computed with mpmath at 30 significant digits
(closed forms for Li_1, Li_2; mpmath.polylog and mpmath.besseli for the
rest) and frozen here; the library must enclose them.
"""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from minkqm.balls import PrecReal
from minkqm.errors import DomainError
from minkqm.special import bessel_i1_scaled, c_coeff, c_coeff_cached

LN2 = "0.69314718055994530942"
LI2_HALF = "0.5822405264650125059"  # pi^2/12 - ln(2)^2/2
C1 = "0.38629436111989061883"  # 2 ln 2 - 1; first published series term 0.3862943611
C2 = "0.16448105293002501181"  # pi^2/6 - ln(2)^2 - 1
S_ONE = "1.5906368546373290634"  # I1(2)
S_QUARTER = "0.2825795519962425136"  # (1/2) I1(1)


def enclose(ball: PrecReal, decimal: str, eps: float):
    with mp.workprec(120):
        assert ball.contains(Fraction(decimal)) or abs(ball.value - mpf(decimal)) <= ball.radius + mpf("1e-19")
    assert float(ball.radius) <= eps


def polylog_half(s, eps):
    """Li_s(1/2) = (1 + c_s) / 2, with c_s at radius eps."""
    with mp.workprec(120):
        return (c_coeff(s, eps) + 1) / 2


def test_polylog_half_at_one_is_ln2():
    enclose(polylog_half(1, 1e-12), LN2, 1e-12)


def test_polylog_half_at_two_closed_form():
    enclose(polylog_half(2, 1e-12), LI2_HALF, 1e-12)


def test_polylog_half_decreases_toward_half():
    vals = [polylog_half(s, 1e-15) for s in range(1, 31)]
    for a, b in zip(vals, vals[1:]):
        assert b.hi < a.lo
    assert abs(vals[-1].value - mpf("0.5")) < 1e-9


def test_polylog_rejects_bad_order():
    with pytest.raises(DomainError):
        c_coeff(0, 1e-10)
    with pytest.raises(DomainError):
        c_coeff(-3, 1e-10)
    with pytest.raises(DomainError):
        c_coeff(2, -1e-10)


def test_c1_matches_published_digits():
    ball = c_coeff(1, 1e-12)
    enclose(ball, C1, 1e-12)
    assert abs(float(ball.value) - 0.3862943611) < 5e-10


def test_c2_closed_form():
    enclose(c_coeff(2, 1e-12), C2, 1e-12)


def test_c_asymptotic_ratio():
    # c_s ~ 2^-(s+1): within 10% from s = 20 on
    for s in range(20, 41):
        ratio = c_coeff(s, 1e-30).value / mpf(2) ** (-(s + 1))
        assert abs(ratio - 1) < 0.1


def c_oracle(s: int) -> mpf:
    """2 Li_s(1/2) - 1 from mpmath's polylog at 2 s + 300 bits: past c_s's
    leading bit near 2^-(s+1) that is s + 300 bits, enough to resolve the
    n = 3 term 3^-s / 4 of the series in absolute terms."""
    with mp.workprec(2 * s + 300):
        return 2 * mp.polylog(s, mpf(0.5)) - 1


def test_c_coeff_encloses_the_polylog():
    # at s = 200 and 1000 the ball's lower end is a floor that c_s exceeds by
    # far less than one unit of 2^-P, and at the cached accuracy 2^-(s+96)
    # so does the upper end at s = 1000 (c_s - 2^-1001 is about 2^-472 units
    # and the tail bound is 1), so a floor one unit up or a tail bound or
    # inexact-floor count one unit down leaves c_s outside
    for s in (1, 2, 3, 10, 50, 200, 1000):
        want = c_oracle(s)
        for eps in (1e-10, 1e-20, 1e-40, mpf(2) ** -(s + 96)):
            ball = c_coeff(s, eps)
            assert ball.contains(want), (s, eps)
            assert ball.radius <= eps, (s, eps)


def test_c_coeff_cached_encloses_the_polylog():
    # the float64 midpoint is within rel of c_s, and the exact midpoint is
    # the floor sum, a lower bound that at s = 1000 sits below c_s by the
    # n = 3 term alone, about 2^-585 relatively
    for s in (1, 2, 3, 10, 50, 200, 1000):
        want = c_oracle(s)
        mid, rel, value = c_coeff_cached(s)
        with mp.workprec(2 * s + 300):
            assert value <= want, s
            assert abs(mid - want) <= want * rel, s


def test_bessel_at_zero_and_negative():
    z = bessel_i1_scaled(0, 1e-12)
    assert z.value == 0 and z.radius == 0
    with pytest.raises(DomainError):
        bessel_i1_scaled(Fraction(-1, 2), 1e-12)


def test_bessel_series_oracle_values():
    enclose(bessel_i1_scaled(1, 1e-12), S_ONE, 1e-12)
    enclose(bessel_i1_scaled(Fraction(1, 4), 1e-12), S_QUARTER, 1e-12)


def test_bessel_accepts_ball_argument():
    with mp.workprec(96):
        x = PrecReal.exact(Fraction(1, 4))
        ball = bessel_i1_scaled(x, 1e-12)
    enclose(ball, S_QUARTER, 1e-10)


def test_bessel_large_argument_contains_oracle():
    ball = bessel_i1_scaled(144, 1e-8)
    with mp.workprec(300):
        x = mpf(144)
        total, term, q = mpf(0), x, 1
        while term > mpf(10) ** -50:
            total += term
            term = term * x / (q * (q + 1))
            q += 1
        assert ball.contains(total)
