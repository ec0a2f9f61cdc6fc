"""Series kernels against independent oracles.

Oracle values were computed with mpmath at 30 significant digits
(closed forms for Li_1, Li_2; mpmath.polylog and mpmath.besseli for the
rest) and frozen here; the library must enclose them.
"""

from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from minkqm.balls import Dyadic, PrecReal, workprec
from minkqm.errors import DomainError
from minkqm.special import _c_fixed, bessel_i1_scaled, c_coeff

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


def c_ball(s):
    """c_s as the chain reads it: |mid - c_s| <= rel c_s, so within 2 rel mid."""
    mid, rel, _ = c_coeff(s)
    return PrecReal(mid, 2 * rel * mid)


def polylog_half(s):
    """Li_s(1/2) = (1 + c_s) / 2."""
    with workprec(120):
        return (c_ball(s) + 1) / 2


def test_polylog_half_at_one_is_ln2():
    enclose(polylog_half(1), LN2, 1e-15)


def test_polylog_half_at_two_closed_form():
    enclose(polylog_half(2), LI2_HALF, 1e-15)


def test_polylog_half_decreases_toward_half():
    vals = [polylog_half(s) for s in range(1, 31)]
    for a, b in zip(vals, vals[1:]):
        assert b.hi < a.lo
    assert abs(vals[-1].value - mpf("0.5")) < 1e-9


def test_polylog_rejects_bad_order():
    with pytest.raises(DomainError):
        c_coeff(0)
    with pytest.raises(DomainError):
        c_coeff(-3)


def test_c1_matches_published_digits():
    ball = c_ball(1)
    enclose(ball, C1, 1e-15)
    assert abs(float(ball.value) - 0.3862943611) < 5e-10


def test_c2_closed_form():
    enclose(c_ball(2), C2, 1e-15)


def test_c_asymptotic_ratio():
    # c_s ~ 2^-(s+1): within 10% from s = 20 on
    for s in range(20, 41):
        ratio = c_coeff(s)[0] / 2.0 ** (-(s + 1))
        assert abs(ratio - 1) < 0.1


def c_oracle(s: int) -> mpf:
    """2 Li_s(1/2) - 1 from mpmath's polylog at 2 s + 300 bits: past c_s's
    leading bit near 2^-(s+1) that is s + 300 bits, enough to resolve the
    n = 3 term 3^-s / 4 of the series in absolute terms."""
    with mp.workprec(2 * s + 300):
        return 2 * mp.polylog(s, mpf(0.5)) - 1


def test_c_coeff_encloses_the_polylog():
    # the fixed-point sum (T, R) under c_coeff must bracket 2^P c_s: at
    # s = 1000 and c_coeff's P = s + 115 it is T = 2^114, R = 1 while
    # 2^P c_s - T is about 2^-472, so a floor one unit up, a tail bound one
    # unit down or ceil(2 t) replaced by floor(2 t) leaves c_s outside
    for s in (1, 2, 3, 10, 50, 200, 1000):
        want = c_oracle(s)
        with mp.workprec(2 * s + 300):
            for prec, goal in ((64, 1), (160, 1 << 18), (s + 115, 1 << 18)):
                total, width = _c_fixed(s, prec, goal)
                scaled = mp.ldexp(want, prec)
                assert total <= scaled <= total + width, (s, prec)


def test_c_coeff_cached_encloses_the_polylog():
    # c_coeff's claim (it is the memoised form): the float64 midpoint is
    # within rel of c_s, and the exact midpoint is the floor sum, a lower
    # bound that at s = 1000 sits below c_s by the n = 3 term alone, about
    # 2^-585 relatively
    for s in (1, 2, 3, 10, 50, 200, 1000):
        want = c_oracle(s)
        mid, rel, value = c_coeff(s)
        with mp.workprec(2 * s + 300):
            assert value <= Dyadic(want).as_fraction(), s
            assert abs(mid - want) <= want * rel, s


def test_bessel_series_oracle_values():
    got = bessel_i1_scaled(np.array([0.0, 0.25, 1.0]))
    assert got[0] == 0
    for s, decimal in zip(got[1:].tolist(), (S_QUARTER, S_ONE)):
        assert abs(s - float(decimal)) <= 2.0**-50 * s


def test_bessel_large_argument_contains_oracle():
    got = float(bessel_i1_scaled(np.array([144.0]))[0])
    with mp.workprec(300):
        x = mpf(144)
        total, term, q = mpf(0), x, 1
        while term > mpf(10) ** -50:
            total += term
            term = term * x / (q * (q + 1))
            q += 1
        assert abs(got - total) <= 2.0**-46 * total


def test_bessel_kernel_matches_mpmath():
    # 0.0 .. 1600.0 covers the products x_i x_j of quadrature nodes on the default box X = 40
    ys = np.array([0.0, 1e-9, 0.03125, 0.25, 1.0, 7.5, 40.0, 144.0, 555.5, 1600.0])
    got = bessel_i1_scaled(ys)
    for y, s in zip(ys.tolist(), got.tolist()):
        with mp.workprec(120):
            root = mp.sqrt(y)
            want = root * mp.besseli(1, 2 * root)
            # float64 sum of at most ~100 positive terms: allow 2^-46 relative
            assert abs(s - want) <= want * 2.0**-46, y
