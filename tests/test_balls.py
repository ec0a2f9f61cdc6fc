"""Ball arithmetic: enclosures must survive every operation exactly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from minkqm.balls import PrecReal, mpf_to_fraction
from minkqm.errors import DomainError


def frac(num=st.integers(-400, 400), den=st.integers(1, 400)):
    return st.builds(lambda p, q: Fraction(p, q), num, den)


def test_construction_and_validation():
    b = PrecReal(1.5, 0.25)
    assert b.lo == 1.25 and b.hi == 1.75
    with pytest.raises(DomainError):
        PrecReal(1, -1e-9)
    with pytest.raises(AttributeError):
        b.value = 2


def test_exact_conversion_is_reversible():
    with mp.workprec(80):
        x = Fraction(355, 113)
        b = PrecReal.exact(x)
        assert b.contains(x)
    assert mpf_to_fraction(mpf(3)) == 3
    assert mpf_to_fraction(0.5) == Fraction(1, 2)


@settings(max_examples=150, deadline=None)
@given(frac(), frac(), frac())
def test_expression_encloses_exact_value(a, b, c):
    exact = (a * b - c) * (a + c) + b
    balls = []
    for bits in (64, 128):
        with mp.workprec(bits):
            ba, bb, bc = PrecReal.exact(a), PrecReal.exact(b), PrecReal.exact(c)
            ball = (ba * bb - bc) * (ba + bc) + bb
            assert ball.contains(exact)
            balls.append(ball)
    assert balls[0].agrees(balls[1])


@settings(max_examples=100, deadline=None)
@given(frac(), frac(den=st.integers(1, 400)))
def test_division_encloses(a, b):
    if b == 0:
        return
    exact = a / b
    with mp.workprec(96):
        ball = PrecReal.exact(a) / PrecReal.exact(b)
        assert ball.contains(exact)


def test_division_by_zero_ball():
    with pytest.raises(ZeroDivisionError):
        PrecReal.exact(1) / PrecReal(0.0, 0.5)


def test_pow_int_and_exp():
    # negative arguments included: the m2 report needs a ball around e^-T
    for x in (Fraction(1, 3), Fraction(-6), Fraction(-30)):
        with mp.workprec(96):
            e = PrecReal.exact(x).exp()
        with mp.workprec(200):
            truth = mp.exp(mpf(x.numerator) / x.denominator)
        assert e.contains(mpf_to_fraction(truth)), x


def test_agreement_semantics():
    # dyadic data so the exact comparator sees the intended margins
    r = 2.0**-40
    a = PrecReal(1.0, r)
    b = PrecReal(1.0 + 3 * r, r)
    assert a.agrees(b, r)
    assert not a.agrees(b, 0)
    assert a.agrees(PrecReal(1.0 + 3 * (r / 2), r), 0)
