"""Ball arithmetic: enclosures must survive every operation exactly."""

import itertools
import operator
import random
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


def test_the_constructor_keeps_its_midpoint_exactly():
    # both used to be rounded to the active 53 bits, and then missed
    with mp.workprec(200):
        x = mp.pi + 0
    assert PrecReal(x, 0).contains(x)
    assert PrecReal(2**60 + 1, 0).contains(2**60 + 1)
    # a dyadic Fraction is stored exactly, as a midpoint or a radius, and
    # exact() rounds nothing for it; any other Fraction takes exact()'s quotient
    d = Fraction(2**200 + 1, 2**1100)
    assert mpf_to_fraction(PrecReal(d, d).value) == d == mpf_to_fraction(PrecReal(0, d).radius)
    assert PrecReal.exact(d).radius == 0 and mpf_to_fraction(PrecReal.exact(d).value) == d
    with pytest.raises(TypeError):
        PrecReal(Fraction(1, 3))


def test_radii_are_summed_rounded_up():
    # 1 + 2^-60 rounds to 1 at 53 bits, below the exact sum
    assert (PrecReal(0, 1) + PrecReal(0, 2**-60)).radius > 1
    # a product's radius keeps the product of the radii: (1 +- 1)^2 reaches 4
    assert (PrecReal(1, 1) * PrecReal(1, 1)).contains(4)


def _ends(ball) -> tuple[Fraction, Fraction]:
    mid, rad = mpf_to_fraction(ball.value), mpf_to_fraction(ball.radius)
    return mid - rad, mid + rad


def test_ten_thousand_operations_enclose_their_exact_values():
    # seeded chains of + - * / on random rationals, and exp of small balls,
    # at three precisions; each result must hold the exact value, and the
    # operation at the corners of its operand balls, where + - * / and exp
    # reach their extremes, so a propagated radius cannot be too small
    rng = random.Random(20261020)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)

    def fresh():
        x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        return PrecReal.exact(x), x

    for bits in (20, 53, 128):
        with mp.workprec(bits):
            pool = [fresh() for _ in range(8)]
            for _ in range(3334):
                (a, x), (b, y) = rng.choice(pool), rng.choice(pool)
                k = rng.randrange(5)
                if k == 4:
                    if abs(x) <= 4 and a.radius < 1:  # exp at a + r costs time growing with r
                        e = a.exp()
                        for point in (x, *_ends(a)):
                            with mp.workprec(bits + 100):
                                t = mp.exp(mpf(point.numerator) / point.denominator)
                            assert e.contains(PrecReal(t, mp.ldexp(abs(t), -bits - 90))), (bits, x)
                    continue
                if k == 3 and b.contains(0):
                    continue
                ball, exact = ops[k](a, b), ops[k](x, y)
                assert ball.contains(exact), (bits, ops[k].__name__, x, y)
                for corner in itertools.product(_ends(a), _ends(b)):
                    assert ball.contains(ops[k](*corner)), (bits, ops[k].__name__, x, y)
                keep = exact != 0 and 1e-8 < abs(exact) < 1e8 and exact.denominator.bit_length() < 300
                pool[rng.randrange(8)] = (ball, exact) if keep else fresh()


def test_a_term_far_below_the_other_joins_the_radius():
    # its exact sum would be 1001 bits long; past p bits below the other
    # term's last bit, the term moves into the radius and the midpoint stays
    want = 1 + Fraction(1, 2**1000)
    for ball in (PrecReal(1) + 2.0**-1000, PrecReal(2.0**-1000) + PrecReal(1), PrecReal(1) - (-(2.0**-1000))):
        assert ball.value == 1 and ball.contains(want)
