"""Ball arithmetic: enclosures must survive every operation exactly."""

import contextlib
import hashlib
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from minkqm import balls
from minkqm.balls import Dyadic, PrecReal, nstr, workprec
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
    with workprec(80):
        x = Fraction(355, 113)
        b = PrecReal.exact(x)
        assert b.contains(x)
    assert Dyadic(mpf(3)) == 3 and Dyadic(mpf(3)).as_fraction() == 3
    assert Dyadic(0.5).as_fraction() == Fraction(1, 2)


@settings(max_examples=150, deadline=None)
@given(frac(), frac(), frac())
def test_expression_encloses_exact_value(a, b, c):
    exact = (a * b - c) * (a + c) + b
    balls = []
    for bits in (64, 128):
        with workprec(bits):
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
    with workprec(96):
        ball = PrecReal.exact(a) / PrecReal.exact(b)
        assert ball.contains(exact)


def test_division_by_zero_ball():
    with pytest.raises(ZeroDivisionError):
        PrecReal.exact(1) / PrecReal(0.0, 0.5)


def test_pow_int_and_exp():
    # negative arguments included: the m2 report needs a ball around e^-T
    for x in (Fraction(1, 3), Fraction(-6), Fraction(-30)):
        with workprec(96):
            e = PrecReal.exact(x).exp()
        with mp.workprec(200):
            truth = mp.exp(mpf(x.numerator) / x.denominator)
        assert e.contains(truth), x


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
    assert PrecReal(d, d).value == d == PrecReal(0, d).radius
    assert PrecReal.exact(d).radius == 0 and PrecReal.exact(d).value == d
    with pytest.raises(TypeError):
        PrecReal(Fraction(1, 3))


def test_radii_are_summed_rounded_up():
    # 1 + 2^-60 rounds to 1 at 53 bits, below the exact sum
    assert (PrecReal(0, 1) + PrecReal(0, 2**-60)).radius > 1
    # a product's radius keeps the product of the radii: (1 +- 1)^2 reaches 4
    assert (PrecReal(1, 1) * PrecReal(1, 1)).contains(4)


def _ends(ball) -> tuple[Fraction, Fraction]:
    mid, rad = ball.value.as_fraction(), ball.radius.as_fraction()
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
        with workprec(bits):
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


def _pin_operands(rng):
    """Seeded ball operands and raw int, float and Fraction operands."""
    raw = [
        rng.randint(-10**6, 10**6),
        rng.getrandbits(150) - (1 << 149),
        rng.uniform(-1e3, 1e3),
        math.ldexp(rng.randint(1, 2**52), -1074),  # subnormal
        -math.ldexp(rng.randint(1, 2**20), -1074),  # subnormal
        math.ldexp(rng.random(), rng.randint(-900, 900)),
        Fraction(rng.randint(-999, 999), 1 << rng.randint(0, 80)),  # dyadic
        Fraction(rng.randint(-999, 999), rng.randint(1, 999) | 1),  # not dyadic unless 1
        2.0 ** -1000,  # far below 1's last bit: the _below case
    ]
    radii = [0, rng.uniform(0, 1e-6), Fraction(rng.getrandbits(70), 1 << 90), math.ldexp(rng.randint(1, 9), -1074)]
    balls = [PrecReal.exact(x) for x in raw] + [PrecReal(1), PrecReal(-3, 2.0 ** -60)]
    balls += [PrecReal(x, rng.choice(radii)) for x in raw if not isinstance(x, Fraction) or x.denominator & (x.denominator - 1) == 0]
    return balls, raw


def _pin_results(rng):
    balls, raw = _pin_operands(rng)
    for a in balls:
        yield -a
        yield abs(a)
        for b in balls + raw:
            yield a + b
            yield b + a
            yield a - b
            yield b - a
            yield a * b
            yield b * a
            for num, den in ((a, b), (b, a)):
                try:
                    yield num / den
                except ZeroDivisionError:
                    pass
    for x in raw:
        yield PrecReal.exact(x)


def test_ball_operations_keep_their_pinned_bits():
    # SHA-256 over man_exp of value and radius and float(value).hex() of a
    # seeded sweep of + - * / exact neg abs, at the default precision, 64
    # and 128 bits; recorded from mpmath-backed balls, which these must
    # reproduce bit for bit
    h = hashlib.sha256()
    for bits in (None, 64, 128):
        with contextlib.nullcontext() if bits is None else workprec(bits):
            rng = random.Random(20261021)
            for _ in range(4):
                for ball in _pin_results(rng):
                    h.update(f"{ball.value.man_exp} {ball.radius.man_exp} {float(ball.value).hex()};".encode())
    assert h.hexdigest() == "5e6d2f202cd05c2fdbe202a5ef74a6653949a84cfd54e9762382e12c0d8ddc12"


# x of the exp test: the fixed points span e^-1e308 to e^700; the sweep adds
# seeded dyadics up to 2^40 in size, each bare and with a radius
EXP_POINTS = (-1e308, -350, -30, -6, Fraction(-1, 3), 0, Fraction(1, 3), 700)


def _exp_balls():
    rng = random.Random(20261021)
    for x in EXP_POINTS:
        yield PrecReal.exact(x), x
    for _ in range(120):
        x = math.ldexp(rng.randint(-2**40, 2**40), -rng.randint(0, 60))
        yield PrecReal(x, math.ldexp(rng.randint(0, 9), -rng.randint(30, 90))), x


def test_exp_holds_mpmath_exp_at_three_times_the_precision():
    # the ball holds e^x from mpmath at 3p bits, and its midpoint lies within
    # (1/2 + 2^-23) ulp of e^x, as balls._exp proves, at each p
    for bits in (53, 64, 128):
        with workprec(bits):
            got = [(ball.exp(), ball, x) for ball, x in _exp_balls()]
        with mp.workprec(3 * bits):
            for e, ball, x in got:
                value = ball.value if isinstance(x, float) else mpf(x.numerator) / x.denominator
                t = mp.exp(value)
                ends = (mp.fadd(ball.value, way * mpf(ball.radius), exact=True) for way in (-1, 1))
                assert e.contains(t) and all(e.contains(mp.exp(end)) for end in ends), (bits, x)
                if not ball.radius and not isinstance(x, Fraction):  # an exact argument: the midpoint's own error
                    m, ex = e.value.man_exp
                    ulp = mp.ldexp(1, ex + m.bit_length() - bits)
                    assert abs(mpf(e.value) - t) <= ulp * (mpf(1) / 2 + mpf(2) ** -23) + abs(t) * mpf(2) ** (2 - 3 * bits), (bits, x)


def test_nstr_matches_mpmath_nstr():
    # both signs, 2^-1100 to 2^1100, and exponents past 3500 bits, where
    # mpmath scales by a power of ten first
    rng = random.Random(20261021)
    for i in range(600):
        man = rng.getrandbits(rng.randint(1, 120)) | 1
        exp = rng.randint(-1100, 1100) if i % 50 else rng.choice((-1, 1)) * rng.randint(3500, 5000)
        x = mp.make_mpf((rng.randint(0, 1), man, exp, man.bit_length()))
        for n in (3, 6, 15, 17):
            assert nstr(Dyadic(x), n) == mp.nstr(x, n), (man, exp, n)
    assert nstr(0, 6) == mp.nstr(mpf(0), 6) and nstr(-0.5, 3) == mp.nstr(mpf(-0.5), 3)


def test_dyadic_compares_and_converts_as_mpf_does():
    rng = random.Random(7)
    for _ in range(300):
        man = rng.getrandbits(80) | 1
        x = mp.make_mpf((rng.randint(0, 1), man, rng.randint(-1200, 200), man.bit_length()))
        d = Dyadic(x)
        assert d.man_exp == x.man_exp and d._mpf_ == x._mpf_ and float(d) == float(x)
        assert (d < 1) == (x < 1) and (d == x) and mp.convert(d) == x
        y = rng.uniform(-1, 1)
        assert (d < y) == (x < y) and (d >= Fraction(1, 3)) == (x >= mpf(1) / 3)
        # d +- d is exact; an mpf on either side leaves the sum to mpmath
        z = mp.make_mpf((rng.randint(0, 1), man, rng.randint(-1200, 200), man.bit_length()))
        e = Dyadic(z)
        assert (d + e).as_fraction() == d.as_fraction() + e.as_fraction()
        assert (d - e).as_fraction() == d.as_fraction() - e.as_fraction() and not d - d
        for got, want in ((d + z, x + z), (d - z, x - z), (z + d, z + x), (z - d, z - x)):
            assert type(got) is type(want) and got._mpf_ == want._mpf_
    with pytest.raises(TypeError):
        Dyadic(1) + 1
    assert Dyadic(5e-324) == Fraction(1, 2**1074) and float(Dyadic(Fraction(3, 2**1076))) == 5e-324


def test_dyadic_prints_its_exact_fraction():
    for x in (0, 1, -8, 2**70, Fraction(7, 16), Fraction(-7, 16), 0.1, -5e-324, Fraction(-(3**2001), 2**10000)):
        assert str(Dyadic(x)) == str(Fraction(x)), x


def test_dyadic_hashes_as_the_number_it_equals():
    rng = random.Random(11)
    values = [0, 1, -1, 7, -(2**70) - 1, 2**61 - 1, 2**61, 0.5, -0.1, 5e-324, 1e308, Fraction(-3, 2**1076)]
    values += [rng.uniform(-1e6, 1e6) for _ in range(100)]
    values += [Fraction(rng.getrandbits(90) - 2**89, 2 ** rng.randint(0, 1200)) for _ in range(100)]
    for x in values:
        d = Dyadic(x)
        assert d == x and hash(d) == hash(x)
        assert hash(d) == hash(mp.make_mpf(d._mpf_))
    assert len({Dyadic(0.5), Dyadic(Fraction(1, 2)), Dyadic(1) * 0.5}) == 1
    ball = PrecReal.exact(Fraction(1, 3))
    assert {ball.value, ball.radius, ball.lo, ball.hi}
