"""Exact recurrence lab and the second-moment report."""

import hashlib
import math
from fractions import Fraction

import pytest
from mpmath import mpf

from minkqm.balls import PrecReal
from minkqm.conjecture import (
    LaurentPoly,
    _lambda_integral,
    _lambda_sum,
    conjecture_m2_report,
    q_prime_at_minus_one,
    q_sequence,
)
from minkqm.errors import ResourceLimitError
from minkqm.verify import QPRIME_REFERENCE as QPRIME


def test_laurent_poly_derivatives():
    p = LaurentPoly.from_dict({3: Fraction(1), -1: Fraction(1, 2)})
    # d/dz (z^3 + z^-1/2) = 3 z^2 - z^-2/2
    assert p.deriv_at_minus_one(1) == Fraction(3) - Fraction(1, 2)
    # d^2/dz^2 (z^3 + z^-1/2) = 6z + z^-3, which is -7 at z = -1
    assert p.deriv_at_minus_one(2) == Fraction(-7)
    assert p.deriv_at_minus_one(0) == Fraction(-1) - Fraction(1, 2)


def generic_deriv(poly, j):
    """The j-th derivative at z = -1, term by term over Fractions."""
    return sum(
        (c * math.prod(range(e - j + 1, e + 1)) * Fraction(-1) ** (e - j) for e, c in poly.coeffs),
        Fraction(0),
    )


def test_deriv_at_minus_one_matches_the_generic_formula():
    polys = q_sequence(20) + [LaurentPoly.from_dict({5: Fraction(3, 7), -4: Fraction(-2, 9), 0: Fraction(1)})]
    for poly in polys:
        for j in range(8):
            assert poly.deriv_at_minus_one(j) == generic_deriv(poly, j)
    assert LaurentPoly.from_dict({}).deriv_at_minus_one(2) == 0


def test_qprime_sequence_to_the_cap_is_unchanged():
    seq = ",".join(str(f) for f in q_prime_at_minus_one(60))
    assert seq.endswith(",671464495061327804552994079214448623/131072")
    digest = "04134a3b0232337e656f7529ef38aa41537613712f986b14d6adc4234d8a0465"
    assert hashlib.sha256(seq.encode()).hexdigest() == digest


def test_q0_and_q1_coefficients():
    q0, q1 = q_sequence(1)
    assert q0.coeffs == ((-1, Fraction(-1, 2)),)
    assert q1.coeffs == ((-2, Fraction(-1, 4)), (0, Fraction(1, 4)))


def test_recurrence_cap():
    with pytest.raises(ResourceLimitError):
        q_sequence(61)


def test_lambda_at_zero_and_one():
    val, _ = _lambda_sum(0, q_prime_at_minus_one(8))
    assert val.contains(Fraction(1, 2))
    # exact partial sum of the published coefficients at t = 1
    want = sum(q / math.factorial(n) for n, q in enumerate(QPRIME))
    assert want == Fraction(41101, 161280)
    val1, last = _lambda_sum(1, q_prime_at_minus_one(8))
    assert val1.contains(want)
    assert float(last) == pytest.approx(float(QPRIME[8] / math.factorial(8)), rel=1e-12)


def test_lambda_coefficients_shrink_from_n4():
    mags = [abs(q) / math.factorial(n) for n, q in enumerate(QPRIME)]
    assert all(a > b for a, b in zip(mags[4:], mags[5:]))


def test_m2_report_structure_and_no_assertion():
    report = conjecture_m2_report(T=6.0, N=60)
    assert set(report) == {"m2_series", "lambda_integral", "difference", "heuristic", "params"}
    m2 = float(mpf(report["m2_series"]["value"]))
    lam = float(mpf(report["lambda_integral"]["value"]))
    assert 0 < m2 < 1
    assert report["difference"]
    assert "conjectural" in report["heuristic"]["note"]
    # exploratory sanity only (not a contract): the two routes land nearby
    assert abs(lam - m2) < 0.05


def test_lambda_integral_lies_inside_the_quadrature_ball():
    # the 64/128-node Gauss-Legendre value this closed form replaced printed
    # 0.289057143797657 +- 3.02e-13 at T = 6, N = 60
    ball = _lambda_integral(6.0, q_prime_at_minus_one(60))
    assert PrecReal(mpf("0.289057143797657"), mpf("3.02e-13")).contains(ball)
    assert ball.radius < mpf("1e-27")
