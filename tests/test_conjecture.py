"""Exact recurrence lab and the second-moment report."""

import hashlib
import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from minkqm import balls
from minkqm.balls import PrecReal
from minkqm.conjecture import (
    _lambda_integral,
    _table,
    conjecture_m2_report,
    q_prime_at_minus_one,
    q_sequence,
)
from minkqm.errors import ResourceLimitError
from minkqm.verify import QPRIME_REFERENCE as QPRIME


def fraction_rows(N):
    """a[m][k] = Q_m^(k)(-1) and c[n][j], read from _table's integer rows:
    b[m][k] = Q_m^(k)(-1) / k! over 2^(m+1), and c[n][j] over 2^n."""
    B, C = _table(N)
    a = [[Fraction(math.factorial(k) * x, 2 << m) for k, x in enumerate(row)] for m, row in enumerate(B)]
    c = [[Fraction(x, 1 << n) for x in row] for n, row in enumerate(C)]
    return a, c


def test_laurent_poly_derivatives():
    a, c = fraction_rows(5)
    # Q_0 = -1/(2z), so Q_0^(k)(-1) = k!/2
    assert a[0] == [Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(12)]
    # Q_1 = (1 - z^-2)/4: Q_1' = z^-3/2, Q_1'' = -3z^-4/2, Q_1''' = 6z^-5
    assert c[1] == [Fraction(1, 2)]
    assert a[1] == [0, Fraction(-1, 2), Fraction(-3, 2), Fraction(-6)]
    # Q_2 = (z - z^-3)/4: Q_2' = 1/4 + 3z^-4/4, Q_2'' = -3z^-5
    assert c[2] == [0, Fraction(1, 2)]
    assert a[2] == [0, Fraction(1), Fraction(3)]


def generic_deriv(poly, j):
    """The j-th derivative at z = -1, term by term over Fractions."""
    return sum(
        (c * math.prod(range(e - j + 1, e + 1)) * Fraction(-1) ** (e - j) for e, c in poly.coeffs),
        Fraction(0),
    )


def test_deriv_at_minus_one_matches_the_generic_formula():
    # every entry the bracket identity stores, against the polynomials
    # built from the coefficient rows
    a, _ = fraction_rows(20)
    polys = q_sequence(20)
    assert [len(row) for row in a] == [max(20 - n, 2) for n in range(21)]
    for poly, row in zip(polys, a, strict=True):
        assert row == [generic_deriv(poly, k) for k in range(len(row))]


# SHA-256 of repr((n, Q_n.coeffs)) for n <= 60, and of the report's two
# truncation indicators on a grid of (N, T)
COEFFS_DIGEST = "b8ea8b02a569b95818e4d1e09e5cd2fa4c04430d7932b6e9fc6d45e14593a6a1"
INDICATORS_DIGEST = "d347c0dd60e52ccb27dc1d5300e95176bccf605940f268b02eb388d46bfaf4b0"


def test_q_coefficients_and_indicators_are_pinned():
    h = hashlib.sha256()
    for n, q in enumerate(q_sequence(60)):
        h.update(repr((n, q.coeffs)).encode())
    assert h.hexdigest() == COEFFS_DIGEST
    h = hashlib.sha256()
    for N in (1, 8, 20, 60):
        for T in (0.5, 6.0, 30.0, 1e3):
            rep = conjecture_m2_report(T=T, N=N)["heuristic"]
            h.update(f"{rep['integrand_at_T']} {rep['lambda_last_term_at_T']};".encode())
    assert h.hexdigest() == INDICATORS_DIGEST


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
    coeffs = q_prime_at_minus_one(8)
    ball, integrand, last = _lambda_integral(0, coeffs)
    assert ball.contains(0)
    assert (integrand, last) == (mpf(1) / 2, 0)
    # exact partial sum of the published coefficients at t = 1
    want = sum(q / math.factorial(n) for n, q in enumerate(QPRIME))
    assert want == Fraction(41101, 161280)
    _, integrand, last = _lambda_integral(1, coeffs)
    with mp.workprec(200):
        assert abs(integrand * mp.e - mp.convert(want)) < mp.convert(want) * mpf(2) ** -94
    assert float(last) == pytest.approx(float(QPRIME[8] / math.factorial(8)), rel=1e-12)


def test_a_huge_limit_runs_no_long_exp(monkeypatch):
    # at T = 1e308, e^-T S lies far below C's last bit; sized from |S|, the
    # one exp ran at about 61,000 bits
    precs, exp = [], balls._exp
    monkeypatch.setattr(balls, "_exp", lambda m, e, prec: precs.append(prec) or exp(m, e, prec))
    coeffs = q_prime_at_minus_one(60)
    ball, _, _ = _lambda_integral(1e308, coeffs)
    assert precs and max(precs) <= 1000
    # the integral is C to far below C's last bit
    assert ball.value == sum(coeffs, Fraction(0)) and ball.radius < 2.0**-1000


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
    ball = _lambda_integral(6.0, q_prime_at_minus_one(60))[0]
    assert PrecReal(mpf("0.289057143797657"), mpf("3.02e-13")).contains(ball)
    assert ball.radius < mpf("1e-27")
