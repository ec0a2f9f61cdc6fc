"""Moment engine: series terms, digit-sum oracles, and their identities."""

import math

import pytest
from mpmath import mp, mpf

from minkqm.balls import PrecReal
from minkqm.errors import DomainError, PrecisionUnreachableError, ResourceLimitError
from minkqm.moments import (
    MomentEstimate,
    _matrix_mid,
    a_partial_direct,
    h_integral_identity_check,
    moment,
    symmetry_residual,
    v_term,
    v_term_partial,
)
from minkqm.special import c_coeff


def entry_ball(mid, rel, q, qp):
    """Entry (q, qp), 1-based, of the chain's matrix as a ball."""
    return PrecReal(mpf(mid[q - 1, qp - 1]), mpf(mid[q - 1, qp - 1] * rel))


def test_transfer_matrix_corner_entries():
    mid, rel = _matrix_mid(10)
    # binom(1,1) = 1 and binom(2,2) = 1, so the corners are c_2 and c_3;
    # brute-force oracle: the c-series themselves
    assert entry_ball(mid, rel, 1, 1).agrees(c_coeff(2, 1e-15))
    assert entry_ball(mid, rel, 1, 2).agrees(c_coeff(3, 1e-15))
    assert mid[0, 1] == pytest.approx(0.0744263872, abs=1e-9)


def test_transfer_matrix_entries_positive_bounded():
    mid, rel = _matrix_mid(10)
    assert mid.shape == (10, 10)
    assert (mid > 0).all() and (mid < 1).all()
    assert rel <= 1e-12
    # entry (q, qp) is C(q+qp-1, qp) c_(q+qp); the c-series is the oracle
    for q, qp in ((1, 1), (3, 7), (10, 10)):
        want = c_coeff(q + qp, 1e-20) * math.comb(q + qp - 1, qp)
        assert entry_ball(mid, rel, q, qp).agrees(want)


def test_v_term_zero_is_c_L():
    for L in (1, 2, 5):
        assert v_term(L, 0, Q=50).agrees(c_coeff(L, 1e-15))


def test_v_term_partial_row_past_q():
    # for L > Q, u is row L of M built past the chain's Q x Q block:
    # V_1 = sum_q c_(L+q) C(L+q-1, q) c_q; big L takes the mpf product path
    for L, Q in ((150, 10), (900, 40)):
        value, rel = v_term_partial(L, 1, Q)
        with mp.workprec(160):
            want = PrecReal.zero()
            for q in range(1, Q + 1):
                u = c_coeff(L + q, mpf(2) ** -(L + q + 80)) * math.comb(L + q - 1, q)
                want = want + u * c_coeff(q, mpf(2) ** -(q + 80))
        assert PrecReal(mpf(value), mpf(value) * mpf(rel)).agrees(want)
        assert abs(value / float(want.value) - 1) < 1e-14


def test_v_term_partial_monotone_in_q():
    for ell in (1, 2, 4):
        lo, _ = v_term_partial(1, ell, 64)
        hi, _ = v_term_partial(1, ell, 128)
        assert hi >= lo * (1 - 1e-12)


def test_v_term_validation():
    with pytest.raises(DomainError):
        v_term(0, 1)
    with pytest.raises(DomainError):
        v_term_partial(1, -1, 100)
    with pytest.raises(ResourceLimitError):
        v_term_partial(1, 1, 10_000)


def test_a_partial_basics():
    assert a_partial_direct(1, 0, 40).value == 0
    # A_1 = 2 sum_{b >= 2} 2^-b b^-L is the c_L series termwise
    for L in (1, 2, 3):
        assert a_partial_direct(L, 1, 60).agrees(c_coeff(L, 1e-15))
    with pytest.raises(ResourceLimitError):
        a_partial_direct(1, 5, 10)
    with pytest.raises(DomainError):
        a_partial_direct(1, 2, 2)


def test_a_partial_difference_reproduces_published_v1():
    diff = a_partial_direct(1, 2, 60) - a_partial_direct(1, 1, 60)
    assert abs(float(diff.value) - 0.0791502471) < 1e-9


def test_suma_identity_small():
    for L in (1, 2):
        for ell in (0, 1, 2):
            diff = a_partial_direct(L, ell + 1, 40) - a_partial_direct(L, ell, 40)
            assert v_term(L, ell, Q=200).agrees(diff)


def test_moment_first_is_half():
    est = moment(1, 1e-6)
    assert est.method == "series"
    assert est.params["lmax"] >= 25
    assert abs(float(est.value.value) - 0.5) < 1e-6
    assert est.tail_bound <= float(est.value.radius)
    assert 0 < float(est.value.lo) and float(est.value.hi) < 1


def test_moment_partial_sum_matches_published_total():
    total = math.fsum(v_term_partial(1, ell, 200)[0] for ell in range(4))
    assert abs(total - 0.4956295506) < 1e-9


def test_moment_validation():
    with pytest.raises(DomainError):
        moment(0, 1e-6)
    with pytest.raises(PrecisionUnreachableError):
        moment(1, 1e-13)


def test_moment_estimate_tail_must_sit_in_radius():
    ball = PrecReal(mpf("0.5"), mpf("1e-9"))
    with pytest.raises(DomainError):
        MomentEstimate(L=1, value=ball, method="series", params={}, tail_bound=1e-6)


def test_symmetry_residuals_contain_zero():
    ests = [moment(L, 1e-6) for L in range(1, 4)]
    res = symmetry_residual(ests)
    assert len(res) == 3
    for r in res:
        assert r.contains(0)
    # L = 2 degenerates to the L = 1 relation: both equal 1 - 2 m_1
    assert res[0].agrees(res[1], 1e-12)


def test_h_integral_identity_ell0_value():
    left, right = h_integral_identity_check(1, 0, 60)
    # both sides reduce to 1/2 - A_1/2 = 1/2 - c_1/2 = 0.30685281944...
    assert abs(float(left.value) - 0.3068528194) < 1e-8
    assert left.agrees(right)


def test_h_integral_identity_overlap_and_bound():
    for ell in (0, 1, 2):
        left, right = h_integral_identity_check(1, ell, 30)
        assert left.agrees(right)
        assert float(left.hi) < 2.0 ** (-(ell + 1))
    with pytest.raises(ResourceLimitError):
        h_integral_identity_check(1, 4, 10)
