"""Moment engine: series terms, digit-sum oracles, and their identities."""

import hashlib
import math
import struct
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from minkqm import farey, moments
from minkqm.balls import PrecReal, mpf_to_fraction
from minkqm.contfrac import eval_semiregular
from minkqm.errors import DomainError, PrecisionUnreachableError, ResourceLimitError
from minkqm.moments import (
    _rows,
    a_partial_direct,
    h_integral_identity_check,
    moment,
    symmetry_residual,
    v_term,
    v_term_partial,
)
from minkqm.special import c_coeff, c_coeff_cached


def entry_ball(mid, rel, q, qp):
    """Entry (q, qp), 1-based, of the chain's matrix as a ball."""
    return PrecReal(mpf(mid[q - 1, qp - 1]), mpf(mid[q - 1, qp - 1] * rel))


def test_transfer_matrix_corner_entries():
    mid, rel = _rows(1, 10, 10)
    # binom(1,1) = 1 and binom(2,2) = 1, so the corners are c_2 and c_3;
    # brute-force oracle: the c-series themselves
    assert entry_ball(mid, rel, 1, 1).agrees(c_coeff(2, 1e-15))
    assert entry_ball(mid, rel, 1, 2).agrees(c_coeff(3, 1e-15))
    assert mid[0, 1] == pytest.approx(0.0744263872, abs=1e-9)


def test_transfer_matrix_entries_positive_bounded():
    mid, rel = _rows(1, 10, 10)
    assert mid.shape == (10, 10)
    assert (mid > 0).all() and (mid < 1).all()
    assert rel <= 1e-12
    # entry (q, qp) is C(q+qp-1, qp) c_(q+qp); the c-series is the oracle
    for q, qp in ((1, 1), (3, 7), (10, 10)):
        want = c_coeff(q + qp, 1e-20) * math.comb(q + qp - 1, qp)
        assert entry_ball(mid, rel, q, qp).agrees(want)


# SHA-256 digests of the float64 entries, recorded when c_s was summed in
# mpmath: the fixed-point sums must reproduce every float64 that enters the
# chain.  The rows' repr(rel) was re-recorded when _compose_rel stopped
# dropping relative errors at or below 2^-53 (3 roundings now read 3.3e-16)
C_MIDPOINTS_DIGEST = "9b9fa6b421e3156057d57a5ce54c6260a412962a400e526c442a9177adc3b6c6"
ROWS_DIGESTS = {
    (1, 100, 100): "b1ca7e49c1198f5f76b890c7cef9a46d96c21f47467437f1dab4604919d2e47b",
    (1, 200, 200): "7a18b2bf9198f5717c8f313d9d1fc203922515e1cc9a49efeb0346a5f43f11af",
    (1, 400, 400): "69859a1ec9484dfa2bd34e8c7496fb7506013e3654fbc52a5054d7a6f9a1709f",
    (1000, 1000, 400): "d3f145e67c7e016c179bc2f4e0568bf2983b49925c7bb00d75edc3c866b724a4",  # mpf path
}


def test_chain_floats_are_pinned():
    c_coeff_cached.cache_clear()  # every c_s below is summed afresh
    mids = [v_term_partial(s, 0, 1)[0] for s in range(1, 2 * moments._Q_CAP + 1)]
    assert hashlib.sha256(struct.pack(f"<{len(mids)}d", *mids)).hexdigest() == C_MIDPOINTS_DIGEST
    for args, digest in ROWS_DIGESTS.items():
        mid, rel = _rows(*args)
        assert hashlib.sha256(mid.astype("<f8").tobytes() + repr(rel).encode()).hexdigest() == digest, args


def test_compose_rel_keeps_every_rounding():
    # 1 + r rounds to 1 for r <= 2^-53, so a product of (1 + r) in float64 loses them
    u = 2.0**-53
    assert moments._compose_rel(u) >= u
    assert moments._compose_rel(u, u, u) >= 3 * u
    # each entry of a row past the float64 range carries the c_s rounding and one multiply
    assert _rows(1000, 1000, 400)[1] >= 2 * u
    # above the rounding level the bound is the sum and its square, rounded up
    r = (1e-3, 2e-4, 3e-5)
    assert moments._compose_rel(*r) >= math.prod(1 + x for x in r) - 1


def test_v_term_zero_is_c_L():
    for L in (1, 2, 5):
        assert v_term(L, 0).agrees(c_coeff(L, 1e-15))


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


def test_chain_cache_is_bounded_and_eviction_keeps_values():
    Qs = (10, 20, 30, 40, 50, 60)
    got = [v_term_partial(1, ell, Q) for Q in Qs for ell in (1, 3)]
    assert moments._chain.cache_info().currsize <= moments._CHAINS
    want = []
    for Q in Qs:
        moments._chain.cache_clear()
        c_coeff_cached.cache_clear()
        want += [v_term_partial(1, ell, Q) for ell in (1, 3)]
    assert got == want


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
        a_partial_direct(1, -1, 10)
    with pytest.raises(DomainError):
        a_partial_direct(1, 2, 2)


def test_a_partial_difference_reproduces_published_v1():
    diff = a_partial_direct(1, 2, 60) - a_partial_direct(1, 1, 60)
    assert abs(float(diff.value) - 0.0791502471) < 1e-9


def test_suma_identity_small():
    for L in (1, 2):
        for ell in (0, 1, 2):
            diff = a_partial_direct(L, ell + 1, 40) - a_partial_direct(L, ell, 40)
            assert v_term(L, ell).agrees(diff)


def test_moment_first_is_half():
    est = moment(1, 1e-6)
    assert est.method == "series"
    assert abs(float(est.value.value) - 0.5) < 1e-6
    assert est.value.contains(Fraction(1, 2))
    assert 0 < float(est.value.lo) and float(est.value.hi) < 1


def test_moment_partial_sum_matches_published_total():
    total = math.fsum(v_term_partial(1, ell, 200)[0] for ell in range(4))
    assert abs(total - 0.4956295506) < 1e-9


def test_moment_validation():
    with pytest.raises(DomainError):
        moment(0, 1e-6)
    assert moment(2, 1e-13).value.radius <= 1e-13
    # no radius of the series route can meet an eps below its rounding floor
    with pytest.raises(PrecisionUnreachableError):
        moment(1, 1e-14)



def test_moment_doubling_waits_for_the_value_to_climb():
    # at large L, m_L(Q) is still near 0 at the first levels: m_187(100) = 3.8e-14
    # and m_187(200) = 1.09e-9 agree to eps/4, while m_187(Q >= 400) = 1.14e-9;
    # L = 188 used to escape (0, 1)
    assert moment(188, 1e-8).value.contains(mpf(moments._m_at(188, 800)[0]))
    assert moment(187, 1e-8).value.radius < 1e-10


def exact_solve(Q):
    """(M, y) of the Q-truncated system y = w + M y, solved in 140-bit
    arithmetic from c_s enclosed to 2^-(s+130)."""
    with mp.workprec(140):
        c = [c_coeff(s, mpf(2) ** -(s + 130)).value for s in range(1, 2 * Q + 1)]
        M = mp.matrix(Q, Q)
        for q in range(1, Q + 1):
            for qp in range(1, Q + 1):
                M[q - 1, qp - 1] = c[q + qp - 1] * math.comb(q + qp - 1, qp)
        return M, mp.lu_solve(mp.eye(Q) - M, mp.matrix(c[:Q]))


def test_series_ball_contains_the_exact_truncated_solve():
    Q = 60
    M, y = exact_solve(Q)
    for L in (1, 2, 5):
        value, radius = moments._m_at(L, Q)
        with mp.workprec(140):
            exact = c_coeff(L, mpf(2) ** -(L + 130)).value + mp.fsum(M[L - 1, q] * y[q] for q in range(Q))
            assert PrecReal(value, radius).contains(exact), L
            assert abs(value - exact) < 1e-16 < radius < 2e-14, L


def test_solve_error_covers_a_perturbed_vector():
    # the bound depends on nothing but its inputs, so a vector off the fixed
    # point gets a bound that still covers it
    Q = 60
    _, exact = exact_solve(Q)
    ch = moments._chain(Q)
    for q, delta in ((0, 1e-9), (30, -1e-12), (59, 3e-15), (10, 0.0)):
        y = ch.solution[0].copy()
        y[q] += delta
        bound = moments._solve_error(ch.mid, ch.rel_m, ch.vecs[0], ch.rels[0], y)
        with mp.workprec(140):
            err = max(abs(exact[i] - mpf(y[i])) for i in range(Q))
        assert err <= bound <= 2 * abs(delta) + 2e-14, (q, delta)


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
    with pytest.raises(DomainError):
        h_integral_identity_check(1, -1, 10)


def reference_tuples(depth, B):
    """(num, den, digit sum, value with the last digit decremented) of
    [[b1..b_depth]] for every tuple in [2, B]^depth, from eval_semiregular."""
    out = Counter()
    for bs in product(range(2, B + 1), repeat=depth):
        x = eval_semiregular(bs)
        out[x.numerator, x.denominator, sum(bs), eval_semiregular(bs[:-1] + (bs[-1] - 1,))] += 1
    return out


def grown_tuples(depth, B):
    """The same, from the parent blocks of _digit_chunks: digit b appended
    to a parent (n_prev, n, d_prev, d) gives b n - n_prev over b d - d_prev,
    and its num_prev and den_prev are the parent's n and d."""
    out = Counter()
    b = np.arange(2, B + 1)[:, None]
    for n_prev, n, d_prev, d, sb in moments._digit_chunks(depth, B):
        num, den = b * n - n_prev, b * d - d_prev
        assert num.size <= farey._CHUNK  # the leaves of one block
        leaves = (num, den, sb + b, num - n, den - d)
        for num, den, s, y_num, y_den in zip(*(a.ravel().tolist() for a in leaves)):
            out[num, den, s, Fraction(y_num, y_den)] += 1
    return out


@pytest.mark.parametrize("chunk", [None, 16], ids=["default-chunk", "chunk-16"])
def test_digit_tuples_match_the_product_reference(chunk, monkeypatch):
    # a chunk of 16 makes the fanout-7 grower at B = 8 slice and recurse
    if chunk is not None:
        monkeypatch.setattr(farey, "_CHUNK", chunk)
    for B in range(3, 9):
        for depth in range(1, 5):
            assert grown_tuples(depth, B) == reference_tuples(depth, B), (B, depth)


def digit_sum(L, digits, B):
    """A_digits(B) exactly: sum over [2, B]^digits of 2^(digits - sum b) [[b]]^L."""
    return sum((Fraction(2) ** (digits - sum(bs)) * eval_semiregular(bs) ** L
                for bs in product(range(2, B + 1), repeat=digits) if digits), Fraction(0))


def within_rounding(ball, exact):
    """ball contains exact, and so does its midpoint up to its 1e-13 rounding allowance."""
    return ball.contains(exact) and abs(mpf_to_fraction(ball.value) - exact) <= Fraction(1, 10**12) * abs(exact)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.integers(3, 7))
def test_oracle_balls_contain_the_exact_truncated_sums(L, ell, B):
    assert within_rounding(a_partial_direct(L, ell, B), digit_sum(L, ell, B))
    left, right = h_integral_identity_check(L, ell, B)
    left_exact = sum((Fraction(2) ** (ell + 1 - sum(bs))
                      * (eval_semiregular(bs[:-1] + (bs[-1] - 1,)) ** L - eval_semiregular(bs) ** L)
                      for bs in product(range(2, B + 1), repeat=ell + 1)), Fraction(0))
    right_exact = Fraction(1, 2 ** (ell + 1)) - digit_sum(L, ell + 1, B) / 2
    right_exact += sum(digit_sum(L, ell - i, B) / 2 ** (i + 2) for i in range(ell))
    assert within_rounding(left, left_exact)
    assert within_rounding(right, right_exact)


def test_oracle_radius_survives_underflow():
    # every term 2^(1-b) b^-2000 of A_1 underflows float64, the first being
    # 2^-2001, and so does the tail 2^-1099: the ball is 0 with a radius
    ball = a_partial_direct(2000, 1, 1100)
    assert ball.value == 0 and ball.radius > 0
    assert ball.hi >= mpf(2) ** -2001
    left, right = h_integral_identity_check(2000, 0, 1100)
    assert left.agrees(right)


def test_transfer_rows_sum_to_one_minus_polylog():
    # row q of the infinite matrix sums to 1 - Li_q(1/2) < 1/2 (the l-tail
    # proof of the moments docstring); 1600 columns reach it in float64, up to
    # the rows' relative error bound and the one rounding of the row sum
    mid, rel = _rows(1, 20, 1600)
    with mp.workprec(80):
        for q in range(1, 21):
            want = 1 - mp.polylog(q, mpf(1) / 2)
            got = math.fsum(mid[q - 1])
            assert got <= want * (1 + rel) * (1 + mpf(2) ** -53), q
            if q in (1, 2, 5, 20):
                assert abs(got - want) <= 1e-15, q


def test_digit_cap_is_held_to_one_chunk_of_children():
    # one entry's B - 1 children must fit in a chunk; depth 0 enumerates nothing
    B = farey._CHUNK + 1
    assert a_partial_direct(1, 1, B).agrees(c_coeff(1, 1e-15))
    assert a_partial_direct(1, 0, B + 1).value == 0
    with pytest.raises(ResourceLimitError):
        a_partial_direct(1, 1, B + 1)
    with pytest.raises(ResourceLimitError):
        h_integral_identity_check(1, 0, B + 1)


# A_l midpoints at the criterion-9 size (B = 40) as summed by the previous
# tuple-by-tuple enumerator; the chunked sum must stay within 2 ulp of them
A_MIDPOINTS_B40 = {
    (1, 1): "0x1.8b90bfbe8e4b0p-2", (1, 2): "0x1.dc9d82ea5b278p-2",
    (1, 3): "0x1.f3d8788ac5960p-2", (1, 4): "0x1.fb86501e0ec92p-2",
    (2, 1): "0x1.50db71392b356p-3", (2, 2): "0x1.f8476103f01c8p-3",
    (2, 3): "0x1.190c588b8d1ffp-2", (2, 4): "0x1.2370a5b8e698ap-2",
    (3, 1): "0x1.30d9b930d707dp-4", (3, 2): "0x1.2047afd9787dfp-3",
    (3, 3): "0x1.58ceea3fff973p-3", (3, 4): "0x1.6ef4a81d35833p-3",
}


def test_a_partial_midpoints_are_pinned_at_criterion_9_size():
    for (L, ell), want in A_MIDPOINTS_B40.items():
        got = float(a_partial_direct(L, ell, 40).value)
        old = float.fromhex(want)
        assert abs(got - old) <= 2 * math.ulp(old), (L, ell, got.hex(), want)


def oracle_digest(B):
    h = hashlib.sha256()
    for L in (1, 2, 3, 7):
        for ell in range(1, 5):
            h.update(f"{float(a_partial_direct(L, ell, B).value).hex()}\n".encode())
        for ell in range(4):
            left, right = h_integral_identity_check(L, ell, B)
            h.update(f"{float(left.value).hex()} {right.value.man_exp}\n".encode())
    return h.hexdigest()


# SHA-256 over the A_l (l = 1..4) and identity-check (l = 0..3) midpoints for
# L in {1, 2, 3, 7}, recorded when the digit sums were one math.fsum
ORACLE_DIGESTS = {
    28: "b8c0618f848ff498deb618ec678fff06580f1af8393a4352c66a58fcc38b0614",
    17: "49670f7c11e7a7498c8eeddd14f15b3d6965c3bbe32602da32840912d40aa8a2",
}


# a chunk of 16 holds the 16 children of one entry at B = 17, not B = 28
@pytest.mark.parametrize("B, chunk", [(28, None), (17, None), (17, 16)], ids=["B28", "B17", "B17-chunk-16"])
def test_oracle_midpoints_are_pinned(B, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(farey, "_CHUNK", chunk)
    assert oracle_digest(B) == ORACLE_DIGESTS[B]


floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals and the smallest normals
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -1.0]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(floats, min_size=1, max_size=30), st.lists(floats, max_size=10),
       st.integers(1, 6), st.randoms())
def test_float_sum_is_math_fsum(xs, cancelled, parts, rnd):
    xs = xs + cancelled + [-x for x in cancelled]
    rnd.shuffle(xs)
    try:
        want = math.fsum(xs)
    except OverflowError:  # fsum also refuses an intermediate overflow
        assume(False)
    # the same floats on the second side, reversed, come to the same sum
    blocks = [(x, x[::-1]) for x in np.array_split(np.array(xs), parts)]
    assert [s.hex() for s in moments._float_sums(blocks, 2)] == [want.hex()] * 2
