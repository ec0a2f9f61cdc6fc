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
from minkqm.balls import Dyadic, PrecReal, workprec
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
from minkqm.special import c_coeff


def c_exact(s: int) -> mpf:
    """c_s = 2 polylog(s, 1/2) - 1 from mpmath at 2 s + 300 bits."""
    with mp.workprec(2 * s + 300):
        return 2 * mp.polylog(s, mpf(0.5)) - 1


def entry_ball(mid, rel, q, qp):
    """Entry (q, qp), 1-based, of the chain's matrix as a ball."""
    return PrecReal(mpf(mid[q - 1, qp - 1]), mpf(mid[q - 1, qp - 1] * rel))


def test_transfer_matrix_corner_entries():
    mid, rel = _rows(1, 10, 10)
    # binom(1,1) = 1 and binom(2,2) = 1, so the corners are c_2 and c_3;
    # oracle: mpmath's polylog
    assert entry_ball(mid, rel, 1, 1).agrees(c_exact(2))
    assert entry_ball(mid, rel, 1, 2).agrees(c_exact(3))
    assert mid[0, 1] == pytest.approx(0.0744263872, abs=1e-9)


def test_transfer_matrix_entries_positive_bounded():
    mid, rel = _rows(1, 10, 10)
    assert mid.shape == (10, 10)
    assert (mid > 0).all() and (mid < 1).all()
    assert rel <= 1e-12
    # entry (q, qp) is C(q+qp-1, qp) c_(q+qp); mpmath's polylog is the oracle
    for q, qp in ((1, 1), (3, 7), (10, 10)):
        with mp.workprec(120):
            want = c_exact(q + qp) * math.comb(q + qp - 1, qp)
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
    (1000, 1000, 400): "d3f145e67c7e016c179bc2f4e0568bf2983b49925c7bb00d75edc3c866b724a4",  # int division path
}


def test_chain_floats_are_pinned():
    c_coeff.cache_clear()  # every c_s below is summed afresh
    mids = [c_coeff(s)[0] for s in range(1, 2 * moments._Q_CAP + 1)]
    assert hashlib.sha256(struct.pack(f"<{len(mids)}d", *mids)).hexdigest() == C_MIDPOINTS_DIGEST
    for args, digest in ROWS_DIGESTS.items():
        mid, rel = _rows(*args)
        assert hashlib.sha256(mid.astype("<f8").tobytes() + repr(rel).encode()).hexdigest() == digest, args


def test_rows_past_s_900_round_the_exact_product_once():
    # entry (43, 1242) reads s = 1285: its float64 is the exact lower end of
    # c_1285 times C(1284, 1242), correctly rounded into the subnormal range
    # (rounded to 53 bits first and then to the subnormal grid, it lands one step off)
    mid, _ = _rows(43, 43, 1242)
    assert mid[0, -1] == float(c_coeff(1285)[2] * math.comb(1284, 1242)) == 9.84165916834328e-309


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
        assert v_term(L, 0).agrees(c_exact(L))


def test_v_term_partial_refuses_an_order_past_its_level():
    # V_l (l >= 1), m_L(Q) and the gap are read at a level Q >= L only;
    # V_0 = c_L reads no chain
    for L, Q in ((101, 100), (150, 10), (900, 40)):
        for call in (lambda: v_term_partial(L, 1, Q), lambda: moments._m_at(L, Q), lambda: moments._gap(L, Q)):
            with pytest.raises(DomainError):
                call()
        assert v_term_partial(L, 0, Q).agrees(c_exact(L))
    moments._chain.cache_clear()
    for L in (1, 1000, moments._Q_CAP):
        assert float(v_term_partial(L, 0, 1).value) == c_coeff(L)[0], L
    assert moments._chain.cache_info().currsize == 0


def test_v_term_partial_monotone_in_q():
    for ell in (1, 2, 4):
        lo, hi = (float(v_term_partial(1, ell, Q).value) for Q in (64, 128))
        assert hi >= lo * (1 - 1e-12)


def test_chain_cache_is_bounded_and_eviction_keeps_values():
    Qs = (10, 20, 30, 40, 50, 60)

    def term(ell, Q):
        ball = v_term_partial(1, ell, Q)
        return ball.value, ball.radius

    got = [term(ell, Q) for Q in Qs for ell in (1, 3)]
    assert moments._chain.cache_info().currsize <= moments._CHAINS
    want = []
    for Q in Qs:
        moments._chain.cache_clear()
        c_coeff.cache_clear()
        want += [term(ell, Q) for ell in (1, 3)]
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
        assert a_partial_direct(L, 1, 60).agrees(c_exact(L))
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
    assert abs(float(est.value.value) - 0.5) < 1e-6
    assert est.value.contains(Fraction(1, 2))
    assert 0 < float(est.value.lo) and float(est.value.hi) < 1


def test_moment_partial_sum_matches_published_total():
    total = math.fsum(float(v_term_partial(1, ell, 200).value) for ell in range(4))
    assert abs(total - 0.4956295506) < 1e-9


def test_moment_validation():
    with pytest.raises(DomainError):
        moment(0, 1e-6)
    with pytest.raises(DomainError):
        moment(1, 0.0)
    assert moment(2, 1e-13).value.radius <= 1e-13
    # no radius of the series route can meet an eps below its rounding part:
    # 2.0e-15 at Q = 100 for L = 1
    with pytest.raises(PrecisionUnreachableError):
        moment(1, 1e-15)



def test_moment_never_returns_a_radius_above_eps():
    # just above the least rounding part the radius can still pass eps: at
    # Q = 200 the radii are 3.90e-15 (L = 1) and 4.553e-15 (L = 2) over least
    # parts 3.845e-15 and 4.521e-15, and at (100, 400) 2.1617e-19 over
    # 2.1570e-19; the next level's least part passes eps, so each exits
    for L, eps in ((1, 3.87e-15), (2, 4.54e-15), (100, 2.16e-19)):
        with pytest.raises(PrecisionUnreachableError):
            moment(L, eps)
    for L, eps in ((2, 1e-13), (83, 1e-13), (100, 1e-12)):
        assert moment(L, eps).value.radius <= eps


def test_moment_refuses_an_eps_below_a_level_floor_before_building_that_level():
    # every radius holds 2^-53 c~_L, and for L <= Q every radius from level Q
    # on holds that level's least rounding part; 1e-17 is below 2^-53 c~_2 =
    # 1.8e-17, so no chain is built for it, and moment(100, 1e-19) stops at
    # Q = 200, whose rounding part of m_100 is 1.09e-19
    for Q in (100, 200, 400):
        for L in (1, 2, 50, 300):
            if L <= Q:
                assert moments._m_at(L, Q)[1] >= moments._U64 * c_coeff(L)[0], (L, Q)
                least = moments._chain(Q).solution[2][L - 1]
                assert all(moments._m_at(L, Qp)[1] >= least for Qp in (Q, 2 * Q, 800)), (L, Q)
    moments._chain.cache_clear()
    with pytest.raises(PrecisionUnreachableError):
        moment(2, 1e-17)
    assert moments._chain.cache_info().currsize == 0
    with pytest.raises(PrecisionUnreachableError, match="at Q = 200"):
        moment(100, 1e-19)
    assert moments._chain.cache_info().currsize == 2  # Q = 100, 200


def test_moment_refuses_below_the_rounding_part_without_building_further():
    # the rounding part of m_1 is 2.0e-15 at Q = 100, and 2^-53 c~_1 = 4.3e-17
    moments._chain.cache_clear()
    with pytest.raises(PrecisionUnreachableError):
        moment(1, 1e-16)
    assert moments._chain.cache_info().currsize == 1  # Q = 100
    moments._chain.cache_clear()
    with pytest.raises(PrecisionUnreachableError):
        moment(1, 1e-17)
    assert moments._chain.cache_info().currsize == 0


def test_large_orders_land_inside_the_unit_interval():
    # the radius used to be 1.24e-13 from L = 100 on at Q = 800, so L = 380
    # escaped (0, 1) and L = 300 had a relative radius of 4%
    for L in (300, 380, 400):
        ball = moment(L, 1e-10).value
        assert 0 < ball.lo and ball.hi < 1, L
        if L == 300:
            assert ball.radius <= 1e-3 * ball.value


def test_the_chain_cache_holds_the_whole_doubling_ladder():
    # moment walks the ladder up to the cap level; a cache one level short of
    # the ladder evicted every chain of a call that reached the cap
    assert moments._chain.cache_info().maxsize == len(moments._LADDER)


def test_the_chain_sum_caches_no_vector():
    # the sums from w and from tau~ run on local vectors: a chain keeps only
    # what v_term asked for, and moment reads one level
    moments._chain.cache_clear()
    est = moment(2, 1e-10)
    Q = est.params["Q"]
    assert moments._chain.cache_info().currsize == 1
    assert "truncation" in vars(moments._chain(Q)) and len(moments._chain(Q).vecs) == 1  # w alone
    v_term_partial(2, 3, Q)
    assert len(moments._chain(Q).vecs) == 4  # w through M^3 w, whose entry 2 is V_3
    assert moments._chain.cache_info().currsize == 1


# orders past the top level Q = 1600; L = 1601 comes first, so a call that
# lost its cap fails there and never starts on c_(10^9)
PAST_THE_CAP = (1601, 3000, 10_000, 10_001, 10**9)


def refuse_every_series_call(L):
    calls = [lambda: moment(L, 1e-8), lambda: v_term(L, 0), lambda: v_term(L, 2)]
    calls += [lambda ell=ell: v_term_partial(L, ell, 100) for ell in (0, 1, 2)]
    for call in calls:
        with pytest.raises(ResourceLimitError):
            call()


def test_series_order_past_its_cap_sums_no_c_s():
    # no level reads an order past the top level, so every series call
    # refuses it, V_0 = c_L included, before any c_s is summed
    c_coeff.cache_clear()
    for L in PAST_THE_CAP:
        refuse_every_series_call(L)
        assert c_coeff.cache_info().currsize == 0, L


def test_moment_past_the_cap_level_builds_no_chain():
    # m_L is read at a level Q >= L, and the levels stop at 1600: an order
    # past it is a resource cap before any chain is built
    moments._chain.cache_clear()
    for L in PAST_THE_CAP:
        refuse_every_series_call(L)
        assert moments._chain.cache_info().currsize == 0, L


def lifted(L, Q):
    """m_L(Q) lifted by the truncation gap: the ball moment reads at level Q."""
    return moments._lift(PrecReal(*moments._m_at(L, Q)), moments._gap(L, Q))


def test_moment_reads_each_order_at_a_level_at_or_above_it():
    # orders past the first level start the ladder higher, so no level reads
    # an order past its Q, and each ball meets the next level's reading
    for L in (101, 150, 187, 300):
        for eps in (1e-6, 1e-8, 1e-10):
            est = moment(L, eps)
            Q = est.params["Q"]
            assert Q >= L and est.value.radius <= eps, (L, eps)
            assert est.value.agrees(lifted(L, moments._LADDER[moments._LADDER.index(Q) + 1])), (L, eps)
    assert moment(150, 1e-6).value.radius < 1e-10


def test_v_term_reads_the_first_level_at_or_above_its_order():
    for L, Q in ((150, 200), (100, 100)):
        moments._chain.cache_clear()
        v_term(L, 1)
        info = moments._chain.cache_info()
        assert info.currsize == info.misses == 1, L
        moments._chain(Q)
        assert moments._chain.cache_info().misses == 1, L


def test_moment_reads_a_large_order_once_its_value_has_climbed():
    # at large L, m_L(Q) is still near 0 at the first levels: m_187(100) = 3.8e-14
    # while m_187(Q >= 400) = 1.14e-9; L = 188 used to escape (0, 1)
    assert moment(188, 1e-8).value.contains(mpf(moments._m_at(188, 800)[0]))
    assert moment(187, 1e-8).value.radius < 1e-10


def test_the_tail_bounds_hold_the_row_tails():
    # tau~_q against the columns past Q of 1600, up to the rows' rounding (the
    # bound is tight to float64 from q = 27 at Q = 60); c_s <= 2^-(s+1) alone,
    # without (2/3)^s, leaves tau~ about 0.4% low at Q = 10
    for Q in (10, 60):
        mid, rel = _rows(1, Q, 1600)
        tails = moments._tails(Q)
        for q in range(1, Q + 1):
            assert tails[q - 1] >= math.fsum(mid[q - 1, Q:]) * (1 - rel), (Q, q)


def test_m_bar_brackets_every_moment():
    # m~_L / 2 <= m_L <= m~_L from ?'s masses 2^-k on [1/(k+1), 1/k]
    for L in range(1, 301):
        ball, bar = PrecReal(*moments._m_at(L, 1600)), moments._m_bar(L)
        assert bar / 2 <= ball.lo and ball.hi <= bar, L


def test_the_truncation_bound_holds_the_gap_to_the_cap():
    # the q-truncation entry checks L <= 30 against Q = 400; here the gap runs
    # to the cap level.  At (L, Q) = (100, 100) the bound is 2.66 times the
    # gap, so a quarter of m~ misses it
    for L, Q in ((2, 100), (100, 100), (100, 200), (187, 200), (300, 400)):
        low, high = PrecReal(*moments._m_at(L, Q)), PrecReal(*moments._m_at(L, 1600))
        assert low.lo <= high.hi and high.lo.as_fraction() <= low.hi.as_fraction() + Fraction(moments._gap(L, Q)), (L, Q)


def test_moment_refuses_a_ball_that_leaves_the_unit_interval(monkeypatch):
    # at every ladder level Q >= L each lifted ball of m_L lies inside (0, 1)
    # (all 3100 pairs checked), so only a looser gap makes the check bind
    monkeypatch.setattr(moments, "_LADDER", (100,))
    monkeypatch.setattr(moments, "_gap", lambda L, Q: 1.5)
    with pytest.raises(PrecisionUnreachableError, match=r"inside \(0, 1\)"):
        moment(1, 10.0)


def test_moment_1000_is_read_at_the_cap_inside_its_bracket():
    # m_1000(Q) is still climbing at Q = 800 (3.39e-26); at Q = 1600 it is
    # 1.8058e-22 +- 1.2e-33
    est = moment(1000, 1e-8)
    bar = moments._m_bar(1000)
    assert est.params["Q"] == 1600 and est.params["q_truncation"] == "proven"
    assert bar / 2 <= est.value.lo and est.value.hi <= bar
    assert est.value.radius < 1e-30


def exact_solve(Q):
    """(M, y) of the Q-truncated system y = w + M y, solved in 140-bit
    arithmetic from mpmath's c_s."""
    with mp.workprec(140):
        c = [c_exact(s) for s in range(1, 2 * Q + 1)]
        M = mp.matrix(Q, Q)
        for q in range(1, Q + 1):
            for qp in range(1, Q + 1):
                M[q - 1, qp - 1] = c[q + qp - 1] * math.comb(q + qp - 1, qp)
        return M, mp.lu_solve(mp.eye(Q) - M, mp.matrix(c[:Q]))


def test_series_ball_contains_the_exact_truncated_solve():
    Q = 60
    M, y = exact_solve(Q)
    for L in (1, 2, 5, 30, 59, 60):
        value, radius = moments._m_at(L, Q)
        with mp.workprec(140):
            exact = c_exact(L) + mp.fsum(M[L - 1, q] * y[q] for q in range(Q))
            assert PrecReal(value, radius).contains(exact), L
            # the compensated sum keeps y_L within an ulp or so of the solve
            assert abs(value - exact) <= 2 * math.ulp(value), L
            if L <= 5:
                assert abs(value - exact) < 1e-16 < radius < 2e-14, L


def test_a_chain_sum_cut_short_still_holds_the_solve(monkeypatch):
    # past K the sum charges the tail sum_(j>K) M^j w as |M^K w|_inf, so a
    # sum stopped after 5 vectors is a wide ball that still holds the solve
    Q = 60
    _, y = exact_solve(Q)
    monkeypatch.setattr(moments, "_K_CAP", 5)
    approx, err, _ = moments._Chain(Q).solution
    for L in (1, 2, 30, 60):
        assert PrecReal(float(approx[L - 1]), float(err[L - 1])).contains(y[L - 1]), L


def test_symmetry_residuals_contain_zero():
    ests = [moment(L, 1e-6) for L in range(1, 4)]
    res = symmetry_residual(ests)
    assert len(res) == 3
    for r in res:
        assert r.contains(0)
    # L = 2 degenerates to the L = 1 relation: both equal 1 - 2 m_1
    assert res[0].agrees(res[1], 1e-12)


def test_residuals_and_identity_sides_ignore_the_callers_precision():
    # they add, subtract and multiply float and int data only, and ring
    # operations on balls are exact, so the working precision never enters
    ests = [moment(L, 1e-6) for L in range(1, 4)]
    balls = {}
    for bits in (20, 200):
        with workprec(bits):
            got = [*symmetry_residual(ests), *h_integral_identity_check(3, 2, 12), *h_integral_identity_check(1, 0, 60)]
        balls[bits] = [(b.value._mpf_, b.radius._mpf_) for b in got]
    assert balls[20] == balls[200]


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


def test_a_parent_of_more_children_than_a_block_is_a_block_of_its_own(monkeypatch):
    # at a block of 4 entries each parent of the fanout-(B - 1) grower is alone,
    # and the exact sums do not depend on the blocks
    want = {B: a_partial_direct(3, 3, B).value for B in (6, 8)}
    monkeypatch.setattr(farey, "_CHUNK", 4)
    for B, value in want.items():
        assert [block[0].size for block in moments._digit_chunks(3, B)] == [1] * (B - 1) ** 2
        assert a_partial_direct(3, 3, B).value == value


def digit_sum(L, digits, B):
    """A_digits(B) exactly: sum over [2, B]^digits of 2^(digits - sum b) [[b]]^L."""
    return sum((Fraction(2) ** (digits - sum(bs)) * eval_semiregular(bs) ** L
                for bs in product(range(2, B + 1), repeat=digits) if digits), Fraction(0))


def within_rounding(ball, exact):
    """ball contains exact, and so does its midpoint up to its 1e-13 rounding allowance."""
    return ball.contains(exact) and abs(ball.value.as_fraction() - exact) <= Fraction(1, 10**12) * abs(exact)


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
    # the digit cap B - 1 <= 2^15 is its own constant, wider than a block of
    # farey.grow, whose one parent of more children is a block of its own;
    # depth 0 enumerates nothing
    B = 2**15 + 1
    assert a_partial_direct(1, 1, B).agrees(c_exact(1))
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
