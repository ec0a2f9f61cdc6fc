"""The question mark function and its step weights, all exact."""

import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkqm.balls import Dyadic, from_pair
from minkqm.contfrac import regular_digits_int, semiregular_digits_int
from minkqm.errors import DomainError
from minkqm.minkowski import (
    h_values,
    question_mark,
    question_mark_int,
    question_mark_semiregular,
    question_mark_semiregular_int,
    weight_f,
    weight_h,
)


def rationals(qmax=10_000):
    return st.builds(
        lambda q, k: Fraction(1 + k % (q - 1), q), st.integers(2, qmax), st.integers(0, 10**9)
    )


def test_dyadic_basics():
    d = question_mark(Fraction(2, 5))
    assert d.pair == (3, -3) and str(d) == "3/8"
    assert question_mark(Fraction(3, 7)).as_fraction() == Fraction(7, 16)
    assert str(question_mark(Fraction(1))) == "1" and str(weight_f(Fraction(3, 7), 4)) == "0"
    assert question_mark(Fraction(1, 2)) + weight_f(Fraction(1, 3), 1) == Fraction(3, 4)
    x = Fraction(3, 7)
    values = (question_mark(x), question_mark_semiregular(x), weight_f(x, 1), weight_h(x, 0), *h_values(x))
    assert all(type(v) is Dyadic for v in values)


def test_from_pair_strips_in_one_step():
    assert from_pair(0, 0).pair == from_pair(0, -(10**6)).pair == (0, 0)
    assert from_pair(-12, -1).pair == (-3, 1)
    assert from_pair(5 << 40, -(10**6)).pair == (5, 40 - 10**6)
    big = (3 << 10**6) + (1 << 900_000)  # 900,000 trailing zero bits
    start = time.perf_counter()
    d = from_pair(big, -(10**6))
    elapsed = time.perf_counter() - start
    assert d.pair == ((3 << 100_000) + 1, -100_000)
    assert elapsed < 0.05  # one shift, not one per bit


def test_question_mark_examples():
    assert question_mark(Fraction(1, 2)) == Fraction(1, 2)
    assert question_mark(Fraction(3, 7)) == Fraction(7, 16)
    assert question_mark(Fraction(2, 5)) == Fraction(3, 8)
    assert question_mark(Fraction(1)) == 1


def test_question_mark_semiregular_examples():
    assert question_mark_semiregular(Fraction(1, 2)) == Fraction(1, 2)
    assert question_mark_semiregular(Fraction(3, 7)) == Fraction(7, 16)
    assert question_mark_semiregular(Fraction(1, 3)) == Fraction(1, 4)  # [[3]]
    assert question_mark_semiregular(Fraction(1)) == 1


def test_domain_rejection():
    for bad in (Fraction(0), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(DomainError):
            question_mark(bad)
        with pytest.raises(DomainError):
            weight_f(bad, 1)


def test_weight_f_examples():
    x = Fraction(3, 7)  # digits (3, 2, 2)
    assert weight_f(x, 0) == 1
    assert weight_f(x, 2) == Fraction(1, 8)  # 2^(2-5)
    assert weight_f(x, 4) == 0


def test_weight_h_examples():
    x = Fraction(3, 7)
    assert weight_h(x, 0) == Fraction(1, 2)  # 1 - 2/4
    assert weight_h(x, 1) == 0
    assert weight_h(x, 3) == Fraction(1, 16)  # 2^(3-7) - 0


def test_telescoping_worked_instance():
    total = sum((h.as_fraction() for h in h_values(Fraction(3, 7))), Fraction(0))
    assert total == Fraction(9, 16) == 1 - Fraction(7, 16)


def test_weights_at_one():
    assert weight_f(Fraction(1), 3) == Fraction(1, 8)
    assert weight_h(Fraction(1), 3) == 0
    assert h_values(Fraction(1)) == []


@settings(max_examples=400, deadline=None)
@given(rationals())
def test_two_routes_agree(x):
    assert question_mark(x) == question_mark_semiregular(x)


@settings(max_examples=300, deadline=None)
@given(rationals())
def test_symmetry_and_contraction(x):
    if x == 1:
        return
    qx = question_mark(x)
    assert qx + question_mark(1 - x) == 1
    m, e = qx.pair
    assert question_mark(x / (x + 1)).pair == (m, e - 1)


@settings(max_examples=300, deadline=None)
@given(rationals())
def test_telescoping_and_nonnegativity(x):
    hs = h_values(x)
    assert all(h.pair[0] >= 0 for h in hs)
    total = sum((h.as_fraction() for h in hs), Fraction(0))
    assert total == 1 - question_mark(x).as_fraction()


def test_h_values_match_the_weight_definition():
    # h_l = f_l - 2 f_(l+1) through weight_h, on every x = p/q with q <= 60
    for q in range(2, 61):
        for p in range(1, q):
            x = Fraction(p, q)
            hs = h_values(x)
            assert hs == [weight_h(x, ell) for ell in range(len(hs))]
            assert weight_f(x, len(hs)) == 0


def test_h_values_on_a_long_run_of_twos():
    # k/(k+1) = [[2, ..., 2]] (k digits): h_l = 0 for l < k, h_k = f_k = 2^-k;
    # built from digits, so no list of k growing fractions is ever held
    k = 20_000
    x = Fraction(k, k + 1)
    tracemalloc.start()
    try:
        hs = h_values(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert [h.pair for h in hs] == [(0, 0)] * k + [(1, -k)]
    for ell in (0, 1, k - 1, k):
        assert hs[ell] == weight_h(x, ell)
    assert hs[k].as_fraction() == 1 - question_mark(x).as_fraction()


def test_monotonicity_on_sorted_sample():
    rng = random.Random(31)
    xs = sorted({Fraction(rng.randint(1, 9999), 10_000) for _ in range(300)})
    vals = [question_mark(x).as_fraction() for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# -- the (p, q) kernels -----------------------------------------------------------


def _regular_reference(p, q):
    # ?([0; a1, a2, ...]) = sum_j (-1)^(j-1) 2^(1 - s_j), s_j = a1 + ... + aj,
    # one term per digit over the common denominator 2^s_k
    sums = list(accumulate(regular_digits_int(p, q)))
    top = sums[-1]
    return Fraction(sum((-1) ** j * (2 << (top - s)) for j, s in enumerate(sums)), 1 << top)


def _semiregular_reference(p, q):
    # ?([[b1, b2, ...]]) = sum_k 2^(-e_k), e_k = (b1 - 1) + ... + (bk - 1),
    # one term per digit over the common denominator 2^e_k
    exps = list(accumulate(b - 1 for b in semiregular_digits_int(p, q)))
    top = exps[-1]
    return Fraction(sum(1 << (top - e) for e in exps), 1 << top)


def _value(pair):
    num, exp = pair
    assert num % 2 == 1, pair  # an odd numerator: the pair is in lowest terms
    return Fraction(num, 1 << exp)


def test_int_kernels_match_the_digit_sums_for_every_q_up_to_300():
    for q in range(1, 301):
        for p in range(1, q + 1):
            if math.gcd(p, q) == 1:
                assert _value(question_mark_int(p, q)) == _regular_reference(p, q), (p, q)
                assert _value(question_mark_semiregular_int(p, q)) == _semiregular_reference(p, q), (p, q)


def test_int_kernels_ignore_a_common_factor():
    rng = random.Random(5)
    for _ in range(500):
        q = rng.randint(1, 10**6)
        p = rng.randint(1, q)
        for k in (2, 3, 1024, 10**30 + 7):
            assert question_mark_int(k * p, k * q) == question_mark_int(p, q), (k, p, q)
            assert question_mark_semiregular_int(k * p, k * q) == question_mark_semiregular_int(p, q), (k, p, q)


def test_a_run_of_twos_is_one_step():
    # k/(k+1) = [[2_k]] = [0; 1, k], so ?(k/(k+1)) = 1 - 2^-k
    for k in range(1, 2001):
        want = ((1 << k) - 1, k)
        assert question_mark_semiregular_int(k, k + 1) == want == question_mark_int(k, k + 1)
    ks = [10**5 - j for j in range(4)]
    start = time.perf_counter()
    got = [question_mark_semiregular_int(k, k + 1) for k in ks]
    elapsed = time.perf_counter() - start
    assert got == [((1 << k) - 1, k) for k in ks]
    # digit by digit these are 4 * 10^5 shifts of numbers up to 10^5 bits, about 1 s
    assert elapsed < 0.1
