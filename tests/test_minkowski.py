"""The question mark function and its step weights, all exact."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkqm.errors import DomainError
from minkqm.minkowski import (
    DyadicRational,
    h_values,
    question_mark,
    question_mark_semiregular,
    weight_f,
    weight_h,
)


def rationals(qmax=10_000):
    return st.builds(
        lambda q, k: Fraction(1 + k % (q - 1), q), st.integers(2, qmax), st.integers(0, 10**9)
    )


def test_dyadic_basics():
    d = DyadicRational.from_parts(6, 4)
    assert (d.num, d.exp) == (3, 3) and str(d) == "3/8"
    assert DyadicRational.from_fraction(Fraction(7, 16)) == DyadicRational(7, 4)
    with pytest.raises(DomainError):
        DyadicRational.from_fraction(Fraction(1, 3))
    with pytest.raises(DomainError):
        DyadicRational(6, 4)
    assert DyadicRational(1, 1) + DyadicRational(1, 2) == DyadicRational(3, 2)
    assert DyadicRational(1, 0).halved() == DyadicRational(1, 1)


def test_question_mark_examples():
    assert question_mark(Fraction(1, 2)) == DyadicRational(1, 1)
    assert question_mark(Fraction(3, 7)) == DyadicRational(7, 4)  # 7/16
    assert question_mark(Fraction(2, 5)) == DyadicRational(3, 3)  # 3/8
    assert question_mark(Fraction(1)) == DyadicRational(1, 0)


def test_question_mark_semiregular_examples():
    assert question_mark_semiregular(Fraction(1, 2)) == DyadicRational(1, 1)
    assert question_mark_semiregular(Fraction(3, 7)) == DyadicRational(7, 4)
    assert question_mark_semiregular(Fraction(1, 3)) == DyadicRational(1, 2)  # [[3]] -> 1/4
    assert question_mark_semiregular(Fraction(1)) == DyadicRational(1, 0)


def test_domain_rejection():
    for bad in (Fraction(0), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(DomainError):
            question_mark(bad)
        with pytest.raises(DomainError):
            weight_f(bad, 1)


def test_weight_f_examples():
    x = Fraction(3, 7)  # digits (3, 2, 2)
    assert weight_f(x, 0) == DyadicRational(1, 0)
    assert weight_f(x, 2) == DyadicRational(1, 3)  # 2^(2-5) = 1/8
    assert weight_f(x, 4) == DyadicRational(0, 0)


def test_weight_h_examples():
    x = Fraction(3, 7)
    assert weight_h(x, 0) == DyadicRational(1, 1)  # 1 - 2/4
    assert weight_h(x, 1) == DyadicRational(0, 0)
    assert weight_h(x, 3) == DyadicRational(1, 4)  # 2^(3-7) - 0


def test_telescoping_worked_instance():
    total = sum((h.as_fraction() for h in h_values(Fraction(3, 7))), Fraction(0))
    assert total == Fraction(9, 16) == 1 - Fraction(7, 16)


def test_weights_at_one():
    assert weight_f(Fraction(1), 3) == DyadicRational(1, 3)
    assert weight_h(Fraction(1), 3) == DyadicRational(0, 0)
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
    assert qx + question_mark(1 - x) == DyadicRational(1, 0)
    assert question_mark(x / (x + 1)) == qx.halved()


@settings(max_examples=300, deadline=None)
@given(rationals())
def test_telescoping_and_nonnegativity(x):
    hs = h_values(x)
    assert all(h.num >= 0 for h in hs)
    total = sum((h.as_fraction() for h in hs), Fraction(0))
    assert total == 1 - question_mark(x).as_fraction()


def test_h_values_match_the_weight_definition():
    # h_l = f_l - 2 f_(l+1) through weight_h, on every x = p/q with q <= 60
    for q in range(2, 61):
        for p in range(1, q):
            x = Fraction(p, q)
            hs = h_values(x)
            assert hs == [weight_h(x, ell) for ell in range(len(hs))]
            assert weight_f(x, len(hs)) == DyadicRational(0, 0)


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
    assert hs == [DyadicRational(0, 0)] * k + [DyadicRational(1, k)]
    for ell in (0, 1, k - 1, k):
        assert hs[ell] == weight_h(x, ell)
    assert hs[k].as_fraction() == 1 - question_mark(x).as_fraction()


def test_monotonicity_on_sorted_sample():
    rng = random.Random(31)
    xs = sorted({Fraction(rng.randint(1, 9999), 10_000) for _ in range(300)})
    vals = [question_mark(x).as_fraction() for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
