"""Continued-fraction kernels: everything here is exact rational arithmetic."""

import random
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkqm.contfrac import (
    AngleForm,
    _K_MAX,
    RegularCF,
    SemiRegularCF,
    _ramharter_stream,
    angle_from_semiregular,
    eval_angle,
    eval_regular,
    eval_semiregular,
    parse_cf,
    regular_expand,
    regular_to_semiregular,
    semiregular_expand,
)
from minkqm.errors import DomainError, MalformedExpansionError, NeedsMoreDigitsError, ResourceLimitError


def rationals(qmax=10_000):
    return st.builds(
        lambda q, k: Fraction(1 + k % (q - 1), q), st.integers(2, qmax), st.integers(0, 10**9)
    )


# -- regular ------------------------------------------------------------------


def test_regular_expand_examples():
    assert regular_expand(Fraction(1, 2)).digits == (2,)
    assert regular_expand(Fraction(3, 7)).digits == (2, 3)
    assert regular_expand(Fraction(2, 5)).digits == (2, 2)


def test_eval_regular_examples():
    assert eval_regular(RegularCF((2,))) == Fraction(1, 2)
    assert eval_regular(RegularCF((2, 3))) == Fraction(3, 7)
    assert eval_regular(RegularCF((1, 1, 2))) == Fraction(3, 5)


def test_regular_domain_and_empty():
    for bad in (Fraction(0), Fraction(1), Fraction(7, 5), Fraction(-1, 3)):
        with pytest.raises(DomainError):
            regular_expand(bad)
    with pytest.raises(MalformedExpansionError):
        eval_regular(RegularCF(()))
    with pytest.raises(DomainError):
        RegularCF((2, 0, 3))


def test_canonicalization_merges_trailing_one():
    assert RegularCF((2, 2, 1)).canonical().digits == (2, 3)
    assert RegularCF((2, 3)).canonical().digits == (2, 3)


@settings(max_examples=300, deadline=None)
@given(rationals())
def test_regular_round_trip(x):
    cf = regular_expand(x)
    assert eval_regular(cf) == x
    assert cf.digits[-1] >= 2


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=8))
def test_eval_then_expand_canonicalizes(digits):
    digits[-1] = max(2, digits[-1])
    cf = RegularCF(tuple(digits))
    assert regular_expand(eval_regular(cf)) == cf.canonical()


# -- semi-regular -------------------------------------------------------------


def test_semiregular_expand_examples():
    assert semiregular_expand(Fraction(1, 2)).digits == (2,)
    assert semiregular_expand(Fraction(3, 7)).digits == (3, 2, 2)
    assert semiregular_expand(Fraction(2, 3)).digits == (2, 2)


def test_eval_semiregular_examples():
    assert eval_semiregular(SemiRegularCF((2,))) == Fraction(1, 2)
    assert eval_semiregular(SemiRegularCF((3, 2, 2))) == Fraction(3, 7)
    assert eval_semiregular(SemiRegularCF((2, 2, 2))) == Fraction(3, 4)


def test_unit_marker():
    u = semiregular_expand(Fraction(1))
    assert u.unit and eval_semiregular(u) == 1
    assert u.digits == () and str(u) == "[[2,2,2,...]]"
    with pytest.raises(DomainError):
        SemiRegularCF((2,), unit=True)


def test_all_two_runs_give_k_over_k_plus_one():
    for k in range(1, 65):
        assert eval_semiregular((2,) * k) == Fraction(k, k + 1)


def test_malformed_zero_denominator():
    with pytest.raises(MalformedExpansionError):
        eval_semiregular((1, 1))
    with pytest.raises(MalformedExpansionError):
        eval_semiregular(())


def _fraction_recurrence(digits, sign):
    # t <- 1/(a + sign t) over Fractions, the backward recurrence the
    # integer-pair evaluation replaces
    t = Fraction(0)
    for a in reversed(digits):
        t = 1 / (a + sign * t)
    return t


def test_integer_pair_evaluation_matches_the_fraction_recurrence():
    rng = random.Random(3)
    for _ in range(400):
        k = rng.randint(1, 30)
        regular = [rng.randint(1, 60) for _ in range(k)]
        semi = [rng.choice((2, 2, 2, rng.randint(2, 60))) for _ in range(k)]
        for tail in ([], [1]):  # a trailing 1 is tolerated by both kinds
            assert eval_regular(regular + tail) == _fraction_recurrence(regular + tail, 1)
            assert eval_semiregular(semi + tail) == _fraction_recurrence(semi + tail, -1)
        entries = [Fraction(1, semi[0])] + [Fraction(1, a * b) for a, b in zip(semi, semi[1:])]
        t = entries[-1]
        for d in reversed(entries[:-1]):
            t = d / (1 - t)
        assert eval_angle(entries) == t
    assert eval_regular(RegularCF((2, 2, 1))) == Fraction(3, 7) == eval_regular((2, 3))


def test_zero_denominator_in_integer_pair_evaluation():
    # 1 + (-1) = 0 and 0 + 0 = 0 for unvalidated digit sequences
    for digits in ((3, 1, -1), (2, 0), (0,)):
        with pytest.raises(MalformedExpansionError):
            eval_regular(digits)
    # [[..., 1, 1]]: the inner 1 - 1/1 vanishes
    for digits in ((2, 1, 1), (3, 2, 2, 1, 1)):
        with pytest.raises(MalformedExpansionError):
            eval_semiregular(digits)


@settings(max_examples=300, deadline=None)
@given(rationals())
def test_semiregular_round_trip(x):
    cf = semiregular_expand(x)
    assert eval_semiregular(cf) == x
    assert all(b >= 2 for b in cf.digits)


# -- Ramharter conversion -----------------------------------------------------


def test_convert_examples():
    assert regular_to_semiregular(RegularCF((2, 3)), 3).digits == (3, 2, 2)
    assert regular_to_semiregular([1] * 8, 4).digits == (2, 3, 3, 3)
    assert regular_to_semiregular(RegularCF((2,)), 3).digits == (3, 2, 2)


def test_convert_padding_converges_to_value():
    # finite [0;2] maps to the infinite twin of 1/2; prefixes approach 1/2
    errs = []
    for K in (2, 6, 12, 24):
        val = eval_semiregular(regular_to_semiregular(RegularCF((2,)), K))
        errs.append(abs(val - Fraction(1, 2)))
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_convert_golden_ratio_prefixes():
    # all-ones digits map to [[2,3,3,3,...]]; values approach (sqrt(5)-1)/2
    val = eval_semiregular(regular_to_semiregular([1] * 40, 20))
    assert abs(float(val) - 0.6180339887498949) < 1e-12


def test_convert_needs_more_digits():
    with pytest.raises(NeedsMoreDigitsError):
        regular_to_semiregular(RegularCF((2, 3)), 4)
    with pytest.raises(DomainError):
        regular_to_semiregular(RegularCF((2, 3)), 0)


def test_ramharter_stream_matches_the_closed_form():
    # [0; a1, a2, a3, ...] -> [[a1 + 1, 2_(a2-1), a3 + 2, 2_(a4-1), ...]]; an
    # odd-length input goes on with twos (the infinite twin), an even-length one stops
    for k in range(6):
        for digits in product(range(1, 5), repeat=k):
            closed = []
            for i, a in enumerate(digits):
                closed += [2] * (a - 1) if i % 2 else [a + (2 if i else 1)]
            if k % 2:
                assert list(islice(_ramharter_stream(digits), len(closed) + 7)) == closed + [2] * 7
                assert regular_to_semiregular(digits, len(closed) + 7).digits == tuple(closed + [2] * 7)
            else:
                assert list(_ramharter_stream(digits)) == closed
                if closed:
                    assert regular_to_semiregular(digits, len(closed)).digits == tuple(closed)
                with pytest.raises(NeedsMoreDigitsError):
                    regular_to_semiregular(digits, len(closed) + 1)


def test_semiregular_expand_past_the_digit_cap_is_a_resource_limit():
    p = _K_MAX  # p/(p + 1) = [[2_p]]
    assert semiregular_expand(Fraction(p, p + 1)).digits == (2,) * p
    with pytest.raises(ResourceLimitError):
        semiregular_expand(Fraction(p + 1, p + 2))


def test_convert_even_ending_is_exact_finite_expansion():
    # inputs ending on an even digit position map onto the finite expansion
    for x in (Fraction(3, 7), Fraction(5, 12), Fraction(8, 11)):
        digits = regular_expand(x)
        if len(digits.digits) % 2 == 0:
            k = len(semiregular_expand(x).digits)
            assert eval_semiregular(regular_to_semiregular(digits, k)) == x


# -- equivalence transformation -------------------------------------------------


def test_angle_examples():
    assert eval_angle(AngleForm((Fraction(1, 2),))) == Fraction(1, 2)
    assert eval_angle(AngleForm((Fraction(1, 3), Fraction(1, 6), Fraction(1, 4)))) == Fraction(3, 7)
    d = Fraction(2, 7)
    assert eval_angle(AngleForm((Fraction(1), d))) == 1 / (1 - d)


def test_angle_from_semiregular_entries():
    a = angle_from_semiregular((3, 2, 2))
    assert a.entries == (Fraction(1, 3), Fraction(1, 6), Fraction(1, 4))


def test_angle_matches_semiregular_exhaustively():
    for k in range(1, 5):
        for digits in product(range(2, 7), repeat=k):
            assert eval_angle(angle_from_semiregular(digits)) == eval_semiregular(digits)


def test_angle_validation_and_malformed():
    with pytest.raises(DomainError):
        AngleForm((Fraction(3, 2),))
    with pytest.raises(MalformedExpansionError):
        eval_angle((Fraction(1, 2), Fraction(1)))  # inner 1 - 1 = 0


# -- text forms ------------------------------------------------------------------


def test_text_round_trip():
    for text in ("[0;2,3]", "[0;1,1,2]", "[[3,2,2]]", "[[2]]"):
        assert str(parse_cf(text)) == text
    with pytest.raises(DomainError):
        parse_cf("[1;2,3]")
