"""Farey-tree generations and exact finite-n moments."""

from fractions import Fraction

import pytest

from minkqm.errors import ResourceLimitError
from minkqm.farey import farey_generation, farey_moment


def test_generation_examples():
    assert farey_generation(2) == [Fraction(1, 2)]
    assert set(farey_generation(3)) == {Fraction(1, 3), Fraction(2, 3)}
    assert set(farey_generation(4)) == {
        Fraction(1, 4),
        Fraction(3, 4),
        Fraction(2, 5),
        Fraction(3, 5),
    }


def test_generation_counts_distinct_and_bounded():
    for n in range(2, 15):
        gen = farey_generation(n)
        assert len(gen) == 1 << (n - 2)
        assert len(set(gen)) == len(gen)
        assert all(0 < x < 1 for x in gen)


def test_generation_symmetric_under_reflection():
    for n in range(3, 12):
        gen = set(farey_generation(n))
        assert {1 - x for x in gen} == gen


def test_moment_examples():
    assert farey_moment(1, 2) == Fraction(1, 2)
    assert farey_moment(1, 4) == Fraction(1, 2)
    assert farey_moment(2, 4) == Fraction(229, 800)


def test_resource_limits():
    for bad in (1, 27):
        with pytest.raises(ResourceLimitError):
            farey_generation(bad)
        with pytest.raises(ResourceLimitError):
            farey_moment(1, bad)
    with pytest.raises(ResourceLimitError):
        farey_moment(0, 5)
