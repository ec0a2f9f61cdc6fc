"""Farey-tree generations and exact finite-n moments."""

from fractions import Fraction
from math import comb

import pytest

from minkqm import farey
from minkqm.errors import DomainError, ResourceLimitError
from minkqm.farey import farey_generation, farey_moment


def compositions(n):
    if n == 0:
        yield ()
        return
    for a in range(1, n + 1):
        for rest in compositions(n - a):
            yield (a,) + rest


def brute_generation(n):
    """[0; a1, ..., as] for every composition of n with last part >= 2."""
    gen = []
    for digits in compositions(n):
        if digits[-1] >= 2:
            x = Fraction(0)
            for a in reversed(digits):
                x = 1 / (a + x)
            gen.append(x)
    return gen


# the default chunk holds all of generation 14; 64 leaves split it from n = 9 on
@pytest.fixture(params=[None, 64], ids=["one-chunk", "chunk-64"])
def chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(farey, "_CHUNK", request.param)


def test_moments_match_brute_force_enumeration(chunk):
    for n in range(2, 15):
        gen = brute_generation(n)
        for L in (*range(1, 9), 13, 20):
            want = sum((x**L for x in gen), Fraction(0)) / 2 ** (n - 2)
            assert farey_moment(L, n) == want, (L, n)


def test_moments_satisfy_reflection_identity_across_chunks():
    # x -> 1 - x maps the generation onto itself, so F_L = sum_k C(L,k) (-1)^k F_k;
    # generation 20 is 8 default chunks, and L >= 4 sums object arrays
    n = 20
    F = [Fraction(1)] + [farey_moment(L, n) for L in range(1, 9)]
    for L in range(1, 9):
        assert sum(comb(L, k) * (-1) ** k * F[k] for k in range(L + 1)) == F[L], L


def test_generation_matches_brute_force_enumeration(chunk):
    for n in range(2, 15):
        gen = farey_generation(n)
        assert len(gen) == 1 << (n - 2)
        assert set(gen) == set(brute_generation(n))
        assert all(p.size <= farey._CHUNK for p, _ in farey._leaf_chunks(n))


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
    # below the domain is a domain error; only past the cap is a resource limit
    for bad, error in ((1, DomainError), (27, ResourceLimitError)):
        with pytest.raises(error):
            farey_generation(bad)
        with pytest.raises(error):
            farey_moment(1, bad)
    with pytest.raises(DomainError):
        farey_moment(0, 5)
