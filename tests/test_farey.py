"""Farey-tree generations and exact finite-n moments."""

import copy
import hashlib
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from minkqm import farey
from minkqm.errors import DomainError, ResourceLimitError
from minkqm.farey import farey_generation, farey_moment
from minkqm.moments import a_partial_direct


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
        for L in (*range(1, 9), 13, 20, *((40, 100) if n <= 12 else ())):
            want = sum((x**L for x in gen), Fraction(0)) / 2 ** (n - 2)
            assert farey_moment(L, n) == want, (L, n)
    # one lcm-tree plan per n, and no more than the bound of them
    info = farey._lcm_plan.cache_info()
    assert info.maxsize == farey._PLANS and info.currsize <= farey._PLANS


def test_moments_satisfy_reflection_identity_across_chunks():
    # x -> 1 - x maps the generation onto itself, so F_L = sum_k C(L,k) (-1)^k F_k;
    # generation 20 is 64 default chunks, and L = 1..8 take 1 to 4 limbs
    n = 20
    F = [Fraction(1)] + [farey_moment(L, n) for L in range(1, 9)]
    for L in range(1, 9):
        assert sum(comb(L, k) * (-1) ** k * F[k] for k in range(L + 1)) == F[L], L


# SHA-256 over farey_moment(L, n), n = 2..20, L in {1..8, 13, 20}, recorded
# when the p^L were summed as int64 or Python-int object arrays
MOMENTS_DIGEST = "0ebf8027e9cbcacd53cc5b85420fbd920ea254348e9bc236ec2ed4d431880409"


def test_moments_are_pinned(monkeypatch):
    # from no plan at all, under both chunk sizes: with n as the outer loop
    # the calls reuse each plan, with L outer every n evicts a plan and
    # each call rebuilds its own
    keys = [(L, n) for n in range(2, 21) for L in (*range(1, 9), 13, 20)]
    for chunk in (farey._CHUNK, 64):
        monkeypatch.setattr(farey, "_CHUNK", chunk)
        for order, calls in (("n outer", keys), ("L outer", sorted(keys))):
            farey._lcm_plan.cache_clear()
            got = {key: farey_moment(*key) for key in calls}
            h = hashlib.sha256()
            for L, n in keys:
                x = got[L, n]
                h.update(f"{L} {n} {x.numerator:x}/{x.denominator:x}\n".encode())
            assert h.hexdigest() == MOMENTS_DIGEST, (chunk, order)


def test_a_call_leaves_the_plan_as_it_was():
    farey_moment(3, 16)
    plan = copy.deepcopy(farey._lcm_plan(16))
    farey_moment(20, 16)
    assert farey._lcm_plan(16) == plan


def traced_peak(fn, *args) -> int:
    """Bytes of the traced peak of one call, above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# one int64 or float64 array of a block of 2^12 entries
BLOCK_BYTES = 8 * 2**12


def test_the_exact_sums_hold_a_few_blocks_at_once():
    # blocks of 2^15 entries peaked at 3113 KB in the oracle and 3380 KB here,
    # blocks of 2^12 at 667 KB and 1726 KB (Python 3.11)
    assert traced_peak(a_partial_direct, 2, 4, 28) < 24 * BLOCK_BYTES
    farey_moment(7, 20)  # builds the plan
    q_max, bits = farey._farey_limbs(7, 20)
    tables = 8 * farey._limb_count(7 * bits) * (2 * q_max + 1)  # the p^L limbs and their sums
    # the blocks on top of the tables also hold the Python ints the sums end
    # in: 32 blocks' worth while limb_sums zipped column lists, 23 in place
    assert traced_peak(farey_moment, 7, 20) < tables + 28 * BLOCK_BYTES

def limb_value(limbs):
    return [sum(int(c) << (farey.LIMB * k) for k, c in enumerate(col)) for col in limbs.T]


def test_limb_power_matches_pow():
    # numerators below F_27 = 196418 have 18 bits, so each step multiplies by p
    # itself (j = 1), which only n >= 25 reaches; 14 bits (n = 20) take p^2 per step
    for bits, top in ((18, 196417), (14, 10945)):
        p = np.array([0, 1, 2, 3, *range(top - 40, top + 1)], dtype=np.int64)
        for L in range(1, 41):
            limbs = farey._limb_power(p, L, bits)
            assert ((0 <= limbs) & (limbs <= farey.LIMB_MASK)).all()
            assert limb_value(limbs) == [x**L for x in p.tolist()], (bits, L)


def test_limb_table_is_capped_before_it_is_allocated():
    # at n = 20, p < q_max = F_21 = 10946 has 14 bits: ceil(14 L / 28) limbs for
    # each of the 2 q_max + 1 table entries, and 1532 limbs fit in 2^25, 1533 not
    assert farey._farey_limbs(3064, 20) == (10946, 14)
    with pytest.raises(ResourceLimitError):
        farey._farey_limbs(3065, 20)
    assert farey._farey_limbs(100, 26) == (196418, 18)


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
