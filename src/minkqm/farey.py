"""Farey-tree generations and the exact finite-n moment sums.

Generation n consists of the rationals [0; a1, ..., as] whose digit sum
a1 + ... + as equals n (all a_i >= 1, a_s >= 2).  There are exactly
2^(n-2) of them for n >= 2, all distinct, and the generation is closed
under x -> 1 - x.  Generation 2 is {1/2}, and the children of p/q in the
next generation are p/(p+q) and q/(p+q) (adding 1 to the first digit, or
prepending a digit 1).  The finite-n moment is

    farey_moment(L, n) = 2^(2-n) * sum over the generation of x^L,

computed exactly: the generation's parents are grown level by level as
integer arrays, the p^L are summed per denominator (at most F_(n+1) of
them) in int64 limbs, and those sums are added by one pairwise tree over
lcm denominators.

`grow` is the one enumerator of the package's exact tree sums, and
`limb_sums` the one exact accumulator: they serve the Farey tree here
(fanout 2) and the digit-sum oracle of `moments` (fanout B - 1, one child
per digit b in [2, B]), holding blocks of at most _CHUNK = 2^12 entries,
32 KB per int64 array, so that a block's arrays stay in cache and few fresh
pages are faulted in per block; one parent of more children, as the
oracle's B - 1 <= 2^15 digits, is a block of its own.  `grow` stops one
level above the leaves and yields blocks of parents; each caller forms the
leaves of a block itself, in the shape it needs, so no leaf level is
concatenated or tiled.  Farey denominators are at most F_27 = 196418, and
the oracle's continuants stay below 2^53 under its tuple cap, so its
float64 num / den is the correctly rounded quotient Python computes.

`limb_sums` holds an integer as base-2^28 limbs in int64 columns.  Both
children p/(p+q) and q/(p+q) of a Farey parent share one denominator, so
the Farey sums add p^L + q^L once per parent: limbs below 2^29, at most
2^23 of them at n = 26.  The oracle adds float mantissas with limbs below
2^28, at most _TUPLE_CAP = 2.5e7 < 2^25 of them.  Either way every column
sum stays below 2^53, far inside int64, and np.add.at adds exactly.  Here
the limbs of p^L come from repeated int64 multiplies by p^j < 2^34 that
stay below 2^63 (see _limb_power), and the lcm tree takes the denominators
in order of their largest prime factor, which keeps its intermediate lcms
small (see farey_moment).

The lcm tree does not depend on L, so each generation's is built once and
kept as a plan: the tree order of the denominators, the cofactors of every
merge and the lcm D of them all.  `_lcm_plan` holds the plans in a
functools.lru_cache keyed by n, at most _PLANS = 4 of them, each of
tuples of Python ints, read only.  A plan is 0.58 / 1.53 / 4.06 MB at
n = 20 / 22 / 24 (tracemalloc), so four of them stay below 20 MB for
n <= 26.  A call then does only what L changes: the p^L limb sums, the
numerator of every merge and one final Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .errors import DomainError, ResourceLimitError

__all__ = ["farey_generation", "farey_moment", "FAREY_MAX_N"]

FAREY_MAX_N = 26
# int64 entries farey_moment may hold: its p^L limb table and its per-denominator
# limb sums (2^25 entries are 256 MB; L = 100 at n = 26 needs 2.6e7)
FAREY_MAX_LIMB_ENTRIES = 1 << 25

# entries that `grow` holds per array at once: the benchmark's `moment-routes`
# peaked at 40.65 MB with blocks of 2^15 and 38.65 / 38.46 / 38.49 / 38.96 MB
# with 2^10 / 2^11 / 2^12 / 2^13, and 2^11 ran its passes 4-15% slower than
# 2^12 (2-CPU Xeon)
_CHUNK = 1 << 12

# lcm-tree plans held at once, one per generation n (see _lcm_plan)
_PLANS = 4

LIMB = 28  # bits per limb of `limb_sums`
LIMB_MASK = (1 << LIMB) - 1


def _check_n(n: int):
    if n < 2:
        raise DomainError(f"generation index must be >= 2, got {n}")
    if n > FAREY_MAX_N:
        raise ResourceLimitError(f"generation index capped at {FAREY_MAX_N}, got {n}")


def grow(state: tuple, children, fanout: int, depth: int):
    """Yield the parents of the tree level `depth` >= 1 below `state`, in
    blocks of at most max(1, _CHUNK // fanout) entries.

    `state` is a tuple of equal-length int64 arrays, one entry per node;
    `children(state)` is the next level, `fanout` times as long.  A caller
    forms a block's children itself, in the shape it needs, so no level
    below the parents is ever grown here, and the children of one block fit
    in _CHUNK entries unless one parent has more children than that: such a
    parent is a block of its own.  Whole levels grow while the next fits in
    _CHUNK entries, then slices of one block each grow on their own.
    """
    step = max(1, _CHUNK // fanout)
    while depth > 1 and state[0].size * fanout <= _CHUNK:
        state = children(state)
        depth -= 1
    for i in range(0, state[0].size, step):
        block = tuple(a[i : i + step] for a in state)
        if depth == 1:
            yield block
        else:
            yield from grow(children(block), children, fanout, depth - 1)


def limb_sums(chunks, size: int) -> tuple[np.ndarray, list[int]]:
    """Exact sums per index of integers given in base-2^LIMB limbs.

    `chunks` yields (index, limbs): an int64 index array with entries in
    [0, size), and an iterable of int64 arrays of the same length, least
    significant limb first, for the integers sum_k limbs[k] << (LIMB k).
    Limb k of every chunk is added into column k per index by np.add.at,
    which is exact while every column sum stays inside int64.  Each limb
    is below 2^29 in absolute value and at most 2^24 integers are added
    (the Farey sums p^L + q^L), or each limb is below 2^28 and at most 2^25
    integers are added (the oracle's float mantissas), so every column sum
    stays below 2^53.  Returns the indices where some column is nonzero, in
    increasing order, and the exact sum at each.
    """
    cols = []
    for index, limbs in chunks:
        for k, limb in enumerate(limbs):
            if k == len(cols):
                cols.append(np.zeros(size, dtype=np.int64))
            np.add.at(cols[k], index, limb)
    hit = np.flatnonzero(np.any([col != 0 for col in cols], axis=0))
    total = cols[-1][hit].tolist()
    for col in reversed(cols[:-1]):  # in place, so one column list lives beside the totals
        for i, c in enumerate(col[hit].tolist()):
            total[i] = (total[i] << LIMB) + c
    return hit, total


def _limb_count(bits: int) -> int:
    """Limbs that hold every integer below 2^bits."""
    return -(-bits // LIMB)


def _limb_power(p: np.ndarray, L: int, bits: int) -> np.ndarray:
    """p^L as base-2^LIMB limbs, one row per limb, for int64 0 <= p < 2^bits.

    p^L < 2^(L bits) fits in ceil(L bits / LIMB) limbs.  Each step multiplies
    by p^j, j = max(1, (62 - LIMB) // bits), so p^j < 2^34; a limb is below
    2^28 and the carry into it below 2^34 + 1, so limb * p^j + carry stays
    below 2^62 + 2^35 < 2^63 in int64.
    """
    j = max(1, (62 - LIMB) // bits)
    limbs = np.zeros((_limb_count(L * bits), p.size), dtype=np.int64)
    limbs[0] = 1
    done = 0
    while done < L:
        e = min(j, L - done)
        pe = p**e
        done += e
        carry = 0
        for k in range(_limb_count(done * bits)):  # the limbs p^done reaches
            t = limbs[k] * pe + carry
            limbs[k] = t & LIMB_MASK
            carry = t >> LIMB
    return limbs


def _farey_children(state):
    """p/q -> p/(p+q) and q/(p+q)."""
    p, q = state
    s = p + q
    return np.concatenate((p, q)), np.concatenate((s, s))


def _leaf_chunks(n: int):
    """Generation n as blocks (ps, s) of at most _CHUNK leaves ps[i, j] / s[j]:
    an int64 array s of denominators and one int64 row of numerators per
    sibling.

    The parents p/q of generation n - 1 come from `grow`, and both children
    p/(p+q) and q/(p+q) share the denominator p + q.  Generation 2 has no
    parent level, so its root 1/2 is its own leaf.
    """
    root = (np.array([1], dtype=np.int64), np.array([2], dtype=np.int64))
    if n == 2:
        yield root[0][None], root[1]
        return
    for p, q in grow(root, _farey_children, 2, n - 2):
        yield np.stack((p, q)), p + q


def _max_denominator(n: int) -> int:
    """F_(n+1), the largest denominator in generation n (that of [0; 1, ..., 1, 2])."""
    a, b = 1, 2
    for _ in range(n - 2):
        a, b = b, a + b
    return b


def _largest_prime_factors(m: int) -> np.ndarray:
    """The largest prime factor of each k <= m (k itself for k < 2), by a sieve."""
    r = isqrt(m)
    prime = np.ones(m + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, r + 1):
        if prime[p]:
            prime[p * p :: p] = False
    primes = np.flatnonzero(prime)
    out = np.arange(m + 1)
    for p in primes[primes <= r].tolist():  # in increasing order, so the largest writes last
        out[p::p] = p
    big = primes[primes > r]  # at most one of them divides any k <= m
    for k in range(1, r + 1):
        b = big[big <= m // k]
        out[k * b] = b
    return out


def _farey_limbs(L: int, n: int) -> tuple[int, int]:
    """(q_max, bits(q_max - 1)) for farey_moment(L, n), after checking that
    its limb table of p^L for p < q_max and its q_max + 1 limb sums fit the
    cap of FAREY_MAX_LIMB_ENTRIES."""
    if L < 1:
        raise DomainError(f"moment order must be >= 1, got {L}")
    _check_n(n)
    q_max = _max_denominator(n)
    bits = (q_max - 1).bit_length()
    entries = _limb_count(L * bits) * (2 * q_max + 1)
    if entries > FAREY_MAX_LIMB_ENTRIES:
        raise ResourceLimitError(
            f"farey moment L = {L} at n = {n} needs {entries} int64 limbs, "
            f"more than the cap {FAREY_MAX_LIMB_ENTRIES}"
        )
    return q_max, bits


def farey_generation(n: int) -> list[Fraction]:
    """All fractions of generation n, exactly 2^(n-2) of them."""
    _check_n(n)
    return [
        Fraction(a, b)
        for ps, s in _leaf_chunks(n)
        for p in ps
        for a, b in zip(p.tolist(), s.tolist())
    ]


@lru_cache(maxsize=_PLANS)
def _lcm_plan(n: int) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], int]:
    """The lcm-tree plan of generation n (see the module docstring).

    Returns (order, levels, D): `order` lists the positions, among the
    sorted denominators qs of the generation (the indices `limb_sums`
    returns), of the tree's leaves; each level holds the cofactors
    (D2/g, D1/g) of its merges, first for every left operand, then for
    every right one; D is the lcm of all qs.  See farey_moment.
    """
    seen = np.zeros(_max_denominator(n) + 1, dtype=bool)
    for _, s in _leaf_chunks(n):
        seen[s] = True
    qs = np.flatnonzero(seen)
    order = np.lexsort((qs, _largest_prime_factors(qs[-1])[qs]))
    ds = qs[order].tolist()
    levels = []
    while len(ds) > 1:
        gs = [gcd(d1, d2) for d1, d2 in zip(ds[::2], ds[1::2])]
        left = [d2 // g for d2, g in zip(ds[1::2], gs)]
        right = [d1 // g for d1, g in zip(ds[::2], gs)]
        levels.append((tuple(left), tuple(right)))
        ds = [b * d2 for b, d2 in zip(right, ds[1::2])] + ds[len(gs) * 2 :]
    return tuple(order.tolist()), tuple(levels), ds[0]


def farey_moment(L: int, n: int) -> Fraction:
    """Exact value of 2^(2-n) * sum_{generation n} x^L.

    S_q = sum of p^L over the leaves p/q is summed per denominator by
    `limb_sums`: every leaf has 1 <= p < q <= q_max, so p^L is read, as
    limbs, from one table of p^L for all p < q_max (see _limb_power).  The
    two siblings p/s and q/s of a parent p/q add p^L + q^L, limb by limb,
    as one integer with limbs below 2^29, and at most 2^23 parents keep
    each column sum below 2^52; generation 2 adds its one leaf 1/2.  The
    S_q / q^L are then added by one pairwise tree of integer pairs (N, D)
    for N / D^L: with g = gcd(D1, D2), N1 / D1^L + N2 / D2^L = (N1 (D2/g)^L
    + N2 (D1/g)^L) / (D1/g D2)^L exactly, so each D is the lcm of the q
    below it, no partial sum is reduced, and the one Fraction at the end
    reduces the result once.
    The tree's leaves are ordered by (largest prime factor of q, q): each
    prime p > sqrt(q_max) divides the lcm at most once, so denominators
    sharing their large primes become siblings, the lcm of a subtree grows
    by few new primes, and the intermediate D^L stay far smaller than in
    order of q, where every subtree spans most primes of its range.  Any
    order gives the same exact sum.  The order, the cofactors D2/g and D1/g
    and the final D depend on n alone and come from the plan `_lcm_plan(n)`.
    """
    q_max, bits = _farey_limbs(L, n)
    order, levels, D = _lcm_plan(n)
    powers = _limb_power(np.arange(q_max, dtype=np.int64), L, bits)
    _, sums = limb_sums(((s, (row[ps].sum(axis=0) for row in powers)) for ps, s in _leaf_chunks(n)), q_max + 1)
    nums = [sums[i] for i in order]
    for left, right in levels:
        merged = [n1 * a**L + n2 * b**L for n1, n2, a, b in zip(nums[::2], nums[1::2], left, right)]
        nums = merged + nums[len(merged) * 2 :]
    return Fraction(nums[0], D**L << (n - 2))
