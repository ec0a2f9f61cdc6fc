"""Farey-tree generations and the exact finite-n moment sums.

Generation n consists of the rationals [0; a1, ..., as] whose digit sum
a1 + ... + as equals n (all a_i >= 1, a_s >= 2).  There are exactly
2^(n-2) of them for n >= 2, all distinct, and the generation is closed
under x -> 1 - x.  Generation 2 is {1/2}, and the children of p/q in the
next generation are p/(p+q) and q/(p+q) (adding 1 to the first digit, or
prepending a digit 1).  The finite-n moment is

    farey_moment(L, n) = 2^(2-n) * sum over the generation of x^L,

computed exactly: the generation is grown level by level as integer
arrays, numerators are summed per denominator (at most F_(n+1) of them),
and those sums are added by one pairwise tree over lcm denominators.

`grow` is the one enumerator of the package's exact tree sums: it serves
the Farey tree here (fanout 2) and the digit-sum oracle of `moments`
(fanout B - 1, one child per digit b in [2, B]), holding at most _CHUNK
entries per array at once.  Farey denominators are at most F_27 = 196418,
and the oracle's continuants stay below 2^53 under its tuple cap, so its
float64 num / den is the correctly rounded quotient Python computes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .errors import DomainError, ResourceLimitError

__all__ = ["farey_generation", "farey_moment", "FAREY_MAX_N"]

FAREY_MAX_N = 26

# entries that `grow` holds per array at once
_CHUNK = 1 << 15


def _check_n(n: int):
    if n < 2:
        raise DomainError(f"generation index must be >= 2, got {n}")
    if n > FAREY_MAX_N:
        raise ResourceLimitError(f"generation index capped at {FAREY_MAX_N}, got {n}")


def grow(state: tuple, children, fanout: int, depth: int):
    """Yield the tree level `depth` below `state` in chunks of at most _CHUNK entries.

    `state` is a tuple of equal-length int64 arrays, one entry per node;
    `children(state)` is the next level, `fanout` <= _CHUNK times as long.
    Whole levels grow while the next fits in a chunk, then slices of
    _CHUNK // fanout entries grow on their own.
    """
    while depth and state[0].size * fanout <= _CHUNK:
        state = children(state)
        depth -= 1
    if not depth:
        yield state
        return
    step = _CHUNK // fanout
    for i in range(0, state[0].size, step):
        yield from grow(children(tuple(a[i : i + step] for a in state)), children, fanout, depth - 1)


def _farey_children(state):
    """p/q -> p/(p+q) and q/(p+q)."""
    p, q = state
    s = p + q
    return np.concatenate((p, q)), np.concatenate((s, s))


def _leaf_chunks(n: int):
    """Generation n as int64 (p, q) arrays of at most _CHUNK leaves."""
    root = (np.array([1], dtype=np.int64), np.array([2], dtype=np.int64))
    return grow(root, _farey_children, 2, n - 2)


def _max_denominator(n: int) -> int:
    """F_(n+1), the largest denominator in generation n (that of [0; 1, ..., 1, 2])."""
    a, b = 1, 2
    for _ in range(n - 2):
        a, b = b, a + b
    return b


def farey_generation(n: int) -> list[Fraction]:
    """All fractions of generation n, exactly 2^(n-2) of them."""
    _check_n(n)
    return [
        Fraction(a, b)
        for p, q in _leaf_chunks(n)
        for a, b in zip(p.tolist(), q.tolist())
    ]


def farey_moment(L: int, n: int) -> Fraction:
    """Exact value of 2^(2-n) * sum_{generation n} x^L.

    S_q = sum of p^L over the leaves p/q is accumulated per denominator.
    Every leaf has p < q <= q_max, so the whole sum of p^L is below
    2^(n-2) (q_max - 1)^L; where that bound is under 2^63 the powers and
    sums are int64, otherwise Python ints (object arrays).  The S_q / q^L
    are then added by one pairwise tree of integer pairs (N, D) for N / D^L:
    with g = gcd(D1, D2), N1 / D1^L + N2 / D2^L = (N1 (D2/g)^L + N2 (D1/g)^L)
    / (D1/g D2)^L exactly, so each D is the lcm of the q below it, no partial
    sum is reduced, and the one Fraction at the end reduces the result once.
    """
    if L < 1:
        raise DomainError(f"moment order must be >= 1, got {L}")
    _check_n(n)
    q_max = _max_denominator(n)
    fits = (1 << (n - 2)) * (q_max - 1) ** L < 1 << 63
    dtype = np.int64 if fits else object
    sums = np.zeros(q_max + 1, dtype=dtype)
    for p, q in _leaf_chunks(n):
        np.add.at(sums, q, p.astype(dtype) ** L)
    qs = np.flatnonzero(sums)
    pairs = list(zip(sums[qs].tolist(), qs.tolist()))
    while len(pairs) > 1:
        merged = []
        for (n1, d1), (n2, d2) in zip(pairs[::2], pairs[1::2]):
            g = gcd(d1, d2)
            merged.append((n1 * (d2 // g) ** L + n2 * (d1 // g) ** L, d1 // g * d2))
        pairs = merged + pairs[len(merged) * 2 :]
    N, D = pairs[0]
    return Fraction(N, D**L << (n - 2))
