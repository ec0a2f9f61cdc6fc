"""Farey-tree generations and the exact finite-n moment sums.

Generation n consists of the rationals [0; a1, ..., as] whose digit sum
a1 + ... + as equals n (all a_i >= 1, a_s >= 2).  There are exactly
2^(n-2) of them for n >= 2, all distinct, and the generation is closed
under x -> 1 - x.  Generation 2 is {1/2}, and the children of p/q in the
next generation are p/(p+q) and q/(p+q) (adding 1 to the first digit, or
prepending a digit 1).  The finite-n moment is

    farey_moment(L, n) = 2^(2-n) * sum over the generation of x^L,

computed exactly: the generation is grown level by level as integer
arrays, numerators are grouped by denominator, and the final rational sum
runs over the distinct denominators only (at most F_(n+1) of them).

`grow` is the one enumerator of the package's exact tree sums: it serves
the Farey tree here (fanout 2) and the digit-sum oracle of `moments`
(fanout B - 1, one child per digit b in [2, B]), holding at most _CHUNK
entries per array at once.  Farey denominators are at most F_27 = 196418,
and the oracle's continuants stay below 2^53 under its tuple cap, so its
float64 num / den is the correctly rounded quotient Python computes.
"""

from __future__ import annotations

from fractions import Fraction

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


def _tree_fraction_sum(terms: list[Fraction]) -> Fraction:
    """Pairwise (tree) reduction; keeps intermediate denominators small."""
    if not terms:
        return Fraction(0)
    while len(terms) > 1:
        terms = [
            terms[i] + terms[i + 1] if i + 1 < len(terms) else terms[i]
            for i in range(0, len(terms), 2)
        ]
    return terms[0]


def farey_moment(L: int, n: int) -> Fraction:
    """Exact value of 2^(2-n) * sum_{generation n} x^L.

    S_q = sum of p^L over the leaves p/q is accumulated per denominator.
    Every leaf has p < q <= q_max, so the whole sum of p^L is below
    2^(n-2) (q_max - 1)^L; where that bound is under 2^63 the powers and
    sums are int64, otherwise Python ints (object arrays).  Either way the
    arithmetic is exact.
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
    terms = [Fraction(s, q**L) for q, s in zip(qs.tolist(), sums[qs].tolist())]
    return Fraction(1, 1 << (n - 2)) * _tree_fraction_sum(terms)
