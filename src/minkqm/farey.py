"""Farey-tree generations and the exact finite-n moment sums.

Generation n consists of the rationals [0; a1, ..., as] whose digit sum
a1 + ... + as equals n (all a_i >= 1, a_s >= 2).  There are exactly
2^(n-2) of them for n >= 2, all distinct, and the generation is closed
under x -> 1 - x.  The finite-n moment is

    farey_moment(L, n) = 2^(2-n) * sum over the generation of x^L,

computed exactly: numerators are grouped by denominator so the final
rational sum runs over at most a few tens of thousands of terms even
though the generation itself is exponentially large.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ResourceLimitError

__all__ = ["farey_generation", "farey_moment", "FAREY_MAX_N"]

FAREY_MAX_N = 26


def _check_n(n: int):
    if not (2 <= n <= FAREY_MAX_N):
        raise ResourceLimitError(f"generation index must lie in [2, {FAREY_MAX_N}], got {n}")


def _iter_leaves(n: int):
    """Yield (p, q) for every composition leaf, via convergent DFS.

    Stack frames carry (remaining, p_prev, q_prev, p, q); appending digit a
    maps (p, q) -> (a*p + p_prev, a*q + q_prev).
    """
    stack = [(n, 1, 0, 0, 1)]
    while stack:
        rem, pp, qp, p, q = stack.pop()
        # a == rem closes the composition and must be >= 2
        if rem >= 2:
            yield (rem * p + pp, rem * q + qp)
        for a in range(1, rem):
            stack.append((rem - a, p, q, a * p + pp, a * q + qp))


def farey_generation(n: int) -> list[Fraction]:
    """All fractions of generation n, exactly 2^(n-2) of them."""
    _check_n(n)
    return [Fraction(p, q) for p, q in _iter_leaves(n)]


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
    """Exact value of 2^(2-n) * sum_{generation n} x^L."""
    if L < 1:
        raise ResourceLimitError(f"moment order must be >= 1, got {L}")
    _check_n(n)
    sums: dict[int, int] = {}
    for p, q in _iter_leaves(n):
        sums[q] = sums.get(q, 0) + p**L
    terms = [Fraction(s, q**L) for q, s in sorted(sums.items())]
    return Fraction(1, 1 << (n - 2)) * _tree_fraction_sum(terms)
