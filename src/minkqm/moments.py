"""Moment engine: truncated transfer-matrix series and digit-sum oracles.

The series route evaluates

    V_0 = c_L,
    V_l = u . M^(l-1) . w            (l >= 1),

with M[q,q'] = c_(q+q') * C(q+q'-1, q'), u[q] = c_(L+q) * C(L+q-1, q),
w[q] = c_q, truncated to 1 <= q, q' <= Q.  The vector u is row L of the
same infinite matrix, u[q] = M[L,q], so V_l is entry L of M^l w: one chain
of cached vectors M^j w serves every L, and each V_l is one row of M (built
past Q when L > Q) dotted with M^(l-1) w.  The binomials are exact
integers, built row by row by Pascal's rule (see _rows).

With c_s = sum_{n>=2} 2^(1-n) n^-s and sum_{q'>=1} C(q+q'-1, q') n^-q' =
(1 - 1/n)^-q - 1, row q of the infinite M sums to

    sum_{n>=2} 2^(1-n) ((n-1)^-q - n^-q) = Li_q(1/2) - c_q = 1 - Li_q(1/2),

below 1/2 because Li_q(1/2) exceeds its first term 1/2; truncation only
drops positive entries, so ||M||_inf < 1/2 at every Q.  Hence (I - M)^-1 =
sum_j M^j is entrywise nonnegative with ||(I - M)^-1||_inf <= 2, V_l =
(M^l w)_L <= c_1 2^-l, and the whole l-sum is one linear system:

    m_L(Q) = sum_l V_l = c_L + u . y,    y = (I - M)^-1 w,

so y_L = m_L(Q) for L <= Q.  `moment` reads m_L(Q) off the chain's own
partial sums y~ = sum_(j<=K) M~^j w~, one sum per chain.

The Q-truncation is proven, one-sided.  The infinite vector m = (m_1, m_2,
...) solves m = w + M m, so e = m - y on q <= Q solves e = M_Q e + T with
T_q = sum_(q'>Q) M[q,q'] m_q' >= 0: e = (I - M_Q)^-1 T >= 0.  m_q =
int x^q d? decreases in q, so T <= m_(Q+1) tau with tau_q =
sum_(q'>Q) M[q,q'], and

    0 <= m_L - m_L(Q) <= m_(Q+1) z_L,    z = (I - M_Q)^-1 tau.

Past Q, m_L = c_L + sum_q M[L,q] m_q gives m_(Q+1) (tau_L + u . z) <=
m_(Q+1) (tau_L + max z / 2), u being row L of M restricted to q <= Q, which
sums to below 1/2.  The terms obey the same bound: with v_j = M^j w, the
part d_j of v_j - M_Q^j w on q <= Q obeys d_0 = 0 and d_(j+1) = M_Q d_j +
T_j with T_j <= m_(Q+1) tau, since (v_j)_q' <= m_q'; so d_j <= m_(Q+1) z and
V_l - V_l(Q) has the bound of m_L - m_L(Q).  Three upper bounds make it
computable (see _tails, _Chain.truncation and _m_bar):

- tau~ >= tau.  The terms n >= 3 of c_s are 2^-(s+1) 2^(2-n) (2/n)^s, so
  c_s <= 2^-(s+1) (1 + (2/3)^s).  The negative-binomial tail (fewer than q
  heads in q + Q fair tosses) is sum_(q'>Q) C(q+q'-1, q') 2^-(q+q') =
  2^-(q+Q) S_q with S_q = sum_(i<q) C(q+Q, i), and (2/3)^(q+q') <=
  (2/3)^a for a = q + Q + 1, so tau_q <= S_q (2^-a + 3^-a): exact in
  integers, every row from S_(q+1) = 2 S_q + C(q+Q, q) in one pass, and
  rounded up once.
- z~ >= z: the chain sum started from tau~, plus its error bound.
- m~_q >= m_q.  By reflection m_q = int (1 - x)^q d?, and ? gives mass
  2^-k to [1/(k+1), 1/k], where (1 - x)^q lies between ((k-1)/k)^q and
  (k/(k+1))^q.  So m~_q/2 <= m_q <= m~_q = sum_(k>=1) 2^-k (k/(k+1))^q,
  whose terms past k = K add at most 2^-K.

`moment` walks Q = 100, 200, .. 1600 and returns the first ball that holds
[m_L(Q), m_L(Q) + m~_(Q+1) z~_L] with the rounding radius, fits eps and
lies inside (0, 1).

Float rounding.  With u = 2^-53 and t = 2^-1074, a sum of n products of
floats, in any order, is off by at most gamma_n = n u/(1 - n u) times the
sum of the products' magnitudes, plus t for each product that underflows
(a correctly rounded product loses at most t/2 there, and a sum whose
result is subnormal is exact).  Each c_s midpoint is the float64 of an
exact fixed-point lower bound (special.c_coeff), off by its
enclosure width plus one rounding, and each entry of M adds one float
multiply by its float64 binomial; past s = 1022 entries can be subnormal.
So, entrywise,

    |M~ - M| <= rel_m M + t,    |w~ - w| <= rel_w w + t.

The chain v~_j = M~^j w~ composes the relative bounds per matvec,
rel_0 = rel_w and rel_(j+1) from rel_m, rel_j and gamma_(Q+1), and its
absolute parts obey a_0 = t and a_(j+1) <= 2.01 Q t + 0.51 a_j (Q products
that may underflow, Q entries off by t times entries below 1, and row sums
below 1/2 halving a_j), so they and the final dot product stay below
5 Q t: |v~_j - v_j| <= rel_j v_j + 5 Q t entrywise, and each V_l is off by
at most its relative bound plus 5 Q t, which v_term_partial turns into its
radius.

The same bound, summed, bounds y = sum_(j>=0) v_j.  _Chain._sum adds
v~_0 .. v~_K (v~_0 = w~ for y, tau~ for z) by Knuth's TwoSum, hi + v~_j =
hi' + e with e exact, into a float vector hi and the plain float sum lo of
the errors e, and stops at the first K that leaves hi unchanged
(K <= _K_CAP = 1000).  y~ = hi + lo,
rounded once, is off from the exact sum of the v~_j by at most u y~ for
that rounding plus gamma_K sum |e| <= 3 K^2 u^2 y~ for lo, since
|e| <= u hi, hi never decreases and hi <= 2 y~.  The chain adds
sum_(j<=K) (rel_j v_j + a_j) with v_j <= (v~_j + a_j)/(1 - rel_K), and
the tail sum_(j>K) v_j = sum_(i>=1) M^i v_K is at most |v_K|_inf
entrywise, because ||M||_inf < 1/2.  So, entrywise,

    |y~ - y| <= (R + |v~_K|_inf + F)/(1 - rel_K) + u (1 + 3 K^2 u) y~,

with R = sum_(j<=K) rel_j v~_j and F = 10 Q (K + 2) t, and _sum
evaluates it with every float operation rounded up.  This is the radius of
m_L(Q) = y_L for L <= Q, with no dot product.  Past Q, c~_L + u~ . y~ is a
positive sum of Q + 1 products, off from c_L + u . y~ by its composed
relative bound plus (2 Q + 1) t (the entries of y~ are below 1), and
u . (y - y~) adds at most sum(u) |y - y~|_inf <= |y - y~|_inf / 2 (see _m_at).

Every part of that radius only grows with Q.  rel_0 and rel_m are maxima
of the c_s bounds over s <= 2 Q, and gamma_(Q+1) grows with Q, so every
rel_j does; every exact v_j grows too, since a smaller Q only drops
positive entries of M and w.  So for L <= Q the radius at every level
Q' >= Q holds sum_(j<=K) rel_j v_(j,L) of level Q (past its own K' a level
charges v_j itself through the tail, and rel_j <= 1).  R_L overstates that
sum by less than a relative 2^-20 (the upward roundings, (1 + 4 u)^(2K+2),
and v~_j <= (1 + rel_K) v_j + a_j) plus F, so once
(1 - 2^-19) R_L - 2 F, rounded down, is above eps no level from Q on can
return a radius within eps, and `moment` stops there.  Every radius also
holds rel_w c~_L >= 2^-53 c~_L (the j = 0 term, or the relative bound of
c~_L past Q), which `moment` checks before it builds any chain.

The independent oracle is the truncated digit sum

    A_l(B) = sum over b in [2,B]^l of 2^(l - sum b) * [[b1..bl]]^L,

whose tail is at most 2*l*2^-B: a tuple escaping the cap has some b_j > B,
[[.]]^L <= 1, and sum over b_j > B of 2^(1-b_j) = 2^(1-B) while each other
coordinate sums to 1; there are l choices of j.  V_l = A_(l+1) - A_l is an
identity the acceptance suite checks, never an ingredient of the series.

The tuples are enumerated by `farey.grow`, which also grows the Farey tree,
as int64 continuant pairs (fanout B - 1).  It stops at the parents of the
last digit, and each parent block forms its last digits as one broadcast
(see _last_digit).  num < den <= b1 ... b_depth <= B^depth, and the tuple
cap (B-1)^depth <= 2.5e7 (B >= 3, depth <= 5) keeps that below 2e8 < 2^53,
so numpy's num / den is Python's correctly rounded quotient.
np.float_power calls the C pow as Python's ** does (np.power may differ by
an ulp), and a multiply by an exact power of two from a table scales by
one correct rounding, as np.ldexp does (both give 0.0 below 2^-1074), so
each term is the float Python got.  The float64 terms are then summed exactly and rounded once, as
math.fsum would: each is an integer mantissa below 2^53 times a power of
two, its two base-2^28 limbs are added per exponent by `farey.limb_sums`
(at most 2.5e7 < 2^25 terms keep every int64 column sum below 2^53), and
one int true division rounds the exact total (see _float_sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from . import farey
from .balls import PrecReal
from .errors import DomainError, PrecisionUnreachableError, ResourceLimitError
from .special import c_coeff

__all__ = [
    "MomentEstimate",
    "v_term",
    "v_term_partial",
    "a_partial_direct",
    "moment",
    "symmetry_residual",
    "h_integral_identity_check",
]

_U64 = 2.0**-53
_TINY = 2.0**-1074  # t: a rounding into the subnormal range loses at most t/2
_LADDER = (100, 200, 400, 800, 1600)  # moment's truncation levels
_Q_START, _Q_CAP = _LADDER[0], _LADDER[-1]  # v_term reads the first
_K_BAR = 160  # terms of m~_q summed; the rest add at most 2^-160
# the series order: c_s for s near L is an L-bit sum, and past Q a row
# reads c_(L+1) .. c_(L+Q); at L = 10^4 that row takes 0.16 s at Q = 1600
# from a cold c_s cache (2-CPU Xeon), and moment(2 * 10^5, 1e-8) took 1.5 s
_L_CAP = 10_000
# chains held at once: one per level of moment's ladder Q = 100 ..
# 1600, so a call that reaches the cap evicts none of the chains it built
# (one chain at the cap is 20 MB)
_CHAINS = 5
_K_CAP = 1000  # chain vectors summed per chain; the tail bound holds at any K
_TUPLE_CAP = 25_000_000
# the digits b in [2, B] appended to one oracle entry, B - 1: past farey._CHUNK
# the last digits of one parent are a block of their own
_DIGIT_CAP = 1 << 15


def _gamma(n: int) -> float:
    g = n * _U64
    return g / (1.0 - g)


def _up(x):
    """One step up from round-to-nearest results x >= 0, a float or an array
    of them: at least their exact values."""
    return math.nextafter(x, math.inf) if isinstance(x, float) else np.nextafter(x, np.inf)


def _compose_rel(*rels: float) -> float:
    """Upper bound on prod(1 + r) - 1 for relative errors r >= 0.

    With s = sum(r) <= 1, prod(1 + r) <= e^s and e^s - 1 <= s + (e - 2) s^2
    <= s (1 + s).  math.fsum rounds s correctly, so one step up covers the
    exact sum, and each later operation is rounded up the same way.
    """
    s = _up(math.fsum(rels))
    return _up(s * _up(1.0 + s))


def _radius_from_rel(value: float, rel: float, floor: float) -> float:
    """Radius about `value` covering an exact x >= 0 with
    |value - x| <= rel x + floor, rel < 1.

    Then x <= (value + floor)/(1 - rel), so rel (value + floor)/(1 - rel) +
    floor covers it; each operation is rounded up, and 1 - rel down.
    """
    r = _up(rel * _up(value + floor)) / math.nextafter(1.0 - rel, 0.0)
    return _up(_up(r) + floor)


def _rows(first: int, last: int, Q: int) -> tuple[np.ndarray, float]:
    """Float64 midpoints of rows first..last of the transfer matrix,
    truncated to Q columns, and one relative bound rel with
    |entry - exact| <= rel * exact + t/2 for every entry.  Row L is the u
    vector of V_l, so this serves L > Q too.

    The first row's binomials C(first+qp-1, qp) advance by
    *(first+qp-1) // qp along the row; each later row is Pascal's running
    sum C(q+qp, qp) = sum_{k<=qp} C(q+k-1, k) of the row before.  A row is
    then one vector multiply of float64 c_s midpoints by float64 binomials.
    Past s = q + qp = 900, c_s or the binomial can escape float64 range even
    though the product never does, so such an entry is c_s's exact lower
    end times the binomial, an integer over a power of two, rounded once by
    int true division: within u of the product, or t/2 once subnormal.
    """
    table = [c_coeff(s) for s in range(first + 1, last + Q + 1)]
    cs = np.array([mid for mid, _, _ in table])
    rel = max(r for _, r, _ in table)

    binoms = []
    binom = 1
    for qp in range(1, Q + 1):
        binom = binom * (first + qp - 1) // qp
        binoms.append(binom)
    out = np.empty((last - first + 1, Q), dtype=np.float64)
    for i in range(last - first + 1):  # row q = first + i; entry qp reads c_(q+qp) = cs[i+qp-1]
        if i:
            binoms = list(accumulate(binoms, initial=1))[1:]
        k = min(Q, max(0, 900 - first - i))  # entries with s <= 900
        out[i, :k] = cs[i:i + k] * np.array(binoms[:k], dtype=np.float64)
        for qp in range(k + 1, Q + 1):
            lo = table[i + qp - 1][2]
            out[i, qp - 1] = lo.numerator * binoms[qp - 1] / lo.denominator
    # one float multiply per entry on top of the c_s enclosure error
    return out, _compose_rel(rel, _U64, _U64)


def _tails(first: int, last: int, Q: int) -> np.ndarray:
    """tau~_q >= sum_(q'>Q) M[q,q'] for rows q = first..last: S_q (2^-a +
    3^-a) with a = q + Q + 1, one int division rounded up per row (see the
    module docstring)."""
    out, S, C = [], 0, 1  # S_q and C(q-1+Q, q-1), from q = 1
    for q in range(1, last + 1):
        S, C = 2 * S + C, C * (q + Q) // q
        if q >= first:
            a = q + Q + 1
            out.append(S * (2**a + 3**a) / 6**a)
    return _up(np.array(out))


def _m_bar(q: int) -> float:
    """m~_q >= m_q, so m~_q/2 <= m_q (see the module docstring): each term
    2^-k (k/(k+1))^q for k <= _K_BAR one int division rounded up, and
    2^-_K_BAR for the rest, summed by math.fsum and rounded up."""
    terms = [_up(k**q / ((k + 1) ** q << k)) for k in range(1, _K_BAR + 1)]
    return _up(math.fsum([*terms, 2.0**-_K_BAR]))


class _Chain:
    """Cached vectors M^j w for one truncation size Q, and their sums."""

    def __init__(self, Q: int):
        self.Q = Q
        self.mid, self.rel_m = _rows(1, Q, Q)
        table = [c_coeff(q) for q in range(1, Q + 1)]
        self.vecs = [np.array([mid for mid, _, _ in table])]
        self.rels = [max(r for _, r, _ in table)]

    def vec(self, j: int) -> tuple[np.ndarray, float]:
        while len(self.vecs) <= j:
            self.vecs.append(self.mid @ self.vecs[-1])
            self.rels.append(_compose_rel(self.rel_m, self.rels[-1], _gamma(self.Q + 1)))
        return self.vecs[j], self.rels[j]

    @cached_property
    def solution(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """_sum(w): the sum y~ that every m_L(Q) reads, its bound and least part."""
        return self._sum(self.vecs[0], self.rels[0])

    @cached_property
    def truncation(self) -> tuple[float, np.ndarray]:
        """(m~_(Q+1), z~): the two factors of the truncation bound, z~ the
        sum from the exact float start tau~ plus its bound (see the module
        docstring)."""
        z, err, _ = self._sum(_tails(1, self.Q, self.Q), 0.0)
        return _m_bar(self.Q + 1), _up(z + err)

    def _sum(self, v: np.ndarray, rel: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(y~, err, least): the compensated sum y~ of the chain vectors
        M~^j v for j <= K, from a start v within rel v + t of its exact
        vector s, a bound err >= |y~ - y| entrywise for y = (I - M)^-1 s,
        and least, below the rounding part of every radius from this level
        on (see the module docstring).

        The vectors past v are local, not cached, and from w the loop stops
        after 60 to 124 matvecs for Q = 60 .. 1600 (66, 75 and 87 at Q = 100,
        200, 400), a matvec taking about 0.1 ms at Q = 400.
        """
        hi, lo, part = v, np.zeros_like(v), _up(rel * v)  # part is R, rounded up
        for K in range(1, _K_CAP + 1):
            v, rel = self.mid @ v, _compose_rel(self.rel_m, rel, _gamma(self.Q + 1))
            s = hi + v
            b = s - hi  # TwoSum: s + e = hi + v exactly
            lo += (hi - (s - b)) + (v - b)
            part = _up(part + _up(rel * v))
            if np.array_equal(s, hi):
                break
            hi = s
        y, floor = hi + lo, 10 * self.Q * (K + 2) * _TINY
        chain_err = _up(_up(part + _up(float(v.max()) + floor)) / math.nextafter(1.0 - rel, 0.0))
        err = _up(chain_err + _up(_U64 * (1 + 3 * K * K * _U64) * y))
        return y, err, np.nextafter(part * (1 - 2.0**-19) - 2 * floor, -np.inf)


_chain = lru_cache(maxsize=_CHAINS)(_Chain)


def _row(ch: _Chain, L: int) -> tuple[np.ndarray, float]:
    """Row L of the chain's matrix, the u of V_l and m_L, built past Q when L > Q."""
    if L <= ch.Q:
        return ch.mid[L - 1], ch.rel_m
    rows, rel = _rows(L, L, ch.Q)
    return rows[0], rel


def v_term_partial(L: int, ell: int, Q: int) -> PrecReal:
    """Q-truncated V_l as a float64 midpoint whose radius covers its
    relative bound and the 5 Q t the chain may lose to underflow (see the
    module docstring); V_0 = c_L.

    Monotone nondecreasing in Q exactly (up to the radii) because every
    summand is positive.
    """
    if L < 1 or ell < 0 or Q < 1:
        raise DomainError(f"need L >= 1, ell >= 0, Q >= 1: ({L}, {ell}, {Q})")
    if Q > _Q_CAP or L > _L_CAP:
        raise ResourceLimitError(f"(L, Q) = ({L}, {Q}) passes the caps ({_L_CAP}, {_Q_CAP})")
    if ell == 0:
        value, rel, _ = c_coeff(L)
    else:
        ch = _chain(Q)
        vec, rel_v = ch.vec(ell - 1)
        u, rel_u = _row(ch, L)
        value, rel = float(u @ vec), _compose_rel(rel_u, rel_v, _gamma(Q + 1))
    return PrecReal(value, _radius_from_rel(value, rel, 5 * Q * _TINY))


def _gap(L: int, Q: int) -> float:
    """Upper bound on m_L - m_L(Q) >= 0 and on V_l - V_l(Q) >= 0:
    m~_(Q+1) z~_L, and past Q m~_(Q+1) (tau~_L + max z~ / 2)."""
    m_next, z = _chain(Q).truncation
    z_L = z[L - 1] if L <= Q else _up(float(_tails(L, L, Q)[0]) + _up(float(z.max()) / 2))
    return _up(m_next * float(z_L))


def _lift(ball: PrecReal, gap: float) -> PrecReal:
    """ball + [0, gap]: the midpoint moves up by gap/2, the radius grows by it."""
    return ball + PrecReal(gap, gap) * 0.5


def v_term(L: int, ell: int) -> PrecReal:
    """Enclosure of V_l: v_term_partial at Q = _Q_START, lifted by the
    proven one-sided truncation gap _gap (see the module docstring); V_0 =
    c_L has none."""
    ball = v_term_partial(L, ell, _Q_START)
    return _lift(ball, _gap(L, _Q_START)) if ell else ball


def _m_at(L: int, Q: int) -> tuple[float, float]:
    """m_L(Q) of the Q-truncated series as (value, radius): y_L of the
    chain's sum and its bound for L <= Q, and past Q c_L + u . y with u row
    L of M built past Q, where u . (y - y~) <= |err|_inf / 2."""
    ch = _chain(Q)
    y, err, _ = ch.solution
    if L <= Q:
        return float(y[L - 1]), float(err[L - 1])
    (u, rel_u), (c, rel_c, _) = _row(ch, L), c_coeff(L)
    value = c + float(u @ y)
    radius = _radius_from_rel(value, _compose_rel(rel_c, rel_u, _gamma(Q + 1)), (2 * Q + 1) * _TINY)
    return value, _up(radius + float(err.max()) / 2)


@dataclass
class MomentEstimate:
    L: int
    value: PrecReal
    method: str
    params: dict


def moment(L: int, eps=1e-8) -> MomentEstimate:
    """m_L by the series route: the first level Q = 100, 200, .. 1600 whose
    ball, m_L(Q) from the chain's sum (see _m_at) lifted by the proven
    truncation gap (see _gap), has a radius within eps and lies inside
    (0, 1).  Each level's ball is proven on its own, so no two levels are
    compared; at large L the first levels fall short (m_187(100) = 3.8e-14
    against m_187 = 1.14e-9, with a gap bound of 3.7e-7 past Q = 100).

    PrecisionUnreachableError is raised when no level up to the cap
    qualifies, and by two refusals that hold for every level: before any
    chain is built when 2^-53 c~_L, held by every radius, is above eps, and
    once a level Q >= L is built whose rounding part alone is above eps,
    since that part only grows with Q (see the module docstring).  An order
    past _L_CAP raises ResourceLimitError before any c_s is summed.
    """
    if L < 1:
        raise DomainError(f"moment order must be >= 1, got {L}")
    e = float(eps)
    if not e > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if L > _L_CAP:
        raise ResourceLimitError(f"moment order L = {L} passes the cap {_L_CAP}")
    if _U64 * c_coeff(L)[0] > e:
        raise PrecisionUnreachableError(f"eps = {e} is below 2^-53 c_L, which every radius of m_{L} holds")
    for Q in _LADDER:
        cur, rad = _m_at(L, Q)
        if L <= Q and _chain(Q).solution[2][L - 1] > e:  # the least rounding part from Q on
            raise PrecisionUnreachableError(f"the rounding part at Q = {Q} is above eps = {e}, and it grows with Q")
        value = _lift(PrecReal(cur, rad), _gap(L, Q))
        if value.radius <= e and 0 < value.lo and value.hi < 1:
            return MomentEstimate(L, value, "series", {"Q": Q, "eps": e, "q_truncation": "proven"})
    raise PrecisionUnreachableError(f"no level Q <= {_Q_CAP} gives m_{L} a ball inside (0, 1) within eps = {e}")


def symmetry_residual(estimates) -> list[PrecReal]:
    """Residuals of the reflection relations, one per moment order.

    With m_0 = 1 implicit, residual_L = sum_k C(L,k) (-1)^k m_k - m_L; each
    ball must contain 0 when the estimates are sound (L = 1 gives 1 - 2 m_1,
    L = 3 gives 1 - 3 m_1 + 3 m_2 - 2 m_3).
    """
    balls = [est.value for est in estimates]
    out = []
    for L in range(1, len(balls) + 1):
        acc = PrecReal(1)  # k = 0 term
        for k in range(1, L + 1):
            term = balls[k - 1] * math.comb(L, k)
            acc = acc + (-term if k % 2 else term)
        out.append(acc - balls[L - 1])
    return out


# -- digit-sum oracle -----------------------------------------------------------


def _digit_chunks(depth: int, B: int):
    """(num_prev, num, den_prev, den, digit_sum) for every tuple in
    [2, B]^(depth - 1), as int64 arrays in the parent blocks of `farey.grow`.

    Appending digit b maps the continuant pairs to (num, b num - num_prev)
    and (den, b den - den_prev), so the callers form the last level
    themselves (see _last_digit).
    """
    b = np.arange(2, B + 1, dtype=np.int64)[:, None]

    def children(state):
        n_prev, n, d_prev, d, sb = state
        return (np.tile(n, B - 1), (b * n - n_prev).ravel(),
                np.tile(d, B - 1), (b * d - d_prev).ravel(), (sb + b).ravel())

    root = tuple(np.array([v], dtype=np.int64) for v in (-1, 0, 0, 1, 0))
    return farey.grow(root, children, B - 1, depth)


def _last_digit(depth: int, B: int, first: int, L: int):
    """(x^L, digit sums) per parent block of _digit_chunks(depth, B), as
    (B + 1 - first) x P arrays: row b - first holds the float64
    [[b1 .. b_(depth-1), b]]^L and the int64 b1 + ... + b_(depth-1) + b.
    The leaves b >= 2 of a block are at most farey._CHUNK entries, or the
    B - 1 <= _DIGIT_CAP of one parent when those are more.  Here and in
    the callers a block-sized array is reused in place where it can be,
    since each new one is an allocation, block after block."""
    b = np.arange(first, B + 1, dtype=np.int64)[:, None]
    for n_prev, n, d_prev, d, sb in _digit_chunks(depth, B):
        num, den = b * n, b * d
        num -= n_prev
        den -= d_prev
        x = np.true_divide(num, den)
        yield np.float_power(x, L, out=x), sb + b


# np.frexp writes a finite float as m 2^e with 0.5 <= |m| < 1 and e in
# [-1073, 1024] (the smallest subnormal is 0.5 2^-1073), and m 2^53 is an integer
_E_MIN, _E_MAX = -1073, 1024


def _float_sums(blocks, sides: int) -> list[float]:
    """The exact sum of the finite float64 arrays of each side, rounded
    once: bit for bit what math.fsum returns, whatever the chunking or order.

    `blocks` yields tuples of `sides` arrays, one per side.  Each float is
    M 2^(e - 53) with M = m 2^53 an integer, |M| < 2^53, split into the
    limbs M & (2^28 - 1) in [0, 2^28) and M >> 28 in [-2^25, 2^25).  One
    farey.limb_sums call adds them per side and exponent e exactly, with
    the sides' exponent ranges side by side, while at most 2^25 floats are
    summed per side (the oracle's tuple cap, 2.5e7, is below that), since
    then every column sum stays below 2^53.  Each side's exact total, sum
    over e of S_e 2^(e - _E_MIN) times 2^(_E_MIN - 53), is then one int true
    division, which Python rounds correctly (to +0.0 when the sum is zero,
    as math.fsum does).
    """
    span = _E_MAX - _E_MIN + 1

    # m is rebound to the integer M and then to its high limb, and e shifted in
    # place: a block's arrays set the oracle's peak memory
    def limbs():
        for arrays in blocks:
            for side, x in enumerate(arrays):
                m, e = np.frexp(x.ravel())  # np.add.at is fast on 1-d indices
                m = np.ldexp(m, 53, out=m).astype(np.int64)
                e += side * span - _E_MIN
                lo = m & farey.LIMB_MASK
                m >>= farey.LIMB
                yield e, (lo, m)

    exps, sums = farey.limb_sums(limbs(), sides * span)
    totals = [0] * sides
    for i, total in zip(exps.tolist(), sums):
        side, e = divmod(i, span)
        totals[side] += total << e
    return [t / (1 << (53 - _E_MIN)) for t in totals]


def _check_a_args(ell: int, B: int, depth: int):
    if ell < 0:
        raise DomainError(f"ell must be >= 0, got {ell}")
    if ell > 4:
        raise ResourceLimitError(f"digit-sum truncation supports ell <= 4, got {ell}")
    if B < 3:
        raise DomainError(f"digit cap must be >= 3, got {B}")
    if (B - 1) ** depth > _TUPLE_CAP:
        raise ResourceLimitError(f"(B-1)^{depth} = {(B - 1) ** depth} exceeds the tuple cap")
    if depth and B - 1 > _DIGIT_CAP:
        raise ResourceLimitError(f"B - 1 = {B - 1} digits per entry exceed the cap of {_DIGIT_CAP}")


def _oracle_ball(val: float, digits: int, B: int, lost: int) -> PrecReal:
    """A digit sum over [2, B]^digits, truncated to `val`, as a ball.

    The radius holds the B-tail digits * 2^(1-B); a heuristic 1e-13
    relative allowance for the rounding of the terms (no argument bounds it
    yet: the sums are exact and rounded once, but the per-term errors of
    pow and of the scaling are not written down); and 2^-1074 for each of
    `lost` terms that may have underflowed, since a correctly rounded
    scaling loses at most 2^-1075.  The first and last are dyadic
    Fractions, which a ball holds exactly, so they stay positive past
    2^-1074.  The tail is the radius of the midpoint's ball and each
    other part a ball about 0, so the ball sum adds the parts rounded up
    (see minkqm.balls), never below their exact sum.
    """
    return PrecReal(val, Fraction(digits, 2 ** (B - 1))) + PrecReal(0, 1e-13) * val + PrecReal(0, Fraction(lost, 2**1074))


def a_partial_direct(L: int, ell: int, B: int) -> PrecReal:
    """Truncated A_l: lower bound with tail <= 2*l*2^-B folded into the radius."""
    if L < 1:
        raise DomainError(f"moment order must be >= 1, got {L}")
    _check_a_args(ell, B, ell)
    if ell == 0:
        return PrecReal(0)
    w = np.ldexp(1.0, ell - np.arange(ell * B + 1))  # 2^(l - sum b) by sum b; 0.0 below 2^-1074
    (val,) = _float_sums(((np.multiply(x, w[k], out=x),) for x, k in _last_digit(ell, B, 2, L)), 1)
    return _oracle_ball(val, ell, B, (B - 1) ** ell)


def h_integral_identity_check(L: int, ell: int, B: int) -> tuple[PrecReal, PrecReal]:
    """Both sides of the step-weight integral identity

        L * int_0^1 f_(l+1)(x) x^(L-1) dx
            = -A_(l+1)/2 + sum_{i=0}^{l-1} A_(l-i)/2^(i+2) + 2^-(l+1).

    The left side is summed independently over the piecewise-constant
    structure: f_(l+1) is constant on ([[b1..b_(l+1)]], [[b1..b_(l+1)-1]]),
    so each tuple contributes 2^(l+1-sum b) * (y^L - x^L) exactly.  The
    right side combines the truncated digit sums.  Balls must overlap.

    The decremented value y of last digit b is x of digit b - 1 under the
    same parent: the same integer numerator and denominator, so the same
    float.  Per parent block X = x^L is formed once for b = 1 .. B, and the
    left terms (X[b-1] - X[b]) w and the A_(l+1) terms X[b] w both come from
    it.  The two sides are still summed apart, in one exact accumulation,
    and each is rounded once.
    """
    if L < 1:
        raise DomainError(f"moment order must be >= 1, got {L}")
    if ell > 3:
        raise ResourceLimitError(f"identity check supports ell <= 3, got {ell}")
    _check_a_args(ell, B, ell + 1)

    w = np.ldexp(1.0, ell + 1 - np.arange((ell + 1) * B + 1))

    def terms():
        for X, k in _last_digit(ell + 1, B, 1, L):
            wb = w[k[1:]]
            left = X[:-1] - X[1:]
            left *= wb
            yield left, np.multiply(X[1:], wb, out=X[1:])

    left_val, a_val = _float_sums(terms(), 2)
    tuples = (B - 1) ** (ell + 1)
    # a left term is a difference of two floats, each of which may underflow
    left = _oracle_ball(left_val, ell + 1, B, 2 * tuples)
    # powers of two as floats, so every step is an exact ring operation
    right = PrecReal(2.0 ** -(ell + 1)) - _oracle_ball(a_val, ell + 1, B, tuples) * 0.5
    for i in range(ell):
        right = right + a_partial_direct(L, ell - i, B) * 2.0 ** -(i + 2)
    return left, right
