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

so y_L = m_L(Q) for L <= Q.  `moment` reads m_L(Q) off one fixed point per
chain.  Every entry is positive, so m_L(Q) increases to m_L with Q; the
remaining Q-truncation is estimated by doubling Q and flagged heuristic.

Float rounding.  With u = 2^-53 and t = 2^-1074, a sum of n products of
floats, in any order, is off by at most gamma_n = n u/(1 - n u) times the
sum of the products' magnitudes, plus t for each product that underflows
(a correctly rounded product loses at most t/2 there, and a sum whose
result is subnormal is exact).  Each c_s midpoint is the float64 of an
exact fixed-point lower bound (special.c_coeff_cached), off by its
enclosure width plus one rounding, and each entry of M adds one float
multiply by its float64 binomial; past s = 1022 entries can be subnormal.
So, entrywise,

    |M~ - M| <= rel_m M + t,    |w~ - w| <= rel_w w + t.

The chain M~^j w~ composes the relative bounds per matvec, and its
absolute parts obey a_0 = t and a_(j+1) <= 2.01 Q t + 0.51 a_j (Q products
that may underflow, Q entries off by t times entries below 1, and row sums
below 1/2 halving a_j), so they and the final dot product stay below
5 Q t: each V_l is off by at most its relative bound plus 5 Q t
(_chain_radius).

The certificate.  For any float vector y~, (I - M)(y - y~) = r with
r = w + M y~ - y~, so |y - y~|_inf <= 2 |r|_inf.  Entry q of the float
residual r~ = w~ + M~ y~ - y~ is one sum of Q + 2 products, so with
W = |w~|_inf, n = |y~|_inf and (M~ |y~|)_q <= n,

    |r|_inf <= |r~|_inf + gamma_(Q+3) (W + 2 n) + rel_w W + rel_m n / 2
               + (Q (1 + n) + 2) t,

where rel_m n / 2 bounds |(M~ - M) y~| through ||M||_inf <= 1/2, and
gamma_(Q+3) - gamma_(Q+2) >= u absorbs w <= (w~ + t)/(1 - rel_w).
_solve_error evaluates twice this exactly, in rationals, and rounds it up
once.  Nothing in it assumes y~ is a good solution; the y~ used is the
float fixed point of y <- w~ + M~ y, where r~ = 0.  Then c~_L + u~ . y~ is
a positive sum of Q + 1 products, off from c_L + u . y~ by its composed
relative bound plus (Q (n + 1) + 1) t, and u . (y - y~) adds at most
sum(u) |y - y~|_inf <= |y - y~|_inf / 2 (see _m_at).

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
from mpmath import mp, mpf

from . import farey
from .balls import PrecReal, as_eps
from .errors import DomainError, PrecisionUnreachableError, ResourceLimitError
from .special import c_coeff_cached

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
_Q_START = 100  # first truncation level of moment's doubling
_V_TERM_Q = 200  # v_term compares Q = 200 with 400
_Q_CAP = 1600
# chains held at once: `verify all` draws Q = 100, 200, 400 and the README
# examples 100, 200, so none evicts (one chain at the cap Q = 1600 is 20 MB)
_CHAINS = 4
_TUPLE_CAP = 25_000_000


def _gamma(n: int) -> float:
    g = n * _U64
    return g / (1.0 - g)


# every radius of _m_at holds gamma_(Q+3) (W + 2 n) >= 3 c~_1 gamma_(Q+3), as
# n >= W = c~_1 > 0.386, and moment answers from Q >= 2 _Q_START: no radius
# can meet an eps below this
_EPS_FLOOR = 3 * 0.386 * _gamma(2 * _Q_START + 3)


def _up(x: float) -> float:
    """One step up from a round-to-nearest result x >= 0: at least its exact value."""
    return math.nextafter(x, math.inf)


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


def _chain_radius(value: float, rel: float, Q: int) -> float:
    """Radius of a value with relative bound rel from the chain at Q: every
    chain quantity is off by at most rel times its exact value plus 5 Q t
    (see the module docstring)."""
    return _radius_from_rel(value, rel, 5 * Q * _TINY)


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
    though the product never does, so those entries multiply in mpf first;
    their float64 may be subnormal, off by t/2 at most.
    """
    table = [c_coeff_cached(s) for s in range(first + 1, last + Q + 1)]
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
            out[i, qp - 1] = float(table[i + qp - 1][2] * binoms[qp - 1])
    # one float multiply per entry on top of the c_s enclosure error
    return out, _compose_rel(rel, _U64, _U64)


class _Chain:
    """Cached vectors M^j w for one truncation size Q, and the fixed point
    of y = w + M y."""

    def __init__(self, Q: int):
        self.Q = Q
        self.mid, self.rel_m = _rows(1, Q, Q)
        table = [c_coeff_cached(q) for q in range(1, Q + 1)]
        self.vecs = [np.array([mid for mid, _, _ in table])]
        self.rels = [max(r for _, r, _ in table)]

    def vec(self, j: int) -> tuple[np.ndarray, float]:
        while len(self.vecs) <= j:
            self.vecs.append(self.mid @ self.vecs[-1])
            self.rels.append(_compose_rel(self.rel_m, self.rels[-1], _gamma(self.Q + 1)))
        return self.vecs[j], self.rels[j]

    @cached_property
    def solution(self) -> tuple[np.ndarray, float]:
        """y~, the float fixed point of y <- w + M y, and a proven bound on
        |y - y~|_inf for y = (I - M)^-1 w (see _solve_error).

        No LAPACK solve: on 2 CPUs under multithreaded OpenBLAS,
        np.linalg.solve took 100-170 ms per call at Q = 100-400 (0.3-2.9 ms
        on one thread, which numpy cannot set), while a matvec takes about
        0.1 ms and the loop stops after 60 to 126 of them for Q = 60 .. 1600
        (69, 81 and 89 at Q = 100, 200, 400).
        """
        w = y = self.vecs[0]
        for _ in range(1000):  # guards against a cycle of roundings; _solve_error bounds any y
            y, prev = w + self.mid @ y, y
            if np.array_equal(y, prev):
                break
        return y, _solve_error(self.mid, self.rel_m, w, self.rels[0], y)


_chain = lru_cache(maxsize=_CHAINS)(_Chain)


def _solve_error(M: np.ndarray, rel_m: float, w: np.ndarray, rel_w: float, y: np.ndarray) -> float:
    """Upper bound on |(I - M)^-1 w - y|_inf for the exact M >= 0 with
    ||M||_inf <= 1/2 and w >= 0 that the float M~, w~ given here enclose,
    |M~ - M| <= rel_m M + t and |w~ - w| <= rel_w w + t, and any float
    vector y: twice the residual bound of the module docstring, summed in
    rationals and rounded up once.
    """
    Q = len(w)
    res, W, n = (Fraction(float(np.abs(v).max())) for v in (w + M @ y - y, w, y))
    bound = (res + Fraction(Q + 3, 2**53 - Q - 3) * (W + 2 * n) + Fraction(rel_w) * W
             + Fraction(rel_m) * n / 2 + (Q * (1 + n) + 2) * Fraction(_TINY))
    return _up(float(2 * bound))


def _row(ch: _Chain, L: int) -> tuple[np.ndarray, float]:
    """Row L of the chain's matrix, the u of V_l and m_L, built past Q when L > Q."""
    if L <= ch.Q:
        return ch.mid[L - 1], ch.rel_m
    rows, rel = _rows(L, L, ch.Q)
    return rows[0], rel


def v_term_partial(L: int, ell: int, Q: int) -> tuple[float, float]:
    """Q-truncated V_l as (float64 value, relative error bound); the value
    is also off by up to 5 Q t absolutely, which _chain_radius adds.

    Monotone nondecreasing in Q exactly (up to the reported rounding bound)
    because every summand is positive.
    """
    if L < 1 or ell < 0 or Q < 1:
        raise DomainError(f"need L >= 1, ell >= 0, Q >= 1: ({L}, {ell}, {Q})")
    if Q > _Q_CAP:
        raise ResourceLimitError(f"Q = {Q} exceeds the cap {_Q_CAP}")
    if ell == 0:
        return c_coeff_cached(L)[:2]
    ch = _chain(Q)
    vec, rel_v = ch.vec(ell - 1)
    u, rel_u = _row(ch, L)
    return float(u @ vec), _compose_rel(rel_u, rel_v, _gamma(Q + 1))


def v_term(L: int, ell: int) -> PrecReal:
    """Enclosure of V_l with the Q-truncation gap estimated by doubling.

    The returned midpoint is the 2Q evaluation at Q = _V_TERM_Q; the radius
    adds the (heuristic) |value(2Q) - value(Q)| doubling gap on top of the
    rigorous rounding bound.
    """
    v1, _ = v_term_partial(L, ell, _V_TERM_Q)
    v2, rel = v_term_partial(L, ell, 2 * _V_TERM_Q)
    radius = _up(_chain_radius(v2, rel, 2 * _V_TERM_Q) + abs(v2 - v1))
    return PrecReal(mpf(v2), mpf(radius))


def _m_at(L: int, Q: int) -> tuple[float, float]:
    """m_L(Q) = c_L + u . y of the Q-truncated series as (value, radius),
    from the chain's fixed point y~ and its bound |y - y~|_inf."""
    ch = _chain(Q)
    y, err = ch.solution
    u, rel_u = _row(ch, L)
    c, rel_c, _ = c_coeff_cached(L)
    value = c + float(u @ y)
    floor = (Q * (math.ceil(y.max()) + 1) + 1) * _TINY
    radius = _radius_from_rel(value, _compose_rel(rel_c, rel_u, _gamma(Q + 1)), floor)
    return value, _up(radius + err / 2)


@dataclass
class MomentEstimate:
    L: int
    value: PrecReal
    method: str
    params: dict


def _moment_args(L: int, eps) -> float:
    """eps of moment(L, eps), after every check it makes before computing;
    the CLI makes them before it reads a cached result."""
    if L < 1:
        raise DomainError(f"moment order must be >= 1, got {L}")
    e = float(as_eps(eps))
    if e < _EPS_FLOOR:
        raise PrecisionUnreachableError(f"eps = {e} is below {_EPS_FLOOR:.2g}, the least allowance of a series radius")
    return e


def moment(L: int, eps=1e-8) -> MomentEstimate:
    """m_L by the series route: c_L + u . y (see _m_at), Q chosen by doubling.

    Doubling stops once successive Q-levels agree to eps/4 and the smaller
    is at least half the larger: for large L, m_L(Q) is still near 0 at the
    first levels (m_187(100) = 3.8e-14, m_187(200) = 1.09e-9, 1.14e-9 from
    Q = 400 on), so two levels can agree to eps/4 before the value has
    climbed.  The radius is the certified one at the larger Q plus that
    (heuristic) gap.  Exceeding the Q cap raises PrecisionUnreachableError,
    as does an eps below _EPS_FLOOR.
    """
    e = _moment_args(L, eps)
    Q, (prev, _) = _Q_START, _m_at(L, _Q_START)
    while True:
        Q *= 2
        if Q > _Q_CAP:
            raise PrecisionUnreachableError(f"Q doubling exceeded the cap {_Q_CAP} before stabilizing at eps = {e}")
        cur, rad = _m_at(L, Q)
        if abs(cur - prev) <= e / 4 and 2 * prev >= cur:
            break
        prev = cur
    value = PrecReal(mpf(cur), mpf(_up(rad + abs(cur - prev))))
    if not (0 < value.lo and value.hi < 1):
        raise PrecisionUnreachableError(f"moment estimate escaped (0, 1): {value}")
    return MomentEstimate(L, value, "series", {"Q": Q, "eps": e, "q_truncation": "heuristic-doubling"})


def symmetry_residual(estimates) -> list[PrecReal]:
    """Residuals of the reflection relations, one per moment order.

    With m_0 = 1 implicit, residual_L = sum_k C(L,k) (-1)^k m_k - m_L; each
    ball must contain 0 when the estimates are sound (L = 1 gives 1 - 2 m_1,
    L = 3 gives 1 - 3 m_1 + 3 m_2 - 2 m_3).
    """
    balls = [est.value for est in estimates]
    with mp.workprec(96):
        one = PrecReal.exact(1)
        out = []
        for L in range(1, len(balls) + 1):
            acc = one  # k = 0 term
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
    The leaves b >= 2 of a block are at most _CHUNK entries.  Here and in
    the callers a block-sized array is reused in place where it can be,
    since each new one is fresh memory to fault in, block after block."""
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
    if depth and B - 1 > farey._CHUNK:  # one entry's children must fit in a chunk
        raise ResourceLimitError(f"B - 1 = {B - 1} digits per entry exceed the chunk of {farey._CHUNK}")


def _oracle_ball(val: float, digits: int, B: int, lost: int) -> PrecReal:
    """A digit sum over [2, B]^digits, truncated to `val`, as a ball.

    The radius holds the B-tail digits * 2^(1-B), as an exact mpf that
    stays positive past 2^-1074; a 1e-13 relative allowance for the
    rounding of the terms; and 2^-1074 for each of `lost` terms that may
    have underflowed, since a correctly rounded scaling loses at most
    2^-1075.  It is summed at 53 bits, so an ordinary radius is the float64
    sum of its first two parts.
    """
    with mp.workprec(53):
        radius = mp.ldexp(digits, 1 - B) + abs(val) * 1e-13 + mp.ldexp(lost, -1074)
    return PrecReal(mpf(val), radius)


def a_partial_direct(L: int, ell: int, B: int) -> PrecReal:
    """Truncated A_l: lower bound with tail <= 2*l*2^-B folded into the radius."""
    if L < 1:
        raise DomainError(f"moment order must be >= 1, got {L}")
    _check_a_args(ell, B, ell)
    if ell == 0:
        return PrecReal.zero()
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
    with mp.workprec(96):
        right = PrecReal.exact(Fraction(1, 1 << (ell + 1)))
        right = right - _oracle_ball(a_val, ell + 1, B, tuples) / 2
        for i in range(ell):
            right = right + a_partial_direct(L, ell - i, B) / (1 << (i + 2))
    return left, right
