"""Moment engine: truncated transfer-matrix series and digit-sum oracles.

The series route evaluates

    V_0 = c_L,
    V_l = u . M^(l-1) . w            (l >= 1),

with M[q,q'] = c_(q+q') * C(q+q'-1, q'), u[q] = c_(L+q) * C(L+q-1, q),
w[q] = c_q, truncated to 1 <= q, q' <= Q.  The vector u is row L of the
same infinite matrix, u[q] = M[L,q], so V_l is entry L of M^l w: one chain
of cached vectors M^j w serves every L, and each V_l is one row of M (built
past Q when L > Q) dotted with M^(l-1) w.  Every quantity is positive, so
the Q-truncated value increases monotonically to the full sum and a plain
forward rounding analysis gives a rigorous relative error bound for the
float64 matrix chain: any summation order of n positive floats is off by
at most gamma_n = n*u/(1 - n*u) relatively (u = 2^-53), and the per-entry
error composes multiplicatively: each c_s midpoint is the float64 of an
exact fixed-point lower bound (special.c_coeff_cached), off by its
enclosure width plus one rounding, and each entry adds one float multiply
by its float64 binomial.  The binomials are exact integers, built row by
row by Pascal's rule (see _rows).  The remaining Q-truncation is estimated
by doubling Q and flagged heuristic.

m_L is the sum of the V_l; the tail past lmax is below 2^-lmax because
V_l < 2^-l (a strict bound inherited from the step-weight integrals; the
test suite also verifies it empirically across L and l).

The independent oracle is the truncated digit sum

    A_l(B) = sum over b in [2,B]^l of 2^(l - sum b) * [[b1..bl]]^L,

whose tail is at most 2*l*2^-B: a tuple escaping the cap has some b_j > B,
[[.]]^L <= 1, and sum over b_j > B of 2^(1-b_j) = 2^(1-B) while each other
coordinate sums to 1; there are l choices of j.  V_l = A_(l+1) - A_l is an
identity the acceptance suite checks, never an ingredient of the series.

The tuples are enumerated by `farey.grow`, which also grows the Farey tree,
as int64 continuant pairs (fanout B - 1).  num < den <= b1 ... b_depth <=
B^depth, and the tuple cap (B-1)^depth <= 2.5e7 (B >= 3, depth <= 5) keeps
that below 2e8 < 2^53, so numpy's num / den is Python's correctly rounded
quotient.  np.float_power calls the C pow as Python's ** does (np.power may
differ by an ulp) and np.ldexp scales exactly, so each term is the float
Python got.  The float64 terms are then summed exactly and rounded once, as
math.fsum would: each is an integer mantissa below 2^53 times a power of
two, its two base-2^28 limbs are added per exponent by `farey.limb_sums`
(at most 2.5e7 < 2^25 terms keep every int64 column sum below 2^53), and
one int true division rounds the exact total (see _float_sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
_Q_START = 100  # first truncation level of moment's doubling
_V_TERM_Q = 200  # v_term compares Q = 200 with 400
_Q_CAP = 1600
# chains held at once: `verify all` draws Q = 100, 200, 400 and the README
# examples 100, 200, so none evicts (one chain at the cap Q = 1600 is 20 MB)
_CHAINS = 4
# V_l < 2^-l, so past l = 1074 the l-tail bound is 0.0 in float64
_LMAX_CAP = 1075
_TUPLE_CAP = 25_000_000
# covers subnormal flushing of far-tail vector entries (c_s underflows float64
# for s > 1074; such entries contribute < 1e-130 through any chain used here)
_ABS_SLACK = 1e-120


def _gamma(n: int) -> float:
    g = n * _U64
    return g / (1.0 - g)


def _compose_rel(*rels: float) -> float:
    """Upper bound on prod(1 + r) - 1 for relative errors r >= 0.

    With s = sum(r) <= 1, prod(1 + r) <= e^s and e^s - 1 <= s + (e - 2) s^2
    <= s (1 + s).  math.fsum rounds s correctly, so one step up covers the
    exact sum, and each later operation is rounded up the same way.
    """
    up = math.inf
    s = math.nextafter(math.fsum(rels), up)
    return math.nextafter(s * math.nextafter(1.0 + s, up), up)


def _radius_from_rel(value: float, rel: float) -> float:
    # |computed - exact| <= rel * exact and exact <= computed / (1 - rel)
    return value * rel / (1.0 - rel) * (1.0 + 1e-12) + _ABS_SLACK


def _rows(first: int, last: int, Q: int) -> tuple[np.ndarray, float]:
    """Float64 midpoints of rows first..last of the transfer matrix,
    truncated to Q columns, and one relative error bound covering every
    entry.  Row L is the u vector of V_l, so this serves L > Q too.

    The first row's binomials C(first+qp-1, qp) advance by
    *(first+qp-1) // qp along the row; each later row is Pascal's running
    sum C(q+qp, qp) = sum_{k<=qp} C(q+k-1, k) of the row before.  A row is
    then one vector multiply of float64 c_s midpoints by float64 binomials.
    Past s = q + qp = 900, c_s or the binomial can escape float64 range even
    though the product never does, so those entries multiply in mpf first.
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
    """Cached vectors M^j w for one truncation size Q."""

    def __init__(self, Q: int):
        self.Q = Q
        self.mid, self.rel_m = _rows(1, Q, Q)
        table = [c_coeff_cached(q) for q in range(1, Q + 1)]
        self.vecs = [np.array([mid for mid, _, _ in table])]
        self.rels = [max(r for _, r, _ in table)]

    def vec(self, j: int) -> tuple[np.ndarray, float]:
        while len(self.vecs) <= j:
            nxt = self.mid @ self.vecs[-1]
            rel = _compose_rel(self.rel_m, self.rels[-1], _gamma(self.Q + 1))
            self.vecs.append(nxt)
            self.rels.append(rel)
        return self.vecs[j], self.rels[j]


_chain = lru_cache(maxsize=_CHAINS)(_Chain)


def v_term_partial(L: int, ell: int, Q: int) -> tuple[float, float]:
    """Q-truncated V_l as (float64 value, relative error bound).

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
    if L <= Q:
        u, rel_u = ch.mid[L - 1], ch.rel_m
    else:
        rows, rel_u = _rows(L, L, Q)
        u = rows[0]
    value = float(u @ vec)
    rel = _compose_rel(rel_u, rel_v, _gamma(Q + 1))
    return value, rel


def v_term(L: int, ell: int) -> PrecReal:
    """Enclosure of V_l with the Q-truncation gap estimated by doubling.

    The returned midpoint is the 2Q evaluation at Q = _V_TERM_Q; the radius
    adds the (heuristic) |value(2Q) - value(Q)| doubling gap on top of the
    rigorous rounding bound.
    """
    v1, _ = v_term_partial(L, ell, _V_TERM_Q)
    v2, rel = v_term_partial(L, ell, 2 * _V_TERM_Q)
    gap = abs(v2 - v1)
    return PrecReal(mpf(v2), mpf(_radius_from_rel(v2, rel)) + mpf(gap))


@dataclass
class MomentEstimate:
    L: int
    value: PrecReal
    method: str
    params: dict
    tail_bound: float

    def __post_init__(self):
        if self.tail_bound > float(self.value.radius) * (1 + 1e-9) + 1e-300:
            raise DomainError("tail_bound must be included in the value's radius")


def moment(L: int, eps=1e-8, lmax_min: int = 25) -> MomentEstimate:
    """m_L by the series route: sum V_l for l <= lmax, Q chosen by doubling.

    lmax satisfies 2^-lmax <= eps/2 (never below `lmax_min`), so the l-tail
    bound sum_{l > lmax} V_l < 2^-lmax sits inside the radius.  Doubling
    stops once successive Q-levels agree to eps/4; exceeding the Q cap
    raises PrecisionUnreachableError, as does an eps below the float64
    chain floor.  An lmax past _LMAX_CAP raises ResourceLimitError.
    """
    if L < 1:
        raise DomainError(f"moment order must be >= 1, got {L}")
    e = float(as_eps(eps))
    if e < 1e-11:
        raise PrecisionUnreachableError(
            f"series chain floor is ~1e-11 absolute; eps = {e} is below it"
        )
    lmax = max(lmax_min, math.ceil(math.log2(2.0 / e)))
    if lmax > _LMAX_CAP:  # every chain would hold lmax vectors for no smaller bound
        raise ResourceLimitError(f"lmax = {lmax} exceeds the cap {_LMAX_CAP}")

    def total_at(Q: int) -> tuple[float, float]:
        val = 0.0
        rad = 0.0
        for ell in range(lmax + 1):
            v, rel = v_term_partial(L, ell, Q)
            val += v
            rad += _radius_from_rel(v, rel)
        return val, rad

    Q = _Q_START
    prev, _ = total_at(Q)
    while True:
        if 2 * Q > _Q_CAP:
            raise PrecisionUnreachableError(
                f"Q doubling exceeded the cap {_Q_CAP} before stabilizing at eps = {e}"
            )
        cur, rad = total_at(2 * Q)
        gap = abs(cur - prev)
        if gap <= e / 4:
            break
        prev = cur
        Q *= 2
    tail = 2.0**-lmax
    radius = rad + gap + tail
    value = PrecReal(mpf(cur), mpf(radius))
    if not (0 < value.lo and value.hi < 1):
        raise PrecisionUnreachableError(f"moment estimate escaped (0, 1): {value}")
    return MomentEstimate(
        L=L,
        value=value,
        method="series",
        params={"Q": 2 * Q, "lmax": lmax, "eps": e, "q_truncation": "heuristic-doubling"},
        tail_bound=tail,
    )


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
    [2, B]^depth, as int64 arrays in the chunks of `farey.grow`.

    Appending digit b maps the continuant pairs to (num, b num - num_prev)
    and (den, b den - den_prev), so the value is num/den and decrementing
    the last digit gives (num - num_prev)/(den - den_prev).
    """
    b = np.arange(2, B + 1, dtype=np.int64)[:, None]

    def children(state):
        n_prev, n, d_prev, d, sb = state
        return (np.tile(n, B - 1), (b * n - n_prev).ravel(),
                np.tile(d, B - 1), (b * d - d_prev).ravel(), (sb + b).ravel())

    root = tuple(np.array([v], dtype=np.int64) for v in (-1, 0, 0, 1, 0))
    return farey.grow(root, children, B - 1, depth)


# np.frexp writes a finite float as m 2^e with 0.5 <= |m| < 1 and e in
# [-1073, 1024] (the smallest subnormal is 0.5 2^-1073), and m 2^53 is an integer
_E_MIN, _E_MAX = -1073, 1024


def _float_sum(arrays) -> float:
    """The exact sum of the finite float64 arrays, rounded once: bit for
    bit what math.fsum returns, whatever the chunking or order.

    Each float is M 2^(e - 53) with M = m 2^53 an integer, |M| < 2^53,
    split into the limbs M & (2^28 - 1) in [0, 2^28) and M >> 28 in
    [-2^25, 2^25).  farey.limb_sums adds them per exponent e exactly while
    at most 2^25 floats are summed (the oracle's tuple cap, 2.5e7, is
    below that), since then every column sum stays below 2^53.  The exact
    total, sum over e of S_e 2^(e - _E_MIN) times 2^(_E_MIN - 53), is then
    one int true division, which Python rounds correctly (to +0.0 when the
    sum is zero, as math.fsum does).
    """

    # m is rebound to the integer M and then to its high limb, and e shifted in
    # place: a chunk's arrays set the oracle's peak memory
    def limbs():
        for x in arrays:
            m, e = np.frexp(x)
            m = np.ldexp(m, 53, out=m).astype(np.int64)
            e -= _E_MIN
            lo = m & farey.LIMB_MASK
            m >>= farey.LIMB
            yield e, (lo, m)

    exps, sums = farey.limb_sums(limbs(), _E_MAX - _E_MIN + 1)
    return sum(s << i for i, s in zip(exps.tolist(), sums)) / (1 << (53 - _E_MIN))


def _digit_sum(depth: int, B: int, term) -> float:
    """The sum of term(*chunk) over every chunk of _digit_chunks, rounded once."""
    return _float_sum(term(*c) for c in _digit_chunks(depth, B))


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


def a_partial_direct(L: int, ell: int, B: int) -> PrecReal:
    """Truncated A_l: lower bound with tail <= 2*l*2^-B folded into the radius."""
    if L < 1:
        raise DomainError(f"moment order must be >= 1, got {L}")
    _check_a_args(ell, B, ell)
    if ell == 0:
        return PrecReal.zero()
    val = _digit_sum(ell, B, lambda n_prev, n, d_prev, d, sb: np.ldexp(np.float_power(n / d, L), ell - sb))
    tail = 2.0 * ell * 2.0**-B
    rounding = abs(val) * 1e-13
    return PrecReal(mpf(val), mpf(tail + rounding))


def h_integral_identity_check(L: int, ell: int, B: int) -> tuple[PrecReal, PrecReal]:
    """Both sides of the step-weight integral identity

        L * int_0^1 f_(l+1)(x) x^(L-1) dx
            = -A_(l+1)/2 + sum_{i=0}^{l-1} A_(l-i)/2^(i+2) + 2^-(l+1).

    The left side is summed independently over the piecewise-constant
    structure: f_(l+1) is constant on ([[b1..b_(l+1)]], [[b1..b_(l+1)-1]]),
    so each tuple contributes 2^(l+1-sum b) * (y^L - x^L) exactly.  The
    right side combines the truncated digit sums.  Balls must overlap.
    """
    if L < 1:
        raise DomainError(f"moment order must be >= 1, got {L}")
    if ell > 3:
        raise ResourceLimitError(f"identity check supports ell <= 3, got {ell}")
    _check_a_args(ell, B, ell + 1)

    def term(n_prev, n, d_prev, d, sb):
        y, x = (n - n_prev) / (d - d_prev), n / d
        return np.ldexp(np.float_power(y, L) - np.float_power(x, L), ell + 1 - sb)

    left_val = _digit_sum(ell + 1, B, term)
    left_tail = 2.0 * (ell + 1) * 2.0**-B
    left = PrecReal(mpf(left_val), mpf(left_tail + abs(left_val) * 1e-13))

    with mp.workprec(96):
        right = PrecReal.exact(Fraction(1, 1 << (ell + 1)))
        right = right - a_partial_direct(L, ell + 1, B) / 2
        for i in range(ell):
            right = right + a_partial_direct(L, ell - i, B) / (1 << (i + 2))
    return left, right
