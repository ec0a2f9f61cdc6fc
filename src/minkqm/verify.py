"""One registry of named invariant checks, run at two sizes.

Each `Entry` pairs a check with the keyword sizes it runs at: `desk` for
the CLI's `verify all` (a few seconds in all) and `contract` for the
acceptance suite, which runs each contractual criterion at its stated
sweep, seed and tolerance.  An entry whose contract size equals its desk
size states it once.  A check returns its detail line or raises
`CheckFailed`; `run_entry` turns either, and any crash, into a
(name, passed, detail) record, so no check can abort the suite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, product
from typing import Callable

import numpy as np

from . import contfrac, minkowski, moments, quadrature, special
from .balls import Dyadic, PrecReal, workprec
from .conjecture import _lambda_integral, conjecture_m2_report, q_prime_at_minus_one, q_sequence
from .farey import farey_generation, farey_moment

# Reference data: the published opening of the sequence Q_n'(-1).
QPRIME_REFERENCE = [Fraction(t) for t in "1/2 -1/2 1 -5/2 25/4 -16 43 -971/8 1417/4".split()]
# The first four series terms V_l of m_1 and their sum, as published.
PUBLISHED_TERMS = (0.3862943611, 0.0791502471, 0.0226858500, 0.0074990924)
PUBLISHED_SUM = 0.4956295506


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


class CheckFailed(Exception):
    """A check's invariant did not hold; the message is the detail line."""


def _need(ok: bool, detail: str):
    if not ok:
        raise CheckFailed(detail)


def _random_pairs(seed: int, count: int, qmax: int):
    """Seeded pairs (p, q), 0 < p < q <= qmax, not reduced."""
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.randint(2, qmax)
        p = rng.randint(1, q - 1)
        yield p, q


def _random_fractions(seed: int, count: int, qmax: int):
    return (Fraction(p, q) for p, q in _random_pairs(seed, count, qmax))


def _swept_pairs(sweep_q: int):
    """Every reduced (p, q) with 0 < p < q <= sweep_q."""
    return ((p, q) for q in range(2, sweep_q + 1) for p in range(1, q) if math.gcd(p, q) == 1)


def _pow10(n: int) -> str:
    return f"1e{len(str(n)) - 1}"


# -- precision-core -------------------------------------------------------------


def _c_mpmath(s: int) -> Fraction:
    """2 polylog(s, 1/2) - 1 from mpmath at s + 160 bits.  For s <= 40 the
    chain's exact lower end of c_s sits about 2^-100 of c_s below it, and
    mpmath's polylog keeps more than 150 correct bits there."""
    from mpmath import mp

    with mp.workprec(s + 160):
        return Dyadic(2 * mp.polylog(s, 0.5) - 1).as_fraction()


def check_c_bounds() -> str:
    # the chain's claim: an exact lower end lo and |mid - c_s| <= rel c_s,
    # so c_s <= mid / (1 - rel)
    prev = None
    for s in range(1, 41):
        mid, rel, lo = special.c_coeff(s)
        mid, rel, want = Fraction(mid), Fraction(rel), _c_mpmath(s)
        _need(lo <= want and abs(mid - want) <= rel * want, f"c_{s} misses 2 polylog({s}, 1/2) - 1")
        hi = mid / (1 - rel)
        _need(0 < lo and hi < Fraction(1, 2**s), f"c_{s} escaped (0, 2^-{s})")
        _need(prev is None or hi < prev, f"c_{s} not below c_{s - 1}")
        prev = lo
    return "the chain's c_s hold 2 polylog(s, 1/2) - 1, lie in (0, 2^-s) and decrease, s <= 40"


def check_ball_soundness(samples: int) -> str:
    xs = list(_random_fractions(20260810, 3 * samples, 500))
    for a, b, c in zip(xs[0::3], xs[1::3], xs[2::3]):
        exact = (a * b + c) / (a + b) - c * c
        balls = []
        for bits in (64, 128):
            with workprec(bits):
                ba, bb, bc = (PrecReal.exact(t) for t in (a, b, c))
                balls.append((ba * bb + bc) / (ba + bb) - bc * bc)
        _need(balls[0].agrees(balls[1]), f"no overlap at two precisions for {a},{b},{c}")
        _need(all(r.contains(exact) for r in balls), f"exact value escaped enclosure for {a},{b},{c}")
    return f"{samples} random expressions enclosed at 64 and 128 bits"


def check_bessel_kernel() -> str:
    from mpmath import mp

    rng = random.Random(1)
    ys = [float(Fraction(rng.randint(1, 400), rng.randint(1, 50))) for _ in range(40)]
    for y, got in zip(ys, special.bessel_i1_scaled(np.array(ys)).tolist()):
        with mp.workprec(100):
            root = mp.sqrt(y)
            want = root * mp.besseli(1, 2 * root)
            _need(abs(got - want) <= 1e-13 * want, f"S({y}) = {got!r}, mpmath gives {want}")
    return "the quadrature's S(y) within 1e-13 of sqrt(y) besseli(1, 2 sqrt(y)) at 40 points"


# -- contfrac ---------------------------------------------------------------------


def check_roundtrips(samples: int) -> str:
    for x in _random_fractions(7, samples, 10_000):
        _need(contfrac.eval_regular(contfrac.regular_expand(x)) == x, f"regular round trip failed at {x}")
        _need(
            contfrac.eval_semiregular(contfrac.semiregular_expand(x)) == x,
            f"semi-regular round trip failed at {x}",
        )
    return f"{samples} random rationals, q <= 1e4, both kinds"


def check_angle_equivalence() -> str:
    for k in range(1, 6):
        for digits in product(range(2, 7), repeat=k):
            lhs = contfrac.eval_angle(contfrac.angle_from_semiregular(digits))
            _need(lhs == contfrac.eval_semiregular(digits), f"mismatch at {digits}")
    return "exact over all digit tuples in [2,6]^k, k <= 5"


def check_ramharter(samples: int) -> str:
    # The empirical envelope is 2/K, not geometric: a mapped expansion can
    # carry runs of 2s (from large even-position digits or the padded twin
    # tail), and the nested intervals along a 2-run have k/(k+1) endpoints,
    # so the prefix error decays like 1/K there; K * err stays below 1 on
    # every family tried, and 2/K keeps a factor-two cushion.
    # One pass of the digit stream per sample, carrying the convergent
    # num/den of [[b1..bK]]; the envelope is checked as K |num q - p den| <= 2 den q.
    for x in _random_fractions(99, samples, 3000):
        p, q = x.numerator, x.denominator
        n_prev, n, d_prev, d = -1, 0, 0, 1
        stream = contfrac._ramharter_stream(contfrac.regular_digits_int(p, q))
        for K, b in enumerate(islice(stream, 39), start=1):
            n_prev, n, d_prev, d = n, b * n - n_prev, d, b * d - d_prev
            _need(K * abs(n * q - p * d) <= 2 * d * q, f"|prefix - {x}| > 2/{K}")
    return f"2/K envelope held on {samples} rationals"


def check_all_two_runs() -> str:
    for k in range(1, 65):
        _need(contfrac.eval_semiregular((2,) * k) == Fraction(k, k + 1), f"[[2_{k}]] != {k}/{k + 1}")
    return "[[2_k]] = k/(k+1) exactly for k <= 64"


# -- minkowski --------------------------------------------------------------------


def check_prop1(sweep_q: int, seed: int, samples: int, qmax: int) -> str:
    regular, semiregular = minkowski.question_mark_int, minkowski.question_mark_semiregular_int
    for pairs in (_swept_pairs(sweep_q), _random_pairs(seed, samples, qmax)):
        for p, q in pairs:
            if regular(p, q) != semiregular(p, q):  # the detail is built only on failure
                raise CheckFailed(f"route mismatch at {Fraction(p, q)}")
    return f"all q <= {sweep_q} plus {samples} random to q <= {_pow10(qmax)}"


def check_functional_equations(seed: int, samples: int, qmax: int) -> str:
    qm = minkowski.question_mark_int
    for p, q in _random_pairs(seed, samples, qmax):
        num, exp = qm(p, q)
        # ?(x) + ?((q - p)/q) = 1, both sides as integers over 2^e
        cnum, cexp = qm(q - p, q)
        e = max(exp, cexp)
        if (num << (e - exp)) + (cnum << (e - cexp)) != 1 << e:
            raise CheckFailed(f"symmetry failed at {Fraction(p, q)}")
        # ?(p/(p + q)) = ?(x)/2; num is odd, so halving only raises exp
        if qm(p, p + q) != (num, exp + 1):
            raise CheckFailed(f"contraction failed at {Fraction(p, q)}")
    return f"symmetry and contraction exact on {samples} samples"


def check_telescoping(seed: int, samples: int, qmax: int) -> str:
    for p, q in _random_pairs(seed, samples, qmax):
        x = Fraction(p, q)
        hs = minkowski.h_values(x)
        pairs = [h.pair for h in hs]  # h = m 2^k, k <= 0
        _need(all(m >= 0 for m, _ in pairs), f"negative h value at {x}")
        # sum_l h_l = 1 - ?(x), both sides as integers over 2^e
        num, exp = minkowski.question_mark_int(p, q)
        e = max(exp, *(-k for _, k in pairs))
        total = sum(m << (e + k) for m, k in pairs)
        _need(total == (1 << e) - (num << (e - exp)), f"sum h != 1 - ?(x) at {x}")
    return f"finite sums matched 1 - ?(x) on {samples} samples"


def check_monotonicity(samples: int) -> str:
    xs = sorted(set(_random_fractions(15, samples, 50_000)))
    vals = [minkowski.question_mark(x).as_fraction() for x in xs]
    detail = f"strictly increasing over {len(xs)} sorted rationals"
    _need(all(a < b for a, b in zip(vals, vals[1:])), f"not {detail}")
    return detail


# -- moments ----------------------------------------------------------------------


def check_farey_generation(nmax: int) -> str:
    for n in range(2, nmax + 1):
        gen = farey_generation(n)
        _need(len(gen) == 1 << (n - 2) and len(set(gen)) == len(gen), f"count/distinctness failed at n={n}")
        _need(all(0 < x < 1 for x in gen), f"value outside (0,1) at n={n}")
    return f"2^(n-2) distinct fractions for n <= {nmax}"


def check_farey_first_moment(nmax: int) -> str:
    for n in range(2, nmax + 1):
        _need(farey_moment(1, n) == Fraction(1, 2), f"mean != 1/2 at n={n}")
    return f"exactly 1/2 for every n <= {nmax}"


def check_farey_m2_gap(n: int) -> str:
    gap = abs(float(farey_moment(2, n)) - float(moments.moment(2, 1e-6).value.value))
    _need(gap <= 0.02, f"|F_2({n}) - m_2| = {gap:.2e} > 0.02")
    return f"|F_2({n}) - m_2| = {gap:.2e} <= 0.02"


def check_vterm_bound() -> str:
    for L in range(1, 6):
        for ell in range(21):
            v = moments.v_term(L, ell)
            _need(v.hi < Fraction(1, 2**ell), f"V_{ell}(L={L}) not below 2^-{ell}")
            _need(v.lo > 0, f"V_{ell}(L={L}) not positive")
    return "0 < V_l < 2^-l for L <= 5, l <= 20"


def check_q_truncation() -> str:
    for L in (1, 2):
        for ell in (1, 2, 3, 5):
            lo, hi = (moments.v_term_partial(L, ell, Q) for Q in (100, 200))
            _need(hi.hi >= lo.lo, f"V_{ell}(L={L}) dropped from Q=100 to 200")
    # the proven gap, 2.2x the measured one: a quarter of it misses m_30(400) - m_30(100)
    for L in (1, 6, 30):
        low, high = (PrecReal(*moments._m_at(L, Q)) for Q in (100, 400))
        gap = moments._gap(L, 100)
        _need(high.hi >= low.lo, f"m_{L} dropped from Q=100 to 400")
        _need(high.lo.as_fraction() <= low.hi.as_fraction() + Fraction(gap), f"m_{L}(400) passed m_{L}(100) + {gap:.3g}")
    return "V_l(100) <= V_l(200), and m_L(100) <= m_L(400) <= m_L(100) + gap(L, 100) for L in {1, 6, 30}"


def check_published_digits() -> str:
    total = Fraction(0)
    for ell, want in enumerate(PUBLISHED_TERMS):
        got = moments.v_term(1, ell).value
        _need(abs(float(got) - want) <= 5e-10, f"V_{ell} = {float(got):.10f}, published {want}")
        total += got.as_fraction()
    _need(abs(float(total) - PUBLISHED_SUM) <= 1e-9, f"V_0 + ... + V_3 = {float(total):.10f}")
    return f"V_0..V_3 of m_1 within 5e-10 of the published digits, sum {PUBLISHED_SUM}"


def check_suma_oracle(B: int, ellmax: int) -> str:
    for L in (1, 2, 3):
        a = [moments.a_partial_direct(L, ell, B) for ell in range(ellmax + 2)]
        for ell in range(ellmax + 1):
            v = moments.v_term(L, ell)
            _need(v.agrees(a[ell + 1] - a[ell]), f"V != delta A at L={L}, l={ell}")
    return "V_l matched A_(l+1) - A_l within combined radii"


def check_moment_range() -> str:
    prev = None
    for L in range(1, 7):
        est = moments.moment(L, 1e-6)
        _need(0 < est.value.lo and est.value.hi < 1, f"m_{L} escaped (0,1)")
        _need(prev is None or est.value.value < prev, f"m_{L} not below m_{L - 1}")
        prev = est.value.value
    return "0 < m_6 < ... < m_1 < 1 at eps = 1e-6"


def check_first_moment_half() -> str:
    est = moments.moment(1, 1e-6)
    _need(est.value.contains(Fraction(1, 2)), f"the ball {est.value} misses 1/2")
    got = float(est.value.value)
    _need(abs(got - 0.5) <= 1e-6, f"m_1 = {got:.9f} is not within 1e-6 of 1/2")
    return f"moment(1, 1e-6) = {got:.9f} within 1e-6 of 1/2"


def check_symmetry_residuals() -> str:
    ests = [moments.moment(L, 1e-6) for L in range(1, 6)]
    for L, res in enumerate(moments.symmetry_residual(ests), start=1):
        _need(res.contains(0), f"residual {L} excludes 0: {res}")
    return "reflection residuals contain 0 for L <= 5"


def check_m2_m3_relation() -> str:
    m2, m3 = (float(moments.moment(L, 1e-7).value.value) for L in (2, 3))
    resid = abs(3 * m2 - 2 * m3 - 0.5)
    _need(resid <= 1e-6, f"|3 m2 - 2 m3 - 1/2| = {resid:.2e} > 1e-6")
    return f"|3 m2 - 2 m3 - 1/2| = {resid:.2e} <= 1e-6 at eps = 1e-7"


def check_series_solve_vs_chain(Q: int, ells: int) -> str:
    # the series as the l-chain c_L + V_1 + ... + V_ells, whose rest is at most c_1 2^-ells
    tail = moments.v_term_partial(1, 0, Q).hi.as_fraction() / 2**ells
    for L in range(1, 7):
        chain = sum((moments.v_term_partial(L, ell, Q) for ell in range(ells + 1)), PrecReal(tail / 2, tail / 2))
        _need(PrecReal(*moments._m_at(L, Q)).agrees(chain), f"m_{L}(Q = {Q}) misses the l-chain {chain}")
    return f"c_L + u . y met c_L + V_1 + ... + V_{ells} + [0, c_1 2^-{ells}] at Q = {Q}, L <= 6"


def check_transfer_entries() -> str:
    # the matrix the series chain multiplies by; binom(1,1) = binom(2,2) = 1,
    # so the corner entries are c_2 and c_3 themselves
    mid, rel = moments._rows(1, 10, 10)
    _need(bool((mid > 0).all() and (mid < 1).all()), "an entry escaped (0, 1)")
    for col, s in ((0, 2), (1, 3)):
        want = _c_mpmath(s)
        _need(abs(Fraction(mid[0, col]) - want) <= Fraction(rel) * want, "corner entries disagree with c_2 / c_3")
    return "10x10 entries in (0,1); corners match mpmath's c_2, c_3"


def check_h_integral_identity(pairs: tuple[tuple[int, int], ...]) -> str:
    for ell, B in pairs:
        left, right = moments.h_integral_identity_check(1, ell, B)
        _need(left.agrees(right), f"sides disagree at l={ell}")
        _need(left.hi < Fraction(1, 2 ** (ell + 1)), f"left side not below 2^-(l+1) at l={ell}")
    return f"sides overlap and obey the 2^-(l+1) bound, l <= {max(ell for ell, _ in pairs)}"


# -- quadrature -------------------------------------------------------------------


def check_quadrature_ell0() -> str:
    cfg = quadrature.QuadConfig(nodes_per_axis=64)
    for L in range(1, 7):
        got = quadrature.kernel_integral(L, 0, cfg)
        want = moments.v_term_partial(L, 0, 1) * math.factorial(L - 1)  # V_0 = c_L
        _need(got.agrees(want, 1e-8), f"integral != (L-1)! c_L at L={L}")
    return "1-D integrals matched (L-1)! c_L for L <= 6"


def check_quadrature_cross() -> str:
    for L in (1, 2, 3):
        for ell, nodes, tol in ((0, 64, 1e-8), (1, 48, 1e-6), (2, 32, 1e-4)):
            got = quadrature.kernel_integral(L, ell, quadrature.QuadConfig(nodes_per_axis=nodes))
            want = moments.v_term(L, ell) * math.factorial(L - 1)
            _need(got.agrees(want, tol), f"mismatch at L={L}, l={ell}")
    return "integrals matched (L-1)! V_l for L <= 3, l <= 2"


def check_quadrature_monotone_cfg() -> str:
    base = quadrature.kernel_integral(1, 1, quadrature.QuadConfig(X=30.0, nodes_per_axis=48))
    for cfg in (
        quadrature.QuadConfig(X=40.0, nodes_per_axis=48),
        quadrature.QuadConfig(X=30.0, nodes_per_axis=96),
    ):
        # the lower edge may move down only within the reported radii,
        # i.e. the enlarged-rule ball still overlaps the base ball
        _need(quadrature.kernel_integral(1, 1, cfg).agrees(base), f"ball escaped at {cfg}")
    return "larger X / more nodes stayed within radii"


# -- conjecture -------------------------------------------------------------------


def check_qprime_reference() -> str:
    _need(q_prime_at_minus_one(8) == QPRIME_REFERENCE, "the derivative values differ from the published list")
    return "first nine derivative values match the published list"


def check_dyadic_denominators() -> str:
    for n, poly in enumerate(q_sequence(20)):
        for e, c in poly.coeffs:
            d = c.denominator
            _need(d & (d - 1) == 0, f"coeff z^{e} of Q_{n} has den {d}")
    return "all Q_n coefficients dyadic for n <= 20"


def check_recurrence_deterministic() -> str:
    full = q_sequence(12)
    for n in range(13):
        _need(q_sequence(n)[n].coeffs == full[n].coeffs, f"fresh Q_{n} differs from incremental run")
    return "fresh and incremental coefficient maps identical"


def check_lambda_integral(nmax: int) -> str:
    # int_0^T t^n/n! e^-t dt is the regularized lower incomplete gamma P(n+1, T)
    from mpmath import mp

    coeffs = q_prime_at_minus_one(nmax)
    for T in (1, 6, 30):
        with mp.workprec(300):
            terms = [q * mp.gammainc(n + 1, 0, T, regularized=True) for n, q in enumerate(coeffs)]
            wants = [mp.fsum(terms[: N + 1]) for N in range(nmax + 1)]
        for N, want in enumerate(wants):
            ball = _lambda_integral(T, coeffs[: N + 1])[0]
            _need(ball.contains(want), f"missed sum q_n P(n+1, {T}) at N = {N}")
    return f"closed-form balls contain sum q_n P(n+1, T) for N <= {nmax}, T in (1, 6, 30)"


def check_m2_report(N: int) -> str:
    rep = conjecture_m2_report(T=6.0, N=N)
    emitted = rep["m2_series"]["value"] and rep["lambda_integral"]["value"] and rep["difference"]
    _need(bool(emitted), f"the report left a value empty at N = {N}")
    return f"both values emitted at T = 6, N = {N} (difference {rep['difference']}); no assertion made"


# -- the registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    """A named check and its sizes.  `criterion` is the number of the
    contractual criterion the entry belongs to, if any; a criterion may
    span several entries."""

    name: str
    fn: Callable[..., str]
    desk: dict = field(default_factory=dict)
    contract: dict | None = None  # None: the desk size is the contract size
    criterion: int | None = None


REGISTRY = [
    Entry("c-coeff-bounds", check_c_bounds),
    Entry("ball-soundness", check_ball_soundness, dict(samples=120)),
    Entry("bessel-series-consistency", check_bessel_kernel),
    Entry("cf-roundtrip", check_roundtrips, dict(samples=400)),
    Entry("angle-equivalence", check_angle_equivalence),
    Entry("ramharter-convergence", check_ramharter, dict(samples=200)),
    Entry("all-two-sequences", check_all_two_runs),
    Entry("prop1-equivalence", check_prop1, dict(sweep_q=400, seed=12, samples=2000, qmax=10**4),
          dict(sweep_q=2000, seed=501, samples=10**4, qmax=10**6), criterion=5),
    Entry("functional-equations", check_functional_equations, dict(seed=13, samples=2000, qmax=10**5),
          dict(seed=602, samples=10**4, qmax=10**6), criterion=6),
    Entry("h-telescoping", check_telescoping, dict(seed=14, samples=2000, qmax=10**5),
          dict(seed=703, samples=10**4, qmax=10**6), criterion=7),
    Entry("qm-monotone", check_monotonicity, dict(samples=400)),
    Entry("farey-generation", check_farey_generation, dict(nmax=12)),
    Entry("farey-first-moment", check_farey_first_moment, dict(nmax=12), dict(nmax=24), criterion=10),
    Entry("farey-m2-gap", check_farey_m2_gap, dict(n=12), dict(n=24), criterion=10),
    Entry("vterm-bound", check_vterm_bound, criterion=11),
    Entry("q-truncation", check_q_truncation),
    Entry("published-digits", check_published_digits, criterion=1),
    Entry("suma-oracle", check_suma_oracle, dict(B=30, ellmax=2), dict(B=40, ellmax=3), criterion=9),
    Entry("series-solve-vs-chain", check_series_solve_vs_chain, dict(Q=200, ells=40)),
    Entry("moment-range", check_moment_range),
    Entry("first-moment-half", check_first_moment_half, criterion=2),
    Entry("symmetry-residuals", check_symmetry_residuals),
    Entry("m2-m3-relation", check_m2_m3_relation, criterion=3),
    Entry("transfer-entries", check_transfer_entries),
    Entry("h-integral-identity", check_h_integral_identity, dict(pairs=((0, 24), (1, 24), (2, 24))),
          dict(pairs=((0, 40), (1, 40), (2, 30), (3, 20))), criterion=11),
    Entry("quadrature-ell0", check_quadrature_ell0, criterion=8),
    Entry("quadrature-cross", check_quadrature_cross, criterion=8),
    Entry("quadrature-config-stability", check_quadrature_monotone_cfg),
    Entry("qprime-reference", check_qprime_reference, criterion=4),
    Entry("qn-dyadic-denominators", check_dyadic_denominators, criterion=4),
    Entry("qn-recompute", check_recurrence_deterministic),
    Entry("lambda-integral", check_lambda_integral, dict(nmax=12)),
    Entry("m2-report", check_m2_report, dict(N=20), dict(N=60), criterion=12),
]


def run_entry(entry: Entry, contract: bool = False) -> Check:
    sizes = entry.contract if contract and entry.contract is not None else entry.desk
    try:
        return Check(entry.name, True, entry.fn(**sizes))
    except CheckFailed as exc:
        return Check(entry.name, False, str(exc))
    except Exception as exc:  # a crash is a failure, not an abort
        return Check(entry.name, False, f"raised {exc!r}")


def run_all() -> list[Check]:
    """Every registry entry at its desk size, in registry order."""
    return [run_entry(entry) for entry in REGISTRY]
