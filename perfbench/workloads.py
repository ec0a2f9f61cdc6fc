"""Inputs, pass and output checks of the in-process workload, moment-routes.

`WORKLOADS[name]` is `(inputs, ops, check)`: `inputs(seed)` generates the
inputs from the seed alone, before timing; `ops(inputs, mk)` returns the
pass as a list of operations `(key, fn, args)`, where `mk` holds the
imported minkqm modules; `check(inputs, outputs)` returns the problems
with one pass's outputs, keyed like the operations.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from checks import (
    PUBLISHED_V,
    ball,
    moment_table_problems,
    overlaps,
    printed_ball,
    published,
    qprime_problems,
)

# -- moment-routes -----------------------------------------------------------------
#
# The L0 kernels and L2 engines do the work: the series route through the
# transfer chain (reaching Q = 400 through L = 32 at eps = 1e-10), the digit-
# sum oracle, the Bessel-kernel quadrature, exact Farey moments and the
# recurrence.  The seed picks the moment orders and the series eps; sizes
# that set the cost (B, n, N, the chain's Q) are fixed.

ORACLE_B = 28  # digit cap of a_partial_direct, l <= 4: (B-1)^4 tuples
IDENTITY_B = 18  # digit cap of h_integral_identity_check, l <= 3
FAREY_N = 20
QSEQ_N = 50


def moment_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    eps = rng.choice((1e-8, 1e-9, 1e-10))
    extra = sorted(rng.sample(range(7, 32), 10))
    return {
        "eps": eps,
        "series_L": list(range(1, 7)) + extra,
        "oracle_L": rng.choice((1, 2, 3)),
        "quad_L": rng.randint(1, 4),
        "farey_L": [1, 2, 3, rng.randint(4, 8)],
    }


def moment_ops(inputs: dict, mk) -> list:
    m, q, f, c = mk.moments, mk.quadrature, mk.farey, mk.conjecture
    Lo, Lq = inputs["oracle_L"], inputs["quad_L"]
    ops = [(("moment", L, inputs["eps"]), m.moment, (L, inputs["eps"])) for L in inputs["series_L"]]
    ops.append((("moment", 32, 1e-10), m.moment, (32, 1e-10)))
    ops += [(("v", L, ell), m.v_term, (L, ell)) for L in range(1, 5) for ell in range(4)]
    ops += [(("A", Lo, ell), m.a_partial_direct, (Lo, ell, ORACLE_B)) for ell in range(5)]
    ops += [(("hid", Lo, ell), m.h_integral_identity_check, (Lo, ell, IDENTITY_B))
            for ell in range(4)]
    ops += [(("K", Lq, ell), q.kernel_integral, (Lq, ell)) for ell in range(3)]
    ops += [(("F", L), f.farey_moment, (L, FAREY_N)) for L in inputs["farey_L"]]
    ops.append((("qseq",), c.q_sequence, (QSEQ_N,)))
    ops.append((("m2report",), c.conjecture_m2_report, ()))
    return ops


def moment_check(inputs: dict, out: dict) -> list[str]:
    p = []
    eps = inputs["eps"]
    series = {L: ball(out[("moment", L, eps)].value) for L in inputs["series_L"]
              if ("moment", L, eps) in out}
    if len(series) == len(inputs["series_L"]):
        ordered = [series[L] for L in sorted(series)]
        p += moment_table_problems(ordered, Fraction(eps))
    for key, est in out.items():
        if key[0] == "moment":
            b = ball(est.value)
            if b[1] > Fraction(key[2]):
                p.append(f"m_{key[1]} radius {float(b[1])} above eps {key[2]}")
    for ell in range(4):
        v = out.get(("v", 1, ell))
        if v is not None and not overlaps(ball(v), published(PUBLISHED_V[ell:ell + 1])):
            p.append(f"V_{ell} at L = 1 misses the published {float(PUBLISHED_V[ell])}")
    Lo, Lq = inputs["oracle_L"], inputs["quad_L"]
    for ell in range(4):
        v, a0, a1 = out.get(("v", Lo, ell)), out.get(("A", Lo, ell)), out.get(("A", Lo, ell + 1))
        if None not in (v, a0, a1):
            diff = (ball(a1)[0] - ball(a0)[0], ball(a1)[1] + ball(a0)[1])
            if not overlaps(ball(v), diff):
                p.append(f"V_{ell} at L = {Lo} does not overlap A_{ell + 1} - A_{ell}")
        pair = out.get(("hid", Lo, ell))
        if pair is not None and not overlaps(ball(pair[0]), ball(pair[1])):
            p.append(f"step-weight integral identity fails at L = {Lo}, l = {ell}")
    fact = math.factorial(Lq - 1)
    for ell in range(3):
        k, v = out.get(("K", Lq, ell)), out.get(("v", Lq, ell))
        if k is not None and v is not None:
            kb = ball(k)
            if not overlaps((kb[0] / fact, kb[1] / fact), ball(v)):
                p.append(f"kernel_integral/(L-1)! does not overlap V_{ell} at L = {Lq}")
    F = {L: out.get(("F", L)) for L in (1, 2, 3)}
    if F[1] is not None and F[1] != Fraction(1, 2):
        p.append(f"farey_moment(1, {FAREY_N}) = {F[1]}, not 1/2")
    if F[2] is not None and F[3] is not None and 3 * F[2] - 2 * F[3] != Fraction(1, 2):
        p.append("3 F_2 - 2 F_3 != 1/2")
    if F[2] is not None and 2 in series and abs(F[2] - series[2][0]) > Fraction(2, 100):
        p.append(f"|F_2({FAREY_N}) - m_2| > 0.02")
    if ("qseq",) in out:
        p += qprime_problems(out[("qseq",)])
    rep = out.get(("m2report",))
    if rep is not None:
        m2 = printed_ball(rep["m2_series"]["value"], rep["m2_series"]["radius"])
        if 2 in series and not overlaps(m2, series[2]):
            p.append("the m2 report's series value does not overlap m_2")
        for k in ("lambda_integral", "difference"):
            if k not in rep:
                p.append(f"the m2 report has no {k}")
    return p


WORKLOADS = {"moment-routes": (moment_inputs, moment_ops, moment_check)}
