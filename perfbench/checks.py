"""Correctness checks on the program's outputs.

Every check compares against a value the benchmark computes itself or
against a property the method must have; none compares against a saved
copy of earlier output.  Checks return a list of problems (empty when the
output is right).  A CLI output that cannot be parsed in its declared
format raises `Malformed`: that operation counts as failed, not as wrong.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from math import comb

# V_0..V_3 at L = 1, published cut (not rounded) after ten places: the true
# value lies in [digits, digits + 1e-10).
PUBLISHED_V = (Fraction("0.3862943611"), Fraction("0.0791502471"),
               Fraction("0.0226858500"), Fraction("0.0074990924"))
PUBLISHED_UNIT = Fraction(1, 10**10)
# the first nine values of Q_n'(-1)
PUBLISHED_QPRIME = [Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-5, 2),
                    Fraction(25, 4), Fraction(-16), Fraction(43), Fraction(-971, 8),
                    Fraction(1417, 4)]


class Malformed(Exception):
    """Output that does not parse in its declared format.  `problems` holds
    wrong values found in the parts that did parse."""

    def __init__(self, message: str, problems=()):
        super().__init__(message)
        self.problems = list(problems)


# -- independent references ------------------------------------------------------


def regular_digits(p: int, q: int) -> list[int]:
    out = []
    while p:
        a, r = divmod(q, p)
        out.append(a)
        p, q = r, p
    return out


def question_mark_ref(x: Fraction) -> Fraction:
    """?(x) = 2^(1-a1) - 2^(1-(a1+a2)) + ... from the regular digits."""
    if x == 1:
        return Fraction(1)
    total, s, sign = Fraction(0), 0, 1
    for a in regular_digits(x.numerator, x.denominator):
        s += a
        total += sign * Fraction(2, 1 << s)
        sign = -sign
    return total


def eval_regular(digits) -> Fraction:
    t = Fraction(0)
    for a in reversed(digits):
        t = 1 / (a + t)
    return t


def eval_semiregular(digits) -> Fraction:
    t = Fraction(0)
    for b in reversed(digits):
        t = 1 / (b - t)
    return t


def mpf_fraction(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def ball(x) -> tuple[Fraction, Fraction]:
    """A program PrecReal as an exact (midpoint, radius) pair."""
    return mpf_fraction(x.value), mpf_fraction(x.radius)


def printed_ball(value: str, radius: str) -> tuple[Fraction, Fraction]:
    """A printed `value ± radius` as a ball that also covers the rounding of
    the printed midpoint to its last decimal place."""
    try:
        mid, rad = Fraction(value), Fraction(radius)
    except ValueError as exc:
        raise Malformed(f"not a decimal ball: {value!r} ± {radius!r}") from exc
    places = len(value.split(".", 1)[1]) if "." in value else 0
    return mid, rad + Fraction(1, 2 * 10**places)


def contains(b, x) -> bool:
    return abs(b[0] - x) <= b[1]


def overlaps(a, b) -> bool:
    return abs(a[0] - b[0]) <= a[1] + b[1]


def published(terms) -> tuple[Fraction, Fraction]:
    """The interval a sum of cut published values allows, as a ball."""
    unit = len(terms) * PUBLISHED_UNIT
    return sum(terms) + unit / 2, unit / 2


def reflection_residual(ms: list, L: int):
    """sum_k C(L,k) (-1)^k m_k - m_L with m_0 = 1, as a ball (0 when sound)."""
    mid, rad = Fraction(1), Fraction(0)
    for k in range(1, L + 1):
        c = comb(L, k) * (-1) ** k
        mid += c * ms[k - 1][0]
        rad += abs(c) * ms[k - 1][1]
    return mid - ms[L - 1][0], rad + ms[L - 1][1]


def moment_table_problems(ms: list, eps: Fraction | None) -> list[str]:
    """Balls m_1..m_n: inside (0, 1), decreasing, reflection relations at
    L = 1, 3, 5 contain 0, and m_1 contains 1/2 (radius <= eps if given)."""
    p = []
    for L, b in enumerate(ms, start=1):
        if not (0 < b[0] - b[1] and b[0] + b[1] < 1):
            p.append(f"m_{L} ball {float(b[0])} ± {float(b[1])} leaves (0, 1)")
    for L in range(1, len(ms)):
        if not ms[L][0] + ms[L][1] < ms[L - 1][0] - ms[L - 1][1]:
            p.append(f"m_{L + 1} does not lie below m_{L}")
    if not contains(ms[0], Fraction(1, 2)):
        p.append("m_1 ball misses 1/2")
    if eps is not None and ms[0][1] > eps:
        p.append(f"m_1 radius {float(ms[0][1])} above the requested {float(eps)}")
    for L in (1, 3, 5):
        if L <= len(ms) and not contains(reflection_residual(ms, L), 0):
            p.append(f"reflection relation at L = {L} excludes 0")
    return p


def qprime_problems(polys) -> list[str]:
    """Q_n'(-1) from each Laurent polynomial's coefficients (c e (-1)^(e-1)),
    compared with the published values; every denominator a power of 2."""
    p = []
    got = [sum(c * e * (-1) ** ((e - 1) % 2) for e, c in poly.coeffs) for poly in polys[:9]]
    if got != PUBLISHED_QPRIME[: len(got)]:
        p.append(f"Q_n'(-1) {got} differs from the published values")
    for n, poly in enumerate(polys):
        for e, c in poly.coeffs:
            d = c.denominator
            if d & (d - 1):
                p.append(f"Q_{n} coefficient of z^{e} has denominator {d}")
                break
    return p


# -- README CLI examples ---------------------------------------------------------

_LINE = re.compile(r"^(.+?) = (\S+)(?: ± (\S+))?(?:  \(exact\))?$")


def _human(stdout: str) -> dict[str, tuple[str, str | None]]:
    out = {}
    for line in stdout.splitlines():
        m = _LINE.match(line)
        if m:
            out[m.group(1)] = (m.group(2), m.group(3))
    return out


def _need(fields: dict, name: str) -> tuple[str, str | None]:
    if name not in fields:
        raise Malformed(f"no line for {name!r}")
    return fields[name]


def _ball_field(fields, name):
    value, radius = _need(fields, name)
    if radius is None:
        raise Malformed(f"{name} has no radius")
    return printed_ball(value, radius)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise Malformed(f"not a rational: {text!r}") from exc


def _digits(text: str, pattern: str) -> list[int]:
    m = re.fullmatch(pattern, text)
    if not m:
        raise Malformed(f"not a continued fraction: {text!r}")
    return [int(t) for t in m.group(1).split(",")]


def check_qm_eval(stdout, ctx):
    try:
        doc = json.loads(stdout)
        value = doc["results"][0]["value"]
        agree = doc["checks"][0]["pass"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise Malformed(f"qm eval JSON: {exc}") from exc
    want = question_mark_ref(Fraction(3, 7))
    p = [] if _fraction(value) == want else [f"?(3/7) printed {value}, expected {want}"]
    return p + ([] if agree is True else ["route-agreement did not pass"])


def check_cf_expand(stdout, ctx):
    f = _human(stdout)
    reg = _digits(_need(f, "regular")[0], r"\[0;(\d+(?:,\d+)*)\]")
    semi = _digits(_need(f, "semiregular")[0], r"\[\[(\d+(?:,\d+)*)\]\]")
    x = Fraction(3, 7)
    p = []
    if eval_regular(reg) != x:
        p.append(f"regular digits {reg} do not evaluate to 3/7")
    if min(semi) < 2 or eval_semiregular(semi) != x:
        p.append(f"semi-regular digits {semi} do not evaluate to 3/7")
    return p


def check_cf_convert(stdout, ctx):
    f = _human(stdout)
    digits = _digits(_need(f, "prefix")[0], r"\[\[(\d+(?:,\d+)*)\]\]")
    value = _fraction(_need(f, "prefix_value")[0])
    err = _fraction(_need(f, "abs_error")[0])
    p = []
    if len(digits) != 5:
        p.append(f"prefix has {len(digits)} digits, asked for 5")
    if eval_semiregular(digits) != value:
        p.append(f"prefix {digits} does not evaluate to the printed {value}")
    true_err = abs(value - Fraction(1, 2))
    if abs(err - true_err) > true_err * Fraction(1, 10**5):
        p.append(f"abs_error {err} differs from |{value} - 1/2|")
    if true_err > Fraction(2, 5):  # the 2/K envelope of the digit-stream twin
        p.append("prefix value farther than 2/K from 1/2")
    return p


def check_moments_series(stdout, ctx):
    b = _ball_field(_human(stdout), "m_1")
    return moment_table_problems([b], Fraction(1, 10**9))


def check_moments_farey(stdout, ctx):
    f = _human(stdout)
    exact = _fraction(_need(f, "m_2[n=20]")[0])
    approx = _fraction(_need(f, "m_2[n=20] ~")[0])
    ctx["farey_m2"] = exact  # compared with the table's m_2 further on
    if abs(approx - exact) > Fraction(1, 10**9):
        return ["the decimal farey value disagrees with the exact one"]
    return []


def check_moments_bessel(stdout, ctx):
    b = _ball_field(_human(stdout), "m_1[integral terms l<=2]")
    if overlaps(b, published(PUBLISHED_V[:3])):
        return []
    return [f"integral partial sum {float(b[0])} ± {float(b[1])} misses V_0 + V_1 + V_2"]


def check_moments_table(stdout, ctx):
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["L", "method", "value", "radius", "params"]:
        raise Malformed(f"unexpected CSV header {rows[:1]}")
    balls = []
    for L, row in enumerate(rows[1:], start=1):
        if len(row) < 4 or row[0] != str(L):
            raise Malformed(f"CSV row {L}: {row}")
        balls.append(printed_ball(row[2], row[3]))
    p = moment_table_problems(balls, None)
    if len(balls) != 6:
        p.append(f"table has {len(balls)} rows, asked for 6")
    ctx["table"] = balls
    if "farey_m2" in ctx and len(balls) >= 2 and abs(ctx["farey_m2"] - balls[1][0]) > Fraction(2, 100):
        p.append(f"farey m_2(20) = {float(ctx['farey_m2'])} is more than 0.02 from m_2")
    bad = [row for row in rows[1:] if len(row) != len(rows[0])]
    if bad:
        # values are still checked above; the row shape is the format failure
        raise Malformed(f"{len(bad)} CSV rows have {len(bad[0])} fields under a "
                        f"{len(rows[0])}-field header", p)
    return p


def check_conjecture_qseq(stdout, ctx):
    value, _ = _need(_human(stdout), "q_prime_at_minus_one")
    got = [_fraction(t) for t in value.split(",")]
    return [] if got == PUBLISHED_QPRIME else [f"Q_n'(-1) printed {value}"]


def check_conjecture_m2(stdout, ctx):
    f = _human(stdout)
    m2 = _ball_field(f, "m2_series")
    lam = _ball_field(f, "lambda_integral")
    diff = _fraction(_need(f, "difference")[0])
    p = []
    if "table" in ctx and not overlaps(m2, ctx["table"][1]):
        p.append("m2_series does not overlap the table's m_2")
    if abs(diff - (lam[0] - m2[0])) > Fraction(1, 10**7):
        p.append(f"difference {diff} is not lambda_integral - m2_series")
    return p


def check_verify_all(stdout, ctx):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines or not all(re.match(r"^\[(PASS|FAIL)\] ", ln) for ln in lines):
        raise Malformed("verify output is not one [PASS]/[FAIL] line per check")
    return [ln for ln in lines if not ln.startswith("[PASS] ")]


# The CLI examples of README.md, in order.  Each id names a `cli.<id>.s`
# metric; the checker receives stdout and a dict shared along one pass.
README_EXAMPLES = [
    ("qm-eval", "qm eval 3/7 --output json", check_qm_eval),
    ("cf-expand", "cf expand 3/7", check_cf_expand),
    ("cf-convert", "cf convert 1/2 --K 5", check_cf_convert),
    ("moments-series", "moments compute --L 1 --method series --precision 9", check_moments_series),
    ("moments-farey", "moments compute --L 2 --method farey --n 20", check_moments_farey),
    ("moments-bessel", "moments compute --L 1 --method bessel", check_moments_bessel),
    ("moments-table", "moments table --Lmax 6 --output csv", check_moments_table),
    ("conjecture-qseq", "conjecture qseq --n 8", check_conjecture_qseq),
    ("conjecture-m2", "conjecture m2", check_conjecture_m2),
    ("verify-all", "verify all", check_verify_all),
]
# examples whose output the result cache serves on the second pass
CACHED_EXAMPLES = {"moments-series", "moments-farey", "moments-bessel", "moments-table"}


def check_cli(example_id: str, returncode: int, stdout: str, ctx: dict) -> tuple[bool, list[str]]:
    """(failed, problems) for one CLI run: a nonzero exit or a malformed
    output is a failed operation; problems are wrong values."""
    if returncode != 0:
        return True, []
    checker = next(fn for eid, _, fn in README_EXAMPLES if eid == example_id)
    try:
        return False, checker(stdout, ctx)
    except Malformed as exc:
        return True, exc.problems
