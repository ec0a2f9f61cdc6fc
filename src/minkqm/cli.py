"""Command-line front end.

Subcommands: `qm eval`, `cf expand`, `cf convert`, `moments compute`,
`moments table`, `conjecture qseq`, `conjecture m2`, `verify all`.
Exit codes: 0 ok, 1 failed verification, 2 usage, 3 precision unreachable,
4 resource cap, 5 internal error (a fault in minkqm; traceback on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import traceback
from fractions import Fraction

from . import __version__
from .balls import PrecReal, _decimal as _int_str, format_ball, nstr, rounded
from .cache import ENV_CACHE, ResultCache, result_key
from .conjecture import conjecture_m2_report, q_prime_at_minus_one
from .contfrac import (
    RegularCF,
    parse_cf,
    regular_expand,
    regular_to_semiregular,
    semiregular_expand,
    eval_semiregular,
)
from .errors import DomainError, MinkqmError, PrecisionUnreachableError, ResourceLimitError
from .minkowski import question_mark, question_mark_semiregular
from .farey import farey_moment
from .moments import moment
from .quadrature import QuadConfig, kernel_integral
from .verify import run_all

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5

# digits of a Farey moment's decimal, whose conversion is quadratic: `moments
# compute --L 2 --method farey --n 8 --precision 262144` takes 1.1-1.3 s (2-CPU Xeon)
_FAREY_DIGITS_MAX = 1 << 18


def _series_eps(precision: int) -> float:
    """eps = 10^-precision of the series route."""
    eps = 10.0 ** (-precision)
    if eps == 0.0:  # past float64's subnormals, so past every engine's floor
        raise PrecisionUnreachableError(f"precision {precision} underflows float64")
    return eps


# -- formatting -------------------------------------------------------------------


def exact_str(x) -> str:
    """str(x) of a Fraction or Dyadic with no cap on its digits.

    Python caps int-to-str conversion (4300 digits by default); exact Farey
    moments pass it from n = 20 on, and so does ?(1/q) = 2^(1-q) from
    q = 14286 on, so both print through the uncapped ``balls._decimal``.
    """
    if isinstance(x, Fraction):
        num = _int_str(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_int_str(x.denominator)}"
    return str(x)


def _decimal(x: Fraction, digits: int, bits: int = 53) -> str:
    """x to `digits` significant digits as mpmath printed mpf(numerator) /
    denominator at `bits` bits: the numerator rounded to nearest, then the
    quotient."""
    num = rounded(x.numerator, bits).as_fraction()
    return nstr(rounded(num / x.denominator, bits), digits)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write_csv(rows):
    """Header and rows through csv.writer, so the params JSON is quoted."""
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(("L", "method", "value", "radius", "params"))
    out.writerows(rows)


def _emit(output: str, command: str, inputs: dict, results: list[dict], checks: list[dict]):
    if output == "json":
        sys.stdout.write(
            canonical_json(
                {"command": command, "inputs": inputs, "results": results, "checks": checks}
            )
        )
        return
    for r in results:
        if r.get("exact"):
            print(f"{r['name']} = {r['value']}  (exact)")
        elif "radius" in r:
            print(f"{r['name']} = {r['value']} ± {r['radius']}")
        else:
            print(f"{r['name']} = {r['value']}")
    for c in checks:
        print(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']}")


def _parse_fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            p, q = text.split("/", 1)
            return Fraction(int(p), int(q))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r}") from exc


# -- subcommands ------------------------------------------------------------------


def _cmd_qm_eval(args) -> int:
    x = _parse_fraction(args.value)
    primary = question_mark(x)
    other = question_mark_semiregular(x)
    results = [{"name": f"?({x})", "value": exact_str(primary), "exact": True}]
    checks = [{"name": "route-agreement", "pass": primary == other}]
    _emit(args.output, "qm eval", {"x": str(x)}, results, checks)
    return EXIT_OK if checks[0]["pass"] else EXIT_CHECK_FAILED


def _cmd_cf_expand(args) -> int:
    x = _parse_fraction(args.value)
    results = []
    if args.kind in ("regular", "both"):
        results.append({"name": "regular", "value": str(regular_expand(x)), "exact": True})
    if args.kind in ("semiregular", "both"):
        results.append({"name": "semiregular", "value": str(semiregular_expand(x)), "exact": True})
    _emit(args.output, "cf expand", {"x": str(x), "kind": args.kind}, results, [])
    return EXIT_OK


def _cmd_cf_convert(args) -> int:
    if args.value.lstrip().startswith("["):
        cf = parse_cf(args.value)
        if not isinstance(cf, RegularCF):
            raise DomainError("convert expects a regular continued fraction or a rational")
        source = cf
        x = None
    else:
        x = _parse_fraction(args.value)
        source = regular_expand(x)
    prefix = regular_to_semiregular(source, args.K)
    val = eval_semiregular(prefix)
    results = [
        {"name": "prefix", "value": str(prefix), "exact": True},
        {"name": "prefix_value", "value": exact_str(val), "exact": True},
    ]
    if x is not None:
        err = abs(val - x)
        results.append({"name": "abs_error", "value": _decimal(err, 6)})
    _emit(args.output, "cf convert", {"source": str(source), "K": args.K}, results, [])
    return EXIT_OK


def _replayed(handler):
    """The handler with its output replayed from the result cache, the file
    of --cache or $MINKQM_CACHE: a run that exits 0 stores what it printed
    under the key of this code and the arguments that reach that text (see
    minkqm.cache), and a later run with that key prints it again without
    computing.  Those arguments are all but --cache, less the flags that
    `moments compute`'s --method does not read; --precision stays for every
    method, as the JSON inputs print it."""

    @functools.wraps(handler)
    def run(args) -> int:
        path = args.cache or os.environ.get(ENV_CACHE)
        if not path:
            return handler(args)
        cache = ResultCache(path)
        method = getattr(args, "method", None)  # moments table has none
        unread = {"series": ("n", "X", "nodes"), "farey": ("X", "nodes"), "bessel": ("n",)}.get(method, ())
        key = result_key({k: v for k, v in vars(args).items() if k not in ("fn", "cache", *unread)})
        hit = cache.get(key)
        if hit is not None:
            sys.stdout.write(hit["stdout"])
            return EXIT_OK
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = handler(args)
        sys.stdout.write(out.getvalue())
        if code == EXIT_OK:
            cache.put(key, {"stdout": out.getvalue()})
        return code

    return run


def _ball_result(name: str, ball: PrecReal) -> dict:
    value, radius = format_ball(ball)
    return {"name": name, "value": value, "radius": radius}


@_replayed
def _cmd_moments_compute(args) -> int:
    L = args.L  # the engines check L >= 1
    if args.method == "series":
        est = moment(L, _series_eps(args.precision))
        params = est.params
        results = [_ball_result(f"m_{L}", est.value)]
    elif args.method == "farey":
        if args.precision > _FAREY_DIGITS_MAX:
            raise ResourceLimitError(f"a Farey decimal is capped at {_FAREY_DIGITS_MAX} digits, got {args.precision}")
        val = farey_moment(L, args.n)
        approx = _decimal(val, args.precision, int(args.precision * 3.33) + 64)  # enough bits for the digits
        params = {"n": args.n}
        results = [
            {"name": f"m_{L}[n={args.n}]", "value": exact_str(val), "exact": True},
            {"name": f"m_{L}[n={args.n}] ~", "value": approx},
        ]
    else:
        qcfg = QuadConfig(X=args.X, nodes_per_axis=args.nodes)
        terms = [kernel_integral(L, ell, qcfg) for ell in range(3)]
        fact = math.factorial(L - 1)  # after kernel_integral has accepted L
        total = sum((t / fact for t in terms), PrecReal(0))
        # the remaining series terms past l = 2 sum to below 2^-2; reported as
        # metadata so the partial sum stays readable
        params = {"X": args.X, "nodes": args.nodes, "lmax": 2, "series_tail_bound": 0.25}
        results = [_ball_result(f"m_{L}[integral terms l<=2]", total)]
    if args.output == "csv":
        _write_csv((L, args.method, r["value"], r.get("radius", ""), json.dumps(params)) for r in results)
        return EXIT_OK
    inputs = {"L": L, "method": args.method, "precision": args.precision, "params": params}
    _emit(args.output, "moments compute", inputs, results, [])
    return EXIT_OK


@_replayed
def _cmd_moments_table(args) -> int:
    if args.Lmax < 1:
        raise DomainError(f"Lmax must be >= 1, got {args.Lmax}")
    eps = _series_eps(args.precision)
    ests = [moment(L, eps) for L in range(1, args.Lmax + 1)]
    if args.output == "csv":
        _write_csv((e.L, "series", *format_ball(e.value), json.dumps(e.params)) for e in ests)
        return EXIT_OK
    results = [_ball_result(f"m_{e.L}", e.value) for e in ests]
    inputs = {"Lmax": args.Lmax, "method": "series", "params": {f"m_{e.L}": e.params for e in ests}}
    _emit(args.output, "moments table", inputs, results, [])
    return EXIT_OK


def _cmd_conjecture_qseq(args) -> int:
    seq = q_prime_at_minus_one(args.n)
    results = [
        {"name": "q_prime_at_minus_one", "value": ",".join(str(f) for f in seq), "exact": True}
    ]
    _emit(args.output, "conjecture qseq", {"n": args.n}, results, [])
    return EXIT_OK


def _cmd_conjecture_m2(args) -> int:
    report = conjecture_m2_report(T=args.T, N=args.N)
    results = [
        {"name": "m2_series", "value": report["m2_series"]["value"], "radius": report["m2_series"]["radius"]},
        {"name": "lambda_integral", "value": report["lambda_integral"]["value"], "radius": report["lambda_integral"]["radius"]},
        {"name": "difference", "value": report["difference"]},
    ]
    inputs = {"params": report["params"], "heuristic": report["heuristic"]}
    _emit(args.output, "conjecture m2", inputs, results, [])
    if args.output == "human":
        h = report["heuristic"]
        print(f"lambda truncation indicator at T: {h['lambda_last_term_at_T']}")
        print(f"note: {h['note']}")
    return EXIT_OK


def _cmd_verify_all(args) -> int:
    checks = run_all()
    payload = [{"name": c.name, "pass": c.passed} for c in checks]
    if args.output == "json":
        _emit(args.output, "verify all", {}, [], payload)
    else:
        for c in checks:
            print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED


# -- parser -----------------------------------------------------------------------


def _int_at_least(least: int):
    """argparse type: an int >= least, so a smaller one is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() refuses the text
    return parse


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags that its handler reads."""
    ap = argparse.ArgumentParser(prog="minkqm", description=__doc__)
    ap.add_argument("--version", action="version", version=f"minkqm {__version__}")
    groups = ap.add_subparsers(dest="cmd", required=True)
    subs = {}

    def leaf(group: str, name: str, fn, outputs=("human", "json")):
        if group not in subs:
            subs[group] = groups.add_parser(group).add_subparsers(dest="sub", required=True)
        p = subs[group].add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--output", choices=outputs, default="human")
        # --cache names a file, a deployment setting like $MINKQM_CACHE, so every
        # subcommand takes it, also one that caches nothing; perfbench/run.py
        # appends it to every README example
        p.add_argument("--cache", default=None, help="cache file (or $MINKQM_CACHE)")
        return p

    p = leaf("qm", "eval", _cmd_qm_eval)
    p.add_argument("value")
    p = leaf("cf", "expand", _cmd_cf_expand)
    p.add_argument("value")
    p.add_argument("--kind", choices=("regular", "semiregular", "both"), default="both")
    p = leaf("cf", "convert", _cmd_cf_convert)
    p.add_argument("value", help="rational p/q or regular CF text [0;a1,...]")
    p.add_argument("--K", type=int, required=True)

    # CSV rows are L,method,value,radius,params: only the moments commands fill them
    csv_outputs = ("human", "json", "csv")
    precision = {"type": _int_at_least(6), "default": 10, "help": "target decimal digits (>= 6)"}
    p = leaf("moments", "compute", _cmd_moments_compute, csv_outputs)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--method", choices=("series", "farey", "bessel"), default="series")
    p.add_argument("--precision", **precision)
    p.add_argument("--n", type=int, default=20, help="Farey generation index")
    p.add_argument("--X", type=float, default=QuadConfig.X, help="quadrature box (<= 350)")
    p.add_argument("--nodes", type=int, default=QuadConfig.nodes_per_axis, help="quadrature nodes per axis (>= 12)")
    p = leaf("moments", "table", _cmd_moments_table, csv_outputs)
    p.add_argument("--Lmax", type=int, required=True)
    p.add_argument("--precision", **precision)

    p = leaf("conjecture", "qseq", _cmd_conjecture_qseq)
    p.add_argument("--n", type=int, required=True)
    p = leaf("conjecture", "m2", _cmd_conjecture_m2)
    p.add_argument("--T", type=float, default=6.0, help="integration limit")
    p.add_argument("--N", type=_int_at_least(1), default=60, help="recurrence length")

    leaf("verify", "all", _cmd_verify_all)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MinkqmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, PrecisionUnreachableError):
            return EXIT_PRECISION
        return EXIT_RESOURCE if isinstance(exc, ResourceLimitError) else EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
