"""Command-line front end.

Subcommands: `qm eval`, `cf expand`, `cf convert`, `moments compute`,
`moments table`, `conjecture qseq`, `conjecture m2`, `verify all`.
Exit codes: 0 ok, 1 failed verification, 2 usage, 3 precision unreachable,
4 resource cap, 5 internal error (a fault in minkqm; traceback on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from . import __version__
from .balls import PrecReal
from .cache import ResultCache, cache_key, resolve_cache_path
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
from .farey import _farey_limbs, farey_moment
from .moments import _moment_args, moment
from .quadrature import QuadConfig, kernel_integral
from .verify import run_all

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5


@dataclass
class RunConfig:
    precision: int = 10
    lmax: int = 25
    n: int = 20
    N: int = 60
    T: float = 6.0
    X: float = 40.0
    output: str = "human"
    cache_path: str | None = None

    def __post_init__(self):
        if self.precision < 6:
            raise DomainError(f"precision must be >= 6 decimal digits, got {self.precision}")
        for name in ("lmax", "n", "N"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if not (self.T > 0 and math.isfinite(self.T) and self.X > 0):
            raise DomainError(f"T must be positive and finite and X positive, got T = {self.T}, X = {self.X}")
        if self.output not in ("human", "json", "csv"):
            raise DomainError(f"unknown output mode {self.output!r}")

    @property
    def eps(self) -> float:
        eps = 10.0 ** (-self.precision)
        if eps == 0.0:  # past float64's subnormals, so past every engine's floor
            raise PrecisionUnreachableError(f"precision {self.precision} underflows float64")
        return eps


# -- formatting -------------------------------------------------------------------


def format_fixed(x: mpf, places: int) -> str:
    """Midpoint printed to a fixed number of decimal places."""
    with mp.workprec(int(places * 3.33) + 64):
        scaled = mp.nint(mpf(x) * mpf(10) ** places)
        n = int(scaled)
    sign = "-" if n < 0 else ""
    digits = str(abs(n)).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def format_ball(ball: PrecReal) -> tuple[str, str]:
    """(value string, radius string); digits justified by the radius."""
    r = ball.radius
    if r <= 0:
        return mp.nstr(ball.value, 17), "0"
    places = int(mp.floor(-mp.log10(r))) if r < 1 else 0
    places = max(0, min(places, 40))
    return format_fixed(ball.value, places), mp.nstr(r, 3)


def exact_str(x) -> str:
    """str(x) of an exact rational with no cap on its digits.

    Python caps int-to-str conversion (4300 digits by default); exact Farey
    moments pass it from n = 20 on, and so does ?(1/q) = 2^(1-q) from
    q = 14286 on, so the cap is lifted for this call.
    """
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(cap)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write_csv(rows):
    """Header and rows through csv.writer, so the params JSON is quoted."""
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(("L", "method", "value", "radius", "params"))
    out.writerows(rows)


def _emit(cfg: RunConfig, command: str, inputs: dict, results: list[dict], checks: list[dict]):
    if cfg.output == "json":
        sys.stdout.write(
            canonical_json(
                {"command": command, "inputs": inputs, "results": results, "checks": checks}
            )
        )
        return
    if cfg.output == "csv":
        _write_csv(
            (inputs.get("L", r.get("name")), inputs.get("method", "-"), r["value"],
             r.get("radius", ""), r.get("params", ""))
            for r in results
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


def _cmd_qm_eval(cfg: RunConfig, args) -> int:
    x = _parse_fraction(args.value)
    primary = question_mark(x)
    other = question_mark_semiregular(x)
    results = [{"name": f"?({x})", "value": exact_str(primary), "exact": True}]
    checks = [{"name": "route-agreement", "pass": primary == other}]
    _emit(cfg, "qm eval", {"x": str(x)}, results, checks)
    return EXIT_OK if checks[0]["pass"] else EXIT_CHECK_FAILED


def _cmd_cf_expand(cfg: RunConfig, args) -> int:
    x = _parse_fraction(args.value)
    results = []
    if args.kind in ("regular", "both"):
        results.append({"name": "regular", "value": str(regular_expand(x)), "exact": True})
    if args.kind in ("semiregular", "both"):
        results.append({"name": "semiregular", "value": str(semiregular_expand(x)), "exact": True})
    _emit(cfg, "cf expand", {"x": str(x), "kind": args.kind}, results, [])
    return EXIT_OK


def _cmd_cf_convert(cfg: RunConfig, args) -> int:
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
        {"name": "prefix_value", "value": str(val), "exact": True},
    ]
    if x is not None:
        err = abs(val - x)
        results.append({"name": "abs_error", "value": mp.nstr(mpf(err.numerator) / err.denominator, 6)})
    _emit(cfg, "cf convert", {"source": str(source), "K": args.K}, results, [])
    return EXIT_OK


def _cached(cache: ResultCache, key: str, compute) -> dict:
    """The cached entry under key, or compute() stored there.  Callers
    check the inputs first, so a cached entry exits as its computation."""
    hit = cache.get(key)
    if hit is None:
        hit = compute()
        cache.put(key, hit)
    return hit


def _series_moment_hit(cfg: RunConfig, cache: ResultCache, L: int) -> dict:
    def compute():
        est = moment(L, cfg.eps, lmax_min=cfg.lmax)
        value, radius = format_ball(est.value)
        return {"value": value, "radius": radius, "params": json.dumps(est.params, sort_keys=True)}

    _moment_args(L, cfg.eps, cfg.lmax)
    return _cached(cache, cache_key("series", L, cfg.lmax, "Qauto", cfg.eps), compute)


def _cmd_moments_compute(cfg: RunConfig, args) -> int:
    cache = ResultCache(resolve_cache_path(cfg.cache_path))
    L = args.L
    if L < 1:
        raise DomainError(f"moment order must be >= 1, got {L}")
    inputs = {"L": L, "method": args.method, "precision": cfg.precision}
    if args.method == "series":
        hit = _series_moment_hit(cfg, cache, L)
        results = [{"name": f"m_{L}", "value": hit["value"], "radius": hit["radius"]}]
    elif args.method == "farey":
        n = cfg.n

        def compute():
            val = farey_moment(L, n)
            approx = mp.nstr(mpf(val.numerator) / val.denominator, cfg.precision)
            return {"value": exact_str(val), "approx": approx, "exact": True, "params": json.dumps({"n": n})}

        _farey_limbs(L, n)
        hit = _cached(cache, cache_key("farey", L, n, "-", "-"), compute)
        results = [
            {"name": f"m_{L}[n={n}]", "value": hit["value"], "exact": True},
            {"name": f"m_{L}[n={n}] ~", "value": hit["approx"]},
        ]
    else:  # bessel
        qcfg = QuadConfig(X=cfg.X, nodes_per_axis=args.nodes)

        def compute():
            total = PrecReal.zero()
            fact = math.factorial(L - 1)
            for ell in range(3):
                total = total + kernel_integral(L, ell, qcfg) / fact
            value, radius = format_ball(total)
            return {
                "value": value,
                "radius": radius,
                # the remaining series terms past l = 2 sum to below 2^-2;
                # reported as metadata so the partial sum stays readable
                "params": json.dumps({"X": cfg.X, "nodes": args.nodes, "lmax": 2, "series_tail_bound": 0.25}),
            }

        key = cache_key("bessel", L, "0..2", f"X{cfg.X}-m{args.nodes}-gauss-legendre-composite", "-")
        hit = _cached(cache, key, compute)
        results = [{"name": f"m_{L}[integral terms l<=2]", "value": hit["value"], "radius": hit["radius"]}]
    inputs["params"] = json.loads(hit["params"])
    _emit(cfg, "moments compute", inputs, results, [])
    return EXIT_OK


def _cmd_moments_table(cfg: RunConfig, args) -> int:
    if args.Lmax < 1:
        raise DomainError(f"Lmax must be >= 1, got {args.Lmax}")
    cache = ResultCache(resolve_cache_path(cfg.cache_path))
    hits = [_series_moment_hit(cfg, cache, L) for L in range(1, args.Lmax + 1)]
    if cfg.output == "csv":
        _write_csv((L, "series", h["value"], h["radius"], h["params"]) for L, h in enumerate(hits, start=1))
        return EXIT_OK
    results = [
        {"name": f"m_{L}", "value": h["value"], "radius": h["radius"]}
        for L, h in enumerate(hits, start=1)
    ]
    inputs = {
        "Lmax": args.Lmax,
        "method": "series",
        "params": {f"m_{L}": json.loads(h["params"]) for L, h in enumerate(hits, start=1)},
    }
    _emit(cfg, "moments table", inputs, results, [])
    return EXIT_OK


def _cmd_conjecture_qseq(cfg: RunConfig, args) -> int:
    seq = q_prime_at_minus_one(args.n)
    results = [
        {"name": "q_prime_at_minus_one", "value": ",".join(str(f) for f in seq), "exact": True}
    ]
    _emit(cfg, "conjecture qseq", {"n": args.n}, results, [])
    return EXIT_OK


def _cmd_conjecture_m2(cfg: RunConfig, args) -> int:
    report = conjecture_m2_report(T=cfg.T, N=cfg.N)
    results = [
        {"name": "m2_series", "value": report["m2_series"]["value"], "radius": report["m2_series"]["radius"]},
        {"name": "lambda_integral", "value": report["lambda_integral"]["value"], "radius": report["lambda_integral"]["radius"]},
        {"name": "difference", "value": report["difference"]},
    ]
    inputs = {"params": report["params"], "heuristic": report["heuristic"]}
    _emit(cfg, "conjecture m2", inputs, results, [])
    if cfg.output == "human":
        h = report["heuristic"]
        print(f"lambda truncation indicator at T: {h['lambda_last_term_at_T']}")
        print(f"note: {h['note']}")
    return EXIT_OK


def _cmd_verify_all(cfg: RunConfig, args) -> int:
    checks = run_all()
    payload = [{"name": c.name, "pass": c.passed} for c in checks]
    if cfg.output == "json":
        _emit(cfg, "verify all", {}, [], payload)
    else:
        for c in checks:
            print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED


# -- parser -----------------------------------------------------------------------


_GLOBAL_FLAGS = [
    (("--output",), {"choices": ("human", "json", "csv"), "default": RunConfig.output}),
    (("--precision",), {"type": int, "default": RunConfig.precision, "help": "target decimal digits (>= 6)"}),
    (("--cache",), {"default": None, "help": "cache file (or $MINKQM_CACHE)"}),
    (("--lmax",), {"type": int, "default": RunConfig.lmax}),
    (("--T",), {"type": float, "default": RunConfig.T}),
    (("--X",), {"type": float, "default": RunConfig.X}),
    (("--N",), {"type": int, "default": RunConfig.N}),
]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="minkqm", description=__doc__)
    ap.add_argument("--version", action="version", version=f"minkqm {__version__}")
    for names, kw in _GLOBAL_FLAGS:
        ap.add_argument(*names, **kw)
    # leaves re-accept the global flags (SUPPRESS keeps root defaults intact),
    # so `minkqm qm eval 3/7 --output json` parses like the prefix form
    common = argparse.ArgumentParser(add_help=False)
    for names, kw in _GLOBAL_FLAGS:
        kw = dict(kw)
        kw["default"] = argparse.SUPPRESS
        common.add_argument(*names, **kw)

    sub = ap.add_subparsers(dest="cmd", required=True)

    qm = sub.add_parser("qm").add_subparsers(dest="sub", required=True)
    p = qm.add_parser("eval", parents=[common])
    p.add_argument("value")
    p.set_defaults(fn=_cmd_qm_eval)

    cf = sub.add_parser("cf").add_subparsers(dest="sub", required=True)
    p = cf.add_parser("expand", parents=[common])
    p.add_argument("value")
    p.add_argument("--kind", choices=("regular", "semiregular", "both"), default="both")
    p.set_defaults(fn=_cmd_cf_expand)
    p = cf.add_parser("convert", parents=[common])
    p.add_argument("value", help="rational p/q or regular CF text [0;a1,...]")
    p.add_argument("--K", type=int, required=True)
    p.set_defaults(fn=_cmd_cf_convert)

    mo = sub.add_parser("moments").add_subparsers(dest="sub", required=True)
    p = mo.add_parser("compute", parents=[common])
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--method", choices=("series", "farey", "bessel"), default="series")
    p.add_argument("--n", dest="farey_n", type=int, default=RunConfig.n, help="Farey generation index")
    p.add_argument("--nodes", type=int, default=QuadConfig.nodes_per_axis, help="quadrature nodes per axis (>= 12)")
    p.set_defaults(fn=_cmd_moments_compute)
    p = mo.add_parser("table", parents=[common])
    p.add_argument("--Lmax", type=int, required=True)
    p.set_defaults(fn=_cmd_moments_table)

    cj = sub.add_parser("conjecture").add_subparsers(dest="sub", required=True)
    p = cj.add_parser("qseq", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_conjecture_qseq)
    p = cj.add_parser("m2", parents=[common])
    p.set_defaults(fn=_cmd_conjecture_m2)

    vf = sub.add_parser("verify").add_subparsers(dest="sub", required=True)
    p = vf.add_parser("all", parents=[common])
    p.set_defaults(fn=_cmd_verify_all)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = RunConfig(
            precision=args.precision,
            lmax=args.lmax,
            n=getattr(args, "farey_n", RunConfig.n),
            N=args.N,
            T=args.T,
            X=args.X,
            output=args.output,
            cache_path=args.cache,
        )
        return args.fn(cfg, args)
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
