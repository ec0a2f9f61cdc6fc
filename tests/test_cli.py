"""CLI surface: output schema, exit codes, cache behavior."""

import csv
import decimal
import hashlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from minkqm import cache, cli, moments, quadrature
from minkqm.balls import PrecReal, format_fixed
from minkqm.cache import ResultCache
from minkqm.cli import (
    EXIT_INTERNAL,
    EXIT_PRECISION,
    EXIT_RESOURCE,
    EXIT_USAGE,
    build_parser,
    canonical_json,
    exact_str,
    main,
)
from minkqm.contfrac import eval_semiregular
from minkqm.errors import DomainError
from minkqm.farey import farey_moment
from minkqm.minkowski import question_mark
from mpmath import mp, mpf


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_qm_eval_json_schema(capsys):
    code, out = run_cli(capsys, "qm", "eval", "3/7", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "qm eval"
    assert doc["results"] == [{"exact": True, "name": "?(3/7)", "value": "7/16"}]
    assert doc["checks"] == [{"name": "route-agreement", "pass": True}]


def test_json_round_trip_is_byte_identical(capsys):
    _, out = run_cli(capsys, "qm", "eval", "5/8", "--output", "json")
    assert canonical_json(json.loads(out)) == out


def test_cf_expand_and_convert(capsys):
    code, out = run_cli(capsys, "cf", "expand", "3/7")
    assert code == 0 and "[0;2,3]" in out and "[[3,2,2]]" in out
    code, out = run_cli(capsys, "cf", "convert", "[0;2]", "--K", "4")
    assert code == 0 and "[[3,2,2,2]]" in out
    code, out = run_cli(capsys, "cf", "convert", "1/2", "--K", "3")
    assert "3/7" in out  # prefix value of the padded twin


def test_moments_series_near_half(capsys):
    code, out = run_cli(capsys, "moments", "compute", "--L", "1", "--method", "series", "--precision", "9", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    value = float(mpf(doc["results"][0]["value"]))
    assert abs(value - 0.5) < 1e-6


def test_moments_farey_exact(capsys):
    code, out = run_cli(capsys, "moments", "compute", "--L", "2", "--method", "farey", "--n", "4", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["value"] == "229/800"


def test_moments_farey_past_the_int_to_str_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MINKQM_CACHE", raising=False)
    args = ["moments", "compute", "--L", "2", "--method", "farey", "--n", "20", "--output", "json",
            "--cache", str(tmp_path / "c.json")]
    code, first = run_cli(capsys, *args)
    assert code == 0
    value = json.loads(first)["results"][0]["value"]
    assert value == exact_str(farey_moment(2, 20))
    assert len(value.split("/")[0]) > 4300  # the default int-to-str cap
    stored = json.loads((tmp_path / "c.json").read_text())
    assert [entry["stdout"] for entry in stored.values()] == [first]
    monkeypatch.setattr(cli, "farey_moment", None)  # a hit computes nothing
    assert run_cli(capsys, *args) == (0, first)


def test_farey_approximation_prints_only_correct_digits(capsys):
    # the decimal is the exact moment rounded to --precision significant digits
    exact = farey_moment(2, 8)
    code, out = run_cli(capsys, "moments", "compute", "--L", "2", "--method", "farey", "--n", "8",
                        "--precision", "30", "--output", "json")
    assert code == 0
    with decimal.localcontext(prec=30):
        want = decimal.Decimal(exact.numerator) / exact.denominator
    assert json.loads(out)["results"][1]["value"] == str(want)


def test_farey_cache_entries_are_kept_per_precision(tmp_path, capsys):
    approx = []
    for precision in ("6", "12"):
        code, out = run_cli(capsys, "moments", "compute", "--L", "2", "--method", "farey", "--n", "8",
                            "--precision", precision, "--output", "json", "--cache", str(tmp_path / "c.json"))
        assert code == 0
        approx.append(json.loads(out)["results"][1]["value"])
    assert approx == ["0.29081", "0.290810425648"]


def test_cf_convert_prints_a_prefix_value_past_the_int_to_str_limit(capsys):
    code, out = run_cli(capsys, "cf", "convert", "[0;" + ",".join(["1"] * 30000) + "]", "--K", "14000",
                        "--output", "json")
    assert code == 0
    results = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    digits = [int(d) for d in re.findall(r"\d+", results["prefix"])]
    assert len(digits) == 14000
    assert results["prefix_value"] == exact_str(eval_semiregular(digits))


def test_qm_eval_past_the_int_to_str_limit(capsys):
    code, out = run_cli(capsys, "qm", "eval", "1/20000", "--output", "json")
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == exact_str(Fraction(1, 1 << 19999))


def test_exact_str_never_touches_the_int_to_str_limit(monkeypatch):
    big = [Fraction(-(3**30000), 1 << 70001), Fraction(7**9000), question_mark(Fraction(1, 20000))]
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = [str(x) for x in big]
    finally:
        sys.set_int_max_str_digits(cap)
    monkeypatch.setattr(sys, "set_int_max_str_digits", None)  # a call would raise
    assert [exact_str(x) for x in big] == want
    assert exact_str(Fraction(-3, 8)) == "-3/8" and exact_str(Fraction(5)) == "5"


def test_qm_eval_past_the_exponent_cap_is_a_resource_limit(capsys):
    # ?(x) = num / 2^exp with exp the regular digit sum minus 1, so the cap is
    # checked from the digits alone, before any shift builds num
    from minkqm import minkowski

    for x in ("99999999999999999999/100000000000000000000", "1/100000000", f"1/{minkowski._EXP_MAX + 2}"):
        start = time.perf_counter()
        assert run_cli(capsys, "qm", "eval", x)[0] == EXIT_RESOURCE, x
        assert time.perf_counter() - start < 1, x
    b = minkowski._EXP_MAX // 2 + 1  # [0; b, b]: each digit below the cap, their sum minus 1 past it
    assert run_cli(capsys, "qm", "eval", f"{b}/{b * b + 1}")[0] == EXIT_RESOURCE


def test_cf_convert_past_the_digit_cap_is_a_resource_limit(capsys):
    from minkqm import contfrac

    assert run_cli(capsys, "cf", "convert", "1/2", "--K", str(contfrac._K_MAX + 1))[0] == EXIT_RESOURCE


def test_nonpositive_moment_order_is_a_usage_error(capsys):
    for method in ("series", "farey", "bessel"):
        code = run_cli(capsys, "moments", "compute", "--L", "0", "--method", method, "--n", "5")[0]
        assert code == EXIT_USAGE, method


def test_nonpositive_farey_index_is_a_usage_error(capsys):
    for n in ("0", "-3"):
        assert run_cli(capsys, "moments", "compute", "--L", "1", "--method", "farey", "--n", n)[0] == EXIT_USAGE


def test_flag_floors_are_usage_errors_on_every_method(capsys, monkeypatch):
    monkeypatch.delenv("MINKQM_CACHE", raising=False)
    argvs = [["moments", "compute", "--L", "1", "--method", m, "--precision", "5"] for m in ("series", "farey", "bessel")]
    argvs += [["moments", "table", "--Lmax", "1", "--precision", "5"], ["conjecture", "m2", "--N", "0"]]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE, argv
    # a value that only another method reads is not checked
    assert run_cli(capsys, "moments", "compute", "--L", "1", "--n", "0", "--nodes", "1")[0] == 0


def test_moments_table_csv(capsys):
    code, out = run_cli(capsys, "moments", "table", "--Lmax", "2", "--output", "csv", "--precision", "6")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "L,method,value,radius,params"
    assert len(lines) == 3 and lines[1].startswith("1,series,")
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(row) for row in rows] == [5, 5, 5]
    assert json.loads(rows[2][4])["q_truncation"] == "proven"


def test_conjecture_qseq_published_string(capsys):
    code, out = run_cli(capsys, "conjecture", "qseq", "--n", "8")
    assert code == 0
    assert "1/2,-1/2,1,-5/2,25/4,-16,43,-971/8,1417/4" in out


def test_exit_codes(capsys):
    assert run_cli(capsys, "qm", "eval", "7/3")[0] == EXIT_USAGE
    assert run_cli(capsys, "qm", "eval", "zebra")[0] == EXIT_USAGE
    # a Farey index below the generation domain [2, 26] is a usage error, one past it a cap
    for n, code in (("1", EXIT_USAGE), ("27", EXIT_RESOURCE), ("40", EXIT_RESOURCE)):
        assert run_cli(capsys, "moments", "compute", "--L", "1", "--method", "farey", "--n", n)[0] == code, n
    # a Farey moment whose limb tables would pass their cap stops before allocating them
    assert run_cli(capsys, "moments", "compute", "--L", "100000", "--method", "farey", "--n", "20")[0] == EXIT_RESOURCE
    assert run_cli(capsys, "moments", "compute", "--L", "1", "--precision", "15")[0] == EXIT_PRECISION
    # a series order past its cap stops before any c_s: L = 2 * 10^5 took 1.5 s to exit 3
    for L in (str(moments._L_CAP + 1), str(10**9)):
        assert run_cli(capsys, "moments", "compute", "--L", L)[0] == EXIT_RESOURCE, L
    for nodes in ("8", "11"):  # one panel at both node counts: no node gap
        assert run_cli(capsys, "moments", "compute", "--L", "1", "--method", "bessel", "--nodes", nodes)[0] == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["moments", "frobnicate"])
    assert exc.value.code == 2


def test_out_of_range_box_and_limit_exit_at_once():
    # a non-finite or overflowing box used to hang the kernel summation
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for argv, code in (
        (["moments", "compute", "--L", "1", "--method", "bessel", "--X", "inf"], EXIT_USAGE),
        (["moments", "compute", "--L", "1", "--method", "bessel", "--X", "360"], EXIT_RESOURCE),
        (["moments", "compute", "--L", "1", "--method", "bessel", "--X", "1e300"], EXIT_RESOURCE),
        (["conjecture", "m2", "--T", "inf"], EXIT_USAGE),
    ):
        done = subprocess.run([sys.executable, "-m", "minkqm.cli", *argv], env=env, capture_output=True, timeout=60)
        assert done.returncode == code, argv


def test_bessel_weight_past_float64_is_a_resource_limit(capsys, monkeypatch):
    # X^(L-1) passes float64 range once (L-1) log X > 709.78: from L = 194 at
    # X = 40, from L = 1026 at X = 2; L = 194 exited 5 from an inf in the output.
    # At X = 350 the l = 2 products with S(x_i x_j), up to X e^(2X), overflow
    # first: L = 110 exited 5 there
    monkeypatch.delenv("MINKQM_CACHE", raising=False)
    for argv in (["--L", "194"], ["--L", "1100", "--X", "2"], ["--L", "110", "--X", "350"]):
        assert run_cli(capsys, "moments", "compute", "--method", "bessel", *argv)[0] == EXIT_RESOURCE, argv
    for argv in (["--L", "150"], ["--L", "193"], ["--L", "60", "--X", "350"]):
        assert run_cli(capsys, "moments", "compute", "--method", "bessel", *argv)[0] == 0, argv


def test_lmax_and_nodes_past_their_caps_stop_before_any_chain_or_plan(capsys, monkeypatch):
    # the series sums every l in one fixed point, so --lmax is gone; each
    # quadrature plan holds a (2m)^2 kernel
    monkeypatch.delenv("MINKQM_CACHE", raising=False)
    moments._chain.cache_clear()
    for lmax in ("25", "1076"):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "compute", "--L", "1", "--lmax", lmax])
        assert exc.value.code == EXIT_USAGE
    assert moments._chain.cache_info().currsize == 0
    quadrature._plan.cache_clear()
    argv = ("moments", "compute", "--L", "1", "--method", "bessel", "--nodes", "1025")
    assert run_cli(capsys, *argv)[0] == EXIT_RESOURCE
    assert quadrature._plan.cache_info().currsize == 0


def test_precision_past_float64_is_unreachable(capsys):
    for digits in ("330", "400"):
        assert run_cli(capsys, "moments", "compute", "--L", "1", "--precision", digits)[0] == EXIT_PRECISION
    # eps is unchanged up to 323 digits
    assert cli._series_eps(323) == 1e-323


def test_cached_entries_exit_as_their_computation(tmp_path, capsys, monkeypatch):
    # a run that fails stores nothing, and an entry planted under the key of
    # older code (here the parent format "<method>:L=..:idx=..:trunc=..:eps=..")
    # is a miss, so each command exits and prints as it does with no cache
    monkeypatch.delenv("MINKQM_CACHE", raising=False)
    series = {"value": "0.123456", "radius": "1e-9", "params": "{}"}
    exact = {"value": "1/8", "approx": "0.123456", "exact": True, "params": "{}"}
    cases = [
        (("compute", "--L", "1", "--precision", "15"), "series:L=1:idx=solve:trunc=Qauto:eps=1e-15", series,
         EXIT_PRECISION),
        (("table", "--Lmax", "1", "--precision", "15"), "series:L=1:idx=solve:trunc=Qauto:eps=1e-15", series,
         EXIT_PRECISION),
        # an entry planted for a command that exits 3 uncached
        (("compute", "--L", "100", "--precision", "19"), "series:L=100:idx=solve:trunc=Qauto:eps=1e-19",
         {"value": "0.0000000000123456", "radius": "1.24e-19", "params": "{}"}, EXIT_PRECISION),
        (("compute", "--L", "2", "--method", "farey", "--n", "27"), "farey:L=2:idx=27:trunc=-:eps=1e-10",
         exact, EXIT_RESOURCE),
        (("compute", "--L", "2", "--method", "farey", "--n", "8", "--precision", str(cli._FAREY_DIGITS_MAX + 1)),
         f"farey:L=2:idx=8:trunc=-:eps=1e-{cli._FAREY_DIGITS_MAX + 1}", exact, EXIT_RESOURCE),
        (("compute", "--L", "194", "--method", "bessel"),
         "bessel:L=194:idx=0..2:trunc=X40.0-m64-gauss-legendre-composite:eps=-", series, EXIT_RESOURCE),
        (("compute", "--L", "1"), "series:L=1:idx=solve:trunc=Qauto:eps=1e-10", series, 0),
        (("compute", "--L", "1"), "series:L=1:idx=25:trunc=Qauto:eps=1e-10", series, 0),
        (("compute", "--L", "2", "--method", "farey", "--n", "8"), "farey:L=2:idx=8:trunc=-:eps=1e-10", exact, 0),
    ]
    for i, (argv, key, entry, code) in enumerate(cases):
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps({key: entry}))
        got, out = run_cli(capsys, "moments", *argv, "--cache", str(path))
        assert got == code, argv
        assert "123456" not in out, argv
        stored = json.loads(path.read_text())
        if code:
            assert stored == {key: entry}, argv
            assert run_cli(capsys, "moments", *argv)[0] == code, argv
        else:
            assert [e for k, e in stored.items() if k != key] == [{"stdout": out}], argv


def test_entries_of_other_code_are_misses(tmp_path, capsys, monkeypatch):
    # the key starts with the digest of minkqm's sources, so an entry that
    # different code stored is never served
    monkeypatch.delenv("MINKQM_CACHE", raising=False)
    path = tmp_path / "c.json"
    argv = ("moments", "compute", "--L", "1", "--method", "farey", "--n", "6", "--cache", str(path))
    real = cache.code_digest
    monkeypatch.setattr(cache, "code_digest", lambda: "0" * 64)
    code, first = run_cli(capsys, *argv)
    (key,) = json.loads(path.read_text())
    path.write_text(json.dumps({key: {"stdout": "planted\n"}}))
    assert run_cli(capsys, *argv) == (0, "planted\n")  # the same digest hits
    monkeypatch.setattr(cache, "code_digest", real)
    assert real() != "0" * 64
    assert run_cli(capsys, *argv) == (code, first)
    assert len(json.loads(path.read_text())) == 2


def test_nonpositive_table_size_is_a_usage_error(capsys):
    for lmax in ("0", "-2"):
        assert run_cli(capsys, "moments", "table", "--Lmax", lmax)[0] == EXIT_USAGE


def test_overlong_cf_digit_is_a_usage_error(capsys):
    # int() refuses 5000-digit strings; that is bad input, not an internal fault
    assert run_cli(capsys, "cf", "convert", "[0;" + "1" * 5000 + "]", "--K", "3")[0] == EXIT_USAGE


def test_internal_fault_is_not_a_usage_error(capsys, monkeypatch):
    def fault(args):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(cli, "_cmd_qm_eval", fault)
    assert main(["qm", "eval", "1/3"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error: ValueError('a bug, not bad input')")
    assert "Traceback" in err


def test_removed_flags_are_usage_errors(capsys):
    # flags no subcommand reads, flags on a subcommand that does not read
    # them, CSV where the rows would not fit its header, and the prefix form
    argvs = [["moments", "compute", "--L", "1", flag, "5"] for flag in ("--Q", "--B", "--threads")]
    argvs += [["qm", "eval", "3/7", "--T", "5"], ["verify", "all", "--output", "csv"],
              ["--output", "json", "qm", "eval", "3/7"]]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE, argv


def test_cache_hits_are_byte_identical(tmp_path, capsys, monkeypatch):
    # a second run with --cache prints the first run's bytes without
    # computing, for every method and the table
    monkeypatch.delenv("MINKQM_CACHE", raising=False)
    cache_file = str(tmp_path / "cache.json")
    examples = [
        ("compute", "--L", "1", "--precision", "8", "--output", "json"),
        ("compute", "--L", "1", "--method", "bessel", "--output", "json"),
        ("compute", "--L", "2", "--method", "farey", "--n", "6", "--output", "csv"),
        ("table", "--Lmax", "3", "--output", "csv"),
    ]
    firsts = [run_cli(capsys, "moments", *argv, "--cache", cache_file) for argv in examples]
    assert all(code == 0 and out for code, out in firsts)
    stored = json.loads(open(cache_file).read())
    assert sorted(entry["stdout"] for entry in stored.values()) == sorted(out for _, out in firsts)
    for engine in ("moment", "farey_moment", "kernel_integral"):
        monkeypatch.setattr(cli, engine, None)
    for argv, first in zip(examples, firsts):
        assert run_cli(capsys, "moments", *argv, "--cache", cache_file) == first, argv


def test_a_key_holds_only_the_flags_its_method_reads(tmp_path, capsys, monkeypatch):
    # the flags of the other methods do not reach the printed text, so they
    # neither miss the entry nor store a second copy of it
    monkeypatch.delenv("MINKQM_CACHE", raising=False)
    # (method, the flags it reads, the flags it does not)
    cases = [("series", (), ("--n", "5", "--X", "30", "--nodes", "32")),
             ("farey", ("--n", "6"), ("--X", "30", "--nodes", "32")),
             ("bessel", ("--X", "30"), ("--n", "5"))]
    firsts = [run_cli(capsys, "moments", "compute", "--L", "1", "--method", method, *read,
                      "--cache", str(tmp_path / f"{method}.json")) for method, read, _ in cases]
    for engine in ("moment", "farey_moment", "kernel_integral"):
        monkeypatch.setattr(cli, engine, None)
    for (method, read, unread), first in zip(cases, firsts):
        path = tmp_path / f"{method}.json"
        argv = ("compute", "--L", "1", "--method", method, *read, *unread, "--cache", str(path))
        assert run_cli(capsys, "moments", *argv) == first, method
        assert len(json.loads(path.read_text())) == 1, method


def test_a_cached_run_loads_no_openssl(tmp_path):
    # hashlib's _hashlib maps OpenSSL: 3.6 MB of RSS in every cached moments run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = ["moments", "compute", "--L", "2", "--method", "farey", "--n", "6", "--cache", str(tmp_path / "c.json")]
    code = f"import sys; from minkqm.cli import main; main({argv!r}); print('_hashlib' in sys.modules)"
    for _ in range(2):  # a miss, then a hit
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0 and done.stdout.endswith("False\n"), done.stderr
    assert len(json.loads((tmp_path / "c.json").read_text())) == 1


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache_file = tmp_path / "envcache.json"
    monkeypatch.setenv("MINKQM_CACHE", str(cache_file))
    run_cli(capsys, "moments", "compute", "--L", "1", "--method", "farey", "--n", "6")
    assert cache_file.exists()


def test_result_cache_round_trip(tmp_path):
    path = tmp_path / "c.json"
    cache = ResultCache(path)
    key = "k"
    assert cache.get(key) is None
    cache.put(key, {"value": "0.5", "radius": "1e-9"})
    again = ResultCache(path)
    assert again.get(key) == {"value": "0.5", "radius": "1e-9"}


def _put_keys(path, tag, count, loaded):
    cache = ResultCache(path)
    loaded.wait(timeout=60)  # every writer has read the file before any of them writes
    for i in range(count):
        cache.put(f"{tag}:{i}", {"value": str(i)})


def test_concurrent_writers_keep_every_key(tmp_path):
    path = str(tmp_path / "shared.json")
    ctx = multiprocessing.get_context("spawn")
    loaded = ctx.Barrier(4)
    writers = [ctx.Process(target=_put_keys, args=(path, f"w{k}", 15, loaded)) for k in range(4)]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=120)
    assert all(not w.is_alive() and w.exitcode == 0 for w in writers)
    stored = json.loads((tmp_path / "shared.json").read_text())
    assert set(stored) == {f"w{k}:{i}" for k in range(4) for i in range(15)}


@pytest.mark.parametrize("content", [None, "not json {", "[1, 2]"], ids=["directory", "text", "list"])
def test_corrupt_cache_file_is_a_usage_error(tmp_path, capsys, content):
    # each used to exit 5 with a traceback (IsADirectoryError, JSONDecodeError, AttributeError)
    path = tmp_path / "c.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    code = main(["moments", "compute", "--L", "1", "--method", "farey", "--n", "6", "--cache", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: cache file ") and err.count("\n") == 1 and str(path) in err
    assert path.is_dir() if content is None else path.read_text() == content


def test_cache_put_refuses_a_file_corrupted_after_load(tmp_path):
    path = tmp_path / "c.json"
    cache = ResultCache(path)
    path.write_text("[]")
    with pytest.raises(DomainError, match=re.escape(str(path))):
        cache.put("k", {"value": "1"})
    assert path.read_text() == "[]"


def test_format_fixed():
    assert format_fixed(mpf("0.4956295506"), 10) == "0.4956295506"
    assert format_fixed(mpf("-1.25"), 2) == "-1.25"
    assert format_fixed(mpf("0.5"), 0) == "0"  # nearest-even at half


def test_format_fixed_rounds_the_exact_value_half_to_even():
    # j / 2^31 with j odd is a tie at 30 places; at j = 2^200 + 1, x 10^30
    # needs 270 bits, past the 163 a working precision of 3.33 bits per place gave
    with decimal.localcontext(prec=200):
        for j in (1, 3, 2**200 + 1):
            want = (decimal.Decimal(j) / 2**31).quantize(decimal.Decimal(10) ** -30, rounding=decimal.ROUND_HALF_EVEN)
            assert format_fixed(mp.ldexp(PrecReal(j).value, -31), 30) == format(want, "f"), j


def test_conjecture_m2_envelope(capsys):
    code, out = run_cli(capsys, "conjecture", "m2", "--output", "json", "--N", "50")
    assert code == 0
    doc = json.loads(out)
    names = [r["name"] for r in doc["results"]]
    assert names == ["m2_series", "lambda_integral", "difference"]
    assert "conjectural" in doc["inputs"]["heuristic"]["note"]


def test_conjecture_m2_at_a_huge_limit_is_finite(capsys):
    code, out = run_cli(capsys, "conjecture", "m2", "--T", "1e308", "--output", "json")
    assert code == 0
    values = {r["name"]: r for r in json.loads(out)["results"]}
    for name, field in (("lambda_integral", "value"), ("lambda_integral", "radius"), ("difference", "value")):
        assert mp.isfinite(mpf(values[name][field])), (name, field)


def test_verify_all_green(capsys):
    code, out = run_cli(capsys, "verify", "all")
    assert code == 0
    assert "[FAIL]" not in out and "[PASS]" in out


# SHA-256 of each README example's output (`verify all` aside, which the
# acceptance suite covers); moments table is pinned in both formats.  The
# series outputs were re-recorded when the l-sum became one certified solve
# and again, with `conjecture m2`'s series ball, when m_L(Q) was read off the
# chain's own partial sums (m_2's radius went from 6.04e-14 to 2.69e-14, and
# m_4 prints one more digit); `conjecture m2` also when its two balls took
# the digits of their radii and when ball arithmetic stopped padding every
# step (lambda's radius went from 6.15e-29 to 6.22e-32, so three more digits print)
README_DIGESTS = {
    "qm eval 3/7 --output json": "dc8b8c85f9c13034c846e108454d0ca3e36b12ac23e7df11a36383a98429a6a5",
    "cf expand 3/7 --output json": "933acd4fd49d5655b9e75d5babe450db59029792ab7af712119a656e89eac32a",
    "cf convert 1/2 --K 5 --output json": "a1fa637dab2903c77b3a2ccdfc63b59aaa6b5d8823ecda36eedb4d9c3ea1fa5f",
    "moments compute --L 1 --method series --precision 9 --output json":
        "e55064f62401ad9af0a16dc0792e7869b798808de105e2566a43995413d25944",
    "moments compute --L 2 --method farey --n 20 --output json":
        "13454c99c25d852f70a902417a8dc868e0769dedf255a0cb137fa9ba2e2386b7",
    "moments compute --L 1 --method bessel --output json":
        "c09efd123cf73f7a57d58d5b80cc6c47f040d5f8c3acf5f427b43e735bb6b062",
    "moments table --Lmax 6 --output json": "c084c83028e2b549947ba5bef15fa756fbecc8002d773a09db04617f26182e0b",
    "moments table --Lmax 6 --output csv": "a6e1e810e69a96027d4f4f78e5190208ddaa53b236632591e7572fdcd2e90cbd",
    "conjecture qseq --n 8 --output json": "d9c964c82d3566deec5cad2c742cb0473976b1d9ac1cba61ac205ef1f9803258",
    "conjecture m2 --output json": "460369ba0513f1b6f996bf3247e537f6b381313b563249e5c974151b4d9afc82",
}


def test_readme_examples_match_their_digests(tmp_path, capsys):
    for i, (example, digest) in enumerate(README_DIGESTS.items()):
        code, out = run_cli(capsys, *example.split(), "--cache", str(tmp_path / f"c{i}.json"))
        assert code == 0, example
        assert hashlib.sha256(out.encode()).hexdigest() == digest, example


def test_readme_cli_block_parses_and_is_pinned():
    # every example of README's CLI block parses, and all but `verify all`
    # (see README_DIGESTS) are pinned there, with --output json unless they
    # choose their output
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line.split("#", 1)[0].split() for line in block.splitlines() if line.startswith("minkqm ")]
    assert len(examples) == 10
    for argv in examples:
        build_parser().parse_args(argv[1:])
        if argv[1:3] == ["verify", "all"]:
            continue
        if "--output" not in argv:
            argv += ["--output", "json"]
        assert " ".join(argv[1:]) in README_DIGESTS, argv
