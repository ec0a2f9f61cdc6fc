"""CLI surface: output schema, exit codes, cache behavior."""

import csv
import hashlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from minkqm import cli, moments, quadrature
from minkqm.cache import ResultCache, cache_key
from minkqm.cli import (
    EXIT_INTERNAL,
    EXIT_PRECISION,
    EXIT_RESOURCE,
    EXIT_USAGE,
    build_parser,
    canonical_json,
    exact_str,
    format_fixed,
    main,
)
from minkqm.errors import DomainError
from minkqm.farey import farey_moment
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


def test_moments_farey_past_the_int_to_str_limit(tmp_path, capsys):
    args = ["moments", "compute", "--L", "2", "--method", "farey", "--n", "20", "--output", "json",
            "--cache", str(tmp_path / "c.json")]
    code, first = run_cli(capsys, *args)
    assert code == 0
    value = json.loads(first)["results"][0]["value"]
    assert value == exact_str(farey_moment(2, 20))
    assert len(value.split("/")[0]) > 4300  # the default int-to-str cap
    stored = json.loads((tmp_path / "c.json").read_text())
    assert stored["farey:L=2:idx=20:trunc=-:eps=-"]["value"] == value
    assert run_cli(capsys, *args) == (0, first)


def test_qm_eval_past_the_int_to_str_limit(capsys):
    code, out = run_cli(capsys, "qm", "eval", "1/20000", "--output", "json")
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == exact_str(Fraction(1, 1 << 19999))


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
    assert json.loads(rows[2][4])["q_truncation"] == "heuristic-doubling"


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
    assert run_cli(capsys, "moments", "compute", "--L", "1", "--precision", "14")[0] == EXIT_PRECISION
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
    # eps, and so every cache key, is unchanged up to 323 digits
    assert cli._series_eps(323) == 1e-323
    assert cache_key("series", 1, 25, "Qauto", cli._series_eps(9)) == "series:L=1:idx=25:trunc=Qauto:eps=1e-09"


def test_cached_entries_exit_as_their_computation(tmp_path, capsys, monkeypatch):
    # an entry planted under the key of an input past a cap or floor is not
    # served: the command exits as it does with no cache at all
    monkeypatch.delenv("MINKQM_CACHE", raising=False)
    series = {"value": "0.123", "radius": "1e-9", "params": "{}"}
    exact = {"value": "1/8", "approx": "0.125", "exact": True, "params": "{}"}
    eps = cli._series_eps(10)
    cases = [
        (("compute", "--L", "1", "--precision", "14"),
         cache_key("series", 1, "solve", "Qauto", cli._series_eps(14)), series, EXIT_PRECISION),
        (("table", "--Lmax", "1", "--precision", "14"),
         cache_key("series", 1, "solve", "Qauto", cli._series_eps(14)), series, EXIT_PRECISION),
        (("compute", "--L", "2", "--method", "farey", "--n", "27"), cache_key("farey", 2, 27, "-", "-"),
         exact, EXIT_RESOURCE),
        # the float64 overflow is found only by computing, so Bessel results are never looked up
        (("compute", "--L", "194", "--method", "bessel"),
         cache_key("bessel", 194, "0..2", "X40.0-m64-gauss-legendre-composite", "-"), series, EXIT_RESOURCE),
        # within the caps the planted entries are what the command prints
        (("compute", "--L", "1"), cache_key("series", 1, "solve", "Qauto", eps), series, 0),
        (("compute", "--L", "2", "--method", "farey", "--n", "26"), cache_key("farey", 2, 26, "-", "-"), exact, 0),
    ]
    for i, (argv, key, entry, code) in enumerate(cases):
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps({key: entry}))
        got, out = run_cli(capsys, "moments", *argv, "--cache", str(path))
        assert got == code, argv
        if code:
            assert run_cli(capsys, "moments", *argv)[0] == code, argv
        else:
            assert entry["value"] in out, argv
    # entries that the l-truncated series wrote under its lmax slot are misses
    path = tmp_path / "lmax.json"
    path.write_text(json.dumps({cache_key("series", 1, 25, "Qauto", eps): series}))
    got, out = run_cli(capsys, "moments", "compute", "--L", "1", "--cache", str(path))
    assert got == 0 and series["value"] not in out


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


def test_cache_hits_are_byte_identical(tmp_path, capsys):
    cache_file = str(tmp_path / "cache.json")
    args = ["moments", "compute", "--L", "1", "--precision", "8", "--output", "json", "--cache", cache_file]
    _, first = run_cli(capsys, *args)
    assert os.path.exists(cache_file)
    _, second = run_cli(capsys, *args)
    assert first == second
    stored = json.loads(open(cache_file).read())
    (key,) = stored.keys()
    assert stored[key]["value"] in first


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache_file = tmp_path / "envcache.json"
    monkeypatch.setenv("MINKQM_CACHE", str(cache_file))
    run_cli(capsys, "moments", "compute", "--L", "1", "--method", "farey", "--n", "6")
    assert cache_file.exists()


def test_result_cache_round_trip(tmp_path):
    path = tmp_path / "c.json"
    cache = ResultCache(path)
    key = cache_key("series", 1, 25, "Qauto", 1e-8)
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
README_DIGESTS = {
    "qm eval 3/7 --output json": "dc8b8c85f9c13034c846e108454d0ca3e36b12ac23e7df11a36383a98429a6a5",
    "cf expand 3/7 --output json": "933acd4fd49d5655b9e75d5babe450db59029792ab7af712119a656e89eac32a",
    "cf convert 1/2 --K 5 --output json": "a1fa637dab2903c77b3a2ccdfc63b59aaa6b5d8823ecda36eedb4d9c3ea1fa5f",
    "moments compute --L 1 --method series --precision 9 --output json":
        "55b64efbb96bc4ef1bf8a7095d976e95cc3aa914135f6251181bf86349495509",
    "moments compute --L 2 --method farey --n 20 --output json":
        "13454c99c25d852f70a902417a8dc868e0769dedf255a0cb137fa9ba2e2386b7",
    "moments compute --L 1 --method bessel --output json":
        "c09efd123cf73f7a57d58d5b80cc6c47f040d5f8c3acf5f427b43e735bb6b062",
    "moments table --Lmax 6 --output json": "28002eb62e5c8a0a876103aba71e9c9fb3477d9bfa0cfd221b951db9f6f006c2",
    "moments table --Lmax 6 --output csv": "384db28829dce9ee864be3d488ab75251c32731fb794575511072ff29cf24174",
    "conjecture qseq --n 8 --output json": "d9c964c82d3566deec5cad2c742cb0473976b1d9ac1cba61ac205ef1f9803258",
    "conjecture m2 --output json": "029fa6c5e5e28704fd8a73d1dc0c5b040d03929ef1c630fa8fa2537c85ff03d3",
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
