"""Tests of the benchmark itself: its checks reject wrong values, its tracer
is transparent, and set-up is timed only after bytecode exists.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# -- checks reject wrong values ------------------------------------------------------


def test_shifted_ball_is_rejected():
    good = "m_1[integral terms l<=2] = 0.488130 ± 4.86e-7\n"
    bad = "m_1[integral terms l<=2] = 0.488132 ± 4.86e-7\n"
    assert checks.check_moments_bessel(good, {}) == []
    assert checks.check_moments_bessel(bad, {})
    half = (Fraction(1, 2), Fraction(1, 10**9))
    assert checks.moment_table_problems([half], Fraction(1, 10**9)) == []
    shifted = (half[0] + 3 * half[1], half[1])
    assert checks.moment_table_problems([shifted], Fraction(1, 10**9))


def test_published_digits_are_cut_not_rounded():
    v2 = checks.PUBLISHED_V[2]
    assert checks.overlaps((v2 + Fraction(64, 10**12), Fraction(1, 10**15)), checks.published([v2]))
    assert not checks.overlaps((v2 - Fraction(1, 10**12), Fraction(1, 10**15)),
                               checks.published([v2]))


def test_fraction_one_ulp_off_is_rejected():
    doc = {"checks": [{"name": "route-agreement", "pass": True}],
           "results": [{"exact": True, "name": "?(3/7)", "value": "7/16"}]}
    assert checks.check_qm_eval(json.dumps(doc), {}) == []
    doc["results"][0]["value"] = "8/16"
    assert checks.check_qm_eval(json.dumps(doc), {})
    assert workloads.moment_check({"eps": 1e-8, "series_L": [1], "oracle_L": 1, "quad_L": 1},
                                  {("F", 1): Fraction(1, 2) + Fraction(1, 2**18)})


def test_malformed_outputs_are_failed_operations():
    header = "L,method,value,radius,params\n"
    unquoted = header + '1,series,0.5000000000,2.91e-11,"{"Q": 200, "lmax": 35}"\n'
    quoted = header + '1,series,0.5000000000,2.91e-11,"{""Q"": 200, ""lmax"": 35}"\n'
    assert checks.check_cli("moments-table", 0, unquoted, {})[0] is True
    failed, problems = checks.check_cli("moments-table", 0, quoted, {})
    assert failed is False and problems == ["table has 1 rows, asked for 6"]
    assert checks.check_cli("qm-eval", 0, '{"results": [', {})[0] is True
    assert checks.check_cli("moments-farey", 2, "", {}) == (True, [])
    assert checks.check_cli("verify-all", 0, "[PASS] a: b\n[FAIL] c: d\n", {}) == (
        False, ["[FAIL] c: d"])
    assert checks.check_cli("verify-all", 0, "all good\n", {})[0] is True


def test_farey_value_is_compared_with_the_table():
    table = "L,method,value,radius,params\n" + "".join(
        f'{L},series,{v},2.91e-11,"{{}}"\n' for L, v in enumerate(
            ("0.5000000000", "0.2909264764", "0.1863897146", "0.1269922584",
             "0.0901644549", "0.0659281626"), start=1))
    for value, wrong in (("2/7", False), ("1/3", True)):
        ctx = {}
        out = f"m_2[n=20] = {value}  (exact)\nm_2[n=20] ~ = {float(Fraction(value)):.10f}\n"
        assert checks.check_cli("moments-farey", 0, out, ctx) == (False, [])
        failed, problems = checks.check_cli("moments-table", 0, table, ctx)
        assert not failed and bool(problems) is wrong


def test_examples_match_the_readme():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\s+```sh\n(.*?)```", text, re.S).group(1)
    listed = [re.sub(r"\s+#.*$", "", ln).split(" ", 1)[1].strip()
              for ln in block.splitlines() if ln.startswith("minkqm ")]
    assert listed == [cmd for _, cmd, _ in checks.README_EXAMPLES]


def test_benchmark_json_lists_the_layer_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.LAYER_METRICS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


# -- tracer ------------------------------------------------------------------------


def test_wrapper_passes_values_and_exceptions_through():
    tracer = Tracer()
    sentinel = object()
    error = KeyError("boom")

    def ok(a, b=None):
        return sentinel if b is None else (a, b)

    def bad():
        raise error

    assert tracer.span("m.ok", ok)(1) is sentinel
    assert tracer.span("m.ok", ok)(1, b=2) == (1, 2)
    with pytest.raises(KeyError) as info:
        tracer.span("m.bad", bad)()
    assert info.value is error
    summary = tracer.summarize()
    assert summary["m.ok.calls"] == 2 and summary["m.bad.calls"] == 1


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.span("m.inner", lambda: None)
    outer = tracer.span("m.outer", inner)
    outer()
    s = tracer.summarize()
    assert s["m.outer.self_s"] == 8.0 and s["m.inner.self_s"] == 2.0


def test_installed_wrappers_are_transparent():
    code = r"""
import sys
from fractions import Fraction
import minkqm, minkqm.cli, minkqm.verify
from minkqm import minkowski, contfrac
from minkqm.errors import DomainError
from tracer import Tracer, install
before = minkowski.question_mark(Fraction(3, 7)), list(contfrac.semiregular_digits_int(3, 7))
t = Tracer(); install(t)
assert minkqm.question_mark is minkowski.question_mark is minkqm.verify.minkowski.question_mark
assert minkqm.cli.question_mark is minkowski.question_mark
assert minkowski.question_mark.__wrapped__ is not None
after = minkowski.question_mark(Fraction(3, 7)), list(contfrac.semiregular_digits_int(3, 7))
assert before == after, (before, after)
try:
    minkowski.question_mark(Fraction(2))
except DomainError:
    pass
else:
    raise SystemExit("exception swallowed")
s = t.summarize()
assert s["minkowski.question_mark.calls"] == 2 and s["contfrac.semiregular_digits_int.digits"] == 3, s
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr


# -- set-up timing ------------------------------------------------------------------


def test_setup_is_timed_after_bytecode_exists(tmp_path):
    shutil.copytree(ROOT / "src" / "minkqm", tmp_path / "src" / "minkqm",
                    ignore=shutil.ignore_patterns("__pycache__"))
    pkg = tmp_path / "src" / "minkqm"
    modules = sorted(p.stem for p in pkg.glob("*.py"))

    def compiled():
        cached = {p.name.split(".")[0] for p in (pkg / "__pycache__").glob("*.pyc")}
        return cached >= set(modules)

    bench = run.Run(tmp_path, 1)
    seen = []
    real = bench.proc
    bench.proc = lambda argv: (seen.append(compiled()), real(argv))[1]
    bench.prime_bytecode()
    bench.time_setup(1)
    assert seen == [False, True]
    assert len(bench.setup) == 1 and bench.setup[0] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "moment-routes"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0 and res.stdout == ""
