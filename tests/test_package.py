"""The package's declarations: its API is its modules' `__all__`, every
in-process cache has a bound, every command-line flag is read by the
subcommand that takes it, every series kernel is run by a route, the
engines reach mpmath only through minkqm.balls, no module reaches a numpy
subpackage that `import numpy` leaves unloaded, and the working precision
is set only where a listed site needs it."""

import argparse
import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import minkqm

MODULES = [importlib.import_module(f"minkqm.{m.name}") for m in pkgutil.iter_modules(minkqm.__path__)]


def _callables(mod):
    """The module's own functions and classes, and the members of its classes."""
    for value in vars(mod).values():
        if getattr(value, "__module__", None) != mod.__name__:
            continue
        yield value
        if isinstance(value, type):
            yield from (getattr(v, "__func__", v) for v in vars(value).values())


def test_every_functools_cache_is_bounded():
    caches = [(mod.__name__, fn) for mod in MODULES for fn in _callables(mod) if hasattr(fn, "cache_parameters")]
    names = {f"{m}.{fn.__name__}" for m, fn in caches}
    assert names >= {"minkqm.special.c_coeff", "minkqm.moments._Chain",
                     "minkqm.farey._lcm_plan", "minkqm.quadrature._plan"}
    for modname, fn in caches:
        assert fn.cache_parameters()["maxsize"] is not None, (modname, fn.__name__)


def test_the_package_exports_each_module_api_and_nothing_else():
    declared = set()
    for mod in MODULES:
        for name in getattr(mod, "__all__", ()):
            assert getattr(minkqm, name) is getattr(mod, name), (mod.__name__, name)
            declared.add(name)
    submodules = {mod.__name__.rpartition(".")[2] for mod in MODULES}
    public = {name for name in vars(minkqm) if not name.startswith("_")}
    assert public - submodules == declared


def _leaves(parser):
    """(path, parser) of every parser under `parser` that has no subcommands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield (), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from (((name, *path), leaf) for path, leaf in _leaves(child))


def _args_read(fn) -> set[str]:
    """The attributes of `args` that the source of fn reads (a wrapper's
    source is that of the function it wraps)."""
    tree = ast.parse(inspect.getsource(fn))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"}


def test_every_flag_is_read_by_the_handler_of_its_subcommand():
    # a knob that does nothing (the old --Q, --B and --lmax, or --X on qm eval) fails here
    from minkqm import cli

    root = cli.build_parser()
    assert {opt for a in root._actions for opt in a.option_strings} == {"-h", "--help", "--version"}
    leaves = dict(_leaves(root))
    assert len(leaves) == 8
    replay = cli._replayed(print).__code__  # the code of every replay wrapper
    replayed = set()
    for path, parser in leaves.items():
        fn = parser.get_default("fn")
        read = _args_read(fn)
        dests = {a.dest for a in parser._actions if a.dest != "help"}
        if fn.__code__ is replay:  # the result cache's wrapper reads --cache
            replayed.add(path)
            read |= _args_read(cli._replayed)
        else:
            dests.discard("cache")  # taken by every subcommand (see build_parser), read where results are cached
        assert dests <= read, (path, dests - read)
    assert replayed == {("moments", "compute"), ("moments", "table")}


def test_every_special_kernel_is_read_by_a_route():
    # a kernel kept only for the checks (the old eps-driven c_s or the ball Bessel sum) fails here
    from minkqm import moments, quadrature, special

    read = set()
    for mod in (moments, quadrature):
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "special":
                read.add(node.attr)
    assert set(special.__all__) <= read, set(special.__all__) - read


def test_the_engines_reach_mpmath_only_through_balls():
    # the kernels and engines are plain Python and numpy over minkqm.balls:
    # none of them binds or imports anything from mpmath
    def home(value):
        return value.__name__ if inspect.ismodule(value) else getattr(value, "__module__", None) or type(value).__module__

    for name in ("contfrac", "minkowski", "farey", "moments", "quadrature", "special"):
        mod = importlib.import_module(f"minkqm.{name}")
        assert not [k for k, value in vars(mod).items() if home(value).partition(".")[0] == "mpmath"], name
        imports = [n for n in ast.walk(ast.parse(inspect.getsource(mod))) if isinstance(n, (ast.Import, ast.ImportFrom))]
        assert not [n for n in imports if "mpmath" in ast.unparse(n)], name


def test_no_module_reaches_a_numpy_subpackage_that_import_numpy_leaves_unloaded():
    # numpy.polynomial costs about 0.8 MB of RSS and 3 ms to import, for one rule
    code = ("import pkgutil, sys, numpy; print(*(m.name for m in pkgutil.iter_modules(numpy.__path__)"
            " if 'numpy.' + m.name not in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    unloaded = set(done.stdout.split())
    assert {"polynomial", "fft", "random", "ma", "testing"} <= unloaded
    for mod in MODULES:
        tree = ast.parse(inspect.getsource(mod))
        reached, aliases = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "numpy":
                        aliases.add(a.asname or "numpy")
                        reached.update(a.name.split(".")[1:2])
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                reached.update(node.module.split(".")[1:2] or [a.name for a in node.names])
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                reached.add(node.attr)
        assert not reached & unloaded, (mod.__name__, reached & unloaded)


def _sets_precision(node) -> bool:
    """A `workprec`-like block or an assignment to `mp.prec` or `mp.dps`."""
    if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)):
        return getattr(node.func, "attr", getattr(node.func, "id", None)) in ("workprec", "workdps", "extraprec", "extradps")
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return any(isinstance(t, ast.Attribute) and t.attr in ("prec", "dps") for t in targets)


def test_caller_set_precision_stays_at_its_listed_sites():
    # ball arithmetic needs no caller to set the working precision (see
    # minkqm.balls); these sites set it for what they print or compare
    sites = set()
    for mod in MODULES:
        tree = ast.parse(inspect.getsource(mod))
        scopes = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in filter(_sets_precision, ast.walk(tree)):
            owners = [f for f in scopes if f.lineno <= node.lineno <= f.end_lineno]
            sites.add((mod.__name__, max(owners, key=lambda f: f.lineno).name if owners else "<module>"))
    assert {s for s in sites if s[0] != "minkqm.verify"} == {
        ("minkqm.conjecture", "_lambda_integral"),  # e^-T, C and S, rounded once each
    }


def _mpmath_loaded_after(code: str) -> bool:
    env = {k: v for k, v in os.environ.items() if k != "MINKQM_CACHE"}
    done = subprocess.run([sys.executable, "-c", code + "\nimport sys; print('mpmath' in sys.modules)"],
                          capture_output=True, text=True, timeout=300, check=True, env=env)
    return done.stdout.split()[-1] == "True"


def test_importing_the_cli_loads_no_mpmath():
    assert not _mpmath_loaded_after("import minkqm.cli")


def test_the_engines_and_the_readme_examples_but_verify_load_no_mpmath():
    # mpmath is the reference of verify's checks and of the tests only
    code = """
import contextlib, io
from minkqm import cli, conjecture, farey, moments, quadrature
moments.moment(1, 1e-6)
moments.v_term(1, 1)
moments.a_partial_direct(1, 1, 10)
moments.h_integral_identity_check(1, 0, 10)
quadrature.kernel_integral(1, 0)
farey.farey_moment(2, 8)
conjecture.q_sequence(5)
conjecture.conjecture_m2_report(T=6.0, N=10)
examples = ["qm eval 3/7 --output json", "cf expand 3/7", "cf convert 1/2 --K 5",
            "moments compute --L 1 --method series --precision 9", "moments compute --L 2 --method farey --n 20",
            "moments compute --L 1 --method bessel", "moments table --Lmax 6 --output csv",
            "conjecture qseq --n 8", "conjecture m2"]
for line in examples:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(line.split()) == 0, line
"""
    assert not _mpmath_loaded_after(code)
