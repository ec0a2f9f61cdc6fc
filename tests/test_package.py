"""The package's declarations: its API is its modules' `__all__`, every
in-process cache has a bound, and every command-line flag is read by the
subcommand that takes it."""

import argparse
import ast
import importlib
import inspect
import pkgutil

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
    assert names >= {"minkqm.special.c_coeff_cached", "minkqm.moments._Chain",
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


def test_every_flag_is_read_by_the_handler_of_its_subcommand():
    # a knob that does nothing (the old --Q, --B and --lmax, or --X on qm eval) fails here
    from minkqm import cli

    root = cli.build_parser()
    assert {opt for a in root._actions for opt in a.option_strings} == {"-h", "--help", "--version"}
    leaves = dict(_leaves(root))
    assert len(leaves) == 8
    for path, parser in leaves.items():
        fn = parser.get_default("fn")
        tree = ast.parse(inspect.getsource(fn))
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"}
        dests = {a.dest for a in parser._actions if a.dest != "help"}
        if path not in {("moments", "compute"), ("moments", "table")}:
            dests.discard("cache")  # taken by every subcommand (see build_parser), read where results are cached
        assert dests <= read, (path, dests - read)
