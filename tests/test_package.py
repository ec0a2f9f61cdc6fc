"""The package's declarations: its API is its modules' `__all__`, every
in-process cache has a bound, and every command-line knob is read."""

import ast
import dataclasses
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


def test_every_run_config_field_has_a_reader_and_every_global_flag_a_field():
    # a knob that does nothing (the old --Q, --B and --lmax) fails here
    from minkqm import cli

    tree = ast.parse(inspect.getsource(cli))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cfg"}
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
    assert fields <= read
    # main builds RunConfig(field=args.<dest>, ...): each global flag's dest feeds a field
    (build,) = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "RunConfig"]
    feeds = {kw.value.attr for kw in build.keywords
             if kw.arg in fields and isinstance(kw.value, ast.Attribute)}
    dests = {kw.get("dest", names[0].lstrip("-").replace("-", "_")) for names, kw in cli._GLOBAL_FLAGS}
    assert dests <= feeds
