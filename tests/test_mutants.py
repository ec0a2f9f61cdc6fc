"""The mutation catalogue of tools/mutants.py still applies: each snippet
occurs exactly once in src/, in the file the mutant names, and each names
tests that exist.  Running the mutants themselves is `python tools/mutants.py`."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("tools_mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_snippet_occurs_exactly_once_in_src():
    sources = {path: path.read_text() for path in (ROOT / "src").rglob("*.py")}
    names = [m.name for m in mutants.CATALOGUE]
    assert len(set(names)) == len(names)
    for m in mutants.CATALOGUE:
        counts = {path: text.count(m.snippet) for path, text in sources.items() if m.snippet in text}
        assert counts == {ROOT / "src" / "minkqm" / m.path: 1}, m.name
        assert m.snippet != m.replacement, m.name


def test_each_mutant_names_tests_that_exist():
    for m in mutants.CATALOGUE:
        assert m.tests, m.name
        for test in m.tests:
            path, _, name = test.partition("::")
            assert f"def {name}(" in (ROOT / path).read_text(), (m.name, test)
