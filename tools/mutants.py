"""Apply each mutant of the catalogue to a copy of the repository and run the
tests that should kill it.

A mutant is a file under src/minkqm, one exact snippet of it, the snippet's
replacement, and the tests (pytest node ids) expected to fail once it is in.
For each mutant the tool copies src/, tests/ and pyproject.toml to a
temporary directory, applies the mutant there, and runs only its tests with
PYTHONPATH pointing at the copy.  A mutant is killed when every one of its
tests fails; otherwise the tests that passed are printed.  The exit status is
1 if any mutant survives, in part or in full.  tests/test_mutants.py checks,
in the Tier-1 suite, that each snippet occurs exactly once in src/.

    python tools/mutants.py [NAME ...]

The whole catalogue, 11 mutants, took 23 to 27 s on a 2-CPU Xeon (Python 3.11).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/minkqm
    snippet: str
    replacement: str
    tests: tuple[str, ...]


_MOMENTS = "tests/test_moments.py::"

CATALOGUE = [
    Mutant("m-bar-quarter", "moments.py",
           "return _up(math.fsum([*terms, 2.0**-_K_BAR]))",
           "return _up(math.fsum([*terms, 2.0**-_K_BAR])) / 4",
           (_MOMENTS + "test_m_bar_brackets_every_moment",
            _MOMENTS + "test_the_truncation_bound_holds_the_gap_to_the_cap",
            _MOMENTS + "test_moment_1000_is_read_at_the_cap_inside_its_bracket",
            "tests/test_cli.py::test_verify_all_green")),
    Mutant("tau-without-two-thirds", "moments.py",
           "out.append(S * (2**a + 3**a) / 6**a)",
           "out.append(S / 2**a)",
           (_MOMENTS + "test_the_tail_bounds_hold_the_row_tails",)),
    Mutant("midpoint-not-lifted", "moments.py",
           "return ball + PrecReal(gap, gap) * 0.5",
           "return ball + PrecReal(0, gap)",
           ("tests/test_cli.py::test_readme_examples_match_their_digests",)),
    Mutant("ladder-without-unit-interval", "moments.py",
           "if value.radius <= e and 0 < value.lo and value.hi < 1:",
           "if value.radius <= e:",
           (_MOMENTS + "test_moment_refuses_a_ball_that_leaves_the_unit_interval",)),
    Mutant("no-least-rounding-refusal", "moments.py",
           "        if _chain(Q).solution[2][L - 1] > e:  # the least rounding part from Q on\n"
           "            raise PrecisionUnreachableError(",
           "        if False:\n            raise PrecisionUnreachableError(",
           (_MOMENTS + "test_moment_refuses_an_eps_below_a_level_floor_before_building_that_level",
            _MOMENTS + "test_moment_refuses_below_the_rounding_part_without_building_further")),
    Mutant("ladder-ignores-order", "moments.py",
           "for Q in (Q for Q in _LADDER if Q >= L):",
           "for Q in _LADDER:",
           (_MOMENTS + "test_moment_reads_each_order_at_a_level_at_or_above_it",)),
    Mutant("v-term-first-level", "moments.py",
           "Q = next((Q for Q in _LADDER if Q >= L), _Q_CAP)",
           "Q = _LADDER[0]",
           (_MOMENTS + "test_v_term_reads_the_first_level_at_or_above_its_order",)),
    Mutant("moment-without-cap", "moments.py",
           "    if L > _Q_CAP:\n        raise ResourceLimitError(",
           "    if False:\n        raise ResourceLimitError(",
           (_MOMENTS + "test_series_order_past_its_cap_sums_no_c_s",
            _MOMENTS + "test_moment_past_the_cap_level_builds_no_chain",
            "tests/test_cli.py::test_exit_codes")),
    Mutant("v-term-partial-without-cap", "moments.py",
           "if max(L, Q) > _Q_CAP:",
           "if Q > _Q_CAP:",
           (_MOMENTS + "test_series_order_past_its_cap_sums_no_c_s",
            _MOMENTS + "test_moment_past_the_cap_level_builds_no_chain")),
    Mutant("v-term-reads-previous-vector", "moments.py",
           "vec(ell)",
           "vec(ell - 1)",
           (_MOMENTS + "test_moment_partial_sum_matches_published_total",
            _MOMENTS + "test_the_chain_sum_caches_no_vector")),
    Mutant("chains-one-short", "moments.py",
           "_CHAINS = len(_LADDER)",
           "_CHAINS = len(_LADDER) - 1",
           (_MOMENTS + "test_the_chain_cache_holds_the_whole_doubling_ladder",)),
]


def _failed(output: str) -> set[str]:
    """Node ids that pytest's short summary (-rfE) reports as failed or in error."""
    ids = set()
    for line in output.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            ids.add(rest.split(" - ", 1)[0].strip())
    return ids


def run(mutant: Mutant) -> tuple[bool, list[str], float]:
    """(killed, the tests that passed, seconds) for one mutant."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="minkqm-mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / "src" / "minkqm" / mutant.path
        source = target.read_text()
        if source.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: the snippet occurs {source.count(mutant.snippet)} times")
        target.write_text(source.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        env.pop("MINKQM_CACHE", None)
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE",
                               "-o", "addopts=", *mutant.tests],
                              cwd=copy, env=env, capture_output=True, text=True)
    survivors = sorted(set(mutant.tests) - _failed(done.stdout))
    return not survivors, survivors, time.perf_counter() - start


def main(argv: list[str]) -> int:
    chosen = [m for m in CATALOGUE if not argv[1:] or m.name in argv[1:]]
    total, survived = time.perf_counter(), 0
    for mutant in chosen:
        killed, survivors, seconds = run(mutant)
        survived += not killed
        print(f"{mutant.name}  {'killed' if killed else 'SURVIVED'}  {seconds:.1f} s")
        for test in survivors:
            print(f"    passed: {test}")
    print(f"{len(chosen) - survived} of {len(chosen)} killed in {time.perf_counter() - total:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
