"""Acceptance suite: every contractual criterion at its stated tolerance.

The checks live in the invariant registry (`minkqm.verify.REGISTRY`); a
criterion is the set of entries tagged with its number, run here at their
contract size.  Each entry prints one PASS/FAIL line (run with -s to see
them inline).
"""

from minkqm.verify import REGISTRY, run_entry


def run_criterion(number):
    checks = [run_entry(entry, contract=True) for entry in REGISTRY if entry.criterion == number]
    for c in checks:
        print(f"\n[criterion {number:2d}] {'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    assert checks, f"criterion {number} has no registry entry"
    assert all(c.passed for c in checks), f"criterion {number} failed"


def test_every_criterion_tag_is_one_of_the_twelve():
    assert {entry.criterion for entry in REGISTRY} - {None} == set(range(1, 13))


def test_criterion_01_published_digit_regression():
    run_criterion(1)


def test_criterion_02_first_moment_half():
    run_criterion(2)


def test_criterion_03_symmetry_relation():
    run_criterion(3)


def test_criterion_04_recurrence_exactness():
    run_criterion(4)


def test_criterion_05_route_equivalence():
    run_criterion(5)


def test_criterion_06_functional_equations():
    run_criterion(6)


def test_criterion_07_telescoping_identity():
    run_criterion(7)


def test_criterion_08_quadrature_vs_series():
    run_criterion(8)


def test_criterion_09_series_vs_digit_sums():
    run_criterion(9)


def test_criterion_10_farey_route():
    run_criterion(10)


def test_criterion_11_bound_suite():
    run_criterion(11)


def test_criterion_12_conjectural_m2_report():
    run_criterion(12)
