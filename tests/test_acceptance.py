"""Acceptance suite: every contractual criterion at its stated tolerance.

The checks live in the invariant registry (`minkqm.verify.REGISTRY`); a
criterion is the set of entries tagged with its number, run here at their
contract size.  Each entry prints one PASS/FAIL line (run with -s to see
them inline).
"""

import hashlib

from minkqm import special, verify
from minkqm.verify import REGISTRY, run_entry

# The contract sizes of the exact-structure criteria, and digests of the
# (p, q) pairs their samplers yield at those sizes: making a sweep faster
# must never make it smaller or change its seed.
EXACT_CONTRACTS = {
    "prop1-equivalence": (5, dict(sweep_q=2000, seed=501, samples=10**4, qmax=10**6)),
    "functional-equations": (6, dict(seed=602, samples=10**4, qmax=10**6)),
    "h-telescoping": (7, dict(seed=703, samples=10**4, qmax=10**6)),
}
SAMPLE_DIGESTS = {
    501: "cf2e057d55c4374fac93f8042f829fdc0421baacd95da77839b107b94deaf142",
    602: "e2a762bf3e4b4442b89c1915af2724498c041754ac37d54f9da81ae08e637e54",
    703: "f7c3b2b6724854e64dc2421968d8d8972f69adbc37d8e5e58d199d851a983db5",
}
SWEEP_DIGEST = "efb645a70ffe57e5dc7d15d236bde15732dc8cf35054e7dfbff16938b1887ff5"  # q <= 2000
# The contract sizes of the digit-sum oracle criteria
ORACLE_CONTRACTS = {
    "suma-oracle": (9, dict(B=40, ellmax=3)),
    "h-integral-identity": (11, dict(pairs=((0, 40), (1, 40), (2, 30), (3, 20)))),
}
# The recurrence criteria as (criterion, desk, contract); None: the desk size
RECURRENCE_CONTRACTS = {
    "qprime-reference": (4, {}, None),
    "qn-dyadic-denominators": (4, {}, None),
    "m2-report": (12, dict(N=20), dict(N=60)),
}


def run_criterion(number):
    checks = [run_entry(entry, contract=True) for entry in REGISTRY if entry.criterion == number]
    for c in checks:
        print(f"\n[criterion {number:2d}] {'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    assert checks, f"criterion {number} has no registry entry"
    assert all(c.passed for c in checks), f"criterion {number} failed"


def test_every_criterion_tag_is_one_of_the_twelve():
    assert {entry.criterion for entry in REGISTRY} - {None} == set(range(1, 13))


def _digest(pairs):
    h = hashlib.sha256()
    for p, q in pairs:
        h.update(b"%d/%d;" % (p, q))
    return h.hexdigest()


def test_exact_structure_contract_sizes_are_pinned(monkeypatch):
    entries = {entry.name: entry for entry in REGISTRY}
    for name, (criterion, sizes) in EXACT_CONTRACTS.items():
        assert (entries[name].criterion, entries[name].contract) == (criterion, sizes), name
        pairs = verify._random_pairs(sizes["seed"], sizes["samples"], sizes["qmax"])
        assert _digest(pairs) == SAMPLE_DIGESTS[sizes["seed"]], name
    assert _digest(verify._swept_pairs(2000)) == SWEEP_DIGEST
    # each check draws its inputs from exactly these samplers at these sizes
    drawn = []
    monkeypatch.setattr(verify, "_swept_pairs", lambda *args: drawn.append(args) or iter(()))
    monkeypatch.setattr(verify, "_random_pairs", lambda *args: drawn.append(args) or iter(()))
    for name in EXACT_CONTRACTS:
        assert run_entry(entries[name], contract=True).passed, name
    assert drawn == [(2000,), (501, 10**4, 10**6), (602, 10**4, 10**6), (703, 10**4, 10**6)]


def test_oracle_contract_sizes_are_pinned():
    entries = {entry.name: entry for entry in REGISTRY}
    for name, (criterion, sizes) in ORACLE_CONTRACTS.items():
        assert (entries[name].criterion, entries[name].contract) == (criterion, sizes), name


def test_recurrence_contract_sizes_are_pinned(monkeypatch):
    entries = {entry.name: entry for entry in REGISTRY}
    for name, pinned in RECURRENCE_CONTRACTS.items():
        assert (entries[name].criterion, entries[name].desk, entries[name].contract) == pinned, name
    # the contract runs draw exactly these recurrence lengths
    drawn = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            drawn.append((name, args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    for name in ("q_prime_at_minus_one", "q_sequence", "conjecture_m2_report"):
        monkeypatch.setattr(verify, name, recording(name, getattr(verify, name)))
    for name in RECURRENCE_CONTRACTS:
        assert run_entry(entries[name], contract=True).passed, name
    assert drawn == [
        ("q_prime_at_minus_one", (8,), {}),
        ("q_sequence", (20,), {}),
        ("conjecture_m2_report", (), dict(T=6.0, N=60)),
    ]


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


def test_the_kernel_checks_fail_on_a_wrong_kernel(monkeypatch):
    entries = {entry.name: entry for entry in REGISTRY}
    for name in ("c-coeff-bounds", "bessel-series-consistency"):
        assert run_entry(entries[name]).passed, name
    c_coeff = special.c_coeff

    def low(s):  # a midpoint 1e-12 low moves the upper end mid / (1 - rel) below c_s
        mid, rel, value = c_coeff(s)
        return mid * (1 - 1e-12), rel, value

    monkeypatch.setattr(special, "c_coeff", low)
    assert not run_entry(entries["c-coeff-bounds"]).passed
    monkeypatch.undo()
    monkeypatch.setattr(special, "_S_STOP", 2.0**-20)  # the Bessel sum stops at 2^-20, not 2^-60
    assert not run_entry(entries["bessel-series-consistency"]).passed
