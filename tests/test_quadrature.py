"""Direct quadrature of the Bessel-kernel integrals.

The frozen value comes from an mpmath oracle at 30 digits:
    2 c_3 = 0.14885277443216080
"""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from minkqm import quadrature
from minkqm.balls import Dyadic
from minkqm.errors import DomainError, ResourceLimitError
from minkqm.quadrature import QuadConfig, box_tail_bound, kernel_integral


def test_config_validation():
    with pytest.raises(DomainError):
        QuadConfig(X=0.0)
    # below 12 nodes the m-node and 2m-node rules are the same single panel
    for nodes in (4, 8, 11):
        with pytest.raises(DomainError):
            QuadConfig(nodes_per_axis=nodes)
    QuadConfig(nodes_per_axis=12)
    for X in (math.inf, math.nan):
        with pytest.raises(DomainError):
            QuadConfig(X=X)
    # past X = 350 the float64 kernel S(x_i x_j) can overflow
    for X in (360.0, 1e300):
        with pytest.raises(ResourceLimitError):
            QuadConfig(X=X)
    QuadConfig(X=350.0)


def test_tail_bound_shrinks_with_x():
    tails = [float(box_tail_bound(1, 2, X)) for X in (10.0, 20.0, 40.0)]
    assert tails[0] > tails[1] > tails[2]
    assert tails[2] < 1e-8
    assert float(box_tail_bound(1, 0, 40.0)) < 1e-30


def _tail_at_300_bits(L, ell, X):
    """The box-tail majorant with mpmath's gamma functions and the exact kappa."""
    with mp.workprec(300):
        if ell == 0:
            return mp.gammainc(L, 2 * mp.mpf(X)) / mp.mpf(2) ** L
        kappa = 2 * (1 - mp.cos(mp.pi / (ell + 2)))
        axes = [L + mp.mpf(1) / 2] + [mp.mpf(1)] * (ell - 1) + [mp.mpf(1) / 2]
        tails = [mp.gammainc(a, kappa * X) for a in axes]
        fulls = [mp.gamma(a) for a in axes]
        return mp.fsum(mp.fprod(t if i == j else f for i, (t, f) in enumerate(zip(tails, fulls)))
                       for j in range(ell + 1)) / kappa ** (L + ell)


def test_tail_bound_lies_above_the_gamma_form_and_within_one_percent():
    for L in (1, 2, 3, 4, 5, 6, 20, 190):
        for ell in range(3):
            for X in (1.0, 10.0, 30.0, 40.0, 350.0):
                bound, want = box_tail_bound(L, ell, X), Dyadic(_tail_at_300_bits(L, ell, X)).as_fraction()
                assert bound >= want, (L, ell, X)
                if X >= 10:
                    assert bound <= want * Fraction(101, 100), (L, ell, X, float(bound / want))


def test_the_rule_is_leggauss_16_bit_for_bit():
    t, w = quadrature._gl16()
    want_t, want_w = np.polynomial.legendre.leggauss(16)
    assert t.tobytes() == want_t.tobytes() and w.tobytes() == want_w.tobytes()


def test_the_quadrature_imports_no_numpy_polynomial():
    # numpy.polynomial costs about 0.8 MB of RSS and 3 ms to import, for one rule
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import sys; from minkqm import kernel_integral; kernel_integral(2, 2); print('numpy.polynomial' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout == "False\n", done.stderr


def test_kernel_integral_ell0_matches_c_series():
    for L in (1, 4, 6):
        got = kernel_integral(L, 0, QuadConfig(nodes_per_axis=64))
        want = (2 * mp.polylog(L, 0.5) - 1) * math.factorial(L - 1)  # (L-1)! c_L at 53 bits
        assert got.agrees(want, 1e-8)
    got3 = kernel_integral(3, 0, QuadConfig(nodes_per_axis=64))
    assert abs(float(got3.value) - 0.14885277443216080) < 1e-9


def test_ball_contains_the_value_at_four_times_the_nodes():
    # the node-doubling gap is heuristic; here it covers a much finer rule
    for ell, nodes in ((0, 12), (0, 32), (1, 12), (1, 48), (2, 12), (2, 32)):
        for L in (1, 2, 3):
            ball = kernel_integral(L, ell, QuadConfig(nodes_per_axis=nodes))
            finer = kernel_integral(L, ell, QuadConfig(nodes_per_axis=4 * nodes))
            assert ball.contains(finer.value), (L, ell)


# SHA-256 over the midpoint's and the radius's (man, exp) of kernel_integral(L, l, cfg),
# L = 1..4, l = 0..2, for the three configurations below, recorded when every call
# built its own nodes and kernel; re-recorded when the radius parts were summed
# rounded up (the midpoints kept every bit, 27 of the 36 radii rose by ulps);
# re-recorded when the box tail became a closed-form bound (the midpoints kept
# every bit, and each radius rose by the rise of its box-tail part)
KERNEL_DIGEST = "58e1a9043e14ffa7feb3b285e388d54801957073b80af3e87ea07f0eb460aace"


def test_kernel_integrals_are_pinned_in_either_order():
    cfgs = (None, QuadConfig(X=30.0, nodes_per_axis=48), QuadConfig(X=40.0, nodes_per_axis=32))
    keys = [(i, L, ell) for i in range(len(cfgs)) for L in range(1, 5) for ell in range(3)]
    for calls in (keys, keys[::-1]):
        quadrature._plan.cache_clear()
        got = {(i, L, ell): kernel_integral(L, ell, cfgs[i]) for i, L, ell in calls}
        h = hashlib.sha256()
        for i, L, ell in keys:
            ball = got[i, L, ell]
            h.update(f"{L} {ell} {ball.value.man_exp} {ball.radius.man_exp};".encode())
        assert h.hexdigest() == KERNEL_DIGEST
    info = quadrature._plan.cache_info()
    assert info.maxsize == quadrature._PLANS and info.currsize <= quadrature._PLANS
    for plan in (quadrature._plan(64, 40.0), quadrature._plan(96, 30.0)):
        assert not any(a.flags.writeable for a in plan)


def test_resource_limit():
    with pytest.raises(ResourceLimitError):
        kernel_integral(1, 3, QuadConfig())
    with pytest.raises(DomainError):
        kernel_integral(1, -1, QuadConfig())
