"""Direct quadrature of the Bessel-kernel integrals.

The frozen point values come from mpmath oracles at 30 digits:
    integrand(1, 1, (1,1)) = I1(2)/(e(2e-1))^2 = 0.010936759004610180
    2 c_3                  = 0.14885277443216080
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from minkqm.errors import DomainError, ResourceLimitError
from minkqm.quadrature import QuadConfig, _s_kernel, box_tail_bound, kernel_integrand, kernel_integral
from minkqm.special import bessel_i1_scaled, c_coeff


def test_config_validation():
    with pytest.raises(DomainError):
        QuadConfig(X=0.0)
    with pytest.raises(DomainError):
        QuadConfig(nodes_per_axis=4)
    with pytest.raises(DomainError):
        QuadConfig(rule="simpson")


def test_integrand_ell0_closed_form():
    for t in (Fraction(1, 2), Fraction(2), Fraction(7, 3)):
        ball = kernel_integrand(1, 0, (t,))
        with mp.workprec(120):
            want = 1 / (mp.exp(t) * (2 * mp.exp(t) - 1))
            assert abs(ball.value - want) <= ball.radius + mpf("1e-25")


def test_s_kernel_matches_the_series_ball():
    # 0.0 .. 1600.0 covers the products x_i x_j of nodes on the default box X = 40
    ys = np.array([0.0, 1e-9, 0.03125, 0.25, 1.0, 7.5, 40.0, 144.0, 555.5, 1600.0])
    got = _s_kernel(ys)
    for y, s in zip(ys.tolist(), got.tolist()):
        ball = bessel_i1_scaled(Fraction(y), mpf(s) * mpf(2) ** -70 + mpf(2) ** -1000)
        # float64 sum of at most ~100 positive terms: allow 2^-46 relative
        assert abs(mpf(s) - ball.value) <= ball.radius + mpf(s) * mpf(2) ** -46, y


def test_integrand_point_oracle():
    ball = kernel_integrand(1, 1, (1, 1))
    assert abs(float(ball.value) - 0.010936759004610180) < 1e-15


def test_integrand_positive_and_validated():
    assert kernel_integrand(2, 2, (0.5, 1.5, 3.0)).lo > 0
    with pytest.raises(DomainError):
        kernel_integrand(1, 1, (1.0, 0.0))
    with pytest.raises(DomainError):
        kernel_integrand(1, 1, (1.0,))
    with pytest.raises(DomainError):
        kernel_integrand(0, 0, (1.0,))


def test_tail_bound_shrinks_with_x():
    tails = [float(box_tail_bound(1, 2, X)) for X in (10.0, 20.0, 40.0)]
    assert tails[0] > tails[1] > tails[2]
    assert tails[2] < 1e-8
    assert float(box_tail_bound(1, 0, 40.0)) < 1e-30


def test_kernel_integral_ell0_matches_c_series():
    for L in (1, 4, 6):
        got = kernel_integral(L, 0, QuadConfig(nodes_per_axis=64))
        want = c_coeff(L, 1e-14) * math.factorial(L - 1)
        assert got.agrees(want, 1e-8)
    got3 = kernel_integral(3, 0, QuadConfig(nodes_per_axis=64))
    assert abs(float(got3.value) - 0.14885277443216080) < 1e-9


def test_tanh_sinh_rule_agrees_with_gauss():
    a = kernel_integral(1, 1, QuadConfig(nodes_per_axis=48))
    b = kernel_integral(1, 1, QuadConfig(nodes_per_axis=96, rule="tanh-sinh"))
    assert a.agrees(b)


def test_resource_limit():
    with pytest.raises(ResourceLimitError):
        kernel_integral(1, 3, QuadConfig())
