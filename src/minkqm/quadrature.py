"""Direct tensor quadrature of the Bessel-kernel moment integrals, l <= 2.

The (l+1)-fold integrand is regrouped through S(y) = sqrt(y) I1(2 sqrt(y)):

    x0^L (x0 xl)^(-1/2) prod I1(2 sqrt(x_i x_{i+1})) / prod e^x (2e^x - 1)
      = x0^(L-1)/D(x0) * prod_{i=1..l} [ S(x_{i-1} x_i) / (x_i D(x_i)) ]

with D(x) = e^x (2 e^x - 1), because prod sqrt(x_i x_{i+1}) soaks up every
inverse square root.  Since S(y)/x -> x_prev as x -> 0, the regrouped form
is analytic on the closed box, so open composite Gauss-Legendre panels
converge spectrally.

Truncating to [0, X]^(l+1) is controlled by an explicit majorant.  With
theta = pi/(l+2) and the concave weights r_k = sin((k+1) theta), weighted
AM-GM gives 2 sqrt(x_i x_{i+1}) <= (r_{i+1}/r_i) x_i + (r_i/r_{i+1}) x_{i+1},
and every coordinate's total coefficient is exactly 2 cos(theta).  With
I1(z) <= e^z and D(x) >= e^(2x) the integrand is at most

    x0^L (x0 xl)^(-1/2) exp(-kappa sum x_i),   kappa = 2 (1 - cos theta),

so the tail over {some x_j > X} splits into products of one-dimensional
incomplete-gamma factors.  `box_tail_bound` bounds each from above in
closed form over exact dyadics: the recurrence Gamma(a + 1, x) =
a Gamma(a, x) + x^a e^-x from Gamma(1, x) = e^-x and Gamma(1/2, x) <=
min(sqrt(pi), e^-x / sqrt(x)), rounded up to 64 bits at each step, a
dyadic kappa_lo <= kappa, square roots rounded up through math.isqrt, and
e^-x from the upper end of a ball, which rests on the exp assumption
stated in minkqm.balls.

The 16-point Gauss-Legendre rule of the panels is a constant table, equal
bit for bit to numpy.polynomial.legendre.leggauss(16), so no process
imports numpy.polynomial for it.

Only the weight x0^(L-1) depends on L.  The nodes, the weights, D(x), the
kernel S(x_i x_j) and its product with the inner-axis weights depend on
the rule alone, so `_plan` builds them once per (nodes per axis m, X) and
holds them, read only, in a functools.lru_cache of at most _PLANS = 4
entries: the m- and 2m-node rules of two configurations.  The kernel is
m^2 float64, 32 KB at 64 nodes and 128 KB at 128; the five vectors add
40 m bytes.  A call then forms the x^(L-1) weights, its matvecs and the
fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .balls import PrecReal
from .errors import DomainError, ResourceLimitError
from .special import bessel_i1_scaled

__all__ = ["QuadConfig", "kernel_integral", "box_tail_bound"]

# Nodes lie below X and S(y) <= sqrt(y) e^(2 sqrt(y)), so every kernel value
# is below X e^(2X), about 3.6e306 at X = 350; near X = 354 float64 overflows.
_X_MAX = 350.0
# node sets held at once: the m- and 2m-node rules of two configurations
_PLANS = 4
# an m-node configuration's 2m-node plan holds a (2m)^2 float64 kernel, 32 MB at the cap
_NODES_MAX = 1024
# the positive half of the 16-point Gauss-Legendre rule on [-1, 1], bit for bit
# numpy.polynomial.legendre.leggauss(16): its nodes are antisymmetric and its
# weights symmetric, so the rule needs no import of numpy.polynomial
_GL16_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
               0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499)
_GL16_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
                 0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176)


@dataclass(frozen=True)
class QuadConfig:
    X: float = 40.0
    nodes_per_axis: int = 64

    def __post_init__(self):
        if not (self.X > 0 and math.isfinite(self.X)):
            raise DomainError(f"X must be positive and finite, got {self.X}")
        if self.X > _X_MAX:
            raise ResourceLimitError(f"the float64 kernel is capped at X = {_X_MAX}, got {self.X}")
        # _gl_nodes gives round(m / 16) panels: below m = 12 the m- and
        # 2m-node rules are one and the same panel, and their gap reads 0
        if self.nodes_per_axis < 12:
            raise DomainError(f"nodes_per_axis must be >= 12, got {self.nodes_per_axis}")
        if self.nodes_per_axis > _NODES_MAX:
            raise ResourceLimitError(f"nodes_per_axis is capped at {_NODES_MAX}, got {self.nodes_per_axis}")


def _gl16() -> tuple[np.ndarray, np.ndarray]:
    """The 16-point Gauss-Legendre nodes and weights on [-1, 1], nodes increasing."""
    half = np.array(_GL16_NODES)
    return np.concatenate((-half[::-1], half)), np.array(_GL16_WEIGHTS[::-1] + _GL16_WEIGHTS)


def _gl_nodes(m: int, X: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre: degree-16 panels, none touching x = 0."""
    t, w = _gl16()
    edges = np.linspace(0.0, X, max(1, round(m / 16)) + 1)
    half = (edges[1:] - edges[:-1])[:, None] / 2  # one row per panel
    mid = (edges[1:] + edges[:-1])[:, None] / 2
    return (half * t + mid).ravel(), (half * w).ravel()


@lru_cache(maxsize=_PLANS)
def _plan(m: int, X: float) -> tuple[np.ndarray, ...]:
    """The L-independent arrays of the m-node rule on [0, X], read-only:
    nodes x, weights w, D(x), the kernel P[i, j] = S(x_i x_j), the weights
    right = w / (x D) of the chain's inner axes and P @ right."""
    x, w = _gl_nodes(m, X)
    e = np.exp(x)
    D = e * (2.0 * e - 1.0)
    P = bessel_i1_scaled(np.outer(x, x))
    right = w / (x * D)
    arrays = (x, w, D, P, right, P @ right)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _integral_raw(L: int, ell: int, m: int, X: float) -> float:
    """Tensor quadrature with m nodes per axis, factorized along the
    nearest-neighbor chain."""
    x, w, D, P, right, P_right = _plan(m, X)
    left = w * x ** (L - 1) / D
    if ell == 0:
        return math.fsum(left)
    if ell == 1:
        return math.fsum(left * P_right)  # row i of P @ right: sum_j S(x_i x_j) right_j
    # ell == 2: the middle coordinate decouples the two S factors
    return math.fsum(right * (P.T @ left) * P_right)


def _sqrt_up(q: Fraction) -> Fraction:
    """A dyadic upper bound of sqrt(q), q >= 0, less than 2^-64 above it:
    m = floor(q 4^64) has sqrt(q 4^64) < sqrt(m + 1) <= isqrt(m) + 1."""
    return Fraction(math.isqrt(q.numerator * 4**64 // q.denominator) + 1, 2**64)


_SQRT_PI_UP = _sqrt_up(Fraction(355, 113))  # pi < 355/113
_SQRT2_UP = _sqrt_up(Fraction(2))


def _up64(m: int, k: int) -> tuple[int, int]:
    """The dyadic m 2^k, m >= 0, rounded up to a mantissa of at most 64 bits:
    less than 2^-63 m 2^k above it."""
    s = max(0, m.bit_length() - 64)
    return -(-m >> s), k + s


def _gamma_up(a: Fraction, x: Fraction, e: Fraction) -> Fraction:
    """Upper bound of Gamma(a, x) for a in {1/2, 1, 3/2, 2, ...}, x >= 0 and
    e >= e^-x, by the recurrence of box_tail_bound; g >= Gamma(b, x) and
    p >= x^b e^-x on the way.  Every input is dyadic, so g, p and x are held
    as pairs (m, k) for m 2^k, and g and p are rounded up by _up64 at each
    step, which keeps a step's cost fixed as b grows."""
    if a.denominator == 1:
        b, g, p = 1, e, x * e
    elif x:
        b, g, p = Fraction(1, 2), min(_SQRT_PI_UP, e * _sqrt_up(1 / x)), _sqrt_up(x) * e
    else:  # the complete Gamma(1/2) = sqrt(pi)
        b, g, p = Fraction(1, 2), _SQRT_PI_UP, 0
    (mg, kg), (mp, kp), (mx, kx) = ((v.numerator, 1 - v.denominator.bit_length()) for v in map(Fraction, (g, p, x)))
    for c in range(int(2 * b), int(2 * a), 2):  # c = 2b, so b g = c g / 2
        k = min(kg - 1, kp)
        (mg, kg), (mp, kp) = _up64((c * mg << kg - 1 - k) + (mp << kp - k), k), _up64(mp * mx, kp + kx)
    return mg * Fraction(2) ** kg


def box_tail_bound(L: int, ell: int, X: float) -> Fraction:
    """Upper bound for the integral mass outside [0, X]^(l+1), l <= 2, as a
    dyadic Fraction.

    Uses the exp(-kappa sum x_i) majorant from the module docstring.  The
    region where at least one coordinate exceeds X is covered by l+1
    one-coordinate tail events; each event bounds as a product of full
    one-dimensional integrals with one tail factor, int_X^inf x^(a-1)
    e^(-kappa x) dx = Gamma(a, kappa X) / kappa^a, of order

        axis 0:        a = L + 1/2   (merged x0^L * x0^(-1/2))
        interior axes: a = 1
        axis l:        a = 1/2

    so every product carries kappa^-(L + l).  For l = 0 the single axis
    carries x^(L-1) e^(-2x) exactly: a = L, kappa = 2.

    Every factor is a closed form over exact dyadics.  A smaller kappa
    only enlarges the majorant, so x = kappa_lo X with kappa_lo = 1 at
    l = 1 and 2 - sqrt(2) rounded down at l = 2, while kappa^-1 is
    1/2, 1 and 1 + sqrt(2)/2 rounded up.  The gamma values climb by

        Gamma(a + 1, x) = a Gamma(a, x) + x^a e^-x      (DLMF 8.8.2)

    from Gamma(1, x) = e^-x, so integer orders are the closed form
    (n-1)! e^-x sum_(k<n) x^k/k!, and from

        Gamma(1/2, x) = 2 int_sqrt(x)^inf e^(-u^2) du
                     <= min(sqrt(pi), e^-x / sqrt(x))   (DLMF 7.8.2);

    at x = 0 they are the complete (n-1)! and sqrt(pi) (2n)! / (4^n n!).
    Each step rounds g and p up to 64-bit dyadics (see _gamma_up), so a
    call costs about the same at every L (0.75 ms at L = 190, l = 2, where
    exact rationals of 20,000 bits took 23 ms; 2-CPU Xeon).
    pi < 355/113, and every square root is rounded up to a dyadic through
    math.isqrt (see _sqrt_up).  The one transcendental step is e^-x: the
    upper end of the ball PrecReal.exact(-x).exp(), whose one rounding
    minkqm.balls bounds.  All terms are
    positive and each is bounded above, so the sum is an upper bound.
    """
    kappa, inv_kappa = {0: (2, Fraction(1, 2)), 1: (1, 1), 2: (2 - _SQRT2_UP, 1 + _SQRT2_UP / 2)}[ell]
    x = kappa * Fraction(X)
    e = PrecReal.exact(-x).exp().hi.as_fraction()
    half = Fraction(1, 2)
    axes = [Fraction(L)] if ell == 0 else [L + half] + [Fraction(1)] * (ell - 1) + [half]
    tails = [_gamma_up(a, x, e) for a in axes]
    fulls = [_gamma_up(a, Fraction(0), 1) for a in axes]
    total = sum(math.prod(tails[i] if i == j else fulls[i] for i in range(len(axes))) for j in range(len(axes)))
    return total * inv_kappa ** (L + ell)


def kernel_integral(L: int, ell: int, cfg: QuadConfig | None = None) -> PrecReal:
    """Enclosure of the (l+1)-fold integral for l in {0, 1, 2}.

    The value is taken at 2 * cfg.nodes_per_axis nodes per axis.  The radius
    is its gap to the value at cfg.nodes_per_axis nodes (heuristic
    quadrature error) plus the rigorous box-truncation tail and a
    heuristic float-rounding allowance of |value| * 1e-13, which no error
    analysis of the float64 kernel and sums backs yet.
    """
    if L < 1 or ell < 0:
        raise DomainError(f"need L >= 1, ell >= 0: ({L}, {ell})")
    if ell > 2:
        raise ResourceLimitError(f"direct quadrature supports ell <= 2, got {ell}")
    cfg = cfg or QuadConfig()
    # The weight x^(L-1) and the products with S(x_i x_j), up to X e^(2X),
    # can leave float64 range.  Every term is >= 0, so a term that is not
    # finite makes its fsum inf or nan; finite terms may overflow the fsum.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            prev = _integral_raw(L, ell, cfg.nodes_per_axis, cfg.X)
            cur = _integral_raw(L, ell, 2 * cfg.nodes_per_axis, cfg.X)
        except OverflowError:  # math.fsum of finite terms past float64 range
            prev = cur = math.inf
    if not (math.isfinite(prev) and math.isfinite(cur)):
        raise ResourceLimitError(f"the float64 kernel overflows at L = {L}, l = {ell}, X = {cfg.X}")
    gap = abs(Fraction(cur) - Fraction(prev))
    # each further radius part is a ball about 0, so the ball sum rounds the radii's sum up
    return PrecReal(cur, gap) + PrecReal(0, box_tail_bound(L, ell, cfg.X)) + PrecReal(0, 1e-13) * cur
