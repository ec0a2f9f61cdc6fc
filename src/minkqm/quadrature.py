"""Direct tensor quadrature of the Bessel-kernel moment integrals, l <= 2.

The (l+1)-fold integrand is regrouped through S(y) = sqrt(y) I1(2 sqrt(y)):

    x0^L (x0 xl)^(-1/2) prod I1(2 sqrt(x_i x_{i+1})) / prod e^x (2e^x - 1)
      = x0^(L-1)/D(x0) * prod_{i=1..l} [ S(x_{i-1} x_i) / (x_i D(x_i)) ]

with D(x) = e^x (2 e^x - 1), because prod sqrt(x_i x_{i+1}) soaks up every
inverse square root.  Since S(y)/x -> x_prev as x -> 0, the regrouped form
is analytic on the closed box, so open Gauss-Legendre panels converge
spectrally; tanh-sinh is available as an alternative rule.

Truncating to [0, X]^(l+1) is controlled by an explicit majorant.  With
theta = pi/(l+2) and the concave weights r_k = sin((k+1) theta), weighted
AM-GM gives 2 sqrt(x_i x_{i+1}) <= (r_{i+1}/r_i) x_i + (r_i/r_{i+1}) x_{i+1},
and every coordinate's total coefficient is exactly 2 cos(theta).  With
I1(z) <= e^z and D(x) >= e^(2x) the integrand is at most

    x0^L (x0 xl)^(-1/2) exp(-kappa sum x_i),   kappa = 2 (1 - cos theta),

so the tail over {some x_j > X} splits into products of one-dimensional
incomplete-gamma factors, all computed rigorously by mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .balls import PrecReal, as_eps, working_bits
from .errors import DomainError, ResourceLimitError
from .special import bessel_i1_scaled

__all__ = ["QuadConfig", "kernel_integrand", "kernel_integral", "box_tail_bound", "integrate_1d"]

_RULES = ("tanh-sinh", "gauss-legendre-composite")


@dataclass(frozen=True)
class QuadConfig:
    X: float = 40.0
    nodes_per_axis: int = 64
    rule: str = "gauss-legendre-composite"

    def __post_init__(self):
        if not self.X > 0:
            raise DomainError(f"X must be positive, got {self.X}")
        if self.nodes_per_axis < 8:
            raise DomainError(f"nodes_per_axis must be >= 8, got {self.nodes_per_axis}")
        if self.rule not in _RULES:
            raise DomainError(f"rule must be one of {_RULES}, got {self.rule!r}")


def _gl_nodes(m: int, X: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre: degree-16 panels, none touching x = 0."""
    deg = 16
    panels = max(1, round(m / deg))
    t, w = np.polynomial.legendre.leggauss(deg)
    edges = np.linspace(0.0, X, panels + 1)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append((b - a) / 2 * t + (b + a) / 2)
        ws.append((b - a) / 2 * w)
    return np.concatenate(xs), np.concatenate(ws)


def _ts_nodes(m: int, X: float) -> tuple[np.ndarray, np.ndarray]:
    """tanh-sinh on (0, X): x = X/2 (1 + tanh((pi/2) sinh t)), open at ends."""
    T = 3.2
    t = np.linspace(-T, T, m)
    h = t[1] - t[0]
    u = (np.pi / 2) * np.sinh(t)
    x = X / 2 * (1 + np.tanh(u))
    w = h * X / 2 * (np.pi / 2) * np.cosh(t) / np.cosh(u) ** 2
    keep = (x > 0) & (x < X)
    return x[keep], w[keep]


def _nodes(cfg: QuadConfig, m: int) -> tuple[np.ndarray, np.ndarray]:
    if cfg.rule == "tanh-sinh":
        return _ts_nodes(m, cfg.X)
    return _gl_nodes(m, cfg.X)


def _s_kernel(y: np.ndarray) -> np.ndarray:
    """S(y) = sum_{q>=1} y^q / ((q-1)! q!) for y >= 0, in float64.

    Terms are positive and obey t_(q+1) = t_q y / (q (q+1)).  Once
    q (q+1) > 2 max(y) each later term is at most half the one before, so
    the omitted tail is at most the last term added; summing stops when
    that term is below 2^-60 of the sum at every point.
    """
    term = np.array(y, dtype=np.float64)
    total = term.copy()
    top = 2 * total.max(initial=0.0)
    q = 1
    while True:
        term *= y / (q * (q + 1))
        total += term
        q += 1
        if q * (q + 1) > top and np.all(term <= total * 2.0**-60):
            return total


def _den(x: np.ndarray) -> np.ndarray:
    e = np.exp(x)
    return e * (2.0 * e - 1.0)


def _fsum(a: np.ndarray) -> float:
    return math.fsum(a.tolist())


def _integral_raw(L: int, ell: int, x: np.ndarray, w: np.ndarray) -> float:
    """Tensor quadrature, factorized along the nearest-neighbor chain."""
    D = _den(x)
    if ell == 0:
        return _fsum(w * x ** (L - 1) / D)
    P = _s_kernel(np.outer(x, x))
    left = w * x ** (L - 1) / D
    right = w / (x * D)
    if ell == 1:
        rows = P @ right  # row i: sum_j S(x_i x_j) right_j
        return _fsum(left * rows)
    # ell == 2: middle coordinate decouples the two S factors
    a = P.T @ left
    b = P @ right
    return _fsum((w / (x * D)) * a * b)


def integrate_1d(f, cfg: QuadConfig) -> tuple[float, float]:
    """1-D quadrature of a scalar callable on [0, X] with a doubling gap.

    Returns the value at 2 * cfg.nodes_per_axis nodes and its distance from
    the value at cfg.nodes_per_axis nodes (a heuristic error estimate).
    """

    def level(m):
        x, w = _nodes(cfg, m)
        return math.fsum(wi * f(xi) for xi, wi in zip(x.tolist(), w.tolist()))

    prev = level(cfg.nodes_per_axis)
    cur = level(2 * cfg.nodes_per_axis)
    return cur, abs(cur - prev)


def box_tail_bound(L: int, ell: int, X: float) -> mpf:
    """Upper bound for the integral mass outside [0, X]^(l+1).

    Uses the exp(-kappa sum x_i) majorant from the module docstring.  The
    region where at least one coordinate exceeds X is covered by l+1
    one-coordinate tail events; each event bounds as a product of full
    one-dimensional integrals with one tail factor:

        axis 0:        int x^(L-1/2) e^(-kappa x)  (merged x0^L * x0^(-1/2))
        interior axes: int e^(-kappa x)
        axis l:        int x^(-1/2) e^(-kappa x)

    For l = 0 the single axis carries x^(L-1) e^(-2x) exactly.
    """
    with mp.workprec(80):
        if ell == 0:
            return mp.gammainc(L, 2 * mpf(X)) / mpf(2) ** L
        kappa = 2 * (1 - mp.cos(mp.pi / (ell + 2)))
        Xk = kappa * mpf(X)

        def full(a):
            return mp.gamma(a) / kappa**a

        def tail(a):
            return mp.gammainc(a, Xk) / kappa**a

        axes = [mpf(L) + mpf(1) / 2] + [mpf(1)] * (ell - 1) + [mpf(1) / 2]
        total = mpf(0)
        for j in range(ell + 1):
            prod = mpf(1)
            for i, a in enumerate(axes):
                prod *= tail(a) if i == j else full(a)
            total += prod
        return total


def kernel_integrand(L: int, ell: int, point, eps=1e-12) -> PrecReal:
    """Ball value of the regrouped integrand at a positive point."""
    if L < 1 or ell < 0:
        raise DomainError(f"need L >= 1 and ell >= 0, got ({L}, {ell})")
    pts = list(point)
    if len(pts) != ell + 1:
        raise DomainError(f"point must have {ell + 1} coordinates, got {len(pts)}")
    e = as_eps(eps)
    with mp.workprec(working_bits(e)):
        balls = [PrecReal.exact(p) for p in pts]
        if any(not b.is_positive() for b in balls):
            raise DomainError(f"coordinates must be positive: {point}")
        two = PrecReal.exact(2)

        def den(b):
            ex = b.exp()
            return ex * (two * ex - 1)

        out = balls[0].pow_int(L - 1) / den(balls[0])
        for prev, cur in zip(balls, balls[1:]):
            s = bessel_i1_scaled(prev * cur, e)
            out = out * s / (cur * den(cur))
        return out


def kernel_integral(L: int, ell: int, cfg: QuadConfig | None = None) -> PrecReal:
    """Enclosure of the (l+1)-fold integral for l in {0, 1, 2}.

    The value is taken at 2 * cfg.nodes_per_axis nodes per axis.  The radius
    is its gap to the value at cfg.nodes_per_axis nodes (heuristic
    quadrature error) plus the rigorous box-truncation tail and a
    float-rounding allowance.
    """
    if L < 1:
        raise DomainError(f"need L >= 1, got {L}")
    if not 0 <= ell <= 2:
        raise ResourceLimitError(f"direct quadrature supports ell <= 2, got {ell}")
    cfg = cfg or QuadConfig()
    tail = box_tail_bound(L, ell, cfg.X)

    prev = _integral_raw(L, ell, *_nodes(cfg, cfg.nodes_per_axis))
    cur = _integral_raw(L, ell, *_nodes(cfg, 2 * cfg.nodes_per_axis))
    radius = mpf(abs(cur - prev)) + tail + mpf(abs(cur)) * mpf(1e-13)
    return PrecReal(mpf(cur), radius)
