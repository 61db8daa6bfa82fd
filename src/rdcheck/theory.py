"""Closed-form constants and scalar analysis helpers.

This module is deliberately free of simulation state.  It evaluates:

* moments of the unit Gaussian integral(|y|^delta exp(-|y|^2)) over R^n,
  via the sphere-area factor omega_{n-1} = 2 pi^{n/2} / Gamma(n/2);
* the gradient-interpolation constants B4, B5 and their combination B for
  the free-space heat kernel, plus the bounded-domain variants B1..B3 when
  the caller supplies the kernel-envelope pair (c_n, kappa_n);
* the bootstrap exponent algebra lambda, its admissibility threshold
  eps < delta / (2 - delta), and the polynomial growth exponent
  xi = 1 / (1 - lambda);
* the closed-form positive equilibrium of the two-by-two reversible
  exchange model from its three conserved masses;
* log-linear least-squares rate fitting for measured decay/growth series.

Everything here is pure and deterministic; tests pin each value against an
independent quadrature or root-finding oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "gaussian_moment",
    "InterpolationConstants",
    "interpolation_constants",
    "ExponentAlgebra",
    "exponent_algebra",
    "QuadEquilibrium",
    "quad_equilibrium",
    "FitResult",
    "fit_rate",
]

def _gamma(n: int, x: float) -> float:
    """Gamma(x) in a constant of dimension n; a ValueError naming both if it overflows."""
    try:
        return math.gamma(x)
    except OverflowError:
        raise ValueError(f"Gamma({x}) overflows for n = {n}") from None


def _sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    # Gamma(n/2) first: it overflows (n > 343) long before pi^{n/2} (n > 1241).
    gamma = _gamma(n, n / 2.0)
    return 2.0 * math.pi ** (n / 2.0) / gamma


def gaussian_moment(n: int, delta: float) -> float:
    """Exact value of integral over R^n of |y|^delta exp(-|y|^2).

    Equals (omega_{n-1} / 2) * Gamma((n + delta) / 2) by the radial
    substitution r^2 = s.

    Args:
        n: dimension, integer >= 1.
        delta: moment order, >= 0.

    Raises:
        ValueError: on n < 1 or delta < 0, or when a Gamma factor overflows.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {n}")
    delta = float(delta)
    if not math.isfinite(delta) or delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    return 0.5 * _sphere_area(int(n)) * _gamma(int(n), (n + delta) / 2.0)


@dataclass(frozen=True)
class InterpolationConstants:
    """Constants entering the gradient interpolation bound.

    B4 (gradient kernel mass) and B5 (Holder-weighted kernel moment) are
    always populated from the free-space heat kernel in dimension n with
    diffusion d.  B1..B3 are populated only when the caller supplies the
    bounded-domain kernel envelope (c_n, kappa_n); `case` records which
    family produced the combined constant B.
    """

    n: int
    d: float
    gamma: float
    b4: float
    b5: float
    b: float
    case: str
    c_n: float | None = None
    kappa_n: float | None = None
    b1: float | None = None
    b2: float | None = None
    b3: float | None = None


def _check_constants_domain(n: int, d: float, gamma: float) -> tuple[int, float, float]:
    if int(n) != n or n < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {n}")
    d = float(d)
    if not math.isfinite(d) or d <= 0.0:
        raise ValueError(f"diffusion must be > 0, got {d}")
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma < 0.0 or gamma >= 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    return int(n), d, gamma


def _combine(b_grad: float, b_holder: float, gamma: float) -> float:
    # Prefactor from optimizing t^{(1-gamma)/2} a + t^{-1/2} b in t.
    p = (1.0 - gamma) ** (1.0 / (2.0 - gamma)) + (1.0 - gamma) ** (
        (gamma - 1.0) / (2.0 - gamma)
    )
    return p * b_grad ** ((1.0 - gamma) / (2.0 - gamma)) * b_holder ** (
        1.0 / (2.0 - gamma)
    )


def interpolation_constants(
    n: int,
    d: float,
    gamma: float,
    c_n: float | None = None,
    kappa_n: float | None = None,
) -> InterpolationConstants:
    """Evaluate the interpolation constants, free-space and optionally bounded.

    Free space (always):

        B4 = omega_{n-1} / (pi^{(n-1)/2} sqrt(d)) * Gamma((n+1)/2)
        B5 = omega_{n-1} / pi^{n/2} * 2^{gamma-1} d^{(gamma-1)/2}
             * Gamma((1+gamma)/2) * Gamma((n+1+gamma)/2)

    Bounded domain (only when both c_n and kappa_n are given):

        B1 = c_n kappa_n^{-n/2} Gamma(n/2) sqrt(pi)
        B2 = c_n kappa_n^{-(n+gamma)/2} Gamma((n+gamma+1)/2)
        B3 = B2 Gamma((gamma+1)/2)

    The combined constant B applies the same (1-gamma)-weighted product to
    (B1, B3) when the envelope pair is supplied, else to (B4, B5); `case`
    records the choice.

    Raises:
        ValueError: on bad (n, d, gamma), on a half-supplied envelope pair,
            on nonpositive c_n / kappa_n, or when a Gamma factor, a power
            of kappa_n or one of B1, B2, B3 and B overflows.
    """
    n, d, gamma = _check_constants_domain(n, d, gamma)
    omega = _sphere_area(n)
    b4 = omega / (math.pi ** ((n - 1) / 2.0) * math.sqrt(d)) * _gamma(n, (n + 1) / 2.0)
    b5 = (
        omega
        / math.pi ** (n / 2.0)
        * 2.0 ** (gamma - 1.0)
        * d ** ((gamma - 1.0) / 2.0)
        * math.gamma((1.0 + gamma) / 2.0)
        * _gamma(n, (n + 1.0 + gamma) / 2.0)
    )
    if (c_n is None) != (kappa_n is None):
        raise ValueError("c_n and kappa_n must be supplied together")
    if c_n is None:
        return InterpolationConstants(
            n=n, d=d, gamma=gamma, b4=b4, b5=b5, b=_combine(b4, b5, gamma),
            case="free-space",
        )
    c_n = float(c_n)
    kappa_n = float(kappa_n)
    if not math.isfinite(c_n) or c_n <= 0.0:
        raise ValueError(f"c_n must be > 0, got {c_n}")
    if not math.isfinite(kappa_n) or kappa_n <= 0.0:
        raise ValueError(f"kappa_n must be > 0, got {kappa_n}")
    try:
        b1 = c_n * kappa_n ** (-n / 2.0) * math.gamma(n / 2.0) * math.sqrt(math.pi)
        b2 = c_n * kappa_n ** (-(n + gamma) / 2.0) * math.gamma((n + gamma + 1.0) / 2.0)
    except OverflowError:
        raise ValueError(
            f"kappa_n^(-(n + gamma)/2) overflows for n = {n}, kappa_n = {kappa_n}"
        ) from None
    b3 = b2 * math.gamma((gamma + 1.0) / 2.0)
    b = _combine(b1, b3, gamma)
    # A product of finite factors overflows to inf without raising.
    for name, value in (("B1", b1), ("B2", b2), ("B3", b3), ("B", b)):
        if not math.isfinite(value):
            raise ValueError(
                f"{name} overflows for n = {n}, c_n = {c_n}, kappa_n = {kappa_n}"
            )
    return InterpolationConstants(
        n=n, d=d, gamma=gamma, b4=b4, b5=b5, b=b,
        case="kernel-envelope", c_n=c_n, kappa_n=kappa_n, b1=b1, b2=b2, b3=b3,
    )


@dataclass(frozen=True)
class ExponentAlgebra:
    """Bootstrap exponent bookkeeping for one (eps, delta) pair."""

    eps: float
    delta: float
    lam: float
    admissible: bool
    xi: float | None


def exponent_algebra(eps: float, delta: float) -> ExponentAlgebra:
    """Evaluate lambda = (3+eps)/4 + (1-delta)/(2(2-delta)) and friends.

    The pair is admissible exactly when lambda < 1, equivalently
    eps < delta / (2 - delta); then xi = 1 / (1 - lambda) is the polynomial
    growth exponent of the sup norm in time.

    Raises:
        ValueError: on eps < 0 or delta outside (0, 1].
    """
    eps = float(eps)
    if not math.isfinite(eps) or eps < 0.0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    delta = float(delta)
    if not math.isfinite(delta) or delta <= 0.0 or delta > 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    lam = (3.0 + eps) / 4.0 + (1.0 - delta) / (2.0 * (2.0 - delta))
    admissible = lam < 1.0
    xi = 1.0 / (1.0 - lam) if admissible else None
    return ExponentAlgebra(eps=eps, delta=delta, lam=lam, admissible=admissible, xi=xi)


@dataclass(frozen=True)
class QuadEquilibrium:
    """Positive equilibrium of the reversible exchange model."""

    u1: float
    u2: float
    u3: float
    u4: float

    def as_array(self) -> np.ndarray:
        return np.array([self.u1, self.u2, self.u3, self.u4])


def quad_equilibrium(m13: float, m23: float, m24: float) -> QuadEquilibrium:
    """Equilibrium from the three conserved masses, in closed form.

    Solves u1 u2 = u3 u4 subject to u1 + u3 = m13, u2 + u3 = m23,
    u2 + u4 = m24:

        u3 = m13 m23 / (m13 + m24),  u1 = m13 - u3,
        u2 = m23 - u3,               u4 = m24 - u2.

    All four components are strictly positive exactly when
    m13 + m24 > m23 (given positive masses).

    Raises:
        ValueError: on a nonpositive mass, or when the closed form lands on
            the boundary (some component <= 0); the message names the first
            offending component.
    """
    masses = {"m13": float(m13), "m23": float(m23), "m24": float(m24)}
    for name, val in masses.items():
        if not math.isfinite(val) or val <= 0.0:
            raise ValueError(f"conserved mass {name} must be > 0, got {val}")
    m13, m23, m24 = masses["m13"], masses["m23"], masses["m24"]
    u3 = m13 * m23 / (m13 + m24)
    u1 = m13 - u3
    u2 = m23 - u3
    u4 = m24 - u2
    for name, val in (("u1", u1), ("u2", u2), ("u3", u3), ("u4", u4)):
        if val <= 0.0:
            raise ValueError(
                f"boundary equilibrium: component {name} = {val} is not "
                f"strictly positive for masses ({m13}, {m23}, {m24})"
            )
    return QuadEquilibrium(u1=u1, u2=u2, u3=u3, u4=u4)


@dataclass(frozen=True)
class FitResult:
    """Least-squares rate fit in log space."""

    mode: str
    rate: float
    prefactor: float
    r_squared: float


def fit_rate(t, y, mode: str = "exponential") -> FitResult:
    """Fit y(t) = a exp(-mu t) or y(t) = a t^xi by linear least squares.

    Exponential mode regresses log y on t and reports mu = -slope (so a
    decaying series yields mu > 0).  Polynomial mode regresses log y on
    log t and reports the slope xi directly.  The prefactor is
    exp(intercept) in both modes and R^2 is computed in log space.

    Args:
        t: abscissae, at least 4, not all equal; polynomial mode requires
            t > 0.
        y: ordinates, strictly positive.
        mode: "exponential" or "polynomial".

    Raises:
        ValueError: on too few samples, nonpositive y (or t in polynomial
            mode), degenerate abscissae, or an unknown mode.
    """
    t = np.asarray(t, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("t and y must be one-dimensional arrays of equal length")
    if t.size < 4:
        raise ValueError(f"rate fit needs at least 4 samples, got {t.size}")
    if not np.all(np.isfinite(t)) or not np.all(np.isfinite(y)):
        raise ValueError("rate fit requires finite samples")
    if np.any(y <= 0.0):
        raise ValueError("rate fit requires y > 0 everywhere")
    if mode == "exponential":
        abscissa = t
    elif mode == "polynomial":
        if np.any(t <= 0.0):
            raise ValueError("polynomial mode requires t > 0 everywhere")
        abscissa = np.log(t)
    else:
        raise ValueError(f"unknown fit mode {mode!r}")
    if np.max(abscissa) == np.min(abscissa):
        raise ValueError("degenerate abscissae: all sample points coincide")
    logy = np.log(y)
    xm = float(np.mean(abscissa))
    ym = float(np.mean(logy))
    dx = abscissa - xm
    dy = logy - ym
    slope = float(np.dot(dx, dy) / np.dot(dx, dx))
    intercept = ym - slope * xm
    resid = dy - slope * dx
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(dy, dy))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    rate = -slope if mode == "exponential" else slope
    return FitResult(mode=mode, rate=rate, prefactor=math.exp(intercept), r_squared=r2)
