"""Closed-form constants against independent quadrature and root oracles."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdcheck import (
    exponent_algebra,
    fit_rate,
    gaussian_moment,
    interpolation_constants,
    quad_equilibrium,
)

# Hardcoded unit-sphere surface areas for n = 1, 2, 3; independent of the
# gamma function the package uses.
SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def moment_oracle(n: int, delta: float) -> float:
    """Radial quadrature of |y|^delta exp(-|y|^2) over R^n."""
    # The integrand is below 1e-60 past r = 12, so the truncation is free.
    radial, err = scipy.integrate.quad(
        lambda r: r ** (n - 1 + delta) * math.exp(-r * r),
        0.0,
        12.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    assert err < 1e-12
    return SPHERE_AREA[n] * radial


def equilibrium_oracle(m13: float, m23: float, m24: float) -> np.ndarray:
    """Bisection on the balance g(s) = (m13-s)(m23-s) - s(m24-m23+s).

    s = u3; g is strictly decreasing on [0, min(m13, m23)] with g(0) > 0,
    so the root there is unique.
    """

    def g(s):
        return (m13 - s) * (m23 - s) - s * (m24 - m23 + s)

    hi = min(m13, m23)
    assert g(0.0) > 0.0 and g(hi) < 0.0
    u3 = scipy.optimize.bisect(g, 0.0, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    u1 = m13 - u3
    u2 = m23 - u3
    u4 = m24 - u2
    return np.array([u1, u2, u3, u4])


class TestGaussianMoment:
    @pytest.mark.parametrize(
        "n,expect",
        [(1, math.pi**0.5), (2, math.pi), (3, math.pi**1.5)],
    )
    def test_zeroth_moment_is_pi_power(self, n, expect):
        assert gaussian_moment(n, 0.0) == pytest.approx(expect, rel=1e-13)

    def test_first_moment_three_dimensions(self):
        assert gaussian_moment(3, 1.0) == pytest.approx(2.0 * math.pi, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0, 2.0])
    def test_against_quadrature(self, n, delta):
        assert gaussian_moment(n, delta) == pytest.approx(
            moment_oracle(n, delta), rel=1e-9
        )

    @pytest.mark.parametrize("args", [(0, 0.0), (1.5, 0.0), (2, -0.1)])
    def test_domain(self, args):
        with pytest.raises(ValueError):
            gaussian_moment(*args)

    @pytest.mark.parametrize(
        "args,factor",
        [((400, 0.0), "Gamma(200.0)"), ((1, 400.0), "Gamma(200.5)")],
    )
    def test_gamma_factor_that_overflows(self, args, factor):
        with pytest.raises(ValueError) as excinfo:
            gaussian_moment(*args)
        message = str(excinfo.value)
        assert f"n = {args[0]}" in message and factor in message


class TestInterpolationConstants:
    def test_frozen_triple_one_one_zero(self):
        c = interpolation_constants(1, 1.0, 0.0)
        assert c.b4 == pytest.approx(2.0, rel=1e-12)
        assert c.b5 == pytest.approx(1.0, rel=1e-12)
        assert c.b == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        assert c.case == "free-space"
        assert c.b1 is None and c.b2 is None and c.b3 is None

    def test_frozen_triple_two_one_zero(self):
        c = interpolation_constants(2, 1.0, 0.0)
        assert c.b4 == pytest.approx(math.pi, rel=1e-12)
        assert c.b5 == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert c.b == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-12)

    def test_frozen_triple_one_four_zero(self):
        c = interpolation_constants(1, 4.0, 0.0)
        assert c.b4 == pytest.approx(1.0, rel=1e-12)
        assert c.b5 == pytest.approx(0.5, rel=1e-12)
        assert c.b == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_diffusion_scaling_laws(self):
        # B4 scales like d^{-1/2} and B5 like d^{(gamma-1)/2}.
        gamma = 0.5
        a = interpolation_constants(2, 1.0, gamma)
        b = interpolation_constants(2, 9.0, gamma)
        assert b.b4 == pytest.approx(a.b4 / 3.0, rel=1e-12)
        assert b.b5 == pytest.approx(a.b5 * 9.0 ** ((gamma - 1.0) / 2.0), rel=1e-12)

    def test_kernel_envelope_hand_case(self):
        c = interpolation_constants(1, 1.0, 0.0, c_n=1.0, kappa_n=1.0)
        assert c.case == "kernel-envelope"
        assert c.b1 == pytest.approx(math.pi, rel=1e-12)
        assert c.b2 == pytest.approx(1.0, rel=1e-12)
        assert c.b3 == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        # combine(B1, B3) with gamma = 0: 2 sqrt(B1 B3).
        assert c.b == pytest.approx(2.0 * math.sqrt(math.pi * math.sqrt(math.pi)), rel=1e-12)
        # The free-space pair is still reported alongside.
        assert c.b4 == pytest.approx(2.0, rel=1e-12)

    def test_half_supplied_envelope_rejected(self):
        with pytest.raises(ValueError):
            interpolation_constants(1, 1.0, 0.0, c_n=1.0)
        with pytest.raises(ValueError):
            interpolation_constants(1, 1.0, 0.0, kappa_n=1.0)

    @pytest.mark.parametrize(
        "args",
        [(0, 1.0, 0.0), (1.5, 1.0, 0.0), (1, 0.0, 0.0), (1, 1.0, 1.0), (1, 1.0, -0.1)],
    )
    def test_domain(self, args):
        with pytest.raises(ValueError):
            interpolation_constants(*args)

    @pytest.mark.parametrize(
        "args,kwargs,needle",
        [
            ((400, 1.0, 0.5), {}, "Gamma(200.0)"),
            ((343, 1.0, 0.5), {}, "Gamma(172.0)"),
            ((100, 1.0, 0.5), {"c_n": 1.0, "kappa_n": 1e-10}, "kappa_n^"),
            # Finite factors whose product overflows.
            ((3, 1.0, 0.5), {"c_n": 1e308, "kappa_n": 0.01}, "B1 overflows"),
            ((3, 1.0, 0.5), {"c_n": 1e305, "kappa_n": 0.01}, "B2 overflows"),
            ((3, 1.0, 0.5), {"c_n": 5e304, "kappa_n": 0.01}, "B3 overflows"),
            ((3, 1.0, 0.5), {"c_n": 4e304, "kappa_n": 0.01}, "B overflows"),
        ],
    )
    def test_factor_that_overflows(self, args, kwargs, needle):
        with pytest.raises(ValueError) as excinfo:
            interpolation_constants(*args, **kwargs)
        message = str(excinfo.value)
        assert f"n = {args[0]}" in message and needle in message


class TestExponentAlgebra:
    def test_frozen_zero_one(self):
        alg = exponent_algebra(0.0, 1.0)
        assert alg.lam == 0.75
        assert alg.admissible is True
        assert alg.xi == 4.0

    def test_frozen_zero_half(self):
        alg = exponent_algebra(0.0, 0.5)
        assert alg.lam == pytest.approx(11.0 / 12.0, rel=1e-14)
        assert alg.admissible is True
        assert alg.xi == pytest.approx(12.0, rel=1e-12)

    def test_inadmissible_pair(self):
        alg = exponent_algebra(1.0, 1.0)  # lambda = 1 exactly
        assert alg.admissible is False
        assert alg.xi is None

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 2.0, allow_nan=False),
        st.floats(0.01, 1.0, allow_nan=False),
    )
    def test_admissibility_equivalence(self, eps, delta):
        threshold = delta / (2.0 - delta)
        assume(abs(eps - threshold) > 1e-9)
        alg = exponent_algebra(eps, delta)
        assert alg.admissible == (eps < threshold)
        if alg.admissible:
            assert alg.xi > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            exponent_algebra(-0.1, 1.0)
        with pytest.raises(ValueError):
            exponent_algebra(0.0, 0.0)
        with pytest.raises(ValueError):
            exponent_algebra(0.0, 1.5)


class TestQuadEquilibrium:
    def test_frozen_symmetric(self):
        eq = quad_equilibrium(2.0, 2.0, 2.0)
        np.testing.assert_allclose(eq.as_array(), [1.0, 1.0, 1.0, 1.0], atol=1e-15)

    def test_frozen_asymmetric(self):
        eq = quad_equilibrium(1.0, 2.0, 3.0)
        np.testing.assert_allclose(eq.as_array(), [0.5, 1.5, 0.5, 1.5], rtol=1e-15)

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 200:
            m13, m23, m24 = rng.uniform(0.05, 5.0, size=3)
            if m13 + m24 <= m23 + 1e-9:
                continue
            ours = quad_equilibrium(m13, m23, m24).as_array()
            oracle = equilibrium_oracle(m13, m23, m24)
            np.testing.assert_allclose(ours, oracle, rtol=1e-10, atol=1e-12)
            done += 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(0.05, 10.0, allow_nan=False),
        st.floats(0.05, 10.0, allow_nan=False),
        st.floats(0.05, 10.0, allow_nan=False),
    )
    def test_identities_on_admissible_masses(self, m13, m23, m24):
        assume(m13 + m24 > m23 + 1e-6)
        eq = quad_equilibrium(m13, m23, m24)
        u = eq.as_array()
        assert np.all(u > 0.0)
        assert u[0] + u[2] == pytest.approx(m13, rel=1e-12)
        assert u[1] + u[2] == pytest.approx(m23, rel=1e-12)
        assert u[1] + u[3] == pytest.approx(m24, rel=1e-12)
        assert u[0] * u[1] == pytest.approx(u[2] * u[3], rel=1e-9, abs=1e-12)

    def test_boundary_raises_with_component_name(self):
        # m13 + m24 <= m23 makes u1 nonpositive.
        with pytest.raises(ValueError, match="u1"):
            quad_equilibrium(1.0, 4.0, 2.0)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError, match="m23"):
            quad_equilibrium(1.0, 0.0, 1.0)


class TestFitRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 3.0, 40)
        y = 3.0 * np.exp(-2.0 * t)
        fit = fit_rate(t, y, "exponential")
        assert fit.rate == pytest.approx(2.0, rel=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_power_law(self):
        t = np.linspace(0.5, 4.0, 25)
        y = 5.0 * t**1.5
        fit = fit_rate(t, y, "polynomial")
        assert fit.rate == pytest.approx(1.5, rel=1e-12)
        assert fit.prefactor == pytest.approx(5.0, rel=1e-12)

    def test_decaying_power_law_signs(self):
        t = np.linspace(1.0, 8.0, 12)
        fit = fit_rate(t, t**-4.0, "polynomial")
        assert fit.rate == pytest.approx(-4.0, rel=1e-12)

    def test_growth_gives_negative_exponential_rate(self):
        t = np.linspace(0.0, 2.0, 10)
        fit = fit_rate(t, np.exp(1.5 * t), "exponential")
        assert fit.rate == pytest.approx(-1.5, rel=1e-12)

    def test_noisy_data_r_squared_below_one(self):
        t = np.linspace(0.0, 5.0, 60)
        y = np.exp(-t) * (1.0 + 0.02 * np.sin(37.0 * t))
        fit = fit_rate(t, y, "exponential")
        assert 0.9 < fit.r_squared < 1.0
        assert fit.rate == pytest.approx(1.0, rel=0.05)

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_rate([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            fit_rate([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            fit_rate([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0], "polynomial")
        with pytest.raises(ValueError):
            fit_rate([2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            fit_rate([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0], "cubic")
