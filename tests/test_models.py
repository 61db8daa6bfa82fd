"""Tests for reaction families, structure probes and entropy evaluation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdcheck import (
    augment_system,
    check_structure,
    custom_polynomial,
    entropy_pointwise_worst,
    quadratic_reversible,
    skew_lv,
    verify_augmented,
)

positive = st.floats(min_value=1e-3, max_value=1e3)


def f_at(sys, u):
    """The reaction at one state point u (species,), at t = 0."""
    return np.asarray(sys.evaluator(np.asarray(u, dtype=np.float64), 0.0))


def entropy_at(sys, u):
    """sum_i f_i log u_i at one strictly positive state point."""
    u = np.asarray(u, dtype=np.float64)[:, None]
    return entropy_pointwise_worst(u, sys.evaluator(u, 0.0))


def poly_model(n_species, terms, k0=0.0, k1=0.0, growth_k=1.0, growth_eps=0.0):
    return custom_polynomial([1.0] * n_species, terms, k0, k1, growth_k, growth_eps)


class TestQuadraticReversible:
    def test_declared_structure(self, quad_system):
        sys = quad_system
        assert sys.n_species == 4
        assert sys.k0 == 0.0 and sys.k1 == 0.0
        assert sys.growth_k == 1.0 and sys.growth_eps == 0.0
        assert sys.entropy_nonpositive
        assert not sys.time_dependent

    def test_conservation_law_labels_and_weights(self, quad_system):
        laws = quad_system.conservation_laws
        assert [label for label, _ in laws] == ["u1+u3", "u2+u3", "u2+u4"]
        weights = np.array([w for _, w in laws])
        np.testing.assert_array_equal(
            weights,
            [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]],
        )

    def test_hand_value(self, quad_system):
        # rate = 2*3 - 1*4 = 2
        f = f_at(quad_system, [2.0, 3.0, 1.0, 4.0])
        np.testing.assert_array_equal(f, [-2.0, -2.0, 2.0, 2.0])

    def test_equilibrium_is_a_zero(self, quad_system):
        f = f_at(quad_system, [1.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(f, np.zeros(4))

    @given(u=st.tuples(positive, positive, positive, positive))
    def test_conserved_combinations_vanish_exactly(self, quad_system, u):
        # f is (-r, -r, r, r) for a single shared rate, so each conserved
        # combination cancels bitwise, not just to rounding.
        f = f_at(quad_system, np.array(u))
        for _, w in quad_system.conservation_laws:
            assert float(np.dot(w, f)) == 0.0

    @given(u=st.tuples(positive, positive, positive, positive))
    def test_boundary_faces_point_inward(self, quad_system, u):
        for i in range(4):
            point = np.array(u)
            point[i] = 0.0
            f = f_at(quad_system, point)
            assert f[i] >= 0.0

    def test_entropy_hand_value(self, quad_system):
        # f = (-2, -2, 2, 2) against log(2, 3, 1, 4): 2*log(2/3)
        got = entropy_at(quad_system, [2.0, 3.0, 1.0, 4.0])
        assert got == pytest.approx(2.0 * math.log(2.0 / 3.0), rel=1e-14)

    @given(u=st.tuples(positive, positive, positive, positive))
    def test_entropy_dissipation_nonpositive(self, quad_system, u):
        # (a - b) * log(b / a) <= 0 with a = u1 u2, b = u3 u4; allow the
        # rounding of the log sum scaled by the rate magnitude.
        rate = u[0] * u[1] - u[2] * u[3]
        got = entropy_at(quad_system, u)
        assert got <= 1e-12 * (1.0 + abs(rate))


class TestSkewLV:
    def test_declared_structure(self, skew_system):
        sys = skew_system
        assert sys.n_species == 2
        assert sys.k0 == 0.0
        assert sys.k1 == -1.0
        assert sys.growth_k == 2.0
        assert sys.conservation_laws == ()

    def test_hand_value(self, skew_system):
        # lin = (3, -2); f = ((3-1)*2, (-2-1)*3)
        f = f_at(skew_system, [2.0, 3.0])
        np.testing.assert_array_equal(f, [4.0, -9.0])

    @given(u=st.tuples(positive, positive))
    def test_total_mass_decays_at_the_uniform_rate(self, skew_system, u):
        # The skew term cancels in the sum, leaving -tau * sum(u).
        f = f_at(skew_system, np.array(u))
        total = u[0] + u[1]
        assert float(np.sum(f)) == pytest.approx(-total, rel=1e-12)

    def test_unequal_decay_rates(self):
        # sum f = -(u1 + 2 u2) <= -(u1 + u2): K1 is minus the smallest rate.
        sys = skew_lv([1.0, 1.0], interaction=[[0.0, 1.0], [-1.0, 0.0]], decay=[1.0, 2.0])
        assert sys.k1 == -1.0

    def test_growth_constant_never_below_one(self):
        sys = skew_lv(
            [1.0, 1.0],
            interaction=[[0.0, 0.25], [-0.25, 0.0]],
            decay=[0.1, 0.1],
        )
        assert sys.growth_k == 1.0

    def test_rejects_nearly_skew_matrix(self):
        with pytest.raises(ValueError, match="exactly skew"):
            skew_lv(
                [1.0, 1.0],
                interaction=[[0.0, 1.0], [-1.0 + 1e-12, 0.0]],
                decay=[1.0, 1.0],
            )

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="exactly skew"):
            skew_lv(
                [1.0, 1.0],
                interaction=[[1e-300, 0.0], [0.0, 0.0]],
                decay=[0.0, 0.0],
            )

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            skew_lv(
                [1.0, 1.0],
                interaction=[[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]],
                decay=[1.0, 1.0],
            )

    def test_rejects_non_finite_matrix(self):
        with pytest.raises(ValueError, match="finite"):
            skew_lv(
                [1.0, 1.0],
                interaction=[[0.0, np.inf], [-np.inf, 0.0]],
                decay=[1.0, 1.0],
            )

    def test_rejects_wrong_decay_length(self):
        with pytest.raises(ValueError, match="length 2"):
            skew_lv([1.0, 1.0], interaction=[[0.0, 1.0], [-1.0, 0.0]], decay=[1.0])


class TestPolynomial:
    def test_hand_value_constant_and_square(self):
        # f(u) = 3 - u^2
        sys = poly_model(1, [[(3.0, (0,)), (-1.0, (2,))]], k0=3.0, growth_k=3.0)
        np.testing.assert_array_equal(f_at(sys, [2.0]), [-1.0])
        np.testing.assert_array_equal(f_at(sys, [0.0]), [3.0])

    def test_hand_value_mixed_monomial(self):
        # f1 = 2 u1 u2^3, f2 = 0
        sys = poly_model(2, [[(2.0, (1, 3))], []], growth_k=2.0, growth_eps=2.0)
        np.testing.assert_array_equal(f_at(sys, [3.0, 2.0]), [48.0, 0.0])

    def test_rejects_zero_species(self):
        with pytest.raises(ValueError, match="at least one species"):
            poly_model(0, [])

    def test_rejects_wrong_term_count(self):
        with pytest.raises(ValueError, match="lists"):
            poly_model(2, [[(1.0, (1, 0))]])

    def test_rejects_wrong_power_length(self):
        with pytest.raises(ValueError, match="species 1"):
            poly_model(2, [[(1.0, (1,))], []])

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError, match="nonnegative"):
            poly_model(1, [[(1.0, (-1,))]])

    def test_rejects_negative_k0(self):
        with pytest.raises(ValueError, match="k0"):
            poly_model(1, [[(1.0, (1,))]], k0=-1.0)

    def test_rejects_nonpositive_growth_constant(self):
        with pytest.raises(ValueError, match="growth constant"):
            poly_model(1, [[(1.0, (1,))]], growth_k=0.0)

    def test_rejects_negative_growth_shift(self):
        with pytest.raises(ValueError, match="growth exponent"):
            poly_model(1, [[(1.0, (1,))]], growth_eps=-0.5)


class TestDiffusionValidation:
    def test_wrong_length(self):
        with pytest.raises(ValueError, match="per species"):
            quadratic_reversible([1.0, 1.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_nonpositive_or_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite and > 0"):
            quadratic_reversible([1.0, 1.0, 1.0, bad])


class TestVectorizedEvaluation:
    def test_quad_matches_columnwise(self, quad_system):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 5.0, size=(4, 40))
        batch = quad_system.evaluator(pts, 0.0)
        cols = np.stack(
            [quad_system.evaluator(pts[:, j], 0.0) for j in range(40)], axis=1
        )
        np.testing.assert_array_equal(batch, cols)

    def test_skew_matches_columnwise(self, skew_system):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.0, 5.0, size=(2, 40))
        batch = skew_system.evaluator(pts, 0.0)
        cols = np.stack(
            [skew_system.evaluator(pts[:, j], 0.0) for j in range(40)], axis=1
        )
        np.testing.assert_allclose(batch, cols, rtol=1e-14, atol=0.0)

    def test_polynomial_matches_columnwise(self):
        sys = poly_model(
            2,
            [[(3.0, (0, 0)), (-1.0, (2, 1))], [(0.5, (1, 1))]],
            k0=3.0,
            growth_k=4.0,
            growth_eps=1.0,
        )
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 5.0, size=(2, 40))
        batch = sys.evaluator(pts, 0.0)
        cols = np.stack([sys.evaluator(pts[:, j], 0.0) for j in range(40)], axis=1)
        np.testing.assert_array_equal(batch, cols)


def audit(sys, seed):
    """check_structure's three checks, keyed by probe name."""
    checks = check_structure(sys, np.random.default_rng(seed))
    return {c.name.removeprefix("structure_"): c for c in checks}


class TestCheckStructure:
    def test_quad_passes_all_probes(self, quad_system):
        checks = audit(quad_system, 0)
        assert list(checks) == ["quasi_positivity", "mass_control", "growth"]
        assert checks["quasi_positivity"].passed
        assert checks["mass_control"].passed
        assert checks["growth"].passed
        assert checks["quasi_positivity"].detail == "20000 samples"

    def test_skew_passes_all_probes(self, skew_system):
        assert all(c.passed for c in audit(skew_system, 1).values())

    def test_unequal_decay_skew_passes(self):
        sys = skew_lv([1.0, 1.0], interaction=[[0.0, 1.0], [-1.0, 0.0]], decay=[1.0, 2.0])
        assert all(c.passed for c in audit(sys, 2).values())

    def test_catches_broken_quasi_positivity_only(self):
        # f = (-u2, u2): pushes species 1 negative on its own face while the
        # sum stays zero and the growth envelope holds.
        sys = poly_model(2, [[(-1.0, (0, 1))], [(1.0, (0, 1))]])
        checks = audit(sys, 6)
        qp = checks["quasi_positivity"]
        assert not qp.passed
        assert checks["mass_control"].passed
        assert checks["growth"].passed
        witness = re.fullmatch(r"species (\d+) reaches (\S+) at \[(.*)\]", qp.detail)
        point = [float(v) for v in witness.group(3).split(", ")]
        assert int(witness.group(1)) == 1
        assert point[0] == 0.0
        assert float(witness.group(2)) < 0.0
        assert qp.measured < 0.0

    def test_catches_broken_mass_control_only(self):
        # f = u with declared k0 = k1 = 0.
        sys = poly_model(1, [[(1.0, (1,))]], growth_k=2.0)
        checks = audit(sys, 7)
        assert checks["quasi_positivity"].passed
        assert not checks["mass_control"].passed
        assert checks["growth"].passed
        witness = re.match(
            r"sum (\S+) exceeds allowance (\S+) at \[", checks["mass_control"].detail
        )
        assert float(witness.group(1)) > float(witness.group(2))

    def test_catches_broken_growth_only(self):
        # f = u^4 against a declared quadratic envelope; k1 is large enough
        # that mass control still holds on the sampling range.
        sys = poly_model(1, [[(1.0, (4,))]], k1=1e12)
        checks = audit(sys, 8)
        assert checks["quasi_positivity"].passed
        assert checks["mass_control"].passed
        growth = checks["growth"]
        assert not growth.passed
        # The worst sampled |f| over its envelope.
        assert growth.measured > growth.bound == 1.0

    def test_deterministic_under_seed(self, quad_system):
        a = audit(quad_system, 9)
        b = audit(quad_system, 9)
        assert a["quasi_positivity"].measured == b["quasi_positivity"].measured
        assert a["mass_control"].measured == b["mass_control"].measured
        assert a["growth"].measured == b["growth"].measured


GROWTH_OK = "worst sampled ratio against the declared envelope"
FITTED = (
    "fitted constant C in |g_i| <= C e^{(1+eps)|K1| T}(1 + |w|^{2+eps}); passes when finite"
)
FLOOR = "; floor -1e-12*(1 + max_i |g_i|) per sample"


def audit_entries(sys, seed, t_end=None, offset=0.0):
    """(name, passed, repr(measured), detail) of check_structure on a fresh
    seeded generator or, given t_end, of verify_augmented on the closed
    system drawing from the same generator next, as run_experiment calls
    them."""
    rng = np.random.default_rng(seed)
    checks = check_structure(sys, rng)
    if t_end is not None:
        checks = verify_augmented(
            augment_system(sys), rng, t_horizon=t_end, g_tail_offset=offset
        )
    return [(c.name, c.passed, repr(c.measured), c.detail) for c in checks]


class TestAuditCharacterization:
    """Exact entries of both audits for fixed seeds.

    Reports must reproduce byte for byte, so the draw order of the samples,
    the measured floats and the witness text are pinned here.
    """

    def test_quad(self, quad_system):
        assert audit_entries(quad_system, 11) == [
            ("structure_quasi_positivity", True, "1.048443822661202e-12", "20000 samples"),
            ("structure_mass_control", True, "-1.0000085422539698e-09", ""),
            ("structure_growth", True, "0.49999060686001784", GROWTH_OK),
        ]

    def test_skew(self, skew_system):
        assert audit_entries(skew_system, 12) == [
            ("structure_quasi_positivity", True, "-0.0", "20000 samples"),
            ("structure_mass_control", True, "-1.0000024044636087e-09", ""),
            ("structure_growth", True, "0.3502803388057104", GROWTH_OK),
        ]

    def test_augmented_quad(self, quad_system):
        assert audit_entries(quad_system, 13, t_end=0.5) == [
            ("augmented_quasi_positivity", True, "0.0", "20000 samples" + FLOOR),
            ("augmented_conservation_residual", True, "0.0", ""),
            ("augmented_growth", True, "0.49988963812323545", FITTED),
        ]

    def test_augmented_skew(self, skew_system):
        assert audit_entries(skew_system, 14, t_end=2.0) == [
            ("augmented_quasi_positivity", True, "-2.1273722904263915e-13",
             "19999 samples" + FLOOR),
            ("augmented_conservation_residual", True, "0.0", ""),
            ("augmented_growth", True, "0.031901113965993454", FITTED),
        ]

    def test_augmented_quad_with_tail_offset(self, quad_system):
        assert audit_entries(quad_system, 15, t_end=0.5, offset=0.1) == [
            ("augmented_quasi_positivity", True, "1.099084139293287e-12",
             "20000 samples" + FLOOR),
            ("augmented_conservation_residual", False, "0.1",
             "sum 0.1 vs target 0.0 at t = 0.4639050468192795, w = [4.338346631235924, "
             "2.208434513075474e-06, 3.949697267112211e-06, 235.6738777008632, "
             "5.20845975359349]"),
            ("augmented_growth", True, "0.49991952193777556", FITTED),
        ]

    def test_broken_quasi_positivity(self):
        sys = poly_model(2, [[(-1.0, (0, 1))], [(1.0, (0, 1))]])
        assert audit_entries(sys, 16) == [
            ("structure_quasi_positivity", False, "-996.5357641376474",
             "species 1 reaches -996.5357641376474 at [0.0, 996.5357641376474]"),
            ("structure_mass_control", True, "-1.000002145018903e-09", ""),
            ("structure_growth", True, "0.4999910549609805", GROWTH_OK),
        ]

    def test_broken_mass_control(self):
        sys = poly_model(1, [[(1.0, (1,))]], growth_k=2.0)
        assert audit_entries(sys, 17) == [
            ("structure_quasi_positivity", True, "0.0", "20000 samples"),
            ("structure_mass_control", False, "999.3659523259134",
             "sum 999.3659533262794 exceeds allowance 1.0003659533262795e-06 "
             "at [999.3659533262794]"),
            ("structure_growth", True, "0.24999998800073878", GROWTH_OK),
        ]

    def test_broken_growth(self):
        sys = poly_model(1, [[(1.0, (4,))]], k1=1e12)
        assert audit_entries(sys, 18) == [
            ("structure_quasi_positivity", True, "0.0", "20000 samples"),
            ("structure_mass_control", True, "-1000334.2556134061", ""),
            ("structure_growth", False, "998213.2869349228",
             "species 1: |f_1| = 996431762638.9966 exceeds envelope 998215.2869339212 "
             "at [999.1067445142792]"),
        ]

    def test_closure_of_broken_mass_control(self):
        # The closure's face value is the base mass-control margin, so its
        # own face fails where the base breaks mass control.
        sys = poly_model(1, [[(1.0, (1,))]], growth_k=2.0)
        assert audit_entries(sys, 19, t_end=1.0) == [
            ("augmented_quasi_positivity", False, "-0.9990008914047963",
             "species 2 reaches -999.892200107773 at [999.892200107773, 0.0]"),
            ("augmented_conservation_residual", True, "0.0", ""),
            ("augmented_growth", True, "0.24999999176409698", FITTED),
        ]


class TestMassSource:
    def test_zero_source(self, quad_system):
        assert quad_system.mass_source_rate(5.0) == 0.0
        assert quad_system.mass_source_integral(5.0) == 0.0

    def test_constant_source(self):
        sys = poly_model(1, [[(2.0, (0,))]], k0=2.0, growth_k=2.0)
        assert sys.mass_source_rate(7.0) == 2.0
        assert sys.mass_source_integral(3.0) == 6.0

    def test_decaying_source(self):
        base = poly_model(1, [[(2.0, (0,))]], k0=2.0, growth_k=2.0)
        sys = type(base)(
            **{
                **{f: getattr(base, f) for f in base.__dataclass_fields__},
                "k0_decay": 0.5,
            }
        )
        assert sys.mass_source_rate(3.0) == pytest.approx(
            2.0 * math.exp(-1.5), rel=1e-14
        )
        assert sys.mass_source_integral(3.0) == pytest.approx(
            4.0 * (1.0 - math.exp(-1.5)), rel=1e-14
        )
        # The mass ledger takes the rate at every step's start at once.
        times = [0.0, 0.25, 3.0]
        assert sys.mass_source_rate(np.array(times)).tolist() == [
            sys.mass_source_rate(t) for t in times
        ]

