"""Tests for the auxiliary-field tracker and the runtime check battery."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import quad_bump_state

from rdcheck import (
    AuxiliaryConfig,
    AuxiliaryTracker,
    CheckResult,
    Field,
    Grid1D,
    InvariantTracker,
    PolynomialSpec,
    ReactionSystem,
    SolverConfig,
    SystemState,
    check_b_range,
    check_conservation_laws,
    check_entropy,
    check_mass_envelope,
    check_mass_identity,
    check_positivity,
    check_uhat_bounds,
    check_z_bound,
    entropy_pointwise_worst,
    instantiate_model,
    loglog_slope,
    run_simulation,
)


def constant_state(grid, values):
    return SystemState(0.0, [Field.constant(grid, v) for v in values])


def sourced_single_species(k0):
    """One species, f = 0, declared mass source k0."""
    return instantiate_model(
        PolynomialSpec(
            n_species=1, terms=[[]], k0=k0, k1=0.0, growth_k=1.0, growth_eps=0.0
        ),
        [1.0],
    )


def tracked_run(sys, initial, cfg_aux, dt, t_end):
    tracker = AuxiliaryTracker(sys, initial, cfg_aux)
    traj = run_simulation(
        sys, initial, SolverConfig(dt=dt, t_end=t_end), hooks=[tracker.on_step]
    )
    return tracker, traj


def fed_invariants(sys, rows, domain_length=1.0):
    """InvariantTracker fed (t, masses) pairs, for checks that only read masses."""
    inv = InvariantTracker(sys, domain_length)
    for t, masses in rows:
        masses = np.asarray(masses, dtype=float)
        inv.update(t, np.zeros((masses.size, 2)), masses, None)
    return inv


class TestAuxiliaryConfig:
    def test_defaults(self):
        cfg = AuxiliaryConfig(d=5.0)
        assert cfg.gammas == (0.25, 0.5)
        assert cfg.z_offset == 0.0

    def test_rejects_nonpositive_diffusion(self):
        with pytest.raises(ValueError, match="auxiliary diffusion"):
            AuxiliaryConfig(d=0.0)

    def test_rejects_exponent_outside_unit_interval(self):
        with pytest.raises(ValueError, match="Holder exponent"):
            AuxiliaryConfig(d=5.0, gammas=(0.5, 1.5))


class TestTrackerConstruction:
    def test_requires_strictly_dominating_diffusion(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), [1.0] * 4)
        with pytest.raises(ValueError, match="strictly exceed"):
            AuxiliaryTracker(quad_system, state, AuxiliaryConfig(d=2.5))

    def test_initial_values(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), [1.0, 2.0, 3.0, 4.0])
        tracker = AuxiliaryTracker(quad_system, state, AuxiliaryConfig(d=5.0))
        assert tracker.initial_sup_sum == 10.0
        assert tracker.z_sup_max == 10.0
        assert tracker.vd_consistency_max == 0.0
        assert tracker.uhat_sup_max == 0.0

    def test_b_falls_back_on_empty_cells(self, quad_system):
        # With no mass anywhere the weight is reported as 1 / d_1.
        state = constant_state(Grid1D(8, 1.0), [0.0] * 4)
        tracker = AuxiliaryTracker(quad_system, state, AuxiliaryConfig(d=5.0))
        assert tracker.b_min == 1.0
        assert tracker.b_max == 1.0

    def test_row_values_returns_a_copy(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), [1.0] * 4)
        tracker = AuxiliaryTracker(quad_system, state, AuxiliaryConfig(d=5.0))
        row = tracker.row_values()
        assert set(row) == {
            "z_sup", "b_min", "b_max", "vd_consistency", "zvd_residual", "grad_vd_sup",
        }
        row["z_sup"] = -1.0
        assert tracker.row_values()["z_sup"] != -1.0


@pytest.fixture(scope="module")
def equilibrium_outcome(quad_system):
    state = constant_state(Grid1D(16, 1.0), [1.0] * 4)
    return tracked_run(quad_system, state, AuxiliaryConfig(d=5.0), dt=0.01, t_end=0.25)


@pytest.fixture(scope="module")
def sourced_outcome():
    sys = sourced_single_species(2.0)
    state = constant_state(Grid1D(16, 1.0), [3.0])
    return tracked_run(sys, state, AuxiliaryConfig(d=3.0), dt=0.01, t_end=1.0)


class TestTrackerAtEquilibrium:
    """Spatially constant run at the reversible-exchange equilibrium.

    With u identically (1, 1, 1, 1) and d = 5 the auxiliary fields have
    closed forms: v_i = t, v_d = 13 t, z = 4, z_hat = 4 t, u_hat = 7 t, so
    both comparison residuals vanish and b = 4/7 throughout.
    """

    @pytest.fixture
    def outcome(self, equilibrium_outcome):
        return equilibrium_outcome

    def test_smoothings_grow_linearly(self, outcome):
        tracker, _ = outcome
        snap = tracker.snapshot()
        assert snap.t == pytest.approx(0.25, abs=1e-12)
        for v in snap.v:
            np.testing.assert_allclose(v.values, 0.25, rtol=1e-10)
        np.testing.assert_allclose(snap.v_d.values, 13.0 * 0.25, rtol=1e-10)
        np.testing.assert_allclose(snap.z.values, 4.0, rtol=1e-12)
        np.testing.assert_allclose(snap.z_hat.values, 1.0, rtol=1e-10)
        np.testing.assert_allclose(snap.u_hat.values, 7.0 * 0.25, rtol=1e-10)
        np.testing.assert_allclose(snap.b.values, 4.0 / 7.0, rtol=1e-12)

    def test_residuals_stay_at_rounding_level(self, outcome):
        tracker, _ = outcome
        assert tracker.vd_consistency_max <= 1e-10
        assert tracker.zvd_residual_max <= 1e-10
        assert tracker.grad_vd_max <= 1e-10

    def test_running_extrema(self, outcome):
        tracker, _ = outcome
        assert tracker.z_sup_max == pytest.approx(4.0, rel=1e-12)
        assert tracker.b_min == pytest.approx(4.0 / 7.0, rel=1e-12)
        assert tracker.b_max == pytest.approx(4.0 / 7.0, rel=1e-12)
        assert tracker.uhat_min >= 0.0
        assert tracker.uhat_sup_max == pytest.approx(7.0 * 0.25, rel=1e-10)
        assert tracker.dzhat_minus_uhat_min >= 0.0
        # Forcing sup = sup |sum (d - d_i) u_i| = 4 + 3.5 + 3 + 2.5.
        assert tracker.forcing_sup_max == pytest.approx(13.0, rel=1e-12)

    def test_bound_checks_pass(self, outcome):
        tracker, traj = outcome
        assert check_z_bound(tracker, 0.25).passed
        assert check_b_range(tracker).passed
        for result in check_uhat_bounds(tracker, 0.25):
            assert result.passed
        inv = InvariantTracker(tracker.sys, 1.0)
        for e in traj.entries:
            inv.update(e.t, e.u, e.masses, None)
        assert check_positivity(inv).passed


class TestTrackerWithConstantSource:
    """One diffusing species held at 3 with declared source K0 = 2.

    z grows linearly (3 + 2t), so the comparison residuals have the exact
    values 3 t^2 (route consistency) and 2 t (elliptic identity): both
    trapezoidal accumulators are exact on linear integrands, which turns
    the residuals themselves into closed-form oracles.
    """

    @pytest.fixture
    def outcome(self, sourced_outcome):
        return sourced_outcome

    def test_z_tracks_the_source(self, outcome):
        tracker, _ = outcome
        np.testing.assert_allclose(tracker.snapshot().z.values, 5.0, rtol=1e-12)
        assert tracker.z_sup_max == pytest.approx(5.0, rel=1e-12)

    def test_consistency_residual_hand_value(self, outcome):
        # |v_d - (d z_hat - u_hat)| = |6t - (9t + 3t^2 - 3t)| = 3 t^2.
        tracker, _ = outcome
        assert tracker.vd_consistency_max == pytest.approx(3.0, rel=1e-9)

    def test_elliptic_residual_hand_value(self, outcome):
        # |z - L v_d - u| = |(3 + 2t) - 0 - 3| = 2 t.
        tracker, _ = outcome
        assert tracker.zvd_residual_max == pytest.approx(2.0, rel=1e-9)

    def test_z_bound_is_saturated_but_holds(self, outcome):
        # sup z = 5 equals M + integral K0 = 3 + 2 exactly; the slack keeps
        # the verdict on the passing side.
        tracker, _ = outcome
        result = check_z_bound(tracker, 1.0)
        assert result.passed
        assert result.measured == pytest.approx(result.bound, rel=1e-12)

    def test_uhat_bounds_pass(self, outcome):
        tracker, _ = outcome
        by_name = {r.name: r for r in check_uhat_bounds(tracker, 1.0)}
        assert by_name["uhat_nonnegative"].passed
        assert by_name["uhat_below_d_zhat"].passed
        assert by_name["uhat_sup_bound"].passed
        assert by_name["uhat_sup_bound"].bound == pytest.approx(15.0, rel=1e-12)
        assert by_name["uhat_sup_bound"].measured == pytest.approx(3.0, rel=1e-10)


class TestZOffsetInjection:
    def test_offset_breaks_the_z_bound(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), [1.0] * 4)
        clean = AuxiliaryTracker(quad_system, state, AuxiliaryConfig(d=5.0))
        dirty = AuxiliaryTracker(
            quad_system, state, AuxiliaryConfig(d=5.0, z_offset=1.0)
        )
        assert check_z_bound(clean, 0.1).passed
        result = check_z_bound(dirty, 0.1)
        assert not result.passed
        assert result.measured == pytest.approx(5.0, rel=1e-12)
        assert result.bound == pytest.approx(4.0, rel=1e-12)


class TestRefinementShrinksResiduals:
    def test_both_residuals_shrink_under_joint_refinement(self, quad_system):
        # Halving dt and h together should roughly halve the first-order
        # comparison residuals.
        maxima = {}
        for n, dt in ((32, 4e-3), (64, 2e-3)):
            state = quad_bump_state(Grid1D(n, 1.0))
            tracker, _ = tracked_run(
                quad_system, state, AuxiliaryConfig(d=5.0), dt=dt, t_end=0.2
            )
            maxima[n] = (tracker.vd_consistency_max, tracker.zvd_residual_max)
        for coarse, fine in zip(maxima[32], maxima[64]):
            assert 1.5 <= coarse / fine <= 3.0

    def test_holder_moduli_are_populated(self, quad_system):
        state = quad_bump_state(Grid1D(32, 1.0))
        tracker, _ = tracked_run(
            quad_system, state, AuxiliaryConfig(d=5.0), dt=5e-3, t_end=0.1
        )
        tracker.measure_holder()
        expected = {
            (name, g)
            for name in ("v_d", "z_hat", "u_hat")
            for g in (0.25, 0.5)
        }
        assert set(tracker.holder_max) == expected
        assert all(v > 0.0 for v in tracker.holder_max.values())


class TestUhatFailureBranches:
    def test_each_bound_reports_its_own_violation(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), [1.0] * 4)
        tracker = AuxiliaryTracker(quad_system, state, AuxiliaryConfig(d=5.0))
        tracker.uhat_min = -1e-6
        tracker.dzhat_minus_uhat_min = -1e-6
        tracker.uhat_sup_max = 1e9
        by_name = {r.name: r for r in check_uhat_bounds(tracker, 1.0)}
        assert not by_name["uhat_nonnegative"].passed
        assert not by_name["uhat_below_d_zhat"].passed
        assert not by_name["uhat_sup_bound"].passed

    def test_b_range_failure(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), [1.0] * 4)
        tracker = AuxiliaryTracker(quad_system, state, AuxiliaryConfig(d=5.0))
        tracker.b_min = 0.1  # below 1 / max d = 0.4
        assert not check_b_range(tracker).passed


class TestConservationLaws:
    def test_no_declared_laws(self, skew_system):
        assert check_conservation_laws(fed_invariants(skew_system, [])) == []

    def test_exact_conservation_passes(self, quad_system):
        inv = fed_invariants(
            quad_system, [(0.0, [1.0, 2.0, 3.0, 4.0]), (1.0, [1.0, 2.0, 3.0, 4.0])]
        )
        results = check_conservation_laws(inv)
        assert [r.name for r in results] == [
            "conservation[u1+u3]",
            "conservation[u2+u3]",
            "conservation[u2+u4]",
        ]
        assert all(r.passed for r in results)
        assert all(r.measured == 0.0 for r in results)

    def test_drift_in_one_law_is_localized(self, quad_system):
        # Perturbing species 1 only moves the u1 + u3 combination.
        inv = fed_invariants(
            quad_system, [(0.0, [1.0, 2.0, 3.0, 4.0]), (1.0, [1.0 + 1e-6, 2.0, 3.0, 4.0])]
        )
        by_name = {r.name: r for r in check_conservation_laws(inv)}
        assert not by_name["conservation[u1+u3]"].passed
        assert by_name["conservation[u2+u3]"].passed
        assert by_name["conservation[u2+u4]"].passed


class TestMassEnvelope:
    def test_flat_envelope(self):
        sys = sourced_single_species(0.0)
        assert check_mass_envelope(
            fed_invariants(sys, [(0.0, [1.0]), (1.0, [1.0])])
        ).passed
        assert not check_mass_envelope(
            fed_invariants(sys, [(0.0, [1.0]), (1.0, [1.0 + 3e-6])])
        ).passed

    def test_decaying_envelope(self, skew_system):
        # k1 = -1: the envelope itself shrinks as e^{-t}.
        decayed = fed_invariants(
            skew_system,
            [(0.0, [0.6, 0.4]), (1.0, [0.3 * math.e ** -1, 0.7 * math.e ** -1])],
        )
        assert check_mass_envelope(decayed).passed
        flat = fed_invariants(skew_system, [(0.0, [0.6, 0.4]), (1.0, [0.6, 0.4])])
        assert not check_mass_envelope(flat).passed

    def test_constant_source_envelope(self):
        sys = sourced_single_species(2.0)
        # Envelope m0 + domain * k0 * t with domain = 2.
        riding = fed_invariants(sys, [(0.0, [1.0]), (0.5, [1.0 + 2.0 * 2.0 * 0.5])], 2.0)
        assert check_mass_envelope(riding).passed
        above = fed_invariants(
            sys, [(0.0, [1.0]), (0.5, [1.0 + 2.0 * 2.0 * 0.5 + 1e-5])], 2.0
        )
        assert not check_mass_envelope(above).passed

    def test_decaying_source_envelope(self):
        sys = dataclasses.replace(sourced_single_species(2.0), k0_decay=0.5)
        # Envelope m0 + domain * 4 (1 - e^{-t/2}).
        src = 4.0 * (1.0 - math.exp(-0.5))
        riding = fed_invariants(sys, [(0.0, [1.0]), (1.0, [1.0 + src])])
        result = check_mass_envelope(riding)
        assert result.passed
        assert result.measured == pytest.approx(0.0, abs=1e-12)


class TestMassIdentity:
    def test_none_without_uniform_decay(self, quad_system):
        assert check_mass_identity(fed_invariants(quad_system, [(0.0, [1.0] * 4)])) is None

    def test_exact_geometric_decay_passes(self, skew_system):
        m0 = 2.5
        dt = 1e-3
        rows = [(0.0, [m0, 0.0])]
        m = m0
        for k in range(1, 4):
            m = m * (1.0 - dt)
            rows.append((k * dt, [m, 0.0]))
        result = check_mass_identity(fed_invariants(skew_system, rows))
        assert result.passed
        assert result.measured == 0.0

    def test_broken_decay_fails(self, skew_system):
        dt = 1e-3
        rows = [(0.0, [1.0, 0.0]), (dt, [(1.0 - dt) + 1e-8, 0.0])]
        assert not check_mass_identity(fed_invariants(skew_system, rows)).passed


def fed_state(sys, u):
    """InvariantTracker fed one (species, cells) state at t = 0, with its entropy."""
    u = np.asarray(u, dtype=float)
    inv = InvariantTracker(sys, 1.0)
    inv.update(0.0, u, u.sum(axis=1), entropy_pointwise_worst(sys, u, 0.0))
    return inv


class TestEntropy:
    def test_none_for_unflagged_families(self, skew_system):
        assert check_entropy(fed_invariants(skew_system, [])) is None

    def test_equilibrium_dissipation_is_zero(self, quad_system):
        result = check_entropy(fed_state(quad_system, np.ones((4, 8))))
        assert result.passed
        assert result.measured == 0.0

    def test_none_when_no_cell_is_fully_positive(self, quad_system):
        u = np.ones((4, 4))
        u[0] = 0.0
        assert check_entropy(fed_state(quad_system, u)) is None

    def test_positive_dissipation_fails(self):
        # A fabricated family that claims the sign but violates it: f = u
        # gives dissipation u log u > 0 at u = e.
        sys = ReactionSystem(
            name="sign-violating",
            n_species=1,
            diffusion=np.array([1.0]),
            k0=0.0,
            k1=1.0,
            growth_k=2.0,
            growth_eps=0.0,
            evaluator=lambda u, t: u,
            entropy_nonpositive=True,
        )
        result = check_entropy(fed_state(sys, np.full((1, 4), math.e)))
        assert not result.passed
        assert result.measured == pytest.approx(math.e, rel=1e-12)


class TestEntropyPointwise:
    def test_worst_cell_wins(self, quad_system):
        u = np.array([[2.0, 1.0], [3.0, 1.0], [1.0, 1.0], [4.0, 1.0]])
        # Cell 1: 2 log(2/3) < 0; cell 2: equilibrium, exactly 0.
        assert entropy_pointwise_worst(quad_system, u, 0.0) == 0.0

    def test_cells_with_a_zero_species_are_masked(self, quad_system):
        u = np.array([[2.0, 1.0], [3.0, 0.0], [1.0, 1.0], [4.0, 1.0]])
        got = entropy_pointwise_worst(quad_system, u, 0.0)
        assert got == pytest.approx(2.0 * math.log(2.0 / 3.0), rel=1e-12)

    def test_none_without_positive_cells(self, quad_system):
        assert entropy_pointwise_worst(quad_system, np.zeros((4, 2)), 0.0) is None


class TestPositivityCheck:
    def test_flags_negative_recorded_values(self, quad_system):
        good = np.ones((4, 4))
        bad = np.ones((4, 4))
        bad[0, 2] = -1e-13
        inv = InvariantTracker(quad_system, 1.0)
        for t, u in ((0.0, good), (0.1, bad)):
            inv.update(t, u, np.ones(4), None)
        result = check_positivity(inv)
        assert not result.passed
        assert result.measured == -1e-13


class TestLogLogSlope:
    def test_exact_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        assert loglog_slope(x, x**2.5) == pytest.approx(2.5, rel=1e-12)

    def test_needs_two_distinct_points(self):
        with pytest.raises(ValueError, match="distinct"):
            loglog_slope([2.0, 2.0], [1.0, 3.0])
        with pytest.raises(ValueError, match="distinct"):
            loglog_slope([2.0], [1.0])
