"""Tests for the auxiliary-field tracker and the runtime check battery."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import collected_run, hand_built_event, initial_event, quad_bump_state
from test_falsifiers import checkerboard_v_d

from rdcheck import (
    AuxiliaryConfig,
    AuxiliaryTracker,
    CheckResult,
    Grid1D,
    InvariantTracker,
    ReactionSystem,
    SolverConfig,
    custom_polynomial,
    diagnostics,
    entropy_pointwise_worst,
    grad_sup,
    implicit_heat_step,
    interpolation_constants,
    loglog_slope,
    quadratic_reversible,
    run_simulation,
    skew_lv,
)


def constant_state(grid, values):
    """A run's input (grid, u0), one constant row per value."""
    return grid, np.stack([np.full(grid.n_cells, float(v)) for v in values])


def sourced_single_species(k0):
    """One species, f = 0, declared mass source k0."""
    return custom_polynomial([1.0], [[]], k0=k0, k1=0.0, growth_k=1.0, growth_eps=0.0)


def started_tracker(sys, initial, cfg_aux):
    """An AuxiliaryTracker that has seen the index-0 event of a run from the
    (grid, u0) pair initial."""
    tracker = AuxiliaryTracker(sys, initial[0], cfg_aux)
    tracker.on_step(initial_event(sys, *initial))
    return tracker


def tracked_run(sys, initial, cfg_aux, dt, t_end):
    """A run from the (grid, u0) pair initial with an AuxiliaryTracker hook."""
    tracker = AuxiliaryTracker(sys, initial[0], cfg_aux)
    traj = collected_run(
        sys, *initial, SolverConfig(dt=dt, t_end=t_end), hooks=[tracker.on_step]
    )
    return tracker, traj


def by_name(checks):
    """A tracker's checks() list keyed by check name."""
    return {c.name: c for c in checks}


def fed_invariants(sys, rows, domain_length=1.0):
    """InvariantTracker on two cells fed (t, masses) states, each the step
    from the state before it, with u = f = 0: for checks that only read
    masses."""
    inv = InvariantTracker(sys, Grid1D(2, domain_length))
    t_old = None
    for index, (t, masses) in enumerate(rows):
        zeros = np.zeros((len(masses), 2))
        dt = 0.0 if t_old is None else t - t_old
        inv.update(hand_built_event(index, t, zeros, zeros, masses, masses, dt), None)
        t_old = t
    return inv


def fed_events(sys, grid, events):
    """InvariantTracker on grid fed the events, with no entropy."""
    inv = InvariantTracker(sys, grid)
    for event in events:
        inv.update(event, None)
    return inv


class TestAuxiliaryConfig:
    def test_defaults(self):
        cfg = AuxiliaryConfig(d=5.0)
        assert cfg.z_offset == 0.0

    def test_rejects_nonpositive_diffusion(self):
        with pytest.raises(ValueError, match="auxiliary diffusion"):
            AuxiliaryConfig(d=0.0)


class TestTrackerConstruction:
    def test_requires_strictly_dominating_diffusion(self, quad_system):
        with pytest.raises(ValueError, match="strictly exceed"):
            AuxiliaryTracker(quad_system, Grid1D(8, 1.0), AuxiliaryConfig(d=2.5))

    def test_initial_values(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), [1.0, 2.0, 3.0, 4.0])
        tracker = started_tracker(quad_system, state, AuxiliaryConfig(d=5.0))
        assert tracker.initial_sup_sum == 10.0
        assert tracker.z_sup_max == 10.0
        assert tracker.vd_consistency_max == 0.0
        assert tracker.uhat_sup_max == 0.0

    def test_b_falls_back_on_empty_cells(self, quad_system):
        # With no mass anywhere the weight is reported as 1 / d_1.
        state = constant_state(Grid1D(8, 1.0), [0.0] * 4)
        tracker = started_tracker(quad_system, state, AuxiliaryConfig(d=5.0))
        assert tracker.b_min == 1.0
        assert tracker.b_max == 1.0



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
        # Reads the tracker's current fields; b = 4/7 is pinned pointwise
        # by b_min == b_max in test_running_extrema.
        tracker, traj = outcome
        assert traj.final().t == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(tracker._v_d, 13.0 * 0.25, rtol=1e-10)
        np.testing.assert_allclose(tracker._z, 4.0, rtol=1e-12)
        np.testing.assert_allclose(tracker._z_hat, 1.0, rtol=1e-10)
        np.testing.assert_allclose(tracker._u_hat, 7.0 * 0.25, rtol=1e-10)

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
        tracker, _ = outcome
        for result in tracker.checks():
            assert result.passed
        grid, u0 = constant_state(Grid1D(16, 1.0), [1.0] * 4)
        events = []
        run_simulation(
            tracker.sys, grid, u0, SolverConfig(dt=0.01, t_end=0.25), hooks=[events.append]
        )
        checks = by_name(fed_events(tracker.sys, grid, events).checks())
        for name in ("positivity", "mass_envelope", "mass_identity"):
            assert checks[name].passed


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
        np.testing.assert_allclose(tracker._z, 5.0, rtol=1e-12)
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
        # sup z = 5 equals M + S = 3 + 100 * (0.01 * 2) up to rounding; the
        # relative slack keeps the verdict on the passing side.
        tracker, _ = outcome
        result = by_name(tracker.checks())["z_sup_bound"]
        assert result.passed
        assert result.measured == pytest.approx(result.bound, rel=1e-12)

    def test_uhat_bounds_pass(self, outcome):
        tracker, _ = outcome
        checks = by_name(tracker.checks())
        assert checks["uhat_nonnegative"].passed
        assert checks["uhat_below_d_zhat"].passed
        assert checks["uhat_sup_bound"].passed
        assert checks["uhat_sup_bound"].bound == pytest.approx(15.0, rel=1e-12)
        assert checks["uhat_sup_bound"].measured == pytest.approx(3.0, rel=1e-10)


class TestTrackerWithDecayingSource:
    def test_bounds_sum_the_source_each_step_added(self):
        """Fed steps by hand, the z bound is M plus the left sum of dt K0 at
        each step's start, exactly, not the integral of K0."""
        sys = dataclasses.replace(sourced_single_species(2.0), k0_decay=0.5)
        u = np.full((1, 8), 3.0)
        tracker = AuxiliaryTracker(sys, Grid1D(8, 1.0), AuxiliaryConfig(d=3.0))
        tracker.on_step(hand_built_event(0, 0.0, u, 0.0 * u, [3.0], [3.0]))
        t, source = 0.0, 0.0
        for index, dt in enumerate((0.5, 0.25, 1.0, 0.125), 1):
            source += dt * sys.mass_source_rate(t)
            t += dt
            tracker.on_step(hand_built_event(index, t, u, 0.0 * u, [3.0], [3.0], dt))
        checks = by_name(tracker.checks())
        assert checks["z_sup_bound"].bound == 3.0 + source
        assert checks["z_sup_bound"].passed
        assert checks["z_sup_bound"].tolerance == 1e-6 * (3.0 + source)
        # The integral of K0 over [0, 1.875] is 0.43 below the left sum.
        assert 3.0 + 4.0 * (1.0 - math.exp(-0.5 * t)) < checks["z_sup_bound"].bound - 0.4
        assert checks["uhat_sup_bound"].bound == 3.0 * (3.0 + source) * 1.875


class TestZOffsetInjection:
    def test_offset_breaks_the_z_bound(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), [1.0] * 4)
        clean = started_tracker(quad_system, state, AuxiliaryConfig(d=5.0))
        dirty = started_tracker(
            quad_system, state, AuxiliaryConfig(d=5.0, z_offset=1.0)
        )
        assert by_name(clean.checks())["z_sup_bound"].passed
        result = by_name(dirty.checks())["z_sup_bound"]
        assert not result.passed
        assert result.measured == pytest.approx(5.0, rel=1e-12)
        assert result.bound == pytest.approx(4.0, rel=1e-12)


class TestRefinementShrinksResiduals:
    def test_both_residuals_shrink_under_joint_refinement(self, quad_system):
        # Halving dt and h together should roughly halve the first-order
        # comparison residuals.
        maxima = {}
        for n, dt in ((32, 4e-3), (64, 2e-3)):
            grid = Grid1D(n, 1.0)
            state = grid, quad_bump_state(grid)
            tracker, _ = tracked_run(
                quad_system, state, AuxiliaryConfig(d=5.0), dt=dt, t_end=0.2
            )
            maxima[n] = (tracker.vd_consistency_max, tracker.zvd_residual_max)
        for coarse, fine in zip(maxima[32], maxima[64]):
            assert 1.5 <= coarse / fine <= 3.0



class TestGradientInterpolation:
    """vd_gradient_interpolation: at every step, sup|grad v_d| against
    B(1, d, 0) sqrt(F osc v_d), F the largest forcing sup of the states
    before it."""

    @staticmethod
    def oracle(sys, grid, d, events):
        """(worst ratio, its t) from the events, with v_d solved alone."""
        gaps = d - np.asarray(sys.diffusion)
        b = interpolation_constants(1, d, 0.0).b
        v_d = np.zeros(grid.n_cells)
        forcing_max, worst, worst_t = -math.inf, 0.0, None
        for event in events:
            if event.index:
                v_d = implicit_heat_step(v_d, grid, d, event.dt, forcing)
            gradient = grad_sup(v_d, grid.h)
            if gradient:
                ratio = gradient / (b * math.sqrt(forcing_max * np.ptp(v_d)))
                if ratio > worst:
                    worst, worst_t = ratio, event.t_new
            forcing = np.tensordot(gaps, event.u_new, axes=1)
            forcing_max = max(forcing_max, float(np.max(np.abs(forcing))))
        return worst, worst_t

    def test_every_step_against_a_per_step_oracle(self, quad_system):
        grid = Grid1D(32, 1.0)
        u0 = quad_bump_state(grid)
        tracker = AuxiliaryTracker(quad_system, grid, AuxiliaryConfig(d=5.0))
        events = []
        cfg = SolverConfig(dt=5e-3, t_end=0.1, record_every=4)
        run_simulation(quad_system, grid, u0, cfg, hooks=[tracker.on_step, events.append])
        worst, worst_t = self.oracle(quad_system, grid, 5.0, events)
        check = by_name(tracker.checks())["vd_gradient_interpolation"]
        assert check.passed and check.bound == 1.0
        assert 0.0 < check.measured == pytest.approx(worst, rel=1e-9)
        assert tracker.interpolation_t == worst_t
        assert check.detail.endswith(f", at t = {worst_t!r}")

    def test_zero_v_d_reads_zero(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), [1.0] * 4)
        tracker = started_tracker(quad_system, state, AuxiliaryConfig(d=5.0))
        check = by_name(tracker.checks())["vd_gradient_interpolation"]
        assert check.passed and check.measured == 0.0
        assert "at t" not in check.detail

    def test_a_grid_scale_oscillation_fails(self, quad_system, monkeypatch):
        checkerboard_v_d(monkeypatch)
        grid = Grid1D(32, 1.0)
        tracker, _ = tracked_run(
            quad_system, (grid, quad_bump_state(grid)), AuxiliaryConfig(d=5.0),
            dt=5e-3, t_end=0.05,
        )
        check = by_name(tracker.checks())["vd_gradient_interpolation"]
        assert not check.passed
        assert check.measured > 1.0


class TestUhatFailureBranches:
    def test_each_bound_reports_its_own_violation(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), [1.0] * 4)
        tracker = started_tracker(quad_system, state, AuxiliaryConfig(d=5.0))
        tracker.uhat_min = -1e-6
        tracker.dzhat_minus_uhat_min = -1e-6
        tracker.uhat_sup_max = 1e9
        checks = by_name(tracker.checks())
        assert not checks["uhat_nonnegative"].passed
        assert not checks["uhat_below_d_zhat"].passed
        assert not checks["uhat_sup_bound"].passed

    def test_tolerance_is_relative_to_the_uhat_bound(self):
        # Heat only at diffusion 1e-8: the u_hat bound d (M + S) t is
        # 2.31e-9.  Hand-fed states put u_hat 1.15e-10 below zero in cell 0
        # and 2.5e-10 above d z_hat in cell 3; an absolute 1e-9 passed both.
        sys = custom_polynomial([1e-8, 2e-8], [[], []], 0.0, 0.0, 1.0, 0.0)
        tracker = AuxiliaryTracker(sys, Grid1D(4, 1.0), AuxiliaryConfig(d=3e-8))
        u0 = np.array([[0.77, 0.77, 0.77, 0.1], [0.0, 0.0, 0.0, 0.0]])
        tracker.on_step(hand_built_event(0, 0.0, u0, 0.0 * u0, [0.77, 0.0], [0.0, 0.0]))
        u1 = u0.copy()
        u1[0, 0] = -1.0
        u1[1, 3] = 0.45
        tracker.on_step(
            hand_built_event(1, 0.1, u1, 0.0 * u1, [1.0, 0.45], [0.0, 0.0], 0.1)
        )
        checks = by_name(tracker.checks())
        bound = checks["uhat_sup_bound"].bound
        assert bound == pytest.approx(2.31e-9, rel=1e-12)
        assert checks["uhat_sup_bound"].passed
        nonnegative = checks["uhat_nonnegative"]
        below = checks["uhat_below_d_zhat"]
        assert nonnegative.measured == pytest.approx(-1.15e-10, rel=1e-9)
        assert below.measured == pytest.approx(-2.5e-10, rel=1e-6)
        assert nonnegative.tolerance == below.tolerance == 1e-6 * bound
        assert not nonnegative.passed
        assert not below.passed

    def test_b_range_failure(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), [1.0] * 4)
        tracker = started_tracker(quad_system, state, AuxiliaryConfig(d=5.0))
        tracker.b_min = 0.1  # below 1 / max d = 0.4
        assert not by_name(tracker.checks())["b_range"].passed


def conservation(inv):
    """The conservation[...] entries of inv.checks(), in report order."""
    return [c for c in inv.checks() if c.name.startswith("conservation[")]


class TestConservationLaws:
    def test_no_declared_laws(self, skew_system):
        assert conservation(fed_invariants(skew_system, [])) == []

    def test_exact_conservation_passes(self, quad_system):
        inv = fed_invariants(
            quad_system, [(0.0, [1.0, 2.0, 3.0, 4.0]), (1.0, [1.0, 2.0, 3.0, 4.0])]
        )
        results = conservation(inv)
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
        checks = by_name(inv.checks())
        assert not checks["conservation[u1+u3]"].passed
        assert checks["conservation[u2+u3]"].passed
        assert checks["conservation[u2+u4]"].passed


def envelope(inv):
    return by_name(inv.checks())["mass_envelope"]


class TestMassEnvelope:
    """The one-step envelope M_new - C <= (1 + K1 dt) M_old + dt L K0(t_old)
    of each step, relative to M_old + M_new + dt L |K0(t_old)|."""

    def test_flat_envelope(self):
        sys = sourced_single_species(0.0)
        assert envelope(
            fed_invariants(sys, [(0.0, [1.0]), (1.0, [1.0])])
        ).passed
        above = envelope(fed_invariants(sys, [(0.0, [1.0]), (1.0, [1.0 + 3e-6])]))
        assert not above.passed
        assert above.measured == pytest.approx(1.5e-6, rel=1e-5)

    def test_decaying_envelope(self, skew_system):
        # k1 = -1: a step of 0.25 keeps at most 3/4 of the mass.
        decayed = fed_invariants(
            skew_system, [(0.0, [0.6, 0.4]), (0.25, [0.225, 0.525])]
        )
        assert envelope(decayed).passed
        flat = fed_invariants(skew_system, [(0.0, [0.6, 0.4]), (0.25, [0.6, 0.4])])
        result = envelope(flat)
        assert not result.passed
        assert result.measured == 0.125

    def test_constant_source_envelope(self):
        sys = sourced_single_species(2.0)
        # A step of 0.5 on a domain of length 2 adds at most 0.5 * 2 * 2.
        riding = fed_invariants(sys, [(0.0, [1.0]), (0.5, [1.0 + 2.0 * 2.0 * 0.5])], 2.0)
        assert envelope(riding).passed
        assert envelope(riding).measured == 0.0
        above = fed_invariants(
            sys, [(0.0, [1.0]), (0.5, [1.0 + 2.0 * 2.0 * 0.5 + 1e-5])], 2.0
        )
        assert not envelope(above).passed

    def test_decaying_source_envelope(self):
        # K0(t) = 2 e^{-t/2}, taken at each step's start.
        sys = dataclasses.replace(sourced_single_species(2.0), k0_decay=0.5)
        second = 2.0 + 0.5 * 2.0 * math.exp(-0.25)
        riding = fed_invariants(sys, [(0.0, [1.0]), (0.5, [2.0]), (1.0, [second])])
        result = envelope(riding)
        assert result.passed
        assert result.measured == pytest.approx(0.0, abs=1e-16)
        above = fed_invariants(
            sys, [(0.0, [1.0]), (0.5, [2.0]), (1.0, [second + 1e-9])]
        )
        assert not envelope(above).passed

    def test_envelope_that_overflows_is_infinite(self):
        # k1 = 1: the bound (1 + 1000) * 1e306 of a step of 1000 overflows,
        # and +inf holds any finite mass.
        sys = dataclasses.replace(sourced_single_species(0.0), k1=1.0)
        inv = fed_invariants(sys, [(0.0, [1e306]), (1000.0, [1e307])])
        result = envelope(inv)
        assert result.passed
        assert result.measured == -math.inf
        # Zero mass holds nothing, not inf * 0.
        empty = fed_invariants(sys, [(0.0, [0.0]), (1000.0, [1e-300])])
        assert envelope(empty).measured == 1.0


def decaying_run(skew_system):
    """The grid and the StepEvents of a skew run with equal decay rates 1."""
    grid, u0 = constant_state(Grid1D(16, 1.0), [2.0, 0.5])
    events = []
    run_simulation(
        skew_system, grid, u0, SolverConfig(dt=1e-3, t_end=0.05), hooks=[events.append]
    )
    return grid, events


class TestMassIdentity:
    """The balance M_new = M_old + dt F_old + C of each step, relative to
    M_old + M_new."""

    def test_present_without_uniform_decay(self, quad_system):
        inv = fed_invariants(quad_system, [(0.0, [1.0] * 4)])
        result = by_name(inv.checks())["mass_identity"]
        assert result.passed
        assert result.measured == 0.0 and result.tolerance == 1e-12

    def test_exact_geometric_decay_passes(self, skew_system):
        # Equal decay rates tau = 1: the flux is -M, so every step
        # multiplies the mass by 1 - dt.  No code path knows that.
        grid, events = decaying_run(skew_system)
        result = by_name(fed_events(skew_system, grid, events).checks())["mass_identity"]
        assert result.passed
        assert result.measured <= 1e-15
        totals = np.array([np.sum(e.masses) for e in events])
        np.testing.assert_allclose(totals[1:] / totals[:-1], 1.0 - 1e-3, rtol=1e-13)

    def test_broken_decay_fails(self, skew_system):
        # A state whose mass changed between steps misses the balance on
        # the steps into and out of it.
        grid, events = decaying_run(skew_system)
        events[20] = dataclasses.replace(events[20], masses=events[20].masses * (1.0 + 1e-8))
        result = by_name(fed_events(skew_system, grid, events).checks())["mass_identity"]
        assert not result.passed
        assert result.measured == pytest.approx(5e-9, rel=1e-3)


def fed_state(sys, u):
    """InvariantTracker fed one (species, cells) state at t = 0, with its entropy."""
    u = np.asarray(u, dtype=float)
    inv = InvariantTracker(sys, Grid1D(u.shape[1], 1.0))
    event = hand_built_event(
        0, 0.0, u, sys.evaluator(u, 0.0), u.max(axis=1), u.sum(axis=1)
    )
    inv.update(event, entropy(sys, u))
    return inv


class TestEntropy:
    def test_none_for_unflagged_families(self, skew_system):
        assert "entropy_dissipation" not in by_name(fed_invariants(skew_system, []).checks())

    def test_equilibrium_dissipation_is_zero(self, quad_system):
        inv = fed_state(quad_system, np.ones((4, 8)))
        result = by_name(inv.checks())["entropy_dissipation"]
        assert result.passed
        assert result.measured == 0.0

    def test_none_when_no_cell_is_fully_positive(self, quad_system):
        u = np.ones((4, 4))
        u[0] = 0.0
        assert "entropy_dissipation" not in by_name(fed_state(quad_system, u).checks())

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
        inv = fed_state(sys, np.full((1, 4), math.e))
        result = by_name(inv.checks())["entropy_dissipation"]
        assert not result.passed
        assert result.measured == pytest.approx(math.e, rel=1e-12)


def entropy(sys, u):
    """entropy_pointwise_worst of the (species, cells) array u at t = 0."""
    u = np.asarray(u, dtype=np.float64)
    return entropy_pointwise_worst(u, sys.evaluator(u, 0.0))


class TestEntropyPointwise:
    def test_worst_cell_wins(self, quad_system):
        u = np.array([[2.0, 1.0], [3.0, 1.0], [1.0, 1.0], [4.0, 1.0]])
        # Cell 1: 2 log(2/3) < 0; cell 2: equilibrium, exactly 0.
        assert entropy(quad_system, u) == 0.0

    def test_cells_with_a_zero_species_are_masked(self, quad_system):
        u = np.array([[2.0, 1.0], [3.0, 0.0], [1.0, 1.0], [4.0, 1.0]])
        got = entropy(quad_system, u)
        assert got == pytest.approx(2.0 * math.log(2.0 / 3.0), rel=1e-12)

    def test_none_without_positive_cells(self, quad_system):
        assert entropy(quad_system, np.zeros((4, 2))) is None

    @pytest.mark.parametrize("positive_cells", [1, 2, 7, 40])
    def test_masking_the_row_is_bitwise_the_masked_copy(self, quad_system, positive_cells):
        # The sum over the whole array, masked afterwards, is bitwise the
        # sum over the copy of the strictly positive cells, where the zero
        # cells' -inf logarithms never enter.
        rng = np.random.default_rng(positive_cells)
        u = 10.0 ** rng.uniform(-8.0, 2.0, size=(4, 48))
        zero = rng.permutation(48)[positive_cells:]
        u[rng.integers(0, 4, size=zero.size), zero] = 0.0
        sub = u[:, np.all(u > 0.0, axis=0)]
        assert sub.shape[1] == positive_cells
        copied = float(np.max(np.sum(quad_system.evaluator(sub, 0.0) * np.log(sub), axis=0)))
        got = entropy(quad_system, u)
        assert repr(got) == repr(copied)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_one_pass_mask_is_bitwise_the_masked_copy(self, data):
        # States with zero cells, now and then a species zero everywhere (no
        # cell counts: None), values at 1 (log 0, so +-0 products) and a
        # reaction with signed zeros, infinities and NaNs.
        species = data.draw(st.integers(1, 4))
        cells = data.draw(st.integers(1, 24))
        u = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1.0, 1e-300, 0.5, 3.0, 1e300]),
            min_size=species * cells, max_size=species * cells,
        ))).reshape(species, cells)
        if data.draw(st.booleans()):
            u[data.draw(st.integers(0, species - 1))] = 0.0
        f = np.array(data.draw(st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                st.floats(-1e300, 1e300),
            ),
            min_size=species * cells, max_size=species * cells,
        ))).reshape(species, cells)
        mask = np.all(u > 0.0, axis=0)
        got = entropy_pointwise_worst(u, f)
        if not mask.any():
            assert got is None
            return
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            expected = np.max(np.sum(f * np.log(u), 0)[mask])
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert np.float64(got).tobytes() == expected.tobytes()


def running_max(a, b):
    return b if b > a or b != b else a


def replaces(value, best):
    """Whether value is a new running maximum: larger, or the first NaN."""
    return value > best or (value != value and best == best)


def _ratio(value, scale):
    """A step's relative value, as the tracker forms it: 0 when value is 0."""
    if value == 0.0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(value) / np.float64(scale))


def per_state_measurements(sys, grid, states):
    """The measured value of each InvariantTracker check, keyed by name,
    from a loop over the (event, entropy) states with the tracker's
    per-state formulas; and the t of the step that set each ledger
    check's value, None where no step did."""
    floor = 1e-12
    laws0 = None
    drift = [0.0] * len(sys.conservation_laws)
    share, excess, identity, entropy_max = 0.0, -math.inf, 0.0, -math.inf
    worst_t = {"positivity": None, "mass_envelope": None, "mass_identity": None}
    old = None
    for event, entropy in states:
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(event.masses))
            laws = [float(np.dot(w, event.masses)) for _, w in sys.conservation_laws]
            clamped = float(np.sum(event.clamped))
        if laws0 is None:
            laws0 = laws
        drift = [running_max(d, abs(v - v0)) for d, v, v0 in zip(drift, laws, laws0)]
        if old is not None:
            t_old, m_old, flux_old = old
            dt = event.dt
            if math.isinf(m_old) or math.isinf(total):
                miss = gap = math.inf
                clamp = 0.0
            else:
                clamp = _ratio(clamped, m_old + total)
                step = dt * flux_old
                residual = abs(total - m_old - step - clamped)
                source = dt * grid.length * sys.mass_source_rate(t_old)
                bound = (1.0 + sys.k1 * dt) * m_old
                miss = _ratio(residual, m_old + total + abs(step) + clamped)
                gap = _ratio(total - bound - source - clamped, m_old + total + abs(source))
            for name, value, best in (
                ("mass_identity", miss, identity),
                ("mass_envelope", gap, excess),
                ("positivity", clamp, share),
            ):
                if replaces(value, best):
                    worst_t[name] = event.t_new
            identity = running_max(identity, miss)
            excess = running_max(excess, gap)
            share = running_max(share, clamp)
        if entropy is not None:
            entropy_max = running_max(entropy_max, entropy)
        old = (event.t_new, total, event.flux)
    measured = {"positivity": share, "mass_envelope": excess, "mass_identity": identity}
    for (label, _), d, v0 in zip(sys.conservation_laws, drift, laws0):
        measured[f"conservation[{label}]"] = d / max(abs(v0), floor)
    if sys.entropy_nonpositive and entropy_max != -math.inf:
        measured["entropy_dissipation"] = entropy_max
    return measured, worst_t


def random_states(system, grid, count, kind):
    """count (event, entropy) states of system on grid, of three cells.

    Each event is a step of 0.0125, 0.025 or 0.05 from the one before.
    The masses spread over six decades and follow the ledger species by
    species: the flux of the state before, at a rate up to 0.5 below K1,
    plus a clamped mass at about one state in three, so the totals miss
    the balance by rounding only and stay under the envelope, and the clamp
    shares are up to 5e-4.  Signed zeros tie for the largest entropy, -0.0
    at t = 0 and 0.0 later; some entropies are None.  kind "nan" adds a NaN
    entropy and a NaN mass on a state that clamps, kind "overflow" a total
    that overflows.
    """
    rng = np.random.default_rng(count)
    n = system.n_species
    steps = rng.choice([0.0125, 0.025, 0.05], size=count)
    steps[0] = 0.0
    t = np.cumsum(steps)
    masses = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    states = []
    for i in range(count):
        u = rng.uniform(0.0, 1.0, size=(n, grid.n_cells))
        zero = -0.0 if i == 0 else 0.0
        nan = kind == "nan" and i == count - 40
        clamped = np.zeros(n)
        if i:
            if rng.random() < 0.3 or nan:
                clamped = 1e-3 * masses * rng.random(n)
            masses = masses + steps[i] * flux + clamped
        rates = system.k1 - 0.5 * rng.random(n)
        f = np.repeat((rates * masses / grid.length)[:, None], grid.n_cells, axis=1)
        flux = f.sum(axis=1) * grid.h
        entropy = [None, zero, -1e-3 * rng.random()][rng.integers(3) if i else 1]
        shown = masses.copy()
        if nan:
            entropy = shown[0] = math.nan
        if kind == "overflow" and i == count // 2:
            shown[:2] = 1e308
        event = hand_built_event(
            i, float(t[i]), u, f, u.max(axis=1), shown, float(steps[i]), clamped,
            f.sum() * grid.h,
        )
        states.append((event, entropy))
    return states


def skew_ring(n, decay):
    """Cyclic skew Lotka-Volterra system of n species, equal decay rates."""
    interaction = np.zeros((n, n))
    for i in range(n):
        interaction[i, (i + 1) % n], interaction[(i + 1) % n, i] = 1.0, -1.0
    return skew_lv(np.linspace(1.0, 2.0, n), interaction, [decay] * n)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFoldBoundaries:
    """The tracker's verdicts do not depend on where its chunks end: fed
    more states than a chunk holds, and folded at arbitrary points, every
    measured value is bitwise the per-state loop's, and so is every state
    of the view it hands on_fold."""

    count = 2 * diagnostics._CHUNK + 37
    grid = Grid1D(3, 1.0)

    @pytest.fixture(params=["skew11", "skew11-overflow", "quad", "quad-nan"])
    def case(self, request):
        name, _, kind = request.param.partition("-")
        if name == "quad":
            system = quadratic_reversible([1.0, 1.5, 2.0, 2.5])
        else:
            # Eleven species: numpy sums a state's masses pairwise.
            system = skew_ring(11, 0.5)
        return system, kind, random_states(system, self.grid, self.count, kind)

    @pytest.mark.parametrize("fold_every", [None, 1, 7, 97])
    def test_measured_values_are_the_per_state_ones(self, case, fold_every):
        system, kind, states = case
        views = []
        inv = InvariantTracker(
            system, self.grid, on_fold=lambda view, has: views.append((view.copy(), has.copy()))
        )
        for i, (event, entropy) in enumerate(states):
            inv.update(event, entropy)
            if fold_every and i % fold_every == 0:
                inv.fold()
                with np.errstate(over="ignore", invalid="ignore"):
                    total = float(np.sum(event.masses))
                    laws = [float(np.dot(w, event.masses)) for _, w in system.conservation_laws]
                assert repr(inv.total) == repr(total)
                assert repr(inv.laws) == repr(laws)
        first = inv.checks()
        measured = {c.name: repr(c.measured) for c in first}
        expected, worst_t = per_state_measurements(system, self.grid, states)
        assert measured == {name: repr(v) for name, v in expected.items()}
        assert {name: t for name, (_, t) in inv.ledger.items()} == worst_t
        self.assert_views_are_the_states(system, states, views)
        verdicts = {c.name: c.passed for c in first}
        ledger = ("mass_envelope", "mass_identity")
        if kind == "overflow":
            # The overflowing total is not shown to keep the ledger; the
            # steps next to it read 0 for the clamp.
            assert [measured[name] for name in ledger] == ["inf", "inf"]
            assert not any(verdicts[name] for name in ledger)
        elif kind == "nan":
            for name in ("positivity", "entropy_dissipation", *ledger):
                assert measured[name] == "nan" and not verdicts[name]
        else:
            # Signed zeros tie: the first one, -0.0, is kept.
            assert measured.get("entropy_dissipation", "-0.0") == "-0.0"
            assert 0.0 < float(measured["mass_identity"]) <= 1e-15
            assert float(measured["mass_envelope"]) < 0.0
            assert all(verdicts[name] for name in ledger)
        # The states clamp up to 1e-3 of their masses.
        assert kind == "nan" or 1e-6 < float(measured["positivity"]) <= 5e-4
        assert not verdicts["positivity"]
        again = inv.checks()
        assert [repr(dataclasses.astuple(c)) for c in again] == [
            repr(dataclasses.astuple(c)) for c in first
        ]

    @staticmethod
    def assert_views_are_the_states(system, states, views):
        """The on_fold views, chunk after chunk, hold each state's t,
        masses, total, entropy where it has one, and laws: the columns the
        recorder formats."""
        view = np.concatenate([v for v, _ in views])
        has = np.concatenate([h for _, h in views])
        n = system.n_species
        assert view.shape == (len(states), n + 3 + len(system.conservation_laws))
        for row, defined, (event, entropy) in zip(view, has, states):
            with np.errstate(over="ignore", invalid="ignore"):
                total = np.sum(event.masses)
                laws = [np.dot(w, event.masses) for _, w in system.conservation_laws]
            cells = [event.t_new, *event.masses, total, *laws]
            assert defined == (entropy is not None)
            assert np.array(cells).tobytes() == np.delete(row, n + 2).tobytes()
            if defined:
                assert repr(float(row[n + 2])) == repr(float(entropy))


class TestPositivityCheck:
    """positivity is the worst step's clamped mass C over M_old + M_new."""

    @staticmethod
    def fed_clamps(sys, steps):
        """InvariantTracker on four cells fed u0 of masses 1 and then one
        step of 0.1 per (masses, clamped) pair."""
        inv = InvariantTracker(sys, Grid1D(4, 1.0))
        u = np.ones((sys.n_species, 4))
        inv.update(hand_built_event(0, 0.0, u, 0.0 * u, np.ones(4), np.ones(4)), None)
        for index, (masses, clamped) in enumerate(steps, 1):
            event = hand_built_event(
                index, 0.1 * index, u, 0.0 * u, np.ones(4), masses, 0.1, clamped
            )
            inv.update(event, None)
        return by_name(inv.checks())

    def test_flags_a_step_that_clamps(self, quad_system):
        checks = self.fed_clamps(
            quad_system, [([1.0] * 4, [0.0] * 4), ([1.5, 1.0, 1.0, 1.0], [0.5, 0.0, 0.0, 0.0])]
        )
        # C = 0.5 against M_old + M_new = 4 + 4.5, at the second step.
        assert not checks["positivity"].passed
        assert checks["positivity"].measured == 0.5 / 8.5
        assert re.fullmatch(
            r"worst step of C / \(M_old \+ M_new\), the mass the clamp added, at t = 0\.2",
            checks["positivity"].detail,
        )
        assert checks["positivity"].tolerance == 1e-12
        assert checks["mass_identity"].passed

    def test_steps_that_clamp_nothing_read_zero(self, quad_system):
        checks = self.fed_clamps(quad_system, [([1.0] * 4, [0.0] * 4)] * 3)
        assert checks["positivity"].passed
        assert checks["positivity"].measured == 0.0
        # No step set the measurement, so the detail names none.
        assert "at t" not in checks["positivity"].detail

    def test_an_overflowed_total_reads_zero(self, quad_system):
        # The ledger checks fail on it; positivity does not read it.
        checks = self.fed_clamps(quad_system, [([1e308] * 4, [1.0, 0.0, 0.0, 0.0])])
        assert checks["positivity"].measured == 0.0
        assert not checks["mass_identity"].passed
        assert not checks["mass_envelope"].passed


class TestReportOrder:
    @pytest.mark.parametrize(
        "checks, names",
        [
            (
                lambda quad, skew: fed_state(quad, np.ones((4, 8))).checks(),
                [
                    "positivity",
                    "conservation[u1+u3]",
                    "conservation[u2+u3]",
                    "conservation[u2+u4]",
                    "mass_envelope",
                    "mass_identity",
                    "entropy_dissipation",
                ],
            ),
            (
                lambda quad, skew: fed_invariants(skew, [(0.0, [1.0, 1.0])]).checks(),
                ["positivity", "mass_envelope", "mass_identity"],
            ),
            (
                lambda quad, skew: started_tracker(
                    quad, constant_state(Grid1D(8, 1.0), [1.0] * 4), AuxiliaryConfig(d=5.0)
                ).checks(),
                [
                    "z_sup_bound",
                    "b_range",
                    "uhat_nonnegative",
                    "uhat_below_d_zhat",
                    "uhat_sup_bound",
                    "vd_gradient_interpolation",
                ],
            ),
        ],
        ids=["quad", "uniform-decay-skew", "auxiliary"],
    )
    def test_each_family_gets_its_checks_in_report_order(
        self, checks, names, quad_system, skew_system
    ):
        assert [c.name for c in checks(quad_system, skew_system)] == names


class TestLogLogSlope:
    def test_exact_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        assert loglog_slope(x, x**2.5) == pytest.approx(2.5, rel=1e-12)

    def test_needs_two_distinct_points(self):
        with pytest.raises(ValueError, match="distinct"):
            loglog_slope([2.0, 2.0], [1.0, 3.0])
        with pytest.raises(ValueError, match="distinct"):
            loglog_slope([2.0], [1.0])
