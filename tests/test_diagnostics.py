"""Tests for the auxiliary-field tracker and the runtime check battery."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import collected_run, hand_built_event, initial_event, quad_bump_state

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
        for result in tracker.checks(0.25):
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
        # sup z = 5 equals M + integral K0 = 3 + 2 exactly; the slack keeps
        # the verdict on the passing side.
        tracker, _ = outcome
        result = by_name(tracker.checks(1.0))["z_sup_bound"]
        assert result.passed
        assert result.measured == pytest.approx(result.bound, rel=1e-12)

    def test_uhat_bounds_pass(self, outcome):
        tracker, _ = outcome
        checks = by_name(tracker.checks(1.0))
        assert checks["uhat_nonnegative"].passed
        assert checks["uhat_below_d_zhat"].passed
        assert checks["uhat_sup_bound"].passed
        assert checks["uhat_sup_bound"].bound == pytest.approx(15.0, rel=1e-12)
        assert checks["uhat_sup_bound"].measured == pytest.approx(3.0, rel=1e-10)


class TestZOffsetInjection:
    def test_offset_breaks_the_z_bound(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), [1.0] * 4)
        clean = started_tracker(quad_system, state, AuxiliaryConfig(d=5.0))
        dirty = started_tracker(
            quad_system, state, AuxiliaryConfig(d=5.0, z_offset=1.0)
        )
        assert by_name(clean.checks(0.1))["z_sup_bound"].passed
        result = by_name(dirty.checks(0.1))["z_sup_bound"]
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

    def test_holder_moduli_are_populated(self, quad_system):
        grid = Grid1D(32, 1.0)
        state = grid, quad_bump_state(grid)
        tracker, _ = tracked_run(
            quad_system, state, AuxiliaryConfig(d=5.0), dt=5e-3, t_end=0.1
        )
        assert set(tracker.holder_max) == {0.25, 0.5}
        assert all(v > 0.0 for v in tracker.holder_max.values())


class TestUhatFailureBranches:
    def test_each_bound_reports_its_own_violation(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), [1.0] * 4)
        tracker = started_tracker(quad_system, state, AuxiliaryConfig(d=5.0))
        tracker.uhat_min = -1e-6
        tracker.dzhat_minus_uhat_min = -1e-6
        tracker.uhat_sup_max = 1e9
        checks = by_name(tracker.checks(1.0))
        assert not checks["uhat_nonnegative"].passed
        assert not checks["uhat_below_d_zhat"].passed
        assert not checks["uhat_sup_bound"].passed

    def test_b_range_failure(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), [1.0] * 4)
        tracker = started_tracker(quad_system, state, AuxiliaryConfig(d=5.0))
        tracker.b_min = 0.1  # below 1 / max d = 0.4
        assert not by_name(tracker.checks(1.0))["b_range"].passed


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


def running_max(a, b):
    return b if b > a or b != b else a


def running_min(a, b):
    return b if b < a or b != b else a


def _ratio(value, scale):
    """A step's relative value, as the tracker forms it: 0 when value is 0."""
    if value == 0.0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(value) / np.float64(scale))


def per_state_measurements(sys, grid, states):
    """The measured value of each InvariantTracker check, keyed by name,
    from a loop over the (event, entropy) states with the tracker's
    per-state formulas."""
    floor = 1e-12
    laws0 = None
    drift = [0.0] * len(sys.conservation_laws)
    u_min, excess, identity, entropy_max = math.inf, -math.inf, 0.0, -math.inf
    old = None
    for event, entropy in states:
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(event.masses))
            laws = [float(np.dot(w, event.masses)) for _, w in sys.conservation_laws]
            flux = float(event.f.sum() * grid.h)
            clamped = float(np.sum(event.clamped))
        if laws0 is None:
            laws0 = laws
        u_min = running_min(u_min, float(np.min(event.u_new)))
        drift = [running_max(d, abs(v - v0)) for d, v, v0 in zip(drift, laws, laws0)]
        if old is not None:
            t_old, m_old, flux_old = old
            dt = event.dt
            if math.isinf(m_old) or math.isinf(total):
                miss = gap = math.inf
            else:
                residual = abs(total - m_old - dt * flux_old - clamped)
                source = dt * grid.length * sys.mass_source_rate(t_old)
                bound = (1.0 + sys.k1 * dt) * m_old
                miss = _ratio(residual, m_old + total)
                gap = _ratio(total - bound - source - clamped, m_old + total + abs(source))
            identity = running_max(identity, miss)
            excess = running_max(excess, gap)
        if entropy is not None:
            entropy_max = running_max(entropy_max, entropy)
        old = (event.t_new, total, flux)
    measured = {"positivity": u_min, "mass_envelope": excess, "mass_identity": identity}
    for (label, _), d, v0 in zip(sys.conservation_laws, drift, laws0):
        measured[f"conservation[{label}]"] = d / max(abs(v0), floor)
    if sys.entropy_nonpositive and entropy_max != -math.inf:
        measured["entropy_dissipation"] = entropy_max
    return measured


def random_states(system, grid, count, kind):
    """count (event, entropy) states of system on grid, of three cells.

    Each event is a step of 0.0125, 0.025 or 0.05 from the one before.
    The masses spread over six decades and follow the ledger species by
    species: the flux of the state before, at a rate up to 0.5 below K1,
    plus a clamped mass at about one state in three, so the totals miss
    the balance by rounding only and stay under the envelope.  Signed zeros
    tie for the smallest value and the largest entropy, -0.0 at t = 0 and
    0.0 later; some entropies are None.  kind "nan" adds a NaN entropy, a
    NaN value and a NaN mass, kind "overflow" a total that overflows.
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
        u[0, 0] = zero
        clamped = np.zeros(n)
        if i:
            if rng.random() < 0.3:
                clamped = 1e-3 * masses * rng.random(n)
            masses = masses + steps[i] * flux + clamped
        rates = system.k1 - 0.5 * rng.random(n)
        f = np.repeat((rates * masses / grid.length)[:, None], grid.n_cells, axis=1)
        flux = f.sum(axis=1) * grid.h
        entropy = [None, zero, -1e-3 * rng.random()][rng.integers(3) if i else 1]
        shown = masses.copy()
        if kind == "nan" and i == count - 40:
            u[1, 2] = entropy = shown[0] = math.nan
        if kind == "overflow" and i == count // 2:
            shown[:2] = 1e308
        event = hand_built_event(
            i, float(t[i]), u, f, u.max(axis=1), shown, float(steps[i]), clamped
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
        expected = per_state_measurements(system, self.grid, states)
        assert measured == {name: repr(v) for name, v in expected.items()}
        self.assert_views_are_the_states(system, states, views)
        verdicts = {c.name: c.passed for c in first}
        ledger = ("mass_envelope", "mass_identity")
        if kind == "overflow":
            # The overflowing total is not shown to keep the ledger.
            assert [measured[name] for name in ledger] == ["inf", "inf"]
            assert not any(verdicts[name] for name in ledger)
        elif kind == "nan":
            for name in ("positivity", "entropy_dissipation", *ledger):
                assert measured[name] == "nan" and not verdicts[name]
        else:
            # Signed zeros tie: the first one, -0.0, is kept.
            assert measured["positivity"] == "-0.0"
            assert measured.get("entropy_dissipation", "-0.0") == "-0.0"
            assert 0.0 < float(measured["mass_identity"]) <= 1e-15
            assert float(measured["mass_envelope"]) < 0.0
            assert all(verdicts[name] for name in ledger)
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
    def test_flags_negative_recorded_values(self, quad_system):
        good = np.ones((4, 4))
        bad = np.ones((4, 4))
        bad[0, 2] = -1e-13
        inv = InvariantTracker(quad_system, Grid1D(4, 1.0))
        for index, (t, u) in enumerate(((0.0, good), (0.1, bad))):
            inv.update(hand_built_event(index, t, u, 0.0 * u, np.ones(4), np.ones(4), t), None)
        result = by_name(inv.checks())["positivity"]
        assert not result.passed
        assert result.measured == -1e-13


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
                ).checks(0.1),
                [
                    "z_sup_bound",
                    "b_range",
                    "uhat_nonnegative",
                    "uhat_below_d_zhat",
                    "uhat_sup_bound",
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
