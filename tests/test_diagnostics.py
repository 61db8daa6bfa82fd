"""Tests for the auxiliary-field tracker and the runtime check battery."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import collected_run, initial_event, quad_bump_state

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
        tracker, traj = outcome
        for result in tracker.checks(0.25):
            assert result.passed
        inv = InvariantTracker(tracker.sys, 1.0)
        for e in traj.entries:
            inv.update(e.t, e.u, e.masses, None)
        assert by_name(inv.checks())["positivity"].passed


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
    def test_flat_envelope(self):
        sys = sourced_single_species(0.0)
        assert envelope(
            fed_invariants(sys, [(0.0, [1.0]), (1.0, [1.0])])
        ).passed
        assert not envelope(
            fed_invariants(sys, [(0.0, [1.0]), (1.0, [1.0 + 3e-6])])
        ).passed

    def test_decaying_envelope(self, skew_system):
        # k1 = -1: the envelope itself shrinks as e^{-t}.
        decayed = fed_invariants(
            skew_system,
            [(0.0, [0.6, 0.4]), (1.0, [0.3 * math.e ** -1, 0.7 * math.e ** -1])],
        )
        assert envelope(decayed).passed
        flat = fed_invariants(skew_system, [(0.0, [0.6, 0.4]), (1.0, [0.6, 0.4])])
        assert not envelope(flat).passed

    def test_constant_source_envelope(self):
        sys = sourced_single_species(2.0)
        # Envelope m0 + domain * k0 * t with domain = 2.
        riding = fed_invariants(sys, [(0.0, [1.0]), (0.5, [1.0 + 2.0 * 2.0 * 0.5])], 2.0)
        assert envelope(riding).passed
        above = fed_invariants(
            sys, [(0.0, [1.0]), (0.5, [1.0 + 2.0 * 2.0 * 0.5 + 1e-5])], 2.0
        )
        assert not envelope(above).passed

    def test_decaying_source_envelope(self):
        sys = dataclasses.replace(sourced_single_species(2.0), k0_decay=0.5)
        # Envelope m0 + domain * 4 (1 - e^{-t/2}).
        src = 4.0 * (1.0 - math.exp(-0.5))
        riding = fed_invariants(sys, [(0.0, [1.0]), (1.0, [1.0 + src])])
        result = envelope(riding)
        assert result.passed
        assert result.measured == pytest.approx(0.0, abs=1e-12)

    def test_envelope_that_overflows_is_infinite(self):
        # k1 = 1: e^{k1 t} overflows at t = 1000, and the envelope there is
        # +inf; the steps before it still bound the mass.
        sys = dataclasses.replace(sourced_single_species(0.0), k1=1.0)
        inv = fed_invariants(sys, [(0.0, [1.0]), (1.0, [math.e]), (1000.0, [1e300])])
        result = envelope(inv)
        assert result.passed
        assert result.measured == pytest.approx(0.0, abs=1e-12)
        # Zero initial mass holds nothing, not inf * 0.
        empty = fed_invariants(sys, [(0.0, [0.0]), (1000.0, [1e-300])])
        assert envelope(empty).measured == 1e-300

    def test_sourced_decay_envelope_when_the_source_factor_overflows(self):
        # k0 = 1, k1 = -1: e^{-k1 t} overflows at t = 1000 and e^{k1 t}
        # underflows, but the envelope e^{-t} m0 + (1 - e^{-t}) is 1.
        sys = dataclasses.replace(sourced_single_species(1.0), k1=-1.0)
        riding = fed_invariants(sys, [(0.0, [3.0]), (1000.0, [1.0])])
        assert envelope(riding).measured == 0.0
        above = fed_invariants(sys, [(0.0, [3.0]), (1000.0, [1.5])])
        assert envelope(above).measured == 0.5


class TestMassIdentity:
    def test_none_without_uniform_decay(self, quad_system):
        inv = fed_invariants(quad_system, [(0.0, [1.0] * 4)])
        assert "mass_identity" not in by_name(inv.checks())

    def test_exact_geometric_decay_passes(self, skew_system):
        m0 = 2.5
        dt = 1e-3
        rows = [(0.0, [m0, 0.0])]
        m = m0
        for k in range(1, 4):
            m = m * (1.0 - dt)
            rows.append((k * dt, [m, 0.0]))
        result = by_name(fed_invariants(skew_system, rows).checks())["mass_identity"]
        assert result.passed
        assert result.measured == 0.0

    def test_broken_decay_fails(self, skew_system):
        dt = 1e-3
        rows = [(0.0, [1.0, 0.0]), (dt, [(1.0 - dt) + 1e-8, 0.0])]
        inv = fed_invariants(skew_system, rows)
        assert not by_name(inv.checks())["mass_identity"].passed


def fed_state(sys, u):
    """InvariantTracker fed one (species, cells) state at t = 0, with its entropy."""
    u = np.asarray(u, dtype=float)
    inv = InvariantTracker(sys, 1.0)
    inv.update(0.0, u, u.sum(axis=1), entropy(sys, u))
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


def per_state_measurements(sys, states, domain_length=1.0):
    """The measured value of each InvariantTracker check, keyed by name,
    from a loop over the states with the tracker's per-state formulas."""
    floor = 1e-12
    t_prev = None
    laws0 = []
    drift = [0.0] * len(sys.conservation_laws)
    mass0 = identity_mass = 0.0
    u_min, excess, identity, entropy_max = math.inf, -math.inf, 0.0, -math.inf
    for t, u, masses, entropy in states:
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(masses))
            laws = [float(np.dot(w, masses)) for _, w in sys.conservation_laws]
        if t_prev is None:
            t_prev, laws0, mass0, identity_mass = t, laws, total, total
        u_min = running_min(u_min, float(np.min(u)))
        drift = [running_max(d, abs(v - v0)) for d, v, v0 in zip(drift, laws, laws0)]
        envelope = sys.mass_envelope(t, mass0, domain_length)
        excess = running_max(excess, total - envelope if math.isfinite(total) else math.inf)
        if sys.uniform_decay_rate is not None:
            identity_mass *= 1.0 - sys.uniform_decay_rate * (t - t_prev)
            identity = running_max(
                identity, abs(total - identity_mass) / max(abs(mass0), floor)
            )
        if entropy is not None:
            entropy_max = running_max(entropy_max, entropy)
        t_prev = t
    measured = {"positivity": u_min, "mass_envelope": excess}
    for (label, _), d, v0 in zip(sys.conservation_laws, drift, laws0):
        measured[f"conservation[{label}]"] = d / max(abs(v0), floor)
    if sys.uniform_decay_rate is not None:
        measured["mass_identity"] = identity
    if sys.entropy_nonpositive and entropy_max != -math.inf:
        measured["entropy_dissipation"] = entropy_max
    return measured


def random_states(system, count, kind):
    """count states (t, u, masses, entropy) of system.

    The masses spread over six decades; those of a system with a uniform
    decay rate follow the exact decay species by species, so its total
    misses the identity by rounding only.  Signed zeros
    tie for the smallest value and the largest entropy, -0.0 at t = 0 and
    0.0 later; some entropies are None.  kind "nan" adds a NaN entropy and
    a NaN value, kind "overflow" a total that overflows.
    """
    rng = np.random.default_rng(count)
    n = system.n_species
    t = np.cumsum(rng.choice([0.0125, 0.025, 0.05], size=count))
    t[0] = 0.0
    base = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    tau = system.uniform_decay_rate
    states = []
    for i in range(count):
        u = rng.uniform(0.0, 1.0, size=(n, 3))
        zero = -0.0 if i == 0 else 0.0
        u[0, 0] = zero
        if tau is None:
            masses = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        else:
            if i:
                base = base * (1.0 - tau * (t[i] - t[i - 1]))
            masses = base.copy()
        entropy = [None, zero, -1e-3 * rng.random()][rng.integers(3) if i else 1]
        if kind == "nan" and i == count - 40:
            u[1, 2] = entropy = math.nan
        if kind == "overflow" and i == count // 2:
            masses[:2] = 1e308
        states.append((float(t[i]), u, masses, entropy))
    return states


def skew_ring(n, decay):
    """Cyclic skew Lotka-Volterra system of n species, equal decay rates."""
    interaction = np.zeros((n, n))
    for i in range(n):
        interaction[i, (i + 1) % n], interaction[(i + 1) % n, i] = 1.0, -1.0
    return skew_lv(np.linspace(1.0, 2.0, n), interaction, [decay] * n)


class TestFoldBoundaries:
    """The tracker's verdicts do not depend on where its chunks end: fed
    more states than a chunk holds, and folded at arbitrary points, every
    measured value is bitwise the per-state loop's."""

    count = 2 * diagnostics._CHUNK + 37

    @pytest.fixture(params=["skew11", "skew11-overflow", "quad", "quad-nan"])
    def case(self, request):
        name, _, kind = request.param.partition("-")
        if name == "quad":
            system = quadratic_reversible([1.0, 1.5, 2.0, 2.5])
        else:
            # Eleven species: numpy sums a state's masses pairwise.
            system = skew_ring(11, 0.5)
        return system, kind, random_states(system, self.count, kind)

    @pytest.mark.parametrize("fold_every", [None, 1, 7, 97])
    def test_measured_values_are_the_per_state_ones(self, case, fold_every):
        system, kind, states = case
        inv = InvariantTracker(system, 1.0)
        for i, (t, u, masses, entropy) in enumerate(states):
            inv.update(t, u, masses, entropy)
            if fold_every and i % fold_every == 0:
                inv.fold()
                with np.errstate(over="ignore", invalid="ignore"):
                    total = float(np.sum(masses))
                    laws = [float(np.dot(w, masses)) for _, w in system.conservation_laws]
                assert repr(inv.total) == repr(total)
                assert repr(inv.laws) == repr(laws)
        first = inv.checks()
        measured = {c.name: repr(c.measured) for c in first}
        expected = per_state_measurements(system, states)
        assert measured == {name: repr(v) for name, v in expected.items()}
        if kind == "overflow":
            # The overflowing total is not shown to stay under the envelope.
            assert measured["mass_envelope"] == measured["mass_identity"] == "inf"
        elif kind == "nan":
            assert measured["positivity"] == measured["entropy_dissipation"] == "nan"
        elif system.uniform_decay_rate is not None:
            assert 0.0 < float(measured["mass_identity"]) < 1e-11
        else:
            # Signed zeros tie: the first one, -0.0, is kept.
            assert measured["positivity"] == measured["entropy_dissipation"] == "-0.0"
        again = inv.checks()
        assert [dataclasses.astuple(c) for c in again] == [
            dataclasses.astuple(c) for c in first
        ]


class TestPositivityCheck:
    def test_flags_negative_recorded_values(self, quad_system):
        good = np.ones((4, 4))
        bad = np.ones((4, 4))
        bad[0, 2] = -1e-13
        inv = InvariantTracker(quad_system, 1.0)
        for t, u in ((0.0, good), (0.1, bad)):
            inv.update(t, u, np.ones(4), None)
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
