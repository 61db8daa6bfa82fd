"""Tests for the time rescaling and the mass-closing augmentation."""

import math

import numpy as np
import pytest
from conftest import bump

from rdcheck import (
    Field,
    Grid1D,
    SkewLVSpec,
    SolverConfig,
    SystemState,
    augment_system,
    instantiate_model,
    rescale_solution,
    run_simulation,
    verify_augmented,
)


def unequal_skew():
    return instantiate_model(
        SkewLVSpec(interaction=[[0.0, 1.0], [-1.0, 0.0]], decay=[1.0, 2.0]),
        [1.0, 2.0],
    )


def two_bump_state(grid, tail_species=0):
    fields = [
        Field(grid, 0.5 + bump(grid, 0.3, 0.1, 1.0)),
        Field(grid, 0.5 + bump(grid, 0.7, 0.1, 1.0)),
    ]
    fields += [Field.constant(grid, 0.0) for _ in range(tail_species)]
    return SystemState(0.0, fields)


class TestRescaleSolution:
    def test_hand_value(self):
        got = rescale_solution([2.0, 4.0], math.log(2.0), 1.0)
        np.testing.assert_allclose(got, [1.0, 2.0], rtol=1e-15)

    def test_identity_at_zero_rate(self):
        u = np.array([0.3, 1.7, 2.9])
        np.testing.assert_array_equal(rescale_solution(u, 0.0, 5.0), u)

    def test_round_trip(self):
        u = np.array([0.3, 1.7, 2.9])
        back = rescale_solution(rescale_solution(u, -0.8, 2.0), 0.8, 2.0)
        np.testing.assert_allclose(back, u, rtol=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            rescale_solution([1.0, np.inf], 1.0, 1.0)


class TestAugmentSystem:
    def test_structural_fields(self, skew_system):
        pair = augment_system(skew_system)
        aug = pair.augmented
        assert pair.k0 == 0.0
        assert pair.k1 == -1.0
        assert aug.n_species == 3
        assert aug.diffusion[-1] == 1.0
        np.testing.assert_array_equal(aug.diffusion[:2], skew_system.diffusion)
        assert aug.k0 == 0.0
        assert aug.k0_decay == -1.0
        assert aug.k1 == 0.0
        assert aug.time_dependent
        assert aug.conservation_laws == ()
        assert aug.name.endswith("+mass-closure")

    def test_rejects_time_dependent_base(self, skew_system):
        aug = augment_system(skew_system).augmented
        with pytest.raises(ValueError, match="time-dependent"):
            augment_system(aug)

    def test_quad_head_reactions_are_bitwise_unchanged(self, quad_system):
        # With k0 = k1 = 0 the rescaling is trivial, so the first four
        # components must reproduce the base reaction bit for bit and the
        # closing reaction must be exactly zero.
        aug = augment_system(quad_system).augmented
        rng = np.random.default_rng(21)
        w = rng.uniform(0.0, 3.0, size=(5, 60))
        g = aug.evaluator(w, rng.uniform(0.0, 2.0, size=60))
        f = quad_system.evaluator(w[:4], 0.0)
        np.testing.assert_array_equal(g[:4], f)
        assert np.all(g[4] == 0.0)

    def test_skew_hand_value_at_time_zero(self, skew_system):
        aug = augment_system(skew_system).augmented
        g = aug.evaluator(np.array([2.0, 3.0, 7.0]), 0.0)
        # f(2, 3) = (4, -9); g_head = f + w; the closure balances to zero.
        np.testing.assert_array_equal(g, [6.0, -6.0, 0.0])

    def test_skew_hand_value_at_later_time(self, skew_system):
        # At t = log 2 the rescaled state is u = w / 2 = (1, 1.5), where
        # f = (0.5, -3); back-scaling and the k1 shift give (3, -3).
        aug = augment_system(skew_system).augmented
        g = aug.evaluator(np.array([2.0, 3.0, 7.0]), math.log(2.0))
        np.testing.assert_allclose(g, [3.0, -3.0, 0.0], rtol=1e-13, atol=1e-13)

    def test_closure_ignores_its_own_species(self, skew_system):
        aug = augment_system(skew_system).augmented
        a = aug.evaluator(np.array([2.0, 3.0, 0.0]), 0.3)
        b = aug.evaluator(np.array([2.0, 3.0, 9.0]), 0.3)
        np.testing.assert_array_equal(a, b)


class TestVerifyAugmented:
    def test_quad_audit_passes_with_exact_conservation(self, quad_system):
        pair = augment_system(quad_system)
        verdict = verify_augmented(pair, np.random.default_rng(0))
        assert verdict.passed
        # k0 = 0 and the closure negates the freshly computed head sum, so
        # the sampled conservation defect is exactly zero.
        assert verdict.mass_control.worst == 0.0
        assert verdict.samples_used == 20_000

    def test_skew_audit_passes(self, skew_system):
        pair = augment_system(skew_system)
        verdict = verify_augmented(pair, np.random.default_rng(1), t_horizon=2.0)
        assert verdict.passed
        assert verdict.growth.worst > 0.0
        assert np.isfinite(verdict.growth.worst)

    def test_offset_injection_breaks_conservation(self, quad_system):
        pair = augment_system(quad_system)
        verdict = verify_augmented(
            pair, np.random.default_rng(2), g_tail_offset=0.1
        )
        assert not verdict.mass_control.passed
        assert verdict.mass_control.witness is not None
        assert not verdict.passed

    def test_rejects_bad_sample_count(self, quad_system):
        pair = augment_system(quad_system)
        with pytest.raises(ValueError, match="n_samples"):
            verify_augmented(pair, np.random.default_rng(0), n_samples=0)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf])
    def test_rejects_bad_horizon(self, quad_system, horizon):
        pair = augment_system(quad_system)
        with pytest.raises(ValueError, match="t_horizon"):
            verify_augmented(pair, np.random.default_rng(0), t_horizon=horizon)


class TestAugmentedRuns:
    def test_quad_augmented_run_is_bitwise_the_base_run(self, quad_system):
        # The trivially rescaled head must take exactly the same steps as
        # the base system, while the closing species stays identically zero.
        grid = Grid1D(32, 1.0)
        base_state = SystemState(
            0.0,
            [
                Field(grid, 0.2 + bump(grid, 0.3, 0.1, 2.0)),
                Field(grid, 0.2 + bump(grid, 0.7, 0.1, 2.0)),
                Field(grid, 1.0 + bump(grid, 0.5, 0.15, 1.0)),
                Field(grid, 0.5 + bump(grid, 0.2, 0.12, 1.5)),
            ],
        )
        aug_state = SystemState(
            0.0, list(base_state.fields) + [Field.constant(grid, 0.0)]
        )
        aug = augment_system(quad_system).augmented
        cfg = SolverConfig(dt=2e-3, t_end=0.1)
        base_traj = run_simulation(quad_system, base_state, cfg)
        aug_traj = run_simulation(aug, aug_state, cfg)
        assert len(base_traj.entries) == len(aug_traj.entries)
        for be, ae in zip(base_traj.entries, aug_traj.entries):
            assert be.t == ae.t
            np.testing.assert_array_equal(be.u, ae.u[:4])
            assert np.all(ae.u[4] == 0.0)

    def test_skew_commutation_error_is_first_order(self, skew_system):
        # Continuum rescaling commutes with the dynamics; discretely the
        # defect between the augmented run and the rescaled base run must
        # shrink like dt.
        grid = Grid1D(32, 1.0)
        aug = augment_system(skew_system).augmented
        t_end = 0.25
        defects = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(dt=dt, t_end=t_end)
            base_final = run_simulation(
                skew_system, two_bump_state(grid), cfg
            ).final().u
            aug_final = run_simulation(
                aug, two_bump_state(grid, tail_species=1), cfg
            ).final().u
            predicted_head = rescale_solution(base_final, -1.0, t_end)
            defects.append(float(np.max(np.abs(aug_final[:2] - predicted_head))))
        assert defects[0] < 0.05
        assert 1.5 <= defects[0] / defects[1] <= 3.0

    def test_unequal_decay_closure_collects_the_lost_mass(self):
        # With decays (1, 2) and k1 = -1 the head loses mass at rate w2;
        # the closure must absorb it so the augmented total is conserved
        # to rounding at every snapshot while the tail becomes positive.
        sys = unequal_skew()
        aug = augment_system(sys).augmented
        grid = Grid1D(32, 1.0)
        traj = run_simulation(
            aug,
            two_bump_state(grid, tail_species=1),
            SolverConfig(dt=1e-3, t_end=0.2),
        )
        totals = np.array([float(np.sum(e.masses)) for e in traj.entries])
        assert np.max(np.abs(totals - totals[0])) <= 1e-12 * totals[0]
        tail = traj.final().u[2]
        assert np.min(tail) > 0.0
