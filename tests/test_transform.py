"""Tests for the mass-closing augmentation of the time-rescaled system."""

import math
import re

import numpy as np
import pytest
from conftest import bump, collected_run

from rdcheck import (
    Grid1D,
    SolverConfig,
    augment_system,
    custom_polynomial,
    run_experiment,
    run_simulation,
    skew_lv,
    validate_config,
    verify_augmented,
)


def unequal_skew():
    return skew_lv([1.0, 2.0], interaction=[[0.0, 1.0], [-1.0, 0.0]], decay=[1.0, 2.0])


def two_bump_state(grid, tail_species=0):
    """Two bumps plus tail_species zero rows, as a (species, cells) array."""
    rows = [0.5 + bump(grid, 0.3, 0.1, 1.0), 0.5 + bump(grid, 0.7, 0.1, 1.0)]
    rows += [np.zeros(grid.n_cells) for _ in range(tail_species)]
    return np.stack(rows)


class TestAugmentSystem:
    def test_structural_fields(self, skew_system):
        aug = augment_system(skew_system)
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
        aug = augment_system(skew_system)
        with pytest.raises(ValueError, match="time-dependent"):
            augment_system(aug)

    def test_quad_head_reactions_are_bitwise_unchanged(self, quad_system):
        # With k0 = k1 = 0 the rescaling is trivial, so the first four
        # components must reproduce the base reaction bit for bit and the
        # closing reaction must be exactly zero.
        aug = augment_system(quad_system)
        rng = np.random.default_rng(21)
        w = rng.uniform(0.0, 3.0, size=(5, 60))
        g = aug.evaluator(w, rng.uniform(0.0, 2.0, size=60))
        f = quad_system.evaluator(w[:4], 0.0)
        np.testing.assert_array_equal(g[:4], f)
        assert np.all(g[4] == 0.0)

    def test_skew_hand_value_at_time_zero(self, skew_system):
        aug = augment_system(skew_system)
        g = aug.evaluator(np.array([2.0, 3.0, 7.0]), 0.0)
        # f(2, 3) = (4, -9); g_head = f + w; the closure balances to zero.
        np.testing.assert_array_equal(g, [6.0, -6.0, 0.0])

    def test_skew_hand_value_at_later_time(self, skew_system):
        # At t = log 2 the rescaled state is u = w / 2 = (1, 1.5), where
        # f = (0.5, -3); back-scaling and the k1 shift give (3, -3).
        aug = augment_system(skew_system)
        g = aug.evaluator(np.array([2.0, 3.0, 7.0]), math.log(2.0))
        np.testing.assert_allclose(g, [3.0, -3.0, 0.0], rtol=1e-13, atol=1e-13)

    def test_closure_ignores_its_own_species(self, skew_system):
        aug = augment_system(skew_system)
        a = aug.evaluator(np.array([2.0, 3.0, 0.0]), 0.3)
        b = aug.evaluator(np.array([2.0, 3.0, 9.0]), 0.3)
        np.testing.assert_array_equal(a, b)


def concatenated_closure(base):
    """The closure evaluator as it was first written, head and tail joined
    by np.concatenate: the reference for augment_system's evaluator."""
    n, k0, k1 = base.n_species, base.k0, base.k1

    def evaluate(w, t):
        scale = np.exp(k1 * t)
        u = scale * w[:n]
        f = np.asarray(base.evaluator(u, t), dtype=np.float64)
        g_head = f / scale - k1 * w[:n]
        head_sum = np.sum(g_head, axis=0)
        g_tail = k0 / scale - head_sum
        return np.concatenate([g_head, g_tail[None]], axis=0)

    return evaluate


class TestClosureEvaluator:
    """augment_system's evaluator writes g into one new array; it is bitwise
    the concatenated form, on the points the audits and tests pass and on
    the (species, cells) arrays of a run."""

    @pytest.mark.parametrize("k1", [-0.7, 0.0, 1.3])
    def test_bitwise_equal_to_the_concatenated_form(self, k1):
        # A constant source, a product and a decay per species, with k0 > 0
        # so the tail's source term is not zero.
        base = custom_polynomial(
            [1.0, 2.0],
            [[(0.5, (0, 0)), (1.0, (1, 1))], [(-1.0, (1, 1)), (-2.0, (0, 1))]],
            0.5, k1, 1.0, 0.0,
        )
        closed = augment_system(base).evaluator
        reference = concatenated_closure(base)
        rng = np.random.default_rng(8)
        state = rng.uniform(0.0, 3.0, size=(3, 64))
        times = rng.uniform(0.0, 2.0, size=64)
        cases = [(state[:, 0], 0.4), (state[:, 1], 0.0), (state, 0.4), (state, times)]
        # t = 30 puts e^{K1 t} at e^{-21} and e^{39}, far from 1.
        cases += [(state[:, 2], 30.0), (state, 30.0), (state, 15.0 * times)]
        for w, t in cases:
            got, want = closed(w, t), reference(w, t)
            assert got.shape == want.shape == w.shape
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_every_call_returns_a_new_writable_array(self, skew_system):
        # The run freezes each f in place, and hooks may keep it.
        closed = augment_system(skew_system).evaluator
        for w in (np.array([2.0, 3.0, 7.0]), np.full((3, 8), 0.5)):
            first, second = closed(w, 0.3), closed(w, 0.3)
            assert first.flags.writeable and second.flags.writeable
            assert not np.shares_memory(first, second)
            assert not np.shares_memory(first, w)
            first.flags.writeable = False
            np.testing.assert_array_equal(closed(w, 0.3), second)


def audit(closed, seed, **kwargs):
    """verify_augmented's three checks, keyed by probe name."""
    checks = verify_augmented(closed, seed, **kwargs)
    return {c.name.removeprefix("augmented_"): c for c in checks}


class TestVerifyAugmented:
    def test_quad_audit_passes_with_exact_conservation(self, quad_system):
        checks = audit(augment_system(quad_system), 0)
        assert list(checks) == ["quasi_positivity", "conservation_residual", "growth"]
        assert all(c.passed for c in checks.values())
        # k0 = 0 and the closure negates the freshly computed head sum, so
        # the sampled conservation defect is exactly zero.
        assert checks["conservation_residual"].measured == 0.0
        assert checks["quasi_positivity"].detail.startswith("20000 samples")

    def test_skew_audit_passes(self, skew_system):
        checks = audit(augment_system(skew_system), 1, t_horizon=2.0)
        assert all(c.passed for c in checks.values())
        assert checks["growth"].measured > 0.0
        assert np.isfinite(checks["growth"].measured)

    def test_offset_injection_breaks_conservation(self, quad_system):
        checks = audit(augment_system(quad_system), 2, g_tail_offset=0.1)
        conservation = checks["conservation_residual"]
        assert not conservation.passed
        assert conservation.detail.startswith("sum ")
        assert not all(c.passed for c in checks.values())

    def test_not_a_number_fails_quasi_positivity_without_a_warning(self):
        # f = -u declared with k1 = 100: past t ~ 7 the rescaling e^{100 t}
        # overflows and every closed reaction is inf / inf.  Those samples
        # are not numbers, so the probe fails, names one and measures NaN;
        # no overflow or invalid-value warning escapes (the suite turns them
        # into errors).
        base = custom_polynomial(
            [1.0, 1.0], [[(-1.0, (1, 0))], [(-1.0, (0, 1))]], 0.0, 100.0, 1.0, 0.0
        )
        checks = audit(augment_system(base), 0, t_horizon=10.0)
        qp = checks["quasi_positivity"]
        assert not qp.passed
        assert math.isnan(qp.measured)
        assert re.fullmatch(r"species \d reaches nan at \[.*\]", qp.detail)

    def test_not_a_number_run_still_aborts(self):
        raw = {
            "model": {
                "custom": {
                    "n_species": 2, "k0": 0.0, "k1": 100.0, "k": 1.0, "eps": 0.0,
                    "terms": [[{"coef": -1.0, "powers": [1, 0]}],
                              [{"coef": -1.0, "powers": [0, 1]}]],
                },
                "diffusion": [1.0, 1.0],
            },
            "grid": {"n_cells": 16, "length": 1.0},
            "initial": [{"type": "constant", "value": 1.0}] * 2,
            "solver": {"dt": 0.5, "t_end": 10.0},
            "transform": {"augment": True},
        }
        outcome = run_experiment(validate_config(raw))
        assert outcome.aborted
        qp = {c["name"]: c for c in outcome.report["checks"]}["augmented_quasi_positivity"]
        assert qp["passed"] is False
        assert "reaches nan" in qp["detail"]

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf])
    def test_rejects_bad_horizon(self, quad_system, horizon):
        closed = augment_system(quad_system)
        with pytest.raises(ValueError, match="t_horizon"):
            verify_augmented(closed, 0, t_horizon=horizon)


class TestAugmentedRuns:
    def test_quad_augmented_run_is_bitwise_the_base_run(self, quad_system):
        # The trivially rescaled head must take exactly the same steps as
        # the base system, while the closing species stays identically zero.
        grid = Grid1D(32, 1.0)
        base_u0 = np.stack(
            [
                0.2 + bump(grid, 0.3, 0.1, 2.0),
                0.2 + bump(grid, 0.7, 0.1, 2.0),
                1.0 + bump(grid, 0.5, 0.15, 1.0),
                0.5 + bump(grid, 0.2, 0.12, 1.5),
            ]
        )
        aug_u0 = np.vstack((base_u0, np.zeros(grid.n_cells)))
        aug = augment_system(quad_system)
        cfg = SolverConfig(dt=2e-3, t_end=0.1)
        base_traj = collected_run(quad_system, grid, base_u0, cfg)
        aug_traj = collected_run(aug, grid, aug_u0, cfg)
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
        aug = augment_system(skew_system)
        t_end = 0.25
        defects = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(dt=dt, t_end=t_end)
            base_final = run_simulation(skew_system, grid, two_bump_state(grid), cfg)
            aug_final = run_simulation(
                aug, grid, two_bump_state(grid, tail_species=1), cfg
            )
            # The rescaled base run w = e^{-k1 t} u, with k1 = -1.
            predicted_head = np.exp(t_end) * base_final
            defects.append(float(np.max(np.abs(aug_final[:2] - predicted_head))))
        assert defects[0] < 0.05
        assert 1.5 <= defects[0] / defects[1] <= 3.0

    def test_unequal_decay_closure_collects_the_lost_mass(self):
        # With decays (1, 2) and k1 = -1 the head loses mass at rate w2;
        # the closure must absorb it so the augmented total is conserved
        # to rounding at every snapshot while the tail becomes positive.
        sys = unequal_skew()
        aug = augment_system(sys)
        grid = Grid1D(32, 1.0)
        traj = collected_run(
            aug,
            grid,
            two_bump_state(grid, tail_species=1),
            SolverConfig(dt=1e-3, t_end=0.2),
        )
        totals = np.array([float(np.sum(e.masses)) for e in traj.entries])
        assert np.max(np.abs(totals - totals[0])) <= 1e-12 * totals[0]
        tail = traj.final().u[2]
        assert np.min(tail) > 0.0
