"""Tests for the implicit heat solve, IMEX stepping and the run loop."""

import math

import numpy as np
import pytest
import scipy.fft
from conftest import bump, quad_bump_state, solve_tridiagonal, thomas_heat_step
from hypothesis import given, settings
from hypothesis import strategies as st

import rdcheck.solver

from rdcheck import (
    Field,
    Grid1D,
    NumericalFailure,
    PolynomialSpec,
    ReactionSystem,
    SkewLVSpec,
    augment_system,
    SolverConfig,
    SystemState,
    imex_step,
    implicit_heat_step,
    instantiate_model,
    integrate,
    laplacian_values,
    run_simulation,
)


def heat_only(diffusion=1.0):
    """Single species with f = 0: pure diffusion."""
    return instantiate_model(
        PolynomialSpec(n_species=1, terms=[[]], k0=0.0, k1=0.0, growth_k=1.0, growth_eps=0.0),
        [diffusion],
    )


def constant_sink(rate):
    """Single species with f = -rate, independent of the state."""
    return instantiate_model(
        PolynomialSpec(
            n_species=1,
            terms=[[(-rate, (0,))]],
            k0=0.0,
            k1=0.0,
            growth_k=max(rate, 1.0),
            growth_eps=0.0,
        ),
        [1.0],
    )


def constant_state(grid, value, n_species=1, t=0.0):
    return SystemState(t, [Field.constant(grid, value) for _ in range(n_species)])


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(dt=0.1, t_end=1.0)
        assert cfg.positivity_floor == -1e-12
        assert cfg.max_step_halvings == 20
        assert cfg.record_every == 1

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"dt": 0.0, "t_end": 1.0}, "dt"),
            ({"dt": -0.1, "t_end": 1.0}, "dt"),
            ({"dt": math.nan, "t_end": 1.0}, "dt"),
            ({"dt": 0.1, "t_end": 0.0}, "t_end"),
            ({"dt": 0.1, "t_end": -1.0}, "t_end"),
            ({"dt": 2.0, "t_end": 1.0}, "exceeds"),
            ({"dt": 0.1, "t_end": 1.0, "positivity_floor": 0.5}, "floor"),
            ({"dt": 0.1, "t_end": 1.0, "max_step_halvings": -1}, "halvings"),
            ({"dt": 0.1, "t_end": 1.0, "record_every": 0}, "record_every"),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SolverConfig(**kwargs)


class TestSystemState:
    def test_basic_properties(self):
        grid = Grid1D(8, 1.0)
        state = constant_state(grid, 2.0, n_species=3, t=0.5)
        assert state.n_species == 3
        assert state.t == 0.5
        assert state.grid == grid
        assert state.stacked().shape == (3, 8)
        np.testing.assert_array_equal(state.stacked(), np.full((3, 8), 2.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            SystemState(0.0, [])

    def test_rejects_mismatched_grids(self):
        a = Field.constant(Grid1D(8, 1.0), 1.0)
        b = Field.constant(Grid1D(16, 1.0), 1.0)
        with pytest.raises(ValueError, match="share one grid"):
            SystemState(0.0, [a, b])


class TestSolveTridiagonal:
    """Thomas elimination, the reference the spectral implicit step is checked against."""

    def test_hand_one_by_one(self):
        np.testing.assert_array_equal(solve_tridiagonal([], [4.0], [], [8.0]), [2.0])

    def test_hand_two_by_two(self):
        # [[2, 1], [1, 3]] x = (3, 5)  =>  x = (0.8, 1.4)
        x = solve_tridiagonal([1.0], [2.0, 3.0], [1.0], [3.0, 5.0])
        np.testing.assert_allclose(x, [0.8, 1.4], rtol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5, 33])
    def test_matches_dense_solve(self, n):
        rng = np.random.default_rng(n)
        lower = rng.uniform(-1.0, 1.0, size=n - 1)
        upper = rng.uniform(-1.0, 1.0, size=n - 1)
        diag = 3.0 + rng.uniform(0.0, 1.0, size=n)  # diagonally dominant
        rhs = rng.uniform(-5.0, 5.0, size=n)
        dense = np.diag(diag)
        if n > 1:
            dense += np.diag(lower, -1) + np.diag(upper, 1)
        expected = np.linalg.solve(dense, rhs)
        got = solve_tridiagonal(lower, diag, upper, rhs)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


class TestImplicitHeatStep:
    def test_constant_is_a_fixed_point(self):
        grid = Grid1D(32, 2.0)
        out = implicit_heat_step(np.full(32, 3.5), grid, 1.2, 0.05)
        np.testing.assert_allclose(out, 3.5, rtol=1e-13)

    def test_eigenmode_decay_factor(self):
        # cos(k pi x / L) is an exact eigenvector of the stencil, so one
        # implicit step divides it by exactly 1 - dt d lambda_k.
        grid = Grid1D(64, 2.0)
        k, d, dt = 3, 0.7, 0.01
        mode = np.cos(k * math.pi * grid.centers / grid.length)
        lam = -(4.0 / grid.h**2) * math.sin(k * math.pi * grid.h / (2.0 * grid.length)) ** 2
        out = implicit_heat_step(mode, grid, d, dt)
        np.testing.assert_allclose(out, mode / (1.0 - dt * d * lam), rtol=1e-12)

    def test_satisfies_the_implicit_equation(self):
        # Residual check against the explicit flux-form operator: the band
        # matrix must be exactly I - dt d L.
        grid = Grid1D(48, 3.0)
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 2.0, size=48)
        source = rng.uniform(-1.0, 1.0, size=48)
        d, dt = 0.9, 0.02
        out = implicit_heat_step(values, grid, d, dt, source)
        residual = out - dt * d * laplacian_values(out, grid.h) - (values + dt * source)
        assert np.max(np.abs(residual)) < 1e-12 * np.max(np.abs(values))

    def test_conserves_mass(self):
        grid = Grid1D(64, 1.0)
        rng = np.random.default_rng(12)
        values = rng.uniform(0.5, 2.0, size=64)
        before = integrate(Field(grid, values))
        after = integrate(Field(grid, implicit_heat_step(values, grid, 2.0, 0.1)))
        assert abs(after - before) < 1e-12 * abs(before)


def solve_profile(kind, grid, rng):
    """Right-hand sides for the spectral solve: noise, zero, or a Gaussian
    bump narrow enough that its tails reach ~1e-30 inside the domain."""
    if kind == "noise":
        return rng.uniform(-1.0, 1.0, size=grid.n_cells)
    if kind == "zero":
        return np.zeros(grid.n_cells)
    width = 0.3 * grid.length / math.sqrt(138.0)
    centre = rng.uniform(0.3, 0.7) * grid.length
    return bump(grid, centre, width, rng.uniform(0.5, 50.0))


class TestSpectralSolveProperties:
    """The batched DCT-II solve against the Thomas oracle and scipy."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 300),
        length=st.sampled_from([1.0, 0.3, 2.5, 40.0]),
        kinds=st.lists(st.sampled_from(["noise", "zero", "bump"]), min_size=1, max_size=6),
        log_s=st.lists(st.floats(-6.0, 5.0), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle_conserves_mass_and_rows_are_independent(
        self, n, length, kinds, log_s, seed
    ):
        grid = Grid1D(n, length)
        rng = np.random.default_rng(seed)
        rhs = np.stack([solve_profile(kind, grid, rng) for kind in kinds])
        dt = 0.01
        # s = dt d / h^2 spans 1e-6 (nearly the identity) to 1e5 (nearly
        # the projection onto the mean).
        s = 10.0 ** np.array(log_s[: len(kinds)])
        diffusion = s * grid.h**2 / dt
        together = implicit_heat_step(rhs, grid, diffusion, dt)
        assert together.shape == rhs.shape
        for row, d, s_row, got in zip(rhs, diffusion, s, together):
            np.testing.assert_array_equal(implicit_heat_step(row, grid, float(d), dt), got)
            scale = np.max(np.abs(row))
            if scale == 0.0:
                np.testing.assert_array_equal(got, 0.0)
                continue
            expect = thomas_heat_step(row, grid, float(d), dt)
            # The oracle's own error grows with the condition number 1 + 4s
            # (2e-12 of scale at s = 1e5 and n = 2, where the spectral solve
            # is exact).
            tol = 1e-13 + 4.0 * np.finfo(np.float64).eps * s_row
            assert np.max(np.abs(got - expect)) <= tol * scale
            assert abs(np.sum(got) - np.sum(row)) <= 1e-14 * np.sum(np.abs(row))

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 300),
        rows=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_forward_transform_is_the_dct_ii(self, n, rows, seed):
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(rows, n))
        spectrum = rdcheck.solver._even_spectrum(values)
        assert spectrum.shape == (rows, n + 1)
        # Entry k is exp(i k pi / 2n) times the DCT-II coefficient.
        twiddle = np.exp(-1j * np.pi * np.arange(n) / (2 * n))
        got = twiddle * spectrum[:, :n]
        expect = scipy.fft.dct(values, type=2, axis=-1)
        atol = 1e-14 * np.sum(np.abs(values), axis=1, keepdims=True)
        assert np.all(np.abs(got.real - expect) <= atol)
        assert np.all(np.abs(got.imag) <= atol)
        assert np.all(np.abs(spectrum[:, n]) <= atol[:, 0])

    def test_rejects_mismatched_per_row_diffusion(self):
        grid = Grid1D(8, 1.0)
        with pytest.raises(ValueError, match="per-row diffusion"):
            implicit_heat_step(np.ones((3, 8)), grid, [1.0, 2.0], 0.1)
        with pytest.raises(ValueError, match="per-row diffusion"):
            implicit_heat_step(np.ones(8), grid, [1.0], 0.1)


class TestTailAccuracy:
    def test_skew_tails_match_the_thomas_oracle(self, monkeypatch):
        # The augmented cyclic skew Lotka-Volterra run drives species to
        # ~1e-35 in part of the domain and lets them re-invade from there.
        # A transform solve alone is accurate only to eps * sup of each
        # row, and that noise floor re-invades: without the correction
        # sweep species 1-3 move from the Thomas run by up to 0.12 relative
        # (sup) and 0.42 (mass) within these 193 steps.  With the sweep
        # they agree to about 4e-14.
        base = instantiate_model(
            SkewLVSpec(
                interaction=[[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
                decay=[0.01, 0.01, 0.01],
            ),
            [1e-4, 2e-4, 3e-4],
        )
        aug = augment_system(base).augmented
        grid = Grid1D(64, 1.0)
        initial = SystemState(
            0.0,
            [Field(grid, bump(grid, c, 0.1, 50.0)) for c in (0.3, 0.5, 0.7)]
            + [Field.constant(grid, 0.0)],
        )
        cfg = SolverConfig(dt=0.1, t_end=2.4)

        def run():
            steps = []
            run_simulation(
                aug, initial, cfg,
                hooks=[lambda e: steps.append((e.dt, e.u_new[:3]))],
            )
            return steps

        spectral = run()
        monkeypatch.setattr(rdcheck.solver, "implicit_heat_step", thomas_heat_step)
        thomas = run()
        assert len(spectral) == len(thomas) == 193
        for (dt_a, a), (dt_b, b) in zip(spectral, thomas):
            assert dt_a == dt_b
            np.testing.assert_allclose(a.max(axis=1), b.max(axis=1), rtol=1e-9, atol=0.0)
            np.testing.assert_allclose(a.sum(axis=1), b.sum(axis=1), rtol=1e-9, atol=0.0)


class TestImexStep:
    def test_advances_time(self):
        # f = t on a constant field: the reaction is taken at the step's
        # start time, so one step from t = 0.5 adds exactly dt * 0.5.
        clock = ReactionSystem(
            name="clock",
            n_species=1,
            diffusion=np.array([1.0]),
            k0=0.0,
            k1=0.0,
            growth_k=1.0,
            growth_eps=0.0,
            evaluator=lambda u, t: np.full_like(u, t),
            time_dependent=True,
        )
        state = constant_state(Grid1D(8, 1.0), 1.0, t=0.5)
        out = imex_step(state.stacked(), state.t, state.grid, clock, 0.25)
        np.testing.assert_allclose(out, 1.125, rtol=1e-14)

    def test_constant_source_hand_value(self):
        # f = -0.5 on a constant field: diffusion is inert, so one step is
        # exactly u - dt * 0.5.
        state = constant_state(Grid1D(16, 1.0), 2.0)
        out = imex_step(state.stacked(), state.t, state.grid, constant_sink(0.5), 0.1)
        np.testing.assert_allclose(out[0], 1.95, rtol=1e-14)

    def test_equilibrium_is_stationary(self, quad_system):
        state = constant_state(Grid1D(16, 1.0), 1.0, n_species=4)
        out = imex_step(state.stacked(), state.t, state.grid, quad_system, 0.05)
        np.testing.assert_allclose(out, 1.0, rtol=1e-13)

    def test_rejects_wrong_species_count(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), 1.0, n_species=2)
        with pytest.raises(ValueError, match="species"):
            imex_step(state.stacked(), state.t, state.grid, quad_system, 0.1)

    def test_non_finite_step_raises_numerical_failure(self):
        # u^3 overflows at u = 1e200: the step reports the species and the
        # start time instead of building a non-finite Field.
        cube = instantiate_model(
            PolynomialSpec(
                n_species=2,
                terms=[[], [(1.0, (0, 3))]],
                k0=0.0,
                k1=0.0,
                growth_k=1.0,
                growth_eps=0.0,
            ),
            [1.0, 1.0],
        )
        state = SystemState(
            0.5, [Field.constant(Grid1D(8, 1.0), 1.0), Field.constant(Grid1D(8, 1.0), 1e200)]
        )
        with pytest.raises(NumericalFailure, match="non-finite") as excinfo:
            imex_step(state.stacked(), state.t, state.grid, cube, 0.1)
        assert excinfo.value.species == 2
        assert excinfo.value.time == 0.5
        assert not math.isfinite(excinfo.value.value)

    def test_rejects_nonpositive_dt(self):
        state = constant_state(Grid1D(8, 1.0), 1.0)
        with pytest.raises(ValueError, match="dt"):
            imex_step(state.stacked(), state.t, state.grid, heat_only(), 0.0)


class TestRunSimulationValidation:
    def test_rejects_wrong_species_count(self, quad_system):
        state = constant_state(Grid1D(8, 1.0), 1.0)
        with pytest.raises(ValueError, match="species"):
            run_simulation(quad_system, state, SolverConfig(dt=0.1, t_end=1.0))

    def test_rejects_nonzero_start_time(self):
        state = constant_state(Grid1D(8, 1.0), 1.0, t=0.5)
        with pytest.raises(ValueError, match="t = 0"):
            run_simulation(heat_only(), state, SolverConfig(dt=0.1, t_end=1.0))

    def test_rejects_negative_initial_data(self):
        grid = Grid1D(8, 1.0)
        values = np.full(8, 1.0)
        values[3] = -0.25
        state = SystemState(0.0, [Field(grid, values)])
        with pytest.raises(ValueError, match="species 1"):
            run_simulation(heat_only(), state, SolverConfig(dt=0.1, t_end=1.0))


class TestRunSimulationRecording:
    def test_cadence_and_endpoints(self):
        state = constant_state(Grid1D(8, 1.0), 1.0)
        traj = run_simulation(
            heat_only(), state, SolverConfig(dt=0.1, t_end=1.0, record_every=3)
        )
        # Accepted steps 1..10; recorded at 3, 6, 9 plus t = 0 and the end.
        np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)

    def test_first_entry_is_the_initial_state(self):
        grid = Grid1D(32, 1.0)
        state = SystemState(0.0, [Field(grid, 1.0 + bump(grid, 0.5, 0.1, 2.0))])
        traj = run_simulation(heat_only(), state, SolverConfig(dt=0.05, t_end=0.2))
        first = traj.entries[0]
        assert first.t == 0.0
        np.testing.assert_array_equal(first.u[0], state.fields[0].values)
        assert first.sup_norms[0] == float(np.max(state.fields[0].values))
        assert first.masses[0] == integrate(state.fields[0])

    def test_final_step_is_clipped_to_t_end(self):
        state = constant_state(Grid1D(8, 1.0), 1.0)
        traj = run_simulation(heat_only(), state, SolverConfig(dt=0.3, t_end=1.0))
        assert abs(traj.final().t - 1.0) < 1e-12
        # 0.3 + 0.3 + 0.3 + 0.1: four accepted steps, all recorded.
        assert len(traj.entries) == 5

    def test_times_strictly_increase(self):
        grid = Grid1D(16, 1.0)
        state = SystemState(0.0, [Field(grid, 1.0 + bump(grid, 0.4, 0.1, 1.0))])
        traj = run_simulation(
            heat_only(), state, SolverConfig(dt=0.07, t_end=0.5, record_every=2)
        )
        assert np.all(np.diff(traj.times) > 0.0)
        assert abs(traj.final().t - 0.5) < 1e-12


class TestRunSimulationPhysics:
    def test_pure_diffusion_conserves_mass(self):
        grid = Grid1D(64, 1.0)
        state = SystemState(0.0, [Field(grid, 1.0 + bump(grid, 0.3, 0.08, 3.0))])
        traj = run_simulation(heat_only(2.0), state, SolverConfig(dt=0.01, t_end=0.5))
        masses = np.array([e.masses[0] for e in traj.entries])
        assert np.max(np.abs(masses - masses[0])) < 1e-12 * masses[0]

    def test_skew_mass_shrinks_by_exactly_one_minus_dt(self, skew_system):
        # f evaluated at the old state plus exact operator conservation make
        # the per-step mass factor 1 - tau dt, up to solve rounding.
        grid = Grid1D(32, 1.0)
        state = SystemState(
            0.0,
            [
                Field(grid, 0.5 + bump(grid, 0.3, 0.1, 1.0)),
                Field(grid, 0.5 + bump(grid, 0.7, 0.1, 1.0)),
            ],
        )
        dt = 1e-3
        ratios = []

        def capture(event):
            m_old = grid.h * float(np.sum(event.u_old))
            m_new = grid.h * float(np.sum(event.u_new))
            ratios.append(m_new / m_old)

        run_simulation(
            skew_system, state, SolverConfig(dt=dt, t_end=0.05), hooks=[capture]
        )
        assert len(ratios) == 50
        np.testing.assert_allclose(ratios, 1.0 - dt, rtol=1e-12)

    def test_quad_equilibrium_is_stationary(self, quad_system):
        state = constant_state(Grid1D(16, 1.0), 1.0, n_species=4)
        traj = run_simulation(quad_system, state, SolverConfig(dt=0.05, t_end=0.5))
        np.testing.assert_allclose(traj.final().u, 1.0, rtol=1e-12)


class TestPositivityEnforcement:
    def test_halving_is_scoped_to_the_step(self):
        # u0 = 0.01 under f = -10 u: the full step dt = 0.2 lands at -u0
        # and is rejected; dt = 0.1 lands at zero and is accepted.  The
        # next step must start again from the configured dt.
        sys = instantiate_model(
            PolynomialSpec(
                n_species=1,
                terms=[[(-10.0, (1,))]],
                k0=0.0,
                k1=0.0,
                growth_k=10.0,
                growth_eps=0.0,
            ),
            [1.0],
        )
        state = constant_state(Grid1D(8, 1.0), 0.01)
        seen = []

        def capture(event):
            seen.append(event.dt)

        traj = run_simulation(
            sys, state, SolverConfig(dt=0.2, t_end=0.4), hooks=[capture]
        )
        assert seen[0] == pytest.approx(0.1)
        assert seen[1] == pytest.approx(0.2)
        np.testing.assert_array_equal(traj.final().u[0], 0.0)

    def test_tiny_negatives_are_clamped_to_exact_zero(self):
        # One step from zero data under f = -1e-10 lands at -1e-13, inside
        # the floor, and must be clamped to exact zero in the hook's view.
        sys = constant_sink(1e-10)
        state = constant_state(Grid1D(8, 1.0), 0.0)
        mins = []

        def capture(event):
            mins.append(float(np.min(event.u_new[0])))

        traj = run_simulation(
            sys, state, SolverConfig(dt=1e-3, t_end=3e-3), hooks=[capture]
        )
        assert mins == [0.0, 0.0, 0.0]
        np.testing.assert_array_equal(traj.final().u[0], 0.0)

    def test_non_finite_trial_is_rejected_and_halved(self, monkeypatch):
        # imex_step reports a non-finite trial as NumericalFailure; the run
        # loop treats it like a positivity rejection and halves the step.
        real = rdcheck.solver.imex_step

        def overflowing_above(u, t, grid, sys, dt):
            if dt > 0.15:
                raise NumericalFailure("non-finite", time=t, species=1, value=math.inf)
            return real(u, t, grid, sys, dt)

        monkeypatch.setattr(rdcheck.solver, "imex_step", overflowing_above)
        seen = []
        traj = run_simulation(
            heat_only(), constant_state(Grid1D(8, 1.0), 1.0),
            SolverConfig(dt=0.2, t_end=0.4), hooks=[lambda e: seen.append(e.dt)],
        )
        assert seen == pytest.approx([0.1, 0.1, 0.1, 0.1])
        assert abs(traj.final().t - 0.4) < 1e-12

    def test_exhausted_halvings_raise_with_payload(self):
        sys = constant_sink(1.0)
        state = constant_state(Grid1D(8, 1.0), 0.0)
        with pytest.raises(NumericalFailure, match="halvings") as excinfo:
            run_simulation(sys, state, SolverConfig(dt=1e-3, t_end=1e-2))
        err = excinfo.value
        assert err.time == 0.0
        assert err.species == 1
        assert err.value < 0.0


class TestHooks:
    def test_order_and_event_chain(self):
        state = constant_state(Grid1D(8, 1.0), 1.0)
        calls = []
        events = []

        def first(event):
            calls.append("a")
            events.append(event)

        def second(event):
            calls.append("b")

        run_simulation(
            heat_only(), state, SolverConfig(dt=0.25, t_end=0.5), hooks=[first, second]
        )
        assert calls == ["a", "b", "a", "b"]
        assert [e.index for e in events] == [1, 2]
        assert events[0].t_old == 0.0
        assert events[0].t_new == pytest.approx(0.25)
        assert events[1].u_old is events[0].u_new

    def test_event_shares_read_only_arrays_and_field_norms(self, quad_system):
        # The step's norms are computed once, row-wise, bitwise equal to the
        # per-Field integrate and sup, and the recorded entries reuse them.
        grid = Grid1D(40, 1.0)
        events = []
        traj = run_simulation(
            quad_system, quad_bump_state(grid),
            SolverConfig(dt=5e-3, t_end=0.05, record_every=3), hooks=[events.append],
        )
        recorded = [e for e in events if e.recorded]
        assert [e.index for e in recorded] == [3, 6, 9, 10]
        for event in events:
            assert not event.u_old.flags.writeable
            assert not event.u_new.flags.writeable
            fields = [Field(grid, row) for row in event.u_new]
            assert list(event.masses) == [integrate(f) for f in fields]
            assert list(event.sup_norms) == [float(np.max(f.values)) for f in fields]
        for entry, event in zip(traj.entries[1:], recorded):
            assert entry.t == event.t_new
            assert entry.u is event.u_new
            assert entry.masses is event.masses

    def test_hooks_see_every_accepted_step_regardless_of_recording(self):
        state = constant_state(Grid1D(8, 1.0), 1.0)
        count = []
        traj = run_simulation(
            heat_only(),
            state,
            SolverConfig(dt=0.1, t_end=1.0, record_every=4),
            hooks=[lambda e: count.append(e.index)],
        )
        assert count == list(range(1, 11))
        assert len(traj.entries) == 4  # t = 0, steps 4 and 8, final


class TestDeterminism:
    def test_identical_runs_are_bitwise_equal(self, quad_system):
        grid = Grid1D(48, 1.0)
        cfg = SolverConfig(dt=5e-3, t_end=0.2)
        a = run_simulation(quad_system, quad_bump_state(grid), cfg)
        b = run_simulation(quad_system, quad_bump_state(grid), cfg)
        np.testing.assert_array_equal(
            a.final().u, b.final().u
        )


class TestConvergence:
    def test_first_order_in_time(self):
        # Against the exact fully-discrete-in-space solution, the remaining
        # error is the backward-Euler time error, first order in dt.
        grid = Grid1D(32, 1.0)
        mode = np.cos(math.pi * grid.centers)
        lam = -(4.0 / grid.h**2) * math.sin(math.pi * grid.h / 2.0) ** 2
        t_end = 0.1
        exact = math.exp(lam * t_end) * mode
        errors = []
        for dt in (2e-3, 1e-3, 5e-4):
            state = SystemState(0.0, [Field(grid, 1.5 + mode)])
            traj = run_simulation(heat_only(), state, SolverConfig(dt=dt, t_end=t_end))
            got = traj.final().u[0]
            errors.append(np.max(np.abs(got - (1.5 + exact))))
        assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.2)
        assert errors[1] / errors[2] == pytest.approx(2.0, abs=0.2)

    def test_second_order_in_space_with_matched_dt(self):
        # With dt proportional to h^2 both error sources scale as h^2, so
        # refining the pair divides the error against the continuum solution
        # by about four.
        t_end = 0.1
        errors = []
        for n in (16, 32, 64):
            grid = Grid1D(n, 1.0)
            mode = np.cos(math.pi * grid.centers)
            steps = 64 * (n // 16) ** 2
            state = SystemState(0.0, [Field(grid, 1.5 + mode)])
            traj = run_simulation(
                heat_only(), state, SolverConfig(dt=t_end / steps, t_end=t_end)
            )
            got = traj.final().u[0]
            exact = 1.5 + math.exp(-math.pi**2 * t_end) * mode
            errors.append(np.max(np.abs(got - exact)))
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.7)
        assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.7)
