"""Tests for the implicit heat solve, IMEX stepping and the run loop."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    bump,
    collected_run,
    quad_bump_state,
    sequential_steps,
    solve_tridiagonal,
    thomas_heat_step,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import rdcheck.solver

from rdcheck import (
    Grid1D,
    InvariantTracker,
    NumericalFailure,
    ReactionSystem,
    SolverConfig,
    augment_system,
    custom_polynomial,
    imex_step,
    implicit_heat_step,
    laplacian_values,
    run_simulation,
    skew_lv,
)
from rdcheck.config import validate_config
from rdcheck.experiment import run_experiment


def heat_only(diffusion=1.0):
    """Single species with f = 0: pure diffusion."""
    return custom_polynomial(
        [diffusion],
        [[]],
        k0=0.0,
        k1=0.0,
        growth_k=1.0,
        growth_eps=0.0,
    )


def constant_sink(rate):
    """Single species with f = -rate, independent of the state."""
    return custom_polynomial(
        [1.0],
        [[(-rate, (0,))]],
        k0=0.0,
        k1=0.0,
        growth_k=max(rate, 1.0),
        growth_eps=0.0,
    )


def constant_state(grid, value, n_species=1):
    """A run's input (grid, u0) with every value equal to value."""
    return grid, np.full((n_species, grid.n_cells), float(value))


def monomial(coef, power):
    """Single species with f = coef * u^power."""
    return custom_polynomial(
        [1.0],
        [[(coef, (power,))]],
        k0=0.0,
        k1=0.0,
        growth_k=max(abs(coef), 1.0),
        growth_eps=0.0,
    )


def cube_in_species_2():
    """Two species with f = (0, u_2^3)."""
    return custom_polynomial(
        [1.0, 1.0],
        [[], [(1.0, (0, 3))]],
        k0=0.0,
        k1=0.0,
        growth_k=1.0,
        growth_eps=0.0,
    )


def skew_augmented(n_cells=64):
    """The augmented cyclic skew Lotka-Volterra system on n_cells cells,
    with its three bumps of height 50 and zero closure species."""
    base = skew_lv(
        [1e-4, 2e-4, 3e-4],
        interaction=[[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
        decay=[0.01, 0.01, 0.01],
    )
    grid = Grid1D(n_cells, 1.0)
    u0 = np.stack(
        [bump(grid, c, 0.1, 50.0) for c in (0.3, 0.5, 0.7)] + [np.zeros(n_cells)]
    )
    return augment_system(base), (grid, u0)


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


class TestSolveTridiagonal:
    """Thomas elimination, the reference the implicit step is checked against."""

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
        before = rdcheck.solver.row_norms(values[None], grid.h)[1][0]
        after = rdcheck.solver.row_norms(
            implicit_heat_step(values, grid, 2.0, 0.1)[None], grid.h
        )[1][0]
        assert abs(after - before) < 1e-12 * abs(before)


# A grid size solved in several blocks.
ABOVE_CROSSOVER = 256
assert ABOVE_CROSSOVER > rdcheck.solver.DENSE_MAX_CELLS


def assert_cache_is_bounded_and_invisible(
    cache, n_cells, diffusion=(1e-4, 2e-4, 3e-4, 1e-3)
):
    """A solve from a cold cache equals the one from a warm cache, every
    call returns a new writable array, and the cache stays at its bound.
    diffusion is one per row, or one float for all four rows."""
    grid = Grid1D(n_cells, 1.0)
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 1.0, size=(4, n_cells))
    diffusion = np.asarray(diffusion)

    def cold(dt):
        cache.cache_clear()
        return implicit_heat_step(values, grid, diffusion, dt)

    dt1, dt2 = 0.1, 0.05
    expect = {dt: cold(dt) for dt in (dt1, dt2)}
    cache.cache_clear()
    for dt in (dt1, dt2, dt1):
        np.testing.assert_array_equal(
            implicit_heat_step(values, grid, diffusion, dt), expect[dt]
        )
    # Each call returns a new, writable array: the tracker keeps the last
    # row of one as its z.
    first = implicit_heat_step(values, grid, diffusion, dt1)
    second = implicit_heat_step(values, grid, diffusion, dt1)
    assert first.flags.writeable and not np.shares_memory(first, second)
    first[:] = -1.0
    np.testing.assert_array_equal(
        implicit_heat_step(values, grid, diffusion, dt1), expect[dt1]
    )
    bound = cache.cache_info().maxsize
    for i in range(3 * bound):
        implicit_heat_step(values, grid, diffusion, 0.01 * (i + 1))
    assert cache.cache_info().currsize == bound


def solve_profile(kind, grid, rng):
    """Right-hand sides for the batched solve: noise, zero, or a Gaussian
    bump narrow enough that its tails reach ~1e-30 inside the domain."""
    if kind == "noise":
        return rng.uniform(-1.0, 1.0, size=grid.n_cells)
    if kind == "zero":
        return np.zeros(grid.n_cells)
    width = 0.3 * grid.length / math.sqrt(138.0)
    centre = rng.uniform(0.3, 0.7) * grid.length
    return bump(grid, centre, width, rng.uniform(0.5, 50.0))


class TestBlockSolveProperties:
    """The batched solve, as one block and in several, against the Thomas
    oracle."""

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
        shared = implicit_heat_step(rhs, grid, float(diffusion[0]), dt)
        for row, got in zip(rhs, shared):
            np.testing.assert_array_equal(
                implicit_heat_step(row, grid, float(diffusion[0]), dt), got
            )
        for row, d, s_row, got in zip(rhs, diffusion, s, together):
            np.testing.assert_array_equal(implicit_heat_step(row, grid, float(d), dt), got)
            scale = np.max(np.abs(row))
            if scale == 0.0:
                np.testing.assert_array_equal(got, 0.0)
                continue
            expect = thomas_heat_step(row, grid, float(d), dt)
            # The oracle's own error grows with the condition number 1 + 4s
            # (2e-12 of scale at s = 1e5 and n = 2, where the solve is
            # accurate cell by cell).
            tol = 1e-13 + 4.0 * np.finfo(np.float64).eps * s_row
            assert np.max(np.abs(got - expect)) <= tol * scale
            assert abs(np.sum(got) - np.sum(row)) <= 1e-14 * np.sum(np.abs(row))

    def test_block_factor_caches_are_bounded_and_invisible(self):
        assert_cache_is_bounded_and_invisible(
            rdcheck.solver._inverse_stacks, ABOVE_CROSSOVER
        )
        assert_cache_is_bounded_and_invisible(
            rdcheck.solver._inverse, ABOVE_CROSSOVER, 2e-4
        )

    def test_inverse_cache_is_bounded_and_invisible(self):
        assert_cache_is_bounded_and_invisible(rdcheck.solver._inverse_stacks, 64)

    def test_single_s_inverse_cache_is_bounded_and_invisible(self):
        assert_cache_is_bounded_and_invisible(rdcheck.solver._inverse, 64, 2e-4)

    # The rounding of a weighted mean grows with its number of terms, about
    # 2 sqrt(n): 1.2e-15 is the worst cell at 4096 cells.
    @pytest.mark.parametrize(
        "n, rtol", [(ABOVE_CROSSOVER, 1e-15), (4096, 4e-15)], ids=["256", "4096"]
    )
    def test_rows_near_max_float_stay_finite(self, n, rtol):
        # s = 6554 at 256 cells: s times a separator's neighbour would
        # overflow, so the separator equations are scaled by their row
        # sums.  RuntimeWarnings are errors in this suite.
        out = implicit_heat_step(np.full(n, 4.5e305), Grid1D(n), 1.0, 0.1)
        np.testing.assert_allclose(out, 4.5e305, rtol=rtol)

    @settings(max_examples=60, deadline=None)
    @given(
        log_s=st.floats(-8.0, 8.0),
        zeros=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_nonnegative_rows_give_nonnegative_cells(self, log_s, zeros, seed):
        # Every update adds positive terms: a nonnegative right-hand side,
        # with exact zeros and values down to 1e-300, gives no negative
        # cell, so callers need no clamp after the solve.
        n = ABOVE_CROSSOVER
        rng = np.random.default_rng(seed)
        rhs = rng.uniform(0.0, 1.0, size=(3, n)) * 10.0 ** rng.uniform(-300, 0, (3, n))
        rhs[rng.uniform(size=(3, n)) < zeros] = 0.0
        out = implicit_heat_step(rhs, Grid1D(n), 10.0**log_s / n**2, 1.0)
        assert np.all(out >= 0.0)

    def test_rejects_mismatched_per_row_diffusion(self):
        grid = Grid1D(8, 1.0)
        with pytest.raises(ValueError, match="per-row diffusion"):
            implicit_heat_step(np.ones((3, 8)), grid, [1.0, 2.0], 0.1)
        with pytest.raises(ValueError, match="per-row diffusion"):
            implicit_heat_step(np.ones(8), grid, [1.0], 0.1)


def sequential_heat_solve(rhs, s):
    """(I - s h^2 L) x = rhs by sequential Thomas elimination, written so
    that every update adds positive terms, in floats: the pivots are the
    reduced rows' slacks plus their couplings, as in `_build_inverses`."""
    n = len(rhs)
    y, c, p = [float(rhs[0])], [], []
    e = 1.0
    for j in range(n - 1):
        p.append(s + e)
        c.append(s / p[j])
        e = 1.0 + c[j] * e
        y.append(float(rhs[j + 1]) + c[j] * y[j])
    p.append(e)
    x = [y[-1] / p[-1]]
    for j in range(n - 2, -1, -1):
        x.insert(0, y[j] / p[j] + c[j] * x[0])
    return np.array(x)


def falling_rows(grid, rows, seed):
    """Nonnegative rows whose size falls from about 1 to about 1e-200
    across the grid, with noise of one order of magnitude."""
    rng = np.random.default_rng(seed)
    fall = np.exp(-460.0 * grid.centers / grid.length)
    return rng.uniform(0.1, 1.0, size=(rows, grid.n_cells)) * fall


def assert_cells_match_the_sequential_solve(grid, rhs, diffusion):
    """One stacked solve with dt = 1, every cell of every row within 1e-12
    of the sequential solve, relative to itself."""
    got = implicit_heat_step(rhs, grid, diffusion, 1.0)
    for row, d, out in zip(rhs, diffusion, got):
        s = float(d) / (grid.h * grid.h)
        expect = sequential_heat_solve(row, s)
        worst = np.max(np.abs(out - expect) / expect)
        assert worst <= 1e-12, (s, worst)


def exact_heat_solve(rhs, s):
    """(I - s h^2 L) x = rhs in exact rationals, s and rhs taken as the
    rationals their floats are: Thomas elimination, which the diagonally
    dominant matrix allows without pivoting."""
    n = len(rhs)
    diag = [1 + (1 if j in (0, n - 1) else 2) * s for j in range(n)]
    b = [Fraction(v) for v in rhs]
    for j in range(1, n):
        m = s / diag[j - 1]
        diag[j] -= m * s
        b[j] += m * b[j - 1]
    x = [b[-1] / diag[-1]]
    for j in range(n - 2, -1, -1):
        x.insert(0, (b[j] + s * x[0]) / diag[j])
    return x


class TestCellAccuracy:
    """Above DENSE_MAX_CELLS every cell stays accurate relative to itself,
    on rows that fall to 1e-200 across the grid, where a solve accurate
    only to eps * sup|row| loses all but the first cells."""

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_every_cell_is_accurate_relative_to_itself(self, n):
        grid = Grid1D(n)
        # s = dt d / h^2 from 1e-8 to 1e8.
        diffusion = 10.0 ** np.linspace(-8.0, 8.0, 9) * grid.h**2
        assert_cells_match_the_sequential_solve(
            grid, falling_rows(grid, len(diffusion), n), diffusion
        )

    def test_a_deep_ladder_stack_is_accurate_cell_by_cell(self):
        # The default 21 levels of the README diffusions from dt = 1e-3,
        # one row per level and species: 84 rows with s from 2.6e3 down to
        # 1e-3, in one call.
        grid = Grid1D(1024)
        dts = 1e-3 * 0.5 ** np.arange(21)
        diffusion = np.outer(dts, [1.0, 1.5, 2.0, 2.5]).reshape(-1)
        assert_cells_match_the_sequential_solve(
            grid, falling_rows(grid, len(diffusion), 21), diffusion
        )


class TestDenseSolve:
    """Grids of at most DENSE_MAX_CELLS cells, solved by a cached inverse."""

    def test_inverse_build_is_subtraction_free(self):
        # s = 4e16: the textbook pivot (1 + s) - s^2 / (1 + s) cancels to
        # zero and divides by it.  RuntimeWarnings are errors in this suite.
        out = implicit_heat_step(np.ones((2, 2)), Grid1D(2), 1e16, 1.0)
        np.testing.assert_allclose(out, 1.0, rtol=1e-15)

    def test_every_cell_is_accurate_relative_to_itself(self):
        # The answer falls from 1 to ~4e-57 across four cells.  A solve
        # accurate only to eps * sup|row| loses every cell but the last.
        grid = Grid1D(4)
        d, dt = 1e-12, 1e-8
        rhs = np.array([1e-300, 0.0, 0.0, 1.0])
        got = implicit_heat_step(rhs, grid, d, dt)
        exact = exact_heat_solve(rhs, Fraction(dt * d / (grid.h * grid.h)))
        for value, expect in zip(got, exact):
            assert abs(Fraction(value) - expect) <= Fraction(1e-13) * expect, (
                value, float(expect),
            )

    def test_rows_at_max_float_stay_finite(self):
        # Rows of the inverse are positive and sum to one: the product is
        # a weighted mean of the row.
        out = implicit_heat_step(np.full(8, 1e308), Grid1D(8), 1.0, 0.1)
        np.testing.assert_allclose(out, 1e308, rtol=1e-15)

    def test_inverse_has_no_subnormal_entries(self):
        # At s = 1e-8 the entries fall like s^|j - k| from the diagonal and
        # pass below the smallest normal float 39 cells away from it.
        n, s = 64, np.float64(1e-8)
        inverse = rdcheck.solver._factorize(n, (), s.tobytes())
        tiny = np.finfo(np.float64).tiny
        assert not np.any((inverse > 0.0) & (inverse < tiny))
        near = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 38
        assert np.all(inverse[near] >= tiny) and np.all(inverse[~near] == 0.0)
        # Rows and columns still sum to one.
        np.testing.assert_allclose(inverse.sum(axis=0), 1.0, rtol=1e-15)
        np.testing.assert_allclose(inverse.sum(axis=1), 1.0, rtol=1e-15)

    def test_single_s_solves_do_not_evict_ladder_stacks(self):
        # The tracker solves with one s between two ladders.
        grid = Grid1D(64)
        values = np.ones((4, 64))
        diffusion = np.array([1e-4, 2e-4, 3e-4, 1.0])
        stacks = rdcheck.solver._inverse_stacks
        stacks.cache_clear()
        dts = [0.1 * 0.5**level for level in range(stacks.maxsize)]
        for _ in range(2):
            for dt in dts:
                implicit_heat_step(values, grid, diffusion, dt)
                implicit_heat_step(values[:2], grid, 2.0, dt)
        assert stacks.cache_info().misses == len(dts)

    def test_a_build_holds_fewer_than_maxsize_inverses(self, monkeypatch):
        # The oldest entry goes before the new one is built, so the cache
        # never holds more than maxsize stacks, not even during a build.
        stacks = rdcheck.solver._inverse_stacks
        stacks.cache_clear()
        held = []
        build = rdcheck.solver._factorize

        def counted(*key):
            held.append(stacks.cache_info().currsize)
            return build(*key)

        monkeypatch.setattr(rdcheck.solver, "_factorize", counted)
        diffusion = np.array([1e-4, 2e-4])
        for i in range(3 * stacks.maxsize):
            implicit_heat_step(np.ones((2, 16)), Grid1D(16), diffusion, 0.01 * (i + 1))
        assert len(held) == 3 * stacks.maxsize
        assert max(held) == stacks.maxsize - 1


def skew_tails_against_thomas(monkeypatch, n_cells, t_end, n_steps):
    """Run the augmented skew system with the solver and with the Thomas
    oracle: the same accepted dts, and sups and masses of species 1-3 within
    1e-9 relative at u0 and at every step."""
    aug, initial = skew_augmented(n_cells)
    cfg = SolverConfig(dt=0.1, t_end=t_end)

    def run():
        steps = []
        run_simulation(
            aug, *initial, cfg,
            hooks=[lambda e: steps.append((e.dt, e.u_new[:3]))],
        )
        return steps

    solved = run()
    monkeypatch.setattr(rdcheck.solver, "implicit_heat_step", thomas_heat_step)
    thomas = run()
    assert len(solved) == len(thomas) == n_steps + 1
    for (dt_a, a), (dt_b, b) in zip(solved, thomas):
        assert dt_a == dt_b
        np.testing.assert_allclose(a.max(axis=1), b.max(axis=1), rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(a.sum(axis=1), b.sum(axis=1), rtol=1e-9, atol=0.0)


class TestTailAccuracy:
    # The augmented cyclic skew Lotka-Volterra run drives species to ~1e-35
    # in part of the domain and lets them re-invade from there.  A solve
    # accurate only to eps * sup of each row leaves a noise floor there, and
    # the noise re-invades.

    def test_skew_tails_match_the_thomas_oracle(self, monkeypatch):
        # 64 cells, one block, over the whole 960-step horizon: it agrees
        # with Thomas to about 4e-12.
        skew_tails_against_thomas(monkeypatch, 64, 12.0, 960)

    def test_skew_tails_above_the_dense_crossover(self, monkeypatch):
        # 256 cells, in several blocks: species 1-3 agree with Thomas to
        # about 4e-14.
        skew_tails_against_thomas(monkeypatch, ABOVE_CROSSOVER, 2.4, 192)


def stepped(u, grid, sys, dts):
    """imex_step of u by each of dts, with the reaction at (u, 0)."""
    with np.errstate(over="ignore"):
        f = sys.evaluator(u, 0.0)
    return imex_step(u, f, grid, sys, dts)


class TestImexStep:
    def test_constant_source_hand_value(self):
        # f = -0.5 on a constant field: diffusion is inert, so one step is
        # exactly u - dt * 0.5.
        grid, u = constant_state(Grid1D(16, 1.0), 2.0)
        out = stepped(u, grid, constant_sink(0.5), [0.1])
        np.testing.assert_allclose(out[0][0], 1.95, rtol=1e-14)

    def test_equilibrium_is_stationary(self, quad_system):
        grid, u = constant_state(Grid1D(16, 1.0), 1.0, n_species=4)
        out = stepped(u, grid, quad_system, [0.05])
        np.testing.assert_allclose(out[0], 1.0, rtol=1e-13)

    def test_rejects_wrong_species_count(self, quad_system):
        grid, u = constant_state(Grid1D(8, 1.0), 1.0, n_species=2)
        with pytest.raises(ValueError, match="species"):
            imex_step(u, np.zeros_like(u), grid, quad_system, [0.1])

    def test_rejects_reaction_of_another_shape(self, quad_system):
        # A (cells,) reaction would broadcast onto every species.
        grid, u = constant_state(Grid1D(8, 1.0), 1.0, n_species=4)
        with pytest.raises(ValueError, match=r"reaction has shape \(8,\), state .* \(4, 8\)"):
            imex_step(u, np.arange(8.0), grid, quad_system, [0.1])

    def test_non_finite_level_is_returned(self):
        # u^3 overflows at u = 1e200: the level comes back non-finite in
        # species 2, without a warning, and species 1 is untouched.
        u = np.stack([np.full(8, 1.0), np.full(8, 1e200)])
        out = stepped(u, Grid1D(8, 1.0), cube_in_species_2(), [0.1])
        assert out.shape == (1, 2, 8)
        np.testing.assert_allclose(out[0][0], 1.0, rtol=1e-14)
        assert not np.isfinite(out[0][1]).any()

    def test_rejects_nonpositive_dt(self):
        grid, u = constant_state(Grid1D(8, 1.0), 1.0)
        with pytest.raises(ValueError, match="dt"):
            stepped(u, grid, heat_only(), [0])


class TestRunSimulationValidation:
    """run_simulation's checks of its initial (species, cells) array."""

    CFG = SolverConfig(dt=0.1, t_end=1.0)

    def test_rejects_wrong_species_count(self, quad_system):
        with pytest.raises(ValueError, match=r"shape \(1, 8\), expected .* \(4, 8\)"):
            run_simulation(quad_system, *constant_state(Grid1D(8, 1.0), 1.0), self.CFG)

    def test_rejects_wrong_cell_count(self):
        grid = Grid1D(8, 1.0)
        with pytest.raises(ValueError, match=r"shape \(1, 7\), expected .* \(1, 8\)"):
            run_simulation(heat_only(), grid, np.ones((1, 7)), self.CFG)
        with pytest.raises(ValueError, match=r"shape \(8,\)"):
            run_simulation(heat_only(), grid, np.ones(8), self.CFG)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_initial_data(self, bad):
        grid, u0 = constant_state(Grid1D(8, 1.0), 1.0)
        u0[0, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            run_simulation(heat_only(), grid, u0, self.CFG)

    def test_rejects_negative_initial_data(self):
        grid, u0 = constant_state(Grid1D(8, 1.0), 1.0, n_species=2)
        u0[1, 3] = -0.25
        skew = skew_lv([1.0, 1.0], interaction=[[0.0, 1.0], [-1.0, 0.0]], decay=[1.0, 1.0])
        with pytest.raises(ValueError, match="species 2 is negative: -0.25"):
            run_simulation(skew, grid, u0, self.CFG)

    def test_runs_on_a_read_only_copy_of_the_initial_data(self):
        grid, u0 = constant_state(Grid1D(8, 1.0), 1.0)
        events = []
        run_simulation(heat_only(), grid, u0, self.CFG, hooks=[events.append])
        first = events[0].u_new
        assert first is not u0 and not first.flags.writeable
        u0[0, 0] = 99.0
        assert first[0, 0] == 1.0
        assert u0.flags.writeable


class TestRunSimulationRecording:
    def test_cadence_and_endpoints(self):
        state = constant_state(Grid1D(8, 1.0), 1.0)
        traj = collected_run(
            heat_only(), *state, SolverConfig(dt=0.1, t_end=1.0, record_every=3)
        )
        # Accepted steps 1..10; recorded at 3, 6, 9 plus t = 0 and the end.
        np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)

    def test_first_step_starts_from_the_initial_state(self):
        grid = Grid1D(32, 1.0)
        u0 = np.stack([1.0 + bump(grid, 0.5, 0.1, 2.0)])
        events = []
        run_simulation(
            heat_only(), grid, u0, SolverConfig(dt=0.05, t_end=0.2), hooks=[events.append]
        )
        start, first = events[0], events[1]
        assert first.t_old == 0.0
        np.testing.assert_array_equal(start.u_new, u0)
        assert start.sup_norms[0] == float(np.max(u0[0]))
        assert start.masses[0] == float(np.add.accumulate(u0[0])[-1] * grid.h)
        step = imex_step(u0, np.zeros_like(u0), grid, heat_only(), [0.05])[0]
        assert first.u_new.tobytes() == np.maximum(step, 0.0).tobytes()

    def test_times_strictly_increase(self):
        grid = Grid1D(16, 1.0)
        state = grid, np.stack([1.0 + bump(grid, 0.4, 0.1, 1.0)])
        traj = collected_run(
            heat_only(), *state, SolverConfig(dt=0.07, t_end=0.5, record_every=2)
        )
        assert np.all(np.diff(traj.times) > 0.0)
        assert abs(traj.final().t - 0.5) < 1e-12


def tick_counts(events, cfg):
    """Each event's t in ticks of cfg.dt / 2^max_step_halvings, summed from
    the accepted step sizes in exact rationals, and the sizes that are no
    rung of cfg.dt."""
    tick = Fraction(cfg.dt) / 2**cfg.max_step_halvings
    counts, off_ladder, count = [], [], Fraction(0)
    for event in events:
        count += Fraction(event.dt) / tick
        counts.append(count)
        ratio = Fraction(cfg.dt) / Fraction(event.dt) if event.index else 1
        if ratio.denominator != 1 or ratio.numerator.bit_count() != 1:
            off_ladder.append(event.dt)
    return counts, tick, off_ladder


class TestClock:
    """t is an integer count of ticks, the finest rung, rounded once."""

    def test_t_is_the_tick_count_times_the_tick(self, quad_system):
        # The README quad: 49 steps of 1e-3 read 0.049, where a running
        # float sum reads 0.04900000000000004.
        grid = Grid1D(64, 1.0)
        cfg = SolverConfig(dt=1e-3, t_end=0.05)
        events = []
        run_simulation(
            quad_system, grid, quad_bump_state(grid), cfg, hooks=[events.append]
        )
        counts, tick, off_ladder = tick_counts(events, cfg)
        assert len(events) == 51 and not off_ladder
        assert events[49].t_new == 0.049 and events[-1].t_new == 0.05
        num, den = tick.as_integer_ratio()
        for event, count in zip(events, counts):
            assert count.denominator == 1
            assert event.t_new == count.numerator * num / den
            assert event.t_old == events[max(event.index - 1, 0)].t_new

    def test_t_end_off_the_ladder_takes_one_remainder_step(self):
        # 1 / 0.3 is no multiple of a rung: three steps of 0.3, then the
        # rest below 0.3 in binary, 0.1 = (1/4 + 1/16 + ...) 0.3, ten rungs
        # down to the 20th, and one remainder step below the tick.
        cfg = SolverConfig(dt=0.3, t_end=1.0)
        events = []
        run_simulation(
            heat_only(), *constant_state(Grid1D(8, 1.0), 1.0), cfg, hooks=[events.append]
        )
        counts, _, off_ladder = tick_counts(events, cfg)
        assert len(events) == 1 + 14
        assert events[-1].t_new == 1.0 and events[-1].recorded
        assert off_ladder == [events[-1].dt] and events[-1].dt < 0.3 / 2**20
        assert all(count.denominator == 1 for count in counts[:-1])
        assert [e.dt for e in events[1:4]] == [0.3] * 3

    def test_a_budget_of_1100_halvings_keeps_whole_steps(self, quad_system):
        # The tick, 1e-3 / 2^1100, is below the smallest float; 0.05 is
        # still 50 whole steps of the float 1e-3.
        grid = Grid1D(16, 1.0)
        cfg = SolverConfig(dt=1e-3, t_end=0.05, max_step_halvings=1100)
        events = []
        run_simulation(
            quad_system, grid, quad_bump_state(grid), cfg, hooks=[events.append]
        )
        assert [e.dt for e in events[1:]] == [1e-3] * 50
        assert events[-1].t_new == 0.05

    def test_a_rejected_remainder_step_ends_the_run(self, monkeypatch):
        # The remainder step is never halved: when it is rejected, the run
        # fails at the start of it, after 0 halvings.
        real = rdcheck.solver.imex_step

        def overflowing_off_the_ladder(u, f, grid, sys, dts):
            levels = real(u, f, grid, sys, dts)
            off = [math.log2(0.3 / dt) % 1 != 0 for dt in dts]
            levels[np.asarray(off)] = math.inf
            return levels

        monkeypatch.setattr(rdcheck.solver, "imex_step", overflowing_off_the_ladder)
        events = []
        with pytest.raises(NumericalFailure, match="after 0 halvings") as excinfo:
            run_simulation(
                heat_only(), *constant_state(Grid1D(8, 1.0), 1.0),
                SolverConfig(dt=0.3, t_end=1.0), hooks=[events.append],
            )
        assert len(events) == 14 and excinfo.value.time == events[-1].t_new < 1.0

    @pytest.mark.parametrize(
        "dt, t_end, steps",
        [
            (1e-3, 0.05, 50), (1e-3, 0.049, 49), (5e-3, 0.2, 40), (0.3, 0.9, 3),
            (0.3, 3.0, 10), (0.1, 12.0, 120), (0.0125, 3.0, 240), (0.07, 0.07 * 3, 3),
            # 2.4 / 0.1 is 23.999999999999996 in floats; 24 steps of 0.1
            # are within 1e-12 t_end of 2.4 all the same.
            (0.1, 2.4, 24),
        ],
    )
    def test_whole_steps_end_on_t_end(self, dt, t_end, steps):
        events = []
        run_simulation(
            heat_only(), *constant_state(Grid1D(4, 1.0), 1.0),
            SolverConfig(dt=dt, t_end=t_end), hooks=[events.append],
        )
        assert [e.dt for e in events[1:]] == [dt] * steps
        assert events[-1].t_new == t_end


class TestRunSimulationPhysics:
    def test_pure_diffusion_conserves_mass(self):
        grid = Grid1D(64, 1.0)
        state = grid, np.stack([1.0 + bump(grid, 0.3, 0.08, 3.0)])
        traj = collected_run(heat_only(2.0), *state, SolverConfig(dt=0.01, t_end=0.5))
        masses = np.array([e.masses[0] for e in traj.entries])
        assert np.max(np.abs(masses - masses[0])) < 1e-12 * masses[0]

    def test_skew_mass_shrinks_by_exactly_one_minus_dt(self, skew_system):
        # f evaluated at the old state plus exact operator conservation make
        # the per-step mass factor 1 - tau dt, up to solve rounding.
        grid = Grid1D(32, 1.0)
        state = grid, np.stack(
            [0.5 + bump(grid, 0.3, 0.1, 1.0), 0.5 + bump(grid, 0.7, 0.1, 1.0)]
        )
        dt = 1e-3
        masses, ratios = [], []

        def capture(event):
            masses.append(grid.h * float(np.sum(event.u_new)))
            if event.index:
                ratios.append(masses[-1] / masses[-2])

        run_simulation(
            skew_system, *state, SolverConfig(dt=dt, t_end=0.05), hooks=[capture]
        )
        assert len(ratios) == 50
        np.testing.assert_allclose(ratios, 1.0 - dt, rtol=1e-12)

    def test_quad_equilibrium_is_stationary(self, quad_system):
        state = constant_state(Grid1D(16, 1.0), 1.0, n_species=4)
        final = run_simulation(quad_system, *state, SolverConfig(dt=0.05, t_end=0.5))
        np.testing.assert_allclose(final, 1.0, rtol=1e-12)

    def test_time_dependent_reaction_is_taken_at_the_old_time(self):
        # f = t on a constant field: each step adds exactly dt * t_old, so
        # four steps of 0.25 from 1 reach 1 + 0.25 * (0 + 0.25 + 0.5 +
        # 0.75).  The hooks see the reaction of the new state, at t_new.
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
        events = []
        final = run_simulation(
            clock, *constant_state(Grid1D(8, 1.0), 1.0),
            SolverConfig(dt=0.25, t_end=1.0), hooks=[events.append],
        )
        np.testing.assert_allclose(final, 1.375, rtol=1e-14)
        for event in events:
            assert not event.f.flags.writeable
            np.testing.assert_array_equal(event.f, event.t_new)


class TestPositivityEnforcement:
    def test_halving_is_scoped_to_the_step(self):
        # u0 = 0.01 under f = -10 u: the full step dt = 0.2 lands at -u0
        # and is rejected; dt = 0.1 lands at zero and is accepted.  The
        # next step must start again from the configured dt.
        sys = custom_polynomial(
            [1.0],
            [[(-10.0, (1,))]],
            k0=0.0,
            k1=0.0,
            growth_k=10.0,
            growth_eps=0.0,
        )
        state = constant_state(Grid1D(8, 1.0), 0.01)
        seen = []

        def capture(event):
            seen.append(event.dt)

        final = run_simulation(
            sys, *state, SolverConfig(dt=0.2, t_end=0.4), hooks=[capture]
        )
        # seen[0] is u0's dt = 0.
        assert seen[1] == pytest.approx(0.1)
        assert seen[2] == pytest.approx(0.2)
        np.testing.assert_array_equal(final[0], 0.0)

    def test_tiny_negatives_are_clamped_to_exact_zero(self):
        # One step from zero data under f = -1e-10 lands at -1e-13, inside
        # the floor, and must be clamped to exact zero in the hook's view.
        sys = constant_sink(1e-10)
        state = constant_state(Grid1D(8, 1.0), 0.0)
        mins = []

        def capture(event):
            mins.append(float(np.min(event.u_new[0])))

        final = run_simulation(
            sys, *state, SolverConfig(dt=1e-3, t_end=3e-3), hooks=[capture]
        )
        # u0 and the three steps.
        assert mins == [0.0, 0.0, 0.0, 0.0]
        np.testing.assert_array_equal(final[0], 0.0)

    def test_non_finite_trial_is_rejected_and_halved(self, monkeypatch):
        # A non-finite trial is rejected like a positivity one and the step
        # halved.  The first step solves dt = 0.2 and then 0.1 alone, the
        # later ones the ladder (0.2, 0.1).
        real = rdcheck.solver.imex_step

        def overflowing_above(u, f, grid, sys, dts):
            levels = real(u, f, grid, sys, dts)
            levels[np.asarray(dts) > 0.15] = math.inf
            return levels

        monkeypatch.setattr(rdcheck.solver, "imex_step", overflowing_above)
        seen = []
        traj = collected_run(
            heat_only(), *constant_state(Grid1D(8, 1.0), 1.0),
            SolverConfig(dt=0.2, t_end=0.4), hooks=[lambda e: seen.append(e.dt)],
        )
        assert seen == pytest.approx([0.0, 0.1, 0.1, 0.1, 0.1])
        assert abs(traj.final().t - 0.4) < 1e-12

    def test_non_finite_trials_exhaust_the_halvings(self):
        # The cube overflows at every step size: the run names species 2,
        # the step's start time and its non-finite value.
        u = np.stack([np.full(8, 1.0), np.full(8, 1e200)])
        cfg = SolverConfig(dt=0.1, t_end=1.0)
        with pytest.raises(NumericalFailure, match="non-finite") as excinfo:
            run_simulation(cube_in_species_2(), Grid1D(8, 1.0), u, cfg)
        assert "after 20 halvings" in str(excinfo.value)
        assert excinfo.value.species == 2
        assert excinfo.value.time == 0.0
        assert not math.isfinite(excinfo.value.value)

    def test_exhausted_halvings_raise_with_payload(self):
        sys = constant_sink(1.0)
        state = constant_state(Grid1D(8, 1.0), 0.0)
        with pytest.raises(NumericalFailure, match="halvings") as excinfo:
            run_simulation(sys, *state, SolverConfig(dt=1e-3, t_end=1e-2))
        err = excinfo.value
        assert err.time == 0.0
        assert err.species == 1
        assert err.value < 0.0


def ladder_steps(system, initial, cfg):
    """run_simulation's accepted (dt, u_new) steps and the failure that
    ended the run, or None: the form `sequential_steps` returns."""
    steps = []

    def accepted(event):
        if event.index:
            steps.append((event.dt, event.u_new))

    try:
        run_simulation(system, *initial, cfg, hooks=[accepted])
    except NumericalFailure as exc:
        return steps, exc
    return steps, None


def accepted_levels(steps, cfg):
    """The rung k of each accepted (dt, u) step, dt = cfg.dt / 2^k.  Every
    step is a rung from 0 to max_step_halvings, but for a remainder step
    below the finest rung, which counts as its nearest rung."""
    return [round(math.log2(cfg.dt / dt)) for dt, _ in steps]


LADDER_CASES = {
    # Accepts at level 3 from the second step on: one ladder of 4 per step.
    "skew-augmented-64": lambda: (
        *skew_augmented(), SolverConfig(dt=0.1, t_end=2.4),
    ),
    # Constant sink from 1 with a floor of -0.05: the accepted level goes
    # 0, 0, 0, 2, 3, ..., so the ladder (0, 1, 2) fails and (3, 4, 5) runs.
    "level-rises": lambda: (
        constant_sink(1.0), constant_state(Grid1D(8, 1.0), 1.0),
        SolverConfig(dt=0.3, t_end=1.5, positivity_floor=-0.05),
    ),
    # As above to t_end = 1, which no rung divides: the last 0.1 is walked
    # in rungs and closed by one remainder step below the finest rung.
    "off-the-ladder-end": lambda: (
        constant_sink(1.0), constant_state(Grid1D(8, 1.0), 1.0),
        SolverConfig(dt=0.3, t_end=1.0, positivity_floor=-0.05),
    ),
    # Constant sink from zero: the budget runs out at the first step.
    "sink-exhausted-at-start": lambda: (
        constant_sink(1.0), constant_state(Grid1D(8, 1.0), 0.0),
        SolverConfig(dt=1e-3, t_end=1e-2),
    ),
    # Constant sink from 1: the level rises by 2 per step until the budget
    # runs out inside a ladder cut at the budget's last level.
    "sink-exhausted-in-a-ladder": lambda: (
        constant_sink(1.0), constant_state(Grid1D(8, 1.0), 1.0),
        SolverConfig(dt=0.3, t_end=3.0),
    ),
    # As above with a budget of 5 halvings: at the step that needs level 6
    # the ladder (0..4) fails and the next one is cut to level 5 alone.
    "budget-cuts-the-ladder": lambda: (
        constant_sink(1.0), constant_state(Grid1D(8, 1.0), 1.0),
        SolverConfig(dt=0.3, t_end=3.0, max_step_halvings=5),
    ),
    # f1 = u1^3 from 10 on 16 cells: overflows to a non-finite state at
    # t = 0.07 and aborts with the last level's non-finite value.
    "cube-overflow": lambda: (
        monomial(1.0, 3), constant_state(Grid1D(16, 1.0), 10.0),
        SolverConfig(dt=0.01, t_end=0.1),
    ),
    # f = 1e306 on 8 cells: the first levels of a ladder overflow in
    # u + dt f and a later one is finite, until none is.
    "non-finite-levels-in-a-ladder": lambda: (
        monomial(1e306, 0), constant_state(Grid1D(8, 1.0), 0.0),
        SolverConfig(dt=100.0, t_end=1000.0),
    ),
}


class TestHalvingLadder:
    @pytest.mark.parametrize("case", sorted(LADDER_CASES))
    def test_matches_the_sequential_halvings_bitwise(self, case):
        system, initial, cfg = LADDER_CASES[case]()
        got, got_failure = ladder_steps(system, initial, cfg)
        expect, expect_failure = sequential_steps(system, *initial, cfg)
        assert [dt for dt, _ in got] == [dt for dt, _ in expect]
        for (_, a), (_, b) in zip(got, expect):
            assert a.tobytes() == b.tobytes()
        if expect_failure is None:
            assert got_failure is None
        else:
            assert got_failure is not None
            assert str(got_failure) == str(expect_failure)
            assert (got_failure.time, got_failure.species) == (
                expect_failure.time, expect_failure.species,
            )
            assert repr(got_failure.value) == repr(expect_failure.value)

    def test_cases_reach_what_they_name(self):
        def levels(case):
            system, initial, cfg = LADDER_CASES[case]()
            steps, failure = ladder_steps(system, initial, cfg)
            return accepted_levels(steps, cfg), failure

        skew, failure = levels("skew-augmented-64")
        # Every step at rung 3, 0.0125: 24 steps of 0.1 lie within 1e-12
        # t_end of 2.4.
        assert failure is None and skew == [3] * 192
        rises, failure = levels("level-rises")
        assert failure is None and rises[:5] == [0, 0, 0, 2, 3]
        # Rungs 2, 4, ..., 20 walk the last 0.1 = 0.3 (1/4 + 1/16 + ...);
        # the remainder step lies below rung 20.
        ends, failure = levels("off-the-ladder-end")
        assert failure is None and ends == [0, 0, 0, *range(2, 21, 2), 22]
        budget, failure = levels("budget-cuts-the-ladder")
        assert budget == [0, 0, 0, 2, 4] and "after 5 halvings" in str(failure)
        for case in ("sink-exhausted-at-start", "sink-exhausted-in-a-ladder"):
            _, failure = levels(case)
            assert "positivity could not be restored" in str(failure)
        _, failure = levels("cube-overflow")
        assert "non-finite" in str(failure)
        # f > 0 never goes below the floor: a step accepted above level 0
        # had its first levels non-finite.
        overflowing, failure = levels("non-finite-levels-in-a-ladder")
        assert "non-finite" in str(failure) and max(overflowing) > 0

    def test_reaction_is_evaluated_once_per_state(self, monkeypatch):
        system, initial = skew_augmented()
        evaluations = []

        def counting(u, t):
            evaluations.append(t)
            return system.evaluator(u, t)

        counted = dataclasses.replace(system, evaluator=counting)
        cfg = SolverConfig(dt=0.1, t_end=2.4)
        calls = []
        real = rdcheck.solver.imex_step

        def recording(u, f, grid, sys, dts):
            calls.append(dts)
            return real(u, f, grid, sys, dts)

        monkeypatch.setattr(rdcheck.solver, "imex_step", recording)
        events = []
        run_simulation(counted, *initial, cfg, hooks=[events.append])
        # 192 steps at rung 3: four one-level ladders for the first step,
        # then one ladder per step, all from the reaction of u0 and of the
        # 192 accepted states, each evaluated once for its event.
        assert len(events) == 193
        assert len(calls) == 195
        assert evaluations == [e.t_new for e in events]
        evaluations.clear()
        sequential_steps(counted, *initial, cfg)
        # Four trials per step but in the last 0.1, whose eight steps of
        # 0.0125 start at the largest rung that fits in what is left: 0.1,
        # then 0.05 four times, 0.025 twice and 0.0125, so 4 + 3 * 4 + 2 * 2
        # + 1 trials.
        assert len(evaluations) == 184 * 4 + 21

    def test_last_unit_of_time_walks_the_rungs_of_dt(self, monkeypatch):
        # With dt = 1 the augmented skew run halves to 1/32 and 1/64 for
        # most of its steps.  In the last unit of time each step starts at
        # the largest rung that fits in what is left, so every size is a
        # rung of dt, and a solve at each accepted dt, as the tracker's,
        # builds each size once.
        aug, (grid, u0) = skew_augmented(16)
        cfg = SolverConfig(dt=1.0, t_end=3.0)
        ladders, accepted = [], []
        real = rdcheck.solver.imex_step

        def recording(u, f, grid, sys, dts):
            ladders.append(tuple(dts))
            return real(u, f, grid, sys, dts)

        def tracker(event):
            if event.index:
                accepted.append(event.dt)
                implicit_heat_step(event.u_new[:2], grid, 2e-3, event.dt)

        monkeypatch.setattr(rdcheck.solver, "imex_step", recording)
        single, stacks = rdcheck.solver._inverse, rdcheck.solver._inverse_stacks
        single.cache_clear()
        stacks.cache_clear()
        run_simulation(aug, grid, u0, cfg, hooks=[tracker])
        assert len(accepted) == 191 and set(accepted) == {2.0**-5, 2.0**-6}
        assert all(math.frexp(dt)[0] == 0.5 for dts in ladders for dt in dts)
        assert single.cache_info().misses == len(set(accepted))
        # 15 distinct ladders, and one built twice: the first step's
        # one-level ladder at 1/64, which has left the three-stack cache
        # when the last step solves it.
        assert len(set(ladders)) == 15
        assert stacks.cache_info().misses == 16


class TestClampLedger:
    """Each event carries the mass the clamp added, so the mass ledger
    M_new = M_old + dt F_old + C closes on runs that clamp."""

    def test_each_event_carries_the_mass_its_clamp_added(self):
        system, (grid, u0), cfg = LADDER_CASES["level-rises"]()
        events, trials = [], []
        run_simulation(system, grid, u0, cfg, hooks=[events.append])
        _, failure = sequential_steps(system, grid, u0, cfg, trials)
        assert failure is None and len(trials) == len(events) - 1
        assert events[0].clamped.tolist() == [0.0]
        for event, trial in zip(events[1:], trials):
            expected = rdcheck.solver.row_norms(np.maximum(-trial, 0.0), grid.h)[1]
            np.testing.assert_array_equal(event.clamped, expected)
        # Steps that clamp, each adding at most the floor's 0.05 per cell.
        added = [float(e.clamped[0]) for e in events]
        assert sum(c > 0.0 for c in added) >= 3 and max(added) <= 0.05

    def test_mass_identity_needs_the_clamped_mass(self):
        system, (grid, u0), cfg = LADDER_CASES["level-rises"]()
        raw = {
            "model": {
                "custom": {"n_species": 1, "terms": [[{"coef": -1.0, "powers": [0]}]],
                           "k0": 0.0, "k1": 0.0, "k": 1.0, "eps": 0.0},
                "diffusion": [1.0],
            },
            "grid": {"n_cells": grid.n_cells, "length": grid.length},
            "initial": [{"type": "constant", "value": 1.0}],
            "solver": {"dt": cfg.dt, "t_end": cfg.t_end,
                       "positivity_floor": cfg.positivity_floor},
        }
        report = run_experiment(validate_config(raw)).report
        identity = {c["name"]: c for c in report["checks"]}["mass_identity"]
        assert identity["passed"] is True
        events = []
        run_simulation(system, grid, u0, cfg, hooks=[events.append])

        def fed(events):
            tracker = InvariantTracker(system, grid)
            for event in events:
                tracker.update(event, None)
            return {c.name: c for c in tracker.checks()}["mass_identity"]

        assert fed(events).measured == identity["measured"]
        # The same steps with the clamped mass left out miss the balance.
        unclamped = fed([dataclasses.replace(e, clamped=np.zeros(1)) for e in events])
        assert not unclamped.passed
        assert unclamped.measured > 1e-3


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
            heat_only(), *state, SolverConfig(dt=0.25, t_end=0.5), hooks=[first, second]
        )
        assert calls == ["a", "b", "a", "b", "a", "b"]
        assert [e.index for e in events] == [0, 1, 2]
        assert events[1].t_old == 0.0
        assert events[1].t_new == 0.25
        assert events[2].t_old == events[1].t_new
        assert events[2].t_new == 0.5

    def test_event_shares_read_only_arrays_and_field_norms(self, quad_system):
        # The step's norms are computed once, row-wise, bitwise equal to each
        # row's left-to-right cell sum and max; the run returns the last
        # step's array.
        grid = Grid1D(40, 1.0)
        events = []
        final = run_simulation(
            quad_system, grid, quad_bump_state(grid),
            SolverConfig(dt=5e-3, t_end=0.05, record_every=3), hooks=[events.append],
        )
        recorded = [e for e in events if e.recorded]
        assert [e.index for e in recorded] == [0, 3, 6, 9, 10]
        for event in events:
            assert not event.u_new.flags.writeable
            assert list(event.masses) == [
                float(np.add.accumulate(row)[-1] * grid.h) for row in event.u_new
            ]
            assert list(event.sup_norms) == [float(np.max(row)) for row in event.u_new]
        assert final is events[-1].u_new
        assert not final.flags.writeable

    def test_hooks_see_every_accepted_step_regardless_of_recording(self):
        state = constant_state(Grid1D(8, 1.0), 1.0)
        count = []
        traj = collected_run(
            heat_only(),
            *state,
            SolverConfig(dt=0.1, t_end=1.0, record_every=4),
            hooks=[lambda e: count.append(e.index)],
        )
        assert count == list(range(11))
        assert len(traj.entries) == 4  # t = 0, steps 4 and 8, final


    def test_u0_is_the_first_event(self, quad_system, monkeypatch):
        # u0 reaches the hooks before any solve, as index 0 with dt = 0, its
        # reaction and norms bitwise those of u0, and recorded whatever the
        # cadence; the indices then run on without a gap.
        grid = Grid1D(40, 1.0)
        u0 = quad_bump_state(grid)
        trace, events = [], []
        real = rdcheck.solver.imex_step

        def recording(u, f, grid, sys, dts):
            trace.append("solve")
            return real(u, f, grid, sys, dts)

        def hook(event):
            trace.append(event.index)
            events.append(event)

        monkeypatch.setattr(rdcheck.solver, "imex_step", recording)
        run_simulation(
            quad_system, grid, u0, SolverConfig(dt=5e-3, t_end=0.05, record_every=3),
            hooks=[hook],
        )
        assert trace[:2] == [0, "solve"]
        assert [e.index for e in events] == list(range(11))
        first = events[0]
        assert first.t_old == first.t_new == first.dt == 0.0
        assert first.recorded
        assert not first.u_new.flags.writeable and not first.f.flags.writeable
        assert first.u_new.tobytes() == u0.tobytes()
        assert first.f.tobytes() == quad_system.evaluator(u0, 0.0).tobytes()
        sup_norms, masses = rdcheck.solver.row_norms(u0, grid.h)
        assert first.sup_norms.tobytes() == sup_norms.tobytes()
        assert first.masses.tobytes() == masses.tobytes()
        assert first.clamped.tolist() == [0.0] * 4


class TestDeterminism:
    def test_identical_runs_are_bitwise_equal(self, quad_system):
        grid = Grid1D(48, 1.0)
        cfg = SolverConfig(dt=5e-3, t_end=0.2)
        a = run_simulation(quad_system, grid, quad_bump_state(grid), cfg)
        b = run_simulation(quad_system, grid, quad_bump_state(grid), cfg)
        np.testing.assert_array_equal(a, b)


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
            state = grid, np.stack([1.5 + mode])
            got = run_simulation(
                heat_only(), *state, SolverConfig(dt=dt, t_end=t_end)
            )[0]
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
            state = grid, np.stack([1.5 + mode])
            got = run_simulation(
                heat_only(), *state, SolverConfig(dt=t_end / steps, t_end=t_end)
            )[0]
            exact = 1.5 + math.exp(-math.pi**2 * t_end) * mode
            errors.append(np.max(np.abs(got - exact)))
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.7)
        assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.7)
