"""Shared builders for the test suite."""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from rdcheck import (
    Grid1D,
    NumericalFailure,
    SolverConfig,
    imex_step,
    quadratic_reversible,
    StepEvent,
    run_simulation,
    skew_lv,
)
import rdcheck.solver

QUAD_DIFFUSION = [1.0, 1.5, 2.0, 2.5]


# Session scope is safe: ReactionSystem is frozen and the tests never
# mutate the shared instances.
@pytest.fixture(scope="session")
def quad_system():
    return quadratic_reversible(QUAD_DIFFUSION)


@pytest.fixture(scope="session")
def skew_system():
    return skew_lv([1.0, 2.0], interaction=[[0.0, 1.0], [-1.0, 0.0]], decay=[1.0, 1.0])


def bump(grid: Grid1D, center: float, width: float, amplitude: float) -> np.ndarray:
    x = grid.centers
    return amplitude * np.exp(-((x - center) ** 2) / (2.0 * width * width))


def quad_bump_state(grid: Grid1D) -> np.ndarray:
    """Four strictly positive bumps used by the conservation-style runs."""
    return np.stack(
        [
            bump(grid, 0.3, 0.1, 2.0),
            bump(grid, 0.7, 0.1, 2.0),
            1.0 + bump(grid, 0.5, 0.15, 1.0),
            0.5 + bump(grid, 0.2, 0.12, 1.5),
        ]
    )


class RecordedState(NamedTuple):
    t: float
    u: np.ndarray
    sup_norms: np.ndarray
    masses: np.ndarray


class StateCollector:
    """Step hook keeping the states a run does not store itself.

    Holds every recorded state, u0 first, with its row norms, for tests
    that read whole states.
    """

    def __init__(self):
        self.entries = []

    def __call__(self, event) -> None:
        if event.recorded:
            self.entries.append(
                RecordedState(event.t_new, event.u_new, event.sup_norms, event.masses)
            )

    @property
    def times(self) -> np.ndarray:
        return np.array([e.t for e in self.entries])

    def final(self) -> RecordedState:
        return self.entries[-1]


def initial_event(system, grid, u0):
    """The first StepEvent a run of system from u0 hands its hooks: u0, as
    index 0."""
    events = []
    cfg = SolverConfig(dt=1.0, t_end=1.0)
    run_simulation(system, grid, u0, cfg, hooks=[events.append])
    return events[0]


def hand_built_event(index, t, u, f, sup_norms, masses, dt=0.0, clamped=None, flux=0.0):
    """A recorded StepEvent with the given fields, as a run would hand it:
    the step of size dt that ends at t, with the clamped masses (zero by
    default) and the flux h * sum_ij f_ij (zero by default)."""
    masses = np.asarray(masses, dtype=np.float64)
    return StepEvent(
        index=index,
        t_new=t,
        dt=dt,
        u_new=np.asarray(u, dtype=np.float64),
        f=np.asarray(f, dtype=np.float64),
        sup_norms=np.asarray(sup_norms, dtype=np.float64),
        masses=masses,
        clamped=np.zeros_like(masses) if clamped is None else np.asarray(clamped),
        flux=flux,
        recorded=True,
    )


def collected_run(system, grid, u0, cfg, hooks=()) -> StateCollector:
    """run_simulation with a StateCollector as the last hook; returns it."""
    collector = StateCollector()
    run_simulation(system, grid, u0, cfg, hooks=[*hooks, collector])
    return collector


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Thomas elimination for a tridiagonal system, the reference solve.

    Forward elimination followed by back substitution, no pivoting: meant
    for the diagonally dominant heat matrices, where it is accurate cell by
    cell.  Band lengths are (n - 1, n, n - 1, n).
    """
    b = np.asarray(diag, dtype=np.float64).tolist()
    n = len(b)
    a = np.asarray(lower, dtype=np.float64).tolist()
    c = np.asarray(upper, dtype=np.float64).tolist()
    d = np.asarray(rhs, dtype=np.float64).tolist()
    cp = [0.0] * n
    dp = [0.0] * n
    if n > 1:
        cp[0] = c[0] / b[0]
    dp[0] = d[0] / b[0]
    for j in range(1, n):
        denom = b[j] - a[j - 1] * cp[j - 1]
        if j < n - 1:
            cp[j] = c[j] / denom
        dp[j] = (d[j] - a[j - 1] * dp[j - 1]) / denom
    x = [0.0] * n
    x[n - 1] = dp[n - 1]
    for j in range(n - 2, -1, -1):
        x[j] = dp[j] - cp[j] * x[j + 1]
    return np.asarray(x, dtype=np.float64)


def heat_band(grid: Grid1D, r: float):
    """Bands of I - r L for the zero-flux stencil (diagonally dominant)."""
    n = grid.n_cells
    s = r / (grid.h * grid.h)
    diag = np.full(n, 1.0 + 2.0 * s)
    diag[0] = 1.0 + s
    diag[-1] = 1.0 + s
    off = np.full(n - 1, -s)
    return off, diag, off


def thomas_heat_step(values, grid, diffusion, dt, source=None):
    """Reference for `implicit_heat_step`: one Thomas solve per row, with
    one coefficient for every row or one per row."""
    u = np.asarray(values, dtype=np.float64)
    rhs = u if source is None else u + dt * np.asarray(source, dtype=np.float64)
    rows = np.atleast_2d(rhs)
    coeffs = np.broadcast_to(np.asarray(diffusion, dtype=np.float64), rows.shape[:1])
    out = np.stack(
        [
            solve_tridiagonal(*heat_band(grid, dt * float(c)), row)
            for c, row in zip(coeffs, rows)
        ]
    )
    return out.reshape(u.shape)


def thomas_imex_step(u, f, grid, sys, dts):
    """Reference for `imex_step`: each level by `thomas_heat_step`, with
    row diffusion dt_l d_i and source dt_l f."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.stack([
            thomas_heat_step(u + dt * f, grid, dt * sys.diffusion, 1.0) for dt in dts
        ])


def sequential_steps(system, grid, u0, cfg, trials=None):
    """Reference for run_simulation's halving ladders: one trial at a time,
    each the single-step formula (I - dt d_i L) u_new = u + dt f(u, t), a
    one-level `imex_step`, with its own reaction evaluation, halving the
    step after each rejection.

    Returns (steps, failure): the accepted steps' (dt, clamped u_new) pairs
    and the NumericalFailure that ended the run, or None.  A trials list,
    if given, receives each accepted step's trial before the clamp.
    """
    # Each halving level is a one-level ladder of its own, and a step's
    # levels cycle through more ladders than the solver's cache holds; a
    # larger cache for this run keeps them built once.  The inverses do
    # not depend on the cache, so neither do the steps.
    saved = rdcheck.solver._inverse_stacks
    rdcheck.solver._inverse_stacks = rdcheck.solver._InverseCache(8)
    try:
        return _sequential_steps(system, grid, u0, cfg, trials)
    finally:
        rdcheck.solver._inverse_stacks = saved


def _sequential_steps(system, grid, u0, cfg, trials=None):
    # The clock in exact rationals.  The run ends at the multiple of the
    # coarsest rung cfg.dt / 2^k nearest t_end when it is within 1e-12
    # t_end, or else at t_end after one remainder step below the finest
    # rung.  Each step starts at the largest rung that fits in what is
    # left and halves down to the finest rung.
    dt, t_end = Fraction(cfg.dt), Fraction(cfg.t_end)
    budget = cfg.max_step_halvings
    end = t_end
    for k in range(budget + 1):
        rung = dt / 2**k
        multiple = math.floor(t_end / rung + Fraction(1, 2)) * rung
        if abs(multiple - t_end) <= Fraction(1e-12) * t_end:
            end = multiple
            break
    u = np.array(u0, dtype=np.float64)
    time = Fraction(0)
    steps = []
    while time < end:
        t = float(time)
        level = 0
        while level <= budget and dt / 2**level > end - time:
            level += 1
        halvings = max(0, budget - level)
        step = dt / 2**level if level <= budget else end - time
        while True:
            with np.errstate(over="ignore", invalid="ignore"):
                f = system.evaluator(u, t)
                trial = imex_step(u, f, grid, system, (float(step),))[0]
            finite = np.isfinite(trial)
            mins = trial.min(axis=1)
            if not finite.all():
                species = int(np.argmin(np.all(finite, axis=1)))
                value = float(trial[species][~finite[species]][0])
                failure = NumericalFailure(
                    f"species {species + 1} became non-finite ({value}) at "
                    f"t = {t} with dt = {float(step)}",
                    time=t,
                    species=species + 1,
                    value=value,
                )
            elif mins.min() >= cfg.positivity_floor:
                break
            else:
                species = int(np.argmin(mins))
                failure = NumericalFailure(
                    f"positivity could not be restored at t = {t} "
                    f"(species {species + 1} reached {mins[species]})",
                    time=t,
                    species=species + 1,
                    value=float(mins[species]),
                )
            level += 1
            if level > budget:
                return steps, NumericalFailure(
                    f"{failure} after {halvings} halvings",
                    time=failure.time,
                    species=failure.species,
                    value=failure.value,
                )
            step = dt / 2**level
        if trials is not None:
            trials.append(trial)
        u = np.maximum(trial, 0.0)
        time += step
        steps.append((float(step), u))
    return steps, None


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance checklist collected during the run, if any."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance gates")
        for line in RESULTS:
            terminalreporter.write_line(line)
