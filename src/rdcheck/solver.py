"""Semi-implicit time integration for the reaction-diffusion system.

One step advances every species by

    (I - dt d_i L) u_i^{new} = u_i^old + dt f_i(u^old),

i.e. diffusion implicit (unconditionally stable for the Neumann stencil),
reaction explicit at the old state.  Evaluating f at the old state is a
structural choice, not a convenience: combined with the exact discrete
conservation of L it makes linear mass identities hold step by step (for
the equal-decay skew Lotka-Volterra family, total mass is multiplied by
exactly 1 - tau dt per accepted step, up to solve rounding).

The flux-form Neumann stencil is diagonalized exactly by the DCT-II (modes
cos(k pi x_j / L), eigenvalues -(4/h^2) sin^2(k pi / 2n)), so all species
are solved together: one rfft of the even extension of the (rows, cells)
right-hand side, a divide by 1 + dt d_i (4/h^2) sin^2(k pi / 2n) per row,
and one irfft.  A transform solve is accurate only normwise: every cell of
a row carries an error of about eps * sup|row|, which swamps values far
below the row's sup, and the cyclic skew Lotka-Volterra runs drive species
to 1e-23 and below in part of the domain and let them re-invade from there.  One
residual-correction sweep restores accuracy in those tails: the residual
r = rhs - (I - dt d L) x is formed with the exact stencil, cell by cell, so
it is as small as the first solve's error, and x + solve(r) carries only
eps times that error again (iterative refinement; R. Skeel, Math. Comp. 35,
1980).  The sweep is exactly one, with no switch and no tolerance.

Positivity is enforced by reject-and-halve: if a trial step takes any value
below the floor, or any non-finite value, the step is retried with dt/2
(the halved dt applies to that step only); values in [floor, 0) after an
accepted trial are clamped to exact zero.  Hooks observe accepted steps
only, in registration order.

The run loop works on one float64 (species, cells) array from start to
end; `SystemState` is only the input type.  Each accepted step's sup norms
and masses are computed once, row-wise, and shared by the hooks' StepEvent
and the recorded TrajectoryEntry.  The recording cadence (every
record_every-th accepted step, and the last one) is decided here only and
handed to the hooks as StepEvent.recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalFailure
from .grid import Field, Grid1D, laplacian_values
from .models import NEGATIVE_CLAMP_FLOOR, ReactionSystem

__all__ = [
    "SolverConfig",
    "SystemState",
    "StepEvent",
    "TrajectoryEntry",
    "Trajectory",
    "implicit_heat_step",
    "imex_step",
    "run_simulation",
]


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters.

    Attributes:
        dt: step size each step starts from (> 0, <= t_end).
        t_end: final time (> 0); the last step is clipped to land exactly.
        positivity_floor: reject threshold, <= 0.
        max_step_halvings: retry budget per step.
        record_every: snapshot cadence in accepted steps (>= 1); the final
            state is always recorded.
    """

    dt: float
    t_end: float
    positivity_floor: float = NEGATIVE_CLAMP_FLOOR
    max_step_halvings: int = 20
    record_every: int = 1

    def __post_init__(self):
        if not np.isfinite(self.dt) or self.dt <= 0.0:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not np.isfinite(self.t_end) or self.t_end <= 0.0:
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end}")
        if self.dt > self.t_end:
            raise ValueError(f"dt = {self.dt} exceeds t_end = {self.t_end}")
        if self.positivity_floor > 0.0:
            raise ValueError(
                f"positivity_floor must be <= 0, got {self.positivity_floor}"
            )
        if self.max_step_halvings < 0:
            raise ValueError(
                f"max_step_halvings must be >= 0, got {self.max_step_halvings}"
            )
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


class SystemState:
    """All species at one instant, on a shared grid."""

    __slots__ = ("t", "fields", "grid")

    def __init__(self, t: float, fields: Sequence[Field]):
        fields = tuple(fields)
        if not fields:
            raise ValueError("a state needs at least one species field")
        grid = fields[0].grid
        for f in fields[1:]:
            if f.grid != grid:
                raise ValueError("all species fields must share one grid")
        self.t = float(t)
        self.fields = fields
        self.grid = grid

    @property
    def n_species(self) -> int:
        return len(self.fields)

    def stacked(self) -> np.ndarray:
        """Species-by-cell value matrix, shape (N, n_cells)."""
        return np.stack([f.values for f in self.fields])


@dataclass(frozen=True)
class StepEvent:
    """What a hook sees after each accepted step.

    u_old and u_new are read-only (species, cells) arrays; u_new is already
    clamped, and sup_norms and masses are its per-species sup|u_i| and
    h * sum_j u_ij.  recorded says whether the step enters the trajectory.
    """

    index: int
    t_old: float
    t_new: float
    dt: float
    u_old: np.ndarray
    u_new: np.ndarray
    sup_norms: np.ndarray
    masses: np.ndarray
    recorded: bool


@dataclass(frozen=True)
class TrajectoryEntry:
    """One recorded state: its read-only (species, cells) array and row norms."""

    t: float
    u: np.ndarray
    sup_norms: np.ndarray
    masses: np.ndarray


@dataclass
class Trajectory:
    """Recorded snapshots, strictly increasing in time, first at t = 0."""

    entries: list = dc_field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([e.t for e in self.entries])

    def final(self) -> TrajectoryEntry:
        return self.entries[-1]


def _even_spectrum(values: np.ndarray) -> np.ndarray:
    """rfft of the even extension of each row, frequencies k = 0..n.

    Entry k is exp(i k pi / 2n) times the DCT-II of the row (the type-2
    transform 2 sum_j f_j cos(k pi (2j + 1) / 2n)); entry n is zero up to
    rounding.  The even extension turns the Neumann stencil into a periodic
    one on 2n points, whose eigenvalues are the DCT-II ones.
    """
    return np.fft.rfft(np.concatenate((values, values[..., ::-1]), axis=-1))


def _spectral_solve(rhs: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Solve (I - s h^2 L) x = rhs row-wise, given symbol = 1 + s 4 sin^2(k pi / 2n)."""
    n = rhs.shape[-1]
    return np.fft.irfft(_even_spectrum(rhs) / symbol, n=2 * n)[..., :n]


def implicit_heat_step(
    values: np.ndarray, grid: Grid1D, diffusion: float | np.ndarray, dt: float,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """One backward-Euler step of u_t - diffusion * L u = source.

    The source is taken at the old time (explicit), matching the reaction
    treatment in imex_step.  Every row is solved on its own, so a row of a
    stacked call is bitwise the same as that row solved alone.

    Args:
        values: one row (cells,) or a stack (rows, cells).
        grid: the grid the rows live on.
        diffusion: one coefficient for every row, or one per row.
        dt: step size.
        source: None, or an array broadcasting against values.

    Returns:
        The new values, same shape as values: one DCT-II solve followed by
        one residual-correction sweep with the exact stencil.

    Raises:
        ValueError: if per-row diffusion does not match the number of rows.
    """
    u = np.asarray(values, dtype=np.float64)
    rhs = u if source is None else u + dt * np.asarray(source, dtype=np.float64)
    r = dt * np.asarray(diffusion, dtype=np.float64)
    if r.ndim:
        if u.ndim != 2 or r.shape != u.shape[:1]:
            raise ValueError(
                f"per-row diffusion of shape {r.shape} does not match values "
                f"of shape {u.shape}"
            )
        r = r[:, None]
    n = grid.n_cells
    # 4 sin^2(k pi / 2n), k = 0..n: the stencil's eigenvalues times -h^2.
    decay = 4.0 * np.sin(np.arange(n + 1) * (np.pi / (2 * n))) ** 2
    symbol = 1.0 + (r / (grid.h * grid.h)) * decay
    x = _spectral_solve(rhs, symbol)
    residual = rhs - (x - r * laplacian_values(x, grid.h))
    return x + _spectral_solve(residual, symbol)


def imex_step(
    u: np.ndarray, t: float, grid: Grid1D, sys: ReactionSystem, dt: float
) -> np.ndarray:
    """One raw IMEX step of the (species, cells) array u from time t.

    No positivity handling (see run_simulation).  All species go through
    one `implicit_heat_step` call, each row with its own diffusion
    coefficient.  Overflow in the reaction or the solve raises no warning:
    it is reported as the NumericalFailure below.

    Returns:
        The new (species, cells) array at time t + dt.

    Raises:
        ValueError: if u's species count does not match the system, or
            dt <= 0.
        NumericalFailure: if the step produces a non-finite value (the
            reaction or the solve overflowed); the payload carries the
            step's start time, the first such species and its value.
    """
    if u.shape[0] != sys.n_species:
        raise ValueError(
            f"state has {u.shape[0]} species, system expects {sys.n_species}"
        )
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.asarray(sys.evaluator(u, t), dtype=np.float64)
        new = implicit_heat_step(u, grid, sys.diffusion, dt, f)
    finite = np.isfinite(new)
    if not finite.all():
        species = int(np.argmin(np.all(finite, axis=1)))
        value = float(new[species][~finite[species]][0])
        raise NumericalFailure(
            f"species {species + 1} became non-finite ({value}) at "
            f"t = {t} with dt = {dt}",
            time=t,
            species=species + 1,
            value=value,
        )
    return new


def row_norms(u: np.ndarray, h: float) -> tuple:
    """Per-species sup|u_i| and mass h * sum_j u_ij, summed left to right.

    Bitwise equal to `grid.integrate` and a max over each species Field.
    """
    return np.max(np.abs(u), axis=1), np.add.accumulate(u, axis=1)[:, -1] * h


def run_simulation(
    sys: ReactionSystem,
    initial: SystemState,
    cfg: SolverConfig,
    hooks: Sequence[Callable[[StepEvent], None]] = (),
) -> Trajectory:
    """Integrate from t = 0 to t_end with positivity enforcement.

    Each step starts from cfg.dt (clipped to land exactly on t_end).  A
    trial step whose minimum falls below the positivity floor, or that
    takes a non-finite value, is rejected and retried with half the step,
    up to max_step_halvings times; values in [floor, 0) on an accepted
    trial are clamped to exact zero.  Hooks run after every accepted step,
    in registration order, and see the old and the clamped new array.

    Returns:
        Trajectory with the t = 0 snapshot, every record_every-th accepted
        step, and the final state.

    Raises:
        ValueError: on a negative initial state or mismatched species count.
        NumericalFailure: when the halving budget is exhausted; the payload
            carries (time, species, value) of the last rejected trial: its
            minimum, or its first non-finite value.
    """
    if initial.n_species != sys.n_species:
        raise ValueError(
            f"initial state has {initial.n_species} species, "
            f"system expects {sys.n_species}"
        )
    if initial.t != 0.0:
        raise ValueError(f"initial state must be at t = 0, got t = {initial.t}")
    u = initial.stacked()
    for i, low in enumerate(u.min(axis=1)):
        if low < 0.0:
            raise ValueError(
                f"initial data for species {i + 1} is negative: {float(low)}"
            )
    u.flags.writeable = False
    grid = initial.grid
    t = 0.0
    traj = Trajectory([TrajectoryEntry(t, u, *row_norms(u, grid.h))])
    tiny = 1e-12 * max(1.0, cfg.t_end)
    step_index = 0
    while t < cfg.t_end - tiny:
        dt_step = min(cfg.dt, cfg.t_end - t)
        halvings = 0
        while True:
            try:
                trial = imex_step(u, t, grid, sys, dt_step)
            except NumericalFailure as exc:
                failure = exc
            else:
                mins = trial.min(axis=1)
                if mins.min() >= cfg.positivity_floor:
                    break
                failure = None
            halvings += 1
            if halvings > cfg.max_step_halvings:
                if failure is None:
                    species = int(np.argmin(mins))
                    failure = NumericalFailure(
                        f"positivity could not be restored at t = {t} "
                        f"(species {species + 1} reached {mins[species]})",
                        time=t,
                        species=species + 1,
                        value=float(mins[species]),
                    )
                raise NumericalFailure(
                    f"{failure} after {cfg.max_step_halvings} halvings",
                    time=failure.time,
                    species=failure.species,
                    value=failure.value,
                )
            dt_step *= 0.5
        u_new = np.maximum(trial, 0.0, out=trial)
        u_new.flags.writeable = False
        t_new = t + dt_step
        step_index += 1
        sup_norms, masses = row_norms(u_new, grid.h)
        recorded = step_index % cfg.record_every == 0 or t_new >= cfg.t_end - tiny
        event = StepEvent(
            index=step_index,
            t_old=t,
            t_new=t_new,
            dt=dt_step,
            u_old=u,
            u_new=u_new,
            sup_norms=sup_norms,
            masses=masses,
            recorded=recorded,
        )
        for hook in hooks:
            hook(event)
        if recorded:
            traj.entries.append(TrajectoryEntry(t_new, u_new, sup_norms, masses))
        t, u = t_new, u_new
    return traj
