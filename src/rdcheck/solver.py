"""Semi-implicit time integration for the reaction-diffusion system.

One step advances every species by

    (I - dt d_i L) u_i^{new} = u_i^old + dt f_i(u^old),

i.e. diffusion implicit (unconditionally stable for the Neumann stencil),
reaction explicit at the old state.  Evaluating f at the old state is a
structural choice, not a convenience: combined with the exact discrete
conservation of L it makes linear mass identities hold step by step (for
the equal-decay skew Lotka-Volterra family, total mass is multiplied by
exactly 1 - tau dt per accepted step, up to solve rounding).

With s = dt d_i / h^2, the matrix I - s h^2 L of the flux-form Neumann
stencil is symmetric, tridiagonal and diagonally dominant with a positive
diagonal and negative neighbours, so its inverse is positive and its rows
and columns sum to one.  The rows of the (rows, cells) right-hand side are
solved on one of two paths, chosen on the number of cells n alone, so a
row's path never depends on what it is stacked with.

Grids of at most DENSE_MAX_CELLS cells multiply the whole stack by the
inverses in one matrix product.  They are built by Thomas elimination of
the identity columns, written so that every update adds positive terms
(`_build_inverses`); each entry then carries a small relative error down to
the smallest normal float, and the product adds positive multiples of a
nonnegative right-hand side.  So every cell is accurate relative to
itself, not only to the row's sup, and no correction follows.  That is
where the dynamics live: the cyclic skew Lotka-Volterra runs drive species
to 1e-23 and below in part of the domain and let them re-invade from
there.  Every output is a weighted mean of the row, so a row stays finite
up to just below max-float.

The inverses are cached, so a run's repeated step sizes cost no setup:
the last three stacks with one s per row (a ladder is one stack per depth
and start level) and, apart from them, the last two single-s matrices (the
tracker's step).  On eight augmented skew runs of 32 to 64 cells, with
dt from 0.1 to 1, initial amplitudes from 5 to 200 and diagnostics on
and off, these sizes build each distinct key once and no more: 12 builds
for 959 solves on skew-stiff-aug, 18 for 1914 with diagnostics on, 51 for
2069 with dt = 0.3 and diagnostics on, where one shared two-entry cache
built 113 times.  The most builds per solve, 152 for 1560, came from a run
with dt = 1 whose last 73 steps were each clipped to the time left and
then halved, each to a new size; its solves took about as long in total
as on the DCT-II path.

Larger grids use the DCT-II, which diagonalizes the stencil exactly (modes
cos(k pi x_j / L), eigenvalues -(4/h^2) sin^2(k pi / 2n)).  Makhoul's
algorithm gets the DCT-II of each row from one n-point rfft of the
reordered row; the coefficients are divided by 1 + s 4 sin^2(k pi / 2n),
and one n-point irfft brings the rows back.  The reordering and twiddles
are cached per n and the symbols per (n, s rows).  A transform solve is
accurate only normwise: every cell of a row carries an error of about
eps * sup|row|, which swamps values far below the row's sup.  One
residual-correction sweep restores accuracy in those tails: the residual
r = rhs - (I - dt d L) x is formed with the exact stencil, cell by cell, so
it is as small as the first solve's error, and x + solve(r) carries only
eps times that error again (iterative refinement; R. Skeel, Math. Comp. 35,
1980).  The sweep is exactly one, with no switch and no tolerance.  Rows
stay finite up to about max-float / n.

The crossover is measured.  Microseconds per call with a warm cache, one
BLAS thread, on a 2-vCPU x86-64 guest (median of three runs), cached
product against DCT-II plus sweep, for ladder-like stacks of four species
per level:

    cells    4 rows      16 rows      32 rows      84 rows
       32    10 vs 106     7 vs  73    17 vs  87    25 vs 148
       64    11 vs  76    15 vs  88    31 vs 158   141 vs 292
       96    15 vs  72    23 vs 115   101 vs 145   301 vs 352
      128    19 vs 108    74 vs 173   199 vs 207   536 vs 439
      192    31 vs 127   214 vs 188   416 vs 295  1167 vs 663
      256    98 vs 130   415 vs 246   757 vs 337  2155 vs 844

A stack holds rows * n^2 * 8 bytes (0.5 MB at 16 rows of 64 cells), which
the product reads once, so its cost grows as rows * n^2 against the
transform's rows * n log n.  The crossover is chosen on n alone, so it
must hold at any row count: at 64 cells the product is still faster at 256
rows (about 470 against 690), while at 128 cells the transform is faster
from about 32 rows, which a ladder of the default 21 levels reaches on two
species.  A stack of 64 cells takes about 1 ms (16 rows) to 3.3 ms (84
rows) to build.

Positivity is enforced by reject-and-halve: if a trial step takes any value
below the floor, or any non-finite value, the step is retried with dt/2
(the halved dt applies to that step only); values in [floor, 0) after an
accepted trial are clamped to exact zero.  The halvings are solved as a
ladder: the reaction is taken at the old state, so f does not depend on
dt, and one `imex_step` call evaluates it once and solves the levels dt,
dt/2, ..., dt/2^(k-1) as one (k * species, cells) stack, with dt = 1, row
diffusion dt_l d_i and source dt_l f.  These are the products a single
trial forms, and every row of the solve is solved on its own, so each
level is bitwise the trial the sequential halvings would solve, and the
accepted step is the first level that is finite and above the floor.  The
ladder depth is the previous step's accepted level + 1, so a run that
halves the same number of times each step solves one ladder per step; a
step that needs no halving is a ladder of one level.  Hooks observe
accepted steps only, in registration order.

The run loop works on one float64 (species, cells) array from start to
end, starting from a checked, read-only copy of the u0 it is given.  No
state outlives the step that replaced it: the run returns the final array,
and a hook that wants more keeps what it needs.  Each accepted step's sup
norms and masses are computed once, row-wise, and handed to the hooks in
the StepEvent.  The recording cadence (every record_every-th accepted
step, and the last one) is decided here only and handed to the hooks as
StepEvent.recorded.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalFailure
from .grid import Grid1D, laplacian_values
from .models import ReactionSystem

__all__ = [
    "SolverConfig",
    "StepEvent",
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
        positivity_floor: reject threshold, <= 0; values in [floor, 0) of
            an accepted step are clamped to exact zeros.
        max_step_halvings: retry budget per step.
        record_every: recording cadence in accepted steps (>= 1); the
            final step is always recorded.
    """

    dt: float
    t_end: float
    positivity_floor: float = -1e-12
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


@dataclass(frozen=True)
class StepEvent:
    """What a hook sees after each accepted step.

    u_old and u_new are read-only (species, cells) arrays; u_new is already
    clamped, and sup_norms and masses are its per-species sup|u_i| and
    h * sum_j u_ij.  recorded says whether the step is a recorded one
    (every record_every-th accepted step, and the last).
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


@functools.lru_cache(maxsize=8)
def _twiddles(n: int) -> tuple:
    """Makhoul's reordering of n cells and its twiddles, read-only.

    Returns (order, unorder, w, conj(w)): order lists the even cells up and
    then the odd cells down, [0, 2, 4, ..., 5, 3, 1]; unorder is its
    inverse permutation; w_k = exp(-i k pi / 2n) for k = 0..n//2.
    """
    order = np.concatenate((np.arange(0, n, 2), np.arange(1, n, 2)[::-1]))
    w = np.exp(np.arange(n // 2 + 1) * (-1j * np.pi / (2 * n)))
    arrays = (order, np.argsort(order), w, w.conj())
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _half_spectrum(values: np.ndarray) -> np.ndarray:
    """The DCT-II of each row from one n-point rfft (J. Makhoul, IEEE Trans.
    ASSP 28(1), 1980), frequencies k = 0..n//2.

    Entry k is (C_k - i C_{n-k}) / 2, with C the type-2 transform
    C_k = 2 sum_j f_j cos(k pi (2j + 1) / 2n) and C_n = 0: w_k times the
    rfft of the reordered row.  Every value passes through sums of n terms
    only, so rows up to about max-float/n transform without overflow.
    """
    order, _, w, _ = _twiddles(values.shape[-1])
    spectrum = np.fft.rfft(np.take(values, order, axis=-1))
    spectrum *= w
    return spectrum


@functools.lru_cache(maxsize=16)
def _symbols(n: int, shape: tuple, s: bytes) -> np.ndarray:
    """The DCT symbols 1 + s 4 sin^2(k pi / 2n) in the layout of
    `_half_spectrum` viewed as float pairs: k = 0..n//2, each followed by
    the symbol at n - k, one row per s.  Read-only.

    s is the bytes of a float64 array of the given shape: one dt d / h^2,
    shape (), or one per row, shape (rows, 1).  A run solves with a few
    distinct s rows (the levels of its ladders, the tracker's step), so a
    small bound keeps the ones it reuses.
    """
    k = np.arange(n // 2 + 1)
    pairs = np.stack((k, n - k), axis=-1).reshape(-1)
    # 4 sin^2(k pi / 2n): the stencil's eigenvalues times -h^2.
    decay = 4.0 * np.sin(pairs * (np.pi / (2 * n))) ** 2
    symbols = 1.0 + np.frombuffer(s).reshape(shape) * decay
    symbols.flags.writeable = False
    return symbols


def _transform_solve(rhs: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Solve (I - s h^2 L) x = rhs row-wise, given `_symbols` for s.

    Divides (C_k, C_{n-k}) by their symbols, which is dividing the real and
    the imaginary part of `_half_spectrum`'s entry k, and inverts Makhoul's
    transform: conj(w_k) times that, one n-point irfft, and the cells back
    in their order.
    """
    n = rhs.shape[-1]
    _, unorder, _, w_conj = _twiddles(n)
    spectrum = _half_spectrum(rhs)
    pairs = spectrum.view(np.float64)
    pairs /= symbols
    spectrum *= w_conj
    return np.take(np.fft.irfft(spectrum, n=n), unorder, axis=-1)


# Grids of at most this many cells solve with the cached inverse; the
# module docstring has the measurements behind the number.
DENSE_MAX_CELLS = 64


def _build_inverses(n: int, shape: tuple, s: bytes) -> np.ndarray:
    """The inverse of I - s h^2 L on n cells: (n, n) for s of shape (), or
    (rows, n, n) for one s per row, shape (rows, 1).  Read-only.

    Thomas elimination of the identity columns, in place in the returned
    array and written so that every update adds positive terms.  With
    e_0 = 1, the pivots are p_j = s + e_j, e_j = 1 + c_{j-1} e_{j-1} and
    c_j = s / p_j < 1, except the last, p_{n-1} = e_{n-1}; the forward
    sweep adds c_{j-1} times row j - 1 to row j, and the back sweep divides
    row j by p_j and adds c_j times row j + 1.  The textbook pivot
    (1 + 2s) - s^2 / p_{j-1} cancels to zero at large s; here every entry
    keeps a small relative error down to the smallest normal float.  The
    entries decay like s^|j - k| away from the diagonal, and the ones below
    it are set to zero: subnormal operands make the product several times
    slower, and they carry no relative accuracy.
    """
    # One s per matrix, as a column: (1,) or (rows, 1).
    s = np.frombuffer(s).reshape(shape[:1] + (1,))
    c, p = [], []
    e = 1.0
    for j in range(n - 1):
        p.append(s + e)
        c.append(s / p[j])
        e = 1.0 + c[j] * e
    p.append(e)
    inverse = np.zeros(shape[:1] + (n, n))
    cells = np.arange(n)
    inverse[..., cells, cells] = 1.0
    # Row j of the unit lower factor's inverse is zero left of the diagonal
    # before its update, so the update is a product.
    for j in range(1, n):
        np.multiply(inverse[..., j - 1, :j], c[j - 1], out=inverse[..., j, :j])
    inverse /= np.concatenate(p, axis=-1)[..., None]
    for j in range(n - 2, -1, -1):
        inverse[..., j, :] += c[j] * inverse[..., j + 1, :]
    inverse[inverse < np.finfo(np.float64).tiny] = 0.0
    inverse.flags.writeable = False
    return inverse


_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


class _InverseCache:
    """The last `maxsize` results of `_build_inverses`, least recently used
    dropped first.  Unlike functools.lru_cache, the oldest entry is dropped
    before a new one is built, so a build never holds more than maxsize
    entries."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries: dict = {}
        self.hits = self.misses = 0

    def __call__(self, n: int, shape: tuple, s: bytes) -> np.ndarray:
        key = (n, shape, s)
        inverse = self._entries.pop(key, None)
        if inverse is None:
            self.misses += 1
            if len(self._entries) == self.maxsize:
                del self._entries[next(iter(self._entries))]
            inverse = _build_inverses(n, shape, s)
        else:
            self.hits += 1
        self._entries[key] = inverse
        return inverse

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, self.maxsize, len(self._entries))

    def cache_clear(self) -> None:
        self._entries.clear()
        self.hits = self.misses = 0


# A run solves with a few distinct s rows: one stack per ladder depth and
# start level, and, with diagnostics on, the tracker's single s.  The two
# kinds are cached apart, so the tracker's matrix never evicts a ladder's
# stack; the module docstring has the measured traffic behind the sizes.
# Merging them does not pay: on the eight augmented skew runs (in-process,
# one BLAS thread) one shared 5-entry cache builds exactly as often as
# these 3 + 2, but it keeps two more ladder stacks alive, and peak RSS on
# skew-stiff-aug rose from 38.1-38.4 MB to 39.0-39.2 MB (seeds 1-4).  A
# shared 4-entry cache rebuilds: 20 builds against 18 with diagnostics on,
# and 113 against 51 at dt = 0.3 with diagnostics on.
_inverse_stacks = _InverseCache(3)
_inverse = _InverseCache(2)


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
        The new values, same shape as values, in a new array: on grids of
        at most DENSE_MAX_CELLS cells the product with the cached inverse,
        accurate cell by cell; on larger grids one DCT-II solve followed by
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
    s = r / (grid.h * grid.h)
    if grid.n_cells <= DENSE_MAX_CELLS:
        cache = _inverse_stacks if s.ndim else _inverse
        inverse = cache(grid.n_cells, s.shape, s.tobytes())
        return np.matmul(inverse, rhs[..., None])[..., 0]
    symbols = _symbols(grid.n_cells, s.shape, s.tobytes())
    x = _transform_solve(rhs, symbols)
    residual = rhs - (x - r * laplacian_values(x, grid.h))
    correction = _transform_solve(residual, symbols)
    correction += x
    return correction


def imex_step(
    u: np.ndarray, t: float, grid: Grid1D, sys: ReactionSystem,
    dts: Sequence[float],
) -> np.ndarray:
    """The raw IMEX steps of the (species, cells) array u from time t, one
    per step size in dts.

    No positivity handling (see run_simulation).  The reaction is evaluated
    once, and all step sizes and all species go through one
    `implicit_heat_step` call, each row with its own diffusion coefficient;
    level l of the result is bitwise the step with dts[l] alone.  A level
    whose reaction or solve overflowed comes back non-finite, without a
    warning.

    Returns:
        The (len(dts), species, cells) stack of the new arrays at t + dts[l].

    Raises:
        ValueError: if u's species count does not match the system, or a
            step size is <= 0.
    """
    if u.shape[0] != sys.n_species:
        raise ValueError(
            f"state has {u.shape[0]} species, system expects {sys.n_species}"
        )
    steps = np.asarray(dts, dtype=np.float64)[:, None]
    if steps.min() <= 0.0:
        raise ValueError(f"dt must be > 0, got {dts}")
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.asarray(sys.evaluator(u, t), dtype=np.float64)
        rows = implicit_heat_step(
            (u + steps[..., None] * f).reshape(-1, u.shape[1]), grid,
            (steps * sys.diffusion).reshape(-1), 1.0,
        )
    return rows.reshape(len(steps), *u.shape)


def _exhausted(trial: np.ndarray, t: float, dt: float, halvings: int):
    """The NumericalFailure of a step whose last trial, at dt, was rejected
    with the halving budget spent: its first non-finite value, or else its
    minimum."""
    finite = np.isfinite(trial)
    if finite.all():
        mins = trial.min(axis=1)
        species = int(np.argmin(mins))
        value = float(mins[species])
        what = (
            f"positivity could not be restored at t = {t} "
            f"(species {species + 1} reached {mins[species]})"
        )
    else:
        species = int(np.argmin(np.all(finite, axis=1)))
        value = float(trial[species][~finite[species]][0])
        what = (
            f"species {species + 1} became non-finite ({value}) at "
            f"t = {t} with dt = {dt}"
        )
    return NumericalFailure(
        f"{what} after {halvings} halvings",
        time=t,
        species=species + 1,
        value=value,
    )


def row_norms(u: np.ndarray, h: float) -> tuple:
    """Per-species sup|u_i| and mass h * sum_j u_ij, summed left to right.

    The masses are the cell-sum quadrature of each row, with a fixed
    summation order, so they are bit-reproducible.  A mass that overflows
    is inf, without a warning; the mass checks fail on it.
    """
    with np.errstate(over="ignore"):
        return np.max(np.abs(u), axis=1), np.add.accumulate(u, axis=1)[:, -1] * h


def run_simulation(
    sys: ReactionSystem,
    grid: Grid1D,
    u0: np.ndarray,
    cfg: SolverConfig,
    hooks: Sequence[Callable[[StepEvent], None]] = (),
) -> np.ndarray:
    """Integrate the (species, cells) array u0 on grid from t = 0 to t_end.

    The run starts from a read-only copy of u0.  Each step starts from
    cfg.dt (clipped to land exactly on t_end).  A trial step whose minimum
    falls below the positivity floor, or that takes a non-finite value, is
    rejected and retried with half the step, up to max_step_halvings
    times; values in [floor, 0) on an accepted trial are clamped to exact
    zero.  The halvings are solved in ladders of
    the previous step's accepted level + 1 levels, one `imex_step` call
    each, and never beyond the budget's last level.  Hooks run after every
    accepted step, in registration order, and see the old and the clamped
    new array.

    Returns:
        The read-only (species, cells) array at t_end.  Only the current
        state is kept while the run goes on; hooks see every accepted step.

    Raises:
        ValueError: if u0 does not have shape (sys.n_species, grid.n_cells),
            or has a value that is not finite or is negative.
        NumericalFailure: when the halving budget is exhausted; the payload
            carries (time, species, value) of the last rejected trial: its
            minimum, or its first non-finite value.
    """
    u = np.array(u0, dtype=np.float64)
    if u.shape != (sys.n_species, grid.n_cells):
        raise ValueError(
            f"initial data has shape {u.shape}, expected (species, cells) = "
            f"({sys.n_species}, {grid.n_cells})"
        )
    if not np.all(np.isfinite(u)):
        raise ValueError("initial data must be finite")
    for i, low in enumerate(u.min(axis=1)):
        if low < 0.0:
            raise ValueError(
                f"initial data for species {i + 1} is negative: {float(low)}"
            )
    u.flags.writeable = False
    t = 0.0
    tiny = 1e-12 * cfg.t_end
    step_index = 0
    depth = 1
    while t < cfg.t_end - tiny:
        dt_step = min(cfg.dt, cfg.t_end - t)
        level = 0
        while True:
            # Levels level .. level + depth - 1 from one imex_step call.
            depth = min(depth, cfg.max_step_halvings + 1 - level)
            dts = [dt_step]
            while len(dts) < depth:
                dts.append(dts[-1] * 0.5)
            trials = imex_step(u, t, grid, sys, dts)
            # A NaN or an infinite value fails one of the two comparisons.
            passed = (trials.min(axis=(1, 2)) >= cfg.positivity_floor) & (
                trials.max(axis=(1, 2)) < np.inf
            )
            if passed.any():
                first = int(np.argmax(passed))
                # The accepted level, clamped, in its own array: the stack
                # is freed.
                u_new, dt_step = np.maximum(trials[first], 0.0), dts[first]
                level += first
                break
            level += depth
            if level > cfg.max_step_halvings:
                raise _exhausted(trials[-1], t, dts[-1], cfg.max_step_halvings)
            dt_step = dts[-1] * 0.5
        depth = level + 1
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
        t, u = t_new, u_new
    return u
