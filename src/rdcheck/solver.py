"""Semi-implicit time integration for the reaction-diffusion system.

One step advances every species by

    (I - dt d_i L) u_i^{new} = u_i^old + dt f_i(u^old),

i.e. diffusion implicit (unconditionally stable for the Neumann stencil),
reaction explicit at the old state.  Evaluating f at the old state is a
structural choice, not a convenience: combined with the exact discrete
conservation of L it makes the mass ledger hold step by step: up to solve
rounding, M_new = M_old + dt h sum_ij f_ij(u_old) + C, with C the mass
the clamp added (StepEvent.clamped).  Every mass, C's included, is a
pairwise sum (`row_norms`), so the ledger's own rounding grows like
log2(n) eps, not n eps, and stays below the solve's on wide grids.

With s = dt d_i / h^2, the matrix I - s h^2 L of the flux-form Neumann
stencil is symmetric, tridiagonal and diagonally dominant with a positive
diagonal and negative neighbours, so its inverse is positive and its rows
and columns sum to one.  Every row of the (rows, cells) right-hand side is
solved with cached inverses built by Thomas elimination of the identity
columns, written so that every update adds positive terms
(`_build_inverses`, the row-sum "slack" form): each entry carries a small
relative error down to the smallest normal float, and the solve adds
positive multiples of a nonnegative right-hand side.  So every cell is
accurate relative to itself, not only to the row's sup, no correction
follows, and a nonnegative right-hand side gives a nonnegative result on
every grid.  That is where the dynamics live: the cyclic skew
Lotka-Volterra runs drive species to 1e-23 and below in part of the domain
and let them re-invade from there.  Every output is a weighted mean of the
row, so a row stays finite up to just below max-float.

A grid of at most DENSE_MAX_CELLS cells is one block: the whole stack is
multiplied by the inverses in one matrix product.  A larger grid of n cells
is split into isqrt(n) blocks of about sqrt(n) cells, each followed by one
separator cell, the first block short by what the layout leaves over (the
block-and-separator partition of H. H. Wang, ACM TOMS 7(2), 1981).  One
solve is one batched product of all blocks with the cached block inverses,
one product of the separator right-hand side with the cached inverse of the
tridiagonal system that eliminating the blocks leaves in the separators,
and one fix-up that adds positive multiples of two block-inverse columns.
The separator system's row sums come from the blocks' row sums, so it is
built without a subtraction as well, and each separator equation is
divided by its row sum, which keeps every intermediate below the row's
own size.  One build pass makes both kinds of block inverse, the first
block's (a zero-flux end) and every other block's.

Microseconds per `imex_step` call of the four-species quad system with a
warm cache, one BLAS thread, on a 2-vCPU x86-64 guest (median of three
runs), for ladders of 1, 4 and 21 levels (4 / 16 / 84 rows), and
milliseconds for the first call, which builds the entry:

    cells       4 rows    16 rows    84 rows    first call (4 / 16 / 84 rows)
      128           25         36        152    0.5 / 0.6 / 0.8 ms
     1024           38        168        431    0.7 / 1.0 / 3.3 ms
     4096           79        325       1860    1.2 / 2.0 / 12.2 ms

The one-block limit is measured the same way, one product against blocks
forced onto the grid: 8 / 17 / 109 against 26 / 33 / 68 µs at 64 cells
(4 / 16 / 84 rows), 15 / 62 / 402 against 28 / 41 / 112 µs at 128 cells.
The product reads rows * n^2 * 8 bytes, so it loses from 128 cells on.

The factors are cached, so a run's repeated step sizes cost no setup.
The last three ladders (one per start rung and depth) are held whole:
under the key (cells, h, the system's diffusion, the dts tuple) an entry
holds the ladder's (m, 1, 1) step column and the factors of its
m * species rows.  A hit costs the key and one dict lookup, about 0.6 µs;
`imex_step` then forms the right-hand side and calls the solve kernel,
without re-deriving the steps, the rows' s = dt_l d_i / h^2 or their
bytes (17 µs for a four-level call at 64 cells, against 25 µs when each
call derived them).  Apart from the ladders, the last two single-s
matrices of `implicit_heat_step` (the tracker's step) are cached, under
the key (cells, s).  One entry
holds n^2 floats per row up to 64 cells (32 KB at 64 cells) and about 3n
floats per row above: two block inverses, the separator inverse and a few
columns, 99 KB per row at 4096 cells, so 0.4 MB for one four-species level
and 8.3 MB for 84 rows.  Every step size is
a rung of dt, so on eight augmented skew runs of 32 to 64 cells (dt 0.1
to 1, initial amplitudes 5 to 200, diagnostics on and off) these sizes
build each key once, but for a one-level ladder of the first step that a
step of the last dt solves again: 10 builds in 961 solves on
skew-stiff-aug, 17 in 2064 at dt = 0.3 with diagnostics on.  Four
ladders build as often; two build 53 times at dt = 0.3, one single-s
matrix 30.

Time is a count of ticks, the finest rung dt / 2^max_step_halvings, and t
is the count times the tick, rounded once.  Each step starts at the
largest rung dt / 2^k that fits in the time left, so the last dt is walked
as its binary expansion.  The end is the multiple of the coarsest rung
within 1e-12 t_end of t_end, and its state is at t_end; without one, whole
ticks and one remainder step, the only size off the ladder, reach t_end.

Positivity is enforced by reject-and-halve: a trial step that takes any
value below the floor, or any non-finite value, is retried at the next
rung, for that step only, down to the tick: a step from rung k has
max_step_halvings - k halvings, and the remainder step none.  Values in
[floor, 0) after an accepted trial are clamped to exact zero, and the
hooks see the mass this adds.  The reaction is taken at the old state, so
f does not depend on the step size, and one `imex_step` call solves m
rungs as one (m * species, cells) stack, with dt = 1, row diffusion
dt_l d_i and source dt_l f.  Every row is solved on its own, so each
level is bitwise the trial the sequential halvings would solve; the first
level that is finite and above the floor is accepted.  The test reads the
stack once, for every level's minimum, so a rejected level costs that
minimum alone (a NaN fails the floor); a level above the floor then has
its per-species maxima taken, which give its +inf test and, once it
passes, its sup norms.  A ladder runs from the step's start rung down to
the previous step's accepted rung, and one that fails at every level is
followed by one as deep.  The run keeps one dts tuple per (start rung,
depth), so each ladder's cache key is made of the same tuple every time.

The run loop works on one float64 (species, cells) array from start to
end, starting from a checked, read-only copy of the u0 it is given.  No
state outlives the step that replaced it: the run returns the final array,
and a hook that wants more keeps what it needs.  Every state of the run
reaches the hooks, in registration order, through one StepEvent: u0 first,
as index 0 with dt = 0, then each accepted state.  The run evaluates the
reaction once per state, for every ladder from it; a state's reaction,
its flux and masses share one errstate block.  An accepted state's sup
norms are the per-species maxima its acceptance test took.  The
recording cadence (u0, every record_every-th accepted step, and the last
one) is decided here only and handed to the hooks as StepEvent.recorded.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .grid import Grid1D
from .models import ReactionSystem

__all__ = [
    "NumericalFailure",
    "SolverConfig",
    "StepEvent",
    "implicit_heat_step",
    "imex_step",
    "run_simulation",
]


class NumericalFailure(RuntimeError):
    """Unrecoverable numerical breakdown during a run; the command line
    exits 3 on it.

    Attributes:
        time: simulation time at which the failure occurred.
        species: index of the offending species, or None.
        value: the offending value (the last rejected trial's minimum or
            its first non-finite value), or None.
    """

    def __init__(self, message, time=None, species=None, value=None):
        super().__init__(message)
        self.time = time
        self.species = species
        self.value = value


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters.

    Attributes:
        dt: the largest step size, the rung dt / 2^0 (> 0, <= t_end).
        t_end: final time (> 0), the t of the run's last state.
        positivity_floor: reject threshold, <= 0; values in [floor, 0) of
            an accepted step are clamped to exact zeros.
        max_step_halvings: m, the depth of the finest rung dt / 2^m, the
            clock's tick; a step that starts at rung k has m - k halvings.
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
    """What a hook sees for each state of the run: u0 first, as index 0
    with t_new = 0 and dt = 0, then each accepted step.

    u_new and f are read-only (species, cells) arrays; u_new is already
    clamped, and f, sup_norms and masses are its reaction at t_new,
    per-species sup|u_i| and h * sum_j u_ij; clamped, zero at u0, is the
    mass the clamp added, h * sum_j max(-trial_ij, 0), and flux the
    state's h * sum_ij f_ij.  recorded says whether the state is a
    recorded one (u0, every record_every-th accepted step, and the last).
    A hook that needs the previous state, or its time, keeps it.
    """

    index: int
    t_new: float
    dt: float
    u_new: np.ndarray
    f: np.ndarray
    sup_norms: np.ndarray
    masses: np.ndarray
    clamped: np.ndarray
    flux: float
    recorded: bool


# Grids of at most this many cells are one block, solved by one product
# with the cached inverse; the module docstring has the measurements.
DENSE_MAX_CELLS = 64


def _build_inverses(couplings: np.ndarray, slacks: np.ndarray) -> np.ndarray:
    """The inverses of the symmetric tridiagonal M-matrices given by their
    couplings (..., n - 1) >= 0, the negated off-diagonal, and their row
    sums, the slacks (..., n) > 0: (..., n, n), nonnegative.

    Thomas elimination of the identity columns, in place in the returned
    array and written so that every update adds positive terms (the row-sum
    "slack" form of W. Grassmann, M. Taksar and D. Heyman, Oper. Res.
    33(5), 1985).  Each pivot is the slack of its reduced row plus its
    coupling to the next: with e_0 the first slack, p_j = a_j + e_j,
    c_j = a_j / p_j and e_{j+1} = slack_{j+1} + c_j e_j, and the last pivot
    is the last e.  The forward sweep adds c_{j-1} times row j - 1 to row
    j, and the back sweep divides row j by p_j and adds c_j times row
    j + 1.  The textbook pivot, the diagonal minus a_{j-1}^2 / p_{j-1},
    cancels to zero at large couplings; here every entry keeps a small
    relative error down to the smallest normal float.  The entries decay
    away from the diagonal, and the ones below it are set to zero:
    subnormal operands make a product several times slower, and they carry
    no relative accuracy.
    """
    n = slacks.shape[-1]
    # One contiguous (..., 1) column per cell.
    a = np.ascontiguousarray(np.moveaxis(couplings, -1, 0))[..., None]
    sigma = np.ascontiguousarray(np.moveaxis(slacks, -1, 0))[..., None]
    c, p = [], []
    e = sigma[0]
    for a_j, sigma_next in zip(a, sigma[1:]):
        p.append(a_j + e)
        c.append(a_j / p[-1])
        e = sigma_next + c[-1] * e
    p.append(e)
    inverse = np.zeros(slacks.shape + (n,))
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
    return inverse


def _layout(n: int) -> tuple:
    """(blocks, size, pad): n cells as blocks of `size` cells, each followed
    by one separator cell, the first block short by `pad` cells.

    Up to DENSE_MAX_CELLS cells the grid is one block and has no separator.
    Above, there are isqrt(n) blocks of ceil(n / blocks) - 1 cells; the pad
    is below the number of blocks, which is at most the block size, so the
    first block keeps at least one cell.
    """
    if n <= DENSE_MAX_CELLS:
        return 1, n, 0
    blocks = math.isqrt(n)
    size = -(-n // blocks) - 1
    return blocks, size, blocks * (size + 1) - n


class _Blocks(NamedTuple):
    """The cached factors of I - s h^2 L on a grid of several blocks.

    For each s (leading axes as the s given): the inverse of the first
    block, with its pad cells decoupled, and the transpose of the inverse
    of every other block, each (..., size, size); the fix-up columns, s
    times the other blocks' first and last columns (..., 2, size) and s
    times the first block's last column (..., size); the weights 1 / sigma
    and s / sigma of each separator equation scaled by its row sum sigma,
    (..., blocks); and the inverse of that scaled separator system,
    (..., blocks, blocks).

    The other blocks' inverse is the right operand of the solve's main
    product, every block's right-hand side times it: stored transposed,
    both operands of that product are contiguous, as BLAS's unit-stride
    kernel wants (46 against 30 µs for that product at (4, 4096), one
    thread).  The first block's inverse multiplies one column and is
    stored as built.
    """

    pad: int
    first: np.ndarray
    block: np.ndarray
    edges: np.ndarray
    last: np.ndarray
    inv_slack: np.ndarray
    coupled: np.ndarray
    separators: np.ndarray


def _factorize(n: int, s: np.ndarray):
    """The factors of I - s h^2 L on n cells, read-only, for one s, an
    array of shape (1,), or one s per row, shape (rows, 1): the inverse,
    (n, n) or (rows, n, n), on one block, else the `_Blocks`.

    Every factor comes from `_build_inverses`.  The two kinds of block
    matrix, the first (a zero-flux end on the left, its pad cells
    decoupled) and every other (coupled to a separator at both ends), are
    built in one pass.  Eliminating the blocks leaves a tridiagonal system
    in the separators, whose row sums 1 + s (G 1)_last + s (G 1)_first are
    formed from the blocks' row sums G 1, never by subtracting from the
    diagonal.
    """
    blocks, size, pad = _layout(n)
    lead = s.shape[:-1]
    if blocks == 1:
        inverse = _build_inverses(
            np.broadcast_to(s, lead + (n - 1,)), np.ones(lead + (n,))
        )
        inverse.flags.writeable = False
        return inverse
    couplings = np.broadcast_to(s[..., None], lead + (2, size - 1)).copy()
    couplings[..., 0, :pad] = 0.0
    slacks = np.ones(lead + (2, size))
    slacks[..., -1] += s
    slacks[..., 1, 0] += s[..., 0]
    inverses = _build_inverses(couplings, slacks)
    first, block = inverses[..., 0, :, :], inverses[..., 1, :, :]
    last = s * first[..., -1]
    edges = s[..., None] * np.stack((block[..., 0], block[..., -1]), axis=-2)
    # s times the row sums next to each separator: its left block's last
    # cell, and the first cell of the block on its right.
    sums = inverses.sum(axis=-1)
    left = s * sums[..., :, -1]
    slack = np.ones(lead + (blocks,))
    slack[..., 0] += left[..., 0]
    slack[..., 1:] += left[..., 1:]
    slack[..., :-1] += s * sums[..., 1, :1]
    # Separators k - 1 and k couple through block k: s^2 G[-1, 0].
    coupling = s * edges[..., 0, -1:]
    # Stored transposed in its own slot, now that edges and sums have read
    # it (see `_Blocks`).
    block[...] = np.swapaxes(block, -1, -2)
    separators = _build_inverses(
        np.broadcast_to(coupling, lead + (blocks - 1,)), slack
    )
    # Columns scaled by the row sums: each row of the product is a weighted
    # mean of the scaled right-hand side.
    separators *= slack[..., None, :]
    factors = _Blocks(pad, first, block, edges, last, 1.0 / slack, s / slack, separators)
    for factor in factors[1:]:
        factor.flags.writeable = False
    return factors


def _block_solve(rhs: np.ndarray, factors: _Blocks) -> np.ndarray:
    """Solve (I - s h^2 L) x = rhs row-wise, given `_Blocks` for s.

    One product of every block with its cached inverse, one product of the
    scaled separator right-hand side with the separator system's inverse,
    and one fix-up adding the separators' multiples of two block-inverse
    columns (H. H. Wang, ACM TOMS 7(2), 1981).  For a nonnegative
    right-hand side every term is nonnegative.
    """
    lead = rhs.shape[:-1]
    blocks = factors.separators.shape[-1]
    size = factors.block.shape[-1]
    shape = lead + (blocks, size + 1)
    if factors.pad:
        padded = np.zeros(lead + (blocks * (size + 1),))
        padded[..., factors.pad:] = rhs
        rhs = padded
    slots = rhs.reshape(shape)
    y = np.matmul(slots[..., :size], factors.block)
    y[..., 0, :] = np.matmul(factors.first, slots[..., 0, :size, None])[..., 0]
    # Each separator equation divided by its row sum.
    t = slots[..., size] * factors.inv_slack
    t += factors.coupled * y[..., -1]
    t[..., :-1] += factors.coupled[..., :-1] * y[..., 1:, 0]
    xs = np.matmul(factors.separators, t[..., None])[..., 0]
    # Block k takes separators k - 1 and k; the first block has only its
    # right one, and its own column for it.
    pairs = np.zeros(lead + (blocks, 2))
    pairs[..., 1:, 0] = xs[..., :-1]
    pairs[..., 1] = xs
    x = np.empty(lead + (blocks * (size + 1),))
    out = x.reshape(shape)
    np.matmul(pairs, factors.edges, out=out[..., :size])
    out[..., :size] += y
    out[..., 0, :size] = y[..., 0, :] + xs[..., :1] * factors.last
    out[..., size] = xs
    return x[..., factors.pad:]


_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


class _InverseCache:
    """The last `maxsize` entries built by `build(*args)` for their key,
    least recently used dropped first.  Unlike functools.lru_cache, the
    oldest entry is dropped before a new one is built, so a build never
    holds more than maxsize entries."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries: dict = {}
        self.hits = self.misses = 0

    def __call__(self, key: tuple, build: Callable, *args):
        entry = self._entries.pop(key, None)
        if entry is None:
            self.misses += 1
            if len(self._entries) == self.maxsize:
                del self._entries[next(iter(self._entries))]
            entry = build(*args)
        else:
            self.hits += 1
        self._entries[key] = entry
        return entry

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, self.maxsize, len(self._entries))

    def cache_clear(self) -> None:
        self._entries.clear()
        self.hits = self.misses = 0


# A run solves with a few distinct s rows: one ladder per start rung and
# depth, and, with diagnostics on, the tracker's single s.  The two kinds
# are cached apart, so the tracker's matrix never evicts a ladder; the
# module docstring has the measured traffic behind the sizes.  Merging them
# does not pay: on the eight augmented skew runs, one shared cache of 5
# entries builds 19 times against 17 at dt = 0.3 with diagnostics on, and
# one of 4 entries 83 times.  `_inverse_stacks` holds `imex_step`'s ladders
# under (cells, h, diffusion bytes, dts), `_inverse` `implicit_heat_step`'s
# matrices under (cells, s).
_inverse_stacks = _InverseCache(3)
_inverse = _InverseCache(2)


def _solve(factors, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - s h^2 L) x = rhs row-wise with factors from `_factorize`:
    the product with the inverse on one block, else the block solve."""
    if isinstance(factors, _Blocks):
        return _block_solve(rhs, factors)
    return np.matmul(factors, rhs[..., None])[..., 0]


def implicit_heat_step(
    values: np.ndarray, grid: Grid1D, diffusion: float, dt: float,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """One backward-Euler step of u_t - diffusion * L u = source, one
    coefficient for all rows; per-row stacks are `imex_step` ladders.

    The source is taken at the old time (explicit), matching the reaction
    treatment in imex_step.  Every row is solved on its own, so a row of a
    stacked call is bitwise the same as that row solved alone.

    Args:
        values: one row (cells,) or a stack (rows, cells).
        grid: the grid the rows live on.
        diffusion: the one coefficient of every row.
        dt: step size.
        source: None, or an array broadcasting against values.

    Returns:
        The new values, same shape as values, in a new array, accurate cell
        by cell: on grids of at most DENSE_MAX_CELLS cells the product with
        the cached inverse, on larger grids the block solve.

    Raises:
        ValueError: if diffusion is an array.
    """
    u = np.asarray(values, dtype=np.float64)
    rhs = u if source is None else u + dt * np.asarray(source, dtype=np.float64)
    r = dt * np.asarray(diffusion, dtype=np.float64)
    if r.ndim:
        raise ValueError(
            f"diffusion must be one coefficient, got shape {r.shape}; rows "
            "with their own coefficients go through imex_step"
        )
    s = r / (grid.h * grid.h)
    factors = _inverse((grid.n_cells, s), _factorize, grid.n_cells, np.reshape(s, 1))
    return _solve(factors, rhs)


def _ladder(grid: Grid1D, diffusion: np.ndarray, dts: tuple) -> tuple:
    """(steps, factors) of one ladder: its step sizes as an (m, 1, 1)
    column and the factors of its (m * species) rows, row l * species + i
    with s = dts[l] d_i / h^2."""
    steps = np.asarray(dts, dtype=np.float64)[:, None]
    if steps.min() <= 0.0:
        raise ValueError(f"dt must be > 0, got {dts}")
    s = (steps * diffusion).reshape(-1, 1) / (grid.h * grid.h)
    return steps[..., None], _factorize(grid.n_cells, s)


def imex_step(
    u: np.ndarray, f: np.ndarray, grid: Grid1D, sys: ReactionSystem,
    dts: Sequence[float],
) -> np.ndarray:
    """The raw IMEX steps of the (species, cells) array u, whose reaction
    is f, one per step size in dts.

    No positivity handling (see run_simulation).  All step sizes and all
    species are one stack of rows, each with its own diffusion coefficient,
    solved by one call of the solve kernel `implicit_heat_step` uses; level
    l of the result is bitwise the step with dts[l] alone.  The ladder's
    step column and factors are cached under (cells, h, the system's
    diffusion, dts).  A level whose source or solve overflowed, or whose f
    is not finite, comes back non-finite, without a warning.

    Returns:
        The (len(dts), species, cells) stack of the new arrays after each
        step size.

    Raises:
        ValueError: if u's species count does not match the system, f's
            shape is not u's, or a step size is <= 0.
    """
    if u.shape[0] != sys.n_species:
        raise ValueError(
            f"state has {u.shape[0]} species, system expects {sys.n_species}"
        )
    if f.shape != u.shape:
        raise ValueError(f"reaction has shape {f.shape}, state has shape {u.shape}")
    dts = tuple(dts)
    key = (grid.n_cells, grid.h, sys.diffusion.tobytes(), dts)
    steps, factors = _inverse_stacks(key, _ladder, grid, sys.diffusion, dts)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = steps * f
        rhs += u
        rows = _solve(factors, rhs.reshape(-1, u.shape[1]))
    return rows.reshape(len(dts), *u.shape)


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


def _clock(cfg: SolverConfig) -> tuple:
    """(end, q): t_end is p / q ticks of cfg.dt / 2^max_step_halvings, and
    end, in units of 1/q tick, is the multiple of the coarsest rung nearest
    t_end if it lies within 1e-12 t_end of t_end, or else p itself."""
    halvings = cfg.max_step_halvings
    num, den = cfg.dt.as_integer_ratio()
    a, b = cfg.t_end.as_integer_ratio()
    p, q = (a * den) << halvings, b * num
    tol, tol_den = (1e-12).as_integer_ratio()
    for k in range(halvings + 1):
        rung = q << (halvings - k)
        multiple = (2 * p + rung) // (2 * rung) * rung
        if abs(multiple - p) * tol_den <= tol * p:
            return multiple, q
    return p, q


def row_norms(u: np.ndarray, h: float) -> tuple:
    """Per-species sup|u_i| and mass h * sum_j u_ij of the (rows, cells) u.

    The masses are the cell-sum quadrature of each row in numpy's pairwise
    order: each row's sum is bitwise np.add.reduce of that row alone, a
    fixed order, so the masses are bit-reproducible.  Its rounding grows
    like log2(n) eps against n eps for a left-to-right scan (N. J. Higham,
    SIAM J. Sci. Comput. 14(4), 1993): the ledger the masses feed closes at
    1.5e-16 on the README quad run at 4096 cells, against 1.6e-15 with the
    scan.  It is also the cheaper order: at (4, 4096) one call took 5.7 us
    against 53 us for the scan, and 2.8 against 15 us at 1024 cells (one
    thread, 2-vCPU x86-64 guest).  A mass that overflows is inf; the mass
    checks fail on it.
    """
    return np.maximum.reduce(np.abs(u), axis=1), np.add.reduce(u, axis=1) * h


def run_simulation(
    sys: ReactionSystem,
    grid: Grid1D,
    u0: np.ndarray,
    cfg: SolverConfig,
    hooks: Sequence[Callable[[StepEvent], None]] = (),
) -> np.ndarray:
    """Integrate the (species, cells) array u0 on grid from t = 0 to t_end.

    The run starts from a read-only copy of u0.  Its clock, step sizes and
    reject-and-halve ladders are the module docstring's.  The reaction is
    evaluated once per state.  Each ladder is tested with one minimum per
    level, which is all a rejected level costs; the accepted level's
    per-species maxima give its finiteness test and its sup norms.  Hooks
    run at u0 (index 0, dt = 0) and after every accepted step, in
    registration order, and see the state's StepEvent.

    Returns:
        The read-only (species, cells) array at t_end.  Only the current
        state is kept while the run goes on; hooks see every state.

    Raises:
        ValueError: if u0 does not have shape (sys.n_species, grid.n_cells),
            or has a value that is not finite or is negative.
        NumericalFailure: when the halving budget is exhausted or the
            remainder step is rejected; the payload carries (time, species,
            value) of the last rejected trial: its minimum, or its first
            non-finite value.
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
    halvings = cfg.max_step_halvings
    end, q = _clock(cfg)
    num, den = cfg.dt.as_integer_ratio()
    # t = count * num / scale, rounded once; rung k is q << (halvings - k).
    scale = (q * den) << halvings
    count = index = rung = 0
    t = dt_step = 0.0
    clamped = no_clamp = np.zeros(sys.n_species)
    # The sup norms of a nonnegative state are its row maxima, + 0.0 mapping
    # a -0.0 maximum to 0.0 as abs does; an accepted state's maxima come
    # from its acceptance test.
    sup_norms = np.maximum.reduce(u, axis=1) + 0.0
    # (start rung, depth) -> the ladder's step sizes, one tuple each.
    ladders = {}
    while True:
        # An overflow is inf or nan: the next trial fails, as do mass checks.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f = np.asarray(sys.evaluator(u, t), dtype=np.float64)
            masses = np.add.reduce(u, axis=1) * grid.h
            flux = np.add.reduce(f, axis=None) * grid.h
        f.flags.writeable = False
        done = count == end
        event = StepEvent(
            index=index,
            t_new=t,
            dt=dt_step,
            u_new=u,
            f=f,
            sup_norms=sup_norms,
            masses=masses,
            clamped=clamped,
            flux=flux,
            recorded=index % cfg.record_every == 0 or done,
        )
        for hook in hooks:
            hook(event)
        if done:
            return u
        left = end - count
        # The largest rung that fits in what is left; below one tick, the
        # remainder step, level halvings + 1.
        level = start = max(0, halvings + 1 - (left // q).bit_length())
        depth = max(1, rung + 1 - level)
        while True:
            # Levels level .. level + depth - 1 from one imex_step call.
            if level > halvings:
                dts = (left * num / scale,)
            else:
                dts = ladders.get((level, depth))
                if dts is None:
                    last = min(level + depth, halvings + 1)
                    dts = tuple(math.ldexp(cfg.dt, -k) for k in range(level, last))
                    ladders[level, depth] = dts
            trials = imex_step(u, f, grid, sys, dts)
            # One minimum per level: np.minimum propagates a NaN, which
            # fails the floor.  Only a level above the floor has its
            # per-species maxima taken; an inf among them fails it too.
            lows = np.minimum.reduce(trials, axis=(1, 2)).tolist()
            for first, low in enumerate(lows):
                if low >= cfg.positivity_floor:
                    highs = np.maximum.reduce(trials[first], axis=1)
                    if max(highs.tolist()) < math.inf:
                        break
            else:
                level += len(dts)
                if level > halvings:
                    raise _exhausted(trials[-1], t, dts[-1], max(0, halvings - start))
                continue
            # The accepted level, clamped, in its own array: the stack is
            # freed below, before the hooks and the next ladder run.
            trial = trials[first]
            u_new, dt_step = np.maximum(trial, 0.0), dts[first]
            if lows[first] >= 0.0:
                # Nothing to clamp: + 0.0 maps a -0.0 maximum to 0.0.
                sup_norms, clamped = highs + 0.0, no_clamp
            else:
                sup_norms = np.maximum(highs, 0.0) + 0.0
                # h * sum_j max(-trial, 0), summed pairwise as row_norms sums a mass.
                clamped = np.add.reduce(u_new - trial, axis=1) * grid.h
            rung = level + first
            count += q << (halvings - rung) if rung <= halvings else left
            break
        del trials, trial
        u_new.flags.writeable = False
        u = u_new
        t = cfg.t_end if count == end else count * num / scale
        index += 1
