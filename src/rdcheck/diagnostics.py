"""Auxiliary smoothing fields and the runtime check battery.

Alongside the primal species the tracker integrates, with a single shared
diffusion constant d chosen strictly above every species coefficient:

* the weighted smoothing v_d = sum_i (d - d_i) v_i of the per-species
  smoothings dv_i/dt - d L v_i = u_i, v_i(0) = 0.  All v_i share the
  operator, so v_d solves dv_d/dt - d L v_d = sum_i (d - d_i) u_i,
  v_d(0) = 0, and the tracker integrates that one field;
* a total-mass field z solving dz/dt - d L z = K0(t), z(0) = sum_i u_i(0),
  where K0(t) is the system's mass source (constant, or K0 e^{-K1 t} for
  time-rescaled systems);
* time accumulators z_hat = integral of z and u_hat = integral of
  sum_i d_i u_i, both trapezoidal.

The theory pins v_d down three independent ways, each checked here
numerically:

* route consistency: v_d = d z_hat - u_hat up to O(dt) discretization
  (`vd_consistency`, expected to shrink first order under refinement);
* the elliptic identity z - L v_d = sum_i u_i (`zvd_residual`);
* a priori bounds: sup|z| <= M + S, S = sum_n dt K0(t_n) the source added
  to z, the weight b = sum u_i / sum d_i u_i trapped in [1/max d_i,
  1/min d_i], and 0 <= u_hat <= d z_hat with sup|u_hat| <= d (M + S) T.

v_d's own bound is the gradient interpolation at Holder exponent 0:
sup|grad v_d| <= B(1, d, 0) sqrt(F osc v_d), F the largest sup of the
forcing over the states that drove v_d so far and osc v_d = max v_d -
min v_d, its [v_d]_0 seminorm (`vd_gradient_interpolation`).

The tracker is a solver hook: it starts from the solver's index-0 event,
u0, advances with the accepted steps and keeps the current fields and
running extrema only, so bounds are checked against the whole history, not
just recorded steps, and each per-step quantity (sum_i u_i, b, sup|z|, v_d
and its forcing) is computed once.  The interpolation bound reads v_d's
gradient, its oscillation and the running forcing sup at every step, two
O(n) reductions beyond the CSV cells.

The primal checks work the same way.  `InvariantTracker` is fed every
StepEvent of the run, u0 first, with the state's entropy value, formed
from the reaction the solver evaluated once for that state, and keeps
running extrema, folded per chunk: the drift of each conserved
combination, the worst step of the mass ledger (its balance, its one-step
envelope and the clamp's share, positivity), and the largest entropy
production.  A state costs a few writes; the totals, the conserved
combinations, the ledger and the extrema are numpy reductions over a chunk
of states, equal bit for bit to the state by state ones.  Each tracker's
`checks` turns its own extrema into the report's verdicts, which
therefore do not depend on the recording cadence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid1D, grad_sup, laplacian_values
from .models import CheckResult, ReactionSystem
from .solver import StepEvent, implicit_heat_step
from .theory import interpolation_constants

__all__ = [
    "AuxiliaryConfig",
    "AuxiliaryTracker",
    "InvariantTracker",
    "entropy_pointwise_worst",
    "loglog_slope",
]

_TOTAL_MASS_FLOOR = 1e-12
_B_TOL = 1e-12
_CONS_TOL = 1e-8
_ENVELOPE_SLACK = 1e-6
_ENTROPY_TOL = 1e-12
# A mass-ledger step's relative miss; correct runs measured 2.3e-16 at
# worst, on the README quad run at 4096 to 65536 cells.
_LEDGER_TOL = 1e-12
# The mass ledger's checks: name -> what each step measures.
_LEDGER = {
    "positivity": "C / (M_old + M_new), the mass the clamp added",
    "mass_envelope": "M_new - C <= (1 + K1 dt) M_old + dt L K0, relative",
    "mass_identity": "M_new = M_old + dt F_old + C, relative to M_old + M_new + dt |F_old| + C",
}
# States an InvariantTracker holds between folds.  From 64 to 512 the
# recorder's time on a 958-state run is flat within noise (2-vCPU guest),
# while the transient of formatting a chunk's CSV rows grows with it.
_CHUNK = 128


def _replaces(value: float, best: float) -> bool:
    """Whether value takes over the running maximum best: it is larger, or
    it is the first NaN (np.maximum's rule), so that a running maximum keeps
    a measurement that is not a number and its check fails on it; Python's
    max(best, nan) keeps best."""
    return value > best or (value != value and best == best)


def _max(a: float, b: float) -> float:
    """max(a, b), or NaN if either is NaN, as _replaces."""
    return b if _replaces(b, a) else a


def _min(a: float, b: float) -> float:
    """min(a, b), or NaN if either is NaN, as _max."""
    return b if b < a or b != b else a


def _relative(value: np.ndarray, scale: np.ndarray, overflow: np.ndarray) -> np.ndarray:
    """value / scale per step: 0 where value is 0, whatever the scale, and
    +inf where a total mass overflowed, so that the step fails its check."""
    out = np.divide(value, scale, out=np.zeros_like(value), where=value != 0.0)
    out[overflow] = math.inf
    return out


def _worst(best: float, t_best, values: np.ndarray, times: np.ndarray):
    """The running maximum best, set at t_best, after the steps of values
    at times: (value, t) of np.argmax(values), the first largest entry or
    the first NaN, if it replaces best, else (best, t_best).  That is the
    entry a fold of _max over the values in order keeps, down to the sign
    of a zero."""
    i = np.argmax(values)
    value = float(values[i])
    if _replaces(value, best):
        return value, float(times[i])
    return best, t_best


def _at(t) -> str:
    """A check detail's suffix naming the t of its worst step, if a step
    set its measurement."""
    return "" if t is None else f", at t = {t!r}"


@dataclass(frozen=True)
class AuxiliaryConfig:
    """Auxiliary-field parameters.

    Attributes:
        d: shared auxiliary diffusion; must exceed every species coefficient
            strictly (validated against the system at tracker construction).
        z_offset: test-surface injection added to z at t = 0 (defaults to
            zero; used to demonstrate that a corrupted z flips the bound
            check).
    """

    d: float
    z_offset: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.d) or self.d <= 0.0:
            raise ValueError(f"auxiliary diffusion must be finite and > 0, got {self.d}")


class AuxiliaryTracker:
    """Solver hook advancing the auxiliary fields with the primal run on
    grid.

    The index-0 event, u0, sets z, sum_i d_i u_i and initial_sup_sum; every
    later event advances the fields by its step.  `row` holds the
    diagnostic CSV cells of the current time, which `columns` names in
    order.
    """

    columns = ("z_sup", "b_min", "b_max", "vd_consistency", "zvd_residual", "grad_vd_sup")

    def __init__(self, sys: ReactionSystem, grid: Grid1D, cfg: AuxiliaryConfig):
        d_max = float(np.max(sys.diffusion))
        if cfg.d <= d_max:
            raise ValueError(
                f"auxiliary diffusion d = {cfg.d} must strictly exceed the "
                f"largest species diffusion {d_max}"
            )
        self.sys = sys
        self.cfg = cfg
        self.grid = grid
        cells = grid.n_cells
        self._v_d = np.zeros(cells)
        self._z_hat = np.zeros(cells)
        self._u_hat = np.zeros(cells)
        self._weights = np.asarray(sys.diffusion, dtype=np.float64)
        # d - d_i: the weights of v_d and of its forcing sum_i (d - d_i) u_i.
        self._gaps = cfg.d - self._weights
        self._interpolation_b = interpolation_constants(1, cfg.d, 0.0).b
        # M = sum of per-species initial sup norms, the constant in the
        # z and u_hat bounds; NaN until u0 is seen.
        self.initial_sup_sum = math.nan
        # The last event's t, and S = sum_n dt K0(t_n), the source added to z.
        self._t = self._source = 0.0
        self.z_sup_max = -math.inf
        self.vd_consistency_max = 0.0
        self.zvd_residual_max = 0.0
        self.grad_vd_max = 0.0
        self.forcing_sup_max = -math.inf
        self.uhat_min = 0.0
        self.uhat_sup_max = 0.0
        self.dzhat_minus_uhat_min = 0.0
        self.b_min = math.inf
        self.b_max = -math.inf
        # The worst step's grad v_d / (B sqrt(F osc v_d)), and its t.
        self.interpolation_max = 0.0
        self.interpolation_t = None

    def on_step(self, event: StepEvent) -> None:
        s_new = np.tensordot(self._weights, event.u_new, axes=1)
        if event.index == 0:
            self._z = np.sum(event.u_new, axis=0) + self.cfg.z_offset
            self.initial_sup_sum = float(np.sum(event.sup_norms))
        else:
            dt = event.dt
            k0_old = self.sys.mass_source_rate(self._t)
            self._source += dt * k0_old
            # v_d's source is the forcing _observe computed from the previous state.
            rows = implicit_heat_step(
                np.stack((self._v_d, self._z)),
                self.grid,
                self.cfg.d,
                dt,
                np.stack((self._forcing, np.full(self.grid.n_cells, k0_old))),
            )
            self._v_d = rows[0]
            z_old, self._z = self._z, rows[1]
            self._z_hat = self._z_hat + 0.5 * dt * (z_old + self._z)
            self._u_hat = self._u_hat + 0.5 * dt * (self._s_prev + s_new)
        self._s_prev = s_new
        self._t = event.t_new
        self._observe(event.u_new, s_new)

    def _observe(self, u: np.ndarray, weighted: np.ndarray) -> None:
        """Measure the fields at the current time, each quantity once.

        u is the primal (species, cells) array of the same time and
        weighted its sum_i d_i u_i.  Updates the running extrema, `row` and
        the forcing sum_i (d - d_i) u_i, which is v_d's source for the next
        step.
        """
        d = self.cfg.d
        total = np.sum(u, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            b = np.where(
                total > _TOTAL_MASS_FLOOR, total / weighted, 1.0 / float(self._weights[0])
            )
        b_min = float(np.min(b))
        b_max = float(np.max(b))
        z_sup = float(np.max(np.abs(self._z)))
        self._forcing = np.tensordot(self._gaps, u, axes=1)
        forcing = float(np.max(np.abs(self._forcing)))
        v_d = self._v_d
        gap = d * self._z_hat - self._u_hat
        consistency = float(np.max(np.abs(v_d - gap)))
        zvd = float(
            np.max(np.abs(self._z - laplacian_values(v_d, self.grid.h) - total))
        )
        gvd = grad_sup(v_d, self.grid.h)
        # forcing_sup_max is still F over the states that drove v_d.  Two
        # roots, so that F osc neither overflows nor underflows.
        ratio = 0.0
        if gvd != 0.0:
            osc = float(np.max(v_d)) - float(np.min(v_d))
            scale = self._interpolation_b * math.sqrt(self.forcing_sup_max) * math.sqrt(osc)
            ratio = gvd / scale if scale else math.inf
        if _replaces(ratio, self.interpolation_max):
            self.interpolation_max, self.interpolation_t = ratio, self._t
        self.z_sup_max = _max(self.z_sup_max, z_sup)
        self.forcing_sup_max = _max(self.forcing_sup_max, forcing)
        self.b_min = _min(self.b_min, b_min)
        self.b_max = _max(self.b_max, b_max)
        self.uhat_min = _min(self.uhat_min, float(np.min(self._u_hat)))
        self.uhat_sup_max = _max(self.uhat_sup_max, float(np.max(np.abs(self._u_hat))))
        self.dzhat_minus_uhat_min = _min(self.dzhat_minus_uhat_min, float(np.min(gap)))
        self.vd_consistency_max = _max(self.vd_consistency_max, consistency)
        self.zvd_residual_max = _max(self.zvd_residual_max, zvd)
        self.grad_vd_max = _max(self.grad_vd_max, gvd)
        self.row = (z_sup, b_min, b_max, consistency, zvd, gvd)

    def measurements(self) -> dict:
        """The report's measurement block: the running extrema behind
        `checks` and the initial sup sum M."""
        return {
            "initial_sup_sum": self.initial_sup_sum,
            "forcing_sup_max": self.forcing_sup_max,
            "z_sup_max": self.z_sup_max,
            "vd_consistency_max": self.vd_consistency_max,
            "zvd_residual_max": self.zvd_residual_max,
            "grad_vd_max": self.grad_vd_max,
            "uhat_sup_max": self.uhat_sup_max,
        }

    def checks(self) -> list[CheckResult]:
        """The report's checks of the a priori bounds up to the last event's
        t: z_sup_bound (M + S, exact in arithmetic: each solve is a weighted
        mean), b_range, uhat_nonnegative, uhat_below_d_zhat,
        uhat_sup_bound (d (M + S) t) and vd_gradient_interpolation (the
        worst step's ratio to B(1, d, 0) sqrt(F osc v_d), at most 1), in
        that order.  The three u_hat checks share one tolerance, relative
        to u_hat's bound d (M + S) t."""
        z_bound = self.initial_sup_sum + self._source
        z_tol = _ENVELOPE_SLACK * z_bound
        lo = 1.0 / float(np.max(self.sys.diffusion)) * (1.0 - _B_TOL)
        hi = 1.0 / float(np.min(self.sys.diffusion)) * (1.0 + _B_TOL)
        sup_bound = self.cfg.d * z_bound * self._t
        sup_tol = _ENVELOPE_SLACK * sup_bound
        return [
            CheckResult(
                name="z_sup_bound",
                passed=self.z_sup_max <= z_bound + z_tol,
                measured=self.z_sup_max,
                bound=z_bound,
                tolerance=z_tol,
            ),
            CheckResult(
                name="b_range",
                passed=self.b_min >= lo and self.b_max <= hi,
                measured=self.b_min,
                bound=self.b_max,
                tolerance=_B_TOL,
                detail=f"interval [{lo}, {hi}]",
            ),
            CheckResult(
                name="uhat_nonnegative",
                passed=self.uhat_min >= -sup_tol,
                measured=self.uhat_min,
                bound=0.0,
                tolerance=sup_tol,
            ),
            CheckResult(
                name="uhat_below_d_zhat",
                passed=self.dzhat_minus_uhat_min >= -sup_tol,
                measured=self.dzhat_minus_uhat_min,
                bound=0.0,
                tolerance=sup_tol,
            ),
            CheckResult(
                name="uhat_sup_bound",
                passed=self.uhat_sup_max <= sup_bound + sup_tol,
                measured=self.uhat_sup_max,
                bound=sup_bound,
                tolerance=sup_tol,
            ),
            CheckResult(
                name="vd_gradient_interpolation",
                passed=self.interpolation_max <= 1.0,
                measured=self.interpolation_max,
                bound=1.0,
                tolerance=0.0,
                detail="worst step of sup|grad v_d| / (B(1, d, 0) sqrt(F osc v_d))"
                + _at(self.interpolation_t),
            ),
        ]


def entropy_pointwise_worst(u: np.ndarray, f: np.ndarray) -> float | None:
    """Largest per-cell value of sum_i f_i log u_i over strictly positive cells.

    u is a (species, cells) array and f its reaction.  The cells counted
    are those whose smallest species is > 0, found by one species-axis
    reduction; the sum is formed in every cell and its maximum taken over
    the counted cells in place, without copying them out.  The result is
    np.max(np.sum(f * np.log(u), 0)[mask]) bit for bit (a NaN where that is
    a NaN).  Returns None when no cell has all species strictly positive.
    A reaction that overflows gives an inf or nan measurement, without a
    warning; the CSV reports it as is.
    """
    mask = np.minimum.reduce(u, axis=0) > 0.0
    if not mask.any():
        return None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.add.reduce(f * np.log(u), axis=0)
    return float(np.maximum.reduce(vals, where=mask, initial=-np.inf))


class InvariantTracker:
    """Running extrema of the primal invariants, fed every StepEvent of a
    run on grid, u0 first, and folded per chunk.

    update() copies an event's time, step size, masses, flux
    F = h sum_ij f_ij, clamped mass and entropy into one preallocated
    float64 block.  fold() reduces the block with numpy, when it is full,
    at checks() and whenever its owner asks: it forms each state's total
    mass M and conserved combinations once, and the running extrema take
    in the chunk's.  So the checks see every accepted step whatever the
    recording cadence, one chunk late.  The first state fed sets the
    reference combinations.

    The mass ledger: the solve keeps each row's mass, so a step n -> n + 1
    of size dt has M_{n+1} = M_n + dt F_n + C_{n+1}, C the clamped mass.
    mass_identity is the step's miss of that balance relative to the size
    of its terms, M_n + M_{n+1} + dt |F_n| + C_{n+1}, which is 0 only when
    every term is: a step into or out of a zero-mass state reads its
    rounding.  mass_envelope is the excess of M_{n+1} - C_{n+1} over
    (1 + K1 dt) M_n + dt L K0(t_n), the mass control on a domain of length
    L, relative to M_n + M_{n+1} + dt L |K0(t_n)|.  positivity is the
    clamp's share C_{n+1} / (M_n + M_{n+1}), 0 where C is 0 or a total
    overflowed.
    Each of the three keeps the t_{n+1} of its worst step in `ledger`, and
    its detail names it.

    on_fold, if given, is called by every fold with the chunk's states
    before the block is reused: a (states, species + 3 + laws) view whose
    columns are t, the masses, the total mass, the entropy and the
    conserved combinations, and a bool array, False where the entropy was
    None.  Both are valid during the call only.
    """

    def __init__(self, sys: ReactionSystem, grid: Grid1D, on_fold=None):
        self.sys = sys
        self.grid = grid
        self.on_fold = on_fold
        self.total = 0.0
        self.laws = []
        self.laws0 = []
        self.law_drift = [0.0] * len(sys.conservation_laws)
        # Ledger check name -> (its worst step's value, that step's t); the
        # t is None until a step sets the value.
        self.ledger = {name: (0.0, None) for name in _LEDGER}
        self.ledger["mass_envelope"] = (-math.inf, None)
        self.entropy_max = -math.inf
        n = sys.n_species
        self._weights = np.array(
            [w for _, w in sys.conservation_laws], dtype=np.float64
        ).reshape(-1, n)
        # Columns: t, masses, total, entropy and laws, the on_fold view;
        # then dt, flux and clamped masses.
        self._view = n + 3 + len(self._weights)
        self._block = np.empty((_CHUNK, self._view + 2 + n))
        self._has_entropy = np.empty(_CHUNK, dtype=bool)
        self._held = 0
        # The last folded row, where the next chunk's first step starts.
        self._last = self._block[:0].copy()

    def update(self, event: StepEvent, entropy) -> None:
        """Feed one state: its StepEvent and its entropy_pointwise_worst
        value (None when undefined).

        The state enters the extrema when its chunk is folded.  Afterwards
        `total` and `laws` hold the last folded state's total mass and
        conserved combinations; one that overflows is inf or nan, without a
        warning.
        """
        i = self._held
        if i == _CHUNK:
            self.fold()
            i = 0
        n = self.sys.n_species
        v = self._view
        row = self._block[i]
        row[0] = event.t_new
        row[1 : n + 1] = event.masses
        row[v] = event.dt
        row[v + 1] = event.flux
        row[v + 2 :] = event.clamped
        self._has_entropy[i] = entropy is not None
        if entropy is not None:
            row[n + 2] = entropy
        self._held = i + 1

    def fold(self) -> None:
        """Take the states fed since the last fold into the running extrema,
        then hand them to on_fold.

        Per chunk: one sum per state for the total (numpy's, as np.sum of
        the state's masses), one product with the law weights, and the
        ledger of each step into a state of the chunk, the first from the
        last folded state.  Each extremum keeps the value a state by state
        _max would: the first largest entry, NaN first of all.
        """
        k = self._held
        if k == 0:
            return
        self._held = 0
        sys = self.sys
        n = sys.n_species
        v = self._view
        block = self._block[:k]
        has_entropy = self._has_entropy[:k]
        masses = block[:, 1 : n + 1]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            totals = masses.sum(axis=1)
            laws = masses @ self._weights.T
            block[:, n + 1] = totals
            block[:, n + 3 : v] = laws
            if not len(self._last):
                self.laws0 = laws[0].tolist()
            rows = np.concatenate((self._last, block))
            drift = np.max(np.abs(laws - self.laws0), axis=0).tolist()
            self.law_drift = [_max(a, b) for a, b in zip(self.law_drift, drift)]
            if len(rows) > 1:
                old, new = rows[:-1], rows[1:]
                m_old, m_new, dt = old[:, n + 1], new[:, n + 1], new[:, v]
                clamped = new[:, v + 2 :].sum(axis=1)
                overflow = np.isinf(m_old) | np.isinf(m_new)
                scale = m_old + m_new
                step = dt * old[:, v + 1]
                residual = np.abs(m_new - m_old - step - clamped)
                source = dt * self.grid.length * sys.mass_source_rate(old[:, 0])
                excess = m_new - (1.0 + sys.k1 * dt) * m_old - source - clamped
                identity = _relative(residual, scale + np.abs(step) + clamped, overflow)
                envelope = _relative(excess, scale + np.abs(source), overflow)
                share = np.where(overflow, 0.0, _relative(clamped, scale, overflow))
                for name, values in zip(_LEDGER, (share, envelope, identity)):
                    self.ledger[name] = _worst(*self.ledger[name], values, new[:, 0])
        if has_entropy.any():
            self.entropy_max, _ = _worst(
                self.entropy_max, None, block[has_entropy, n + 2], block[has_entropy, 0]
            )
        self._last = block[-1:].copy()
        self.total = float(totals[-1])
        self.laws = laws[-1].tolist()
        if self.on_fold is not None:
            self.on_fold(block[:, :v], has_entropy)

    def checks(self) -> list[CheckResult]:
        """The report's primal checks over every state fed so far.

        In order: positivity (the clamp's share of the ledger),
        conservation[label] (relative drift of each declared law),
        mass_envelope and mass_identity (the worst step of the mass
        ledger; a total mass that overflowed fails both), and
        entropy_dissipation (the worst pointwise value) for families whose
        entropy is signed, once it was defined at some step.
        """
        self.fold()
        sys = self.sys

        def ledger(name: str) -> CheckResult:
            value, t = self.ledger[name]
            return CheckResult(
                name=name,
                passed=value <= _LEDGER_TOL,
                measured=value,
                bound=0.0,
                tolerance=_LEDGER_TOL,
                detail=f"worst step of {_LEDGER[name]}" + _at(t),
            )

        checks = [ledger("positivity")]
        for (label, _), law0, drift in zip(sys.conservation_laws, self.laws0, self.law_drift):
            measured = drift / max(abs(law0), _TOTAL_MASS_FLOOR)
            checks.append(
                CheckResult(
                    name=f"conservation[{label}]",
                    passed=measured <= _CONS_TOL,
                    measured=measured,
                    bound=0.0,
                    tolerance=_CONS_TOL,
                )
            )
        checks += [ledger("mass_envelope"), ledger("mass_identity")]
        if sys.entropy_nonpositive and self.entropy_max != -math.inf:
            checks.append(
                CheckResult(
                    name="entropy_dissipation",
                    passed=self.entropy_max <= _ENTROPY_TOL,
                    measured=self.entropy_max,
                    bound=0.0,
                    tolerance=_ENTROPY_TOL,
                )
            )
        return checks


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x (>= 2 distinct points)."""
    lx = np.log(np.asarray(x, dtype=np.float64))
    ly = np.log(np.asarray(y, dtype=np.float64))
    if lx.size < 2 or np.max(lx) == np.min(lx):
        raise ValueError("log-log slope needs at least two distinct abscissae")
    dx = lx - np.mean(lx)
    return float(np.dot(dx, ly - np.mean(ly)) / np.dot(dx, dx))
