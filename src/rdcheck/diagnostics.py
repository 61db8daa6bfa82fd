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
* a priori bounds: sup|z| <= M + integral K0, the weight
  b = sum u_i / sum d_i u_i trapped in [1/max d_i, 1/min d_i], and
  0 <= u_hat <= d z_hat with sup|u_hat| <= d (M + integral K0) T.

The tracker is a solver hook: it starts from the solver's index-0 event,
u0, advances with the accepted steps and keeps the current fields and
running extrema only, so bounds are checked against the whole history, not
just recorded steps, and each per-step quantity (sum_i u_i, b, sup|z|, v_d
and its forcing) is computed once.  It scans the Holder moduli of v_d at
the steps the solver marks recorded (not at t = 0, where v_d is zero),
with one `holder_modulus` call.  That scan skips the lag bands whose bound
cannot beat the running best and takes the rest 32 lags per numpy call:
on the smooth v_d of the README quad run at 1024 cells it scans about
350-450 of the 1023 lags, 1-1.5 ms a snapshot.  It is O(n) memory, and
O(n^2) time in the worst case, a monotone x^gamma-like row.

The primal checks work the same way.  `InvariantTracker` is fed every
StepEvent of the run, u0 first, with the state's entropy value, formed
from the reaction the solver evaluated once for that state, and keeps
running extrema, folded per chunk: the smallest value (positivity), the
drift of each conserved combination, the worst step of the mass ledger
(its balance and its one-step envelope), and the largest entropy
production.  A state costs a few writes and one sum of its reaction; the
totals, the conserved combinations, the ledger and the extrema are numpy
reductions over a chunk of states, equal bit for bit to the state by
state ones.  Each tracker's `checks` turns its own extrema into the
report's verdicts, which therefore do not depend on the recording cadence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid1D, grad_sup, holder_modulus, laplacian_values
from .models import CheckResult, ReactionSystem
from .solver import StepEvent, implicit_heat_step

__all__ = [
    "AuxiliaryConfig",
    "AuxiliaryTracker",
    "InvariantTracker",
    "entropy_pointwise_worst",
    "loglog_slope",
]

_TOTAL_MASS_FLOOR = 1e-12
_B_TOL = 1e-9
_UHAT_TOL = 1e-9
_CONS_TOL = 1e-8
_ENVELOPE_SLACK = 1e-6
_ENTROPY_TOL = 1e-12
# A mass-ledger step's relative miss; correct runs measured 2.6e-15 at worst.
_LEDGER_TOL = 1e-12
# States an InvariantTracker holds between folds.  From 64 to 512 the
# recorder's time on a 958-state run is flat within noise (2-vCPU guest),
# while the transient of formatting a chunk's CSV rows grows with it.
_CHUNK = 128


def _max(a: float, b: float) -> float:
    """max(a, b), or NaN if either is NaN (np.maximum's rule), so that a
    running maximum keeps a measurement that is not a number and its check
    fails on it; Python's max(a, nan) keeps a."""
    return b if b > a or b != b else a


def _min(a: float, b: float) -> float:
    """min(a, b), or NaN if either is NaN, as _max."""
    return b if b < a or b != b else a


def _relative(value: np.ndarray, scale: np.ndarray, overflow: np.ndarray) -> np.ndarray:
    """value / scale per step: 0 where value is 0, whatever the scale, and
    +inf where a total mass overflowed, so that the step fails its check."""
    out = np.divide(value, scale, out=np.zeros_like(value), where=value != 0.0)
    out[overflow] = math.inf
    return out


def _first(arg, values: np.ndarray) -> float:
    """values at arg(values), with arg np.argmax or np.argmin: the first
    extreme entry, or the first NaN.  That is the entry a fold of _max or
    _min over the values in order keeps, down to the sign of a zero."""
    return float(values[arg(values)])


@dataclass(frozen=True)
class AuxiliaryConfig:
    """Auxiliary-field parameters.

    Attributes:
        d: shared auxiliary diffusion; must exceed every species coefficient
            strictly (validated against the system at tracker construction).
        gammas: Holder exponents measured at recorded steps.
        z_offset: test-surface injection added to z at t = 0 (defaults to
            zero; used to demonstrate that a corrupted z flips the bound
            check).
    """

    d: float
    gammas: tuple = (0.25, 0.5)
    z_offset: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.d) or self.d <= 0.0:
            raise ValueError(f"auxiliary diffusion must be finite and > 0, got {self.d}")
        for g in self.gammas:
            if not np.isfinite(g) or g < 0.0 or g > 1.0:
                raise ValueError(f"Holder exponent must lie in [0, 1], got {g}")


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
        # M = sum of per-species initial sup norms, the constant in the
        # z and u_hat bounds; NaN until u0 is seen.
        self.initial_sup_sum = math.nan
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
        # gamma -> the largest Holder modulus of v_d at a recorded step.
        self.holder_max: dict = {}

    def on_step(self, event: StepEvent) -> None:
        s_new = np.tensordot(self._weights, event.u_new, axes=1)
        if event.index == 0:
            self._z = np.sum(event.u_new, axis=0) + self.cfg.z_offset
            self.initial_sup_sum = float(np.sum(event.sup_norms))
        else:
            dt = event.dt
            k0_old = self.sys.mass_source_rate(event.t_old)
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
        self._observe(event.u_new, s_new)
        # v_d is zero at u0: no scan there.
        if event.recorded and event.index:
            self._measure_holder()

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

    def _measure_holder(self) -> None:
        """Update the running Holder moduli of v_d."""
        moduli = holder_modulus(self._v_d, self.grid.h, self.cfg.gammas)
        for g, val in zip(self.cfg.gammas, moduli):
            if val > self.holder_max.get(float(g), 0.0):
                self.holder_max[float(g)] = float(val)

    def measurements(self) -> dict:
        """The report's measurement block: the running extrema behind
        `checks`, the initial sup sum M and the largest Holder modulus of
        v_d per exponent, keyed "v_d:<gamma>"."""
        return {
            "initial_sup_sum": self.initial_sup_sum,
            "forcing_sup_max": self.forcing_sup_max,
            "z_sup_max": self.z_sup_max,
            "vd_consistency_max": self.vd_consistency_max,
            "zvd_residual_max": self.zvd_residual_max,
            "grad_vd_max": self.grad_vd_max,
            "uhat_sup_max": self.uhat_sup_max,
            "holder": {f"v_d:{g}": value for g, value in self.holder_max.items()},
        }

    def checks(self, t_end: float) -> list[CheckResult]:
        """The report's checks of the a priori bounds for a run ending at
        t_end: z_sup_bound, b_range, uhat_nonnegative, uhat_below_d_zhat and
        uhat_sup_bound, in that order."""
        z_bound = self.initial_sup_sum + self.sys.mass_source_integral(t_end)
        z_tol = _ENVELOPE_SLACK * (1.0 + z_bound)
        lo = 1.0 / float(np.max(self.sys.diffusion)) - _B_TOL
        hi = 1.0 / float(np.min(self.sys.diffusion)) + _B_TOL
        sup_bound = self.cfg.d * z_bound * t_end
        sup_tol = _ENVELOPE_SLACK * (1.0 + sup_bound)
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
                passed=self.uhat_min >= -_UHAT_TOL,
                measured=self.uhat_min,
                bound=0.0,
                tolerance=_UHAT_TOL,
            ),
            CheckResult(
                name="uhat_below_d_zhat",
                passed=self.dzhat_minus_uhat_min >= -_UHAT_TOL,
                measured=self.dzhat_minus_uhat_min,
                bound=0.0,
                tolerance=_UHAT_TOL,
            ),
            CheckResult(
                name="uhat_sup_bound",
                passed=self.uhat_sup_max <= sup_bound + sup_tol,
                measured=self.uhat_sup_max,
                bound=sup_bound,
                tolerance=sup_tol,
            ),
        ]


def entropy_pointwise_worst(u: np.ndarray, f: np.ndarray) -> float | None:
    """Largest per-cell value of sum_i f_i log u_i over strictly positive cells.

    u is a (species, cells) array and f its reaction; the sum is formed in
    every cell and masked afterwards.  Returns None when no cell has all
    species strictly positive.  A reaction that overflows gives an inf or
    nan measurement, without a warning; the CSV reports it as is.
    """
    mask = np.all(u > 0.0, axis=0)
    if not np.any(mask):
        return None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.sum(f * np.log(u), axis=0)
    return float(np.max(vals[mask]))


class InvariantTracker:
    """Running extrema of the primal invariants, fed every StepEvent of a
    run on grid, u0 first, and folded per chunk.

    update() copies an event's time, step size, masses, smallest value,
    flux F = h sum_ij f_ij, clamped mass and entropy into one preallocated
    float64 block.  fold() reduces the block with numpy, when it is full,
    at checks() and whenever its owner asks: it forms each state's total
    mass M and conserved combinations once, and the running extrema take
    in the chunk's.  So the checks see every accepted step whatever the
    recording cadence, one chunk late.  The first state fed sets the
    reference combinations.

    The mass ledger: the solve keeps each row's mass, so a step n -> n + 1
    of size dt has M_{n+1} = M_n + dt F_n + C_{n+1}, C the clamped mass.
    mass_identity is the step's miss of that balance, and mass_envelope the
    excess of M_{n+1} - C_{n+1} over (1 + K1 dt) M_n + dt L K0(t_n), the
    mass control on a domain of length L; both relative to M_n + M_{n+1},
    the envelope's plus dt L |K0(t_n)|.

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
        self.u_min = math.inf
        self.envelope_excess = -math.inf
        self.identity_error = 0.0
        self.entropy_max = -math.inf
        n = sys.n_species
        self._weights = np.array(
            [w for _, w in sys.conservation_laws], dtype=np.float64
        ).reshape(-1, n)
        # Columns: t, masses, total, entropy and laws, the on_fold view;
        # then the state's minimum, dt, flux and clamped masses.
        self._view = n + 3 + len(self._weights)
        self._block = np.empty((_CHUNK, self._view + 3 + n))
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
        row[v] = event.u_new.min()
        row[v + 1] = event.dt
        with np.errstate(over="ignore", invalid="ignore"):
            row[v + 2] = event.f.sum() * self.grid.h
        row[v + 3 :] = event.clamped
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
        _max or _min would: the first extreme entry, NaN first of all.
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
            self.u_min = _min(self.u_min, _first(np.argmin, block[:, v]))
            drift = np.max(np.abs(laws - self.laws0), axis=0).tolist()
            self.law_drift = [_max(a, b) for a, b in zip(self.law_drift, drift)]
            if len(rows) > 1:
                old, new = rows[:-1], rows[1:]
                m_old, m_new, dt = old[:, n + 1], new[:, n + 1], new[:, v + 1]
                clamped = new[:, v + 3 :].sum(axis=1)
                overflow = np.isinf(m_old) | np.isinf(m_new)
                scale = m_old + m_new
                residual = np.abs(m_new - m_old - dt * old[:, v + 2] - clamped)
                source = dt * self.grid.length * sys.mass_source_rate(old[:, 0])
                excess = m_new - (1.0 + sys.k1 * dt) * m_old - source - clamped
                identity = _relative(residual, scale, overflow)
                envelope = _relative(excess, scale + np.abs(source), overflow)
                self.identity_error = _max(self.identity_error, _first(np.argmax, identity))
                self.envelope_excess = _max(self.envelope_excess, _first(np.argmax, envelope))
        if has_entropy.any():
            entropy = _first(np.argmax, block[has_entropy, n + 2])
            self.entropy_max = _max(self.entropy_max, entropy)
        self._last = block[-1:].copy()
        self.total = float(totals[-1])
        self.laws = laws[-1].tolist()
        if self.on_fold is not None:
            self.on_fold(block[:, :v], has_entropy)

    def checks(self) -> list[CheckResult]:
        """The report's primal checks over every state fed so far.

        In order: positivity (no value below zero; the solver clamps inside
        its floor), conservation[label] (relative drift of each declared
        law), mass_envelope and mass_identity (the worst step of the mass
        ledger; a total mass that overflowed fails both), and
        entropy_dissipation (the worst pointwise value) for families whose
        entropy is signed, once it was defined at some step.
        """
        self.fold()
        sys = self.sys
        checks = [
            CheckResult(
                name="positivity",
                passed=self.u_min >= 0.0,
                measured=self.u_min,
                bound=0.0,
                tolerance=0.0,
            )
        ]
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
        checks.append(
            CheckResult(
                name="mass_envelope",
                passed=self.envelope_excess <= _LEDGER_TOL,
                measured=self.envelope_excess,
                bound=0.0,
                tolerance=_LEDGER_TOL,
                detail="worst step of M_new - C <= (1 + K1 dt) M_old + dt L K0, relative",
            )
        )
        checks.append(
            CheckResult(
                name="mass_identity",
                passed=self.identity_error <= _LEDGER_TOL,
                measured=self.identity_error,
                bound=0.0,
                tolerance=_LEDGER_TOL,
                detail="worst step of M_new = M_old + dt F_old + C, relative",
            )
        )
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
