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
state of the run, u0 first, with the masses the solver computed once for
that state and the state's entropy value, formed from the reaction the
solver evaluated once for that state, and keeps running extrema, folded
per chunk: the smallest value (positivity), the drift of each conserved
combination, the excess over the mass envelope, the error of the exact
geometric mass decay, and the largest entropy production.  A state costs
a few writes into a preallocated block; the totals, the conserved
combinations and the extrema are numpy reductions over a chunk of states,
equal bit for bit to the state by state ones.  Each tracker's `checks`
turns its own extrema into the report's verdicts, which therefore do not
depend on the recording cadence.
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
_MASS_IDENTITY_TOL = 1e-9
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
    """Running extrema of the primal invariants, fed once per state and
    folded per chunk.

    update() copies a state's time, masses, smallest value and entropy
    into one preallocated float64 block.  fold() reduces the block with
    numpy, when it is full, at checks() and whenever its owner asks: it
    forms each state's total mass and conserved combinations once, and the
    running extrema take in the chunk's.  So the positivity, conservation,
    mass-envelope, mass-identity and entropy checks see every accepted
    step whatever the recording cadence, one chunk late.  The first state
    fed sets the reference masses.

    on_fold, if given, is called by every fold with the chunk's states
    before the block is reused: a (states, species + 3 + laws) view whose
    columns are t, the masses, the total mass, the entropy and the
    conserved combinations, and a bool array, False where the entropy was
    None.  Both are valid during the call only.
    """

    def __init__(self, sys: ReactionSystem, domain_length: float, on_fold=None):
        self.sys = sys
        self.domain_length = domain_length
        self.on_fold = on_fold
        self.t = None
        self.total = 0.0
        self.laws = []
        self.laws0 = []
        self.law_drift = [0.0] * len(sys.conservation_laws)
        self.mass0 = 0.0
        self.u_min = math.inf
        self.envelope_excess = -math.inf
        self.identity_error = 0.0
        self.entropy_max = -math.inf
        self._identity_mass = 0.0
        n = sys.n_species
        self._weights = np.array(
            [w for _, w in sys.conservation_laws], dtype=np.float64
        ).reshape(-1, n)
        # Columns: t, masses, total, entropy, laws, and the state's minimum.
        self._block = np.empty((_CHUNK, n + 4 + len(self._weights)))
        self._has_entropy = np.empty(_CHUNK, dtype=bool)
        self._held = 0

    def update(self, t: float, u: np.ndarray, masses: np.ndarray, entropy) -> None:
        """Feed one state: time, (species, cells) array, per-species masses,
        and its entropy_pointwise_worst value (None when undefined).

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
        row = self._block[i]
        row[0] = t
        row[1 : n + 1] = masses
        row[-1] = u.min()
        self._has_entropy[i] = entropy is not None
        if entropy is not None:
            row[n + 2] = entropy
        self._held = i + 1

    def fold(self) -> None:
        """Take the states fed since the last fold into the running extrema,
        then hand them to on_fold.

        Per chunk: one sum per state for the total (numpy's, as np.sum of
        the state's masses), one product with the law weights, a scalar
        mass_envelope per state, and the exact geometric decay as a
        sequential product.  Each extremum keeps the value a state by state
        _max or _min would: the first extreme entry, NaN first of all.
        """
        k = self._held
        if k == 0:
            return
        self._held = 0
        sys = self.sys
        n = sys.n_species
        block = self._block[:k]
        t = block[:, 0]
        has_entropy = self._has_entropy[:k]
        masses = block[:, 1 : n + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            totals = masses.sum(axis=1)
            laws = masses @ self._weights.T
            block[:, n + 1] = totals
            block[:, n + 3 : -1] = laws
            if self.t is None:
                self.t = float(t[0])
                self.mass0 = self._identity_mass = float(totals[0])
                self.laws0 = laws[0].tolist()
            self.u_min = _min(self.u_min, _first(np.argmin, block[:, -1]))
            drift = np.max(np.abs(laws - self.laws0), axis=0).tolist()
            self.law_drift = [_max(d, v) for d, v in zip(self.law_drift, drift)]
            envelope = np.array(
                [sys.mass_envelope(s, self.mass0, self.domain_length) for s in t.tolist()]
            )
            # A total that overflowed is not shown to stay under the envelope.
            excess = np.where(np.isfinite(totals), totals - envelope, math.inf)
            self.envelope_excess = _max(self.envelope_excess, _first(np.argmax, excess))
            tau = sys.uniform_decay_rate
            if tau is not None:
                # One accepted step multiplies the total mass by 1 - tau dt.
                factors = 1.0 - tau * np.diff(t, prepend=self.t)
                mass = np.multiply.accumulate(np.append(self._identity_mass, factors))[1:]
                ref = max(abs(self.mass0), _TOTAL_MASS_FLOOR)
                error = float(np.max(np.abs(totals - mass) / ref))
                self.identity_error = _max(self.identity_error, error)
                self._identity_mass = float(mass[-1])
        if has_entropy.any():
            entropy = _first(np.argmax, block[has_entropy, n + 2])
            self.entropy_max = _max(self.entropy_max, entropy)
        self.t = float(t[-1])
        self.total = float(totals[-1])
        self.laws = laws[-1].tolist()
        if self.on_fold is not None:
            self.on_fold(block[:, :-1], has_entropy)

    def checks(self) -> list[CheckResult]:
        """The report's primal checks over every state fed so far.

        In order: positivity (no value below zero; the solver clamps inside
        its floor), conservation[label] (relative drift of each declared
        law) and mass_envelope (a total mass that overflowed fails, the
        initial one included).  Then mass_identity (the exact geometric
        decay, over the actual step sizes) for systems with a uniform decay
        rate, and entropy_dissipation (the worst pointwise value) for
        families whose entropy is signed, once it was defined at some step.
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
        tol = _ENVELOPE_SLACK * (1.0 + self.mass0)
        checks.append(
            CheckResult(
                name="mass_envelope",
                passed=self.envelope_excess <= tol < math.inf,
                measured=self.envelope_excess,
                bound=0.0,
                tolerance=tol,
            )
        )
        if sys.uniform_decay_rate is not None:
            checks.append(
                CheckResult(
                    name="mass_identity",
                    passed=self.identity_error <= _MASS_IDENTITY_TOL,
                    measured=self.identity_error,
                    bound=0.0,
                    tolerance=_MASS_IDENTITY_TOL,
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
