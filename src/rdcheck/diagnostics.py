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
solver evaluated once for that state, and keeps running extrema: the
smallest value (positivity), the drift of each conserved combination, the
excess over the mass envelope, the error of the exact geometric mass
decay, and the largest entropy production.  Each
tracker's `checks` turns its own extrema into the report's verdicts, which
therefore do not depend on the recording cadence.
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


def _max(a: float, b: float) -> float:
    """max(a, b), or NaN if either is NaN (np.maximum's rule), so that a
    running maximum keeps a measurement that is not a number and its check
    fails on it; Python's max(a, nan) keeps a."""
    return b if b > a or b != b else a


def _min(a: float, b: float) -> float:
    """min(a, b), or NaN if either is NaN, as _max."""
    return b if b < a or b != b else a


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
            # v_d's source is the forcing _observe computed from u_old.
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
    """Running extrema of the primal invariants, fed once per state.

    Like AuxiliaryTracker it keeps running values only, so the positivity,
    conservation, mass-envelope, mass-identity and entropy checks see every
    accepted step whatever the recording cadence.  The first update is the
    initial state and sets the reference masses.
    """

    def __init__(self, sys: ReactionSystem, domain_length: float):
        self.sys = sys
        self.domain_length = domain_length
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

    def update(self, t: float, u: np.ndarray, masses: np.ndarray, entropy) -> None:
        """Feed one state: time, (species, cells) array, per-species masses,
        and its entropy_pointwise_worst value (None when undefined).

        Afterwards `total` and `laws` hold the state's total mass and
        conserved combinations; one that overflows is inf or nan, without a
        warning.
        """
        sys = self.sys
        with np.errstate(over="ignore", invalid="ignore"):
            total = self.total = float(np.sum(masses))
            self.laws = [float(np.dot(w, masses)) for _, w in sys.conservation_laws]
        if self.t is None:
            self.t = t
            self.laws0 = self.laws
            self.mass0 = total
            self._identity_mass = total
        self.u_min = _min(self.u_min, float(np.min(u)))
        self.law_drift = [
            _max(d, abs(v - v0)) for d, v, v0 in zip(self.law_drift, self.laws, self.laws0)
        ]
        envelope = sys.mass_envelope(t, self.mass0, self.domain_length)
        # A total that overflowed is not shown to stay under the envelope.
        excess = total - envelope if math.isfinite(total) else math.inf
        self.envelope_excess = _max(self.envelope_excess, excess)
        tau = sys.uniform_decay_rate
        if tau is not None:
            # One accepted step multiplies the total mass by 1 - tau dt.
            self._identity_mass *= 1.0 - tau * (t - self.t)
            ref = max(abs(self.mass0), _TOTAL_MASS_FLOOR)
            self.identity_error = _max(
                self.identity_error, abs(total - self._identity_mass) / ref
            )
        if entropy is not None:
            self.entropy_max = _max(self.entropy_max, entropy)
        self.t = t

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
