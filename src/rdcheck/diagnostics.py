"""Auxiliary smoothing fields and the runtime check battery.

Alongside the primal species the tracker integrates, with a single shared
diffusion constant d chosen strictly above every species coefficient:

* per-species smoothings v_i solving  dv_i/dt - d L v_i = u_i,  v_i(0) = 0;
* a total-mass field z solving       dz/dt - d L z = K0(t),     z(0) = sum_i u_i(0),
  where K0(t) is the system's mass source (constant, or K0 e^{-K1 t} for
  time-rescaled systems);
* time accumulators z_hat = integral of z and u_hat = integral of
  sum_i d_i u_i, both trapezoidal.

These produce the combination v_d = sum_i (d - d_i) v_i, which the theory
pins down three independent ways, each checked here numerically:

* route consistency: v_d = d z_hat - u_hat up to O(dt) discretization
  (`vd_consistency`, expected to shrink first order under refinement);
* the elliptic identity z - L v_d = sum_i u_i (`zvd_residual`);
* a priori bounds: sup|z| <= M + integral K0, the weight
  b = sum u_i / sum d_i u_i trapped in [1/max d_i, 1/min d_i], and
  0 <= u_hat <= d z_hat with sup|u_hat| <= d (M + integral K0) T.

The tracker is a solver hook: it advances with the accepted steps and keeps
running extrema, so bounds are checked against the whole history, not just
recorded snapshots.  Holder moduli are measured on recorded snapshots only,
with one `holder_modulus` call on the stacked (v_d, z_hat, u_hat) rows; the
lag sweep behind it is O(n) memory and O(n^2) time in the worst case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import Field, holder_modulus, laplacian_values
from .models import ReactionSystem
from .solver import StepEvent, SystemState, Trajectory, implicit_heat_step
from .theory import InterpolationConstants

__all__ = [
    "AuxiliaryConfig",
    "AuxiliaryState",
    "AuxiliaryTracker",
    "CheckResult",
    "entropy_pointwise_worst",
    "check_z_bound",
    "check_b_range",
    "check_uhat_bounds",
    "check_conservation_laws",
    "check_mass_envelope",
    "check_mass_identity",
    "check_entropy",
    "check_positivity",
    "RunMeasurement",
    "interpolation_scaling_check",
    "loglog_slope",
]

_TOTAL_MASS_FLOOR = 1e-12
_B_TOL = 1e-9
_UHAT_TOL = 1e-9
_CONS_TOL = 1e-8
_ENVELOPE_SLACK = 1e-6
_ENTROPY_TOL = 1e-12
_MASS_IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class AuxiliaryConfig:
    """Auxiliary-field parameters.

    Attributes:
        d: shared auxiliary diffusion; must exceed every species coefficient
            strictly (validated against the system at tracker construction).
        gammas: Holder exponents measured on recorded snapshots.
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


@dataclass(frozen=True)
class AuxiliaryState:
    """Snapshot of the auxiliary fields at one instant."""

    t: float
    v: tuple
    z: Field
    z_hat: Field
    u_hat: Field
    v_d: Field
    b: Field


class AuxiliaryTracker:
    """Solver hook advancing the auxiliary fields with the primal run."""

    def __init__(self, sys: ReactionSystem, initial: SystemState, cfg: AuxiliaryConfig):
        d_max = float(np.max(sys.diffusion))
        if cfg.d <= d_max:
            raise ValueError(
                f"auxiliary diffusion d = {cfg.d} must strictly exceed the "
                f"largest species diffusion {d_max}"
            )
        self.sys = sys
        self.cfg = cfg
        self.grid = initial.grid
        self.t = 0.0
        n = sys.n_species
        cells = self.grid.n_cells
        u0 = initial.stacked()
        self._u_last = u0
        self._v = np.zeros((n, cells))
        self._z = np.sum(u0, axis=0) + cfg.z_offset
        self._z_hat = np.zeros(cells)
        self._u_hat = np.zeros(cells)
        self._weights = np.asarray(sys.diffusion, dtype=np.float64)
        self._s_prev = np.tensordot(self._weights, u0, axes=1)
        self._z_prev = self._z.copy()
        # M = sum of per-species initial sup norms, the constant in the
        # z and u_hat bounds.
        self.initial_sup_sum = float(
            np.sum([np.max(np.abs(u0[i])) for i in range(n)])
        )
        self.z_sup_max = float(np.max(np.abs(self._z)))
        self.vd_consistency_max = 0.0
        self.zvd_residual_max = 0.0
        self.grad_vd_max = 0.0
        self.forcing_sup_max = self._forcing_sup(u0)
        self.uhat_min = 0.0
        self.uhat_sup_max = 0.0
        self.dzhat_minus_uhat_min = 0.0
        self.holder_max: dict = {}
        b = self._b_values(u0)
        self.b_min = float(np.min(b))
        self.b_max = float(np.max(b))
        self._row = self._compute_row(u0)

    def _forcing_sup(self, u: np.ndarray) -> float:
        u_d = np.tensordot(self.cfg.d - self._weights, u, axes=1)
        return float(np.max(np.abs(u_d)))

    def _b_values(self, u: np.ndarray) -> np.ndarray:
        total = np.sum(u, axis=0)
        weighted = np.tensordot(self._weights, u, axes=1)
        fallback = 1.0 / float(self._weights[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            b = np.where(total > _TOTAL_MASS_FLOOR, total / weighted, fallback)
        return b

    def _vd_values(self) -> np.ndarray:
        return np.tensordot(self.cfg.d - self._weights, self._v, axes=1)

    def on_step(self, event: StepEvent) -> None:
        u_old = event.state_old.stacked()
        u_new = event.state_new.stacked()
        dt = event.dt
        d = self.cfg.d
        k0_old = self.sys.mass_source_rate(event.t_old)
        rows = implicit_heat_step(
            np.vstack((self._v, self._z)),
            self.grid,
            d,
            dt,
            np.vstack((u_old, np.full(self.grid.n_cells, k0_old))),
        )
        # Same clamp policy as the solver.  The exact implicit step keeps
        # v nonnegative; the spectral solve leaves rounding dust of either
        # sign around that, and only the negative dust is clamped.
        self._v = np.maximum(rows[:-1], 0.0)
        self._z = rows[-1]
        s_new = np.tensordot(self._weights, u_new, axes=1)
        self._z_hat = self._z_hat + 0.5 * dt * (self._z_prev + self._z)
        self._u_hat = self._u_hat + 0.5 * dt * (self._s_prev + s_new)
        self._z_prev = self._z.copy()
        self._s_prev = s_new
        self.t = event.t_new

        self.z_sup_max = max(self.z_sup_max, float(np.max(np.abs(self._z))))
        self.forcing_sup_max = max(self.forcing_sup_max, self._forcing_sup(u_new))
        b = self._b_values(u_new)
        self.b_min = min(self.b_min, float(np.min(b)))
        self.b_max = max(self.b_max, float(np.max(b)))
        self.uhat_min = min(self.uhat_min, float(np.min(self._u_hat)))
        self.uhat_sup_max = max(self.uhat_sup_max, float(np.max(np.abs(self._u_hat))))
        gap = d * self._z_hat - self._u_hat
        self.dzhat_minus_uhat_min = min(self.dzhat_minus_uhat_min, float(np.min(gap)))
        self._u_last = u_new
        self._row = self._compute_row(u_new, gap)

    def _compute_row(self, u: np.ndarray, gap: np.ndarray | None = None) -> dict:
        v_d = self._vd_values()
        if gap is None:
            gap = self.cfg.d * self._z_hat - self._u_hat
        consistency = float(np.max(np.abs(v_d - gap)))
        zvd = float(
            np.max(
                np.abs(
                    self._z
                    - laplacian_values(v_d, self.grid.h)
                    - np.sum(u, axis=0)
                )
            )
        )
        gvd = float(np.max(np.abs(np.diff(v_d))) / self.grid.h) if v_d.size > 1 else 0.0
        self.vd_consistency_max = max(self.vd_consistency_max, consistency)
        self.zvd_residual_max = max(self.zvd_residual_max, zvd)
        self.grad_vd_max = max(self.grad_vd_max, gvd)
        b = self._b_values(u)
        return {
            "z_sup": float(np.max(np.abs(self._z))),
            "b_min": float(np.min(b)),
            "b_max": float(np.max(b)),
            "vd_consistency": consistency,
            "zvd_residual": zvd,
            "grad_vd_sup": gvd,
        }

    def row_values(self) -> dict:
        """Diagnostic CSV values at the current (synchronized) time."""
        return dict(self._row)

    def measure_holder(self) -> None:
        """Update running Holder moduli; called at recorded snapshots."""
        names = ("v_d", "z_hat", "u_hat")
        stacked = np.stack([self._vd_values(), self._z_hat, self._u_hat])
        moduli = holder_modulus(stacked, self.grid.h, self.cfg.gammas)
        for name, row in zip(names, moduli):
            for g, val in zip(self.cfg.gammas, row):
                key = (name, float(g))
                if val > self.holder_max.get(key, 0.0):
                    self.holder_max[key] = float(val)

    def snapshot(self) -> AuxiliaryState:
        return AuxiliaryState(
            t=self.t,
            v=tuple(Field(self.grid, v) for v in self._v),
            z=Field(self.grid, self._z),
            z_hat=Field(self.grid, self._z_hat),
            u_hat=Field(self.grid, self._u_hat),
            v_d=Field(self.grid, self._vd_values()),
            b=Field(self.grid, self._b_values(self._u_last)),
        )


@dataclass(frozen=True)
class CheckResult:
    """One named check: measured value vs. bound, with a verdict.

    `passed` is None for purely informational entries (reported quantities
    that carry no absolute threshold, such as the refinement-monitored
    residuals).
    """

    name: str
    passed: bool | None
    measured: float | None = None
    bound: float | None = None
    tolerance: float | None = None
    detail: str = ""


def entropy_pointwise_worst(sys: ReactionSystem, state: SystemState) -> float | None:
    """Largest per-cell value of sum_i f_i log u_i over strictly positive cells.

    Returns None when no cell has all species strictly positive.
    """
    u = state.stacked()
    mask = np.all(u > 0.0, axis=0)
    if not np.any(mask):
        return None
    sub = u[:, mask]
    f = np.asarray(sys.evaluator(sub, state.t), dtype=np.float64)
    vals = np.sum(f * np.log(sub), axis=0)
    return float(np.max(vals))


def check_z_bound(tracker: AuxiliaryTracker, t_end: float) -> CheckResult:
    """sup over the run of sup_x |z| against M + integral of K0."""
    m = tracker.initial_sup_sum
    bound = m + tracker.sys.mass_source_integral(t_end)
    tol = _ENVELOPE_SLACK * (1.0 + bound)
    measured = tracker.z_sup_max
    return CheckResult(
        name="z_sup_bound",
        passed=measured <= bound + tol,
        measured=measured,
        bound=bound,
        tolerance=tol,
    )


def check_b_range(tracker: AuxiliaryTracker) -> CheckResult:
    """b trapped between the reciprocal extreme diffusions."""
    lo = 1.0 / float(np.max(tracker.sys.diffusion)) - _B_TOL
    hi = 1.0 / float(np.min(tracker.sys.diffusion)) + _B_TOL
    ok = tracker.b_min >= lo and tracker.b_max <= hi
    return CheckResult(
        name="b_range",
        passed=ok,
        measured=tracker.b_min,
        bound=tracker.b_max,
        tolerance=_B_TOL,
        detail=f"interval [{lo}, {hi}]",
    )


def check_uhat_bounds(tracker: AuxiliaryTracker, t_end: float) -> list:
    """0 <= u_hat <= d z_hat pointwise, and the sup bound on u_hat."""
    m = tracker.initial_sup_sum
    sys = tracker.sys
    d = tracker.cfg.d
    sup_bound = d * (m + sys.mass_source_integral(t_end)) * t_end
    sup_tol = _ENVELOPE_SLACK * (1.0 + sup_bound)
    return [
        CheckResult(
            name="uhat_nonnegative",
            passed=tracker.uhat_min >= -_UHAT_TOL,
            measured=tracker.uhat_min,
            bound=0.0,
            tolerance=_UHAT_TOL,
        ),
        CheckResult(
            name="uhat_below_d_zhat",
            passed=tracker.dzhat_minus_uhat_min >= -_UHAT_TOL,
            measured=tracker.dzhat_minus_uhat_min,
            bound=0.0,
            tolerance=_UHAT_TOL,
        ),
        CheckResult(
            name="uhat_sup_bound",
            passed=tracker.uhat_sup_max <= sup_bound + sup_tol,
            measured=tracker.uhat_sup_max,
            bound=sup_bound,
            tolerance=sup_tol,
        ),
    ]


def check_conservation_laws(traj: Trajectory, sys: ReactionSystem) -> list:
    """Relative drift of each declared linear invariant of the reaction."""
    results = []
    if not sys.conservation_laws:
        return results
    masses = np.stack([e.masses for e in traj.entries])
    for label, weights in sys.conservation_laws:
        series = masses @ weights
        ref = max(abs(float(series[0])), _TOTAL_MASS_FLOOR)
        drift = float(np.max(np.abs(series - series[0]))) / ref
        results.append(
            CheckResult(
                name=f"conservation[{label}]",
                passed=drift <= _CONS_TOL,
                measured=drift,
                bound=0.0,
                tolerance=_CONS_TOL,
            )
        )
    return results


def check_mass_envelope(traj: Trajectory, sys: ReactionSystem, domain: float) -> CheckResult:
    """Total mass below the integrating-factor envelope at every snapshot."""
    total = np.array([float(np.sum(e.masses)) for e in traj.entries])
    times = traj.times
    m0 = float(total[0])
    worst_excess = -math.inf
    k1 = sys.k1
    dec = sys.k0_decay
    for t, m in zip(times, total):
        grow = math.exp(k1 * t)
        if sys.k0 == 0.0:
            src = 0.0
        else:
            a = k1 + dec
            if a == 0.0:
                src = sys.k0 * grow * t
            else:
                src = sys.k0 * grow * (1.0 - math.exp(-a * t)) / a
        envelope = grow * m0 + domain * src
        worst_excess = max(worst_excess, float(m) - envelope)
    tol = _ENVELOPE_SLACK * (1.0 + m0)
    return CheckResult(
        name="mass_envelope",
        passed=worst_excess <= tol,
        measured=worst_excess,
        bound=0.0,
        tolerance=tol,
    )


def check_mass_identity(traj: Trajectory, sys: ReactionSystem) -> CheckResult | None:
    """Exact geometric mass decay for equal-decay skew Lotka-Volterra runs.

    Valid only when every accepted step is recorded (record_every = 1), so
    the recorded time increments are the actual step sizes.  Returns None
    for systems without a uniform decay rate.
    """
    tau = sys.uniform_decay_rate
    if tau is None:
        return None
    total = np.array([float(np.sum(e.masses)) for e in traj.entries])
    times = traj.times
    expected = total[0]
    worst = 0.0
    ref = max(abs(total[0]), _TOTAL_MASS_FLOOR)
    for k in range(1, len(total)):
        dt_k = times[k] - times[k - 1]
        expected = expected * (1.0 - tau * dt_k)
        worst = max(worst, abs(total[k] - expected) / ref)
    return CheckResult(
        name="mass_identity",
        passed=worst <= _MASS_IDENTITY_TOL,
        measured=worst,
        bound=0.0,
        tolerance=_MASS_IDENTITY_TOL,
    )


def check_entropy(traj: Trajectory, sys: ReactionSystem) -> CheckResult | None:
    """Worst recorded pointwise dissipation, for families where it is signed."""
    if not sys.entropy_nonpositive:
        return None
    worst = -math.inf
    for e in traj.entries:
        val = entropy_pointwise_worst(sys, e.state)
        if val is not None:
            worst = max(worst, val)
    if worst == -math.inf:
        return None
    return CheckResult(
        name="entropy_dissipation",
        passed=worst <= _ENTROPY_TOL,
        measured=worst,
        bound=0.0,
        tolerance=_ENTROPY_TOL,
    )


def check_positivity(traj: Trajectory) -> CheckResult:
    """No recorded value below zero (the solver clamps inside the floor)."""
    worst = min(
        float(np.min(f.values)) for e in traj.entries for f in e.state.fields
    )
    return CheckResult(
        name="positivity",
        passed=worst >= 0.0,
        measured=worst,
        bound=0.0,
        tolerance=0.0,
    )


@dataclass(frozen=True)
class RunMeasurement:
    """Per-run triple entering the interpolation scaling check."""

    grad_sup: float
    holder: float
    forcing_sup: float


def interpolation_scaling_check(
    measurements, constants: InterpolationConstants
) -> CheckResult:
    """Scaling of measured gradients against B H^{1/(2-g)} F^{(1-g)/(2-g)}.

    Regresses log(measured gradient) on log(predicted bound) across a family
    of runs; a slope at or below 1.1 means the measured growth does not
    outrun the predicted one.  Vacuously passes on all-zero data.

    Raises:
        ConfigError: with fewer than 3 runs.
    """
    measurements = list(measurements)
    if len(measurements) < 3:
        raise ConfigError(
            f"interpolation scaling check needs at least 3 runs, got "
            f"{len(measurements)}"
        )
    g = constants.gamma
    bounds = []
    grads = []
    for m in measurements:
        bound = (
            constants.b
            * m.holder ** (1.0 / (2.0 - g))
            * m.forcing_sup ** ((1.0 - g) / (2.0 - g))
        )
        bounds.append(bound)
        grads.append(m.grad_sup)
    if all(v == 0.0 for v in grads):
        return CheckResult(
            name="interpolation_scaling",
            passed=True,
            measured=0.0,
            bound=0.0,
            tolerance=0.1,
            detail="vacuous: zero data",
        )
    if any(v <= 0.0 for v in bounds) or any(v <= 0.0 for v in grads):
        return CheckResult(
            name="interpolation_scaling",
            passed=False,
            measured=min(grads),
            bound=min(bounds),
            tolerance=0.1,
            detail="degenerate family: nonpositive measurement or bound",
        )
    slope = loglog_slope(bounds, grads)
    return CheckResult(
        name="interpolation_scaling",
        passed=slope <= 1.1,
        measured=slope,
        bound=1.0,
        tolerance=0.1,
    )


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x (>= 2 distinct points)."""
    lx = np.log(np.asarray(x, dtype=np.float64))
    ly = np.log(np.asarray(y, dtype=np.float64))
    if lx.size < 2 or np.max(lx) == np.min(lx):
        raise ValueError("log-log slope needs at least two distinct abscissae")
    dx = lx - np.mean(lx)
    return float(np.dot(dx, ly - np.mean(ly)) / np.dot(dx, dx))
