"""End-to-end experiment orchestration: run, check, fit, and emit.

This layer wires a validated RunConfig into the solver, the structure
audits, the auxiliary-field tracker and the invariant checks (both fed
every accepted step), then serializes the results:

* a CSV trace with one row per recorded snapshot (columns fixed by
  _Recorder; diagnostics cells are empty when the tracker is off);
* a JSON report echoing the config with its sha256, every check verdict,
  fitted rates, and an overall pass / fail / aborted verdict.

Both files are written atomically (temp file + os.replace) so a crashed
run never leaves a half-written artifact at the target path.  A
NumericalFailure mid-run flushes the rows recorded so far and reports the
abort instead of raising through.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, build_initial_state
from .diagnostics import (
    AuxiliaryConfig,
    AuxiliaryTracker,
    CheckResult,
    InvariantTracker,
    check_b_range,
    check_conservation_laws,
    check_entropy,
    check_mass_envelope,
    check_mass_identity,
    check_positivity,
    check_uhat_bounds,
    check_z_bound,
    entropy_pointwise_worst,
)
from .errors import ConfigError, NumericalFailure
from .models import ReactionSystem, StructureVerdict, check_structure
from .solver import (
    StepEvent,
    SystemState,
    Trajectory,
    row_norms,
    run_simulation,
)
from .theory import fit_rate, quad_equilibrium
from .transform import augment_system, verify_augmented

__all__ = ["ExperimentOutcome", "run_experiment", "config_sha256", "write_atomic"]

_QUAD_LAW_LABELS = ("u1+u3", "u2+u3", "u2+u4")


@dataclass
class ExperimentOutcome:
    """Everything one experiment produced, in memory."""

    report: dict
    csv_text: str
    trajectory: Trajectory | None
    tracker: AuxiliaryTracker | None
    augmented: bool
    aborted: bool

    @property
    def passed(self) -> bool:
        return self.report["overall"] == "pass"


def config_sha256(raw: dict) -> str:
    """Digest of the canonical (sorted, compact) JSON form of a config."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_atomic(path: str, text: str) -> None:
    """Write text so the target path is never seen half-written."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _num(value):
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def _check_dict(c: CheckResult) -> dict:
    return {
        "name": c.name,
        "passed": None if c.passed is None else bool(c.passed),
        "measured": _num(c.measured),
        "bound": _num(c.bound),
        "tolerance": _num(c.tolerance),
        "detail": c.detail,
    }


def _point_str(point) -> str:
    return "[" + ", ".join(repr(float(v)) for v in np.asarray(point)) + "]"


def _verdict_checks(prefix: str, verdict: StructureVerdict, conservation: bool) -> list:
    """Flatten a sampled StructureVerdict into named CheckResults."""
    qp = verdict.quasi_positive
    qp_detail = ""
    if qp.witness is not None:
        species, point, value = qp.witness
        qp_detail = f"species {species} reaches {value} at {_point_str(point)}"
    mc = verdict.mass_control
    mc_detail = ""
    if mc.witness is not None:
        if conservation:
            point, t, total, target = mc.witness
            mc_detail = f"sum {total} vs target {target} at t = {t}, w = {_point_str(point)}"
        else:
            point, total, allowance = mc.witness
            mc_detail = f"sum {total} exceeds allowance {allowance} at {_point_str(point)}"
    mass_name = "conservation_residual" if conservation else "mass_control"
    return [
        CheckResult(
            name=f"{prefix}_quasi_positivity",
            passed=qp.passed,
            measured=qp.worst,
            bound=0.0,
            detail=qp_detail or f"{verdict.samples_used} samples",
        ),
        CheckResult(
            name=f"{prefix}_{mass_name}",
            passed=mc.passed,
            measured=mc.worst,
            bound=0.0,
            detail=mc_detail,
        ),
        CheckResult(
            name=f"{prefix}_growth",
            passed=verdict.growth.passed,
            measured=verdict.growth.worst,
            bound=1.0,
            detail="worst sampled ratio against the declared envelope",
        ),
    ]


class _Recorder:
    """Solver hook measuring each state once: it feeds the invariant checks
    at every accepted step and writes a CSV row at each recorded one.

    The entropy value is computed only where a row or the entropy check
    needs it, and both share it.  Runs after the AuxiliaryTracker hook so
    the diagnostic cells it reads are synchronized with the primal state of
    the same step.
    """

    def __init__(
        self,
        system: ReactionSystem,
        initial: SystemState,
        tracker: AuxiliaryTracker | None,
    ):
        self.system = system
        self.tracker = tracker
        self.invariants = InvariantTracker(system, initial.grid.length)
        self.n_accepted = 0
        n = system.n_species
        columns = (
            ["t"]
            + [f"sup_u_{i + 1}" for i in range(n)]
            + [f"mass_{i + 1}" for i in range(n)]
            + ["mass_total", "entropy"]
            + [f"cons_law_{j + 1}" for j in range(len(system.conservation_laws))]
            + ["z_sup", "b_min", "b_max", "vd_consistency", "zvd_residual", "grad_vd_sup"]
        )
        self.rows = [",".join(columns)]
        u0 = initial.stacked()
        self._observe(0.0, u0, *row_norms(u0, initial.grid.h), True)

    def _observe(self, t, u, sup_norms, masses, recorded: bool) -> None:
        entropy = None
        if recorded or self.system.entropy_nonpositive:
            entropy = entropy_pointwise_worst(self.system, u, t)
        self.invariants.update(t, u, masses, entropy)
        if not recorded:
            return
        if self.tracker is not None:
            self.tracker.measure_holder()
            d = self.tracker.row_values()
            diag = [
                d["z_sup"], d["b_min"], d["b_max"],
                d["vd_consistency"], d["zvd_residual"], d["grad_vd_sup"],
            ]
        else:
            diag = [None] * 6
        inv = self.invariants
        cells = [t, *sup_norms, *masses, inv.total, entropy, *inv.laws, *diag]
        self.rows.append(",".join(_fmt(c) for c in cells))

    def on_step(self, event: StepEvent) -> None:
        self.n_accepted += 1
        self._observe(
            event.t_new, event.u_new, event.sup_norms, event.masses, event.recorded
        )

    def text(self) -> str:
        return "\n".join(self.rows) + "\n"


def _series_values(entries, series: str, system: ReactionSystem, domain_length: float):
    """Extract one named time series from trajectory entries."""
    if series == "mass_total":
        return [float(np.sum(e.masses)) for e in entries]
    if series == "sup_total":
        return [float(np.sum(e.sup_norms)) for e in entries]
    labels = tuple(label for label, _ in system.conservation_laws)
    if labels != _QUAD_LAW_LABELS:
        raise ValueError(
            "distance_to_equilibrium needs the four-species reversible family"
        )
    masses0 = entries[0].masses
    law = dict(zip(labels, (w for _, w in system.conservation_laws)))
    m13 = float(np.dot(law["u1+u3"], masses0)) / domain_length
    m23 = float(np.dot(law["u2+u3"], masses0)) / domain_length
    m24 = float(np.dot(law["u2+u4"], masses0)) / domain_length
    eq = quad_equilibrium(m13, m23, m24).as_array()
    out = []
    for e in entries:
        out.append(float(np.sum(np.max(np.abs(e.u - eq[:, None]), axis=1))))
    return out


def _run_fits(cfg: RunConfig, traj: Trajectory, system: ReactionSystem):
    """Evaluate every configured fit; errors become failed checks."""
    fit_entries = []
    fit_checks = []
    for spec in cfg.fits:
        t0, t1 = spec["window"]
        entry = {
            "series": spec["series"],
            "mode": spec["mode"],
            "window": [t0, t1],
        }
        try:
            values = _series_values(
                traj.entries, spec["series"], system, cfg.grid.length
            )
            pairs = [
                (e.t, v)
                for e, v in zip(traj.entries, values)
                if t0 <= e.t <= t1
            ]
            times = [p[0] for p in pairs]
            ys = [p[1] for p in pairs]
            result = fit_rate(times, ys, spec["mode"])
        except ValueError as exc:
            entry["error"] = str(exc)
            fit_checks.append(
                CheckResult(
                    name=f"fit_{spec['series']}",
                    passed=False,
                    detail=f"fit failed: {exc}",
                )
            )
        else:
            entry["rate"] = _num(result.rate)
            entry["prefactor"] = _num(result.prefactor)
            entry["r_squared"] = _num(result.r_squared)
            entry["n_samples"] = len(times)
            if spec["bias_correct"] and spec["mode"] == "exponential":
                dt = cfg.solver.dt
                if dt < 1.0:
                    # One implicit step multiplies a unit-rate decay by
                    # 1 - dt, so the discrete log-slope carries a factor
                    # -log(1 - dt)/dt; divide it back out.
                    entry["corrected_rate"] = _num(
                        result.rate * dt / (-math.log1p(-dt))
                    )
        fit_entries.append(entry)
    return fit_entries, fit_checks


def _measurement_block(tracker: AuxiliaryTracker | None):
    if tracker is None:
        return None
    holder = {
        f"{name}:{gamma}": _num(value)
        for (name, gamma), value in sorted(tracker.holder_max.items())
    }
    return {
        "initial_sup_sum": _num(tracker.initial_sup_sum),
        "forcing_sup_max": _num(tracker.forcing_sup_max),
        "z_sup_max": _num(tracker.z_sup_max),
        "vd_consistency_max": _num(tracker.vd_consistency_max),
        "zvd_residual_max": _num(tracker.zvd_residual_max),
        "grad_vd_max": _num(tracker.grad_vd_max),
        "uhat_sup_max": _num(tracker.uhat_sup_max),
        "holder": holder,
    }


def run_experiment(cfg: RunConfig, augment_override: bool | None = None) -> ExperimentOutcome:
    """Run one configured experiment end to end and emit its artifacts.

    Args:
        cfg: validated configuration.
        augment_override: force the closure transform on or off regardless
            of the config (CLI --augment); None keeps the config's choice.

    Returns:
        ExperimentOutcome; .aborted is True when the solver could not
        restore positivity or finiteness within the halving budget (partial
        CSV still emitted).

    Raises:
        ConfigError: if the override makes the diagnostics configuration
            inconsistent (auxiliary diffusion not above every species).
    """
    augment = cfg.augment if augment_override is None else augment_override
    base = cfg.system
    rng = np.random.default_rng(cfg.seed)

    checks: list[CheckResult] = []
    verdict = check_structure(base, rng)
    checks.extend(_verdict_checks("structure", verdict, conservation=False))

    if augment:
        pair = augment_system(base)
        system = pair.augmented
        aug_verdict = verify_augmented(
            pair,
            rng,
            t_horizon=cfg.solver.t_end,
            g_tail_offset=cfg.inject_augmentation_offset,
        )
        checks.extend(_verdict_checks("augmented", aug_verdict, conservation=True))
    else:
        system = base

    initial = build_initial_state(cfg, extra_zero_species=augment)

    tracker = None
    if cfg.diagnostics_enabled:
        try:
            tracker = AuxiliaryTracker(
                system,
                initial,
                AuxiliaryConfig(
                    d=cfg.diagnostics_d,
                    gammas=cfg.diagnostics_gammas,
                    z_offset=cfg.inject_z_offset,
                ),
            )
        except ValueError as exc:
            raise ConfigError([f"diagnostics.d: {exc}"]) from exc

    recorder = _Recorder(system, initial, tracker)
    hooks = ([tracker.on_step] if tracker else []) + [recorder.on_step]

    report = {
        "augmented": augment,
        "config": cfg.raw,
        "config_sha256": config_sha256(cfg.raw),
        "system": system.name,
        "failure": None,
    }

    try:
        traj = run_simulation(system, initial, cfg.solver, hooks)
    except NumericalFailure as exc:
        report["checks"] = [_check_dict(c) for c in checks]
        report["fits"] = []
        report["measurements"] = _measurement_block(tracker)
        report["n_accepted_steps"] = recorder.n_accepted
        report["overall"] = "aborted"
        report["failure"] = {
            "message": str(exc),
            "time": _num(exc.time),
            "species": exc.species,
            "value": _num(exc.value),
        }
        outcome = ExperimentOutcome(
            report=report,
            csv_text=recorder.text(),
            trajectory=None,
            tracker=tracker,
            augmented=augment,
            aborted=True,
        )
        _emit(cfg, outcome)
        return outcome

    invariants = recorder.invariants
    checks.append(check_positivity(invariants))
    checks.extend(check_conservation_laws(invariants))
    checks.append(check_mass_envelope(invariants))
    for check in (check_mass_identity(invariants), check_entropy(invariants)):
        if check is not None:
            checks.append(check)
    if tracker is not None:
        checks.append(check_z_bound(tracker, cfg.solver.t_end))
        checks.append(check_b_range(tracker))
        checks.extend(check_uhat_bounds(tracker, cfg.solver.t_end))

    fit_entries, fit_checks = _run_fits(cfg, traj, system)
    checks.extend(fit_checks)

    passed = all(c.passed is not False for c in checks)
    report["checks"] = [_check_dict(c) for c in checks]
    report["fits"] = fit_entries
    report["measurements"] = _measurement_block(tracker)
    report["n_accepted_steps"] = recorder.n_accepted
    report["overall"] = "pass" if passed else "fail"

    outcome = ExperimentOutcome(
        report=report,
        csv_text=recorder.text(),
        trajectory=traj,
        tracker=tracker,
        augmented=augment,
        aborted=False,
    )
    _emit(cfg, outcome)
    return outcome


def _emit(cfg: RunConfig, outcome: ExperimentOutcome) -> None:
    if cfg.csv_path is not None:
        write_atomic(cfg.csv_path, outcome.csv_text)
    if cfg.report_path is not None:
        write_atomic(
            cfg.report_path,
            json.dumps(outcome.report, sort_keys=True, indent=2) + "\n",
        )
