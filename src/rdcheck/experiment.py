"""End-to-end experiment orchestration: run, check, fit, and emit.

This layer wires a validated RunConfig, which holds the initial array,
the closed system and the tracker's parameters, into the solver, the
structure audits, the auxiliary-field tracker and the invariant checks
(both fed every state of the run, u0 first), then serializes the results:

* a CSV trace with one row per recorded step (columns fixed by
  _Recorder, the diagnostic ones named by AuxiliaryTracker.columns and
  empty when the tracker is off);
* a JSON report echoing the config with its sha256, every check verdict,
  fitted rates, and an overall pass / fail / aborted verdict.

No state array outlives its step: the fits read scalar series that the
recorder samples at each recorded step, so beyond the CSV rows a run
holds O(cells) memory plus one float per recorded step and fit series.
The per-state bookkeeping waits in the InvariantTracker's fixed block of
_CHUNK states, with the sup norms (and diagnostic cells) of its recorded
states, until a fold turns the chunk into extrema, CSV rows and fit
samples, so what a run holds beyond that does not grow with its steps.

Both files are written atomically (temp file + os.replace) so a crashed
run never leaves a half-written artifact at the target path.  A
NumericalFailure mid-run, or any other exception out of the run (the
reaction at u0 included), flushes the rows recorded so far and reports the
abort instead of raising through.
A passed, failed and aborted run fill the same report and emit it once;
an aborted run's report holds only the structure audits, which ran before
the solver, and no fits.  The config is validated before it gets here
(CLI --augment included), so a run raises no ConfigError.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import traceback
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .diagnostics import AuxiliaryTracker, InvariantTracker, entropy_pointwise_worst
from .grid import Grid1D
from .models import CheckResult, ReactionSystem, check_structure, verify_augmented
from .solver import NumericalFailure, StepEvent, run_simulation
from .theory import fit_rate, quad_equilibrium

__all__ = ["ExperimentOutcome", "run_experiment", "config_sha256", "write_atomic"]

_QUAD_LAW_LABELS = ("u1+u3", "u2+u3", "u2+u4")


@dataclass
class ExperimentOutcome:
    """Everything one experiment produced, in memory."""

    report: dict
    csv_text: str

    @property
    def passed(self) -> bool:
        return self.report["overall"] == "pass"

    @property
    def aborted(self) -> bool:
        return self.report["overall"] == "aborted"


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
            # mkstemp makes the file 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _num(value):
    """A JSON value: None, a finite float, the repr of any other float, or
    a dict of these."""
    if value is None:
        return None
    if isinstance(value, dict):
        return {key: _num(v) for key, v in value.items()}
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def _check_dict(c: CheckResult) -> dict:
    return {
        "name": c.name,
        "passed": bool(c.passed),
        "measured": _num(c.measured),
        "bound": _num(c.bound),
        "tolerance": _num(c.tolerance),
        "detail": c.detail,
    }


class _Recorder:
    """Solver hook measuring each state once: it feeds the invariant checks
    at every state of the run and, at each recorded one, keeps the solver's
    sup norms and the tracker's diagnostic cells until the InvariantTracker
    folds the chunk.  The fold hands the chunk's states back (_take): the
    recorded ones become CSV rows, each formatted once, and samples of the
    scalar series the configured fits name.  The equilibrium of
    distance_to_equilibrium comes from u0's masses, and that series is
    sampled at the state, the one fit series that needs the state array.

    The entropy value is computed only where a row or the entropy check
    needs it, and both share it, from the state's reaction.  An augmented
    run leaves the entropy column empty: its closure species stays at
    rounding level, so sum_i f_i log u_i would measure that rounding, and
    no check reads it (the closure system does not declare
    entropy_nonpositive).  Runs after the AuxiliaryTracker hook so
    the diagnostic cells it reads are synchronized with the primal state of
    the same step.  No state array is kept: a fit series is one float per
    recorded step, and `times` holds their times.  text() folds what the
    tracker holds, so an aborted run's CSV ends at its last state.
    """

    def __init__(
        self,
        system: ReactionSystem,
        grid: Grid1D,
        tracker: AuxiliaryTracker | None,
        fit_series=(),
        augmented: bool = False,
    ):
        self.system = system
        self.length = grid.length
        self.tracker = tracker
        self.augmented = augmented
        self.invariants = InvariantTracker(system, grid, on_fold=self._take)
        self.last_index = 0
        n = system.n_species
        columns = (
            ["t"]
            + [f"sup_u_{i + 1}" for i in range(n)]
            + [f"mass_{i + 1}" for i in range(n)]
            + ["mass_total", "entropy"]
            + [f"cons_law_{j + 1}" for j in range(len(system.conservation_laws))]
            + list(AuxiliaryTracker.columns)
        )
        self.rows = [",".join(columns)]
        # The empty diagnostic cells of a run without the tracker.
        self._no_diag = "" if tracker else "," * len(AuxiliaryTracker.columns)
        self.times = []
        # Fit series name -> its values at the recorded steps, or the
        # ValueError that leaves it undefined for this run.
        self.series = {name: [] for name in fit_series}
        # Since the last fold: per state whether it is recorded, and per
        # recorded state its sup norms and diagnostic cells.
        self._recorded = []
        self._sups = []
        self._diag = []

    def on_step(self, event: StepEvent) -> None:
        self.last_index = event.index
        u = event.u_new
        if event.index == 0 and "distance_to_equilibrium" in self.series:
            try:
                eq = _equilibrium(self.system, event.masses, self.length)
                self._equilibrium = eq[:, None]
            except ValueError as exc:
                self.series["distance_to_equilibrium"] = exc
        entropy = None
        if not self.augmented and (event.recorded or self.system.entropy_nonpositive):
            entropy = entropy_pointwise_worst(u, event.f)
        # A full chunk is folded (_take) before this state joins the lists.
        self.invariants.update(event, entropy)
        self._recorded.append(event.recorded)
        if not event.recorded:
            return
        self._sups.append(event.sup_norms)
        if self.tracker:
            self._diag.append(self.tracker.row)
        distance = self.series.get("distance_to_equilibrium")
        if isinstance(distance, list):
            gap = np.abs(u - self._equilibrium)
            distance.append(float(np.sum(np.max(gap, axis=1))))

    def _take(self, states: np.ndarray, has_entropy: np.ndarray) -> None:
        """The invariants' on_fold: format the chunk's recorded states as
        CSV rows, each cell repr(float) or empty, and sample the folded
        columns for the fit series."""
        recorded = np.array(self._recorded, dtype=bool)
        self._recorded = []
        if not recorded.any():
            return
        n = self.system.n_species
        states = states[recorded]
        sups = np.array(self._sups)
        parts = [states[:, :1], sups, states[:, 1:]]
        if self.tracker:
            parts.append(np.array(self._diag))
        self._sups = []
        self._diag = []
        cells = np.concatenate(parts, axis=1).tolist()
        # The entropy column; str(x) is repr(x) for a float.
        for i in np.flatnonzero(~has_entropy[recorded]).tolist():
            cells[i][2 * n + 2] = ""
        self.rows.extend(",".join(map(str, row)) + self._no_diag for row in cells)
        self.times.extend(states[:, 0].tolist())
        for name, values in self.series.items():
            if name == "mass_total":
                values.extend(states[:, n + 1].tolist())
            elif name == "sup_total":
                values.extend(sups.sum(axis=1).tolist())

    def text(self) -> str:
        self.invariants.fold()
        return "\n".join(self.rows) + "\n"


def _equilibrium(system: ReactionSystem, masses0: np.ndarray, domain_length: float):
    """Reversible-exchange equilibrium of the initial conserved masses.

    Raises:
        ValueError: for a system outside the four-species reversible family,
            or masses quad_equilibrium rejects.
    """
    labels = tuple(label for label, _ in system.conservation_laws)
    if labels != _QUAD_LAW_LABELS:
        raise ValueError(
            "distance_to_equilibrium needs the four-species reversible family"
        )
    law = dict(system.conservation_laws)
    m13 = float(np.dot(law["u1+u3"], masses0)) / domain_length
    m23 = float(np.dot(law["u2+u3"], masses0)) / domain_length
    m24 = float(np.dot(law["u2+u4"], masses0)) / domain_length
    return quad_equilibrium(m13, m23, m24).as_array()


def _run_fits(cfg: RunConfig, recorder: _Recorder):
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
            values = recorder.series[spec["series"]]
            if isinstance(values, ValueError):
                raise values
            pairs = [
                (t, v) for t, v in zip(recorder.times, values) if t0 <= t <= t1
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


def run_experiment(cfg: RunConfig) -> ExperimentOutcome:
    """Run one configured experiment end to end and emit its artifacts.

    Args:
        cfg: validated configuration; cfg.augmented is the closed system
            when the closure transform is on (the config's choice, or CLI
            --augment), else None.

    Returns:
        ExperimentOutcome; .aborted is True when the solver could not
        restore positivity or finiteness within the halving budget, or the
        run raised any other exception (named in the failure message); the
        partial CSV is still emitted, and the report keeps the structure
        checks only.
    """
    rng = np.random.default_rng(cfg.seed)

    checks: list[CheckResult] = check_structure(cfg.system, rng)

    system = cfg.system
    if cfg.augmented is not None:
        system = cfg.augmented
        checks.extend(verify_augmented(
            system, rng, t_horizon=cfg.solver.t_end,
            g_tail_offset=cfg.inject_augmentation_offset,
        ))

    tracker = None
    if cfg.diagnostics is not None:
        tracker = AuxiliaryTracker(system, cfg.grid, cfg.diagnostics)

    recorder = _Recorder(
        system, cfg.grid, tracker, [spec["series"] for spec in cfg.fits],
        augmented=cfg.augmented is not None,
    )
    hooks = ([tracker.on_step] if tracker else []) + [recorder.on_step]

    report = {
        "augmented": cfg.augmented is not None,
        "config": cfg.raw,
        "config_sha256": config_sha256(cfg.raw),
        "system": system.name,
        "failure": None,
        "fits": [],
    }

    try:
        run_simulation(system, cfg.grid, cfg.u0, cfg.solver, hooks)
    except Exception as exc:
        if not isinstance(exc, NumericalFailure):
            traceback.print_exc()
            exc = NumericalFailure(f"unexpected {type(exc).__name__}: {exc}")
        report["failure"] = {
            "message": str(exc),
            "time": _num(exc.time),
            "species": exc.species,
            "value": _num(exc.value),
        }
    # Folds the last chunk: the CSV rows, fit series and extrema are whole.
    csv_text = recorder.text()
    if report["failure"] is None:
        checks.extend(recorder.invariants.checks())
        if tracker is not None:
            checks.extend(tracker.checks(cfg.solver.t_end))
        report["fits"], fit_checks = _run_fits(cfg, recorder)
        checks.extend(fit_checks)

    if report["failure"] is not None:
        report["overall"] = "aborted"
    elif all(c.passed for c in checks):
        report["overall"] = "pass"
    else:
        report["overall"] = "fail"
    report["checks"] = [_check_dict(c) for c in checks]
    report["measurements"] = _num(tracker.measurements()) if tracker else None
    report["n_accepted_steps"] = recorder.last_index

    outcome = ExperimentOutcome(report=report, csv_text=csv_text)
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
