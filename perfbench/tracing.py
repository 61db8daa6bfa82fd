"""Layer-boundary spans recorded from outside the program.

``Tracer.install`` replaces the public functions at each layer boundary of
``rdcheck`` with wrappers that record a span (id, parent id, name, start,
end).  Each function is patched in the module that looks it up, so the
same function called from two layers gets two span names.  A boundary that
no longer exists is skipped, and one that is never called leaves no spans:
its metrics read zero, never an error.

``layer_metrics`` turns the spans of one run into the per-layer metrics;
it needs no import of ``rdcheck`` and runs in the benchmark's parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

# (module looked up in, attribute, span name)
_BOUNDARIES = (
    ("rdcheck.cli", "load_config", "config.load"),
    ("rdcheck.cli", "run_experiment", "experiment.run"),
    ("rdcheck.experiment", "check_structure", "models.structure_audit"),
    ("rdcheck.experiment", "verify_augmented", "transform.augmented_audit"),
    ("rdcheck.experiment", "entropy_pointwise_worst", "diagnostics.entropy"),
    ("rdcheck.experiment", "fit_rate", "theory.fit"),
    ("rdcheck.experiment", "quad_equilibrium", "theory.fit"),
    ("rdcheck.solver", "imex_step", "solver.imex_step"),
    ("rdcheck.solver", "implicit_heat_step", "solver.implicit_solve"),
    ("rdcheck.diagnostics", "implicit_heat_step", "diagnostics.aux_solve"),
    ("rdcheck.diagnostics", "holder_modulus", "grid.holder_scan"),
    ("rdcheck.diagnostics", "entropy_pointwise_worst", "diagnostics.entropy"),
)


class Tracer:
    """Spans kept in memory for one process, written out by ``finish``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._trajectories: list = []
        self._emitted: list = []

    def wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()

        return traced

    def install(self) -> None:
        """Wrap every boundary that exists in the imported program."""
        for module_name, attr, name in _BOUNDARIES:
            module = _import(module_name)
            _patch(module, attr, lambda fn, name=name: self.wrap(fn, name))
        experiment = _import("rdcheck.experiment")
        for attr in dir(experiment):
            if attr.startswith("check_") and attr != "check_structure":
                _patch(experiment, attr, lambda fn: self.wrap(fn, "diagnostics.post_check"))
        _patch(experiment, "run_simulation", self._wrap_run_simulation)
        _patch(experiment, "write_atomic", self._wrap_emit)
        self._install_evaluator(_import("rdcheck.models"))

    def _wrap_run_simulation(self, fn):
        """Span the run, one span per hook call, and keep the result for sizing."""
        traced = self.wrap(fn, "solver.run")
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        def run(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                hooks = bound.arguments.get("hooks")
                if hooks:
                    bound.arguments["hooks"] = [
                        self.wrap(h, _module_layer(h) + ".hook") for h in hooks
                    ]
                args, kwargs = bound.args, bound.kwargs
            result = traced(*args, **kwargs)
            self._trajectories.append(result)
            return result

        return run

    def _wrap_emit(self, fn):
        traced = self.wrap(fn, "experiment.emit")

        def emit(path, *args, **kwargs):
            self._emitted.append(path)
            return traced(path, *args, **kwargs)

        return emit

    def _install_evaluator(self, models) -> None:
        """Wrap ``ReactionSystem.evaluator`` on every system built from now on."""
        cls = getattr(models, "ReactionSystem", None)
        if "evaluator" not in getattr(cls, "__dataclass_fields__", {}):
            return
        tracer = self

        class Evaluator:
            def __set__(self, obj, fn):
                fn = getattr(fn, "__wrapped__", fn)
                obj.__dict__["evaluator"] = tracer.wrap(fn, "models.evaluator")

            def __get__(self, obj, owner=None):
                return self if obj is None else obj.__dict__["evaluator"]

        cls.evaluator = Evaluator()

    def finish(self) -> dict:
        """Spans plus the counts read off the run's results after it ended."""
        snapshots = 0
        trajectory_bytes = 0
        for traj in self._trajectories:
            for entry in getattr(traj, "entries", ()):
                snapshots += 1
                for f in getattr(getattr(entry, "state", None), "fields", ()):
                    trajectory_bytes += getattr(getattr(f, "values", None), "size", 0) * 8
        emitted = sum(os.path.getsize(p) for p in set(self._emitted) if os.path.exists(p))
        return {
            "spans": self.spans,
            "snapshots": snapshots,
            "trajectory_bytes": trajectory_bytes,
            "emit_bytes": emitted,
        }


def _patch(module, attr: str, wrapper_factory) -> None:
    fn = getattr(module, attr, None)
    if callable(fn):
        setattr(module, attr, wrapper_factory(fn))


def _import(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _module_layer(fn) -> str:
    module = getattr(fn, "__module__", None) or "unknown"
    return module.rsplit(".", 1)[-1]


# name: (unit, better, the end-to-end metric and workload it should move);
# verify_s moves are gated through verify_rel.
PER_LAYER = {
    "config.load_s": ("s", "lower", "setup_s, all workloads"),
    "models.structure_audit_s": ("s", "lower",
                                 "verify_s, fixed cost, largest share on skew-stiff-aug"),
    "models.reaction_evals": ("count", "lower", "verify_s on skew-stiff-aug (one per trial)"),
    "models.reaction_eval_s": ("s", "lower", "verify_s on skew-stiff-aug"),
    "transform.augmented_audit_s": ("s", "lower", "verify_s on skew-stiff-aug only"),
    "solver.trials": ("count", "lower", "verify_s on skew-stiff-aug"),
    "solver.accepted_steps": ("count", "lower", "verify_s on skew-stiff-aug"),
    "solver.accept_ratio": ("ratio", "higher",
                            "verify_s on skew-stiff-aug (below 0.5; 1 elsewhere)"),
    "solver.imex_step_s": ("s", "lower", "verify_s on quad-wide-4096, skew-stiff-aug"),
    "solver.implicit_solves": ("count", "lower", "verify_s on quad-wide-4096"),
    "solver.implicit_solve_s": ("s", "lower", "verify_s on quad-wide-4096"),
    "solver.self_s": ("s", "lower", "verify_s on skew-stiff-aug"),
    "solver.snapshots": ("count", "lower", "peak_rss_mb on quad-wide-4096"),
    "solver.trajectory_mb_computed": ("MB", "lower", "peak_rss_mb on quad-wide-4096"),
    "grid.holder_scans": ("count", "lower", "verify_s on quad-diag-1024; zero elsewhere"),
    "grid.holder_scan_s": ("s", "lower", "verify_s on quad-diag-1024; zero elsewhere"),
    "diagnostics.tracker_step_s": ("s", "lower", "verify_s on quad-diag-1024"),
    "diagnostics.aux_solves": ("count", "lower", "verify_s on quad-diag-1024"),
    "diagnostics.aux_solve_s": ("s", "lower", "verify_s on quad-diag-1024"),
    "diagnostics.entropy_evals": ("count", "lower", "verify_s on skew-stiff-aug, quad-wide-4096"),
    "diagnostics.entropy_s": ("s", "lower", "verify_s on skew-stiff-aug, quad-wide-4096"),
    "diagnostics.post_checks_s": ("s", "lower", "verify_s on quad-wide-4096"),
    "theory.fit_s": ("s", "lower", "verify_s on quad-diag-1024"),
    "experiment.rows": ("count", "lower", "verify_s on skew-stiff-aug"),
    "experiment.record_s": ("s", "lower", "verify_s on skew-stiff-aug"),
    "experiment.emit_s": ("s", "lower", "verify_s, all workloads"),
    "experiment.emit_bytes": ("bytes", "lower", "verify_s, all workloads"),
    "experiment.self_s": ("s", "lower", "verify_s, all workloads"),
    "cli.self_s": ("s", "lower", "verify_s, all workloads"),
    "trace.overhead_s": ("s", "lower", "none (traced minus untraced verify_s)"),
}


def layer_metrics(trace: dict, csv_rows: int) -> dict:
    """Per-layer metrics of one traced run (``trace.overhead_s`` excepted)."""
    spans = trace["spans"]
    names = {s[0]: s[2] for s in spans}
    child_time: dict = {}
    outermost: dict = {}
    for span in spans:
        _, parent, name, start, end = span
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        # A wrapped function calling another wrapped one of the same name
        # (the closure evaluator calls the base evaluator) is counted once.
        if names.get(parent) != name:
            outermost.setdefault(name, []).append(span)

    def top(name):
        return outermost.get(name, [])

    def total(name):
        return sum((s[4] - s[3] for s in top(name)), 0.0)

    def self_time(name):
        return sum((s[4] - s[3] - child_time.get(s[0], 0.0) for s in top(name)), 0.0)

    trials = len(top("solver.imex_step"))
    # Every hook runs once per accepted step.
    accepted = max((len(v) for k, v in outermost.items() if k.endswith(".hook")), default=0)
    return {
        "config.load_s": total("config.load"),
        "models.structure_audit_s": total("models.structure_audit"),
        "models.reaction_evals": len(top("models.evaluator")),
        "models.reaction_eval_s": total("models.evaluator"),
        "transform.augmented_audit_s": total("transform.augmented_audit"),
        "solver.trials": trials,
        "solver.accepted_steps": accepted,
        "solver.accept_ratio": accepted / trials if trials else 0.0,
        "solver.imex_step_s": total("solver.imex_step"),
        "solver.implicit_solves": len(top("solver.implicit_solve")),
        "solver.implicit_solve_s": total("solver.implicit_solve"),
        "solver.self_s": self_time("solver.run"),
        "solver.snapshots": trace["snapshots"],
        "solver.trajectory_mb_computed": trace["trajectory_bytes"] / 1e6,
        "grid.holder_scans": len(top("grid.holder_scan")),
        "grid.holder_scan_s": total("grid.holder_scan"),
        "diagnostics.tracker_step_s": self_time("diagnostics.hook"),
        "diagnostics.aux_solves": len(top("diagnostics.aux_solve")),
        "diagnostics.aux_solve_s": total("diagnostics.aux_solve"),
        "diagnostics.entropy_evals": len(top("diagnostics.entropy")),
        "diagnostics.entropy_s": total("diagnostics.entropy"),
        "diagnostics.post_checks_s": total("diagnostics.post_check"),
        "theory.fit_s": total("theory.fit"),
        "experiment.rows": csv_rows,
        "experiment.record_s": self_time("experiment.hook"),
        "experiment.emit_s": total("experiment.emit"),
        "experiment.emit_bytes": trace["emit_bytes"],
        "experiment.self_s": self_time("experiment.run"),
        "cli.self_s": self_time("cli.main"),
    }
