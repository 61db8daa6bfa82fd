"""Seeded run-config generator for the three benchmark workloads.

The program under test sees only the JSON written here.  The workload seed
sets the config's own ``seed`` (which drives the structure-audit sampling)
and moves every bump centre by at most ``CENTRE_JITTER``; everything else
is fixed, so two calls with the same seed write the same bytes.

Each workload isolates the layers a planned optimisation touches:

* ``quad-diag-1024``: Hoelder scan and auxiliary tracker dominate;
* ``quad-wide-4096``: implicit solve and the stored trajectory dominate,
  Hoelder scan and tracker are off;
* ``skew-stiff-aug``: a small grid with many cheap trials, most rejected by
  reject-and-halve, plus the time-dependent closure evaluator.

The horizons (``t_end``) make one verification last about a second on a
2-vCPU machine, so that a 35-second run times fifteen or more of them.
"""

from __future__ import annotations

import copy
import json
import os
import random
from dataclasses import dataclass

CENTRE_JITTER = 0.02

_OUTPUT = {"csv": "run.csv", "report": "report.json"}


def _bump(centre, width, amplitude):
    return {"type": "gaussian", "center": centre, "width": width, "amplitude": amplitude}


def _readme_quad(n_cells: int, t_end: float, diagnostics: dict, fits: list) -> dict:
    """The README quad-reversible run: four species, dt = 1e-3."""
    return {
        "model": {"builtin": "quadratic_reversible", "diffusion": [1.0, 1.5, 2.0, 2.5]},
        "grid": {"n_cells": n_cells, "length": 1.0},
        "initial": [_bump(0.5, 0.06, 2.0), _bump(0.5, 0.08, 1.6),
                    _bump(0.5, 0.15, 1.0), _bump(0.5, 0.12, 1.5)],
        "solver": {"dt": 1e-3, "t_end": t_end, "record_every": 1},
        "diagnostics": diagnostics,
        "transform": {"augment": False},
        "fits": fits,
        "output": _OUTPUT,
    }


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its config template and the checks its report must name."""

    name: str
    why: str
    expected_checks: tuple
    template: dict

    def config(self, seed: int, t_end: float | None = None, inject: dict | None = None) -> dict:
        """The run config for one seed; ``t_end`` and ``inject`` serve the self-test."""
        cfg = copy.deepcopy(self.template)
        rng = random.Random(seed)
        for profile in cfg["initial"]:
            profile["center"] += rng.uniform(-CENTRE_JITTER, CENTRE_JITTER)
        if t_end is not None:
            cfg["solver"]["t_end"] = t_end
        for fit in cfg["fits"]:
            fit["window"] = [0.0, cfg["solver"]["t_end"]]
        cfg["seed"] = seed % 2**32
        if inject:
            cfg["inject"] = inject
        return cfg

    def write_config(self, directory: str, seed: int, **kwargs) -> str:
        """Write the config for ``seed`` into ``directory``; returns its path."""
        path = os.path.join(directory, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.config(seed, **kwargs), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


_QUAD_CHECKS = (
    "structure_quasi_positivity",
    "structure_mass_control",
    "structure_growth",
    "positivity",
    "conservation[u1+u3]",
    "conservation[u2+u3]",
    "conservation[u2+u4]",
    "mass_envelope",
    "entropy_dissipation",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="quad-diag-1024",
            why="README quad run at 1024 cells with diagnostics on: the Hoelder scan "
                "and auxiliary tracker do almost all the work",
            expected_checks=_QUAD_CHECKS + (
                "z_sup_bound",
                "b_range",
                "uhat_nonnegative",
                "uhat_below_d_zhat",
                "uhat_sup_bound",
            ),
            template=_readme_quad(
                1024, 0.006, {"enabled": True, "d": 5.0},
                [{"series": "distance_to_equilibrium", "mode": "exponential"}]),
        ),
        Workload(
            name="quad-wide-4096",
            why="README quad run at 4096 cells with diagnostics off: the implicit solve "
                "dominates time and the stored trajectory dominates memory",
            expected_checks=_QUAD_CHECKS,
            template=_readme_quad(4096, 0.1, {"enabled": False}, []),
        ),
        Workload(
            name="skew-stiff-aug",
            why="augmented cyclic skew Lotka-Volterra on 64 cells: many cheap trials, "
                "most rejected by reject-and-halve, per-call overhead shows",
            expected_checks=(
                "structure_quasi_positivity",
                "structure_mass_control",
                "structure_growth",
                "augmented_quasi_positivity",
                "augmented_conservation_residual",
                "augmented_growth",
                "positivity",
                "mass_envelope",
            ),
            template={
                "model": {
                    "builtin": "skew_lv",
                    "interaction": [[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
                    "decay": [0.01, 0.01, 0.01],
                    "diffusion": [1e-4, 2e-4, 3e-4],
                },
                "grid": {"n_cells": 64, "length": 1.0},
                "initial": [_bump(0.3, 0.1, 50.0), _bump(0.5, 0.1, 50.0),
                            _bump(0.7, 0.1, 50.0)],
                "solver": {"dt": 0.1, "t_end": 12.0, "record_every": 1},
                "diagnostics": {"enabled": False},
                "transform": {"augment": True},
                "fits": [],
                "output": _OUTPUT,
            },
        ),
    )
}
