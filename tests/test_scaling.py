"""Verdicts that do not depend on units: an exact rescaling.

If u solves the system, v(x, t) = lam u(x, lam t) solves it with diffusion
lam d_i, initial data lam u0, horizon t_end / lam and step dt / lam (the
quad's reaction is quadratic, so f(lam u) = lam^2 f(u)); the auxiliary
diffusion d scales with the d_i.  For lam a power of two every IMEX state
scales exactly, so a verifier whose checks are free of units gives the
same verdicts and the same step sequence, and every mass and sup column
scales bitwise.

Two cases are here: the quad run and a heat-only run of two species with
no reaction, which exercises the tracker's bounds with f = 0.  The
augmented skew case fails its positivity check at lam = 2^-30 and aborts
at 2^30, because the solver's positivity floor is an absolute -1e-12, and
its sampled augmented quasi-positivity audit fails at 2^10 and 2^30 on the
absolute 1 in its tolerance.  It waits for a floor relative to the state,
and for exact structure certificates.
"""

import copy

import pytest
from test_experiment import data_rows, quad_raw

from rdcheck.config import validate_config
from rdcheck.experiment import run_experiment


def quad_case():
    return quad_raw(
        grid={"n_cells": 64, "length": 1.0},
        solver={"dt": 1e-3, "t_end": 0.05},
    )


def heat_only_case():
    """Two species, terms [[], []]: a 0.77 bump and a 0.5 constant that
    only diffuse."""
    return {
        "model": {
            "custom": {"n_species": 2, "terms": [[], []], "k0": 0.0, "k1": 0.0,
                       "k": 1.0, "eps": 0.0},
            "diffusion": [0.5, 0.25],
        },
        "grid": {"n_cells": 64, "length": 1.0},
        "initial": [
            {"type": "gaussian", "center": 0.5, "width": 0.1, "amplitude": 0.77},
            {"type": "constant", "value": 0.5},
        ],
        "solver": {"dt": 1e-3, "t_end": 0.05},
        "diagnostics": {"enabled": True, "d": 0.8},
    }


CASES = {"quad": quad_case, "heat_only": heat_only_case}
SCALES = [2.0**-30, 2.0**-10, 2.0**10, 2.0**30]


def rescaled(raw, lam):
    """raw with the diffusions, d and u0 times lam and dt, t_end over lam."""
    raw = copy.deepcopy(raw)
    model = raw["model"]
    model["diffusion"] = [lam * d for d in model["diffusion"]]
    raw["diagnostics"]["d"] *= lam
    for profile in raw["initial"]:
        key = "amplitude" if profile["type"] == "gaussian" else "value"
        profile[key] *= lam
    raw["solver"] = {key: value / lam for key, value in raw["solver"].items()}
    return raw


def verdicts(report):
    return {c["name"]: c["passed"] for c in report["checks"]}


@pytest.fixture(scope="module")
def originals():
    """case name -> its run at lam = 1, made once for the module."""
    return {name: run_experiment(validate_config(case())) for name, case in CASES.items()}


@pytest.mark.parametrize("lam", SCALES)
def test_quad_run_rescales_exactly(originals, lam):
    assert_rescales_exactly("quad", originals["quad"], lam)


@pytest.mark.parametrize("lam", SCALES)
def test_heat_only_run_rescales_exactly(originals, lam):
    assert_rescales_exactly("heat_only", originals["heat_only"], lam)


def assert_rescales_exactly(case, original, lam):
    scaled = run_experiment(validate_config(rescaled(CASES[case](), lam)))
    assert scaled.report["overall"] == original.report["overall"] == "pass"
    assert verdicts(scaled.report) == verdicts(original.report)
    assert "vd_gradient_interpolation" in verdicts(scaled.report)

    header, rows = data_rows(original.csv_text)
    scaled_header, scaled_rows = data_rows(scaled.csv_text)
    assert scaled_header == header
    assert len(scaled_rows) == len(rows) == 51
    columns = header.split(",")
    for row, scaled_row in zip(rows, scaled_rows):
        cells = dict(zip(columns, map(float, row)))
        scaled_cells = dict(zip(columns, map(float, scaled_row)))
        assert scaled_cells["t"] == cells["t"] / lam
        for name in columns:
            if name.startswith(("sup_u", "mass")):
                assert scaled_cells[name] == lam * cells[name], name
