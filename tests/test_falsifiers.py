"""Falsifiers: each runs end to end through `rdcheck verify`, which must
exit 1 with the check it is named after failing.

A falsifier is either a config that breaks what its check audits (a
hand-broken custom model, or an `inject` offset) or a named program defect
applied with monkeypatch.  Each row also names checks that must still pass, which shows
that the failure comes from the named check and not from the run at large.
"""

import json

import numpy as np
import pytest

import rdcheck.diagnostics
import rdcheck.solver
from rdcheck.cli import main
from test_cli import qp_broken_raw
from test_experiment import quad_raw, skew_raw

EXIT_CHECK_FAILED = 1


# A program defect patches the seam it breaks and returns the step sizes of
# the calls it altered, which must not stay empty: a seam the run no longer
# calls would turn its row into a silent pass.


def leaky_boundary(monkeypatch):
    """A ladder solve that loses a thousandth of every row's last cell."""
    real = rdcheck.solver.imex_step
    calls = []

    def leaky(*args, **kwargs):
        out = real(*args, **kwargs)
        out[..., -1] *= 1.0 - 1e-3
        calls.append(args[-1])
        return out

    monkeypatch.setattr(rdcheck.solver, "imex_step", leaky)
    return calls


def checkerboard_v_d(monkeypatch):
    """A tracker solve that adds 0.1 max|v_d| (-1)^j to v_d's row: a
    grid-scale oscillation that the heat flow would have damped, while z
    and u_hat stay right."""
    real = rdcheck.diagnostics.implicit_heat_step
    calls = []

    def rough(values, grid, *args, **kwargs):
        out = real(values, grid, *args, **kwargs)
        out[0] += 0.1 * np.max(np.abs(out[0])) * (-1.0) ** np.arange(grid.n_cells)
        calls.append(args[1])
        return out

    monkeypatch.setattr(rdcheck.diagnostics, "implicit_heat_step", rough)
    return calls


def mass_source_above_the_audit_box():
    """f = u^2 - 1e4 u declared with k0 = k1 = 0.  On the audits' sampling
    box [1e-6, 1e3] f < 0, so the structure checks pass; above 1e4 it
    creates mass, and the run starts at 2e4 (it blows up near t = 7e-5)."""
    return {
        "model": {
            "custom": {
                "n_species": 1,
                "terms": [[{"coef": 1.0, "powers": [2]}, {"coef": -1e4, "powers": [1]}]],
                "k0": 0.0,
                "k1": 0.0,
                "k": 2e4,
                "eps": 0.0,
            },
            "diffusion": [1.0],
        },
        "grid": {"n_cells": 8, "length": 1.0},
        "initial": [{"type": "constant", "value": 2e4}],
        "solver": {"dt": 1e-6, "t_end": 1e-5},
    }


def clamped_to_zero_every_step():
    """f = -2u with k1 = -2 and dt = 1 under a floor of -10: each trial is
    -u, accepted and clamped to zero, so the clamp adds the whole mass back
    (C / (M_old + M_new) = 1), which the mass ledger accounts for."""
    return {
        "model": {
            "custom": {
                "n_species": 1,
                "terms": [[{"coef": -2.0, "powers": [1]}]],
                "k0": 0.0,
                "k1": -2.0,
                "k": 2.0,
                "eps": 0.0,
            },
            "diffusion": [1.0],
        },
        "grid": {"n_cells": 8, "length": 1.0},
        "initial": [{"type": "constant", "value": 1.0}],
        "solver": {"dt": 1.0, "t_end": 2.0, "positivity_floor": -10.0},
    }


def two_species(terms):
    """A custom two-species model declared with k0 = k1 = 0 and growth
    k = 1, eps = 0, from 0.5 on 16 cells to t = 0.1 in steps of 0.01."""
    return {
        "model": {
            "custom": {
                "n_species": 2,
                "terms": terms,
                "k0": 0.0,
                "k1": 0.0,
                "k": 1.0,
                "eps": 0.0,
            },
            "diffusion": [1.0, 1.0],
        },
        "grid": {"n_cells": 16, "length": 1.0},
        "initial": [{"type": "constant", "value": 0.5}] * 2,
        "solver": {"dt": 0.01, "t_end": 0.1},
    }


def linear_growth():
    """f = (u1, u2): total mass grows at rate 1, above the declared K1 = 0."""
    return two_species([[{"coef": 1.0, "powers": [1, 0]}], [{"coef": 1.0, "powers": [0, 1]}]])


def cubic_exchange():
    """f = (-u1^2 u2, u1^2 u2): conserves mass and stays quasi-positive, but
    is cubic, above the declared growth k (1 + |u|)^(2 + eps) with eps = 0."""
    cubic = [2, 1]
    return two_species([[{"coef": -1.0, "powers": cubic}], [{"coef": 1.0, "powers": cubic}]])


STRUCTURE = ("structure_quasi_positivity", "structure_mass_control", "structure_growth")
LEDGER = ("positivity", "mass_envelope", "mass_identity")
UHAT = ("uhat_nonnegative", "uhat_below_d_zhat", "uhat_sup_bound")
AUXILIARY = ("z_sup_bound", "b_range") + UHAT

# Check name -> (config, program defect or None, checks that still pass).
FALSIFIERS = {
    "structure_quasi_positivity": (
        qp_broken_raw(), None, ("structure_mass_control", "structure_growth") + LEDGER,
    ),
    # The mass grows at rate 1 against K1 = 0, so the envelope fails too.
    "structure_mass_control": (
        linear_growth(),
        None,
        ("structure_quasi_positivity", "structure_growth", "positivity", "mass_identity"),
    ),
    "structure_growth": (
        cubic_exchange(), None, ("structure_quasi_positivity", "structure_mass_control") + LEDGER,
    ),
    "mass_identity": (quad_raw(), leaky_boundary, STRUCTURE + ("mass_envelope",)),
    "mass_envelope": (
        mass_source_above_the_audit_box(), None, STRUCTURE + ("positivity", "mass_identity"),
    ),
    "positivity": (
        clamped_to_zero_every_step(), None, STRUCTURE + ("mass_envelope", "mass_identity"),
    ),
    "vd_gradient_interpolation": (
        quad_raw(grid={"n_cells": 64, "length": 1.0}), checkerboard_v_d, AUXILIARY,
    ),
    # The tracked z starts 1 above the sum of u0's species, above the bound
    # its sources allow.
    "z_sup_bound": (
        quad_raw(inject={"z_offset": 1.0}),
        None,
        STRUCTURE + LEDGER + ("b_range",) + UHAT + ("vd_gradient_interpolation",),
    ),
    # The closure reaction shifted up by 0.1: the closed system no longer
    # conserves, though g stays quasi-positive.  A negative offset fails
    # augmented_quasi_positivity too.
    "augmented_conservation_residual": (
        skew_raw(transform={"augment": True}, inject={"augmentation_offset": 0.1}),
        None,
        STRUCTURE + ("augmented_quasi_positivity", "augmented_growth") + LEDGER,
    ),
}


def verdicts(out):
    """check name -> passed, from the check lines `rdcheck verify` prints."""
    found = {}
    for line in out.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("ok", "FAIL"):
            found[rest.split()[0]] = status == "ok"
    return found


@pytest.mark.parametrize("check", sorted(FALSIFIERS))
def test_falsifier_fails_its_check(check, tmp_path, monkeypatch, capsys):
    raw, defect, passing = FALSIFIERS[check]
    altered = defect(monkeypatch) if defect is not None else None
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", str(path)]) == EXIT_CHECK_FAILED
    if defect is not None:
        assert altered, "the defect's seam was never called"
    found = verdicts(capsys.readouterr().out)
    assert found[check] is False
    assert all(found[name] for name in passing)


def test_a_sink_through_zero_mass_keeps_its_ledger(tmp_path, capsys):
    """f = -1 drains a Gaussian to zero mass and the clamp holds it there
    (floor -0.05).  Steps into and out of the zero-mass state balance at
    rounding, so mass_identity passes; the hand-broken sink still fails
    the quasi-positivity audit and the clamp's share."""
    raw = {
        "model": {
            "custom": {
                "n_species": 1,
                "terms": [[{"coef": -1.0, "powers": [0]}]],
                "k0": 0.0,
                "k1": 0.0,
                "k": 1.0,
                "eps": 0.0,
            },
            "diffusion": [1.0],
        },
        "grid": {"n_cells": 64, "length": 1.0},
        "initial": [{"type": "gaussian", "center": 0.4, "width": 0.2, "amplitude": 1.0}],
        "solver": {"dt": 0.01, "t_end": 1.5, "positivity_floor": -0.05},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", str(path)]) == EXIT_CHECK_FAILED
    found = verdicts(capsys.readouterr().out)
    assert found["mass_identity"] is True
    assert found["positivity"] is False
    assert found["structure_quasi_positivity"] is False
