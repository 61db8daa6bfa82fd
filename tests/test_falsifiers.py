"""Falsifiers: each runs end to end through `rdcheck verify`, which must
exit 1 with the check it is named after failing.

A falsifier is either a config that breaks what its check audits (a
hand-broken custom model) or a named program defect applied with
monkeypatch.  Each row also names checks that must still pass, which shows
that the failure comes from the named check and not from the run at large.
"""

import json

import pytest

import rdcheck.solver
from rdcheck.cli import main
from test_experiment import quad_raw

EXIT_CHECK_FAILED = 1


def leaky_boundary(monkeypatch):
    """A solve that loses a thousandth of every row's last cell."""
    real = rdcheck.solver.implicit_heat_step

    def leaky(*args, **kwargs):
        out = real(*args, **kwargs)
        out[..., -1] *= 1.0 - 1e-3
        return out

    monkeypatch.setattr(rdcheck.solver, "implicit_heat_step", leaky)


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


STRUCTURE = ("structure_quasi_positivity", "structure_mass_control", "structure_growth")

# Check name -> (config, program defect or None, checks that still pass).
FALSIFIERS = {
    "mass_identity": (quad_raw(), leaky_boundary, STRUCTURE + ("mass_envelope",)),
    "mass_envelope": (
        mass_source_above_the_audit_box(), None, STRUCTURE + ("positivity", "mass_identity"),
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
    if defect is not None:
        defect(monkeypatch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", str(path)]) == EXIT_CHECK_FAILED
    found = verdicts(capsys.readouterr().out)
    assert found[check] is False
    assert all(found[name] for name in passing)
