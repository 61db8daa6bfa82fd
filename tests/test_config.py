"""Tests for config validation, error collection and state builders."""

import copy
import json
import math
import os
import re
import reprlib

import numpy as np
import pytest

from rdcheck import AuxiliaryConfig, ConfigError, load_config, validate_config

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def base_quad():
    return {
        "model": {
            "builtin": "quadratic_reversible",
            "diffusion": [1.0, 1.5, 2.0, 2.5],
        },
        "grid": {"n_cells": 16, "length": 1.0},
        "initial": [{"type": "constant", "value": 1.0} for _ in range(4)],
        "solver": {"dt": 0.01, "t_end": 0.1},
    }


def closure_overflow_quad():
    """dt d / h^2 is finite for the species (d = 1e-300) and overflows for
    the closure species that augmentation adds (d = 1)."""
    raw = base_quad()
    raw["model"]["diffusion"] = [1e-300] * 4
    raw["grid"] = {"n_cells": 2, "length": 1e-100}
    raw["solver"] = {"dt": 1e200, "t_end": 1e200}
    return raw


def base_skew():
    return {
        "model": {
            "builtin": "skew_lv",
            "diffusion": [1.0, 2.0],
            "interaction": [[0.0, 1.0], [-1.0, 0.0]],
            "decay": [1.0, 1.0],
        },
        "grid": {"n_cells": 16},
        "initial": [{"type": "constant", "value": 0.5} for _ in range(2)],
        "solver": {"dt": 0.001, "t_end": 0.05},
    }


def errors_from(raw, augment=False):
    with pytest.raises(ConfigError) as excinfo:
        validate_config(raw, augment)
    return excinfo.value.errors


def assert_mentions(errors, *needles):
    for needle in needles:
        assert any(needle in m for m in errors), f"{needle!r} not in {errors}"


class TestHappyPaths:
    def test_minimal_quad(self):
        cfg = validate_config(base_quad())
        assert cfg.system.name == "quadratic-reversible"
        assert cfg.grid.n_cells == 16
        assert cfg.solver.dt == 0.01
        assert cfg.solver.record_every == 1
        assert cfg.solver.max_step_halvings == 20
        assert cfg.augmented is None
        assert cfg.diagnostics is None
        assert cfg.fits == []
        assert cfg.inject_augmentation_offset == 0.0
        assert cfg.csv_path is None and cfg.report_path is None
        assert cfg.seed == 0

    def test_skew_builtin(self):
        cfg = validate_config(base_skew())
        assert cfg.system.name == "skew-lotka-volterra"
        assert cfg.system.k1 == -1.0
        assert cfg.grid.length == 1.0  # default

    def test_custom_polynomial(self):
        raw = base_quad()
        raw["model"] = {
            "custom": {
                "n_species": 1,
                "k0": 3.0,
                "k1": 0.0,
                "k": 3.0,
                "eps": 0.0,
                "terms": [
                    [
                        {"coef": 3.0, "powers": [0]},
                        {"coef": -1.0, "powers": [2]},
                    ]
                ],
            },
            "diffusion": [1.0],
        }
        raw["initial"] = [{"type": "constant", "value": 2.0}]
        cfg = validate_config(raw)
        assert cfg.system.n_species == 1
        assert cfg.system.k0 == 3.0
        assert cfg.system.growth_k == 3.0
        # f(2) = 3 - 4
        np.testing.assert_array_equal(
            cfg.system.evaluator(np.array([2.0]), 0.0), [-1.0]
        )

    def test_all_sections(self):
        raw = base_quad()
        raw["transform"] = {"augment": True}
        raw["diagnostics"] = {"enabled": True, "d": 5.0}
        raw["fits"] = [
            {
                "series": "mass_total",
                "mode": "exponential",
                "window": [0.02, 0.1],
                "bias_correct": True,
            }
        ]
        raw["inject"] = {"z_offset": 0.5, "augmentation_offset": 0.25}
        raw["output"] = {"csv": "out.csv", "report": "report.json"}
        raw["seed"] = 7
        cfg = validate_config(raw)
        assert cfg.augmented.name == cfg.system.name + "+mass-closure"
        assert cfg.augmented.n_species == 5
        assert cfg.diagnostics == AuxiliaryConfig(d=5.0, z_offset=0.5)
        assert cfg.fits == [
            {
                "series": "mass_total",
                "mode": "exponential",
                "window": (0.02, 0.1),
                "bias_correct": True,
            }
        ]
        assert cfg.inject_augmentation_offset == 0.25
        assert cfg.csv_path == "out.csv"
        assert cfg.report_path == "report.json"
        assert cfg.seed == 7


class TestErrorCollection:
    def test_independent_problems_are_all_reported(self):
        raw = {
            "model": {"builtin": "quadratic_reversible", "diffusion": [1.0]},
            "grid": {"n_cells": 1},
        }
        errors = errors_from(raw)
        assert len(errors) >= 4
        assert_mentions(errors, "model.diffusion", "grid.n_cells", "initial", "solver")

    def test_every_bad_list_entry_and_flag_is_reported(self):
        raw = base_quad()
        raw["initial"][0] = {
            "type": "piecewise", "values": [1, -1, "x"], "breaks": [0.3, 0.2],
        }
        raw["diagnostics"] = {"enabled": "y"}
        raw["fits"] = [{"series": "mass_total", "window": [1, 0], "bias_correct": "y"}]
        errors = errors_from(raw)
        paths = [
            "initial[0].values[1]",
            "initial[0].values[2]",
            "initial[0].breaks[1]",
            "diagnostics.enabled",
            "fits[0].window",
            "fits[0].bias_correct",
        ]
        assert [e.split(": ", 1)[0] for e in errors] == paths, errors

        raw = base_quad()
        raw["model"] = {
            "custom": {
                "n_species": 1, "k0": 0.0, "k1": 0.0, "k": 1.0, "eps": 0.0,
                "terms": [[
                    {"coef": "a", "powers": [1]},
                    {"coef": float("nan"), "powers": [-1]},
                ]],
            },
            "diffusion": [1.0],
        }
        raw["initial"] = [{"type": "constant", "value": 1.0}]
        errors = errors_from(raw)
        paths = [
            "model.custom.terms[0][0].coef",
            "model.custom.terms[0][1].coef",
            "model.custom.terms[0][1].powers[0]",
        ]
        assert [e.split(": ", 1)[0] for e in errors] == paths, errors

    @pytest.mark.parametrize(
        "section, key, value, path",
        [
            ("model", "interaction", [[0.0, {}], [-1.0, 0.0]], "model.interaction[0][1]"),
            ("model", "interaction", [[0.0, True], [-1.0, 0.0]], "model.interaction[0][1]"),
            ("model", "decay", [1.0, 10**400], "model.decay[1]"),
            ("initial", 0, {"type": [1], "value": 0.5}, "initial[0].type"),
            ("grid", "n_cells", 10**400, "grid.n_cells"),
        ],
        ids=["object-entry", "boolean-entry", "huge-decay", "list-type", "huge-n-cells"],
    )
    def test_malformed_values_are_config_errors(self, section, key, value, path):
        # Each used to escape validation: a TypeError or an OverflowError
        # (exit 3), or a true read as 1.0.
        raw = base_skew()
        raw[section][key] = value
        assert_mentions(errors_from(raw), f"{path}:")

    def test_top_level_must_be_an_object(self):
        assert_mentions(errors_from([1, 2, 3]), "top level")


class TestModelValidation:
    def test_builtin_and_custom_are_exclusive(self):
        raw = base_quad()
        raw["model"]["custom"] = {}
        assert_mentions(errors_from(raw), "exactly one")

    def test_neither_builtin_nor_custom(self):
        raw = base_quad()
        raw["model"] = {"diffusion": [1.0]}
        assert_mentions(errors_from(raw), "exactly one")

    def test_unknown_builtin(self):
        raw = base_quad()
        raw["model"]["builtin"] = "brusselator"
        assert_mentions(errors_from(raw), "unknown builtin")

    def test_quad_needs_four_coefficients(self):
        raw = base_quad()
        raw["model"]["diffusion"] = [1.0, 2.0, 3.0]
        assert_mentions(errors_from(raw), "4 coefficients")

    def test_diffusion_entries_are_checked(self):
        raw = base_quad()
        # 10**400 is a JSON integer past the float range.
        raw["model"]["diffusion"] = [1.0, -2.0, 10**400, True]
        errors = errors_from(raw)
        assert_mentions(
            errors, "model.diffusion[1]", "model.diffusion[2]: must be finite",
            "model.diffusion[3]",
        )

    def test_skew_matrix_shape(self):
        raw = base_skew()
        raw["model"]["interaction"] = [[0.0, 1.0]]
        assert_mentions(errors_from(raw), "model.interaction")

    def test_skew_decay_length(self):
        raw = base_skew()
        raw["model"]["decay"] = [1.0]
        assert_mentions(errors_from(raw), "model.decay")

    def test_skew_rejects_non_skew_matrix(self):
        raw = base_skew()
        raw["model"]["interaction"] = [[0.0, 1.0], [-0.5, 0.0]]
        assert_mentions(errors_from(raw), "exactly skew")

    def test_custom_requires_all_constants(self):
        raw = base_quad()
        raw["model"] = {"custom": {"terms": [[]]}, "diffusion": [1.0]}
        raw["initial"] = [{"type": "constant", "value": 1.0}]
        errors = errors_from(raw)
        assert_mentions(
            errors,
            "model.custom.n_species",
            "model.custom.k0",
            "model.custom.k1",
            "model.custom.k",
            "model.custom.eps",
        )

    def test_custom_constant_ranges(self):
        raw = base_quad()
        raw["model"] = {
            "custom": {
                "n_species": 1,
                "k0": -1.0,
                "k1": 0.0,
                "k": 0.0,
                "eps": 0.0,
                "terms": [[]],
            },
            "diffusion": [1.0],
        }
        raw["initial"] = [{"type": "constant", "value": 1.0}]
        errors = errors_from(raw)
        assert_mentions(errors, "model.custom.k0", "model.custom.k")

    def test_custom_diffusion_count_must_match(self):
        raw = base_quad()
        raw["model"] = {
            "custom": {
                "n_species": 2,
                "k0": 0.0,
                "k1": 0.0,
                "k": 1.0,
                "eps": 0.0,
                "terms": [[], []],
            },
            "diffusion": [1.0],
        }
        raw["initial"] = [{"type": "constant", "value": 1.0}] * 2
        assert_mentions(errors_from(raw), "n_species=2")

    def test_custom_monomial_shape(self):
        raw = base_quad()
        raw["model"] = {
            "custom": {
                "n_species": 1,
                "k0": 0.0,
                "k1": 0.0,
                "k": 1.0,
                "eps": 0.0,
                "terms": [[{"coef": 1.0}]],
            },
            "diffusion": [1.0],
        }
        raw["initial"] = [{"type": "constant", "value": 1.0}]
        assert_mentions(errors_from(raw), "'coef' and 'powers'")

    def test_custom_powers_count(self):
        raw = base_quad()
        raw["model"] = {
            "custom": {
                "n_species": 2,
                "k0": 0.0,
                "k1": 0.0,
                "k": 1.0,
                "eps": 0.0,
                "terms": [[{"coef": 1.0, "powers": [1]}], []],
            },
            "diffusion": [1.0, 1.0],
        }
        raw["initial"] = [{"type": "constant", "value": 1.0}] * 2
        assert_mentions(errors_from(raw), "powers", "2 nonnegative integers")


class TestGridValidation:
    def test_too_few_cells(self):
        raw = base_quad()
        raw["grid"]["n_cells"] = 1
        assert_mentions(errors_from(raw), "grid.n_cells")

    def test_boolean_is_not_an_integer(self):
        raw = base_quad()
        raw["grid"]["n_cells"] = True
        assert_mentions(errors_from(raw), "expected an integer")

    def test_nonpositive_length(self):
        raw = base_quad()
        raw["grid"]["length"] = 0.0
        assert_mentions(errors_from(raw), "grid.length")


class TestInitialValidation:
    def test_missing_section(self):
        raw = base_quad()
        del raw["initial"]
        assert_mentions(errors_from(raw), "initial")

    def test_profile_count_must_match_species(self):
        raw = base_quad()
        raw["initial"] = raw["initial"][:2]
        assert_mentions(errors_from(raw), "4 species but 2 profiles")

    def test_constant_must_be_nonnegative(self):
        raw = base_quad()
        raw["initial"][0] = {"type": "constant", "value": -1.0}
        assert_mentions(errors_from(raw), "initial[0].value")

    def test_gaussian_requires_positive_width(self):
        raw = base_quad()
        raw["initial"][1] = {
            "type": "gaussian", "center": 0.5, "width": 0.0, "amplitude": 1.0,
        }
        assert_mentions(errors_from(raw), "initial[1].width")

    def test_unknown_profile_type(self):
        raw = base_quad()
        raw["initial"][2] = {"type": "sine"}
        assert_mentions(errors_from(raw), "unknown profile type")

    def test_piecewise_break_count(self):
        raw = base_quad()
        raw["initial"][0] = {
            "type": "piecewise", "values": [1.0, 2.0, 3.0], "breaks": [0.5],
        }
        assert_mentions(errors_from(raw), "2 interior breakpoints")

    def test_piecewise_breaks_must_increase(self):
        raw = base_quad()
        raw["initial"][0] = {
            "type": "piecewise", "values": [1.0, 2.0, 3.0], "breaks": [0.5, 0.25],
        }
        assert_mentions(errors_from(raw), "strictly increasing")

    def test_piecewise_breaks_must_stay_inside_the_domain(self):
        raw = base_quad()
        raw["initial"][0] = {
            "type": "piecewise", "values": [1.0, 2.0], "breaks": [1.5],
        }
        assert_mentions(errors_from(raw), "inside (0, 1.0)")


class TestSolverValidation:
    def test_step_cannot_exceed_final_time(self):
        raw = base_quad()
        raw["solver"] = {"dt": 1.0, "t_end": 0.5}
        assert_mentions(errors_from(raw), "exceeds")

    def test_positive_floor_rejected(self):
        raw = base_quad()
        raw["solver"]["positivity_floor"] = 1e-6
        assert_mentions(errors_from(raw), "solver.positivity_floor")

    def test_record_every_minimum(self):
        raw = base_quad()
        raw["solver"]["record_every"] = 0
        assert_mentions(errors_from(raw), "solver.record_every")

    def test_zero_halving_budget_reaches_the_solver(self):
        raw = base_quad()
        raw["solver"]["max_step_halvings"] = 0
        assert validate_config(raw).solver.max_step_halvings == 0


class TestDerivedQuantities:
    """Configs whose derived quantities are not finite are config errors."""

    def test_grid_length_without_a_finite_inverse_square_width(self):
        for length in (1e-300, 1e300):
            raw = base_quad()
            raw["grid"]["length"] = length
            assert_mentions(errors_from(raw), "grid: cell width")

    def test_species_diffusion_step_coefficient_overflows(self):
        raw = base_quad()
        raw["model"]["diffusion"] = [1.0, 1.5, 2.0, 1e308]
        assert_mentions(errors_from(raw), "model.diffusion[3]: dt * d / h^2")

    def test_closure_species_step_coefficient_overflows(self):
        raw = closure_overflow_quad()
        assert validate_config(raw).solver.dt == 1e200
        assert_mentions(
            errors_from(raw, augment=True), "--augment (closure species): dt * d / h^2"
        )
        raw["transform"] = {"augment": True}
        for augment in (False, True):
            assert_mentions(
                errors_from(raw, augment),
                "transform.augment (closure species): dt * d / h^2",
            )

    def test_auxiliary_diffusion_overflows(self):
        raw = base_quad()
        raw["grid"]["n_cells"] = 128
        raw["diagnostics"] = {"enabled": True, "d": 1e308}
        assert_mentions(errors_from(raw), "diagnostics.d: dt * d / h^2")

    def test_auxiliary_forcing_overflows(self):
        # dt d / h^2 is finite on 16 cells, but sum_i (d - d_i) u_i is not.
        raw = base_quad()
        raw["diagnostics"] = {"enabled": True, "d": 1e308}
        assert_mentions(errors_from(raw), "diagnostics.d: the initial forcing")

    def test_gaussian_width_that_squares_to_zero(self):
        raw = base_quad()
        raw["initial"][0] = {"type": "gaussian", "center": 0.5, "width": 1e-300, "amplitude": 1.0}
        assert_mentions(errors_from(raw), "initial[0]: profile values")

    def test_gaussian_centre_whose_distance_squares_to_overflow(self):
        raw = base_quad()
        raw["initial"][2] = {"type": "gaussian", "center": 1e300, "width": 0.1, "amplitude": 1.0}
        assert_mentions(errors_from(raw), "initial[2]: profile values")

    def test_initial_mass_overflows(self):
        raw = base_quad()
        raw["grid"]["length"] = 1e10
        raw["initial"][1] = {"type": "constant", "value": 1e300}
        assert_mentions(errors_from(raw), "initial[1]: the initial mass")

    def test_large_but_finite_quantities_pass(self):
        raw = base_quad()
        raw["model"]["diffusion"] = [1.0, 1.5, 2.0, 1e300]
        raw["initial"][0] = {"type": "gaussian", "center": 0.5, "width": 1e-150, "amplitude": 1e300}
        assert validate_config(raw).solver.dt == 0.01


class TestDiagnosticsValidation:
    def test_enabled_requires_d(self):
        raw = base_quad()
        raw["diagnostics"] = {"enabled": True}
        assert_mentions(errors_from(raw), "diagnostics.d")

    def test_d_must_dominate_species_diffusion(self):
        raw = base_quad()
        raw["diagnostics"] = {"enabled": True, "d": 2.5}
        assert_mentions(errors_from(raw), "strictly exceed")

    def test_augmentation_raises_the_floor_to_one(self):
        # The closure species carries diffusion 1, so with augment on even a
        # d above every base coefficient can be too small.
        raw = base_quad()
        raw["model"] = {
            "custom": {
                "n_species": 1, "k0": 0.0, "k1": 0.0, "k": 1.0, "eps": 0.0,
                "terms": [[]],
            },
            "diffusion": [0.5],
        }
        raw["initial"] = [{"type": "constant", "value": 1.0}]
        raw["transform"] = {"augment": True}
        raw["diagnostics"] = {"enabled": True, "d": 0.8}
        assert_mentions(errors_from(raw), "largest is 1.0")

    def test_enabled_must_be_boolean(self):
        raw = base_quad()
        raw["diagnostics"] = {"enabled": "yes", "d": 5.0}
        assert_mentions(errors_from(raw), "diagnostics.enabled")


class TestFitValidation:
    def test_unknown_series(self):
        raw = base_quad()
        raw["fits"] = [{"series": "energy", "window": [0.0, 1.0]}]
        assert_mentions(errors_from(raw), "fits[0].series")

    def test_unknown_mode(self):
        raw = base_quad()
        raw["fits"] = [
            {"series": "mass_total", "mode": "sinusoidal", "window": [0.0, 1.0]}
        ]
        assert_mentions(errors_from(raw), "fits[0].mode")

    def test_window_is_required_and_ordered(self):
        raw = base_quad()
        raw["fits"] = [{"series": "mass_total"}]
        assert_mentions(errors_from(raw), "fits[0].window")
        raw["fits"] = [{"series": "mass_total", "window": [1.0, 0.5]}]
        assert_mentions(errors_from(raw), "t_start < t_end")

    def test_defaults(self):
        raw = base_quad()
        raw["fits"] = [{"series": "sup_total", "window": [0.0, 0.1]}]
        cfg = validate_config(raw)
        assert cfg.fits[0]["mode"] == "exponential"
        assert cfg.fits[0]["bias_correct"] is False


class TestMiscValidation:
    def test_inject_values_must_be_numbers(self):
        raw = base_quad()
        raw["inject"] = {"z_offset": "big"}
        assert_mentions(errors_from(raw), "inject.z_offset")

    def test_output_paths_must_be_strings(self):
        raw = base_quad()
        raw["output"] = {"csv": 7}
        assert_mentions(errors_from(raw), "output.csv")

    def test_output_paths_must_not_be_empty(self):
        raw = base_quad()
        raw["output"] = {"csv": "", "report": "report.json"}
        errors = errors_from(raw)
        assert_mentions(errors, "output.csv")
        assert not any("output.report" in e for e in errors)

    def test_output_paths_must_name_different_files(self):
        raw = base_quad()
        raw["output"] = {"csv": "out/run.json", "report": "out/../out/./run.json"}
        assert_mentions(errors_from(raw), "output.report")

    def test_distinct_output_paths_are_kept(self):
        raw = base_quad()
        raw["output"] = {"csv": "out/run.csv", "report": "out/run.json"}
        cfg = validate_config(raw)
        assert (cfg.csv_path, cfg.report_path) == ("out/run.csv", "out/run.json")

    def test_seed_must_be_a_nonnegative_integer(self):
        raw = base_quad()
        raw["seed"] = -1
        assert_mentions(errors_from(raw), "seed")

    def test_seed_must_fit_in_64_bits(self):
        # The audits draw from a 64-bit stream, so seed and seed + 2^64
        # would give the same samples.
        raw = base_quad()
        raw["seed"] = 2**64 - 1
        assert validate_config(raw).seed == 2**64 - 1
        raw["seed"] = 2**64
        assert errors_from(raw) == [f"seed: must be <= {2**64 - 1}, got {2**64}"]

    def test_augment_flag_must_be_boolean(self):
        raw = base_quad()
        raw["transform"] = {"augment": "yes"}
        assert_mentions(errors_from(raw), "transform.augment")


class TestUnknownKeys:
    def test_misspelled_keys_are_all_reported(self):
        raw = base_quad()
        raw["solver"] = {"dt": 0.01, "t_end": 0.1, "max_halvings": 0, "dtt": 3}
        raw["bogus_section"] = {}
        errors = errors_from(raw)
        assert errors == [
            "bogus_section: unknown key",
            "solver.max_halvings: unknown key",
            "solver.dtt: unknown key",
        ]

    def test_nested_keys_are_reported_by_their_dotted_path(self):
        raw = base_quad()
        raw["model"]["interaction"] = [[0.0]]  # read by skew_lv only
        raw["grid"]["cells"] = 16
        raw["initial"][2] = {"type": "constant", "value": 1.0, "amplitude": 2.0}
        raw["diagnostics"] = {"enabled": False, "dd": 5.0}
        raw["transform"] = {"augmented": True}
        raw["fits"] = [{"series": "mass_total", "window": [0.0, 0.1], "bias": True}]
        raw["inject"] = {"offset": 1.0}
        raw["output"] = {"json": "report.json"}
        assert_mentions(
            errors_from(raw),
            "model.interaction: unknown key",
            "grid.cells: unknown key",
            "initial[2].amplitude: unknown key",
            "diagnostics.dd: unknown key",
            "transform.augmented: unknown key",
            "fits[0].bias: unknown key",
            "inject.offset: unknown key",
            "output.json: unknown key",
        )

    def test_custom_model_keys(self):
        raw = base_quad()
        raw["model"] = {
            "custom": {
                "n_species": 1, "k0": 0.0, "k1": 0.0, "k": 1.0, "eps": 0.0,
                "name": "sink", "kk": 1.0,
                "terms": [[{"coef": -1.0, "powers": [1], "power": 1}]],
            },
            "diffusion": [1.0],
        }
        raw["initial"] = [{"type": "constant", "value": 1.0}]
        errors = errors_from(raw)
        assert errors == [
            "model.custom.kk: unknown key",
            "model.custom.terms[0][0].power: unknown key",
        ]

    def test_readme_quick_start_config_validates(self):
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = validate_config(json.loads(block))
        assert cfg.diagnostics is not None and cfg.grid.n_cells == 128


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(base_quad()))
        cfg = load_config(str(path))
        assert cfg.system.n_species == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))


    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(str(path))


class TestBuildInitialState:
    """cfg.u0, the initial array that validation builds."""

    def test_constant_profiles(self):
        cfg = validate_config(base_quad())
        assert cfg.u0.dtype == np.float64
        np.testing.assert_array_equal(cfg.u0, np.ones((4, 16)))
        assert not cfg.u0.flags.writeable
        with pytest.raises(ValueError):
            cfg.u0[0, 0] = 2.0

    def test_extra_zero_species(self):
        # The closure species starts from zero, whichever way it is turned on.
        raw = base_quad()
        flagged = validate_config(raw, augment=True)
        raw["transform"] = {"augment": True}
        configured = validate_config(raw)
        for cfg in (flagged, configured):
            assert cfg.u0.shape == (5, 16)
            assert cfg.u0.shape[0] == cfg.augmented.n_species
            np.testing.assert_array_equal(cfg.u0[:4], np.ones((4, 16)))
            np.testing.assert_array_equal(cfg.u0[4], np.zeros(16))
            assert not cfg.u0.flags.writeable

    def test_gaussian_profile_hand_values(self):
        raw = base_quad()
        raw["initial"][0] = {
            "type": "gaussian", "center": 0.5, "width": 0.1, "amplitude": 2.0,
        }
        cfg = validate_config(raw)
        x = cfg.grid.centers
        expected = 2.0 * np.exp(-((x - 0.5) ** 2) / (2.0 * 0.1 * 0.1))
        np.testing.assert_allclose(cfg.u0[0], expected, rtol=1e-15)

    def test_piecewise_profile_hand_values(self):
        raw = base_quad()
        raw["grid"]["n_cells"] = 8
        raw["initial"][0] = {
            "type": "piecewise", "values": [1.0, 2.0, 3.0], "breaks": [0.25, 0.5],
        }
        cfg = validate_config(raw)
        assert cfg.u0.dtype == np.float64
        np.testing.assert_array_equal(
            cfg.u0[0], [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]
        )

    def test_piecewise_break_hits_a_center(self):
        # A cell center exactly on a breakpoint takes the right-hand value.
        raw = base_quad()
        raw["grid"]["n_cells"] = 2
        raw["initial"][0] = {
            "type": "piecewise", "values": [5.0, 9.0], "breaks": [0.25],
        }
        cfg = validate_config(raw)
        np.testing.assert_array_equal(cfg.u0[0], [9.0, 9.0])


def corpus_quad():
    """A small-grid quad config that sets every section and every key."""
    return {
        "model": {"builtin": "quadratic_reversible", "diffusion": [1.0, 1.5, 2.0, 2.5]},
        "grid": {"n_cells": 16, "length": 1.0},
        "initial": [
            {"type": "constant", "value": 1.0},
            {"type": "gaussian", "center": 0.3, "width": 0.1, "amplitude": 1.0},
            {"type": "piecewise", "values": [0.5, 1.0], "breaks": [0.5]},
            {"type": "constant", "value": 0.4},
        ],
        "solver": {
            "dt": 0.01, "t_end": 0.1, "record_every": 2,
            "positivity_floor": -1e-12, "max_step_halvings": 5,
        },
        "diagnostics": {"enabled": True, "d": 5.0},
        "transform": {"augment": True},
        "fits": [
            {"series": "mass_total", "mode": "exponential", "window": [0.0, 0.1],
             "bias_correct": True},
        ],
        "inject": {"z_offset": 0.0, "augmentation_offset": 0.0},
        "output": {"csv": "run.csv", "report": "report.json"},
        "seed": 3,
    }


def corpus_custom():
    """A small-grid two-species custom polynomial config."""
    raw = corpus_quad()
    raw["model"] = {
        "custom": {
            "n_species": 2, "k0": 0.0, "k1": 0.0, "k": 2.0, "eps": 0.0,
            "name": "exchange",
            "terms": [
                [{"coef": -1.0, "powers": [1, 0]}, {"coef": 1.0, "powers": [0, 1]}],
                [{"coef": 1.0, "powers": [1, 0]}, {"coef": -1.0, "powers": [0, 1]}],
            ],
        },
        "diffusion": [1.0, 2.0],
    }
    raw["initial"] = raw["initial"][1:3]
    raw["transform"] = {"augment": False}
    raw["fits"][0]["series"] = "sup_total"
    return raw


def corpus_skew():
    """A small-grid skew Lotka-Volterra config with diagnostics off."""
    raw = base_skew()
    raw["diagnostics"] = {"enabled": False}
    raw["fits"] = [{"series": "distance_to_equilibrium", "mode": "polynomial",
                    "window": [0.01, 0.05]}]
    raw["seed"] = 0
    return raw


CORPUS = {"quad": corpus_quad, "custom": corpus_custom, "skew": corpus_skew}
# Each leaf is set to each of these, and also removed.
MUTATIONS = (
    "x", True, None, -1, 0, 2, math.nan, math.inf, [1], {}, 10**400, -0.0, 1.5,
)
REMOVED = object()


def leaves(node, path=()):
    """The paths of every value of a parsed config that holds no other value."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    found = False
    for key, child in children:
        found = True
        yield from leaves(child, path + (key,))
    if not found and path:
        yield path


def dotted(path):
    """The dotted field path ConfigError messages use for path."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else (f".{key}" if text else key)
    return text


def mutated(raw, path, value):
    """A copy of raw with the leaf at path set to value, or removed; and
    the leaf's old value."""
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    if value is REMOVED:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return raw, old


class TestMutationCorpus:
    """Every leaf of three configs set to each awkward JSON value, or removed."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_every_mutation_validates_or_is_a_named_config_error(self, name):
        raw = CORPUS[name]()
        validate_config(raw)
        problems = []
        for path in leaves(raw):
            label = dotted(path)
            section = re.match(r"\w+", label).group()
            for value in MUTATIONS + (REMOVED,):
                changed, old = mutated(raw, path, value)
                what = f"{label} = {'removed' if value is REMOVED else reprlib.repr(value)}"
                try:
                    validate_config(changed)
                except ConfigError as exc:
                    # Each message leads with the dotted path it names.  The
                    # leaf, a path under it and a cross-field path of its
                    # section (model.diffusion for model.custom.n_species)
                    # all start with the section.
                    if not any(re.match(rf"{section}\b", m) for m in exc.errors):
                        problems.append(f"{what}: no message names it: {exc.errors}")
                except Exception as exc:  # the corpus looks for these
                    problems.append(f"{what}: raised {type(exc).__name__}: {exc}")
                else:
                    if value is True and type(old) in (int, float):
                        problems.append(f"{what}: true was taken as a number")
        assert not problems, "\n".join(problems[:20])
