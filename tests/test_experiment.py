"""End-to-end experiment runs: reports, CSV artifacts, fits, and injections."""

import json
import math

import pytest

from rdcheck.config import validate_config
from rdcheck.errors import ConfigError
from rdcheck.experiment import config_sha256, run_experiment, write_atomic

DT = 1e-3
T_END = 0.02
N_STEPS = 20

QUAD_HEADER = (
    "t,sup_u_1,sup_u_2,sup_u_3,sup_u_4,"
    "mass_1,mass_2,mass_3,mass_4,mass_total,entropy,"
    "cons_law_1,cons_law_2,cons_law_3,"
    "z_sup,b_min,b_max,vd_consistency,zvd_residual,grad_vd_sup"
)


def quad_raw(**overrides):
    """Small reversible-exchange config with strictly positive initial data."""
    raw = {
        "model": {
            "builtin": "quadratic_reversible",
            "diffusion": [1.0, 1.5, 2.0, 2.5],
        },
        "grid": {"n_cells": 16, "length": 1.0},
        "initial": [
            {"type": "gaussian", "center": 0.3, "width": 0.1, "amplitude": 1.0},
            {"type": "constant", "value": 0.5},
            {"type": "gaussian", "center": 0.7, "width": 0.15, "amplitude": 0.8},
            {"type": "constant", "value": 0.4},
        ],
        "solver": {"dt": DT, "t_end": T_END},
        "diagnostics": {"enabled": True, "d": 5.0},
    }
    raw.update(overrides)
    return raw


def skew_raw(**overrides):
    """Two-species exchange-with-decay config, diagnostics off."""
    raw = {
        "model": {
            "builtin": "skew_lv",
            "interaction": [[0.0, 1.0], [-1.0, 0.0]],
            "decay": [1.0, 1.0],
            "diffusion": [1.0, 1.0],
        },
        "grid": {"n_cells": 16, "length": 1.0},
        "initial": [
            {"type": "gaussian", "center": 0.4, "width": 0.1, "amplitude": 1.0},
            {"type": "gaussian", "center": 0.6, "width": 0.1, "amplitude": 1.0},
        ],
        "solver": {"dt": DT, "t_end": T_END},
    }
    raw.update(overrides)
    return raw


def run_raw(raw, **kwargs):
    return run_experiment(validate_config(raw), **kwargs)


def check_map(report):
    return {c["name"]: c for c in report["checks"]}


def data_rows(csv_text):
    lines = csv_text.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestArtifactHelpers:
    def test_digest_ignores_key_order(self):
        a = config_sha256({"a": 1, "b": [2, 3]})
        b = config_sha256({"b": [2, 3], "a": 1})
        assert a == b
        assert len(a) == 64
        assert all(ch in "0123456789abcdef" for ch in a)

    def test_digest_sees_value_changes(self):
        assert config_sha256({"a": 1}) != config_sha256({"a": 2})

    def test_write_atomic_creates_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.txt"
        write_atomic(str(target), "payload\n")
        assert target.read_text() == "payload\n"

    def test_write_atomic_overwrites(self, tmp_path):
        target = tmp_path / "out.txt"
        write_atomic(str(target), "old")
        write_atomic(str(target), "new")
        assert target.read_text() == "new"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.txt"]
        assert leftovers == []


@pytest.fixture(scope="module")
def quad_outcome(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("quad-run")
    raw = quad_raw(
        output={
            "csv": str(outdir / "run.csv"),
            "report": str(outdir / "report.json"),
        }
    )
    outcome = run_raw(raw)
    return raw, outcome, outdir


class TestQuadReport:
    def test_overall_pass(self, quad_outcome):
        _, outcome, _ = quad_outcome
        assert outcome.report["overall"] == "pass"
        assert outcome.passed
        assert not outcome.aborted
        assert not outcome.augmented
        assert outcome.report["failure"] is None

    def test_report_key_set(self, quad_outcome):
        _, outcome, _ = quad_outcome
        assert set(outcome.report) == {
            "augmented",
            "checks",
            "config",
            "config_sha256",
            "failure",
            "fits",
            "measurements",
            "n_accepted_steps",
            "overall",
            "system",
        }

    def test_expected_check_battery(self, quad_outcome):
        _, outcome, _ = quad_outcome
        names = [c["name"] for c in outcome.report["checks"]]
        assert names == [
            "structure_quasi_positivity",
            "structure_mass_control",
            "structure_growth",
            "positivity",
            "conservation[u1+u3]",
            "conservation[u2+u3]",
            "conservation[u2+u4]",
            "mass_envelope",
            "entropy_dissipation",
            "z_sup_bound",
            "b_range",
            "uhat_nonnegative",
            "uhat_below_d_zhat",
            "uhat_sup_bound",
        ]
        assert all(c["passed"] is True for c in outcome.report["checks"])

    def test_step_count(self, quad_outcome):
        _, outcome, _ = quad_outcome
        assert outcome.report["n_accepted_steps"] == N_STEPS

    def test_measurement_block(self, quad_outcome):
        _, outcome, _ = quad_outcome
        meas = outcome.report["measurements"]
        assert set(meas) == {
            "initial_sup_sum",
            "forcing_sup_max",
            "z_sup_max",
            "vd_consistency_max",
            "zvd_residual_max",
            "grad_vd_max",
            "uhat_sup_max",
            "holder",
        }
        assert meas["z_sup_max"] > 0.0
        assert set(meas["holder"]) == {
            "v_d:0.25",
            "v_d:0.5",
            "z_hat:0.25",
            "z_hat:0.5",
            "u_hat:0.25",
            "u_hat:0.5",
        }

    def test_csv_header_and_shape(self, quad_outcome):
        _, outcome, _ = quad_outcome
        header, rows = data_rows(outcome.csv_text)
        assert header == QUAD_HEADER
        assert len(rows) == N_STEPS + 1
        width = len(header.split(","))
        assert all(len(row) == width for row in rows)

    def test_csv_cells_are_float_reprs(self, quad_outcome):
        _, outcome, _ = quad_outcome
        _, rows = data_rows(outcome.csv_text)
        assert rows[0][0] == "0.0"
        for row in rows:
            for cell in row:
                assert cell != ""
                assert repr(float(cell)) == cell

    def test_entropy_column_is_dissipative(self, quad_outcome):
        _, outcome, _ = quad_outcome
        header, rows = data_rows(outcome.csv_text)
        col = header.split(",").index("entropy")
        values = [float(row[col]) for row in rows]
        assert all(v <= 1e-12 for v in values)

    def test_times_step_uniformly(self, quad_outcome):
        _, outcome, _ = quad_outcome
        _, rows = data_rows(outcome.csv_text)
        times = [float(row[0]) for row in rows]
        for k, t in enumerate(times):
            assert t == pytest.approx(k * DT, abs=1e-12)

    def test_artifacts_on_disk(self, quad_outcome):
        raw, outcome, outdir = quad_outcome
        assert (outdir / "run.csv").read_text() == outcome.csv_text
        loaded = json.loads((outdir / "report.json").read_text())
        assert loaded == outcome.report
        assert loaded["config_sha256"] == config_sha256(raw)
        assert loaded["config"] == raw

    def test_system_name(self, quad_outcome):
        _, outcome, _ = quad_outcome
        assert outcome.report["system"] == "quadratic-reversible"


class TestDeterminism:
    def test_identical_configs_reproduce_bitwise(self):
        first = run_raw(quad_raw(seed=123))
        second = run_raw(quad_raw(seed=123))
        assert first.csv_text == second.csv_text
        assert first.report == second.report

    def test_seed_changes_only_structure_sampling(self):
        # The solver is deterministic; the seed only drives check sampling.
        first = run_raw(quad_raw(seed=1))
        second = run_raw(quad_raw(seed=2))
        assert first.csv_text == second.csv_text


class TestDiagnosticsToggle:
    def test_tracker_columns_empty_when_disabled(self):
        outcome = run_raw(quad_raw(diagnostics={"enabled": False}))
        header, rows = data_rows(outcome.csv_text)
        assert header == QUAD_HEADER
        for row in rows:
            assert row[-6:] == [""] * 6
        names = {c["name"] for c in outcome.report["checks"]}
        assert "z_sup_bound" not in names
        assert "b_range" not in names
        assert outcome.report["measurements"] is None
        assert outcome.tracker is None


class TestMassIdentity:
    def test_present_for_uniform_decay_with_full_recording(self):
        outcome = run_raw(skew_raw())
        entry = check_map(outcome.report)["mass_identity"]
        assert entry["passed"] is True

    def test_same_verdicts_at_any_recording_cadence(self):
        # The checks are fed every accepted step, so sparse recording thins
        # the CSV but leaves every verdict and measured value bitwise alone.
        reports = [
            run_raw(
                skew_raw(solver={"dt": DT, "t_end": T_END, "record_every": every})
            ).report
            for every in (1, 3)
        ]
        dense, sparse = (
            [(c["name"], c["passed"], c["measured"]) for c in r["checks"]]
            for r in reports
        )
        assert sparse == dense
        assert "mass_identity" in check_map(reports[1])

    def test_absent_without_uniform_decay(self, quad_outcome):
        _, outcome, _ = quad_outcome
        assert "mass_identity" not in check_map(outcome.report)


class TestFits:
    def test_exponential_fit_recovers_discrete_decay(self):
        raw = skew_raw(
            solver={"dt": DT, "t_end": 0.05},
            fits=[
                {
                    "series": "mass_total",
                    "mode": "exponential",
                    "window": [0.0, 0.05],
                    "bias_correct": True,
                }
            ],
        )
        outcome = run_raw(raw)
        assert outcome.report["overall"] == "pass"
        (entry,) = outcome.report["fits"]
        assert entry["series"] == "mass_total"
        assert entry["mode"] == "exponential"
        assert entry["window"] == [0.0, 0.05]
        assert entry["n_samples"] == 51
        # Total mass shrinks by exactly 1 - dt each step, so the log-linear
        # fit is exact and the bias correction lands on the continuum rate.
        expected = -math.log1p(-DT) / DT
        assert entry["rate"] == pytest.approx(expected, rel=1e-9)
        assert entry["corrected_rate"] == pytest.approx(1.0, rel=1e-9)
        assert entry["r_squared"] == pytest.approx(1.0, abs=1e-12)
        assert entry["prefactor"] > 0.0

    def test_no_bias_correction_without_flag(self):
        raw = skew_raw(
            solver={"dt": DT, "t_end": 0.05},
            fits=[
                {
                    "series": "mass_total",
                    "mode": "exponential",
                    "window": [0.0, 0.05],
                }
            ],
        )
        outcome = run_raw(raw)
        (entry,) = outcome.report["fits"]
        assert "corrected_rate" not in entry

    def test_window_filters_samples(self):
        raw = skew_raw(
            solver={"dt": DT, "t_end": 0.05},
            fits=[
                {
                    "series": "sup_total",
                    "mode": "exponential",
                    "window": [0.0195, 0.0405],
                }
            ],
        )
        outcome = run_raw(raw)
        (entry,) = outcome.report["fits"]
        assert entry["n_samples"] == 21

    def test_empty_window_becomes_failed_check(self):
        raw = skew_raw(
            fits=[
                {
                    "series": "mass_total",
                    "mode": "exponential",
                    "window": [5.0, 6.0],
                }
            ]
        )
        outcome = run_raw(raw)
        (entry,) = outcome.report["fits"]
        assert "rate" not in entry
        assert "needs at least 4 samples" in entry["error"]
        check = check_map(outcome.report)["fit_mass_total"]
        assert check["passed"] is False
        assert outcome.report["overall"] == "fail"

    def test_equilibrium_distance_requires_four_species(self):
        raw = skew_raw(
            fits=[
                {
                    "series": "distance_to_equilibrium",
                    "mode": "exponential",
                    "window": [0.0, T_END],
                }
            ]
        )
        outcome = run_raw(raw)
        (entry,) = outcome.report["fits"]
        assert "error" in entry
        assert check_map(outcome.report)["fit_distance_to_equilibrium"]["passed"] is False


class TestAugmentedRun:
    def test_closure_species_and_checks(self):
        outcome = run_raw(skew_raw(transform={"augment": True}))
        assert outcome.augmented
        assert outcome.report["augmented"] is True
        assert outcome.report["system"].endswith("+mass-closure")
        header, rows = data_rows(outcome.csv_text)
        assert header == (
            "t,sup_u_1,sup_u_2,sup_u_3,mass_1,mass_2,mass_3,mass_total,entropy,"
            "z_sup,b_min,b_max,vd_consistency,zvd_residual,grad_vd_sup"
        )
        aug = check_map(outcome.report)
        for name in (
            "augmented_quasi_positivity",
            "augmented_conservation_residual",
            "augmented_growth",
        ):
            assert aug[name]["passed"] is True
        col = header.split(",").index("mass_total")
        totals = [float(row[col]) for row in rows]
        for total in totals:
            assert total == pytest.approx(totals[0], rel=1e-12)

    def test_override_forces_augmentation(self):
        outcome = run_raw(skew_raw(), augment_override=True)
        assert outcome.augmented
        assert "augmented_growth" in check_map(outcome.report)

    def test_override_none_keeps_config_choice(self):
        outcome = run_raw(skew_raw(), augment_override=None)
        assert not outcome.augmented

    def test_override_can_invalidate_auxiliary_diffusion(self):
        raw = {
            "model": {
                "custom": {
                    "n_species": 1,
                    "terms": [[]],
                    "k0": 0.0,
                    "k1": 0.0,
                    "k": 1.0,
                    "eps": 0.0,
                },
                "diffusion": [0.5],
            },
            "grid": {"n_cells": 8, "length": 1.0},
            "initial": [{"type": "constant", "value": 1.0}],
            "solver": {"dt": DT, "t_end": 0.005},
            "diagnostics": {"enabled": True, "d": 0.8},
        }
        assert run_raw(raw).passed
        with pytest.raises(ConfigError, match="diagnostics.d"):
            run_raw(raw, augment_override=True)


class TestInjections:
    def test_z_offset_breaks_supremum_bound(self):
        raw = quad_raw(
            initial=[{"type": "constant", "value": 1.0}] * 4,
            inject={"z_offset": 1.0},
        )
        outcome = run_raw(raw)
        assert outcome.report["overall"] == "fail"
        z_check = check_map(outcome.report)["z_sup_bound"]
        assert z_check["passed"] is False
        assert z_check["measured"] == pytest.approx(5.0, rel=1e-12)
        assert z_check["bound"] == pytest.approx(4.0, rel=1e-12)

    def test_augmentation_offset_breaks_conservation(self):
        raw = skew_raw(
            transform={"augment": True}, inject={"augmentation_offset": 0.1}
        )
        outcome = run_raw(raw)
        assert outcome.report["overall"] == "fail"
        broken = check_map(outcome.report)["augmented_conservation_residual"]
        assert broken["passed"] is False
        clean = run_raw(skew_raw(transform={"augment": True}))
        assert clean.report["overall"] == "pass"


class TestAbortedRun:
    @pytest.fixture()
    def sink_raw(self, tmp_path):
        return {
            "model": {
                "custom": {
                    "n_species": 1,
                    "terms": [[{"coef": -1.0, "powers": [0]}]],
                    "k0": 0.0,
                    "k1": 0.0,
                    "k": 2.0,
                    "eps": 0.0,
                },
                "diffusion": [1.0],
            },
            "grid": {"n_cells": 8, "length": 1.0},
            "initial": [{"type": "constant", "value": 0.0}],
            "solver": {"dt": 0.1, "t_end": 1.0},
            "output": {
                "csv": str(tmp_path / "partial.csv"),
                "report": str(tmp_path / "report.json"),
            },
        }

    def test_failure_payload_and_partial_csv(self, sink_raw, tmp_path):
        outcome = run_raw(sink_raw)
        assert outcome.aborted
        assert not outcome.passed
        assert outcome.trajectory is None
        report = outcome.report
        assert report["overall"] == "aborted"
        assert report["n_accepted_steps"] == 0
        failure = report["failure"]
        assert failure["time"] == 0.0
        assert failure["species"] == 1
        assert failure["value"] < 0.0
        assert failure["message"]
        header, rows = data_rows(outcome.csv_text)
        assert header.startswith("t,sup_u_1,")
        assert len(rows) == 1 and rows[0][0] == "0.0"
        assert (tmp_path / "partial.csv").read_text() == outcome.csv_text
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["overall"] == "aborted"

    def test_structure_checks_still_reported(self, sink_raw):
        report = run_raw(sink_raw).report
        # A constant sink is not quasi-positive; the probe sees it even
        # though the run aborts before any step is accepted.
        assert check_map(report)["structure_quasi_positivity"]["passed"] is False
        assert report["fits"] == []
