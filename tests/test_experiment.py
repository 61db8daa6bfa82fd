"""End-to-end experiment runs: reports, CSV artifacts, fits, and injections."""

import dataclasses
import json
import math
import os
import re
import stat
import tracemalloc
import types

import numpy as np
import pytest
from conftest import collected_run, hand_built_event

from rdcheck import (
    Grid1D, check_structure, custom_polynomial, diagnostics, experiment, theory,
)
from rdcheck.config import ConfigError, validate_config
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


def run_raw(raw, augment=False):
    return run_experiment(validate_config(raw, augment))


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

    def test_write_atomic_gives_the_mode_open_would(self, tmp_path):
        target = tmp_path / "out.txt"
        umask = os.umask(0o022)
        try:
            write_atomic(str(target), "payload\n")
        finally:
            os.umask(umask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o644


class TestCsvCells:
    """The CSV cell contract: a number is repr(float(x)), an empty cell ""."""

    system = custom_polynomial(
        [1.0, 1.0], [[], []], k0=0.0, k1=0.0, growth_k=1.0, growth_eps=0.0
    )
    seventeen = 0.1 + 0.2  # 0.30000000000000004
    positive = np.full((2, 3), 2.0)
    half_empty = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    events = (
        # -0.0, the smallest subnormal and a 17-digit value; a finite entropy.
        (0.0, positive, np.ones((2, 3)), [-0.0, 5e-324], [seventeen, 1.0 / 3.0]),
        # inf and nan cells, a total that overflows, and a NaN entropy.
        (seventeen, positive, np.full((2, 3), np.nan), [np.inf, np.nan], [1e308, 1e308]),
        # An undefined (None) entropy, next to the NaN one, and a NaN total.
        (1.0, half_empty, np.ones((2, 3)), [0.0, 3.0], [np.nan, 2.0]),
    )

    def recorded_text(self, tracker=None):
        recorder = experiment._Recorder(self.system, Grid1D(3, 1.0), tracker)
        for index, (t, u, f, sups, masses) in enumerate(self.events):
            recorder.on_step(hand_built_event(index, t, u, f, sups, masses))
        return recorder.text()

    def expected_rows(self, diagnostic_cells):
        rows = []
        for t, u, f, sups, masses in self.events:
            with np.errstate(over="ignore"):
                total = np.sum(np.asarray(masses))
            entropy = diagnostics.entropy_pointwise_worst(u, f)
            cells = [repr(float(c)) for c in (t, *sups, *masses, total)]
            cells.append("" if entropy is None else repr(float(entropy)))
            rows.append(",".join(cells + list(diagnostic_cells)))
        return rows

    def test_cells_without_the_tracker(self):
        lines = self.recorded_text().splitlines()
        assert lines[0] == (
            "t,sup_u_1,sup_u_2,mass_1,mass_2,mass_total,entropy,"
            "z_sup,b_min,b_max,vd_consistency,zvd_residual,grad_vd_sup"
        )
        assert lines[1:] == self.expected_rows([""] * 6)
        assert lines[1].split(",")[1:4] == ["-0.0", "5e-324", "0.30000000000000004"]
        assert lines[2].split(",")[1:7] == ["inf", "nan", "1e+308", "1e+308", "inf", "nan"]
        # A NaN total, and the undefined entropy next to the NaN one.
        assert lines[3].split(",")[5:7] == ["nan", ""]

    def test_diagnostic_cells_follow_the_same_rule(self):
        row = (-0.0, 5e-324, math.inf, math.nan, self.seventeen, 1.0)
        tracker = types.SimpleNamespace(row=row)
        lines = self.recorded_text(tracker).splitlines()
        cells = ["-0.0", "5e-324", "inf", "nan", "0.30000000000000004", "1.0"]
        assert lines[1:] == self.expected_rows(cells)


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
        assert outcome.report["augmented"] is False
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
            "mass_identity",
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
        assert set(meas["holder"]) == {"v_d:0.25", "v_d:0.5"}

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

    @pytest.mark.parametrize("section", [{"enabled": True, "d": 5.0}, {"enabled": False}])
    def test_header_ends_with_the_tracker_columns(self, section):
        # The tracker names its cells; every row has one cell per header
        # name, diagnostics on or off.
        header, rows = data_rows(run_raw(quad_raw(diagnostics=section)).csv_text)
        names = header.split(",")
        columns = diagnostics.AuxiliaryTracker.columns
        assert tuple(names[-len(columns):]) == columns
        assert rows and all(len(row) == len(names) for row in rows)


def custom_raw(terms, k=1.0, k1=0.0):
    """Polynomial config with declared k0 = 0, k1, growth constant k, eps = 0."""
    n = len(terms)
    return {
        "model": {
            "custom": {
                "n_species": n,
                "terms": [
                    [{"coef": c, "powers": list(p)} for c, p in row] for row in terms
                ],
                "k0": 0.0,
                "k1": k1,
                "k": k,
                "eps": 0.0,
            },
            "diffusion": [1.0] * n,
        },
        "grid": {"n_cells": 16, "length": 1.0},
        "initial": [{"type": "constant", "value": 0.5}] * n,
        "solver": {"dt": DT, "t_end": T_END},
    }


class TestStructureWitnesses:
    @pytest.mark.parametrize(
        "raw, augment, name, passed, pattern",
        [
            # f = (-u2, u2) pushes species 1 negative on its own face.
            (
                custom_raw([[(-1.0, (0, 1))], [(1.0, (0, 1))]]),
                False,
                "structure_quasi_positivity",
                False,
                r"species 1 reaches -\S+ at \[0\.0, \S+\]",
            ),
            # f = u exceeds the declared allowance k0 + k1 sum u = 0.
            (
                custom_raw([[(1.0, (1,))]]),
                False,
                "structure_mass_control",
                False,
                r"sum \S+ exceeds allowance \S+ at \[\S+\]",
            ),
            # f = u^4 outgrows the declared quadratic envelope; k1 keeps
            # mass control on the sampling range.
            (
                custom_raw([[(1.0, (4,))]], k1=1e12),
                False,
                "structure_growth",
                False,
                r"species 1: \|f_1\| = \S+ exceeds envelope \S+ at \[\S+\]",
            ),
            (
                skew_raw(inject={"augmentation_offset": 0.1}),
                True,
                "augmented_conservation_residual",
                False,
                r"sum \S+ vs target \S+ at t = \S+, w = \[\S+, \S+, \S+\]",
            ),
            (quad_raw(), False, "structure_quasi_positivity", True, r"\d+ samples"),
        ],
        ids=[
            "quasi-positivity",
            "mass-control",
            "growth",
            "closure-conservation",
            "passing",
        ],
    )
    def test_report_detail_names_the_witness(self, raw, augment, name, passed, pattern):
        entry = check_map(run_raw(raw, augment).report)[name]
        assert entry["passed"] is passed
        assert re.fullmatch(pattern, entry["detail"]), entry["detail"]


class TestHolderScan:
    def test_one_scan_per_recorded_step_and_none_at_t0(self, monkeypatch):
        scanned = []
        original = diagnostics.holder_modulus

        def counting(values, h, gammas):
            scanned.append(values.copy())
            return original(values, h, gammas)

        monkeypatch.setattr(diagnostics, "holder_modulus", counting)
        outcome = run_raw(quad_raw(solver={"dt": DT, "t_end": T_END, "record_every": 3}))
        _, rows = data_rows(outcome.csv_text)
        # Steps 3, 6, ..., 18 and the last one, 20; the t = 0 row is not scanned.
        assert len(rows) == 1 + N_STEPS // 3 + 1
        assert len(scanned) == len(rows) - 1
        assert all(np.any(values != 0.0) for values in scanned)
        assert set(outcome.report["measurements"]["holder"]) == {"v_d:0.25", "v_d:0.5"}


class TestReactionEvaluations:
    def test_one_evaluation_per_state_outside_the_audit(self, monkeypatch):
        # The solver evaluates the reaction once at u0 and at each accepted
        # state, and the entropy column, the t = 0 row's included, reads it
        # from the state's event.  The structure audit's samples are not run
        # states.
        cfg = validate_config(quad_raw())
        calls, audited = [], []
        evaluate = cfg.system.evaluator

        def counting(u, t):
            calls.append(t)
            return evaluate(u, t)

        def audit(system, rng):
            start = len(calls)
            checks = check_structure(system, rng)
            audited.append(len(calls) - start)
            return checks

        cfg.system = dataclasses.replace(cfg.system, evaluator=counting)
        monkeypatch.setattr(experiment, "check_structure", audit)
        steps = run_experiment(cfg).report["n_accepted_steps"]
        assert steps == N_STEPS and audited[0] > 0
        assert len(calls) - audited[0] == steps + 1


class TestEndTimeBelowOne:
    def test_tiny_end_time_takes_every_step(self):
        # The end-of-run slack is relative to t_end: an absolute 1e-12 would
        # exceed t_end itself and end the run before its first step.
        raw = {
            "model": {
                "custom": {
                    "n_species": 1,
                    "terms": [[{"coef": -1.0, "powers": [2]}]],
                    "k0": 0.0,
                    "k1": 0.0,
                    "k": 1.0,
                    "eps": 0.0,
                },
                "diffusion": [1.0],
            },
            "grid": {"n_cells": 8, "length": 1.0},
            "initial": [{"type": "constant", "value": 1.0}],
            "solver": {"dt": 1e-160, "t_end": 1e-159},
            "diagnostics": {"enabled": True, "d": 2.0},
        }
        outcome = run_raw(raw)
        assert outcome.report["n_accepted_steps"] == 10
        _, rows = data_rows(outcome.csv_text)
        assert len(rows) == 11
        assert float(rows[-1][0]) == pytest.approx(1e-159, rel=1e-12)


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

    def test_present_without_uniform_decay(self, quad_outcome):
        # The mass ledger holds for every system, not only for equal decay.
        _, outcome, _ = quad_outcome
        entry = check_map(outcome.report)["mass_identity"]
        assert entry["passed"] is True
        assert entry["measured"] <= entry["tolerance"] == 1e-12


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


    def test_equilibrium_distance_of_zero_masses_becomes_failed_fit(self):
        raw = quad_raw(
            initial=[{"type": "constant", "value": 0.0}] * 4,
            diagnostics={"enabled": False},
            fits=[
                {
                    "series": "distance_to_equilibrium",
                    "mode": "exponential",
                    "window": [0.0, T_END],
                }
            ],
        )
        outcome = run_raw(raw)
        (entry,) = outcome.report["fits"]
        assert entry["error"] == "conserved mass m13 must be > 0, got 0.0"
        check = check_map(outcome.report)["fit_distance_to_equilibrium"]
        assert check["passed"] is False
        assert check["detail"] == "fit failed: conserved mass m13 must be > 0, got 0.0"


class TestFitsReadTheFoldedColumns:
    def test_fits_and_csv_match_a_collected_run(self):
        # Three chunks of states, one recorded in seven: the fit series and
        # the CSV come from the folded columns, and must be the per-state
        # values of the same run.
        t_end = 0.4
        raw = quad_raw(
            grid={"n_cells": 96, "length": 1.0},
            solver={"dt": DT, "t_end": t_end, "record_every": 7},
            fits=[
                {"series": series, "mode": "exponential", "window": [0.0, t_end]}
                for series in ("mass_total", "sup_total")
            ],
        )
        cfg = validate_config(raw)
        outcome = run_experiment(cfg)
        entries = collected_run(cfg.system, cfg.grid, cfg.u0, cfg.solver).entries
        assert outcome.report["n_accepted_steps"] + 1 > 2 * diagnostics._CHUNK
        times = [e.t for e in entries]
        series = {
            "mass_total": [float(np.sum(e.masses)) for e in entries],
            "sup_total": [float(np.sum(e.sup_norms)) for e in entries],
        }
        for entry in outcome.report["fits"]:
            fit = theory.fit_rate(times, series[entry["series"]], "exponential")
            assert entry["n_samples"] == len(entries)
            assert [entry["rate"], entry["prefactor"], entry["r_squared"]] == [
                experiment._num(v) for v in (fit.rate, fit.prefactor, fit.r_squared)
            ]
        header, rows = data_rows(outcome.csv_text)
        column = header.split(",").index
        assert [row[0] for row in rows] == [repr(t) for t in times]
        assert [row[column("mass_total")] for row in rows] == [
            repr(v) for v in series["mass_total"]
        ]
        assert [row[column("sup_u_1") : column("mass_1")] for row in rows] == [
            [repr(float(v)) for v in e.sup_norms] for e in entries
        ]


class TestMemory:
    def test_peak_does_not_grow_with_the_number_of_steps(self):
        # A run keeps its current state and scalar series only: ten times
        # the recorded steps may add CSV rows, but not one more state.
        n_cells = 4096
        state_bytes = 4 * n_cells * 8

        def traced_peak(t_end):
            cfg = validate_config(
                quad_raw(
                    grid={"n_cells": n_cells, "length": 1.0},
                    solver={"dt": DT, "t_end": t_end},
                    diagnostics={"enabled": False},
                )
            )
            tracemalloc.start()
            try:
                outcome = run_experiment(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert outcome.report["overall"] == "pass"
            return peak, outcome.report["n_accepted_steps"]

        traced_peak(2 * DT)  # one-time allocations stay out of the comparison
        short, short_steps = traced_peak(20 * DT)
        long, long_steps = traced_peak(200 * DT)
        assert (short_steps, long_steps) == (20, 200)
        assert long - short < 2 * state_bytes


class TestAugmentedRun:
    def test_closure_species_and_checks(self):
        outcome = run_raw(skew_raw(transform={"augment": True}))
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

    def test_growth_constant_is_reported_not_asserted(self):
        # f = -u^2 against a declared K = 0.1: the structure probe fails on
        # it, while the closure's fitted constant has no bound to fail.
        outcome = run_raw(custom_raw([[(-1.0, (2,))]], k=0.1), augment=True)
        checks = check_map(outcome.report)
        assert checks["structure_growth"]["passed"] is False
        growth = checks["augmented_growth"]
        assert growth["passed"] is True
        assert growth["measured"] > 1.0
        assert growth["bound"] is None
        assert growth["detail"].endswith("passes when finite")

    def test_entropy_column_is_empty(self):
        # The closure species stays at rounding level, so the column would
        # measure the solve's rounding; the plain run still defines it.
        for augment, defined in ((True, False), (False, True)):
            header, rows = data_rows(run_raw(skew_raw(), augment=augment).csv_text)
            col = header.split(",").index("entropy")
            assert rows and all((row[col] != "") is defined for row in rows)

    def test_override_forces_augmentation(self):
        outcome = run_raw(skew_raw(), augment=True)
        assert outcome.report["augmented"] is True
        assert "augmented_growth" in check_map(outcome.report)
        # The config is echoed as written.
        assert outcome.report["config"] == skew_raw()
        assert outcome.report["config_sha256"] == config_sha256(skew_raw())

    def test_override_none_keeps_config_choice(self):
        outcome = run_raw(skew_raw(), augment=False)
        assert outcome.report["augmented"] is False

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
            validate_config(raw, augment=True)


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

    def test_augmented_quasi_positivity_measures_what_it_compares(self):
        # The closure's face value plus the offset, over 1 + max |g| of its
        # sample, crosses -tolerance between offsets -5e-13 and -1e-12, and
        # the verdict turns there too.
        verdicts = []
        for offset in (0.1, 0.0, -5e-13, -1e-12, -1e-9):
            raw = skew_raw(
                transform={"augment": True}, inject={"augmentation_offset": offset}
            )
            entry = check_map(run_raw(raw).report)["augmented_quasi_positivity"]
            assert entry["tolerance"] == 1e-12 and entry["bound"] == 0.0
            assert entry["passed"] is (entry["measured"] >= -entry["tolerance"])
            verdicts.append(entry["passed"])
        assert verdicts == [True, True, True, False, False]


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

    def test_reaction_raising_at_u0_aborts_with_both_files(self, tmp_path):
        # The reaction at u0 is the run's first evaluation, inside the
        # abort handling: the CSV keeps its header only, and the tracker,
        # which has seen no state, reports its initial sup sum as NaN.
        raw = {
            "model": {
                "custom": {
                    "n_species": 2,
                    "terms": [
                        [{"coef": 1.0, "powers": [0, 0]}, {"coef": -1.0, "powers": [1, 0]}],
                        [{"coef": -1.0, "powers": [0, 1]}],
                    ],
                    "k0": 1.0,
                    "k1": -1.0,
                    "k": 2.0,
                    "eps": 0.0,
                },
                "diffusion": [1.0, 2.0],
            },
            "grid": {"n_cells": 16, "length": 1.0},
            "initial": [
                {"type": "constant", "value": 0.5},
                {"type": "gaussian", "center": 0.5, "width": 0.1, "amplitude": 1.0},
            ],
            "solver": {"dt": DT, "t_end": T_END},
            "diagnostics": {"enabled": True, "d": 3.0},
            "output": {
                "csv": str(tmp_path / "run.csv"),
                "report": str(tmp_path / "report.json"),
            },
        }
        cfg = validate_config(raw)
        evaluate = cfg.system.evaluator

        def raising(u, t):
            # The structure audit's samples have another shape.
            if u.shape == cfg.u0.shape:
                return 1.0 / 0.0
            return evaluate(u, t)

        cfg.system = dataclasses.replace(cfg.system, evaluator=raising)
        outcome = run_experiment(cfg)
        assert outcome.aborted
        report = outcome.report
        assert "ZeroDivisionError" in report["failure"]["message"]
        assert report["n_accepted_steps"] == 0
        header, rows = data_rows(outcome.csv_text)
        assert header.startswith("t,sup_u_1,") and rows == []
        assert (tmp_path / "run.csv").read_text() == outcome.csv_text
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["overall"] == "aborted"
        assert loaded["measurements"]["initial_sup_sum"] == "nan"

    def test_structure_checks_still_reported(self, sink_raw):
        report = run_raw(sink_raw).report
        # A constant sink is not quasi-positive; the probe sees it even
        # though the run aborts before any step is accepted.
        assert check_map(report)["structure_quasi_positivity"]["passed"] is False
        assert report["fits"] == []
