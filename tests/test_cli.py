"""Command-line surface: subcommands, exit codes, and printed output."""

import csv
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdcheck.cli import main
from test_experiment import DT, quad_raw, skew_raw

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def qp_broken_raw():
    """Completes a short run, but the reaction pushes species 1 down at zero."""
    return {
        "model": {
            "custom": {
                "n_species": 2,
                "terms": [[{"coef": -1.0, "powers": [0, 1]}], []],
                "k0": 0.0,
                "k1": 0.0,
                "k": 1.0,
                "eps": 0.0,
            },
            "diffusion": [1.0, 1.0],
        },
        "grid": {"n_cells": 8, "length": 1.0},
        "initial": [
            {"type": "constant", "value": 5.0},
            {"type": "constant", "value": 0.1},
        ],
        "solver": {"dt": 1e-3, "t_end": 0.005},
    }


def sink_raw():
    """Constant sink from zero data: halving cannot rescue positivity."""
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
    }


def overflow_raw():
    """f = u^3 from u0 = 10 blows up at t = 0.005; the explicit steps
    overflow to a non-finite state at t = 0.07."""
    return {
        "model": {
            "custom": {
                "n_species": 1,
                "terms": [[{"coef": 1.0, "powers": [3]}]],
                "k0": 0.0,
                "k1": 0.0,
                "k": 1.0,
                "eps": 0.0,
            },
            "diffusion": [1.0],
        },
        "grid": {"n_cells": 16, "length": 1.0},
        "initial": [{"type": "constant", "value": 10.0}],
        "solver": {"dt": 0.01, "t_end": 0.1},
    }


class TestRunCommand:
    def test_passing_run_prints_summary_and_writes_artifacts(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        report_path = tmp_path / "report.json"
        raw = quad_raw(
            output={"csv": str(csv_path), "report": str(report_path)}
        )
        cfg = write_config(tmp_path, raw)
        assert main(["run", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"== {cfg}" in out
        assert "overall: pass" in out
        assert f"csv: {csv_path}" in out
        assert f"report: {report_path}" in out
        assert "ok   structure_quasi_positivity" in out
        assert "FAIL" not in out
        assert csv_path.exists()
        assert report_path.exists()

    def test_run_without_output_sections_prints_no_paths(self, tmp_path, capsys):
        cfg = write_config(tmp_path, quad_raw())
        assert main(["run", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "csv:" not in out
        assert "report:" not in out

    def test_augment_flag_forces_closure(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        raw = skew_raw(output={"report": str(report_path)})
        cfg = write_config(tmp_path, raw)
        assert main(["run", "--augment", cfg]) == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["augmented"] is True
        assert report["system"].endswith("+mass-closure")
        assert "augmented_conservation_residual" in capsys.readouterr().out

    def test_failed_checks_do_not_change_run_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, qp_broken_raw())
        assert main(["run", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "overall: fail" in out
        assert "FAIL structure_quasi_positivity" in out


class TestVerifyCommand:
    def test_clean_config_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, quad_raw())
        assert main(["verify", cfg]) == EXIT_OK
        assert "overall: pass" in capsys.readouterr().out

    def test_broken_quasi_positivity_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, qp_broken_raw())
        assert main(["verify", cfg]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "FAIL structure_quasi_positivity" in out
        assert "overall: fail" in out

    def test_z_offset_injection_fails(self, tmp_path, capsys):
        raw = quad_raw(
            initial=[{"type": "constant", "value": 1.0}] * 4,
            inject={"z_offset": 1.0},
        )
        cfg = write_config(tmp_path, raw)
        assert main(["verify", cfg]) == EXIT_CHECK_FAILED
        assert "FAIL z_sup_bound" in capsys.readouterr().out

    def test_augmentation_offset_injection_fails(self, tmp_path, capsys):
        raw = skew_raw(
            transform={"augment": True},
            inject={"augmentation_offset": 0.1},
        )
        cfg = write_config(tmp_path, raw)
        assert main(["verify", cfg]) == EXIT_CHECK_FAILED
        assert "FAIL augmented_conservation_residual" in capsys.readouterr().out

    def test_numerical_failure_beats_check_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sink_raw())
        assert main(["verify", cfg]) == EXIT_NUMERICAL
        out = capsys.readouterr().out
        assert "aborted: " in out
        assert "overall: aborted" in out


class TestNumericalFailure:
    def test_run_reports_abort(self, tmp_path, capsys):
        csv_path = tmp_path / "partial.csv"
        raw = sink_raw()
        raw["output"] = {"csv": str(csv_path)}
        cfg = write_config(tmp_path, raw)
        assert main(["run", cfg]) == EXIT_NUMERICAL
        out = capsys.readouterr().out
        assert "aborted: " in out
        assert "overall: aborted" in out
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 2

    def test_overflow_is_a_rejected_trial_then_an_abort(self, tmp_path, capsys):
        # Each non-finite trial is rejected and halved; once the budget is
        # spent the run aborts with both artifacts, not a traceback.
        csv_path = tmp_path / "partial.csv"
        report_path = tmp_path / "report.json"
        raw = overflow_raw()
        raw["output"] = {"csv": str(csv_path), "report": str(report_path)}
        cfg = write_config(tmp_path, raw)
        assert main(["verify", cfg]) == EXIT_NUMERICAL
        out = capsys.readouterr().out
        assert "overall: aborted" in out
        report = json.loads(report_path.read_text())
        assert report["overall"] == "aborted"
        failure = report["failure"]
        assert "non-finite" in failure["message"]
        assert "after 20 halvings" in failure["message"]
        assert failure["species"] == 1
        assert failure["time"] == pytest.approx(0.07)
        assert report["n_accepted_steps"] == 7
        # Header plus t = 0 and the seven accepted steps.
        assert len(csv_path.read_text().splitlines()) == 9


class TestConfigErrors:
    def test_invalid_config_lists_problems(self, tmp_path, capsys):
        raw = quad_raw()
        del raw["solver"]
        raw["grid"]["n_cells"] = 1
        cfg = write_config(tmp_path, raw)
        assert main(["run", cfg]) == EXIT_CONFIG
        out = capsys.readouterr().out
        assert "config error:" in out
        assert "solver" in out
        assert "grid.n_cells" in out

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["run", missing]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().out

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["verify", str(path)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().out

    def test_multiple_configs_need_sweep(self, tmp_path, capsys):
        a = write_config(tmp_path, quad_raw(), "a.json")
        b = write_config(tmp_path, quad_raw(), "b.json")
        assert main(["run", a, b]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "multiple configs need --sweep" in captured.err


class TestUnwritableArtifacts:
    """An output path under a regular file cannot be created."""

    def blocked_config(self, tmp_path):
        (tmp_path / "blocker").write_text("a file, not a directory")
        csv_path = tmp_path / "blocker" / "sub" / "run.csv"
        raw = quad_raw(output={"csv": str(csv_path)})
        return write_config(tmp_path, raw, "blocked.json")

    def test_single_config_exits_with_a_one_line_message(self, tmp_path, capsys):
        cfg = self.blocked_config(tmp_path)
        assert main(["verify", cfg]) == EXIT_CONFIG
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0] == f"== {cfg}"
        assert lines[1].startswith("cannot write artifacts: ")

    def test_sweep_keeps_the_other_configs_summary(self, tmp_path, capsys):
        blocked = self.blocked_config(tmp_path)
        report_path = tmp_path / "good-report.json"
        good = write_config(
            tmp_path, quad_raw(output={"report": str(report_path)}), "good.json"
        )
        assert main(["verify", "--sweep", good, blocked]) == EXIT_CONFIG
        out = capsys.readouterr().out
        assert f"== {good}" in out
        assert "overall: pass" in out
        assert f"== {blocked}" in out
        assert "cannot write artifacts: " in out
        assert json.loads(report_path.read_text())["overall"] == "pass"


@st.composite
def small_polynomial_configs(draw):
    """Custom polynomial models of 1-2 species and degree <= 3 on <= 16 cells."""
    n = draw(st.integers(1, 2))
    monomial = st.fixed_dictionaries(
        {
            "coef": st.floats(-5.0, 5.0),
            "powers": st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(
                lambda powers: sum(powers) <= 3
            ),
        }
    )
    profile = st.one_of(
        st.fixed_dictionaries(
            {"type": st.just("constant"), "value": st.floats(0.0, 10.0)}
        ),
        st.fixed_dictionaries(
            {
                "type": st.just("gaussian"),
                "center": st.floats(0.0, 1.0),
                "width": st.floats(0.05, 0.5),
                "amplitude": st.floats(0.0, 10.0),
            }
        ),
    )
    t_end = draw(st.floats(0.01, 0.1))
    return {
        "model": {
            "custom": {
                "n_species": n,
                "terms": draw(
                    st.lists(st.lists(monomial, max_size=3), min_size=n, max_size=n)
                ),
                "k0": 0.0,
                "k1": 0.0,
                "k": 1.0,
                "eps": 0.0,
            },
            "diffusion": draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)),
        },
        "grid": {"n_cells": draw(st.integers(2, 16)), "length": 1.0},
        "initial": draw(st.lists(profile, min_size=n, max_size=n)),
        "solver": {"dt": draw(st.floats(t_end / 20.0, t_end)), "t_end": t_end},
    }


class TestVerifyProperty:
    @settings(max_examples=25, deadline=None)
    @given(raw=small_polynomial_configs())
    def test_documented_exit_code_and_parseable_artifacts(self, raw):
        with tempfile.TemporaryDirectory() as out:
            csv_path = os.path.join(out, "run.csv")
            report_path = os.path.join(out, "report.json")
            raw = dict(raw, output={"csv": csv_path, "report": report_path})
            cfg = os.path.join(out, "cfg.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(raw, fh)
            code = main(["verify", cfg])
            assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_NUMERICAL)
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            expected = {EXIT_OK: "pass", EXIT_CHECK_FAILED: "fail", EXIT_NUMERICAL: "aborted"}
            assert report["overall"] == expected[code]
            with open(csv_path, encoding="utf-8", newline="") as fh:
                header, *rows = list(csv.reader(fh))
            assert header[0] == "t" and rows
            for row in rows:
                assert len(row) == len(header)
                for cell in row:
                    if cell:
                        float(cell)


class TestSweep:
    def test_worst_exit_code_wins(self, tmp_path, capsys):
        good = write_config(tmp_path, quad_raw(), "good.json")
        bad = write_config(tmp_path, qp_broken_raw(), "bad.json")
        assert main(["verify", "--sweep", good, bad]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert f"== {good}" in out
        assert f"== {bad}" in out
        assert "overall: pass" in out
        assert "overall: fail" in out

    def test_all_passing_sweep(self, tmp_path, capsys):
        a = write_config(tmp_path, quad_raw(), "a.json")
        b = write_config(tmp_path, skew_raw(), "b.json")
        assert main(["run", "--sweep", a, b]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("overall: pass") == 2


class TestReproducibility:
    def test_same_config_same_bytes(self, tmp_path):
        runs = []
        for tag in ("first", "second"):
            csv_path = tmp_path / f"{tag}.csv"
            raw = quad_raw(seed=42, output={"csv": str(csv_path)})
            cfg = write_config(tmp_path, raw, f"{tag}.json")
            assert main(["run", cfg]) == EXIT_OK
            runs.append(csv_path.read_bytes())
        assert runs[0] == runs[1]


class TestConstantsCommand:
    def test_free_space_one_dimensional(self, capsys):
        assert main(["constants", "--n", "1", "--d", "1", "--gamma", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "case: free-space" in out
        assert "B1" not in out
        assert "B4 = 2.0000000000" in out
        assert "B5 = 1.0000000000" in out
        assert f"B  = {2.0 * math.sqrt(2.0):.10f}" in out

    def test_free_space_two_dimensional(self, capsys):
        assert main(["constants", "--n", "2", "--d", "1", "--gamma", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"B4 = {math.pi:.10f}" in out
        assert f"B5 = {math.pi / 2.0:.10f}" in out
        assert f"B  = {math.sqrt(2.0) * math.pi:.10f}" in out

    def test_kernel_envelope_prints_prefactors(self, capsys):
        argv = [
            "constants", "--n", "1", "--d", "1", "--gamma", "0",
            "--cn", "1", "--kappan", "1",
        ]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert "case: kernel-envelope" in out
        assert f"B1 = {math.pi:.10f}" in out
        assert "B2 = 1.0000000000" in out
        assert f"B3 = {math.sqrt(math.pi):.10f}" in out
        assert f"B  = {2.0 * math.pi ** 0.75:.10f}" in out

    def test_invalid_gamma(self, capsys):
        assert main(["constants", "--n", "1", "--d", "1", "--gamma", "1"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")


class TestEquilibriumCommand:
    def test_symmetric_masses(self, capsys):
        argv = ["equilibrium", "--m13", "2", "--m23", "2", "--m24", "2"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out == ["u1 = 1.0", "u2 = 1.0", "u3 = 1.0", "u4 = 1.0"]

    def test_nonpositive_mass(self, capsys):
        argv = ["equilibrium", "--m13", "0", "--m23", "2", "--m24", "2"]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")


class TestFitCommand:
    @pytest.fixture()
    def skew_csv(self, tmp_path):
        csv_path = tmp_path / "trace.csv"
        raw = skew_raw(output={"csv": str(csv_path)})
        cfg = write_config(tmp_path, raw)
        assert main(["run", cfg]) == EXIT_OK
        return str(csv_path)

    def test_exponential_fit_on_mass_total(self, skew_csv, capsys):
        assert main(["fit", "--csv", skew_csv, "--column", "mass_total"]) == EXIT_OK
        capsys.readouterr()  # drop the run output captured by the fixture
        assert main(["fit", "--csv", skew_csv, "--column", "mass_total"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        fields = dict(line.split(" = ", 1) for line in lines)
        assert fields["mode"] == "exponential"
        assert fields["n_samples"] == "21"
        rate = float(fields["rate"])
        assert rate == pytest.approx(-math.log1p(-DT) / DT, rel=1e-9)
        assert float(fields["prefactor"]) > 0.0
        assert float(fields["r_squared"]) == pytest.approx(1.0, abs=1e-12)

    def test_window_restricts_samples(self, skew_csv, capsys):
        argv = [
            "fit", "--csv", skew_csv, "--column", "mass_total",
            "--window", "0.0045", "0.0155",
        ]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert "n_samples = 11" in out

    def test_polynomial_mode_needs_positive_times(self, skew_csv, capsys):
        argv = [
            "fit", "--csv", skew_csv, "--column", "mass_total",
            "--mode", "polynomial",
        ]
        assert main(argv) == EXIT_CONFIG
        capsys.readouterr()
        argv += ["--window", "0.0045", "0.0155"]
        assert main(argv) == EXIT_OK
        assert "mode = polynomial" in capsys.readouterr().out

    def test_empty_cells_are_skipped(self, skew_csv, capsys):
        # Diagnostics were off, so the auxiliary columns hold no values.
        argv = ["fit", "--csv", skew_csv, "--column", "z_sup"]
        assert main(argv) == EXIT_CONFIG
        assert "needs at least 4 samples" in capsys.readouterr().err

    def test_unknown_column(self, skew_csv, capsys):
        argv = ["fit", "--csv", skew_csv, "--column", "nope"]
        assert main(argv) == EXIT_CONFIG
        assert f"error: column 'nope' not in {skew_csv}" in capsys.readouterr().err

    def test_missing_csv(self, tmp_path, capsys):
        argv = ["fit", "--csv", str(tmp_path / "gone.csv"), "--column", "mass_total"]
        assert main(argv) == EXIT_CONFIG
        assert "cannot read" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_unknown_fit_mode(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--csv", "x.csv", "--column", "t", "--mode", "cubic"])
        assert excinfo.value.code == 2
        capsys.readouterr()
