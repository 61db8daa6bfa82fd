"""Command-line surface: subcommands, exit codes, and printed output."""

import concurrent.futures
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdcheck.cli
import rdcheck.experiment
from rdcheck.cli import main
from test_config import closure_overflow_quad
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


def underflow_raw():
    """f = 1 - 200u declared with k1 = -100, augmented: past t ~ 7.4 the
    closure's rescaling e^{-100 t} underflows to zero and the closed
    reaction divides by it."""
    return {
        "model": {
            "custom": {
                "n_species": 1,
                "terms": [[{"coef": 1.0, "powers": [0]}, {"coef": -200.0, "powers": [1]}]],
                "k0": 1.0,
                "k1": -100.0,
                "k": 1000.0,
                "eps": 0.0,
            },
            "diffusion": [1.0],
        },
        "grid": {"n_cells": 8, "length": 1.0},
        "initial": [{"type": "constant", "value": 0.005}],
        "solver": {"dt": 0.5, "t_end": 10.0},
        "transform": {"augment": True},
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


    def test_fit_lines(self, tmp_path, capsys):
        # A bias-corrected exponential fit prints its corrected rate; a
        # window of fewer than four samples prints the fit's error.
        report_path = tmp_path / "report.json"
        fits = [
            {"series": "mass_total", "mode": "exponential", "window": [0.0, 0.02],
             "bias_correct": True},
            {"series": "sup_total", "mode": "exponential", "window": [0.0, 0.002]},
        ]
        raw = skew_raw(fits=fits, output={"report": str(report_path)})
        assert main(["run", write_config(tmp_path, raw)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        fitted, failed = json.loads(report_path.read_text())["fits"]
        assert fitted["n_samples"] == 21
        assert (
            "fit mass_total (exponential): "
            f"rate={fitted['rate']}  prefactor={fitted['prefactor']}"
            f"  r2={fitted['r_squared']}  corrected={fitted['corrected_rate']}"
        ) in lines
        assert (
            "fit sup_total (exponential): error: rate fit needs at least 4 samples, got 3"
        ) in lines
        assert failed["error"] == "rate fit needs at least 4 samples, got 3"


class TestVerifyCommand:
    def test_clean_config_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, quad_raw())
        assert main(["verify", cfg]) == EXIT_OK
        assert "overall: pass" in capsys.readouterr().out

    def test_verify_loads_no_numpy_random(self, tmp_path):
        # The audits draw from their own SplitMix64 stream: importing
        # numpy.random (and the secrets module it brings) costs a fresh
        # process 11-15 ms.  Both audits run here, the closure's included.
        cfg = write_config(tmp_path, quad_raw(transform={"augment": True}))
        code = (
            "import sys, rdcheck.cli; code = rdcheck.cli.main(['verify', sys.argv[1]]); "
            "print(code, sorted(set(sys.modules) & {'numpy.random', 'secrets'}))"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(rdcheck.cli.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", code, cfg],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert "augmented_quasi_positivity" in done.stdout
        assert done.stdout.endswith("\n0 []\n")

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

    def test_underflowing_closure_aborts_without_a_warning(self, tmp_path, capsys):
        # Neither the audits nor the run warn on the division by the
        # underflowed rescaling; a warning would be an error in this suite
        # and end the run as an unexpected exception, with a traceback.
        cfg = write_config(tmp_path, underflow_raw())
        assert main(["verify", cfg]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "FAIL augmented_quasi_positivity  measured=nan  " in captured.out
        assert "aborted: species 1 became non-finite (inf)" in captured.out


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

    def test_misspelled_keys_exit_2_before_the_run(self, tmp_path, capsys):
        csv_path = tmp_path / "run.csv"
        raw = dict(quad_raw(), output={"csv": str(csv_path)}, bogus_section={})
        raw["solver"] = dict(raw["solver"], max_halvings=0, dtt=3)
        assert main(["verify", write_config(tmp_path, raw)]) == EXIT_CONFIG
        out = capsys.readouterr().out
        for key in ("bogus_section", "solver.max_halvings", "solver.dtt"):
            assert f"{key}: unknown key" in out
        assert not csv_path.exists()

    def test_augment_flag_with_a_closure_coefficient_that_overflows(
        self, tmp_path, capsys
    ):
        csv_path = tmp_path / "run.csv"
        raw = dict(closure_overflow_quad(), output={"csv": str(csv_path)})
        cfg = write_config(tmp_path, raw)
        assert main(["verify", "--augment", cfg]) == EXIT_CONFIG
        out = capsys.readouterr().out
        assert "--augment (closure species): dt * d / h^2 is not finite" in out
        assert not csv_path.exists()

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["run", missing]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().out

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["verify", str(path)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().out

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["verify", str(path)]) == EXIT_CONFIG
        out = capsys.readouterr().out
        assert "config error:" in out
        assert "not UTF-8" in out

    def test_not_utf8_in_sweep_keeps_the_other_configs_summary(self, tmp_path, capsys):
        bad = tmp_path / "latin.json"
        bad.write_bytes(b"\xff\xfe{")
        report_path = tmp_path / "good-report.json"
        good = write_config(
            tmp_path, quad_raw(output={"report": str(report_path)}), "good.json"
        )
        assert main(["verify", "--sweep", good, str(bad)]) == EXIT_CONFIG
        out = capsys.readouterr().out
        assert f"== {good}" in out
        assert "overall: pass" in out
        assert f"== {bad}" in out
        assert "not UTF-8" in out
        assert json.loads(report_path.read_text())["overall"] == "pass"

    def test_csv_and_report_on_one_file(self, tmp_path, capsys):
        target = tmp_path / "both.out"
        raw = quad_raw(output={"csv": str(target), "report": str(tmp_path / "." / "both.out")})
        assert main(["verify", write_config(tmp_path, raw)]) == EXIT_CONFIG
        assert "output.report" in capsys.readouterr().out
        assert not target.exists()

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


def magnitudes():
    """Positive floats 10^e with e in [-300, 300]."""
    return st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@st.composite
def small_polynomial_configs(draw):
    """Custom polynomial models of 1-2 species and degree <= 3 on <= 16
    cells; coefficients, diffusion, profile sizes, the grid length and the
    horizon range over magnitudes from 1e-300 to 1e300, and the mass
    control rate k1 over [-1, 1]."""
    n = draw(st.integers(1, 2))
    length = draw(magnitudes())
    monomial = st.fixed_dictionaries(
        {
            "coef": st.one_of(st.just(0.0), magnitudes(), magnitudes().map(lambda c: -c)),
            "powers": st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(
                lambda powers: sum(powers) <= 3
            ),
        }
    )
    profile = st.one_of(
        st.fixed_dictionaries(
            {"type": st.just("constant"), "value": st.one_of(st.just(0.0), magnitudes())}
        ),
        st.fixed_dictionaries(
            {
                "type": st.just("gaussian"),
                "center": st.floats(0.0, 1.0).map(lambda c: c * length),
                "width": magnitudes(),
                "amplitude": st.one_of(st.just(0.0), magnitudes()),
            }
        ),
    )
    t_end = draw(magnitudes())
    return {
        "model": {
            "custom": {
                "n_species": n,
                "terms": draw(
                    st.lists(st.lists(monomial, max_size=3), min_size=n, max_size=n)
                ),
                "k0": 0.0,
                "k1": draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0))),
                "k": 1.0,
                "eps": 0.0,
            },
            "diffusion": draw(st.lists(magnitudes(), min_size=n, max_size=n)),
        },
        "grid": {"n_cells": draw(st.integers(2, 16)), "length": length},
        "initial": draw(st.lists(profile, min_size=n, max_size=n)),
        "solver": {"dt": t_end / draw(st.floats(1.0, 20.0)), "t_end": t_end},
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
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = main(["verify", cfg])
            assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_NUMERICAL)
            # A crash, or a RuntimeWarning turned into an error, is a fault
            # of the program, not a numerical failure of the run.
            assert "aborted: unexpected" not in printed.getvalue()
            if code == EXIT_CONFIG:
                # Rejected before the run: no artifact is written.
                assert not os.path.exists(report_path)
                assert not os.path.exists(csv_path)
                return
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            expected = {EXIT_OK: "pass", EXIT_CHECK_FAILED: "fail", EXIT_NUMERICAL: "aborted"}
            assert report["overall"] == expected[code]
            if code == EXIT_NUMERICAL:
                assert not report["failure"]["message"].startswith("unexpected ")
            with open(csv_path, encoding="utf-8", newline="") as fh:
                header, *rows = list(csv.reader(fh))
            assert header[0] == "t" and rows
            for row in rows:
                assert len(row) == len(header)
                for cell in row:
                    if cell:
                        float(cell)


    def test_huge_diffusion_on_two_cells_passes(self, tmp_path, capsys):
        # s = dt d / h^2 = 4e16: a textbook Thomas pivot (1 + s) - s^2 / (1 + s)
        # cancels to zero there.
        raw = {
            "model": {
                "custom": {"n_species": 1, "terms": [[]], "k0": 0.0, "k1": 0.0,
                           "k": 1.0, "eps": 0.0},
                "diffusion": [1e16],
            },
            "grid": {"n_cells": 2, "length": 1.0},
            "initial": [
                {"type": "gaussian", "center": 0.3, "width": 0.2, "amplitude": 1.0}
            ],
            "solver": {"dt": 1.0, "t_end": 1.0},
        }
        assert main(["verify", write_config(tmp_path, raw)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "aborted: unexpected" not in out and "overall: pass" in out

    def test_total_mass_that_overflows_fails_the_envelope_without_a_warning(
        self, tmp_path, capsys
    ):
        # Each species' mass 5 * 3.4e307 is finite; their sum is not.
        raw = {
            "model": {
                "custom": {"n_species": 2, "terms": [[], []], "k0": 0.0, "k1": 0.0,
                           "k": 1.0, "eps": 0.0},
                "diffusion": [1.0, 1.0],
            },
            "grid": {"n_cells": 2, "length": 10.0},
            "initial": [{"type": "constant", "value": 1.7e307}] * 2,
            "solver": {"dt": 0.01, "t_end": 0.02},
        }
        assert main(["verify", write_config(tmp_path, raw)]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "FAIL mass_envelope  measured=inf" in out
        assert "FAIL mass_identity  measured=inf" in out

    def test_entropy_that_is_never_a_number_fails(self, tmp_path, capsys):
        # The rate u1 u2 = 1e308 is finite, but its products with log u_i
        # overflow to -inf and +inf: every cell's entropy production is NaN.
        raw = quad_raw(
            grid={"n_cells": 2, "length": 1.0},
            initial=[
                {"type": "constant", "value": value}
                for value in (1e154, 1e154, 1e200, 1e-200)
            ],
            solver={"dt": 1e-300, "t_end": 1e-299},
            diagnostics={"enabled": False},
        )
        assert main(["verify", write_config(tmp_path, raw)]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "FAIL entropy_dissipation  measured=nan" in out

    def test_conserved_law_that_overflows_fails(self, tmp_path, capsys):
        # Each mass 1e298 * 1e10 is finite; the law u1 + u3 is not.
        raw = quad_raw(
            grid={"n_cells": 2, "length": 1e10},
            initial=[
                {"type": "constant", "value": value} for value in (1e298, 1, 1e298, 1)
            ],
            diagnostics={"enabled": False},
        )
        assert main(["verify", write_config(tmp_path, raw)]) == EXIT_CHECK_FAILED
        assert "FAIL conservation[u1+u3]" in capsys.readouterr().out

    def test_mass_growing_toward_its_source_equilibrium_passes(self, tmp_path, capsys):
        # f1 = 1 - u1, f2 = -u2 with k0 = 1, k1 = -1: the mass 0.75 rises
        # toward L k0 / (-k1) = 1.  Each step keeps a factor 1 - dt of the
        # gap, less than e^{-dt}, so the scheme's mass ran above the
        # continuous envelope, which failed this run; the one-step envelope
        # and the balance hold to rounding.
        raw = {
            "model": {
                "custom": {
                    "n_species": 2,
                    "terms": [
                        [{"coef": 1.0, "powers": [0, 0]}, {"coef": -1.0, "powers": [1, 0]}],
                        [{"coef": -1.0, "powers": [0, 1]}],
                    ],
                    "k0": 1.0, "k1": -1.0, "k": 2.0, "eps": 0.0,
                },
                "diffusion": [1.0, 2.0],
            },
            "grid": {"n_cells": 24, "length": 1.0},
            "initial": [{"type": "constant", "value": 0.5},
                        {"type": "constant", "value": 0.25}],
            "solver": {"dt": 0.01, "t_end": 0.5},
        }
        path = write_config(tmp_path, raw)
        for flags in ([], ["--augment"]):
            assert main(["verify", *flags, path]) == EXIT_OK
            out = capsys.readouterr().out
            assert "ok   mass_envelope" in out and "ok   mass_identity" in out

    def test_decaying_source_closure_passes_the_z_bound(self, tmp_path, capsys):
        # f = 1 + u with k0 = k1 = 1, augmented: the closure's source
        # K0 e^{-t} decays, and z gets the left sum of dt K0 at each step's
        # start, above its integral, which failed this run; the z bound is
        # now that sum.
        raw = {
            "model": {
                "custom": {
                    "n_species": 1,
                    "terms": [[{"coef": 1.0, "powers": [0]}, {"coef": 1.0, "powers": [1]}]],
                    "k0": 1.0, "k1": 1.0, "k": 2.0, "eps": 0.0,
                },
                "diffusion": [1.0],
            },
            "grid": {"n_cells": 16, "length": 1.0},
            "initial": [{"type": "constant", "value": 1.0}],
            "solver": {"dt": 0.01, "t_end": 1.0},
            "diagnostics": {"enabled": True, "d": 2.0},
            "transform": {"augment": True},
        }
        assert main(["verify", write_config(tmp_path, raw)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ok   z_sup_bound  measured=1.635286429285254  bound=1.6352864292852445" in out

    def test_b_one_ulp_above_its_interval_passes(self, tmp_path, capsys):
        # Heat only, diffusion [1e-8, 2e-8]: b = sum u / sum d_i u_i lands
        # one ulp above 1 / min d = 1e8, which an absolute tolerance of 1e-9
        # failed; b_range's tolerance is relative.
        raw = {
            "model": {
                "custom": {"n_species": 2, "terms": [[], []], "k0": 0.0, "k1": 0.0,
                           "k": 1.0, "eps": 0.0},
                "diffusion": [1e-8, 2e-8],
            },
            "grid": {"n_cells": 32, "length": 1.0},
            "initial": [{"type": "constant", "value": 0.77},
                        {"type": "constant", "value": 0.0}],
            "solver": {"dt": 0.01, "t_end": 0.1},
            "diagnostics": {"enabled": True, "d": 3e-8},
        }
        assert main(["verify", write_config(tmp_path, raw)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ok   b_range  measured=99999999.99999999  bound=100000000.00000001" in out

    def test_growing_mass_envelope_that_overflows_passes(self, tmp_path, capsys):
        # k1 = 1 and steps of 100: the continuous envelope e^{k1 t} overflowed
        # once k1 t > 709; the one-step bound (1 + 100) M holds the
        # unchanged mass at every step.
        raw = {
            "model": {
                "custom": {"n_species": 1, "terms": [[]], "k0": 0.0, "k1": 1.0,
                           "k": 1.0, "eps": 0.0},
                "diffusion": [1.0],
            },
            "grid": {"n_cells": 8, "length": 1.0},
            "initial": [{"type": "constant", "value": 1.0}],
            "solver": {"dt": 100.0, "t_end": 1000.0},
        }
        assert main(["verify", write_config(tmp_path, raw)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ok   mass_envelope" in out and "overall: pass" in out


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

    def test_importing_the_cli_loads_no_process_pool(self):
        # Only a sweep of two or more configs imports the pool and the
        # multiprocessing package it brings.
        code = (
            "import sys, rdcheck.cli; print(sorted(set(sys.modules) & "
            "{'concurrent.futures.process', 'multiprocessing'}))"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(rdcheck.cli.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout == "[]\n"


class TestUnexpectedExceptions:
    def test_crashing_config_in_a_sweep_keeps_the_others_summary(
        self, tmp_path, capsys, monkeypatch
    ):
        # The two-species config's run raises after its second step.
        real = rdcheck.experiment.run_simulation

        def crash_two_species(system, grid, u0, cfg, hooks=()):
            def crash(event):
                if event.index == 2:
                    raise RuntimeError("injected crash")

            if system.n_species == 2:
                hooks = [*hooks, crash]
            return real(system, grid, u0, cfg, hooks)

        monkeypatch.setattr(rdcheck.experiment, "run_simulation", crash_two_species)
        # Threads see the patched module; worker processes need not.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
        csv_path = tmp_path / "partial.csv"
        report_path = tmp_path / "report.json"
        good = write_config(tmp_path, quad_raw(), "good.json")
        bad = write_config(
            tmp_path,
            skew_raw(output={"csv": str(csv_path), "report": str(report_path)}),
            "bad.json",
        )
        assert main(["verify", "--sweep", good, bad]) == EXIT_NUMERICAL
        out = capsys.readouterr().out
        assert f"== {good}" in out
        assert "overall: pass" in out
        assert "aborted: unexpected RuntimeError: injected crash" in out
        report = json.loads(report_path.read_text())
        assert report["overall"] == "aborted"
        assert report["failure"]["message"] == "unexpected RuntimeError: injected crash"
        assert report["n_accepted_steps"] == 2
        # Header plus t = 0 and the two accepted steps.
        assert len(csv_path.read_text().splitlines()) == 4

    def test_exception_outside_the_run_exits_3_with_a_summary(
        self, tmp_path, capsys, monkeypatch
    ):
        def broken(cfg):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(rdcheck.cli, "run_experiment", broken)
        cfg = write_config(tmp_path, quad_raw())
        assert main(["run", cfg]) == EXIT_NUMERICAL
        out = capsys.readouterr().out
        assert f"== {cfg}" in out
        assert "aborted: unexpected ZeroDivisionError: injected" in out


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

    def test_dimension_whose_constants_overflow(self, capsys):
        # Gamma(n/2) overflows for n above about 340.
        assert main(["constants", "--n", "400", "--d", "1", "--gamma", "0.5"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "n = 400" in captured.err
        assert captured.err.count("\n") == 1

    def test_constant_whose_product_overflows(self, capsys):
        argv = ["constants", "--n", "3", "--d", "1", "--gamma", "0.5",
                "--cn", "1e308", "--kappan", "0.01"]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: B1 overflows for n = 3, c_n = 1e+308, kappa_n = 0.01\n"


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

    def test_report_fit_equals_the_fit_of_the_emitted_csv(self, tmp_path, capsys):
        # The report's fit reads the recorder's scalar series, the command
        # reads the CSV column: both must see the same samples exactly.
        csv_path = tmp_path / "trace.csv"
        report_path = tmp_path / "report.json"
        window = [0.0045, 0.0155]
        raw = skew_raw(
            output={"csv": str(csv_path), "report": str(report_path)},
            fits=[{"series": "mass_total", "mode": "exponential", "window": window}],
        )
        assert main(["run", write_config(tmp_path, raw)]) == EXIT_OK
        (fit,) = json.loads(report_path.read_text())["fits"]
        capsys.readouterr()
        argv = ["fit", "--csv", str(csv_path), "--column", "mass_total", "--window"]
        assert main(argv + [repr(t) for t in window]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        fields = dict(line.split(" = ", 1) for line in lines)
        assert float(fields["rate"]) == fit["rate"]
        assert float(fields["prefactor"]) == fit["prefactor"]
        assert float(fields["r_squared"]) == fit["r_squared"]
        assert int(fields["n_samples"]) == fit["n_samples"] == 11

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["verify", "--help"],
            [],
            ["frobnicate"],
            ["verify"],
            ["fit", "--mode", "cubic"],
            ["constants", "--help"],
            ["run", "cfg.json", "--bogus"],
            ["equilibrium", "--m13", "1", "--m23", "1"],
        ],
    )
    def test_one_subcommand_parser_matches_the_full_tree(self, argv, capsys):
        # main builds only the named subcommand's parser; what it prints and
        # its exit code must be those of the parser of all subcommands.
        outcomes = []
        for parse in (main, rdcheck.cli._build_parser().parse_args):
            with pytest.raises(SystemExit) as excinfo:
                parse(argv)
            captured = capsys.readouterr()
            outcomes.append((excinfo.value.code, captured.out, captured.err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] or outcomes[0][2]
