"""Acceptance battery: ten end-to-end gates with pinned tolerances.

Each gate prints one PASS/FAIL line on the real stdout so the battery
reads as a checklist even while pytest captures output.  A gate only
passes when every one of its sub-conditions holds; failures list the
first violated condition.
"""

import json
import math
import re
import time

import numpy as np
import pytest
import scipy.integrate
from conftest import StateCollector

import rdcheck.experiment
from rdcheck import (
    Grid1D,
    augment_system,
    exponent_algebra,
    fit_rate,
    gaussian_moment,
    grad_sup,
    implicit_heat_step,
    interpolation_constants,
    loglog_slope,
    quad_equilibrium,
    quadratic_reversible,
    run_experiment,
    skew_lv,
    validate_config,
    verify_augmented,
)
from rdcheck.cli import main as cli_main

QUAD_DIFFUSION = [1.0, 1.5, 2.0, 2.5]

# One line per gate; conftest prints the collected list as a terminal
# summary section so the checklist survives output capture.
RESULTS: list = []


def announce(tag: str, failures: list, elapsed: float | None = None) -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"{status} {tag}"
    if elapsed is not None:
        line += f" ({elapsed:.2f}s)"
    RESULTS.append(line)
    print(line)


def gate(tag: str, failures: list, elapsed: float | None = None) -> None:
    announce(tag, failures, elapsed)
    assert not failures, "; ".join(failures)


def require(failures: list, condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def quad_run_raw(n_cells: int, dt: float, t_end: float, **extra) -> dict:
    raw = {
        "model": {
            "builtin": "quadratic_reversible",
            "diffusion": list(QUAD_DIFFUSION),
        },
        "grid": {"n_cells": n_cells, "length": 1.0},
        # Midpoint-symmetric bumps leave the odd diffusion modes unexcited,
        # so the late-time relaxation is governed by the reaction alone.
        "initial": [
            {"type": "gaussian", "center": 0.5, "width": 0.06, "amplitude": 2.0},
            {"type": "gaussian", "center": 0.5, "width": 0.08, "amplitude": 1.6},
            {"type": "gaussian", "center": 0.5, "width": 0.15, "amplitude": 1.0},
            {"type": "gaussian", "center": 0.5, "width": 0.12, "amplitude": 1.5},
        ],
        "solver": {"dt": dt, "t_end": t_end},
    }
    raw.update(extra)
    return raw


def skew_run_raw(n_cells: int, dt: float, t_end: float, **extra) -> dict:
    raw = {
        "model": {
            "builtin": "skew_lv",
            "interaction": [[0.0, 1.0], [-1.0, 0.0]],
            "decay": [1.0, 1.0],
            "diffusion": [1.0, 1.0],
        },
        "grid": {"n_cells": n_cells, "length": 1.0},
        "initial": [
            {"type": "gaussian", "center": 0.4, "width": 0.1, "amplitude": 1.0},
            {"type": "gaussian", "center": 0.6, "width": 0.1, "amplitude": 1.0},
        ],
        "solver": {"dt": dt, "t_end": t_end},
    }
    raw.update(extra)
    return raw


def collected_experiment(cfg):
    """run_experiment with a StateCollector added to its solver hooks.

    Returns the outcome, the collected states and the wall time of
    run_experiment.
    """
    collectors = []
    solve = rdcheck.experiment.run_simulation

    def collecting(system, grid, u0, solver_cfg, hooks=()):
        collectors.append(StateCollector())
        return solve(system, grid, u0, solver_cfg, hooks=[*hooks, collectors[-1]])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rdcheck.experiment, "run_simulation", collecting)
        start = time.perf_counter()
        outcome = run_experiment(cfg)
        elapsed = time.perf_counter() - start
    (states,) = collectors
    return outcome, states, elapsed


@pytest.fixture(scope="module")
def quad_relaxation():
    """Shared four-species run to t = 2 used by the conservation and decay gates."""
    cfg = validate_config(quad_run_raw(n_cells=128, dt=1e-3, t_end=2.0))
    outcome, states, elapsed = collected_experiment(cfg)
    assert not outcome.aborted
    return states, elapsed


def test_01_interpolation_constants_and_moments():
    failures = []
    start = time.perf_counter()

    one_d = interpolation_constants(1, 1.0, 0.0)
    require(failures, abs(one_d.b4 - 2.0) <= 1e-10, "1-d quadratic moment constant")
    require(failures, abs(one_d.b5 - 1.0) <= 1e-10, "1-d linear moment constant")
    require(failures, abs(one_d.b - 2.0 * math.sqrt(2.0)) <= 1e-10, "1-d combined constant")

    two_d = interpolation_constants(2, 1.0, 0.0)
    require(failures, abs(two_d.b4 - math.pi) <= 1e-10, "2-d quadratic moment constant")
    require(failures, abs(two_d.b5 - math.pi / 2.0) <= 1e-10, "2-d linear moment constant")
    require(
        failures,
        abs(two_d.b - math.sqrt(2.0) * math.pi) <= 1e-10,
        "2-d combined constant",
    )

    for n in (1, 2, 3):
        for delta in (0.0, 0.5, 1.0, 2.0):
            radial, err = scipy.integrate.quad(
                lambda r: r ** (n - 1 + delta) * math.exp(-r * r),
                0.0,
                12.0,
                epsabs=1e-13,
                epsrel=1e-13,
                limit=200,
            )
            assert err < 1e-12
            # Full-space moment: radial integral times the unit-sphere area.
            oracle = radial * 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
            measured = gaussian_moment(n, delta)
            require(
                failures,
                abs(measured - oracle) <= 1e-9,
                f"radial moment n={n} delta={delta}: {measured} vs {oracle}",
            )

    elapsed = time.perf_counter() - start
    require(failures, elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s")
    gate("01 interpolation-constants", failures, elapsed)


def bisect_equilibrium(m13: float, m23: float, m24: float) -> tuple:
    """Independent root-finder for the exchanged-species equilibrium."""

    def balance(s: float) -> float:
        return (m13 - s) * (m23 - s) - s * (m24 - m23 + s)

    lo = max(0.0, m23 - m24)
    hi = min(m13, m23)
    assert balance(lo) >= 0.0 >= balance(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if balance(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    return m13 - s, m23 - s, s, m24 - m23 + s


def test_02_equilibrium_against_bisection():
    failures = []
    start = time.perf_counter()

    symmetric = quad_equilibrium(2.0, 2.0, 2.0)
    for i, value in enumerate(symmetric.as_array()):
        require(failures, abs(value - 1.0) <= 1e-14, f"symmetric masses: u{i + 1}={value}")

    rng = np.random.default_rng(20240817)
    for trial in range(1000):
        m13 = 10.0 ** rng.uniform(-1.0, 1.0)
        m24 = 10.0 ** rng.uniform(-1.0, 1.0)
        m23 = rng.uniform(0.05, 0.95) * (m13 + m24)
        expected = bisect_equilibrium(m13, m23, m24)
        got = quad_equilibrium(m13, m23, m24).as_array()
        for want, have in zip(expected, got):
            if abs(have - want) > 1e-12 * max(1.0, abs(want)):
                failures.append(
                    f"trial {trial} ({m13}, {m23}, {m24}): {have} vs {want}"
                )
                break
        if failures:
            break

    elapsed = time.perf_counter() - start
    require(failures, elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s")
    gate("02 equilibrium-bisection", failures, elapsed)


def test_03_conservation_and_entropy_decay(quad_relaxation):
    from rdcheck import entropy_pointwise_worst

    states, run_elapsed = quad_relaxation
    failures = []
    entries = states.entries
    system = quadratic_reversible(QUAD_DIFFUSION)

    laws = [(0, 2), (1, 2), (1, 3)]
    base = [entries[0].masses[i] + entries[0].masses[j] for i, j in laws]
    worst_drift = 0.0
    for entry in entries:
        for (i, j), reference in zip(laws, base):
            drift = abs(entry.masses[i] + entry.masses[j] - reference) / abs(reference)
            worst_drift = max(worst_drift, drift)
    require(
        failures,
        worst_drift <= 1e-8,
        f"conservation drift {worst_drift:.3e} exceeds 1e-8",
    )

    worst_entropy = -math.inf
    for entry in entries:
        value = entropy_pointwise_worst(entry.u, system.evaluator(entry.u, entry.t))
        if value is not None:
            worst_entropy = max(worst_entropy, value)
    require(
        failures,
        worst_entropy <= 1e-12,
        f"entropy production {worst_entropy:.3e} exceeds 1e-12",
    )

    require(failures, run_elapsed < 30.0, f"budget exceeded: {run_elapsed:.2f}s")
    gate("03 conservation-and-entropy", failures, run_elapsed)


def test_04_exponential_relaxation_rate(quad_relaxation):
    states, _ = quad_relaxation
    failures = []
    start = time.perf_counter()
    entries = states.entries

    m13 = entries[0].masses[0] + entries[0].masses[2]
    m23 = entries[0].masses[1] + entries[0].masses[2]
    m24 = entries[0].masses[1] + entries[0].masses[3]
    equilibrium = quad_equilibrium(m13, m23, m24).as_array()

    times = []
    distances = []
    for entry in entries:
        if 0.5 <= entry.t <= 2.0:
            gap = max(
                float(np.max(np.abs(row - value)))
                for row, value in zip(entry.u, equilibrium)
            )
            times.append(entry.t)
            distances.append(gap)

    result = fit_rate(times, distances, "exponential")
    require(failures, result.rate > 0.0, f"decay rate {result.rate} not positive")
    require(
        failures,
        result.r_squared >= 0.98,
        f"log-linear fit quality {result.r_squared} below 0.98",
    )

    elapsed = time.perf_counter() - start
    gate("04 relaxation-rate", failures, elapsed)


def test_05_skew_mass_decay_rate():
    failures = []
    raw = skew_run_raw(
        n_cells=64,
        dt=1e-3,
        t_end=5.0,
        fits=[
            {
                "series": "mass_total",
                "mode": "exponential",
                "window": [0.0, 5.0],
                "bias_correct": True,
            }
        ],
    )
    outcome, states, elapsed = collected_experiment(validate_config(raw))

    entries = states.entries
    total0 = float(np.sum(entries[0].masses))
    worst = 0.0
    for k, entry in enumerate(entries):
        expected = total0 * (1.0 - 1e-3) ** k
        worst = max(worst, abs(float(np.sum(entry.masses)) - expected) / expected)
    require(
        failures,
        worst <= 1e-9,
        f"per-step mass factor drift {worst:.3e} exceeds 1e-9",
    )

    (fit,) = outcome.report["fits"]
    require(failures, "corrected_rate" in fit, f"fit failed: {fit.get('error')}")
    if "corrected_rate" in fit:
        require(
            failures,
            0.99 <= fit["corrected_rate"] <= 1.01,
            f"corrected decay rate {fit['corrected_rate']} outside [0.99, 1.01]",
        )

    require(failures, elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s")
    gate("05 skew-mass-decay", failures, elapsed)


def test_06_auxiliary_bounds_and_refinement():
    failures = []
    start = time.perf_counter()
    diagnostics = {"enabled": True, "d": 5.0}

    coarse = run_experiment(
        validate_config(
            quad_run_raw(n_cells=64, dt=2e-3, t_end=0.5, diagnostics=diagnostics)
        )
    )
    fine = run_experiment(
        validate_config(
            quad_run_raw(n_cells=128, dt=1e-3, t_end=0.5, diagnostics=diagnostics)
        )
    )
    elapsed = time.perf_counter() - start

    for label, outcome in (("coarse", coarse), ("fine", fine)):
        meas = outcome.report["measurements"]
        bound = meas["initial_sup_sum"] + 1e-6
        require(
            failures,
            meas["z_sup_max"] <= bound,
            f"{label}: weighted supremum {meas['z_sup_max']} exceeds {bound}",
        )
        checks = {c["name"]: c for c in outcome.report["checks"]}
        for name in (
            "z_sup_bound",
            "b_range",
            "uhat_nonnegative",
            "uhat_below_d_zhat",
            "uhat_sup_bound",
        ):
            require(failures, checks[name]["passed"] is True, f"{label}: {name} failed")

        header, *rows = outcome.csv_text.splitlines()
        columns = header.split(",")
        b_min_col = columns.index("b_min")
        b_max_col = columns.index("b_max")
        lo = 1.0 / max(QUAD_DIFFUSION) - 1e-9
        hi = 1.0 / min(QUAD_DIFFUSION) + 1e-9
        for row in rows:
            cells = row.split(",")
            if cells[b_min_col] == "" or cells[b_max_col] == "":
                continue
            if not (lo <= float(cells[b_min_col]) and float(cells[b_max_col]) <= hi):
                failures.append(f"{label}: comparison weight left [{lo}, {hi}]")
                break

    coarse_meas = coarse.report["measurements"]
    fine_meas = fine.report["measurements"]
    for key in ("vd_consistency_max", "zvd_residual_max"):
        ratio = coarse_meas[key] / fine_meas[key]
        require(
            failures,
            ratio >= 1.8,
            f"{key} shrank only {ratio:.2f}x under refinement",
        )

    require(failures, elapsed < 120.0, f"budget exceeded: {elapsed:.2f}s")
    gate("06 auxiliary-bounds", failures, elapsed)


def test_07_gradient_interpolation_bound():
    failures = []
    start = time.perf_counter()

    grid = Grid1D(800, 20.0)
    x = grid.centers
    y = (x - 10.0) / 0.5
    shape = np.zeros_like(x)
    inside = np.abs(y) < 1.0
    shape[inside] = np.exp(1.0 - 1.0 / (1.0 - y[inside] ** 2))

    diffusion = 1.0
    dt = 1e-3
    steps = 1000
    b_const = interpolation_constants(1, diffusion, 0.0).b

    amplitudes = (1.0, 2.0, 4.0)
    gradients = []
    for amplitude in amplitudes:
        forcing = amplitude * shape
        u = np.zeros_like(x)
        for _ in range(steps):
            u = implicit_heat_step(u, grid, diffusion, dt, source=forcing)
        gradient = grad_sup(u, grid.h)
        gradients.append(gradient)
        ceiling = b_const * math.sqrt(2.0 * float(u.max())) * math.sqrt(amplitude) + 1e-6
        require(
            failures,
            gradient <= ceiling,
            f"forcing {amplitude}: gradient {gradient:.4f} exceeds {ceiling:.4f}",
        )

    slope = loglog_slope(amplitudes, gradients)
    require(failures, slope <= 1.05, f"gradient growth exponent {slope} exceeds 1.05")

    elapsed = time.perf_counter() - start
    gate("07 gradient-interpolation", failures, elapsed)


def test_08_exponent_admissibility():
    failures = []
    start = time.perf_counter()

    rng = np.random.default_rng(11)
    admissible_seen = 0
    inadmissible_seen = 0
    for _ in range(100):
        delta = rng.uniform(1e-3, 1.0)
        eps = 10.0 ** rng.uniform(-4.0, 1.0)
        algebra = exponent_algebra(eps, delta)
        expected = eps < delta / (2.0 - delta)
        if expected:
            admissible_seen += 1
        else:
            inadmissible_seen += 1
        require(
            failures,
            algebra.admissible == expected,
            f"admissibility mismatch at eps={eps}, delta={delta}",
        )
        require(
            failures,
            (algebra.lam < 1.0) == expected,
            f"exponent {algebra.lam} disagrees with admissibility at eps={eps}, delta={delta}",
        )
        if expected:
            require(
                failures,
                abs(algebra.xi - 1.0 / (1.0 - algebra.lam)) <= 1e-12,
                f"iteration exponent mismatch at eps={eps}, delta={delta}",
            )
    require(failures, admissible_seen >= 10, "sweep never hit the admissible branch")
    require(failures, inadmissible_seen >= 10, "sweep never hit the inadmissible branch")

    reference = exponent_algebra(0.0, 1.0)
    require(failures, reference.lam == 0.75, f"reference exponent {reference.lam}")
    require(failures, reference.xi == 4.0, f"reference iteration count {reference.xi}")

    elapsed = time.perf_counter() - start
    require(failures, elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s")
    gate("08 exponent-admissibility", failures, elapsed)


def test_09_closure_conservation_audit():
    failures = []
    start = time.perf_counter()

    skew = skew_lv([1.0, 2.0], interaction=[[0.0, 1.0], [-1.0, 0.0]], decay=[1.0, 1.0])
    pair = augment_system(skew)
    audit = verify_augmented(pair, 7)
    checks = {c.name: c for c in audit}
    conservation = checks["augmented_conservation_residual"]
    require(failures, conservation.passed is True, "closure conservation failed")
    require(
        failures,
        conservation.measured <= 1e-10,
        f"closure conservation residual {conservation.measured}",
    )
    # A passing quasi-positivity probe's detail leads with the sample count.
    count = re.match(r"(\d+) samples", checks["augmented_quasi_positivity"].detail)
    require(failures, count is not None and int(count.group(1)) >= 10000, "audit under-sampled")

    quad = quadratic_reversible(QUAD_DIFFUSION)
    quad_pair = augment_system(quad)
    rng = np.random.default_rng(13)
    samples = 10.0 ** rng.uniform(-6.0, 3.0, size=(5, 10000))
    rates = np.asarray(quad_pair.evaluator(samples, 0.0))
    require(
        failures,
        bool(np.all(rates[-1] == 0.0)),
        "closure species reacted in an already conservative system",
    )

    elapsed = time.perf_counter() - start
    require(failures, elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s")
    gate("09 closure-conservation", failures, elapsed)


def test_10_reproducibility_and_defect_detection(tmp_path, capsys):
    failures = []
    start = time.perf_counter()

    def write(raw, name):
        path = tmp_path / name
        path.write_text(json.dumps(raw))
        return str(path)

    traces = []
    for tag in ("one", "two"):
        csv_path = tmp_path / f"{tag}.csv"
        raw = quad_run_raw(
            n_cells=32,
            dt=1e-3,
            t_end=0.05,
            seed=9,
            output={"csv": str(csv_path)},
        )
        code = cli_main(["run", write(raw, f"{tag}.json")])
        require(failures, code == 0, f"baseline run exited {code}")
        traces.append(csv_path.read_bytes())
    require(failures, traces[0] == traces[1], "identical configs produced different bytes")

    broken_reaction = {
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
    corrupted_z = quad_run_raw(
        n_cells=16,
        dt=1e-3,
        t_end=0.01,
        initial=[{"type": "constant", "value": 1.0}] * 4,
        diagnostics={"enabled": True, "d": 5.0},
        inject={"z_offset": 1.0},
    )
    broken_closure = skew_run_raw(
        n_cells=16,
        dt=1e-3,
        t_end=0.01,
        transform={"augment": True},
        inject={"augmentation_offset": 0.1},
    )

    defects = (
        ("broken quasi-positivity", broken_reaction),
        ("corrupted weighted supremum", corrupted_z),
        ("broken closure reaction", broken_closure),
    )
    for label, raw in defects:
        code = cli_main(["verify", write(raw, f"{label.replace(' ', '-')}.json")])
        require(failures, code == 1, f"{label}: verify exited {code}, wanted 1")

    capsys.readouterr()
    elapsed = time.perf_counter() - start
    gate("10 reproducibility-and-defects", failures, elapsed)
