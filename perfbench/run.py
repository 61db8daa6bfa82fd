"""rdcheck benchmark: time to verdict of ``rdcheck verify``, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run writes the workload's config for seed N (``workloads.py``), then
runs ``rdcheck verify`` on it in fresh child processes (``child.py``), one
at a time, for S seconds after an untimed warm-up import.  The first
child's CSV is the reference every later child must reproduce.  The program is
imported from ``src/`` of the checkout; nothing is installed.  Every child
passes through the correctness gate (``gate``); a child that fails it
counts in ``failed`` and contributes no timing.

Each untraced child is followed by the fixed reference task
(``reference.py``).  ``--trace 0`` reports the end-to-end metrics, medians
over the timed children: ``verify_rel``, each verify wall time divided by
the reference time taken next to it, plus ``setup_s`` and ``peak_rss_mb``.
The raw verify wall time ``verify_s`` is printed too, but on a shared host
it is not steady enough to gate on: over ten runs per workload on a 2-vCPU
KVM guest, the quartile spread of its run medians was 0.10 to 0.30 of the
median, that of ``verify_rel`` 0.04 to 0.06 (``baseline.json``).
``--trace 1``
alternates untraced children with traced ones (``tracing.py``) and reports
the per-layer metrics, medians over the traced children, plus
``trace.overhead_s``.  Both print every metric by name and unit, the
failed share and the verify_s tail, and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

Exits 2 without a result when the checkout has no ``src/rdcheck``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
sys.path.insert(0, HERE)

from tracing import PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
# Children per kind (plain, traced) even when S seconds run out first.
MIN_SAMPLES = 5
# A run must end within 180 s; no child starts past this point.
HARD_LIMIT_S = 165.0
# Pinned so that a child uses one core, as one verification in a pipeline would.
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({k: "1" for k in BLAS_THREADS})
    return env


def gate(workload, code: int, result: dict | None, workdir: str, reference: bytes | None):
    """Reasons this child's verification is wrong (empty when it is right), and its CSV bytes.

    Reads only the report and the CSV the run wrote, never in-memory results.
    """
    if code != 0 or result is None:
        return [f"child process exited {code} without a result"], None
    reasons = []
    if result["exit_code"] != 0:
        reasons.append(f"verify exited {result['exit_code']}, expected 0")
    report = None
    try:
        with open(os.path.join(workdir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        reasons.append(f"report missing or unparsable: {exc}")
    csv_bytes = None
    try:
        with open(os.path.join(workdir, "run.csv"), "rb") as fh:
            csv_bytes = fh.read()
        rows = list(csv.reader(io.StringIO(csv_bytes.decode("ascii"))))
        if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged or empty table")
        for row in rows[1:]:
            for cell in row:
                if cell:
                    float(cell)
    except (OSError, ValueError) as exc:
        reasons.append(f"CSV missing or unparsable: {exc}")
        csv_bytes = None
    if isinstance(report, dict):
        if report.get("overall") != "pass":
            reasons.append(f"overall is {report.get('overall')!r}, expected 'pass'")
        names = {c.get("name") for c in report.get("checks", ()) if isinstance(c, dict)}
        missing = [n for n in workload.expected_checks if n not in names]
        if missing:
            reasons.append(f"checks absent from the report: {missing}")
    elif report is not None:
        reasons.append("report is not a JSON object")
    if csv_bytes is not None and reference is not None and csv_bytes != reference:
        reasons.append("CSV bytes differ from the first run of this workload and seed")
    return reasons, csv_bytes


def run_child(workload, config: str, workdir: str, traced: bool, reference, timeout: float):
    """One verification in a fresh process; returns (result or None, reasons, CSV bytes)."""
    for name in ("run.csv", "report.json", "result.json"):
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            os.remove(path)
    result_path = os.path.join(workdir, "result.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), SRC, config, result_path]
    if traced:
        argv.append("--trace")
    try:
        proc = subprocess.run(argv, cwd=workdir, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return None, [f"child timed out after {timeout:.0f} s"], None
    result = None
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    reasons, csv_bytes = gate(workload, proc.returncode, result, workdir, reference)
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
        reasons.extend(tail)
    return result, reasons, csv_bytes


def run_reference(workdir: str, timeout: float) -> float:
    """Wall time of the fixed reference task in a fresh process."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "reference.py")], cwd=workdir,
                          env=child_env(), capture_output=True, text=True,
                          timeout=max(timeout, 1.0), check=True)
    return float(proc.stdout)


def measure(workload, seed: int, seconds: float, trace: bool, t_end=None, inject=None) -> dict:
    """Run children for ``seconds``; collect the timings of those that pass the gate."""
    begin = time.perf_counter()
    workdir = os.path.join(WORK, f"{workload.name}-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    config = workload.write_config(workdir, seed, t_end=t_end, inject=inject)

    # Fill the bytecode and file caches before anything is timed.
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import rdcheck.cli", SRC], cwd=workdir, env=child_env(),
                   timeout=60, check=False)

    samples = {"plain": [], "traced": []}
    kinds = ("plain", "traced") if trace else ("plain",)
    attempted = failed = 0
    reasons_seen: dict = {}
    reference = None
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if now - start >= seconds and attempted >= MIN_SAMPLES * len(kinds):
            break
        remaining = begin + HARD_LIMIT_S - now
        if remaining < 5.0:
            break
        kind = kinds[attempted % len(kinds)]
        result, reasons, csv_bytes = run_child(
            workload, config, workdir, kind == "traced", reference, remaining)
        if reference is None:
            reference = csv_bytes
        attempted += 1
        if reasons:
            failed += 1
            for r in reasons:
                reasons_seen[r] = reasons_seen.get(r, 0) + 1
            continue
        if kind == "traced":
            rows = csv_bytes.count(b"\n") - 1
            result["layers"] = layer_metrics(result.pop("trace"), rows)
        else:
            result["ref_s"] = run_reference(workdir, begin + HARD_LIMIT_S - time.perf_counter())
        samples[kind].append(result)
    shutil.rmtree(workdir, ignore_errors=True)
    return {"attempted": attempted, "failed": failed, "reasons": reasons_seen,
            "samples": samples}


def _median(values):
    return statistics.median(values) if values else None


# name: (unit, value of one untraced child); a run reports the median over its children.
END_TO_END = {
    "verify_rel": ("ref", lambda s: s["verify_s"] / s["ref_s"]),
    "setup_s": ("s", lambda s: s["setup_s"]),
    "peak_rss_mb": ("MB", lambda s: s["peak_rss_mb"]),
}


def summarize(run: dict, trace: bool) -> dict:
    """End-to-end (or, with ``trace``, per-layer) metrics of one run, as {name: (value, unit)}."""
    plain = run["samples"]["plain"]
    verify = _median([s["verify_s"] for s in plain])
    if not trace:
        return {name: (_median([value(s) for s in plain]), unit)
                for name, (unit, value) in END_TO_END.items()}
    traced = run["samples"]["traced"]
    out = {}
    for name, (unit, _, _) in PER_LAYER.items():
        if name == "trace.overhead_s":
            traced_verify = _median([s["verify_s"] for s in traced])
            value = None if verify is None or traced_verify is None else traced_verify - verify
        else:
            value = _median([s["layers"][name] for s in traced])
        out[name] = (value, unit)
    return out


def tail_line(values) -> str:
    """The highest percentile that still has at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"verify_s tail: n={n} samples, no percentile has 10 samples beyond it"
    ordered = sorted(values)
    k = n - 10
    return f"verify_s p{100.0 * k / n:.1f} = {ordered[k - 1]!r} s (n={n}, 10 samples beyond it)"


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "blas_threads_in_children": 1}
    try:
        import numpy
        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = None
    return facts


def main(argv=None, t_end=None, inject=None) -> int:
    """Command-line entry; ``t_end`` and ``inject`` let the self-test shorten or break runs."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rdcheck", "__init__.py")):
        print(f"no rdcheck sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if ns.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2

    workload = WORKLOADS[ns.workload]
    trace = bool(ns.trace)
    run = measure(workload, ns.seed, ns.seconds, trace, t_end=t_end, inject=inject)
    metrics = summarize(run, trace)

    print(f"workload {workload.name} seed {ns.seed}: {workload.why}")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    for reason, count in sorted(run["reasons"].items()):
        print(f"FAILED x{count}: {reason}")
    plain = run["samples"]["plain"]
    for name in ("verify_s", "ref_s"):
        print(f"{name} = {_median([s[name] for s in plain])!r} s (median of {len(plain)})")
    for name, (unit, value) in END_TO_END.items():
        print(f"{name} = {_median([value(s) for s in plain])!r} {unit} (median of {len(plain)})")
    print(f"failed_share = {run['failed'] / run['attempted']!r} failed/attempted "
          f"({run['failed']} of {run['attempted']})")
    print(tail_line([s["verify_s"] for s in plain]))
    if trace:
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value!r} {unit} (median of {len(run['samples']['traced'])})")

    timed = sum(len(v) for v in run["samples"].values())
    line = {
        "correct": run["failed"] == 0 and timed > 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
