"""Self-test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/selftest.py

A smoke pass runs every workload with a tiny horizon, traced and untraced,
and checks that each run is correct and prints every metric that
BENCHMARK.json names, by name in the text and with its unit in the final
JSON line.  An injected defect (``inject.z_offset``, which makes
``rdcheck verify`` exit 1) must be counted in ``failed_share`` and must not
be reported as a timing.  A copy of the benchmark without the program's
sources must exit non-zero without a result.  Exits 1 on any problem.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE_T_END = {"quad-diag-1024": 0.003, "quad-wide-4096": 0.005, "skew-stiff-aug": 0.5}


def bench_run(argv, **overrides):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, **overrides)
    lines = out.getvalue().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def check_declared(bench: dict, problems: list) -> None:
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    measured = {name: unit for name, (unit, _) in run.END_TO_END.items()}
    if declared != measured:
        problems.append(f"end_to_end {declared} != benchmark's {measured}")
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    layers = {name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()}
    if declared != layers:
        problems.append(f"per_layer {declared} != benchmark's {layers}")
    names = [w["name"] for w in bench["workloads"]]
    if names != list(WORKLOADS):
        problems.append(f"workloads {names} != benchmark's {list(WORKLOADS)}")


def check_smoke(bench: dict, problems: list) -> None:
    for name, t_end in SMOKE_T_END.items():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
            code, text, result = bench_run(argv, t_end=t_end)
            where = f"{name} --trace {trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {code}, result {result}, output {text}")
            printed = {line.split(" = ", 1)[0] for line in text if " = " in line}
            for metric in bench[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["value"] is None or got["unit"] != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} reported as {got}")
                if metric["name"] not in printed:
                    problems.append(f"{where}: {metric['name']} not printed")
            for metric in ("verify_s", "setup_s", "peak_rss_mb", "failed_share"):
                if metric not in printed:
                    problems.append(f"{where}: {metric} not printed")


def check_injected_defect(problems: list) -> None:
    argv = ["--workload", "quad-diag-1024", "--seed", "1", "--seconds", "0", "--trace", "0"]
    code, text, result = bench_run(argv, t_end=SMOKE_T_END["quad-diag-1024"],
                                   inject={"z_offset": 1.0})
    if code != 0 or result["correct"] or result["failed"] != result["attempted"]:
        problems.append(f"injected defect not counted as failed: {result}")
    if any(m["value"] is not None for m in result["metrics"].values()):
        problems.append(f"injected defect reported as a timing: {result['metrics']}")
    if "failed_share = 1.0 failed/attempted" not in "\n".join(text):
        problems.append(f"injected defect: failed_share is not 1: {text}")
    if not any("verify exited 1" in line for line in text):
        problems.append(f"injected defect: exit code 1 not named as the reason: {text}")


def check_bare_copy(problems: list) -> None:
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload",
         "skew-stiff-aug", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"copy without sources: exit {proc.returncode}, output {proc.stdout!r}")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems: list = []
    check_declared(bench, problems)
    check_smoke(bench, problems)
    check_injected_defect(problems)
    check_bare_copy(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
