"""Command-line interface.

Subcommands:
    run          simulate one config (or several with --sweep) and emit
                 CSV + report; exit 0 once the run completes, even if
                 checks fail.
    verify       same as run, but exit 1 when any check fails.
    constants    print the interpolation constants for (n, d, gamma).
    equilibrium  print the reversible-exchange equilibrium for a mass triple.
    fit          fit a decay rate to a column of an emitted CSV.

Exit codes: 0 pass, 1 check failure, 2 configuration error (also an
artifact path that cannot be written), 3 numerical failure (positivity
lost, or the state non-finite, beyond the halving budget) or any other
unexpected exception, which ends its own config only.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import traceback

from .config import ConfigError, load_config
from .experiment import run_experiment
from .theory import fit_rate, interpolation_constants, quad_equilibrium

__all__ = ["main"]


def _check_line(entry: dict) -> str:
    status = "ok  " if entry["passed"] else "FAIL"
    parts = [f"{status} {entry['name']}"]
    if entry["measured"] is not None:
        parts.append(f"measured={entry['measured']}")
    if entry["bound"] is not None:
        parts.append(f"bound={entry['bound']}")
    if entry["tolerance"] is not None:
        parts.append(f"tol={entry['tolerance']}")
    if entry["detail"]:
        parts.append(entry["detail"])
    return "  ".join(parts)


def _execute(path: str, augment: bool, assert_checks: bool) -> tuple[int, str]:
    """Run one config; returns (exit code, printable summary)."""
    lines = [f"== {path}"]
    try:
        cfg = load_config(path, augment)
        outcome = run_experiment(cfg)
    except ConfigError as exc:
        lines.append("config error:")
        lines.extend(f"  {e}" for e in exc.errors)
        return 2, "\n".join(lines)
    except OSError as exc:
        # An artifact path that cannot be written is a configuration error.
        lines.append(f"cannot write artifacts: {exc}")
        return 2, "\n".join(lines)
    except Exception as exc:
        # Anything else ends this config alone, so a sweep keeps the others.
        traceback.print_exc()
        lines.append(f"aborted: unexpected {type(exc).__name__}: {exc}")
        return 3, "\n".join(lines)
    report = outcome.report
    for entry in report["checks"]:
        lines.append(_check_line(entry))
    for fit in report["fits"]:
        if "error" in fit:
            lines.append(
                f"fit {fit['series']} ({fit['mode']}): error: {fit['error']}"
            )
        else:
            msg = (
                f"fit {fit['series']} ({fit['mode']}): rate={fit['rate']}"
                f"  prefactor={fit['prefactor']}  r2={fit['r_squared']}"
            )
            if "corrected_rate" in fit:
                msg += f"  corrected={fit['corrected_rate']}"
            lines.append(msg)
    if outcome.aborted:
        failure = report["failure"]
        lines.append(f"aborted: {failure['message']}")
        code = 3
    elif assert_checks and not outcome.passed:
        code = 1
    else:
        code = 0
    lines.append(f"overall: {report['overall']}")
    if cfg.csv_path:
        lines.append(f"csv: {cfg.csv_path}")
    if cfg.report_path:
        lines.append(f"report: {cfg.report_path}")
    return code, "\n".join(lines)


def _execute_tuple(args: tuple) -> tuple[int, str]:
    return _execute(*args)


def _run_command(ns: argparse.Namespace, assert_checks: bool) -> int:
    paths = ns.config
    if len(paths) > 1 and not ns.sweep:
        print("multiple configs need --sweep", file=sys.stderr)
        return 2
    jobs = [(p, ns.augment, assert_checks) for p in paths]
    if len(jobs) == 1:
        results = [_execute_tuple(jobs[0])]
    else:
        # Imported here: the pool brings multiprocessing, which a single
        # config does not need.
        from concurrent.futures import ProcessPoolExecutor

        workers = min(len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_execute_tuple, jobs))
    worst = 0
    for code, text in results:
        print(text)
        worst = max(worst, code)
    return worst


def _constants_command(ns: argparse.Namespace) -> int:
    try:
        c = interpolation_constants(
            ns.n, ns.d, ns.gamma, c_n=ns.cn, kappa_n=ns.kappan
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"case: {c.case}")
    if c.b1 is not None:
        print(f"B1 = {c.b1:.10f}")
        print(f"B2 = {c.b2:.10f}")
        print(f"B3 = {c.b3:.10f}")
    print(f"B4 = {c.b4:.10f}")
    print(f"B5 = {c.b5:.10f}")
    print(f"B  = {c.b:.10f}")
    return 0


def _equilibrium_command(ns: argparse.Namespace) -> int:
    try:
        eq = quad_equilibrium(ns.m13, ns.m23, ns.m24)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for i, v in enumerate(eq.as_array()):
        print(f"u{i + 1} = {float(v)!r}")
    return 0


def _fit_command(ns: argparse.Namespace) -> int:
    try:
        with open(ns.csv, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or ns.column not in reader.fieldnames:
                print(
                    f"error: column {ns.column!r} not in {ns.csv}", file=sys.stderr
                )
                return 2
            times = []
            values = []
            for row in reader:
                cell = row[ns.column]
                if cell is None or cell == "":
                    continue
                times.append(float(row["t"]))
                values.append(float(cell))
    except OSError as exc:
        print(f"error: cannot read {ns.csv}: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"error: malformed CSV: {exc}", file=sys.stderr)
        return 2
    if ns.window is not None:
        t0, t1 = ns.window
        pairs = [(t, v) for t, v in zip(times, values) if t0 <= t <= t1]
        times = [p[0] for p in pairs]
        values = [p[1] for p in pairs]
    try:
        result = fit_rate(times, values, ns.mode)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"mode = {result.mode}")
    print(f"rate = {result.rate!r}")
    print(f"prefactor = {result.prefactor!r}")
    print(f"r_squared = {result.r_squared!r}")
    print(f"n_samples = {len(times)}")
    return 0


def _config_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", nargs="+", help="path(s) to JSON run config")
    p.add_argument(
        "--augment",
        action="store_true",
        help="force the conservative closure transform on",
    )
    p.add_argument(
        "--sweep",
        action="store_true",
        help="allow several configs, run them concurrently",
    )


def _constants_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="spatial dimension")
    p.add_argument("--d", type=float, required=True, help="diffusion coefficient")
    p.add_argument("--gamma", type=float, required=True, help="Holder exponent in [0, 1)")
    p.add_argument("--cn", type=float, default=None, help="kernel envelope amplitude")
    p.add_argument("--kappan", type=float, default=None, help="kernel envelope decay rate")


def _equilibrium_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m13", type=float, required=True, help="conserved average of u1+u3")
    p.add_argument("--m23", type=float, required=True, help="conserved average of u2+u3")
    p.add_argument("--m24", type=float, required=True, help="conserved average of u2+u4")


def _fit_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--csv", required=True, help="CSV trace emitted by run")
    p.add_argument("--column", required=True, help="column to fit (e.g. mass_total)")
    p.add_argument(
        "--mode",
        choices=("exponential", "polynomial"),
        default="exponential",
        help="fit family",
    )
    p.add_argument(
        "--window",
        type=float,
        nargs=2,
        metavar=("T0", "T1"),
        default=None,
        help="restrict samples to T0 <= t <= T1",
    )


# Each subcommand's help line and the function adding its arguments.
_COMMANDS = {
    "run": (
        "simulate a config and emit its CSV trace and JSON report",
        _config_arguments,
    ),
    "verify": (
        "run a config and fail (exit 1) if any check fails",
        _config_arguments,
    ),
    "constants": ("print interpolation constants", _constants_arguments),
    "equilibrium": (
        "print the reversible-exchange equilibrium",
        _equilibrium_arguments,
    ),
    "fit": ("fit a decay rate to a CSV column", _fit_arguments),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdcheck",
        description="Reaction-diffusion global-existence diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse(argv) -> tuple[str, argparse.Namespace]:
    """(command, namespace) of argv.

    When argv[0] names a subcommand, only that subcommand's parser is
    built: it is the parser the full tree hands the rest to, so it prints
    the same help and errors.  Arguments it leaves over are an error of the
    full tree, which is built to report them.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"rdcheck {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        ns, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return argv[0], ns
    ns = _build_parser().parse_args(argv)
    return ns.command, ns


def main(argv=None) -> int:
    command, ns = _parse(argv)
    if command == "run":
        return _run_command(ns, assert_checks=False)
    if command == "verify":
        return _run_command(ns, assert_checks=True)
    if command == "constants":
        return _constants_command(ns)
    if command == "equilibrium":
        return _equilibrium_command(ns)
    return _fit_command(ns)


if __name__ == "__main__":
    sys.exit(main())
