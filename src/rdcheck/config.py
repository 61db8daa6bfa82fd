"""Run configuration: JSON schema, full validation, and builders.

A run config is a single JSON object with sections model / grid / initial /
solver / diagnostics / transform / fits / inject / output plus a top-level
seed.  Validation is total: every problem is collected with its dotted field
path and reported in one ConfigError, so a bad file is fixed in one pass
rather than one message at a time.  A key that validation does not read,
such as a misspelled one, is such a problem too.

Validation also builds, once, everything a run starts from: the
ReactionSystem, Grid1D, closed system and AuxiliaryConfig, and the read-only
initial (species, cells) array, which the derived-quantity checks read.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .diagnostics import AuxiliaryConfig
from .grid import Grid1D
from .models import ReactionSystem, augment_system, custom_polynomial, quadratic_reversible, skew_lv
from .solver import SolverConfig, row_norms

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "validate_config",
]

_BUILTINS = ("quadratic_reversible", "skew_lv")
# The keys each profile type reads.
_PROFILE_KEYS = {
    "constant": ("type", "value"),
    "gaussian": ("type", "center", "width", "amplitude"),
    "piecewise": ("type", "values", "breaks"),
}
_PROFILE_TYPES = tuple(_PROFILE_KEYS)
_FIT_SERIES = ("mass_total", "sup_total", "distance_to_equilibrium")
_FIT_MODES = ("exponential", "polynomial")
_TOP_LEVEL_KEYS = (
    "model", "grid", "initial", "solver", "diagnostics", "transform", "fits",
    "inject", "output", "seed",
)


class ConfigError(Exception):
    """Invalid run configuration.

    Carries the full list of validation messages, not just the first, so a
    user can fix a config file in one pass.  The command line exits 2 on it.
    """

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class RunConfig:
    """Validated run configuration plus the live objects a run starts from.

    augmented is the closed system of augment_system(system) when the
    closure transform is on, else None.  u0 is the read-only initial array
    of the system the run integrates: augmented when it is set, else system
    (the model).  diagnostics is None when the tracker is off."""

    raw: dict
    system: ReactionSystem
    grid: Grid1D
    u0: np.ndarray
    solver: SolverConfig
    augmented: ReactionSystem | None
    diagnostics: AuxiliaryConfig | None
    fits: list
    inject_augmentation_offset: float
    csv_path: str | None
    report_path: str | None
    seed: int


class _Collector:
    def __init__(self):
        self.errors: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def _lookup(self, obj: dict, path: str, key: str, required, default, check,
                **bounds):
        """check(label, obj[key], **bounds), or default when the key is
        absent (reported if required) or its value fails the check."""
        label = f"{path}.{key}" if path else key
        if key not in obj:
            if required:
                self.add(label, "missing required value")
            return default
        val = check(label, obj[key], **bounds)
        return default if val is None else val

    def number(self, obj: dict, path: str, key: str, *, required=True, default=None,
               **bounds):
        return self._lookup(obj, path, key, required, default, self.real, **bounds)

    def integer(self, obj: dict, path: str, key: str, *, required=True, default=None,
                **bounds):
        return self._lookup(obj, path, key, required, default, self.whole, **bounds)

    def flag(self, obj: dict, path: str, key: str) -> bool:
        """obj[key] as a bool, False when it is absent or not a bool."""
        return self._lookup(obj, path, key, False, False, self.boolean)

    def real(self, label: str, val, *, minimum=None, exclusive_minimum=None,
             maximum=None) -> float | None:
        """val as a finite float within the bounds, or None with the problem
        reported under label."""
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            self.add(label, f"expected a number, got {val!r}")
            return None
        try:
            val = float(val)
        except OverflowError:  # an integer past the float range
            val = math.inf
        if not math.isfinite(val):
            self.add(label, f"must be finite, got {val}")
        elif minimum is not None and val < minimum:
            self.add(label, f"must be >= {minimum}, got {val}")
        elif exclusive_minimum is not None and val <= exclusive_minimum:
            self.add(label, f"must be > {exclusive_minimum}, got {val}")
        elif maximum is not None and val > maximum:
            self.add(label, f"must be <= {maximum}, got {val}")
        else:
            return val
        return None

    def whole(self, label: str, val, *, minimum=None, maximum=None) -> int | None:
        """val as an integer within the bounds, or None with the problem
        reported under label."""
        if isinstance(val, bool) or not isinstance(val, int):
            self.add(label, f"expected an integer, got {val!r}")
        elif minimum is not None and val < minimum:
            self.add(label, f"must be >= {minimum}, got {val}")
        elif maximum is not None and val > maximum:
            self.add(label, f"must be <= {maximum}, got {val}")
        else:
            return val
        return None

    def boolean(self, label: str, val) -> bool | None:
        """val if it is a bool, else None with the problem reported."""
        if isinstance(val, bool):
            return val
        self.add(label, f"expected true/false, got {val!r}")
        return None

    def unknown(self, obj: dict, path: str, known) -> None:
        """Report every key of obj that is not in known, by its dotted path."""
        for key in obj:
            if key not in known:
                self.add(f"{path}.{key}" if path else str(key), "unknown key")

    def section(self, obj: dict, key: str, known, *, required=True) -> dict | None:
        """The object at obj[key], with its keys outside known reported
        (known None: the caller reports them)."""
        if key not in obj:
            if required:
                self.add(key, "missing required section")
            return None
        val = obj[key]
        if not isinstance(val, dict):
            self.add(key, f"expected an object, got {type(val).__name__}")
            return None
        if known is not None:
            self.unknown(val, key, known)
        return val


def _validate_model(col: _Collector, raw: dict) -> ReactionSystem | None:
    sec = col.section(raw, "model", None)
    if sec is None:
        return None
    skew = ("interaction", "decay") if sec.get("builtin") == "skew_lv" else ()
    col.unknown(sec, "model", ("builtin", "custom", "diffusion") + skew)
    has_builtin = "builtin" in sec
    has_custom = "custom" in sec
    if has_builtin == has_custom:
        col.add("model", "exactly one of 'builtin' or 'custom' is required")
        return None

    diffusion = sec.get("diffusion")
    if not isinstance(diffusion, list) or not diffusion:
        col.add("model.diffusion", "expected a nonempty list of coefficients")
        return None
    diffusion = [
        col.real(f"model.diffusion[{i}]", v, exclusive_minimum=0.0)
        for i, v in enumerate(diffusion)
    ]
    if None in diffusion:
        return None

    if has_builtin:
        name = sec["builtin"]
        if name == "quadratic_reversible":
            if len(diffusion) != 4:
                col.add("model.diffusion", f"quadratic_reversible needs 4 coefficients, got {len(diffusion)}")
                return None
            return quadratic_reversible(diffusion)
        if name == "skew_lv":
            a = sec.get("interaction")
            tau = sec.get("decay")
            n = len(diffusion)
            if not isinstance(a, list) or len(a) != n or any(
                not isinstance(row, list) or len(row) != n for row in a
            ):
                col.add("model.interaction", f"expected an {n}x{n} matrix")
                return None
            if not isinstance(tau, list) or len(tau) != n:
                col.add("model.decay", f"expected a list of length {n}")
                return None
            a = [
                [col.real(f"model.interaction[{i}][{j}]", v) for j, v in enumerate(row)]
                for i, row in enumerate(a)
            ]
            tau = [col.real(f"model.decay[{i}]", v) for i, v in enumerate(tau)]
            if None in tau or any(None in row for row in a):
                return None
            try:
                return skew_lv(diffusion, a, tau)
            except ValueError as exc:
                col.add("model", str(exc))
                return None
        col.add("model.builtin", f"unknown builtin {name!r}; choose from {_BUILTINS}")
        return None

    custom = sec["custom"]
    if not isinstance(custom, dict):
        col.add("model.custom", "expected an object")
        return None
    col.unknown(
        custom, "model.custom", ("n_species", "k0", "k1", "k", "eps", "terms", "name")
    )
    n = col.integer(custom, "model.custom", "n_species", minimum=1)
    k0 = col.number(custom, "model.custom", "k0", minimum=0.0)
    k1 = col.number(custom, "model.custom", "k1")
    k = col.number(custom, "model.custom", "k", exclusive_minimum=0.0)
    eps = col.number(custom, "model.custom", "eps", minimum=0.0)
    terms = custom.get("terms")
    if n is None or k0 is None or k1 is None or k is None or eps is None:
        return None
    if len(diffusion) != n:
        col.add("model.diffusion", f"needs {n} coefficients for n_species={n}, got {len(diffusion)}")
        return None
    if not isinstance(terms, list) or len(terms) != n:
        col.add("model.custom.terms", f"expected one monomial list per species ({n})")
        return None
    ok = True
    parsed = []
    for i, row in enumerate(terms):
        if not isinstance(row, list):
            col.add(f"model.custom.terms[{i}]", "expected a list of monomials")
            ok = False
            continue
        prow = []
        for j, mono in enumerate(row):
            path = f"model.custom.terms[{i}][{j}]"
            if not isinstance(mono, dict) or "coef" not in mono or "powers" not in mono:
                col.add(path, "expected an object with 'coef' and 'powers'")
                ok = False
                continue
            col.unknown(mono, path, ("coef", "powers"))
            coef = col.real(f"{path}.coef", mono["coef"])
            powers = mono["powers"]
            if not isinstance(powers, list) or len(powers) != n:
                col.add(f"{path}.powers", f"expected {n} nonnegative integers")
                ok = False
                continue
            powers = [
                col.whole(f"{path}.powers[{m}]", p, minimum=0) for m, p in enumerate(powers)
            ]
            ok = ok and coef is not None and None not in powers
            prow.append((coef, powers))
        parsed.append(prow)
    name = custom.get("name", "custom-polynomial")
    if not isinstance(name, str):
        col.add("model.custom.name", "expected a string")
        return None
    if not ok:
        return None
    return custom_polynomial(diffusion, parsed, k0, k1, k, eps, name)


def _validate_grid(col: _Collector, raw: dict) -> Grid1D | None:
    sec = col.section(raw, "grid", ("n_cells", "length"))
    if sec is None:
        return None
    n = col.integer(sec, "grid", "n_cells", minimum=2)
    length = col.number(sec, "grid", "length", required=False, default=1.0,
                        exclusive_minimum=0.0)
    if n is None or length is None:
        return None
    try:
        return Grid1D(n, length)
    except OverflowError:  # an integer past the float range
        col.add("grid.n_cells", "too large for a grid")
        return None


def _validate_profile(col: _Collector, path: str, prof, grid: Grid1D | None):
    """The profile as a function of the grid that gives its cell values, or
    None when it is invalid."""
    if not isinstance(prof, dict) or "type" not in prof:
        col.add(path, "expected an object with a 'type'")
        return None
    kind = prof["type"]
    if not isinstance(kind, str):
        col.add(f"{path}.type", f"expected a string, got {kind!r}")
        return None
    if kind in _PROFILE_KEYS:
        col.unknown(prof, path, _PROFILE_KEYS[kind])
    if kind == "constant":
        val = col.number(prof, path, "value", minimum=0.0)
        if val is None:
            return None
        return lambda g: np.full(g.n_cells, val)
    if kind == "gaussian":
        center = col.number(prof, path, "center")
        width = col.number(prof, path, "width", exclusive_minimum=0.0)
        amp = col.number(prof, path, "amplitude", minimum=0.0)
        if center is None or width is None or amp is None:
            return None
        return lambda g: amp * np.exp(-((g.centers - center) ** 2) / (2.0 * width * width))
    if kind == "piecewise":
        values = prof.get("values")
        breaks = prof.get("breaks")
        if not isinstance(values, list) or not values:
            col.add(f"{path}.values", "expected a nonempty list")
            return None
        start = len(col.errors)
        values = [col.real(f"{path}.values[{i}]", v, minimum=0.0) for i, v in enumerate(values)]
        if not isinstance(breaks, list) or len(breaks) != len(values) - 1:
            col.add(f"{path}.breaks", f"expected {len(values) - 1} interior breakpoints")
            return None
        breaks = [col.real(f"{path}.breaks[{i}]", b) for i, b in enumerate(breaks)]
        prev = 0.0
        for i, b in enumerate(breaks):
            if b is not None:
                if b <= prev:
                    col.add(f"{path}.breaks[{i}]", "breakpoints must be strictly increasing from 0")
                prev = b
        if len(col.errors) > start:
            return None
        if grid is not None and prev >= grid.length:
            col.add(f"{path}.breaks", f"breakpoints must lie inside (0, {grid.length})")
            return None
        values = np.asarray(values)
        breaks = np.asarray(breaks, dtype=np.float64)
        return lambda g: values[np.searchsorted(breaks, g.centers, side="right")]
    col.add(f"{path}.type", f"unknown profile type {kind!r}; choose from {_PROFILE_TYPES}")
    return None


def _finite(compute):
    """compute(), if it runs without overflow, division by zero or an
    invalid operation and gives only finite values (underflow is allowed);
    None otherwise."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            value = compute()
    except FloatingPointError:
        return None
    return value if np.all(np.isfinite(value)) else None


def _check_derived(
    col: _Collector, grid: Grid1D, profiles, dt, system, integrated, diag_d, closure
):
    """Reject derived quantities that are not finite: 1/h^2, the largest
    solve coefficient 1 + 4 dt d / h^2 of every species of the integrated
    system (species past the model's own are the closure's, which closure
    names) and of the auxiliary diffusion d (at the configured dt, the
    largest step), each initial profile on the grid and its mass, and the
    initial forcing sum_i (d - d_i) u_i of v_d.  Returns the integrated
    system's initial array, closure rows zero, or None if it has no valid
    model or profiles."""
    h = np.float64(grid.h)
    if _finite(lambda: 1.0 / (h * h)) is None:
        col.add("grid", f"cell width h = {grid.h} has no finite 1/h^2")
        return None
    diffusion = () if integrated is None else integrated.diffusion
    coefficients = [
        (f"model.diffusion[{i}]" if i < system.n_species else f"{closure} (closure species)", d)
        for i, d in enumerate(diffusion)
    ]
    if diag_d is not None:
        coefficients.append(("diagnostics.d", diag_d))
    if dt is not None:
        for path, d in coefficients:
            if _finite(lambda: 1.0 + 4.0 * (np.float64(dt) * d / (h * h))) is None:
                col.add(
                    path,
                    f"dt * d / h^2 is not finite (dt = {dt}, d = {d}, h = {grid.h})",
                )
    values = []
    for i, profile in enumerate(profiles or ()):
        u0 = _finite(lambda: profile(grid))
        if u0 is None:
            col.add(f"initial[{i}]", "profile values on the grid are not finite")
        elif _finite(lambda: row_norms(u0[None], h)[1]) is None:
            col.add(f"initial[{i}]", "the initial mass h * sum_j u_j is not finite")
        else:
            values.append(u0)
    if system is None or len(values) != system.n_species:
        return None
    u0 = np.stack(values + [np.zeros(grid.n_cells)] * (len(diffusion) - len(values)))
    if diag_d is not None:
        if _finite(lambda: np.tensordot(diag_d - diffusion, u0, axes=1)) is None:
            col.add("diagnostics.d", "the initial forcing sum_i (d - d_i) u_i is not finite")
    return u0


def validate_config(raw: dict, augment: bool = False) -> RunConfig:
    """Validate a parsed JSON object; raise ConfigError with every problem.

    augment=True forces the closure transform on (CLI --augment) whatever
    transform.augment says; the closure species is then checked like one
    the config asks for.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a JSON object"])
    col = _Collector()
    col.unknown(raw, "", _TOP_LEVEL_KEYS)

    system = _validate_model(col, raw)
    grid = _validate_grid(col, raw)

    profiles = None
    if "initial" not in raw:
        col.add("initial", "missing required section")
    elif not isinstance(raw["initial"], list):
        col.add("initial", "expected a list with one profile per species")
    else:
        profiles = []
        for i, prof in enumerate(raw["initial"]):
            parsed = _validate_profile(col, f"initial[{i}]", prof, grid)
            profiles.append(parsed)
        if any(p is None for p in profiles):
            profiles = None
    if system is not None and profiles is not None and len(profiles) != system.n_species:
        col.add(
            "initial",
            f"model has {system.n_species} species but {len(profiles)} profiles given",
        )
        profiles = None

    solver_cfg = None
    sec = col.section(
        raw, "solver",
        ("dt", "t_end", "record_every", "positivity_floor", "max_step_halvings"),
    )
    if sec is not None:
        dt = col.number(sec, "solver", "dt", exclusive_minimum=0.0)
        t_end = col.number(sec, "solver", "t_end", exclusive_minimum=0.0)
        record_every = col.integer(sec, "solver", "record_every", required=False,
                                   default=SolverConfig.record_every, minimum=1)
        floor = col.number(sec, "solver", "positivity_floor", required=False,
                           default=SolverConfig.positivity_floor, maximum=0.0)
        halvings = col.integer(sec, "solver", "max_step_halvings", required=False,
                               default=SolverConfig.max_step_halvings, minimum=0)
        if dt is not None and t_end is not None and dt > t_end:
            col.add("solver.dt", f"dt = {dt} exceeds t_end = {t_end}")
        elif None not in (dt, t_end, record_every, floor, halvings):
            solver_cfg = SolverConfig(
                dt=dt, t_end=t_end, positivity_floor=floor,
                max_step_halvings=halvings, record_every=record_every,
            )

    # What turns the closure transform on, for the errors that name it.
    closure = "--augment" if augment else None
    sec = col.section(raw, "transform", ("augment",), required=False)
    if sec is not None and col.flag(sec, "transform", "augment"):
        closure = "transform.augment"
    augmented = None if closure is None or system is None else augment_system(system)
    integrated = system if augmented is None else augmented

    diag_d = None
    sec = col.section(raw, "diagnostics", ("enabled", "d"), required=False)
    if sec is not None:
        if col.flag(sec, "diagnostics", "enabled"):
            diag_d = col.number(sec, "diagnostics", "d", exclusive_minimum=0.0)
            if diag_d is not None and integrated is not None:
                d_floor = float(np.max(integrated.diffusion))
                if diag_d <= d_floor:
                    col.add(
                        "diagnostics.d",
                        f"must strictly exceed every species diffusion "
                        f"(largest is {d_floor}), got {diag_d}",
                    )
                    diag_d = None

    fits = []
    if "fits" in raw:
        if not isinstance(raw["fits"], list):
            col.add("fits", "expected a list")
        else:
            for i, f in enumerate(raw["fits"]):
                path = f"fits[{i}]"
                if not isinstance(f, dict):
                    col.add(path, "expected an object")
                    continue
                col.unknown(f, path, ("series", "mode", "window", "bias_correct"))
                series = f.get("series")
                if series not in _FIT_SERIES:
                    col.add(f"{path}.series", f"choose from {_FIT_SERIES}, got {series!r}")
                mode = f.get("mode", "exponential")
                if mode not in _FIT_MODES:
                    col.add(f"{path}.mode", f"choose from {_FIT_MODES}, got {mode!r}")
                window = f.get("window")
                if isinstance(window, list) and len(window) == 2:
                    window = tuple(
                        col.real(f"{path}.window[{k}]", w) for k, w in enumerate(window)
                    )
                # A window entry that is not a finite number is reported above.
                if not (isinstance(window, tuple) and (None in window or window[0] < window[1])):
                    col.add(f"{path}.window", "expected [t_start, t_end] with t_start < t_end")
                fits.append(
                    {
                        "series": series,
                        "mode": mode,
                        "window": window,
                        "bias_correct": col.flag(f, path, "bias_correct"),
                    }
                )

    sec = col.section(
        raw, "inject", ("z_offset", "augmentation_offset"), required=False
    ) or {}
    z_offset = col.number(sec, "inject", "z_offset", required=False,
                          default=AuxiliaryConfig.z_offset)
    aug_offset = col.number(sec, "inject", "augmentation_offset", required=False,
                            default=0.0)

    paths = {}
    sec = col.section(raw, "output", ("csv", "report"), required=False)
    if sec is not None:
        for key in ("csv", "report"):
            value = sec.get(key)
            if isinstance(value, str) and value:
                paths[key] = value
            elif value is not None:
                col.add(f"output.{key}", f"expected a non-empty path, got {value!r}")
        if len(paths) == 2 and len({os.path.abspath(p) for p in paths.values()}) == 1:
            col.add("output.report", f"names the same file as output.csv: {paths['report']!r}")
    csv_path = paths.get("csv")
    report_path = paths.get("report")

    # The audits' SplitMix64 stream is 64-bit: a larger seed would alias.
    seed = col.integer(
        raw, "", "seed", required=False, default=0, minimum=0, maximum=2**64 - 1
    )

    u0 = None
    if grid is not None:
        u0 = _check_derived(
            col, grid, profiles, solver_cfg and solver_cfg.dt, system, integrated,
            diag_d, closure,
        )

    if col.errors:
        raise ConfigError(col.errors)
    u0.flags.writeable = False
    return RunConfig(
        raw=raw,
        system=system,
        grid=grid,
        u0=u0,
        solver=solver_cfg,
        augmented=augmented,
        diagnostics=None if diag_d is None else AuxiliaryConfig(d=diag_d, z_offset=z_offset),
        fits=fits,
        inject_augmentation_offset=aug_offset,
        csv_path=csv_path,
        report_path=report_path,
        seed=seed,
    )


def load_config(path: str, augment: bool = False) -> RunConfig:
    """Read and validate a JSON run config from disk; augment as in
    validate_config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config {path} is not UTF-8 text: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config {path} is not valid JSON: {exc}"]) from exc
    return validate_config(raw, augment)
