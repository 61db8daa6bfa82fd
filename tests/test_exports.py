"""The public surface: rdcheck.__all__ and the README's "Library use" section."""

import ast
import builtins
import dataclasses
import importlib
import inspect
import os
import re

import rdcheck
import rdcheck.diagnostics
import rdcheck.experiment
import rdcheck.solver

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def library_use_spans():
    """The inline code spans of README's "Library use" section, fenced
    code blocks left out."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    return re.findall(r"`([^`]+)`", prose)


def documented_non_exports():
    """Identifiers the README may name besides exports: builtins, fields of
    exported dataclasses and parameters of exported callables."""
    names = set(dir(builtins))
    for name in rdcheck.__all__:
        obj = getattr(rdcheck, name)
        if dataclasses.is_dataclass(obj):
            names.update(f.name for f in dataclasses.fields(obj))
        if inspect.isfunction(obj):
            names.update(inspect.signature(obj).parameters)
    return names


def test_every_export_resolves():
    assert len(set(rdcheck.__all__)) == len(rdcheck.__all__)
    for name in rdcheck.__all__:
        assert hasattr(rdcheck, name), name


def test_package_reexports_exactly_its_modules_exports():
    # Each name is declared once, in its module's __all__; the package
    # re-exports every module's list but the command line's.
    package = os.path.dirname(rdcheck.__file__)
    files = sorted(f[:-3] for f in os.listdir(package) if f.endswith(".py"))
    modules = [importlib.import_module(f"rdcheck.{name}") for name in files if name != "__init__"]
    for module in modules:
        assert isinstance(getattr(module, "__all__", None), list), module.__name__
    reexported = [m.__all__ for m in modules if m.__name__ != "rdcheck.cli"]
    assert sorted(rdcheck.__all__) == sorted(name for names in reexported for name in names)


def test_readme_library_use_names_only_exports():
    spans = library_use_spans()
    exports = set(rdcheck.__all__)
    others = documented_non_exports()
    named = set()
    for span in spans:
        call = re.fullmatch(r"([A-Za-z_]\w*)\(.*\)", span)
        if call:
            # A call names a function: it must be exported.
            assert call.group(1) in exports, span
            named.add(call.group(1))
        elif re.fullmatch(r"[A-Za-z_]\w*", span):
            assert span in exports or span in others, span
            named.add(span)
    # The section does name the run's entry points and lower-level pieces.
    assert {"run_simulation", "Grid1D", "grad_sup"} <= named


def test_solve_boundaries_stay_module_attributes():
    # The benchmark's tracer wraps these functions by name in the modules
    # that call them; under another name their timings would read zero.
    assert rdcheck.solver.implicit_heat_step is rdcheck.implicit_heat_step
    assert rdcheck.diagnostics.implicit_heat_step is rdcheck.implicit_heat_step
    assert rdcheck.solver.imex_step is rdcheck.imex_step
    assert rdcheck.experiment.check_structure is rdcheck.check_structure
    assert rdcheck.experiment.verify_augmented is rdcheck.verify_augmented
    assert rdcheck.experiment.entropy_pointwise_worst is rdcheck.entropy_pointwise_worst
    assert rdcheck.experiment.run_simulation is rdcheck.run_simulation


def test_no_module_imports_a_siblings_private_name():
    # A private helper that two modules need lives in one of them; the other
    # does not reach it through its underscore.
    package = os.path.dirname(rdcheck.__file__)
    offenders = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename)
        for node in ast.walk(tree):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").startswith("rdcheck")
            )
            if sibling:
                offenders += [
                    f"{filename}: {alias.name} from {node.module}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                ]
    assert offenders == []
