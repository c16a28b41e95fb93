"""Meta-tests on the public API surface: exports exist and are documented."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.polynomial",
    "repro.core.parser",
    "repro.core.tree",
    "repro.core.forest",
    "repro.core.abstraction",
    "repro.core.valuation",
    "repro.core.serialize",
    "repro.core.statistics",
    "repro.algorithms",
    "repro.algorithms.optimal",
    "repro.algorithms.greedy",
    "repro.algorithms.brute_force",
    "repro.algorithms.exact",
    "repro.algorithms.competitor",
    "repro.algorithms.decision",
    "repro.algorithms.registry",
    "repro.api",
    "repro.api.session",
    "repro.api.artifact",
    "repro.errors",
    "repro.options",
    "repro.service",
    "repro.service.app",
    "repro.service.store",
    "repro.service.warm",
    "repro.service.batcher",
    "repro.service.http",
    "repro.semiring",
    "repro.engine",
    "repro.engine.sql",
    "repro.scenarios",
    "repro.workloads",
    "repro.workloads.tpch",
    "repro.workloads.induction",
    "repro.hardness",
    "repro.util",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert getattr(module, name, None) is not None, f"{module_name}.{name}"


def test_lazy_exports_are_discoverable():
    """dir(repro) advertises every lazy name, and each one resolves."""
    import repro

    listed = dir(repro)
    for name in ["optimal_vvs", "greedy_vvs", "brute_force_vvs",
                 "Scenario", "ScenarioSuite", "evaluate_scenarios",
                 "serialize", "ProvenanceSession", "CompressedProvenance",
                 "Answer"]:
        assert name in listed, name
        assert name in repro.__all__, name
        assert getattr(repro, name) is not None, name


def test_import_repro_and_lint_without_numpy():
    """``import repro`` and the stdlib lint entry load with numpy absent.

    The CI lint job installs no numpy; a module-level ``import numpy``
    reachable from ``repro/__init__`` would break it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import repro.lint\n"
        "import repro\n"
        "import repro.core\n"
        "from repro.lint import __main__\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_are_documented(module_name):
    """Every exported class and function carries a docstring."""
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        member = getattr(module, name)
        if inspect.isclass(member) or inspect.isfunction(member):
            if not (member.__doc__ and member.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: {undocumented}"


def test_public_methods_are_documented():
    """Public methods of the core classes carry docstrings too."""
    from repro.core import (
        AbstractionForest,
        AbstractionTree,
        Monomial,
        Polynomial,
        PolynomialSet,
        ValidVariableSet,
        Valuation,
    )

    undocumented = []
    for cls in [Monomial, Polynomial, PolynomialSet, AbstractionTree,
                AbstractionForest, ValidVariableSet, Valuation]:
        for name, member in vars(cls).items():
            if name.startswith("_"):
                continue
            if callable(member) or isinstance(member, property):
                target = member.fget if isinstance(member, property) else member
                if not (getattr(target, "__doc__", None) or "").strip():
                    undocumented.append(f"{cls.__name__}.{name}")
    assert not undocumented, undocumented
