import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import hypmin

MODULES = ["hypmin", *(f"hypmin.{m.name}" for m in pkgutil.iter_modules(hypmin.__path__))]
SRC = pathlib.Path(hypmin.__file__).resolve().parent

# the package's names, as they were when __init__ imported every module
PUBLIC = [
    "CoefficientSpec", "Grid", "vanishing_prefix", "SpeedPair",
    "DiagGauge", "diag_removal", "volterra_apply", "volterra_invert",
    "KernelSet", "FeedbackLaw", "solve_kernels", "solve_gains", "solve_trace",
    "SystemSpec", "BoundaryReflection", "SimResult", "simulate",
    "canonical_map", "canonical_solution", "growth_rate", "l2_norm",
    "TimesReport", "TitchmarshReport", "times_report", "canonical_min_time",
    "nxn_canonical_min_time", "predicted_g_prefix", "titchmarsh_check",
]
SOLVERS = ["hypmin.kernels", "hypmin.simulator", "hypmin.transforms", "hypmin.harness"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its deletion breaks only `import *`
    mod = importlib.import_module(module)
    names = list(getattr(mod, "__all__", ()))
    assert [n for n in names if not hasattr(mod, n)] == []
    assert len(set(names)) == len(names)


class TestLazyNamespace:
    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_is_its_home_modules(self, name):
        obj = getattr(hypmin, name)
        assert obj.__module__.startswith("hypmin.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj

    def test_all_keeps_its_names(self):
        assert sorted(hypmin.__all__) == sorted(PUBLIC)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            hypmin.no_such_name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from hypmin import *", namespace)
        assert [name for name in PUBLIC if name not in namespace] == []
        assert namespace["solve_gains"] is importlib.import_module("hypmin.kernels").solve_gains

    def test_from_import_of_a_submodule(self):
        from hypmin import kernels
        assert kernels is sys.modules["hypmin.kernels"]


def _loaded_after(statement: str) -> set:
    """The hypmin modules a fresh interpreter holds after statement."""
    code = (f"import sys; {statement}; "
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'hypmin'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return set(proc.stdout.split())


class TestLayers:
    """Each module imports only the modules below it: the minimal-time formula
    and the config loader load no solver, and a bare import loads nothing."""

    @pytest.mark.parametrize("module", ["hypmin.mintime", "hypmin.config"])
    def test_formula_and_config_load_no_solver(self, module):
        loaded = _loaded_after(f"import {module}")
        assert module in loaded
        assert loaded.isdisjoint(SOLVERS)

    def test_simulator_loads_no_kernels(self):
        loaded = _loaded_after("import hypmin.simulator")
        assert "hypmin.simulator" in loaded and "hypmin.kernels" not in loaded

    def test_bare_import_loads_no_submodule(self):
        assert _loaded_after("import hypmin") == {"hypmin"}

    def test_commands_load_no_numpy_polynomial(self, tmp_path):
        # a polynomial coefficient is summed by coeffs' own Horner loop
        config = SRC.parent.parent / "configs" / "varying_speeds.json"
        code = ("import sys; from hypmin.cli import run_cli\n"
                f"for argv in (['kernels'], ['simulate'], ['verify-sharpness', '--T', '1.5']):\n"
                f"    assert run_cli([*argv, {str(config)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
    def test_no_private_import_and_no_type_checking(self, path):
        tree = ast.parse(path.read_text())
        private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.level > 0 or (node.module or "").startswith("hypmin"))
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert "TYPE_CHECKING" not in names
